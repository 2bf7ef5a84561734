"""Operations a process may be poised to perform, and recorded steps.

An *operation* is what a process is poised to do next in a configuration
(paper, Section 2: "a step e by a process p is applicable at a
configuration C if e is the next step of process p given its state in C").
Shared-memory operations name an object index; :class:`CoinFlip` and
:class:`Marker` are local steps used by randomized protocols and by the
mutual-exclusion checkers respectively.

A :class:`Step` is an operation that *happened*: it records the process,
the operation, and the response the object returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional


@dataclass(frozen=True)
class Operation:
    """Base class for operations.  Subclasses are frozen dataclasses."""

    __slots__ = ()

    @property
    def obj(self) -> Optional[int]:
        """Index of the shared object accessed, or None for local steps."""
        return getattr(self, "_obj", None)

    @property
    def is_write(self) -> bool:
        """True if the operation can change the state of a shared object.

        This is the notion of "write" used by the covering argument: a
        process *covers* a register when it is poised to perform an
        operation that may overwrite it.
        """
        return False

    @property
    def is_shared(self) -> bool:
        """True if the operation touches shared memory at all."""
        return self.obj is not None


@dataclass(frozen=True, slots=True)
class Read(Operation):
    """Read object ``obj`` and receive its current value."""

    _obj: int

    @property
    def obj(self) -> int:
        return self._obj


@dataclass(frozen=True, slots=True)
class Write(Operation):
    """Write ``value`` to object ``obj``; the response is an ack (None)."""

    _obj: int
    value: Hashable

    @property
    def obj(self) -> int:
        return self._obj

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Swap(Operation):
    """Atomically write ``value`` and receive the previous contents."""

    _obj: int
    value: Hashable

    @property
    def obj(self) -> int:
        return self._obj

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class TestAndSet(Operation):
    """Atomically set the object to 1 and receive the previous contents."""

    __test__ = False  # not a pytest test class despite the name

    _obj: int

    @property
    def obj(self) -> int:
        return self._obj

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class CompareAndSwap(Operation):
    """If the object holds ``expected``, replace it with ``new``.

    The response is the value held before the operation (so success is
    ``response == expected``).
    """

    _obj: int
    expected: Hashable
    new: Hashable

    @property
    def obj(self) -> int:
        return self._obj

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class FetchAndAdd(Operation):
    """Atomically add ``delta`` and receive the previous contents."""

    _obj: int
    delta: int

    @property
    def obj(self) -> int:
        return self._obj

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class CoinFlip(Operation):
    """Consume the next bit of the process's coin tape (local step).

    Randomized protocols are modelled with adversary-chosen coin tapes:
    given the tapes, every execution is deterministic, which is exactly
    the "nondeterministic solo terminating" framing of the paper.
    """


@dataclass(frozen=True, slots=True)
class Marker(Operation):
    """A local no-op step carrying a label, recorded in the trace.

    Used by the mutual-exclusion suite to mark critical-section entry and
    exit so the checkers can observe them without touching shared memory.
    """

    label: str


@dataclass(frozen=True)
class Step:
    """A step that occurred: process ``pid`` performed ``op`` and got
    ``response`` back."""

    pid: int
    op: Operation
    response: Hashable

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"p{self.pid}:{self.op}->{self.response!r}"

"""The process abstraction: protocols as deterministic automata.

A protocol assigns every process a deterministic algorithm (paper,
Section 2).  We model the algorithm of process ``pid`` as an automaton
over *hashable* states:

* ``initial_state(pid, input_value)`` -- the state before any step;
* ``poised(pid, state)`` -- the operation the process is poised to
  perform, or ``None`` if it has halted;
* ``transition(pid, state, response)`` -- the state after the poised
  operation returns ``response``;
* ``decision(pid, state)`` -- the value decided in this state, if any.

Hashable states are what make configurations values: the valency oracle
memoises on them, the explorer deduplicates on them, and executions are
replayable.  Protocols written by hand implement this interface directly;
most protocols in this library are written in the instruction DSL of
:mod:`repro.model.program`, which compiles to this interface.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, TYPE_CHECKING

from repro.model.operations import Operation
from repro.model.registers import ObjectSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.configuration import Configuration


@dataclass(frozen=True)
class DecidedState:
    """Terminal state of a process that decided ``value``.

    Kept distinct from protocol-specific states so ``decision`` and
    ``poised`` have a uniform fast path.  ``HALTED`` (a decided state
    with value ``None`` and ``halted=True``) marks termination without a
    decision (used by long-lived objects and by manual halting).
    """

    value: Hashable = None
    halted: bool = False


HALTED = DecidedState(value=None, halted=True)


def _reconstruct_protocol(cls, args, kwargs):
    """Unpickle hook: rebuild a protocol by re-running its constructor."""
    return cls(*args, **kwargs)


def _recording_init(init):
    """Wrap ``__init__`` to remember the outermost constructor call.

    Protocols compiled from the instruction DSL hold closures and are
    not picklable structurally, but they *are* reproducible: the class
    plus the constructor arguments rebuild an equivalent instance; the
    valency cache's fingerprints (:mod:`repro.parallel`) and the fuzz
    zoo address protocols by this recipe.  Only the outermost call is
    recorded, so ``super().__init__`` chains keep the most-derived
    reconstruction.
    """

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        if not hasattr(self, "_ctor_args"):
            self._ctor_args = (args, dict(kwargs))
        init(self, *args, **kwargs)

    wrapper._records_ctor_args = True
    return wrapper


class Protocol(ABC):
    """An n-process protocol over a fixed family of shared objects."""

    #: Human-readable protocol name, used in reports and certificates.
    name: str = "protocol"

    def __init__(self, n: int):
        if not hasattr(self, "_ctor_args"):
            self._ctor_args = ((n,), {})
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        self.n = n

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None and not getattr(init, "_records_ctor_args", False):
            cls.__init__ = _recording_init(init)

    def __reduce__(self):
        """Pickle by construction recipe, not by (closure-laden) state.

        The constructor arguments must themselves be picklable; protocol
        attributes mutated after construction are not preserved.
        """
        args, kwargs = self._ctor_args
        return (_reconstruct_protocol, (type(self), args, kwargs))

    # -- required interface -------------------------------------------------
    @abstractmethod
    def object_specs(self) -> Tuple[ObjectSpec, ...]:
        """The shared objects the protocol uses, in index order."""

    @abstractmethod
    def initial_state(self, pid: int, input_value: Hashable) -> Hashable:
        """State of process ``pid`` before taking any step."""

    @abstractmethod
    def poised(self, pid: int, state: Hashable) -> Optional[Operation]:
        """The next operation of ``pid`` in ``state`` (None if halted)."""

    @abstractmethod
    def transition(
        self, pid: int, state: Hashable, response: Hashable
    ) -> Hashable:
        """The state after the poised operation returned ``response``."""

    # -- optional interface -------------------------------------------------
    def decision(self, pid: int, state: Hashable) -> Optional[Hashable]:
        """The value ``pid`` has decided in ``state``, or None."""
        if isinstance(state, DecidedState) and not state.halted:
            return state.value
        return None

    @property
    def num_objects(self) -> int:
        return len(self.object_specs())

    def canonical_key(self, config: "Configuration") -> Hashable:
        """A key identifying ``config`` up to protocol-declared symmetry.

        Explorers and the valency oracle deduplicate configurations by
        this key.  The default is the configuration itself (exact).  A
        protocol whose behaviour depends only on an abstraction of the
        configuration -- e.g. round numbers compared only relatively --
        may override this with a coarser key, making otherwise infinite
        reachable graphs finite.  Soundness requirement: configurations
        with equal keys must be bisimilar (same poised operations up to
        the abstraction, and transitions preserve key-equality), and
        decisions must agree.  The test suite checks this on every
        protocol that overrides the hook (see tests/test_abstraction.py).
        """
        return config

    def canonical_query_key(self, config: "Configuration", pids) -> Hashable:
        """A key identifying (configuration, process set) pairs that are
        interchangeable for P-only reachability questions.

        The valency oracle memoises per-set queries on this key, and the
        explorer deduplicates P-only searches with it.  The default pairs
        the configuration key with the exact process set.  A protocol
        with process symmetry may identify pairs related by a permutation
        that *fixes P setwise* -- permutations that move P onto different
        processes would change what "P-only" means.
        """
        return (self.canonical_key(config), frozenset(pids))

    def canonical_query_key_cached(
        self, config: "Configuration", pids, cache: dict
    ) -> Hashable:
        """:meth:`canonical_query_key`, free to memoise into ``cache``.

        The compiled kernel calls this with a dictionary owned by one
        process set's visited space, once per novel row.  A protocol whose canonical key is built
        from per-process fragments (shifted local states, normalised
        register entries) may stash those fragments in ``cache`` keyed
        by hashable sub-inputs, turning the per-configuration
        normalisation into a handful of dictionary probes.  The contract
        is strict equality: for every configuration and process set the
        returned key must equal ``canonical_query_key(config, pids)``
        (the abstraction test suite checks this on every protocol that
        overrides the hook).  The default ignores the cache.
        """
        return self.canonical_query_key(config, pids)

    def describe(self) -> str:
        specs = self.object_specs()
        return (
            f"{self.name}: n={self.n}, "
            f"{len(specs)} objects [{', '.join(s.describe() for s in specs)}]"
        )

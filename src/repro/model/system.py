"""The shared-memory system: applying steps and schedules to configurations.

``System`` binds a protocol to coin tapes and provides the operational
semantics: ``step`` applies one process step, ``run`` applies a schedule,
``solo_run`` runs one process until it decides (the "solo terminating"
executions of the paper's nondeterministic solo termination condition).

Everything is pure with respect to configurations: methods return new
configurations and recorded :class:`~repro.model.operations.Step` lists.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ModelError, ProcessHaltedError
from repro.model.configuration import Configuration
from repro.model.operations import CoinFlip, Marker, Operation, Step
from repro.model.process import Protocol
from repro.model.registers import apply_operation

#: A coin tape: maps (pid, flip-index) to a bit.
Tape = Callable[[int, int], int]


def zero_tape(pid: int, index: int) -> int:
    """The all-zeros coin tape (the default: fully deterministic runs)."""
    return 0


class BitTape:
    """A tape reading from explicit per-process bit lists, then ``default``.

    A class (not a closure) so systems carrying explicit tapes stay
    picklable and have a stable identity for the valency cache's
    fingerprints.
    """

    def __init__(self, bits_per_pid: Sequence[Sequence[int]], default: int = 0):
        self.bits_per_pid = tuple(tuple(bits) for bits in bits_per_pid)
        self.default = default

    def __call__(self, pid: int, index: int) -> int:
        bits = (
            self.bits_per_pid[pid] if pid < len(self.bits_per_pid) else ()
        )
        if index < len(bits):
            return int(bits[index])
        return self.default


def tape_from_bits(bits_per_pid: Sequence[Sequence[int]], default: int = 0) -> Tape:
    """A tape reading from explicit per-process bit lists, then ``default``."""
    return BitTape(bits_per_pid, default)


class System:
    """Operational semantics of a protocol under adversarial scheduling."""

    def __init__(self, protocol: Protocol, tape: Tape = zero_tape):
        self.protocol = protocol
        self.tape = tape
        self._kinds = tuple(spec.kind for spec in protocol.object_specs())

    # -- construction ---------------------------------------------------------
    def initial_configuration(self, inputs: Sequence[Hashable]) -> Configuration:
        """The initial configuration for the given input assignment."""
        protocol = self.protocol
        if len(inputs) != protocol.n:
            raise ModelError(
                f"protocol has n={protocol.n} processes, got "
                f"{len(inputs)} inputs"
            )
        states = tuple(
            protocol.initial_state(pid, value) for pid, value in enumerate(inputs)
        )
        memory = tuple(spec.initial for spec in protocol.object_specs())
        return Configuration(states, memory, (0,) * protocol.n)

    # -- single steps -----------------------------------------------------------
    def enabled(self, config: Configuration, pid: int) -> bool:
        """True if ``pid`` still has a step to take."""
        return self.protocol.poised(pid, config.states[pid]) is not None

    def poised(self, config: Configuration, pid: int) -> Optional[Operation]:
        """The operation ``pid`` is poised to perform (None if halted)."""
        return self.protocol.poised(pid, config.states[pid])

    def step(self, config: Configuration, pid: int) -> Tuple[Configuration, Step]:
        """Apply the next step of ``pid``; returns the new configuration."""
        protocol = self.protocol
        state = config.states[pid]
        op = protocol.poised(pid, state)
        if op is None:
            raise ProcessHaltedError(f"process {pid} has halted/decided")
        after = config
        if isinstance(op, CoinFlip):
            response: Hashable = self.tape(pid, config.coins[pid])
            after = after.with_coin_consumed(pid)
        elif isinstance(op, Marker):
            response = None
        else:
            obj = op.obj
            if obj is None or not 0 <= obj < len(self._kinds):
                raise ModelError(f"operation {op!r} names bad object {obj!r}")
            new_value, response = self._apply_shared(
                obj, config.memory[obj], op
            )
            after = after.with_memory(obj, new_value)
        after = after.with_state(pid, protocol.transition(pid, state, response))
        return after, Step(pid, op, response)

    def _apply_shared(
        self, obj: int, value: Hashable, op: Operation
    ) -> Tuple[Hashable, Hashable]:
        """Apply one shared-memory operation; returns (new value, response).

        The single point where a step touches shared memory -- fault
        models (e.g. :class:`repro.faults.registers.FaultyMemorySystem`)
        override this to inject lost writes, stale reads, or corruption
        while keeping ``step``'s bookkeeping intact.  Overrides must stay
        pure functions of their arguments: branching explorations replay
        steps from arbitrary configurations.
        """
        return apply_operation(self._kinds[obj], value, op)

    # -- schedules ----------------------------------------------------------------
    def run(
        self,
        config: Configuration,
        schedule: Iterable[int],
        skip_halted: bool = False,
    ) -> Tuple[Configuration, List[Step]]:
        """Apply a schedule; returns the final configuration and the trace.

        With ``skip_halted`` the schedule may name halted processes and
        those entries are ignored -- convenient for randomly generated
        schedules; constructions that reason about exact executions keep
        the default and get an error instead.
        """
        trace: List[Step] = []
        for pid in schedule:
            if skip_halted and not self.enabled(config, pid):
                continue
            config, step = self.step(config, pid)
            trace.append(step)
        return config, trace

    def run_with_crashes(
        self,
        config: Configuration,
        schedule: Iterable[int],
        plan,
        skip_halted: bool = True,
    ) -> Tuple[Configuration, List[Step]]:
        """Apply a schedule under a crash plan.

        ``plan`` is any object with an ``apply(schedule) -> schedule``
        method (see :class:`repro.faults.crash.CrashPlan`): steps of a
        crashed process are removed from the schedule -- in the
        asynchronous model a crash is indistinguishable from never being
        scheduled again.  ``skip_halted`` defaults to True because crash
        campaigns typically drive generated schedules.
        """
        return self.run(config, plan.apply(tuple(schedule)), skip_halted)

    def solo_run(
        self,
        config: Configuration,
        pid: int,
        max_steps: int,
        stop: Optional[Callable[[Configuration, Step], bool]] = None,
    ) -> Tuple[Configuration, List[Step]]:
        """Run ``pid`` alone until it halts/decides (or ``stop`` fires).

        Raises :class:`ModelError` if the process is still running after
        ``max_steps`` steps -- for a solo-terminating protocol that means
        the bound was too small (or the protocol is not solo terminating,
        which the checker reports separately).
        """
        trace: List[Step] = []
        for _ in range(max_steps):
            if not self.enabled(config, pid):
                return config, trace
            config, step = self.step(config, pid)
            trace.append(step)
            if stop is not None and stop(config, step):
                return config, trace
        if not self.enabled(config, pid):
            return config, trace
        raise ModelError(
            f"process {pid} did not terminate within {max_steps} solo steps"
        )

    # -- observations ----------------------------------------------------------
    def decision(self, config: Configuration, pid: int) -> Optional[Hashable]:
        return self.protocol.decision(pid, config.states[pid])

    def decisions(self, config: Configuration) -> Tuple[Optional[Hashable], ...]:
        """Per-process decided values (None where undecided)."""
        return tuple(
            self.protocol.decision(pid, state)
            for pid, state in enumerate(config.states)
        )

    def decided_values(self, config: Configuration) -> frozenset:
        """The set of values decided by some process in ``config``."""
        return frozenset(v for v in self.decisions(config) if v is not None)

    def covered_register(self, config: Configuration, pid: int) -> Optional[int]:
        """The register ``pid`` covers, i.e. is poised to write, if any.

        Definition 2 of the paper: a process covers register r when it is
        poised to perform a write to r.  For historyless/stronger objects
        any state-changing operation counts as the covering write.
        """
        op = self.poised(config, pid)
        if op is not None and op.is_write:
            return op.obj
        return None


class InterpretedSystem(System):
    """A ``System`` whose explorations run on the interpreter.

    The reference semantics the compiled kernel is checked against.  It
    overrides nothing, so every step is exactly ``System``'s; but the
    kernel compiles only exact ``System`` instances
    (:func:`repro.kernel.kernel_unsupported_reason`), so an
    :class:`~repro.analysis.explorer.Explorer` over this system walks
    ``Configuration`` objects, and its solo runs step the object model.
    The choice of engine travels with the system object: differential
    tests, the E21 benchmark and the fuzz matrix's interpreter leg
    build this class, everything else builds ``System`` and gets the
    kernel.
    """

"""Theorem 1: every NST consensus protocol for n processes uses >= n-1
registers -- as an executable adversary producing a certificate.

``space_lower_bound`` drives the constructions of Lemmas 1-4 against a
concrete protocol and returns a :class:`SpaceBoundCertificate` whose
replay exhibits n-1 distinct registers: n-2 covered by well-spread
processes, plus one more that the hidden process z is poised to write.

The n = 2 base case follows the paper's direct argument: if p0's solo
deciding run wrote nothing, p1 could not tell the difference and would
decide the other value, violating agreement; so the run must write, and
its first write witnesses one register.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AdversaryError, ViolationError
from repro.core.certificate import SpaceBoundCertificate
from repro.core.construction import ConstructionStats, lemma4
from repro.core.covering import covering_map
from repro.core.lemmas import lemma3, truncate_before_uncovered_write
from repro.core.valency import ValencyOracle, initial_bivalent_configuration
from repro.model.schedule import solo
from repro.model.system import System
from repro.obs.runtime import get_metrics, get_tracer


def space_lower_bound(
    system: System,
    verify: bool = True,
    stats: Optional[ConstructionStats] = None,
    max_configs: int = 200_000,
    max_depth: Optional[int] = None,
    strict: bool = True,
    oracle: Optional[ValencyOracle] = None,
    cache_dir=None,
) -> SpaceBoundCertificate:
    """Run the Theorem 1 adversary and return a validated certificate.

    ``strict``/``max_depth`` configure the valency oracle: protocols with
    finite canonical reachable graphs can use the exact default, while
    real obstruction-free protocols (whose races are unbounded) need the
    bounded oracle (``strict=False`` plus a depth budget).  The returned
    certificate is validated by pure replay either way.

    Raises :class:`AdversaryError` if a construction step fails (which,
    given exhaustive explorations, means the protocol is not a correct
    NST consensus protocol -- or, for bounded oracles, that the budget
    was too small) and :class:`ViolationError` when the failure comes
    with a concrete consensus-violation witness.

    ``oracle`` lets callers inject a pre-built valency oracle -- a
    budgeted or journaled one (see :mod:`repro.faults`) -- in which
    case ``max_configs``/``max_depth``/``strict`` are taken from the
    oracle.
    The exploration engine follows the system's type: ``System`` runs
    on the compiled kernel, ``InterpretedSystem`` on the interpreter.
    """
    protocol = system.protocol
    n = protocol.n
    if n < 2:
        raise AdversaryError("the space bound is about n >= 2 processes")

    owns_oracle = oracle is None
    if oracle is None:
        oracle = ValencyOracle(
            system,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            cache_dir=cache_dir,
        )
    with get_tracer().span(
        "theorem1", protocol=protocol.name, n=n
    ):
        try:
            initial, _p0, _p1 = initial_bivalent_configuration(
                system, oracle=oracle
            )
            inputs = tuple([0, 1] + [0] * (n - 2))

            if n == 2:
                certificate = _two_process_bound(system, inputs)
            else:
                certificate = _general_bound(
                    system, oracle, initial, inputs, verify, stats
                )
        finally:
            if owns_oracle:
                oracle.close()
        certificate.validate(system)
        get_metrics().gauge("construction.covered_registers").set_max(
            len(certificate.registers)
        )
        get_tracer().event(
            "theorem1.certificate",
            protocol=protocol.name,
            n=n,
            registers=sorted(certificate.registers, key=repr),
            alpha_len=len(certificate.alpha),
            zeta_len=len(certificate.zeta),
        )
    return certificate


def _two_process_bound(system: System, inputs) -> SpaceBoundCertificate:
    """Base case n = 2: some solo deciding run must write to a register."""
    initial = system.initial_configuration(list(inputs))
    try:
        zeta, fresh = truncate_before_uncovered_write(
            system, initial, 0, frozenset()
        )
    except AdversaryError:
        # p0 decided solo without writing; exhibit the agreement violation
        # the paper's argument predicts.
        config, trace0 = system.solo_run(initial, 0, max_steps=100_000)
        config, trace1 = system.solo_run(config, 1, max_steps=100_000)
        decisions = system.decisions(config)
        raise ViolationError(
            f"write-free solo run: p0 decided {decisions[0]!r} without "
            f"writing, then p1 decided {decisions[1]!r}; agreement is "
            "violated",
            witness=solo(0, len(trace0)) + solo(1, len(trace1)),
        ) from None
    return SpaceBoundCertificate(
        protocol_name=system.protocol.name,
        n=2,
        inputs=inputs,
        alpha=(),
        phi=(),
        covering={},
        z=0,
        zeta=zeta,
        fresh_register=fresh,
        registers=frozenset({fresh}),
    )


def _general_bound(
    system: System,
    oracle: ValencyOracle,
    initial,
    inputs,
    verify: bool,
    stats: Optional[ConstructionStats],
) -> SpaceBoundCertificate:
    """General case n >= 3, exactly as in the paper's proof of Theorem 1."""
    protocol = system.protocol
    everyone = frozenset(range(protocol.n))

    # Lemma 4 from I: a pair Q bivalent from C0 = I.alpha, the other n-2
    # processes R covering distinct registers.
    nice = lemma4(system, oracle, initial, everyone, verify=verify, stats=stats)
    c0, _ = system.run(initial, nice.alpha)
    covering_set = everyone - nice.pair

    # Lemma 3 at C0: a Q-only phi and q in Q with R + {q} bivalent from
    # C0.phi.beta.  (beta itself is never taken: it only justifies that
    # z's solo run from C0.phi must write outside the covered set.)
    step3 = lemma3(system, oracle, c0, everyone, covering_set)
    at_phi, _ = system.run(c0, step3.phi)
    z = next(iter(nice.pair - {step3.q}))

    covering = {
        pid: reg
        for pid, reg in covering_map(system, at_phi, covering_set).items()
        if reg is not None
    }
    if len(covering) != len(covering_set):
        raise AdversaryError("covering set lost a poised write during phi")

    zeta, fresh = truncate_before_uncovered_write(
        system, at_phi, z, frozenset(covering.values())
    )
    registers = frozenset(covering.values()) | {fresh}
    return SpaceBoundCertificate(
        protocol_name=protocol.name,
        n=protocol.n,
        inputs=inputs,
        alpha=nice.alpha,
        phi=step3.phi,
        covering=covering,
        z=z,
        zeta=zeta,
        fresh_register=fresh,
        registers=registers,
    )

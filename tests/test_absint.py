"""The abstract interpreter: domains, transfer, fixpoint, verdicts.

Pinned regressions at the bottom are the PR's reason to exist: two table
automata the footprint lint *cannot* refute (every register is
syntactically written) that the value-aware analysis refutes statically
-- one by validity, one by validity *and* the write bound.
"""

from types import SimpleNamespace

import pytest

from repro.errors import AbsintError
from repro.model.program import ProgramProtocol
from repro.model.table import TableProtocol
from repro.absint import (
    ValueSet,
    WIDEN_WIDTH,
    absint_refutation,
    absint_summary,
    analyze_protocol,
    analyze_table,
    atom,
    crosscheck_dynamic,
    static_certificate,
    table_rule_effect,
    top_reachability,
)
from repro.lint import (
    consensus_impossible,
    crosscheck_certificate,
    lint_protocol,
)


def biased_decider():
    """Footprint-clean, absint-refuted: always decides 0.

    Both processes write their input, then read r0 and decide 0
    regardless.  The writable footprint is {0, 1} (= n-1 = 2 registers,
    passes Theorem 1's contrapositive), but the abstract decide set on
    unanimous input 1 is {0}: validity is statically violated.
    """
    return TableProtocol(
        name="biased",
        n=3,
        registers=2,
        initial={0: 0, 1: 1},
        rules={0: ("write", 0, 0), 1: ("write", 1, 1), 2: ("read", 0)},
        transitions={(0, None): 2, (1, None): 2},
        defaults={2: 3},
        decisions={3: 0},
    )


def magic_response():
    """Footprint-clean, absint-refuted through value awareness.

    State 0 reads r0 and branches to state 5 -- the only writer of r1 --
    only on response ``"magic"``, a value no register ever holds.  The
    footprint counts the syntactically present ``write r1`` rule; the
    fixpoint proves state 5 unreachable, shrinking the write set to {0}
    (< n-1) and the decide set to {0}.
    """
    return TableProtocol(
        name="magic",
        n=3,
        registers=2,
        initial={0: 0, 1: 0},
        rules={0: ("read", 0), 5: ("write", 1, 1), 6: ("write", 0, 0)},
        transitions={
            (0, "magic"): 5, (0, None): 6, (5, None): 7, (6, None): 7,
        },
        defaults={},
        decisions={7: 0},
    )


def honest_decider():
    """A clean table: decides its own input, writes n-1 registers."""
    return TableProtocol(
        name="honest",
        n=2,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("write", 0, 0), 1: ("write", 0, 1)},
        transitions={(0, None): 2, (1, None): 3},
        defaults={},
        decisions={2: 0, 3: 1},
    )


class TestValueSet:
    def test_join_is_union(self):
        assert ValueSet.of(0).join(ValueSet.of(1)).sorted() == (0, 1)

    def test_top_absorbs(self):
        assert ValueSet.of(0).join(ValueSet.top_set()).is_top()
        assert 12345 in ValueSet.top_set()

    def test_membership_and_emptiness(self):
        assert 0 in ValueSet.of(0)
        assert 1 not in ValueSet.of(0)
        assert ValueSet.bottom().is_empty()
        assert not ValueSet.top_set().is_empty()

    def test_cardinality_cap_widens(self):
        big = ValueSet.from_iterable(range(WIDEN_WIDTH + 1))
        assert big.is_top()
        exact = ValueSet.from_iterable(range(WIDEN_WIDTH))
        assert not exact.is_top()
        assert exact.add(WIDEN_WIDTH).is_top()

    def test_contains_set_is_lattice_order(self):
        small, big = ValueSet.of(0), ValueSet.of(0, 1)
        assert big.contains_set(small)
        assert not small.contains_set(big)
        assert ValueSet.top_set().contains_set(big)
        assert not big.contains_set(ValueSet.top_set())

    def test_top_has_no_enumeration(self):
        with pytest.raises(ValueError):
            ValueSet.top_set().sorted()
        with pytest.raises(ValueError):
            len(ValueSet.top_set())

    def test_rendering(self):
        assert ValueSet.top_set().describe() == "⊤"
        assert ValueSet.of(1, 0).describe() == "{0, 1}"
        assert ValueSet.top_set().to_json() == "top"
        assert ValueSet.of(1, 0).to_json() == [0, 1]

    def test_atom_convention(self):
        assert atom(None) is None and atom(3) == 3 and atom("x") == "x"
        assert atom((1, 2)) == "(1, 2)"


class TestTableTransfer:
    def test_read_responds_without_writing(self):
        effect = table_rule_effect(("read", 0), 2, ValueSet.of(0, 1))
        assert not effect.writes
        assert set(effect.responses) == {0, 1}

    def test_write_stores_constant_and_responds_none(self):
        effect = table_rule_effect(("write", 1, 7), 2, ValueSet.of(0))
        assert effect.writes and effect.written == 7
        assert effect.responses == (None,)
        assert effect.register == 1

    def test_swap_responds_with_old_values(self):
        effect = table_rule_effect(("swap", 0, 9), 2, ValueSet.of(0, 1))
        assert effect.writes and effect.written == 9
        assert set(effect.responses) == {0, 1}

    def test_tas_writes_one(self):
        effect = table_rule_effect(("tas", 0), 2, ValueSet.of(0))
        assert effect.writes and effect.written == 1
        assert set(effect.responses) == {0}

    def test_top_input_is_an_analysis_error(self):
        with pytest.raises(AbsintError):
            table_rule_effect(("read", 0), 2, ValueSet.top_set())

    def test_unknown_opcode_is_an_analysis_error(self):
        with pytest.raises(AbsintError):
            table_rule_effect(("frob", 0), 2, ValueSet.of(0))


class TestTableFixpoint:
    def test_unreachable_writer_is_pruned(self):
        reach = analyze_table(magic_response())
        assert 5 not in reach.states
        assert reach.writes == frozenset({0})
        assert 1 not in reach.memory[1]

    def test_value_blind_cfg_cannot_prune_it(self):
        from repro.lint.cfg import table_cfg

        # The CFG follows every transition target regardless of values,
        # so state 5 looks reachable to it -- the precision gap this
        # analysis exists to close.
        assert 5 in table_cfg(magic_response()).reachable

    def test_per_input_decide_sets(self):
        p = biased_decider()
        zero = analyze_table(p, (0,))
        one = analyze_table(p, (1,))
        assert zero.decisions.sorted() == (0,)
        assert one.decisions.sorted() == (0,)  # decides 0 on input 1!

    def test_containment_against_concrete_configs(self):
        from repro.analysis.explorer import Explorer
        from repro.model.system import System

        p = biased_decider()
        reach = analyze_table(p, (1,))
        system = System(p)
        explorer = Explorer(system, max_configs=5_000, strict=False)
        root = system.initial_configuration([1, 1, 1])
        try:
            for config, _ in explorer.iter_reachable(root, frozenset(range(3))):
                assert reach.violation_for(config) is None
        finally:
            explorer.close()

    def test_violation_for_reports_escapes(self):
        p = honest_decider()
        reach = analyze_table(p)
        bad_state = SimpleNamespace(states=(99,), memory=(0,))
        assert "state 99" in reach.violation_for(bad_state)
        bad_value = SimpleNamespace(states=(0,), memory=("ghost",))
        assert "r0" in reach.violation_for(bad_value)

    def test_fixpoint_is_deterministic(self):
        a = analyze_table(magic_response())
        b = analyze_table(magic_response())
        assert a == b


class TestDispatch:
    def test_program_protocols_get_top_states_exact_writes(self):
        from repro.protocols.consensus import CommitAdoptRounds

        reach = analyze_protocol(CommitAdoptRounds(3))
        assert reach.states.is_top()
        # Round indices are env-dependent, so the write set widens to
        # the declared universe -- flagged as such, never trusted.
        assert reach.widened_writes
        assert len(reach.writes) >= 2  # n-1: it really solves consensus

    def test_table_subclass_is_not_trusted(self):
        class Subclassed(TableProtocol):
            pass

        p = honest_decider()
        sub = Subclassed(
            name="sub", n=p.n, registers=p.registers, initial=p.initial,
            rules=p.rules, transitions=p.transitions, defaults=p.defaults,
            decisions=p.decisions,
        )
        reach = analyze_protocol(sub)
        assert reach.is_top  # opaque: widened, zero verdicts
        assert not static_certificate(sub).refuted

    def test_top_reachability_is_sound_for_anything(self):
        reach = top_reachability(honest_decider())
        config = SimpleNamespace(states=("anything", 3), memory=(None,))
        assert reach.violation_for(config) is None


class TestVerdicts:
    def test_biased_decider_refuted_by_validity_not_footprint(self):
        p = biased_decider()
        assert consensus_impossible(p) is None  # footprint passes
        certificate = static_certificate(p)
        assert certificate.refuted
        assert certificate.kinds == ("validity",)
        [verdict] = certificate.verdicts
        assert verdict.input == 1

    def test_magic_response_refuted_twice_not_by_footprint(self):
        p = magic_response()
        assert consensus_impossible(p) is None  # footprint passes
        certificate = static_certificate(p)
        assert certificate.kinds == ("validity", "write-bound")

    def test_honest_decider_is_clean(self):
        certificate = static_certificate(honest_decider())
        assert not certificate.refuted
        assert certificate.refutation() is None

    def test_no_decide_verdict(self):
        # Input 1 starts in a rule-less, decision-less state: halted
        # forever, no decision abstractly (or concretely) reachable.
        p = TableProtocol(
            name="stuck", n=2, registers=1,
            initial={0: 0, 1: 9},
            rules={0: ("write", 0, 0)},
            transitions={(0, None): 2},
            defaults={},
            decisions={2: 0},
        )
        certificate = static_certificate(p)
        assert "no-decide" in certificate.kinds

    def test_programs_get_empty_verdicts(self):
        from repro.protocols.consensus import CommitAdoptRounds

        certificate = static_certificate(CommitAdoptRounds(3))
        assert certificate.representation == "program"
        assert not certificate.refuted

    def test_refutation_and_summary_helpers(self):
        assert absint_refutation(honest_decider()) is None
        summary = absint_summary(magic_response())
        assert summary["refuted"] is True
        assert summary["kinds"] == ["validity", "write-bound"]
        assert summary["writes"] == [0]


class TestCertificates:
    def test_json_roundtrip_is_byte_stable(self):
        a = static_certificate(magic_response())
        b = static_certificate(magic_response())
        assert a.to_json() == b.to_json()

    def test_validate_accepts_fresh_protocol(self):
        certificate = static_certificate(magic_response())
        certificate.validate(magic_response())  # must not raise

    def test_validate_rejects_changed_protocol(self):
        certificate = static_certificate(magic_response())
        with pytest.raises(AbsintError):
            certificate.validate(biased_decider())

    def test_crosscheck_flags_refuted_protocol_with_dynamic_cert(self):
        static = static_certificate(biased_decider())
        dynamic = SimpleNamespace(registers=frozenset({0}), bound=1)
        problems = crosscheck_dynamic(static, dynamic)
        assert any("refutes" in p for p in problems)

    def test_crosscheck_flags_escaped_registers(self):
        # Three declared registers, only r0 abstractly written: a
        # dynamic certificate exhibiting r2 contradicts the analysis.
        p = TableProtocol(
            name="wide-honest", n=2, registers=3,
            initial={0: 0, 1: 1},
            rules={0: ("write", 0, 0), 1: ("write", 0, 1)},
            transitions={(0, None): 2, (1, None): 3},
            defaults={},
            decisions={2: 0, 3: 1},
        )
        static = static_certificate(p)
        assert not static.refuted
        dynamic = SimpleNamespace(registers=frozenset({0, 2}), bound=1)
        problems = crosscheck_dynamic(static, dynamic)
        assert any("under-approximated" in p for p in problems)

    def test_crosscheck_flags_impossible_bound(self):
        static = static_certificate(honest_decider())
        dynamic = SimpleNamespace(registers=None, bound=99)
        problems = crosscheck_dynamic(static, dynamic)
        assert any("99" in p for p in problems)

    def test_crosscheck_clean_on_consistent_pair(self):
        static = static_certificate(honest_decider())
        dynamic = SimpleNamespace(registers=frozenset({0}), bound=1)
        assert crosscheck_dynamic(static, dynamic) == []


class TestLintIntegration:
    def test_lint_reports_absint_verdicts(self):
        report = lint_protocol(magic_response())
        codes = {d.code for d in report}
        assert "absint-validity" in codes
        assert "absint-write-bound" in codes
        assert "footprint-below-bound" not in codes

    def test_write_bound_not_doubled_when_footprint_already_fires(self):
        # Every rule writes r0 only: the footprint refutes this itself,
        # so absint suppresses its own write-bound echo.
        p = TableProtocol(
            name="narrow", n=3, registers=2,
            initial={0: 0, 1: 1},
            rules={0: ("write", 0, 0), 1: ("write", 0, 1)},
            transitions={(0, None): 2, (1, None): 2},
            defaults={},
            decisions={2: 0},
        )
        report = lint_protocol(p)
        codes = [d.code for d in report]
        assert "footprint-below-bound" in codes
        assert "absint-write-bound" not in codes

    def test_lint_clean_protocol_stays_clean(self):
        report = lint_protocol(honest_decider())
        assert not any(d.code.startswith("absint-") for d in report)

    def test_crosscheck_certificate_reports_absint_mismatch(self):
        dynamic = SimpleNamespace(registers=frozenset({0}), bound=1)
        report = crosscheck_certificate(biased_decider(), dynamic)
        assert report.by_code("certificate-absint-mismatch")

    def test_crosscheck_certificate_clean_on_real_family(self):
        from repro.faults import run_adversary_auto
        from repro.model.system import System
        from repro.protocols.consensus import CommitAdoptRounds

        protocol = CommitAdoptRounds(2)
        certificate = run_adversary_auto(System(protocol)).certificate
        report = crosscheck_certificate(protocol, certificate)
        assert len(report) == 0, report.to_json()

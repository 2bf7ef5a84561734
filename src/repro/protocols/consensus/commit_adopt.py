"""Obstruction-free binary consensus from n single-writer registers.

This is the library's flagship upper-bound protocol -- a protocol of the
family the paper's introduction refers to with "all existing protocols
use at least n registers": commit-adopt (Gafni's round-by-round
construction) iterated over rounds, with both phases of a round packed
into one single-writer register per process.

Register contents of process p (single writer: only p writes R_p):

    None                                nothing written yet
    (r, a, None)                        round r, phase 1: proposal a
    (r, a, (b, mark))                   round r, phase 2: proposal a,
                                        vote for b marked 'high'/'low'

One round of process p with preference v:

1. **Propose**: write ``(r, v, None)``; collect all registers; mark
   'high' if every round-r proposal seen equals v, else 'low'.
2. **Vote**: write ``(r, v, (v, mark))``; collect all registers; let
   B_r be the round-r votes seen (own vote included):

   * all of B_r marked 'high', all with the same value, and **no
     register shows a round above r**  ->  **decide** that value;
   * some 'high' vote exists   ->  adopt its value;
   * a register shows a round r' > r  ->  jump to round r' adopting its
     proposal (catch-up, needed for obstruction-free progress);
   * otherwise                  ->  keep v; next round r+1.

Safety sketch (checked exhaustively for small n by the test suite and
E2).  Suppose Z decides v at round r.  A register changes only when its
single writer writes, and erasing a round-r vote requires writing a
later-round proposal; Z's gap guard saw no round above r, so at Z's
collect *every round-r vote in existence* was visible, hence marked
('high', v).  Z then freezes with its own (r, v, high) vote in its
register, so every later round-r proposal scan sees value v: a process
with a different value marks 'low', and at most the value v is ever
marked high at round r from then on.  Every process completing round r
after Z's collect sees Z's frozen high vote and adopts v; every process
whose vote Z saw already carried v.  Hence all round-(r+1) proposals
equal v, and by induction every later round is unanimous -- including
the rounds reached by catch-up, whose adopted proposals descend from
round-r completions.  A concurrent commit by M at the same round sees
either Z's high-v vote (equal-value rule forces M's value to be v) or
is seen by Z symmetrically.  Validity holds because values only flow
from proposals, which descend from inputs.  A solo runner decides
within two rounds of its first collect, giving nondeterministic solo
termination.

Rounds grow without bound under contention (as they must: this protocol
is subject to FLP), so the P-only reachable graphs are infinite.  The
protocol therefore declares the round-shift hook pair
(:meth:`rounds_of`, :meth:`shift_rounds`) from which
:meth:`~repro.model.process.Protocol.canonical_key` derives its key --
the algorithm only ever compares rounds relatively, so subtracting the
minimum round present in a configuration is an exact bisimulation; it
collapses the pure round drift and leaves the adversary's bounded-mode
oracle a much smaller graph.

Development note.  The first version of this protocol used the naive
commit rule "all visible round-r votes are high" and was broken: the
model checker found an 18-step agreement violation in which a process's
'low' vote at round r was *erased* by its own round-(r+1) proposal
before the decider's collect, letting the decider see an all-high view
that never existed.  The gap guard (no visible round above r) closes
exactly that hole -- erasing a vote necessarily advertises a later
round -- and the equal-value rule closes the sequential-highs hole the
fix exposed next.  The original violating schedule is enshrined as a
regression test (tests/test_safety_invariants.py), and the episode is
the reason the library treats the model checker as a first-class
citizen next to the adversary.
"""

from __future__ import annotations

from typing import Hashable, Tuple

from repro.model.env import Env
from repro.model.program import (
    ProcState,
    ProgramBuilder,
    ProgramProtocol,
)
from repro.model.registers import register


def _phase1_mark(env) -> str:
    """'high' iff every round-r proposal in the collect equals own v."""
    r, v = env["r"], env["v"]
    for entry in env["scan"]:
        if entry is not None and entry[0] == r and entry[1] != v:
            return "low"
    return "high"


def _phase2_outcome(env) -> Tuple:
    """Decide/adopt after the vote collect; see the module docstring.

    The commit rule has three conjuncts, each load-bearing:

    * every visible round-r vote is marked 'high' (classic commit-adopt);
    * the high votes all carry the *same* value -- two 'high' marks for
      different values can arise sequentially within one round when the
      first marker advances before the second scans, and a collect can
      see both;
    * no register shows a round above r (the gap guard) -- a process can
      only erase its round-r vote by writing a later-round proposal, so
      either its round-r evidence is visible or its register betrays a
      higher round and blocks the commit.
    """
    r, v, scan = env["r"], env["v"], env["scan"]
    votes = [
        entry[2]
        for entry in scan
        if entry is not None and entry[0] == r and entry[2] is not None
    ]
    highs = [value for value, mark in votes if mark == "high"]
    newest = None
    for entry in scan:
        if entry is not None and entry[0] > r:
            if newest is None or entry[0] > newest[0]:
                newest = entry
    if (
        votes
        and len(highs) == len(votes)
        and len(set(highs)) == 1
        and newest is None
    ):
        return ("decide", highs[0])
    if highs:
        v = highs[0]
    if newest is not None:
        return ("adopt", newest[0], newest[1])
    return ("adopt", r + 1, v)


def build_round_program():
    """The commit-adopt round loop.

    Expects the initial environment to bind ``reg`` (the register this
    process writes, normally its pid) and ``nregs`` (how many registers
    to collect, normally n).  Sharing registers (``reg = pid % k``) or
    shrinking the collect turns the same code into the deliberately
    broken under-provisioned protocols of the contrapositive experiments.
    """
    builder = ProgramBuilder()
    builder.label("round")
    # Phase 1: propose.
    builder.write(
        lambda e: e["reg"], lambda e: (e["r"], e["v"], None)
    )
    builder.assign("scan", ())
    builder.assign("j", 0)
    builder.label("collect1")
    builder.read(lambda e: e["j"], "tmp")
    builder.assign("scan", lambda e: e["scan"] + (e["tmp"],))
    builder.assign("j", lambda e: e["j"] + 1)
    builder.branch_if(lambda e: e["j"] < e["nregs"], "collect1")
    builder.assign("mark", _phase1_mark)
    builder.assign("tmp", None)
    # Phase 2: vote.
    builder.write(
        lambda e: e["reg"],
        lambda e: (e["r"], e["v"], (e["v"], e["mark"])),
    )
    builder.assign("scan", ())
    builder.assign("j", 0)
    builder.label("collect2")
    builder.read(lambda e: e["j"], "tmp")
    builder.assign("scan", lambda e: e["scan"] + (e["tmp"],))
    builder.assign("j", lambda e: e["j"] + 1)
    builder.branch_if(lambda e: e["j"] < e["nregs"], "collect2")
    builder.assign("out", _phase2_outcome)
    builder.assign("scan", ())
    builder.assign("tmp", None)
    builder.branch_if(lambda e: e["out"][0] == "decide", "win")
    builder.assign("r", lambda e: e["out"][1])
    builder.assign("v", lambda e: e["out"][2])
    builder.assign("out", None)
    builder.goto("round")
    builder.label("win")
    builder.decide(lambda e: e["out"][1])
    return builder.build()


def _shift_entry(entry, base: int):
    if entry is None:
        return None
    return (entry[0] - base, entry[1], entry[2])


class CommitAdoptRounds(ProgramProtocol):
    """Obstruction-free binary consensus from n single-writer registers.

    ``registers`` defaults to n (one single-writer register per process,
    the correct protocol).  Passing ``registers = k < n`` shares
    registers between processes (``reg = pid % k``), which destroys the
    single-writer discipline the safety argument rests on; the resulting
    protocols exist to be broken by the model checker and the adversary
    (experiment E3).
    """

    def __init__(self, n: int, registers: int | None = None, name: str = ""):
        num_registers = n if registers is None else registers
        if num_registers < 1:
            raise ValueError("need at least one register")
        program = build_round_program()
        super().__init__(
            name=name or (
                "commit-adopt-rounds"
                if num_registers == n
                else f"commit-adopt-rounds/{num_registers}regs"
            ),
            n=n,
            specs=[register(None, name=f"R{i}") for i in range(num_registers)],
            programs=[program] * n,
            initial_env=lambda pid, value: {
                "reg": pid % num_registers,
                "nregs": num_registers,
                "r": 1,
                "v": value,
                "j": 0,
                "scan": (),
                "tmp": None,
                "out": None,
                "mark": "",
            },
        )

    def rounds_of(self, obj: Hashable) -> Tuple[int, ...]:
        """The rounds in a register entry, or in a round-loop state's
        ``r`` and its ``tmp`` and ``scan`` register entries.

        The protocol compares rounds only with ==, > and max, and
        advances them only by r := r+1 or by jumping to an observed
        round, so a uniform shift of all rounds is a bisimulation: the
        shifted configuration's behaviour is step-for-step identical up
        to the same shift.  (tests/test_abstraction.py checks the
        commutation of shifting and stepping on random executions.)
        """
        if isinstance(obj, tuple):
            return (obj[0],)
        if not (isinstance(obj, ProcState) and "r" in obj.env):
            return ()
        env = obj.env
        entries = (env["tmp"], *env["scan"])
        return (env["r"], *[entry[0] for entry in entries if entry is not None])

    def shift_rounds(self, obj: Hashable, base: int) -> Hashable:
        """``obj`` with the rounds :meth:`rounds_of` reports lowered by
        ``base``."""
        if isinstance(obj, tuple):
            return _shift_entry(obj, base)
        if not (isinstance(obj, ProcState) and "r" in obj.env):
            return obj
        env = dict(obj.env.items_tuple())
        env["r"] -= base
        env["tmp"] = _shift_entry(env["tmp"], base)
        env["scan"] = tuple(_shift_entry(entry, base) for entry in env["scan"])
        return ProcState(obj.pc, Env(env))

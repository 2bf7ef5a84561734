"""Seed the regression zoo with the hand-picked edge-case automata.

Each specimen pins a shape the fuzzer's random walk is unlikely to hit
often but the engines must agree on forever: the split-brain violation
family, the |W| = n-1 boundary of the paper's Theorem 1, Ovens-style
swap-object consensus, decide-free livelocks, read lattices full of
commuting steps, and a validity breaker.  Hand-picked entries bypass the
campaign's boring-filter by design -- curation outranks heuristics.

Idempotent: adding an already-present digest is a no-op, so re-running
after adding a new specimen only writes the new file.

Usage::

    PYTHONPATH=src python scripts/seed_zoo.py [ZOO_DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.fuzz.zoo import Zoo, default_zoo_root
from repro.model.table import TableProtocol


def _specimens():
    # 1. The split-brain family: two writers race one register, a reader
    #    echoes whichever value it sees -- the canonical agreement
    #    violation with a short witness (engines must all find it).
    yield TableProtocol(
        n=4,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("write", 0, 0), 1: ("write", 0, 1), 2: ("read", 0)},
        transitions={(0, None): 2, (1, None): 2, (2, 0): 3, (2, 1): 4},
        decisions={3: 0, 4: 1},
        name="split-brain-4",
    ), {
        "tag": "hand-picked:split-brain",
        "why": "canonical agreement violation; every engine must find "
        "the same witness schedules",
    }

    # 2. Correct 2-process swap-register consensus (Ovens-style
    #    historyless object): first swapper sees the initial None and
    #    wins, the loser sees the winner's value and adopts it.
    yield TableProtocol(
        n=2,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("swap", 0, 0), 1: ("swap", 0, 1)},
        transitions={(0, None): 2, (0, 1): 3, (1, None): 3, (1, 0): 2},
        decisions={2: 0, 3: 1},
        name="swap-race-2",
    ), {
        "tag": "hand-picked:swap-object-consensus",
        "why": "correct consensus from one historyless swap object; "
        "exercises the swap semantics across all engines",
    }

    # 3. The |W| = n-1 boundary: n = 3 processes, exactly 2 registers
    #    written on every decided run (the tight bound of Theorem 1).
    yield TableProtocol(
        n=3,
        registers=2,
        initial={0: 0, 1: 1},
        rules={
            0: ("write", 0, 0), 1: ("write", 0, 1),
            2: ("write", 1, 0), 3: ("read", 0),
        },
        transitions={
            (0, None): 2, (1, None): 2, (2, None): 3,
            (3, 0): 4, (3, 1): 5,
        },
        decisions={4: 0, 5: 1},
        name="boundary-w2-n3",
    ), {
        "tag": "hand-picked:boundary-w-eq-n-minus-1",
        "why": "writes exactly n-1 = 2 registers; straddles the "
        "Theorem 1 footprint boundary the lint layer reasons about",
    }

    # 4. Test&set winner-take-all: swap in your value, then race the
    #    tas bit; the winner decides its own value, the loser reads the
    #    swap register and adopts what it finds there.
    yield TableProtocol(
        n=2,
        registers=2,
        initial={0: 0, 1: 1},
        rules={
            0: ("swap", 1, 0), 1: ("swap", 1, 1),
            2: ("tas", 0), 3: ("read", 1),
        },
        transitions={
            (0, None): 2, (0, 0): 2, (0, 1): 2,
            (1, None): 2, (1, 0): 2, (1, 1): 2,
            (2, 0): 4, (2, 1): 3, (3, 0): 5, (3, 1): 6,
        },
        defaults={0: 2, 1: 2},
        decisions={4: 0, 5: 0, 6: 1},
        name="tas-winner-2",
    ), {
        "tag": "hand-picked:tas-object",
        "why": "mixes swap and test&set objects in one automaton; the "
        "tas response branch must explore identically everywhere",
    }

    # 5. Decide-free livelock: processes cycle through reads and writes
    #    forever.  No decisions at all -- the engines must agree the
    #    decided-set is empty and on every visited-count.
    yield TableProtocol(
        n=3,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("write", 0, 0), 1: ("write", 0, 1), 2: ("read", 0)},
        transitions={(0, None): 2, (1, None): 2, (2, 0): 0, (2, 1): 1},
        name="decide-free-3",
    ), {
        "tag": "hand-picked:decide-free",
        "why": "no decision anywhere: exploration must terminate by "
        "deduplication alone, identically in every engine",
    }

    # 6. Commuting-read lattice: three registers read in every order,
    #    so most edges reach an already-discovered configuration.  Its
    #    name and tag date from the partial-order reduction it was
    #    picked to stress; they are the specimen's recorded provenance.
    yield TableProtocol(
        n=3,
        registers=3,
        initial={0: 0, 1: 0},
        rules={0: ("read", 0), 1: ("read", 1), 2: ("read", 2)},
        transitions={(0, None): 1, (1, None): 2, (2, None): 3},
        defaults={0: 1, 1: 2, 2: 3},
        decisions={3: 0},
        name="por-heavy-3",
    ), {
        "tag": "hand-picked:por-pruning-heavy",
        "why": "all steps commute (pure reads); maximal POR pruning "
        "must not change certificates or witnesses",
    }

    # 7. Ping-pong: two states bouncing a register between values; the
    #    decision depends on parity of interleaving.
    yield TableProtocol(
        n=2,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("write", 0, 1), 1: ("write", 0, 0), 2: ("read", 0)},
        transitions={(0, None): 2, (1, None): 2, (2, 0): 3, (2, 1): 4},
        decisions={3: 0, 4: 1},
        initial_memory=0,
        name="ping-pong-2",
    ), {
        "tag": "hand-picked:ping-pong",
        "why": "non-None initial memory plus racing overwrites; "
        "decision depends on interleaving parity",
    }

    # 8. Swap chain: three swap registers passed through in sequence,
    #    each feeding the next state's choice.
    yield TableProtocol(
        n=3,
        registers=3,
        initial={0: 0, 1: 1},
        rules={
            0: ("swap", 0, 0), 1: ("swap", 0, 1),
            2: ("swap", 1, 0), 3: ("swap", 2, 1),
        },
        transitions={
            (0, None): 2, (1, None): 3, (2, None): 4,
            (3, None): 5, (2, 1): 5, (3, 0): 4,
        },
        defaults={0: 3, 1: 2, 2: 4, 3: 5},
        decisions={4: 0, 5: 1},
        name="swap-chain-3",
    ), {
        "tag": "hand-picked:swap-chain",
        "why": "chained historyless swap objects; deep response "
        "branching over three registers",
    }

    # 9. Mixed op kinds on disjoint registers: register write, swap and
    #    tas all in one automaton.
    yield TableProtocol(
        n=2,
        registers=3,
        initial={0: 0, 1: 1},
        rules={
            0: ("write", 0, 0), 1: ("swap", 1, 1),
            2: ("tas", 2), 3: ("read", 0),
        },
        transitions={
            (0, None): 2, (1, None): 2, (1, 1): 3,
            (2, 0): 3, (2, 1): 4, (3, 0): 4, (3, None): 5,
        },
        defaults={3: 5},
        decisions={4: 0, 5: 1},
        name="mixed-ops-3",
    ), {
        "tag": "hand-picked:mixed-object-kinds",
        "why": "one automaton over all three object kinds; kind "
        "resolution and object specs must agree across engines",
    }

    # 10. Self-loop trap: a state whose every response maps back to
    #     itself (the missing-entry self-loop semantics, explicitly).
    yield TableProtocol(
        n=2,
        registers=1,
        initial={0: 0, 1: 1},
        rules={0: ("read", 0), 1: ("write", 0, 1)},
        transitions={(1, None): 2, (0, 1): 2},
        decisions={2: 1},
        name="self-loop-2",
    ), {
        "tag": "hand-picked:self-loop",
        "why": "state 0 self-loops on response None (no entry, no "
        "default); deduplication must cut the loop identically",
    }

    # 11. Wide branching: one read state fanning out to a different
    #     successor per response, under 3 processes.
    yield TableProtocol(
        n=3,
        registers=2,
        initial={0: 0, 1: 1},
        rules={
            0: ("write", 1, 0), 1: ("write", 1, 1), 2: ("read", 1),
            3: ("write", 0, 1),
        },
        transitions={
            (0, None): 2, (1, None): 2,
            (2, None): 3, (2, 0): 4, (2, 1): 5,
            (3, None): 4,
        },
        decisions={4: 0, 5: 1},
        name="wide-branching-3",
    ), {
        "tag": "hand-picked:wide-branching",
        "why": "response-indexed fan-out: every branch of the read "
        "must be scheduled in every engine",
    }

    # 12. Validity breaker: decides a constant outside every input.
    #     The checker must flag validity, and all engines must agree on
    #     the exact witnesses.
    yield TableProtocol(
        n=2,
        registers=1,
        initial={0: 0, 1: 0},
        rules={0: ("write", 0, 1)},
        transitions={(0, None): 1},
        decisions={1: 7},
        name="validity-break-2",
    ), {
        "tag": "hand-picked:validity-break",
        "why": "decides the constant 7, a value no process proposed; "
        "pins the validity-violation detection path",
    }


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else default_zoo_root()
    zoo = Zoo(root)
    added = 0
    for protocol, provenance in _specimens():
        provenance = {
            "source": "hand-picked",
            "seed": None,
            "generator_version": None,
            **provenance,
        }
        specimen, new = zoo.add(protocol, provenance)
        marker = "added" if new else "kept "
        print(f"{marker} {specimen.digest[:16]} {protocol.name}")
        added += int(new)
    print(f"{added} new specimen(s); zoo now holds {len(zoo)} at {zoo.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Golden certificates: the CLI's output bytes are pinned.

``benchmarks/e2e/golden.json`` records, for every benchmark spec, the
exit code of ``repro adversary SPEC --out FILE`` under CLI defaults and
the sha256 of its output: the certificate file on exit 0, stdout (the
violation witness) on exit 2 -- the rule ``benchmarks/e2e/child.py``
applies.  This test replays every spec in-process and demands the same
bytes, so a refactor or a deletion that changes any certificate or
witness fails tier-1 instead of surfacing only in the benchmark.

The file is read, never written; ``python3 benchmarks/e2e/run.py
--write-golden`` re-derives it.  ``rounds:7``, ``rounds:8`` and
``racing:7`` are left to the benchmark because each takes seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "golden.json"

#: Specs whose runs are too long for tier-1.
SLOW = frozenset({"rounds:7", "rounds:8", "racing:7"})

EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "spec", sorted(spec for spec in EXPECTED if spec not in SLOW)
)
def test_adversary_output_matches_golden_digest(spec, tmp_path):
    out = tmp_path / "cert.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["adversary", spec, "--out", str(out)])
    want = EXPECTED[spec]
    assert code == want["exit"], stdout.getvalue()
    if code == 0:
        produced = out.read_bytes()
    else:
        assert not out.exists()
        produced = stdout.getvalue().encode()
    assert hashlib.sha256(produced).hexdigest() == want["sha256"]


def test_golden_file_covers_both_outcomes():
    exits = {EXPECTED[spec]["exit"] for spec in EXPECTED if spec not in SLOW}
    assert exits == {0, 2}
    assert len(EXPECTED) - len(SLOW & set(EXPECTED)) == 24

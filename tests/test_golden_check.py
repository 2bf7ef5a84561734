"""Pinned ``repro check`` and ``repro audit`` output.

``DIGESTS`` records, for each command, its exit code and the sha256 of
its stdout.  The commands cover the checker's three outcomes: an
exhausted graph (``cas:3``, ``tas:2``), a bounded search that ends at
the cap (``rounds:3``, ``racing:3``), and a violation witness (the
other specs), plus two audit tables over a mix of them.

Every command runs twice, like ``tests/test_golden_cli.py``: on the
CLI's ``System`` (the compiled kernel) and with ``repro.cli.System``
swapped for the reference :class:`~repro.model.system.InterpretedSystem`.

The digests were taken from the checker's own object-model BFS, the
loop ``tests/checker_reference.py`` keeps.  To print them for the
current tree::

    PYTHONPATH=src python tests/test_golden_check.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

import repro.cli
from repro.cli import main
from repro.model.system import InterpretedSystem, System

COMMANDS = (
    ("check", "cas:3"),
    ("check", "tas:2"),
    ("check", "rounds:3", "--max-configs", "2000"),
    ("check", "racing:3", "--max-configs", "2000"),
    ("check", "split-brain:6"),
    ("check", "optimistic:5"),
    ("check", "kset:3:2"),
    ("check", "shared:3:2"),
    ("check", "snapshot:3"),
    ("audit", "tas:2", "rounds:2", "split-brain:4", "optimistic:3",
     "kset:3:2", "--max-configs", "2000"),
    ("audit", "cas:3", "rounds:3", "snapshot:3", "--max-configs", "3000"),
)

DIGESTS = {
    "check cas:3": (
        0, "47037dbfd5911e55f9242e415589dc1302ac3ee3cb8b429bab9ccaf221065873"
    ),
    "check tas:2": (
        0, "a085bb4a8fad19d8e782cedd4380ad4c889b822b785290d6eaa4c3dad54b6575"
    ),
    "check rounds:3 --max-configs 2000": (
        0, "0640ef66fe761113c872a26049e58d75df75b59ddfb83eb06b1b4723eea4b47b"
    ),
    "check racing:3 --max-configs 2000": (
        0, "0640ef66fe761113c872a26049e58d75df75b59ddfb83eb06b1b4723eea4b47b"
    ),
    "check split-brain:6": (
        2, "381b5a7806be360b7feb46fa07e4c46b47c14a6c46132b6bd773d9000e40fce8"
    ),
    "check optimistic:5": (
        2, "9906e56a5c685dd20e733ab6bcc9f818aedff1689032b1b2ab7c35c32bc3ecbc"
    ),
    "check kset:3:2": (
        2, "1ea6af3b46bbd503119c344045a40fe13a800660f93dd342d5c2dca875e9b008"
    ),
    "check shared:3:2": (
        2, "753b3b1f63fc8cbfd2fdb7e81a6b3d9d87ef5a4ebf7b337f18e0131b10ec72c4"
    ),
    "check snapshot:3": (
        2, "a78b16f683a4eaa06a2da5005f6218b3a0a026c0b33e1ee8a19fc6cb18a3ee18"
    ),
    "audit tas:2 rounds:2 split-brain:4 optimistic:3 kset:3:2 --max-configs 2000": (
        2, "bd1e0fc07dc5f9f43f284e0d08f7884f713878167d0f8edbcdb6e7383f25b410"
    ),
    "audit cas:3 rounds:3 snapshot:3 --max-configs 3000": (
        2, "3888e3ccb53e05ed82a2b2ff534a2cb6198abf366b0558a5113fdb92f4c73557"
    ),
}


def run(argv):
    """Exit code and sha256 of stdout of ``repro ARGV``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, system_class",
    [pytest.param(argv, System, id=" ".join(argv)) for argv in COMMANDS]
    + [
        pytest.param(argv, InterpretedSystem, id="interp-" + " ".join(argv))
        for argv in COMMANDS
    ],
)
def test_output_matches_pinned_digest(argv, system_class, monkeypatch):
    monkeypatch.setattr(repro.cli, "System", system_class)
    assert run(argv) == DIGESTS[" ".join(argv)]


def test_commands_cover_every_outcome():
    assert {code for code, _ in DIGESTS.values()} == {0, 2}
    assert set(DIGESTS) == {" ".join(argv) for argv in COMMANDS}


if __name__ == "__main__":
    for argv in COMMANDS:
        code, digest = run(argv)
        print(f'    "{" ".join(argv)}": (\n        {code}, "{digest}"\n    ),')

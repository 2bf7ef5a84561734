"""Crash-consistent checkpoints: survive SIGKILL, refuse corruption.

The journal half: every recorded oracle answer is on disk before the
next one is computed, a torn final line recovers to the intact prefix
(at *every* byte offset), and mid-file or header damage is refused
loudly.  The end-to-end half: a campaign SIGKILLed mid-run resumes
from its checkpoint journal to the same certificate as an
uninterrupted run.  The lock half: one writer per journal path, and
the lock is released however a run ends.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.faults import (
    Budget,
    PartialProgress,
    ResumeError,
    run_adversary_guarded,
)
from repro.faults.chaos import truncate_tail
from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds
from repro.resilience import (
    CheckpointJournal,
    atomic_write_text,
    load_checkpoint,
)


def make_journal(path, entries=()):
    journal = CheckpointJournal(
        path, protocol="rounds:3", n=3, max_configs=111, max_depth=7,
        strict=False,
    )
    for entry in entries:
        journal.record(entry)
    journal.close()
    return journal


ENTRIES = [
    {"answer": True, "witness": [0, 1, 0]},
    {"answer": False, "witness": None},
    {"answer": True, "witness": [2]},
]


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, ENTRIES)
        progress = load_checkpoint(path)
        assert isinstance(progress, PartialProgress)
        assert progress.protocol == "rounds:3"
        assert progress.n == 3
        assert progress.max_configs == 111
        assert progress.max_depth == 7
        assert progress.queries == ENTRIES

    def test_preloaded_entries_rewritten(self, tmp_path):
        path = tmp_path / "resumed.ckpt"
        journal = CheckpointJournal(
            path, protocol="rounds:3", n=3, entries=list(ENTRIES)
        )
        journal.close()
        progress = load_checkpoint(path)
        assert progress.queries == ENTRIES

    def test_record_after_close_raises(self, tmp_path):
        journal = make_journal(tmp_path / "closed.ckpt")
        with pytest.raises(ResumeError):
            journal.record({"answer": True, "witness": None})

    def test_fsync_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointJournal(
                tmp_path / "bad.ckpt", protocol="p", n=2, fsync_every=0
            )

    def test_missing_and_empty_files_mean_fresh_start(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.ckpt") is None
        empty = tmp_path / "empty.ckpt"
        empty.write_text("")
        assert load_checkpoint(empty) is None

    def test_legacy_whole_file_json_still_loads(self, tmp_path):
        progress = PartialProgress(
            protocol="rounds:3", n=3, queries=list(ENTRIES),
            max_configs=99, max_depth=5, note="legacy",
        )
        path = tmp_path / "legacy.json"
        path.write_text(to_json(progress))
        loaded = load_checkpoint(path)
        assert loaded.queries == ENTRIES
        assert loaded.max_configs == 99

    def test_legacy_garbage_refused(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not a checkpoint at all")
        with pytest.raises(ResumeError):
            load_checkpoint(path)

    def test_torn_tail_recovers_prefix_at_every_byte(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        make_journal(path, ENTRIES)
        pristine = path.read_bytes()
        lines = pristine.decode().splitlines()
        # The final record plus its newline: every truncation point in
        # it must recover exactly the first two entries.
        final_len = len(lines[-1]) + 1
        for drop in range(1, final_len + 1):
            path.write_bytes(pristine)
            truncate_tail(path, drop_bytes=drop)
            progress = load_checkpoint(path)
            # Dropping only the newline leaves the record complete; any
            # deeper cut tears it and recovers the two-entry prefix.
            expected = ENTRIES if drop == 1 else ENTRIES[:2]
            assert progress.queries == expected, f"drop={drop}"

    def test_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "midfile.ckpt"
        make_journal(path, ENTRIES)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear a middle record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResumeError, match="line 3"):
            load_checkpoint(path)

    def test_damaged_header_refused(self, tmp_path):
        path = tmp_path / "header.ckpt"
        make_journal(path, ENTRIES)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["v"] = 99
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResumeError, match="version"):
            load_checkpoint(path)

    def test_atomic_write_replaces_not_tears(self, tmp_path):
        path = tmp_path / "atomic.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.glob(".tmp-ckpt-*")) == []


class TestGuardedCheckpointResume:
    def test_budget_checkpoint_resumes_to_same_certificate(self, tmp_path):
        reference = space_lower_bound(System(CommitAdoptRounds(3)))
        path = tmp_path / "run.ckpt"
        outcome = run_adversary_guarded(
            System(CommitAdoptRounds(3)),
            budget=Budget(max_steps=5),
            checkpoint=str(path),
        )
        assert outcome.status == "budget"
        progress = load_checkpoint(path)
        assert progress is not None
        assert progress.queries == outcome.partial.queries
        resumed = run_adversary_guarded(
            System(CommitAdoptRounds(3)), resume=progress
        )
        assert resumed.status == "certificate"
        assert to_json(resumed.certificate) == to_json(reference)

    def test_chained_checkpoint_resumes_converge(self, tmp_path):
        reference = space_lower_bound(System(CommitAdoptRounds(3)))
        path = tmp_path / "chain.ckpt"
        progress = None
        # max_steps must cover the single most expensive query (replay
        # of the journaled prefix is free) -- same bound as the in-memory
        # fixed-budget chain in test_faults_budget.py.
        for _ in range(30):
            outcome = run_adversary_guarded(
                System(CommitAdoptRounds(3)),
                budget=Budget(max_steps=25),
                resume=progress,
                checkpoint=str(path),
            )
            if outcome.status == "certificate":
                break
            assert outcome.status == "budget"
            progress = load_checkpoint(path)
            assert progress is not None
        assert outcome.status == "certificate"
        assert to_json(outcome.certificate) == to_json(reference)


KILL_SCRIPT = """
import sys
from repro.faults import run_adversary_guarded
from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds

outcome = run_adversary_guarded(
    System(CommitAdoptRounds(3)), checkpoint=sys.argv[1]
)
sys.exit(0 if outcome.status == "certificate" else 1)
"""

class TestSigkillResume:
    def test_sigkilled_campaign_resumes_to_same_certificate(self, tmp_path):
        reference = space_lower_bound(System(CommitAdoptRounds(3)))
        path = tmp_path / "killed.ckpt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", KILL_SCRIPT, str(path)], env=env
        )
        try:
            # Wait for the journal to show real progress, then SIGKILL.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if path.exists() and path.read_text().count("\n") >= 3:
                    break
                time.sleep(0.005)
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        progress = load_checkpoint(path)
        assert progress is not None
        resumed = run_adversary_guarded(
            System(CommitAdoptRounds(3)), resume=progress
        )
        assert resumed.status == "certificate"
        assert to_json(resumed.certificate) == to_json(reference)


class TestConcurrentOpenRefused:
    """Satellite: two live writers on one journal path are refused.

    The journal format tolerates exactly one torn *final* line; two
    interleaved appenders would produce interior tears indistinguishable
    from corruption.  The writer lock turns that silent hazard into a
    clean ``ResilienceError`` (CLI: one-line ``error: ...``, exit 1).
    """

    def test_second_open_is_refused_with_holder_pid(self, tmp_path):
        from repro.errors import ResilienceError

        path = tmp_path / "busy.ckpt"
        first = CheckpointJournal(path, protocol="rounds:3", n=3)
        try:
            with pytest.raises(
                ResilienceError, match=rf"pid {os.getpid()}"
            ) as excinfo:
                CheckpointJournal(path, protocol="rounds:3", n=3)
            assert "concurrent use would tear it" in str(excinfo.value)
        finally:
            first.close()

    def test_resume_read_of_a_live_journal_is_refused(self, tmp_path):
        from repro.errors import ResilienceError

        path = tmp_path / "live.ckpt"
        writer = CheckpointJournal(path, protocol="rounds:3", n=3)
        writer.record({"answer": True, "witness": [0]})
        try:
            with pytest.raises(ResilienceError, match="still being written"):
                load_checkpoint(path)
        finally:
            writer.close()

    def test_close_releases_the_lock_for_the_next_run(self, tmp_path):
        path = tmp_path / "relay.ckpt"
        make_journal(path, ENTRIES)  # opens and closes
        again = CheckpointJournal(
            path, protocol="rounds:3", n=3, entries=list(ENTRIES)
        )
        again.close()
        assert load_checkpoint(path).queries == ENTRIES

    def test_stale_lock_file_of_a_dead_writer_does_not_block(
        self, tmp_path
    ):
        # A SIGKILLed writer leaves the .lock file behind, but the OS
        # dropped its flock with the process -- the file alone must
        # never wedge the path.
        path = tmp_path / "orphan.ckpt"
        make_journal(path, ENTRIES)
        lock = Path(f"{path}.lock")
        assert lock.exists()
        lock.write_text("999999\n")  # a pid that is long gone
        journal = CheckpointJournal(path, protocol="rounds:3", n=3)
        journal.close()
        assert load_checkpoint(path) is not None

    def test_failed_oracle_setup_releases_the_lock(
        self, tmp_path, monkeypatch
    ):
        # An oracle constructor that raises does so after the journal
        # took its lock, which must not outlive the call: the next run
        # on the same path in this process has to succeed.
        import repro.faults.harness as harness

        class SetupFailed(Exception):
            pass

        def failing_oracle(*args, **kwargs):
            raise SetupFailed("oracle setup failed")

        path = tmp_path / "setup.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(harness, "JournaledOracle", failing_oracle)
            with pytest.raises(SetupFailed):
                run_adversary_guarded(
                    System(CommitAdoptRounds(3)), checkpoint=str(path)
                )
        outcome = run_adversary_guarded(
            System(CommitAdoptRounds(3)), checkpoint=str(path)
        )
        assert outcome.status == "certificate"

    def test_cli_resume_against_a_held_journal_exits_1_cleanly(
        self, tmp_path
    ):
        path = tmp_path / "held.ckpt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_SCRIPT, str(path)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            result = subprocess.run(
                [sys.executable, "-m", "repro", "adversary", "rounds:2",
                 "--resume", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 1
            assert "error: checkpoint journal" in result.stdout
            assert "another process" in result.stdout
            assert "Traceback" not in result.stderr
        finally:
            holder.terminate()
            holder.wait(timeout=10)


HOLD_SCRIPT = """
import sys, time
from repro.resilience import CheckpointJournal

journal = CheckpointJournal(sys.argv[1], protocol="rounds:2", n=2)
print("held", flush=True)
time.sleep(60)
"""

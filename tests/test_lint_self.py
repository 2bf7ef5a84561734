"""Repository self-lint: the live package passes, seeded defects don't.

The checkers are AST-based and take a root directory, so these tests
build small fake package trees under tmp_path with one invariant broken
at a time -- the real tree is never touched.
"""

import pytest

from repro.errors import LintError
from repro.lint import (
    check_determinism,
    check_kernel_hot_path,
    check_trace_schema,
    lint_repository,
)
from repro.lint.selfcheck import (
    EXPECTED_REQUIRED_KEYS,
    EXPECTED_SCHEMA_VERSION,
    PRAGMA,
)

GOOD_TRACE = (
    f"SCHEMA_VERSION = {EXPECTED_SCHEMA_VERSION}\n"
    f"REQUIRED_KEYS = {EXPECTED_REQUIRED_KEYS!r}\n"
)


def seed_tree(
    root,
    core="",
    model="",
    trace=GOOD_TRACE,
    extra=None,
):
    """A minimal tree shaped like the repro package."""
    for package, source in (("core", core), ("model", model)):
        package_dir = root / package
        package_dir.mkdir(parents=True)
        (package_dir / "mod.py").write_text(source, encoding="utf-8")
    obs = root / "obs"
    obs.mkdir()
    (obs / "trace.py").write_text(trace, encoding="utf-8")
    for name, source in (extra or {}).items():
        (root / name).write_text(source, encoding="utf-8")
    return root


class TestLivePackage:
    def test_the_repository_lints_clean(self):
        report = lint_repository()
        assert len(report) == 0, report.to_json()


class TestDeterminism:
    def test_random_import_in_proof_path_is_flagged(self, tmp_path):
        root = seed_tree(tmp_path, core="import random\n")
        report = check_determinism(root)
        [diag] = report.by_code("nondeterministic-import")
        assert diag.severity == "error"
        assert diag.path.endswith("core/mod.py")
        assert diag.line == 1

    def test_time_from_import_is_flagged(self, tmp_path):
        root = seed_tree(tmp_path, model="from time import sleep\n")
        assert check_determinism(root).by_code("nondeterministic-import")

    def test_pragma_whitelists_the_line(self, tmp_path):
        root = seed_tree(
            tmp_path,
            model=f"import random  # {PRAGMA} (caller provides the rng)\n",
        )
        assert len(check_determinism(root)) == 0

    def test_imports_outside_proof_paths_are_ignored(self, tmp_path):
        root = seed_tree(
            tmp_path, extra={"bench.py": "import random\nimport time\n"}
        )
        assert len(check_determinism(root)) == 0

    def test_missing_proof_path_is_a_lint_error(self, tmp_path):
        (tmp_path / "core").mkdir()
        with pytest.raises(LintError):
            check_determinism(tmp_path)

    def test_syntax_error_is_a_lint_error_not_a_crash(self, tmp_path):
        root = seed_tree(tmp_path, core="def broken(:\n")
        with pytest.raises(LintError):
            check_determinism(root)


class TestTraceSchema:
    def test_version_drift_is_flagged(self, tmp_path):
        drifted = GOOD_TRACE.replace(
            f"SCHEMA_VERSION = {EXPECTED_SCHEMA_VERSION}", "SCHEMA_VERSION = 99"
        )
        root = seed_tree(tmp_path, trace=drifted)
        assert check_trace_schema(root).by_code("schema-drift")

    def test_key_drift_is_flagged(self, tmp_path):
        drifted = GOOD_TRACE.replace("span_start", "span_begin")
        root = seed_tree(tmp_path, trace=drifted)
        assert check_trace_schema(root).by_code("schema-drift")

    def test_missing_trace_module_is_a_lint_error(self, tmp_path):
        seed_tree(tmp_path)
        (tmp_path / "obs" / "trace.py").unlink()
        with pytest.raises(LintError):
            check_trace_schema(tmp_path)

    def test_pinned_schema_matches(self, tmp_path):
        root = seed_tree(tmp_path)
        assert len(check_trace_schema(root)) == 0


HOT_CLEAN = """
def _hot_expand(store, rows):
    total = 0
    for row in rows:
        rid = store.find(row)
        if rid is None:
            rid = store.append(row)
            total += 1
    return total
"""

HOT_ALLOCATING = """
def _hot_expand(codec, configs):
    rows = [codec.pack(config) for config in configs]
    return rows
"""

HOT_OBJECT_CALL = """
def _hot_step(program, config):
    return program.protocol.canonical_query_key(config)
"""


class TestKernelHotPath:
    def seed_kernel(self, tmp_path, explore):
        root = seed_tree(tmp_path)
        kernel = root / "kernel"
        kernel.mkdir()
        (kernel / "explore.py").write_text(explore, encoding="utf-8")
        return root

    def test_clean_hot_loop_passes(self, tmp_path):
        root = self.seed_kernel(tmp_path, HOT_CLEAN)
        assert len(check_kernel_hot_path(root)) == 0

    def test_comprehension_in_hot_loop_is_flagged(self, tmp_path):
        root = self.seed_kernel(tmp_path, HOT_ALLOCATING)
        diags = check_kernel_hot_path(root).by_code("kernel-hot-alloc")
        # Both the list comprehension and the pack() call are flagged.
        assert len(diags) == 2
        for diag in diags:
            assert "_hot_expand" in diag.message
            assert diag.path.endswith("kernel/explore.py")

    def test_object_layer_call_in_hot_loop_is_flagged(self, tmp_path):
        """pack/canonical_query_key etc. belong in setup, never in the
        per-row loop -- that is the whole point of the kernel."""
        root = self.seed_kernel(tmp_path, HOT_OBJECT_CALL)
        report = check_kernel_hot_path(root)
        assert report.by_code("kernel-hot-alloc")

    @pytest.mark.parametrize(
        "hook", ["rounds_of", "shift_rounds", "canonical_row"]
    )
    def test_round_shift_hook_in_hot_loop_is_flagged(self, tmp_path, hook):
        """The hook pair is object-model code: the kernel reads it through
        the compiler's tables, never per edge, and canonicalises a row
        only in a cold ``admit`` handler."""
        source = f"def _hot_base(protocol, state):\n    return protocol.{hook}(state)\n"
        root = self.seed_kernel(tmp_path, source)
        diags = check_kernel_hot_path(root).by_code("kernel-hot-alloc")
        assert [hook in diag.message for diag in diags] == [True]

    def test_explore_without_hot_function_is_flagged(self, tmp_path):
        root = self.seed_kernel(tmp_path, "def expand():\n    pass\n")
        assert check_kernel_hot_path(root).by_code("kernel-hot-missing")

    def test_tree_without_kernel_package_is_clean(self, tmp_path):
        root = seed_tree(tmp_path)
        assert len(check_kernel_hot_path(root)) == 0

    def test_banned_calls_outside_hot_functions_are_fine(self, tmp_path):
        source = HOT_CLEAN + "\ndef setup(codec, c):\n    return codec.pack(c)\n"
        root = self.seed_kernel(tmp_path, source)
        assert len(check_kernel_hot_path(root)) == 0


UNSYNCED_WRITE = """
def save(path, data):
    with open(path, "w") as handle:
        handle.write(data)
"""

ATOMIC_WRITE = """
import os, tempfile

def save(path, data):
    fd, tmp = tempfile.mkstemp()
    with os.fdopen(fd, "w") as handle:
        handle.write(data)
        os.fsync(handle.fileno())
    os.replace(tmp, path)
"""

APPEND_JOURNAL = """
def journal(path, line):
    with open(path, "a") as handle:
        handle.write(line)
        handle.flush()
"""


class TestCheckpointFsync:
    def seed_resilience(self, tmp_path, source):
        root = seed_tree(tmp_path)
        pkg = root / "resilience"
        pkg.mkdir()
        (pkg / "checkpoint.py").write_text(source, encoding="utf-8")
        return root

    def test_bare_write_open_is_flagged(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        root = self.seed_resilience(tmp_path, UNSYNCED_WRITE)
        [diag] = check_checkpoint_fsync(root).by_code(
            "checkpoint-unsynced-write"
        )
        assert "fsync" in diag.message

    def test_fsync_then_replace_passes(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        root = self.seed_resilience(tmp_path, ATOMIC_WRITE)
        assert len(check_checkpoint_fsync(root)) == 0

    def test_append_mode_journals_are_exempt(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        root = self.seed_resilience(tmp_path, APPEND_JOURNAL)
        assert len(check_checkpoint_fsync(root)) == 0

    def test_fsync_without_replace_still_flagged(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        source = (
            "import os\n"
            "def save(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n"
            "        os.fsync(handle.fileno())\n"
        )
        root = self.seed_resilience(tmp_path, source)
        [diag] = check_checkpoint_fsync(root).by_code(
            "checkpoint-unsynced-write"
        )
        assert "replace" in diag.message

    def test_pragma_whitelists_the_line(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        source = (
            "def save(path, data):\n"
            "    with open(path, 'w') as handle:"
            "  # lint: allow-unsynced-write (scratch file)\n"
            "        handle.write(data)\n"
        )
        root = self.seed_resilience(tmp_path, source)
        assert len(check_checkpoint_fsync(root)) == 0

    def test_tree_without_resilience_package_is_clean(self, tmp_path):
        from repro.lint import check_checkpoint_fsync

        assert len(check_checkpoint_fsync(seed_tree(tmp_path))) == 0


class TestLintRepository:
    def test_aggregates_all_checks_on_a_seeded_tree(self, tmp_path):
        root = seed_tree(tmp_path, core="import time\n")
        resilience = root / "resilience"
        resilience.mkdir()
        (resilience / "ckpt.py").write_text(UNSYNCED_WRITE, encoding="utf-8")
        report = lint_repository(root)
        assert set(report.codes) == {
            "nondeterministic-import", "checkpoint-unsynced-write",
        }
        assert report.blocking

    def test_missing_root_is_a_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            lint_repository(tmp_path / "nope")

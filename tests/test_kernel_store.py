"""Out-of-core RowStore: spill, reload, collisions, quarantine, fallback,
and the release of a closed kernel.

The spill machinery is the one part of the compiled kernel with real
failure modes (torn writes, bit rot, fingerprint collisions), so it
gets direct unit coverage here on top of the end-to-end differentials
in tests/test_kernel_differential.py.
"""

import gc
import os
import weakref

import pytest

from repro.errors import KernelSpillError
from repro.kernel.store import (
    HEADER_SIZE,
    MAX_SEGMENT_ROWS,
    FP_BITS_ENV,
    SPILL_THRESHOLD_ENV,
    RowStore,
    fingerprint_mask,
    spill_threshold,
)

WIDTH = 8


@pytest.fixture
def scoped_env(monkeypatch):
    """Let a test pin the spill knobs without leaking to the session."""
    def set_knobs(threshold=None, fp_bits=None):
        for env, value in (
            (SPILL_THRESHOLD_ENV, threshold), (FP_ENV := FP_BITS_ENV, fp_bits)
        ):
            if value is None:
                monkeypatch.delenv(env, raising=False)
            else:
                monkeypatch.setenv(env, str(value))
    return set_knobs


def filled(store, count):
    rows = [((i * 2654435761) % (1 << 61)) | 1 for i in range(count)]
    ids = [store.append(row) for row in rows]
    assert ids == list(range(count))
    return rows


class TestAppendGet:
    def test_ram_mode_identity(self):
        store = RowStore(WIDTH, threshold=1_000)
        rows = filled(store, 50)
        assert not store.spilling
        assert len(store) == 50
        for rid, row in enumerate(rows):
            assert store.get(rid) == row
            assert store.find(row) == rid
        assert store.find(12345) is None
        store.close()

    def test_spill_preserves_every_row_byte_identically(self, tmp_path):
        store = RowStore(WIDTH, threshold=4, directory=str(tmp_path))
        rows = filled(store, 64)
        assert store.spilling
        assert store.segments > 0
        assert store.spilled_rows > 0
        for rid, row in enumerate(rows):
            assert store.get(rid) == row
        store.close()

    def test_rows_survive_mmap_reload(self, tmp_path):
        """Close the mmaps, reopen lazily: the bytes are the segment's."""
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        rows = filled(store, 16)
        before = [store.get(rid) for rid in range(16)]
        for seg in store._segments:
            seg.close()
        after = [store.get(rid) for rid in range(16)]
        assert after == before == rows
        store.close()

    def test_unindexed_store_is_pure_log(self):
        store = RowStore(WIDTH, indexed=False, threshold=3)
        rows = filled(store, 10)
        assert store.spilling
        assert [store.get(rid) for rid in range(10)] == rows
        store.close()

    def test_block_capped_at_max_segment_rows(self):
        store = RowStore(WIDTH, threshold=10**9)
        assert store.block == MAX_SEGMENT_ROWS
        store.close()


class TestFindAfterSpill:
    def test_find_through_fingerprint_map(self, tmp_path):
        store = RowStore(WIDTH, threshold=4, directory=str(tmp_path))
        rows = filled(store, 40)
        for rid, row in enumerate(rows):
            assert store.find(row) == rid
        assert store.find(999_999_999) is None
        store.close()

    def test_forced_collisions_fetch_verify(self, scoped_env, tmp_path):
        """8-bit fingerprints collide constantly; every hit must be
        verified against the actual row bytes, so a collision costs a
        read and never a wrong id."""
        scoped_env(fp_bits=2)
        store = RowStore(WIDTH, threshold=4, directory=str(tmp_path))
        assert store._fp_mask == 0b11
        rows = filled(store, 64)
        for rid, row in enumerate(rows):
            assert store.find(row) == rid
        for absent in (7, 11, 13, (1 << 40) + 3):
            assert store.find(absent) is None
        store.close()

    def test_rows_appended_after_spill_are_indexed(self, tmp_path):
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        filled(store, 2)
        assert not store.spilling
        store.append(0xDEAD)
        assert store.spilling
        store.append(0xBEEF)
        assert store.find(0xDEAD) == 2
        assert store.find(0xBEEF) == 3
        store.close()


class TestSegments:
    def test_segment_paths_exist_and_are_labelled(self, tmp_path):
        store = RowStore(
            WIDTH, threshold=4, directory=str(tmp_path), label="visited"
        )
        filled(store, 20)
        paths = store.segment_paths()
        assert paths
        for path in paths:
            assert os.path.exists(path)
            assert "visited-" in os.path.basename(path)
        store.close()

    def test_corrupted_segment_is_quarantined(self, tmp_path):
        """Flip payload bytes on disk: the checksum catches it, the
        evidence is renamed *.corrupt-0, and KernelSpillError is raised
        instead of a silently wrong row."""
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        filled(store, 8)
        victim = store.segment_paths()[0]
        data = bytearray(open(victim, "rb").read())
        data[HEADER_SIZE] ^= 0xFF
        open(victim, "wb").write(bytes(data))
        with pytest.raises(KernelSpillError) as excinfo:
            store.get(0)
        assert "quarantined" in str(excinfo.value)
        assert os.path.exists(victim + ".corrupt-0")
        assert not os.path.exists(victim)
        store.close()

    def test_truncated_segment_is_quarantined(self, tmp_path):
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        filled(store, 8)
        victim = store.segment_paths()[0]
        data = open(victim, "rb").read()
        open(victim, "wb").write(data[: HEADER_SIZE - 2])
        with pytest.raises(KernelSpillError):
            store.get(0)
        assert os.path.exists(victim + ".corrupt-0")
        store.close()

    def test_vanished_segment_raises(self, tmp_path):
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        filled(store, 8)
        os.unlink(store.segment_paths()[0])
        with pytest.raises(KernelSpillError):
            store.get(0)
        store.close()

    def test_close_removes_owned_spill_directory(self):
        store = RowStore(WIDTH, threshold=2)
        filled(store, 8)
        directory = store._dir
        assert directory is not None and os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)

    def test_close_keeps_caller_directory(self, tmp_path):
        store = RowStore(WIDTH, threshold=2, directory=str(tmp_path))
        filled(store, 8)
        store.close()
        assert tmp_path.exists()


class TestEnvKnobs:
    def test_spill_threshold_parsing(self, scoped_env):
        scoped_env(threshold=7)
        assert spill_threshold() == 7
        scoped_env(threshold="not-a-number")
        assert spill_threshold() == 1_000_000
        scoped_env(threshold=0)
        assert spill_threshold() == 1

    def test_fingerprint_mask_parsing(self, scoped_env):
        scoped_env(fp_bits=8)
        assert fingerprint_mask() == 0xFF
        scoped_env(fp_bits=99)
        assert fingerprint_mask() == (1 << 61) - 1
        scoped_env()
        assert fingerprint_mask() == (1 << 61) - 1


class TestObserveMany:
    def test_observe_many_equals_repeated_observe(self):
        from repro.obs import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        for value, times in ((3, 5), (17, 1), (400, 9)):
            a.histogram("kernel.batch").observe_many(value, times)
            for _ in range(times):
                b.histogram("kernel.batch").observe(value)
        assert a.snapshot()["histograms"] == b.snapshot()["histograms"]

    def test_observe_many_zero_times_is_noop(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("kernel.batch").observe_many(5, 0)
        assert (
            registry.snapshot()["histograms"]
            .get("kernel.batch", {})
            .get("count", 0)
            == 0
        )


class TestFallbackRecording:
    def test_faulty_memory_system_falls_back(self):
        """System subclasses carry semantics the lowering can't see, so
        the kernel must refuse them -- loudly, in counters and on the
        explorer itself."""
        from repro.analysis.explorer import Explorer
        from repro.faults import FaultyMemorySystem, RegisterFaultPlan
        from repro.kernel import kernel_unsupported_reason
        from repro.obs import MetricsRegistry, observe
        from repro.protocols.consensus import CommitAdoptRounds

        system = FaultyMemorySystem(CommitAdoptRounds(2), RegisterFaultPlan())
        assert kernel_unsupported_reason(system) == "system-subclass"
        registry = MetricsRegistry()
        with observe(metrics=registry):
            explorer = Explorer(system, max_configs=1_000, strict=False)
            root = system.initial_configuration([0, 1])
            result = explorer.explore(root, frozenset({0, 1}))
            explorer.close()
        assert result.visited > 0
        assert explorer.kernel_fallback_reason == "system-subclass"
        counters = registry.snapshot()["counters"]
        assert counters.get("kernel.fallbacks") == 1
        assert counters.get("kernel.fallback.system-subclass") == 1

    def test_plain_system_is_supported(self):
        from repro.kernel import kernel_unsupported_reason
        from repro.model.system import System
        from repro.protocols.consensus import CommitAdoptRounds

        assert kernel_unsupported_reason(System(CommitAdoptRounds(2))) is None


class TestKernelRelease:
    def test_closed_kernel_is_freed_without_the_cyclic_collector(self):
        """``Explorer.close()`` frees the compiled program by reference
        counting alone: no program-codec cycle may outlive the close."""
        from repro.analysis.explorer import Explorer
        from repro.model.system import System
        from repro.protocols.consensus import CommitAdoptRounds

        system = System(CommitAdoptRounds(2))
        explorer = Explorer(system, max_configs=1_000, strict=False)
        explorer.explore(system.initial_configuration([0, 1]), frozenset({0, 1}))
        program = weakref.ref(explorer._kernel_explorer.program)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            explorer.close()
            assert program() is None
        finally:
            if was_enabled:
                gc.enable()

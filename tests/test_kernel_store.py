"""The visited arena, kernel fallback recording, and the release of a
closed kernel.

``RowStore`` is one search's append-only list of packed rows under
dense ids, with a ``row -> id`` index; the end-to-end differentials in
tests/test_kernel_differential.py check what the explorer builds on it.
"""

import gc
import weakref

from repro.kernel.store import RowStore


def filled(store, count):
    rows = [((i * 2654435761) % (1 << 61)) | 1 for i in range(count)]
    ids = [store.append(row) for row in rows]
    assert ids == list(range(count))
    return rows


class TestAppendGet:
    def test_ram_mode_identity(self):
        store = RowStore()
        rows = filled(store, 50)
        assert len(store) == 50
        for rid, row in enumerate(rows):
            assert store.rows[rid] == row
            assert store.index[row] == rid
        assert store.index.get(12345) is None


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

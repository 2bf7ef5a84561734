"""In-process metrics: counters, gauges, fixed-bucket histograms.

The adversary stack is a tree of engines (theorem -> oracle ->
explorer), all accumulating into one ambient :class:`MetricsRegistry`.
``snapshot()`` renders it as a plain, key-sorted dict -- counters,
max-gauges and histograms whose bucket edges are fixed at creation --
so two runs of the same construction produce equal snapshots.

Instrumented hot loops hoist their handles once
(``registry.counter("explorer.edges")``) and pay one attribute
increment per event.  When observability is disabled entirely
(:func:`repro.obs.runtime.unobserved`), the same call sites receive
shared no-op instruments from :class:`NullRegistry`, so the residual
cost is a single no-op method call.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

#: Default histogram bucket edges: powers of two spanning the scales the
#: explorers actually produce (branching factors through visited-config
#: counts).  Edges are upper bounds; the last bucket is unbounded.
DEFAULT_EDGES: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written (or maximum) value; ``None`` until first set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if self.value is None or value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies values <= ``edges[i]``,
    with one final unbounded bucket.  The edges never change after
    construction."""

    __slots__ = ("edges", "counts", "count", "sum", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_EDGES):
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for edge in self.edges:
            if value <= edge:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, value: float, times: int) -> None:
        """Record ``value`` as if observed ``times`` times.

        Exactly equivalent to ``times`` calls to :meth:`observe` -- the
        compiled kernel accumulates per-value tallies locally and
        flushes them in one call per distinct value, keeping hot-loop
        metric updates out of Python attribute churn.
        """
        if times <= 0:
            return
        index = 0
        for edge in self.edges:
            if value <= edge:
                break
            index += 1
        self.counts[index] += times
        self.count += times
        self.sum += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class MetricsRegistry:
    """Create-or-get instrument store with a deterministic snapshot."""

    #: Distinguishes live registries from :class:`NullRegistry`.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(edges)
        elif tuple(edges) != instrument.edges:
            raise ValueError(
                f"histogram {name!r} already exists with edges "
                f"{instrument.edges}, cannot re-register with {tuple(edges)}"
            )
        return instrument

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain, picklable, JSON-safe dict of every instrument.

        Keys are sorted so identical registries serialize identically.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "edges": list(hist.edges),
                    "counts": list(hist.counts),
                    "count": hist.count,
                    "sum": hist.sum,
                    "min": hist.min,
                    "max": hist.max,
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullInstrument:
    """One shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, value: float, times: int) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """A registry whose instruments discard everything.

    Installed by :func:`repro.obs.runtime.unobserved`; the baseline leg
    of ``benchmarks/bench_obs.py`` runs under it to approximate the
    uninstrumented stack.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass

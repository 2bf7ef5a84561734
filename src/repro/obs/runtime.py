"""The ambient observation: which tracer and registry are live right now.

Wiring an explicit ``obs`` parameter through every constructor from the
CLI down to the explorer inner loop would contaminate call signatures
that exist to mirror the paper.  Instead the stack consults one ambient
:class:`Observation` -- a (tracer, metrics registry) pair -- managed as
a stack of contexts:

* the default observation is a :class:`~repro.obs.trace.NullSink`
  tracer plus a live in-process registry, so metrics always accumulate
  and tracing costs one attribute check;
* :func:`observe` pushes a caller-supplied tracer and/or a fresh
  registry for the duration of a ``with`` block (the CLI's
  ``--trace-out`` / ``--metrics-out`` flags, the differential tests);
* :func:`unobserved` pushes a fully null observation (no-op registry,
  no-op tracer) -- the baseline leg of ``benchmarks/bench_obs.py``.

Instrumented call sites fetch handles at operation start
(``get_metrics().counter(...)``), so swaps only take effect at
operation boundaries -- which is exactly the granularity the
differential tests compare.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.trace import NullSink, Tracer


@dataclass
class Observation:
    """One live (tracer, metrics) pair."""

    tracer: Tracer
    metrics: MetricsRegistry


_NULL_REGISTRY = NullRegistry()
_DEFAULT = Observation(tracer=Tracer(NullSink()), metrics=MetricsRegistry())
_STACK: List[Observation] = [_DEFAULT]


def current() -> Observation:
    return _STACK[-1]


def get_tracer() -> Tracer:
    return _STACK[-1].tracer


def get_metrics() -> MetricsRegistry:
    return _STACK[-1].metrics


@contextmanager
def observe(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Observation]:
    """Install a tracer and/or registry for the dynamic extent of the block.

    Omitted pieces get fresh defaults (a disabled tracer, an empty
    registry), so ``with observe() as obs`` is the idiom for capturing
    one operation's metrics in isolation.
    """
    observation = Observation(
        tracer=tracer if tracer is not None else Tracer(NullSink()),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    _STACK.append(observation)
    try:
        yield observation
    finally:
        _STACK.remove(observation)


@contextmanager
def unobserved() -> Iterator[Observation]:
    """Disable observability entirely (no-op registry and tracer).

    This is the closest runnable approximation of the uninstrumented
    stack; ``benchmarks/bench_obs.py`` uses it as the overhead baseline.
    """
    observation = Observation(tracer=Tracer(NullSink()), metrics=_NULL_REGISTRY)
    _STACK.append(observation)
    try:
        yield observation
    finally:
        _STACK.remove(observation)

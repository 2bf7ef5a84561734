"""Per-layer spans installed around public layer entry points.

Nothing under ``src/`` carries these spans: :func:`install` wraps the
entry points by monkeypatching inside a benchmark child process, so the
traced pass measures the same code the untimed passes run.

Accounting rules (see README.md):

* ``self_s`` of a span is its duration minus the part its child spans
  cover, so the self times of all spans plus the root's self time
  (``unattributed``) add up to the traced wall time.
* A span already open higher up the stack (recursion such as ``lemma4``
  calling itself, or an override calling ``super()``) adds self time
  but counts, and adds inclusive time, only at its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: Root span: one ``repro.cli.main`` call.  Its self time is everything
#: no layer span claims (argument parsing, system setup, printing).
ROOT = "unattributed"

#: (span, owner, attributes).  ``owner`` is ``module`` for functions --
#: every binding of the same function object across loaded ``repro``
#: modules is replaced, so ``to_json`` as bound in ``repro.cli`` and
#: ``space_lower_bound`` as bound in ``repro.faults.harness`` are both
#: covered -- or ``module:Class`` for methods, where subclasses that
#: override the attribute are wrapped too.
TARGETS = (
    ("kernel.explore", "repro.kernel.explore:KernelExplorer", ("explore",)),
    ("kernel.codec", "repro.kernel.codec:PackedCodec", ("pack", "unpack")),
    (
        "protocol.canonical_key",
        "repro.model.process:Protocol",
        ("canonical_query_key", "canonical_query_key_cached"),
    ),
    (
        "kernel.lower",
        "repro.kernel.compiler:CompiledProgram",
        ("__init__", "plan_miss", "effect_miss"),
    ),
    ("kernel.spill", "repro.kernel.store:RowStore", ("activate_spill",)),
    ("explore", "repro.analysis.explorer:Explorer", ("explore",)),
    ("valency.query", "repro.core.valency:ValencyOracle", ("can_decide",)),
    ("valency.witness", "repro.core.valency:ValencyOracle", ("witness",)),
    ("valency.solo_probe", "repro.core.valency:ValencyOracle", ("_solo_probe",)),
    ("construction.lemma1", "repro.core.lemmas", ("lemma1",)),
    ("construction.lemma3", "repro.core.lemmas", ("lemma3",)),
    ("construction.lemma4", "repro.core.construction", ("lemma4",)),
    (
        "construction.truncate",
        "repro.core.lemmas",
        ("truncate_before_uncovered_write",),
    ),
    ("theorem", "repro.faults.harness", ("space_lower_bound",)),
    (
        "certificate.validate",
        "repro.core.certificate:SpaceBoundCertificate",
        ("validate",),
    ),
    ("serialize", "repro.cli", ("to_json",)),
    ("guarded.witness_hunt", "repro.faults.harness", ("check_consensus_exhaustive",)),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)


class SpanTable:
    """In-memory span accumulator: count, self and inclusive seconds."""

    def __init__(self):
        names = SPAN_NAMES + (ROOT,)
        self.count = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.incl_s = dict.fromkeys(names, 0.0)
        self._depth = dict.fromkeys(names, 0)
        # One frame per open span: [seconds covered by its child spans].
        self._stack: list = []

    def wrap(self, name, fn):
        stack = self._stack
        depth = self._depth
        count = self.count
        self_s = self.self_s
        incl_s = self.incl_s

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if not depth[name]:
                    count[name] += 1
                    incl_s[name] += took

        return spanned

    def run(self, fn, *args):
        """Call ``fn`` as one root (``unattributed``) span."""
        return self.wrap(ROOT, fn)(*args)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(table: SpanTable) -> None:
    """Wrap every target; raises if a target moved or vanished.

    A refactor that renames or moves a wrapped entry point therefore
    fails the traced pass loudly instead of silently zeroing a layer.
    """
    for name, owner, attrs in TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            base = getattr(module, class_name)
            for cls in (base, *_subclasses(base)):
                for attr in attrs:
                    if attr in vars(cls):
                        setattr(cls, attr, table.wrap(name, vars(cls)[attr]))
            continue
        for attr in attrs:
            original = getattr(module, attr)
            spanned = table.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    vars(loaded).get(attr) is original
                ):
                    setattr(loaded, attr, spanned)

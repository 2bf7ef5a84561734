"""Compiled exploration kernel: packed-int configurations, batch BFS.

The interpreted explorer (:mod:`repro.analysis.explorer`) walks
:class:`~repro.model.configuration.Configuration` objects -- a tuple of
states, a tuple of register values, a coin vector -- allocating a fresh
object per successor and hashing structured tuples at every dedup probe.
This package lowers a :class:`~repro.model.system.System` to a *flat
kernel* over packed integers:

* :mod:`repro.kernel.codec` -- one Python big-int per configuration
  (32-bit fields: process states, then the register file, then coin
  counters), with states and register values interned to field ids.
* :mod:`repro.kernel.compiler` -- lowers ``TableProtocol`` and DSL
  programs to per-``(pid, state)`` effect tables mapping the current
  register field to an integer *delta*; a successor is one big-int
  addition.  Every protocol lowers on demand, through miss handlers
  that consult the object model once per novel ``(pid, state, value)``
  and memoise the delta forever; a declared round-shift hook pair is
  tabulated the same lazy way, per field id.
* :mod:`repro.kernel.explore` -- a batch explorer expanding whole
  frontiers per call, bit-identical to ``Explorer.explore`` (same
  budget ticks, same early exits, same metrics), and the solo runs of
  ``Explorer.solo`` over the same plan and effect tables.
* :mod:`repro.kernel.store` -- the visited arena of one search: its
  rows in one list under dense ids, plus one ``row -> id`` dict, freed
  when the search returns.

Selection is by the type of the system: ``Explorer`` runs every exact
:class:`~repro.model.system.System` on the kernel, so the library and
the CLI share one default.  Any subclass runs on the interpreter -- the
reference :class:`~repro.model.system.InterpretedSystem` the
differential tests build, and faulty-memory wrappers -- with the reason
recorded in ``kernel.fallback.*`` counters and a trace event.
"""

from repro.kernel.codec import PackedCodec
from repro.kernel.compiler import CompiledProgram, kernel_unsupported_reason
from repro.kernel.explore import KernelExplorer
from repro.kernel.store import RowStore

__all__ = [
    "PackedCodec",
    "CompiledProgram",
    "kernel_unsupported_reason",
    "KernelExplorer",
    "RowStore",
]

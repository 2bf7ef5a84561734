"""Compiled exploration kernel: packed-int configurations, batch BFS.

The interpreted explorer (:mod:`repro.analysis.explorer`) walks
:class:`~repro.model.configuration.Configuration` objects -- a tuple of
states, a tuple of register values, a coin vector -- allocating a fresh
object per successor and hashing structured tuples at every dedup probe.
This package lowers a :class:`~repro.model.system.System` to a *flat
kernel* over packed integers:

* :mod:`repro.kernel.codec` -- one Python big-int per configuration
  (32-bit fields: process states, then the register file, then coin
  counters), FNV-1a u64 structural fingerprints, and a fixed-width
  byte serialisation so visited rows live in one contiguous block.
* :mod:`repro.kernel.compiler` -- lowers ``TableProtocol`` and DSL
  programs to per-``(pid, state)`` effect tables mapping the current
  register field to an integer *delta*; a successor is one big-int
  addition.  ``TableProtocol`` compiles statically (tables exhaustively
  pre-populated from the rule/transition tables); other protocols lower
  dynamically with miss handlers that consult the object model once per
  novel ``(pid, state, value)`` and memoise the delta forever.
* :mod:`repro.kernel.explore` -- a batch explorer expanding whole
  frontiers per call, bit-identical to ``Explorer.explore`` (same
  budget ticks, same early exits, same metrics), and the solo runs of
  ``Explorer.solo`` over the same plan and effect tables.
* :mod:`repro.kernel.store` -- the out-of-core visited store: rows
  spill to checksummed mmap'd segments past a RAM threshold
  (``REPRO_KERNEL_SPILL_THRESHOLD``), with quarantine-on-corruption.

Selection is by the type of the system: ``Explorer`` runs every exact
:class:`~repro.model.system.System` on the kernel, so the library and
the CLI share one default.  Any subclass runs on the interpreter -- the
reference :class:`~repro.model.system.InterpretedSystem` the
differential tests build, and faulty-memory wrappers -- with the reason
recorded in ``kernel.fallback.*`` counters and a trace event.
"""

from repro.kernel.codec import PackedCodec, row_fingerprint
from repro.kernel.compiler import CompiledProgram, kernel_unsupported_reason
from repro.kernel.explore import KernelExplorer
from repro.kernel.store import DEFAULT_SPILL_THRESHOLD, RowStore

__all__ = [
    "PackedCodec",
    "row_fingerprint",
    "CompiledProgram",
    "kernel_unsupported_reason",
    "KernelExplorer",
    "RowStore",
    "DEFAULT_SPILL_THRESHOLD",
]

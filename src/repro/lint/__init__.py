"""Static protocol analysis and repository linting (``repro lint``).

Two layers, both reporting typed :class:`Diagnostic` values:

1. **Protocol static analysis** (:mod:`repro.lint.cfg`,
   :mod:`repro.lint.footprint`, :mod:`repro.lint.protocol`): a
   control-flow graph over DSL programs and table automata, conservative
   register footprints, and the Theorem 1 contrapositive -- a writable
   footprint below n−1 registers means "cannot solve n-process
   consensus", reported before any adversary run.
2. **Repository self-lint** (:mod:`repro.lint.selfcheck`): AST checks of
   the codebase invariants (deterministic proof paths, pinned trace
   schema, kernel hot path, durable checkpoint writes), exposed as
   ``repro lint --self``.
"""

from repro.lint.cfg import (
    EXIT,
    ProgramCfg,
    TableCfg,
    program_cfg,
    table_cfg,
    undecidable_nodes,
    unreachable_labels,
)
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.footprint import (
    Footprint,
    consensus_impossible,
    program_footprint,
    protocol_footprint,
    table_footprint,
)
from repro.lint.protocol import crosscheck_certificate, lint_protocol
from repro.lint.selfcheck import (
    check_checkpoint_fsync,
    check_determinism,
    check_kernel_hot_path,
    check_trace_schema,
    lint_repository,
)

__all__ = [
    "EXIT",
    "Diagnostic",
    "Footprint",
    "LintReport",
    "ProgramCfg",
    "TableCfg",
    "check_checkpoint_fsync",
    "check_determinism",
    "check_kernel_hot_path",
    "check_trace_schema",
    "consensus_impossible",
    "crosscheck_certificate",
    "lint_protocol",
    "lint_repository",
    "program_cfg",
    "program_footprint",
    "protocol_footprint",
    "table_cfg",
    "table_footprint",
    "undecidable_nodes",
    "unreachable_labels",
]

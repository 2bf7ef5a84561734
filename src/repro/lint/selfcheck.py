"""Repository self-lint: codebase invariants enforced by AST checks.

Four conventions hold this codebase's proofs together:

* **Determinism of proof paths.**  Everything under ``repro.core`` and
  ``repro.model`` must be a pure function of its inputs -- certificates
  replay and journals resume.  An ambient clock or RNG anywhere in
  there silently breaks both.  The checker flags
  ``time``/``random`` imports in those packages; a legitimate use (e.g.
  accepting a *caller-provided* ``random.Random`` for test-schedule
  generation) is whitelisted by an explicit pragma comment on the
  import line: ``# lint: allow-nondeterminism (reason)``.
* **Pinned trace schema.**  Journal consumers parse records by
  ``SCHEMA_VERSION``/``REQUIRED_KEYS``; those constants may only change
  together with a version bump, so the lint keeps an independent copy
  and reports drift (double-entry bookkeeping with
  ``tests/test_obs_schema.py``).
* **Kernel hot path.**  The compiled kernel's speedup rests on its
  ``_hot_*`` functions doing only integer work; object-model calls and
  per-edge comprehensions in them are flagged
  (:func:`check_kernel_hot_path`).
* **Durable checkpoint writes.**  Crash-tolerance rests on every
  checkpoint write being fsync-then-rename; a bare write-mode ``open``
  in ``repro.resilience`` that skips either half leaves torn files for
  the resume path to trip over (:func:`check_checkpoint_fsync`).
  Append-mode journals (flushed per record) are exempt; anything else
  opts out with ``# lint: allow-unsynced-write (reason)``.

All checks are AST-based (:mod:`ast` on source files, no imports of the
checked code), so the self-lint runs in milliseconds and works on any
tree shaped like the package -- which is how the tests seed deliberately
broken trees without touching the real one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.obs.runtime import get_metrics, get_tracer

#: Modules whose ambient use makes proof-bearing code nondeterministic.
NONDETERMINISTIC_MODULES = frozenset({"time", "random"})

#: Packages (relative to the package root) that are proof paths.
PROOF_PATHS = ("core", "model")

#: The pragma that whitelists one import line, with a reason.
PRAGMA = "lint: allow-nondeterminism"

#: The pragma that whitelists one non-durable write line.
FSYNC_PRAGMA = "lint: allow-unsynced-write"

#: Independent copy of the pinned trace schema (see module docstring).
EXPECTED_SCHEMA_VERSION = 1
EXPECTED_REQUIRED_KEYS = {
    "span_start": ("v", "t", "run", "type", "name", "id", "parent", "data"),
    "span_end": ("v", "t", "run", "type", "name", "id", "status"),
    "event": ("v", "t", "run", "type", "name", "parent", "data"),
    "metrics": ("v", "t", "run", "type", "name", "data"),
}


def package_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _parse(path: Path) -> Tuple[ast.Module, List[str]]:
    try:
        source = path.read_text(encoding="utf-8")
        return ast.parse(source, filename=str(path)), source.splitlines()
    except (OSError, SyntaxError) as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc


def _python_files(root: Path) -> Iterable[Path]:
    return sorted(root.rglob("*.py"))


def _relative(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root.parent))
    except ValueError:
        return str(path)


# -- determinism ----------------------------------------------------------


def _imported_modules(node: ast.AST) -> List[str]:
    """Top-level module names a single import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def check_determinism(root: Path) -> LintReport:
    """Flag ``time``/``random`` imports inside the proof packages."""
    report = LintReport()
    for package in PROOF_PATHS:
        package_dir = root / package
        if not package_dir.is_dir():
            raise LintError(
                f"proof path {package_dir} does not exist; is {root} a "
                "repro package tree?"
            )
        for path in _python_files(package_dir):
            tree, lines = _parse(path)
            for node in ast.walk(tree):
                modules = _imported_modules(node)
                hits = sorted(set(modules) & NONDETERMINISTIC_MODULES)
                if not hits:
                    continue
                line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
                if PRAGMA in line:
                    continue
                report.add(Diagnostic(
                    code="nondeterministic-import",
                    severity="error",
                    message=(
                        f"import of {', '.join(hits)} in a proof path: "
                        "core/model code must be deterministic (replay "
                        "and resume depend on it); if the use is "
                        "caller-driven, annotate the line "
                        f"with `# {PRAGMA} (reason)`"
                    ),
                    path=_relative(path, root),
                    line=node.lineno,
                ))
    return report


# -- kernel hot path ------------------------------------------------------


#: Object-model and allocation-heavy call names banned inside ``_hot_*``
#: functions of the compiled kernel: per-edge work must stay shifts,
#: masks, one big-int add and dict probes; anything touching the object
#: model, or canonicalising a row, belongs in a cold ``*_miss``/``admit``
#: handler.
KERNEL_HOT_BANNED_CALLS = frozenset({
    "Configuration",
    "pack",
    "unpack",
    "intern",
    "step",
    "poised",
    "transition",
    "decision",
    "decided_values",
    "apply_operation",
    "canonical_key",
    "canonical_query_key",
    "rounds_of",
    "shift_rounds",
    "canonical_row",
    "deepcopy",
})

_COMPREHENSION_NODES = (
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def check_kernel_hot_path(root: Path) -> LintReport:
    """``_hot_*`` functions in :mod:`repro.kernel` stay allocation-free.

    The compiled kernel's ≥5x claim rests on its inner loop doing only
    integer work; a well-meaning edit that constructs a
    ``Configuration``, calls back into the object model, or builds a
    comprehension per popped record silently erodes it.  The ``_hot_``
    name prefix is the opt-in marker: any function carrying it, anywhere
    under ``repro/kernel/``, is audited.  ``explore.py`` must define at
    least one (the batch expansion loop itself) -- deleting or renaming
    it away from audit is flagged, not silently accepted.  Trees without
    a ``kernel`` package (the lint tests' seeded fixtures) lint clean.
    """
    report = LintReport()
    kernel_dir = root / "kernel"
    if not kernel_dir.is_dir():
        return report
    hot_in_explore = False
    for path in _python_files(kernel_dir):
        tree, _ = _parse(path)
        relative = _relative(path, root)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_hot_"):
                continue
            if path.name == "explore.py":
                hot_in_explore = True
            for inner in ast.walk(node):
                if isinstance(inner, _COMPREHENSION_NODES):
                    report.add(Diagnostic(
                        code="kernel-hot-alloc",
                        severity="error",
                        message=(
                            f"{node.name} contains a comprehension: the "
                            "kernel hot path must not allocate per edge; "
                            "hoist it to the caller or a cold handler"
                        ),
                        path=relative,
                        line=inner.lineno,
                    ))
                elif isinstance(inner, ast.Call):
                    name = _call_name(inner)
                    if name in KERNEL_HOT_BANNED_CALLS:
                        report.add(Diagnostic(
                            code="kernel-hot-alloc",
                            severity="error",
                            message=(
                                f"{node.name} calls {name}(): object-model "
                                "calls are banned in the kernel hot path; "
                                "delegate to a cold *_miss/admit handler"
                            ),
                            path=relative,
                            line=inner.lineno,
                        ))
    if not hot_in_explore:
        report.add(Diagnostic(
            code="kernel-hot-missing",
            severity="error",
            message=(
                "repro/kernel/explore.py defines no _hot_* function: the "
                "batch expansion loop must live in a lint-audited hot "
                "function (the _hot_ prefix is the audit opt-in)"
            ),
            path=_relative(kernel_dir / "explore.py", root),
        ))
    return report


# -- checkpoint durability ------------------------------------------------


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode literal of a write-capable ``open``/``fdopen`` call.

    Returns None for reads, appends (flushed-per-record journals), or
    calls whose mode is not a literal (nothing to prove syntactically).
    """
    name = _call_name(node)
    if name == "open":
        mode_node = node.args[1] if len(node.args) > 1 else None
    elif name == "fdopen":
        mode_node = node.args[1] if len(node.args) > 1 else None
    elif name in {"write_text", "write_bytes"}:
        return "w"
    else:
        return None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not isinstance(mode_node, ast.Constant) or not isinstance(
        mode_node.value, str
    ):
        return None
    mode = mode_node.value
    if "w" in mode or "x" in mode:
        return mode
    return None


def check_checkpoint_fsync(root: Path) -> LintReport:
    """Write-mode opens in ``repro.resilience`` must fsync-then-rename.

    The checkpoint layer's whole contract is that a SIGKILL at any
    instant leaves either the old file or the new one -- which holds
    only if every fresh write goes through a temp file, ``fsync``, and
    an atomic ``replace`` *in the same function* (the primitive must be
    self-contained; "my caller renames it later" reintroduces the torn
    window).  Append-mode journals are exempt (they flush per record
    and tolerate a torn tail by design), as is anything annotated
    ``# lint: allow-unsynced-write (reason)``.  Trees without a
    ``resilience`` package (seeded lint fixtures) pass clean.
    """
    report = LintReport()
    resilience_dir = root / "resilience"
    if not resilience_dir.is_dir():
        return report
    for path in _python_files(resilience_dir):
        tree, lines = _parse(path)
        relative = _relative(path, root)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [
                inner for inner in ast.walk(node)
                if isinstance(inner, ast.Call)
            ]
            names = {_call_name(call) for call in calls}
            has_fsync = "fsync" in names
            has_replace = "replace" in names or "rename" in names
            for call in calls:
                mode = _open_write_mode(call)
                if mode is None:
                    continue
                if has_fsync and has_replace:
                    continue
                line = (
                    lines[call.lineno - 1] if call.lineno <= len(lines) else ""
                )
                if FSYNC_PRAGMA in line:
                    continue
                missing = []
                if not has_fsync:
                    missing.append("fsync")
                if not has_replace:
                    missing.append("replace")
                report.add(Diagnostic(
                    code="checkpoint-unsynced-write",
                    severity="error",
                    message=(
                        f"{node.name} opens a file in mode {mode!r} but "
                        f"never calls {' or '.join(missing)}: checkpoint "
                        "writes must be temp-file + fsync + atomic replace "
                        "in the same function, or a crash leaves a torn "
                        "file for the resume path; annotate a deliberate "
                        "non-durable write with "
                        f"`# {FSYNC_PRAGMA} (reason)`"
                    ),
                    path=relative,
                    line=call.lineno,
                ))
    return report


# -- trace schema ---------------------------------------------------------


def _module_constant(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets:
                return node.value
        if isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == name:
                return node.value
    return None


def check_trace_schema(root: Path) -> LintReport:
    """The trace module's pinned schema must match the lint's copy."""
    report = LintReport()
    trace_path = root / "obs" / "trace.py"
    if not trace_path.is_file():
        raise LintError(f"trace module not found at {trace_path}")
    tree, _ = _parse(trace_path)
    relative = _relative(trace_path, root)

    version_node = _module_constant(tree, "SCHEMA_VERSION")
    keys_node = _module_constant(tree, "REQUIRED_KEYS")
    try:
        version = None if version_node is None else ast.literal_eval(version_node)
        keys = None if keys_node is None else ast.literal_eval(keys_node)
    except ValueError as exc:
        raise LintError(
            f"trace schema constants are not literals in {relative}: {exc}"
        ) from exc

    if version != EXPECTED_SCHEMA_VERSION:
        report.add(Diagnostic(
            code="schema-drift",
            severity="error",
            message=(
                f"SCHEMA_VERSION is {version!r}, lint pins "
                f"{EXPECTED_SCHEMA_VERSION}: schema changes need a "
                "coordinated bump here and in tests/test_obs_schema.py"
            ),
            path=relative,
        ))
    normalized = (
        None
        if keys is None
        else {kind: tuple(fields) for kind, fields in keys.items()}
    )
    if normalized != EXPECTED_REQUIRED_KEYS:
        report.add(Diagnostic(
            code="schema-drift",
            severity="error",
            message=(
                "REQUIRED_KEYS diverged from the lint's pinned copy: "
                "record-shape changes need a coordinated version bump"
            ),
            path=relative,
        ))
    return report


def lint_repository(root: Optional[Path] = None) -> LintReport:
    """Run every self-check against ``root`` (default: the live package)."""
    target = Path(root) if root is not None else package_root()
    if not target.is_dir():
        raise LintError(f"lint root {target} is not a directory")
    report = LintReport()
    with get_tracer().span("lint.self", root=str(target)):
        report.extend(check_determinism(target))
        report.extend(check_trace_schema(target))
        report.extend(check_kernel_hot_path(target))
        report.extend(check_checkpoint_fsync(target))
    metrics = get_metrics()
    metrics.counter("lint.self_runs").inc()
    metrics.counter("lint.diagnostics").inc(len(report))
    return report

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
adversary   run the Theorem 1 adversary against a named protocol and
            print (optionally save) the certificate
check       model-check a protocol's agreement/validity
audit       the combined table: registers declared vs checker verdict
            vs adversary outcome
faults      crash + register-fault campaigns over the bundled protocols
perturb     run the JTT covering induction on a long-lived object
mutex       measure canonical-execution costs of the mutex algorithms
validate    re-validate a saved certificate JSON against its protocol
protocols   list the protocols the CLI can name
lint        static protocol analysis and repository self-lint
cache       inspect or clear the persistent valency cache
fuzz        protocol fuzzing: deterministic corpus campaigns through the
            cross-engine differential oracle (``fuzz run``), plus the
            persistent regression zoo (``fuzz zoo list|replay``)
chaos       differential runtime fault injection (results must stay
            byte-equal under cache corruption and torn journals)
stats       render the metrics record of a trace journal as tables
trace       filter and pretty-print a trace journal's spans and events

The CLI names protocols as ``family:n[:extra]``, e.g. ``rounds:4``,
``shared:5:3``, ``cas:3``, ``kset:5:2``, ``counter:6``, ``snapshot:4``.

``adversary`` and ``audit`` accept ``--cache-dir`` (persistent valency
cache; defaults to ``~/.cache/repro`` when the ``cache`` command
manages it explicitly).  Every command explores on the compiled kernel
(:mod:`repro.kernel`); there are no engine flags.  The reference interpreter is reached by building an
:class:`~repro.model.system.InterpretedSystem` instead of a ``System``.

``lint`` has its own exit-code nuance within the same contract: 0 means
no diagnostics beyond ``info``, 2 means warnings or errors were
reported (each with a stable code; ``--json`` emits them machine
readably), and 1 is reserved for the lint itself failing.

``adversary``, ``check``, ``audit`` and ``faults`` accept
``--trace-out JOURNAL`` (record a JSONL trace journal; see
:mod:`repro.obs`) and ``--metrics-out FILE`` (dump the final metrics
snapshot as JSON).  Journals flush per record, so they are complete and
parseable even when the run exits 2 (violation) or 3 (budget).

Exit codes are a contract (tests assert them): 0 success, 2 a violation
was found (with a replayable witness), 3 a budget or exploration limit
ended the run first, 1 only for unexpected errors -- and expected
failures never print a raw traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from repro.errors import (
    BudgetExhausted,
    CertificateError,
    ExplorationLimitError,
    ReproError,
    ViolationError,
)
from repro.analysis.checker import (
    check_consensus_exhaustive,
    check_consensus_random,
)
from repro.analysis.report import describe_limit, print_table
from repro.core.serialize import certificate_from_json, to_json
from repro.faults.chaos import SCENARIOS as CHAOS_SCENARIOS
from repro.model.system import System
from repro.perturbable import covering_induction
from repro.perturbable.objects import (
    ArrayCounter,
    LossySharedCounter,
    SingleWriterSnapshot,
)
from repro.protocols.consensus import (
    CasConsensus,
    CommitAdoptRounds,
    KSetPartition,
    OptimisticOneRegister,
    RacingCounters,
    RandomizedRounds,
    SplitBrainConsensus,
    TasConsensus,
    shared_register_rounds,
)

#: The exit-code contract.  Everything below returns one of these.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3

_CONSENSUS_FAMILIES = {
    "rounds": ("obstruction-free consensus, n registers", "rounds:n"),
    "racing": ("OF consensus by racing counters, 2n registers", "racing:n"),
    "randomized": ("local-coin consensus, n registers", "randomized:n"),
    "cas": ("wait-free consensus from one CAS", "cas:n"),
    "tas": ("2-process consensus from test&set", "tas:2"),
    "split-brain": ("broken: one shared register", "split-brain:n"),
    "optimistic": ("broken: claim-if-empty register", "optimistic:n"),
    "shared": ("rounds protocol on k shared registers", "shared:n:k"),
    "kset": ("k-set agreement, n-k+1 registers", "kset:n:k"),
}
_OBJECT_FAMILIES = {
    "counter": ("wait-free counter, n-1 slots", "counter:n"),
    "lossy-counter": ("broken counter on k slots", "lossy-counter:n:k"),
    "snapshot": ("OF single-writer snapshot", "snapshot:n"),
    "zoo": ("regression-zoo specimen by digest", "zoo:digest-prefix"),
}


def parse_protocol(spec: str):
    """Instantiate a protocol from a ``family:n[:extra]`` spec string.

    The ``zoo:<digest-prefix>`` family resolves a regression-zoo
    specimen (``$REPRO_ZOO_DIR`` or ``corpus/zoo``) to its table
    protocol, so zoo findings are runnable by every protocol-taking
    command under a stable name.
    """
    parts = spec.split(":")
    family = parts[0]
    if family == "zoo":
        from repro.fuzz import Zoo, ZooError
        from repro.fuzz.zoo import default_zoo_root

        if len(parts) != 2 or not parts[1]:
            raise SystemExit(
                f"bad protocol spec {spec!r}: expected zoo:<digest-prefix>"
            )
        root = os.environ.get("REPRO_ZOO_DIR") or default_zoo_root()
        try:
            return Zoo(root).find(parts[1]).build()
        except ZooError as exc:
            raise SystemExit(f"bad protocol spec {spec!r}: {exc}")
    try:
        numbers = [int(part) for part in parts[1:]]
    except ValueError:
        raise SystemExit(f"bad protocol spec {spec!r}: sizes must be integers")
    try:
        if family == "rounds":
            return CommitAdoptRounds(numbers[0])
        if family == "racing":
            return RacingCounters(numbers[0])
        if family == "randomized":
            return RandomizedRounds(numbers[0])
        if family == "cas":
            return CasConsensus(numbers[0])
        if family == "tas":
            return TasConsensus(numbers[0] if numbers else 2)
        if family == "split-brain":
            return SplitBrainConsensus(numbers[0])
        if family == "optimistic":
            return OptimisticOneRegister(numbers[0])
        if family == "shared":
            return shared_register_rounds(numbers[0], numbers[1])
        if family == "kset":
            return KSetPartition(numbers[0], numbers[1])
        if family == "counter":
            return ArrayCounter(numbers[0])
        if family == "lossy-counter":
            return LossySharedCounter(numbers[0], numbers[1])
        if family == "snapshot":
            return SingleWriterSnapshot(numbers[0])
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad protocol spec {spec!r}: {exc}")
    raise SystemExit(
        f"unknown protocol family {family!r}; try `python -m repro protocols`"
    )


def cmd_protocols(_args) -> int:
    rows = [
        [name, usage, description]
        for name, (description, usage) in sorted(
            {**_CONSENSUS_FAMILIES, **_OBJECT_FAMILIES}.items()
        )
    ]
    print_table("protocol families", ["family", "spec", "description"], rows)
    return 0


def _make_budget(args):
    from repro.faults import Budget

    if args.budget is None and args.deadline is None:
        return None
    try:
        return Budget(max_steps=args.budget, deadline=args.deadline)
    except ValueError as exc:
        raise SystemExit(f"bad budget: {exc}")


def _load_resume(path: str, spec: str):
    from repro.faults import ResumeError
    from repro.resilience import load_checkpoint

    try:
        progress = load_checkpoint(path)
    except ResumeError as exc:
        raise SystemExit(f"cannot resume from {path}: {exc}")
    if progress is None:
        return None  # missing or empty: nothing to resume, start fresh
    if progress.protocol != spec:
        raise SystemExit(
            f"checkpoint {path} was taken for {progress.protocol!r}, "
            f"refusing to resume it against {spec!r}"
        )
    return progress


def cmd_adversary(args) -> int:
    from repro.faults import run_adversary_auto, run_adversary_guarded

    protocol = parse_protocol(args.protocol)
    system = System(protocol)
    budget = _make_budget(args)
    resume = None
    if args.auto:
        if budget is not None or args.resume is not None:
            raise SystemExit(
                "--auto escalates the oracle budgets itself; it cannot be "
                "combined with --budget, --deadline or --resume"
            )
        outcome = run_adversary_auto(
            system,
            max_configs=args.max_configs,
            max_depth=args.max_depth,
            spec=args.protocol,
            cache_dir=args.cache_dir,
        )
    else:
        if args.resume is not None and os.path.exists(args.resume):
            resume = _load_resume(args.resume, args.protocol)
            if resume is not None:
                print(f"resuming: {resume.summary()}")
        outcome = run_adversary_guarded(
            system,
            budget=budget,
            resume=resume,
            max_configs=args.max_configs,
            max_depth=args.max_depth,
            spec=args.protocol,
            cache_dir=args.cache_dir,
            checkpoint=args.resume,
        )
    if outcome.status == "certificate":
        print(outcome.certificate.summary())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(to_json(outcome.certificate))
            print(f"certificate written to {args.out}")
        return EXIT_OK
    if outcome.status == "violation":
        print(f"consensus violation instead of a certificate: "
              f"{outcome.violation}")
        witness = getattr(outcome.violation, "witness", None)
        if witness is not None:
            print(f"witness schedule ({len(witness)} steps): {list(witness)}")
        return EXIT_VIOLATION
    print(outcome.partial.summary())
    if args.auto:
        print(f"--auto {outcome.partial.note}")
    if resume is not None and len(outcome.partial.queries) <= len(
        resume.queries
    ):
        # Queries journal atomically: a budget smaller than the next
        # query's exploration cost makes no progress, ever.
        print("warning: no progress over the resumed checkpoint -- the "
              "next oracle query needs more steps than --budget allows; "
              "raise it")
    if args.resume:
        # The checkpoint journal was written *live* (flushed + fsynced
        # per computed answer by run_adversary_guarded), so the file is
        # already complete -- even a SIGKILL mid-run would have left a
        # resumable prefix there.
        print(f"checkpoint written to {args.resume} (live journal); "
              f"rerun with --resume {args.resume} to continue")
    return EXIT_BUDGET


def cmd_check(args) -> int:
    protocol = parse_protocol(args.protocol)
    system = System(protocol)
    n = protocol.n
    inputs = [0] + [1] * (n - 1)
    k = getattr(protocol, "k", 1)
    result = check_consensus_exhaustive(
        system, inputs, k=k, max_configs=args.max_configs, strict=False
    )
    mode = "exhaustive" if result.exhaustive else "bounded"
    if result.ok:
        random_result = check_consensus_random(
            system, inputs, k=k, runs=args.random_runs,
            schedule_length=150 * n, seed=0,
        )
        if random_result.ok:
            print(
                f"ok: no violation ({mode}, {result.configs_visited} "
                f"configurations; {args.random_runs} random runs)"
            )
            if not result.exhaustive:
                print(describe_limit(result.configs_visited,
                                     cap=args.max_configs))
            return EXIT_OK
        result = random_result
    violation = result.first_violation()
    print(f"VIOLATION ({violation.kind}): {violation.detail}")
    print(f"witness schedule ({len(violation.schedule)} steps): "
          f"{list(violation.schedule)}")
    return EXIT_VIOLATION


def cmd_audit(args) -> int:
    from repro.faults import run_adversary_guarded

    rows = []
    worst = EXIT_OK
    for spec in args.protocols:
        protocol = parse_protocol(spec)
        system = System(protocol)
        inputs = [0] + [1] * (protocol.n - 1)
        check = check_consensus_exhaustive(
            system, inputs, max_configs=args.max_configs, strict=False
        )
        if check.ok:
            verdict = "ok"
            if not check.exhaustive:
                verdict = f"ok ({describe_limit(check.configs_visited)})"
        else:
            verdict = check.first_violation().kind
            worst = max(worst, EXIT_VIOLATION)
        outcome = run_adversary_guarded(
            system, budget=_make_budget(args), max_configs=args.max_configs,
            max_depth=args.max_depth, spec=spec, cache_dir=args.cache_dir,
        )
        if outcome.status == "certificate":
            bound = f"{outcome.certificate.bound} pinned"
        elif outcome.status == "violation":
            bound = "ViolationError"
            worst = max(worst, EXIT_VIOLATION)
        else:
            bound = f"budget ({len(outcome.partial.queries)} queries"
            if outcome.partial.note:
                bound += f"; {outcome.partial.note}"
            bound += ")"
            worst = max(worst, EXIT_BUDGET) if worst == EXIT_OK else worst
        rows.append(
            [protocol.name, protocol.n, protocol.num_objects,
             protocol.n - 1, verdict, bound]
        )
    print_table(
        "space audit",
        ["protocol", "n", "registers", "needed", "checker", "adversary"],
        rows,
    )
    return worst


def cmd_perturb(args) -> int:
    protocol = parse_protocol(args.object)
    system = System(protocol)
    try:
        certificate = covering_induction(
            system,
            workers=protocol.workers,
            reader=protocol.reader,
            ops_to_perturb=protocol.ops_to_perturb,
            completes_operation=protocol.completes_operation,
        )
    except ViolationError as exc:
        print(f"linearizability violation: {exc}")
        return EXIT_VIOLATION
    print(certificate.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(to_json(certificate))
        print(f"certificate written to {args.out}")
    return 0


def cmd_mutex(args) -> int:
    from repro.mutex import (
        BakeryMutex,
        PetersonFilter,
        TournamentMutex,
        sequential_canonical_run,
    )

    makers = {
        "tournament": TournamentMutex,
        "bakery": BakeryMutex,
        "peterson": PetersonFilter,
    }
    rows = []
    for n in args.sizes:
        row = [n]
        for name in ("tournament", "bakery", "peterson"):
            run = sequential_canonical_run(
                System(makers[name](n, sessions=1)), list(range(n))
            )
            row.append(run.cost)
        rows.append(row)
    print_table(
        "mutex canonical-execution cost (state-change model)",
        ["n", "tournament", "bakery", "peterson"],
        rows,
    )
    return 0


def cmd_validate(args) -> int:
    with open(args.certificate, encoding="utf-8") as handle:
        certificate = certificate_from_json(handle.read())
    protocol = parse_protocol(args.protocol)
    try:
        certificate.validate(System(protocol))
    except CertificateError as exc:
        print(f"INVALID: {exc}")
        return EXIT_VIOLATION
    print(f"valid: {certificate.summary()}")
    return EXIT_OK


#: Protocols the fault campaigns sweep when none are named.
_FAULTS_DEFAULT = ["rounds:3", "tas:2", "cas:3"]
_FAULTS_QUICK = ["rounds:2", "tas:2"]


def cmd_faults(args) -> int:
    from repro.faults import corruption_campaign, crash_campaign

    specs = args.protocols or (_FAULTS_QUICK if args.quick else _FAULTS_DEFAULT)
    protocols = [parse_protocol(spec) for spec in specs]
    crash_configs = 120 if args.quick else args.crash_configs
    corrupt_configs = 2_000 if args.quick else args.max_configs

    crash_rows = crash_campaign(
        protocols, f=args.crashes, max_configs=crash_configs
    )
    print_table(
        "crash campaign (every <= (n-1)-crash plan over the explored graph)",
        ["protocol", "n", "plans", "configs", "explored", "verdict"],
        [
            [
                row.name,
                row.n,
                row.result.plans_checked,
                row.result.configs_visited,
                "full" if row.result.exhaustive
                else "stopped at violation" if not row.result.ok
                else describe_limit(row.result.configs_visited),
                row.verdict,
            ]
            for row in crash_rows
        ],
    )

    corruption_rows = corruption_campaign(
        protocols, seed=args.seed, rate=args.rate,
        max_configs=corrupt_configs,
    )
    print_table(
        "register-fault campaign (checker must catch injected damage)",
        ["protocol", "fault plan", "caught", "detail"],
        [
            [row.name, row.fault, "yes" if row.caught else "no", row.detail]
            for row in corruption_rows
        ],
        note="'caught: no' can be benign (the fault never mattered), but "
        "at least one plan per run must be caught",
    )

    crashed = [row for row in crash_rows if row.verdict != "ok"]
    if crashed:
        names = ", ".join(row.name for row in crashed)
        print(f"FAIL: crash-tolerance violations in: {names}")
        return EXIT_VIOLATION
    if not any(row.caught for row in corruption_rows):
        print("FAIL: no injected register fault was caught by the checker "
              "(negative test of the checker failed)")
        return EXIT_VIOLATION
    print(f"ok: {len(crash_rows)} protocols crash-tolerant; "
          f"{sum(row.caught for row in corruption_rows)}/"
          f"{len(corruption_rows)} fault plans caught by the checker")
    return EXIT_OK


def cmd_chaos(args) -> int:
    """Differential chaos: injected runtime faults must not change results."""
    import tempfile

    from repro.faults import chaos_campaign

    protocol = parse_protocol(args.protocol)
    cleanup = None
    workdir = args.workdir
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    try:
        rows = chaos_campaign(
            protocol,
            workdir,
            seed=args.seed,
            scenarios=args.scenarios,
            max_configs=args.max_configs,
            max_depth=args.max_depth,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    print_table(
        f"chaos campaign ({args.protocol}, seed={args.seed})",
        ["scenario", "verdict", "detail"],
        [
            [row.scenario, "ok" if row.ok else "FAIL", row.detail]
            for row in rows
        ],
        note="every scenario injects a runtime fault and demands the "
        "serialized result stay byte-equal to the undisturbed run; a "
        "scenario that injected nothing fails as vacuous",
    )
    if all(row.ok for row in rows):
        print(f"ok: {len(rows)} chaos scenarios, all byte-equal")
        return EXIT_OK
    failed = ", ".join(row.scenario for row in rows if not row.ok)
    print(f"FAIL: chaos scenarios not passed: {failed}")
    return EXIT_VIOLATION


def _parse_journal_gated(path, title: str, headers):
    """Parse a journal, rendering the refusal surface for newer writers.

    A journal whose records carry ``v > SCHEMA_VERSION`` is not torn
    and not corrupt -- nothing in it can be trusted under this reader's
    schema.  Instead of a traceback (or a corruption diagnosis), the
    command prints the one-line version verdict, renders its table as
    an ``n/a`` placeholder row, and returns ``None`` so the caller can
    exit 1.
    """
    from repro.obs import SchemaTooNew, parse_journal_tolerant

    try:
        return parse_journal_tolerant(path)
    except SchemaTooNew as exc:
        print(exc)
        print_table(title, headers, [["n/a"] * len(headers)])
        return None


def cmd_stats(args) -> int:
    """Render the final metrics record of a journal as tables."""
    parsed = _parse_journal_gated(
        args.journal, "metrics", ["kind", "name", "value"]
    )
    if parsed is None:
        return EXIT_ERROR
    records, torn = parsed
    if torn is not None:
        print(f"warning: journal has a torn final line (dropped): {torn}")
    snapshots = [r for r in records if r["type"] == "metrics"]
    if not snapshots:
        print(f"no metrics record in {args.journal} (was the run traced "
              "with --trace-out?)")
        return EXIT_ERROR
    data = snapshots[-1]["data"]
    counters = data.get("counters", {})
    gauges = data.get("gauges", {})
    histograms = data.get("histograms", {})

    rows = [["counter", name, value] for name, value in sorted(counters.items())]
    rows += [["gauge", name, value] for name, value in sorted(gauges.items())]
    if rows:
        print_table("metrics", ["kind", "name", "value"], rows)
    hrows = [
        [name, h["count"], h["sum"], h["min"], h["max"]]
        for name, h in sorted(histograms.items())
    ]
    if hrows:
        print_table(
            "histograms", ["name", "count", "sum", "min", "max"], hrows
        )

    # Derived rates guard every division: a journal from a run with
    # zero valency queries (e.g. a lint short-circuit) must render as
    # "n/a" rows, not crash.
    def rate(numerator: float, denominator: float) -> str:
        if not denominator:
            return "n/a"
        return f"{numerator / denominator:.1%}"

    derived = []
    queries = counters.get("oracle.queries", 0)
    derived.append(
        ["oracle memo hit rate",
         rate(counters.get("oracle.cache_hits", 0), queries)]
    )
    probes = (
        counters.get("valency_cache.hits", 0)
        + counters.get("valency_cache.misses", 0)
    )
    derived.append(
        ["valency-cache hit rate",
         rate(counters.get("valency_cache.hits", 0), probes)]
    )
    frontier_peak = gauges.get("explorer.frontier_peak")
    derived.append(
        ["frontier peak", "n/a" if frontier_peak is None else frontier_peak]
    )
    if gauges.get("construction.covered_registers") is not None:
        derived.append(
            ["covered registers", gauges["construction.covered_registers"]]
        )
    print_table("derived", ["quantity", "value"], derived)

    # Checkpointing: what the resilience layer did to this run (zero for
    # a run without --resume).
    resilience = [
        ["checkpoint records", counters.get("checkpoint.records", 0)],
    ]
    print_table("resilience", ["quantity", "value"], resilience)

    # Compiled-kernel activity.  Same n/a discipline: a journal from an
    # interpreter-only run (or one predating the kernel) renders zeros
    # and "n/a" rows, never a KeyError or division crash.
    batches = histograms.get("kernel.batch", {})
    batch_count = batches.get("count", 0)
    kernel_rows = [
        ["programs compiled", counters.get("kernel.compiles", 0)],
        ["batch explorations", batch_count],
        ["mean batch size",
         "n/a" if not batch_count
         else f"{batches.get('sum', 0) / batch_count:.1f}"],
        ["spill segments written", counters.get("kernel.spill.segments", 0)],
        ["rows spilled", counters.get("kernel.spill.rows", 0)],
        ["interpreter fallbacks", counters.get("kernel.fallbacks", 0)],
    ]
    reasons = sorted(
        name[len("kernel.fallback."):]
        for name in counters
        if name.startswith("kernel.fallback.")
    )
    kernel_rows.append(
        ["fallback reasons", ", ".join(reasons) if reasons else "n/a"]
    )
    print_table("kernel", ["quantity", "value"], kernel_rows)

    # Abstract interpretation.  Same n/a discipline again: a journal
    # from a run that never analyzed anything (or one predating absint)
    # renders zeros and "n/a" rows, never a KeyError or a division.
    analyses = counters.get("absint.analyses", 0)
    certificates = counters.get("absint.certificates", 0)
    absint_rows = [
        ["fixpoint analyses", analyses],
        ["static certificates", certificates],
        ["protocols refuted", counters.get("absint.refuted", 0)],
        ["refutation rate",
         rate(counters.get("absint.refuted", 0), certificates)],
    ]
    for kind in ("validity", "no-decide", "write-bound"):
        absint_rows.append(
            [f"{kind} verdicts",
             counters.get(f"absint.verdict.{kind}", 0)]
        )
    absint_rows += [
        ["soundness checks", counters.get("absint.soundness.checks", 0)],
        ["soundness violations",
         counters.get("absint.soundness.violations", 0)],
        ["codecs narrowed", counters.get("kernel.narrowed", 0)],
        ["narrowed row bytes saved",
         counters.get("kernel.narrow.saved_bytes", 0)],
    ]
    print_table("absint", ["quantity", "value"], absint_rows)
    return EXIT_OK


def cmd_trace(args) -> int:
    """Filter and pretty-print a journal's spans and events."""
    parsed = _parse_journal_gated(
        args.journal, "trace journal", ["t", "type", "name", "detail"]
    )
    if parsed is None:
        return EXIT_ERROR
    records, torn = parsed
    if torn is not None:
        print(f"warning: journal has a torn final line (dropped): {torn}")
    starts = {
        record["id"]: record
        for record in records
        if record["type"] == "span_start"
    }
    rows = []
    shown = 0
    for record in records:
        kind = record["type"]
        if args.type is not None and kind != args.type:
            continue
        name = record.get("name", "")
        if args.name is not None and name != args.name:
            continue
        if kind == "span_end":
            detail = f"status={record['status']}"
            start = starts.get(record["id"])
            if start is not None:
                detail += f" took={(record['t'] - start['t']) * 1000:.2f}ms"
            if record.get("error"):
                detail += f" error={record['error']}"
        elif kind == "metrics":
            counters = record.get("data", {}).get("counters", {})
            detail = f"{len(counters)} counters (see `repro stats`)"
        else:
            data = record.get("data", {})
            detail = " ".join(
                f"{key}={data[key]!r}" for key in sorted(data)
            )
        rows.append([f"{record['t']:.6f}", kind, name, detail[:100]])
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    print_table(
        f"trace journal ({len(records)} records, {shown} shown)",
        ["t", "type", "name", "detail"],
        rows,
    )
    return EXIT_OK


def cmd_lint(args) -> int:
    """Static protocol analysis and/or the repository self-lint.

    Exit codes refine the global contract: 0 no diagnostics beyond
    ``info``, 2 at least one warning/error, 1 the lint itself failed
    (:class:`repro.errors.LintError` reaches the generic handler).
    """
    from repro.lint import LintReport, lint_protocol, lint_repository

    if not args.protocols and not args.self_check:
        raise SystemExit(
            "nothing to lint: name protocol specs (e.g. rounds:3) and/or "
            "pass --self"
        )
    report = LintReport()
    if args.self_check:
        from pathlib import Path

        root = Path(args.root) if args.root is not None else None
        report.extend(lint_repository(root))
    for spec in args.protocols:
        report.extend(lint_protocol(parse_protocol(spec)))

    if args.json:
        sys.stdout.write(report.to_json())
    elif not len(report):
        print("ok: no diagnostics")
    else:
        rows = [
            [d.severity, d.code, d.location(), d.message]
            for d in report
        ]
        print_table(
            f"lint ({len(report)} diagnostics)",
            ["severity", "code", "location", "message"],
            rows,
        )
        blocking = sum(1 for d in report if d.blocking)
        if blocking:
            print(f"{blocking} blocking diagnostic(s) (warning or error)")
    return EXIT_VIOLATION if report.blocking else EXIT_OK


def cmd_absint(args) -> int:
    """Abstract-interpretation verdicts for protocols and zoo specimens.

    Exit codes refine the global contract the same way ``lint`` does:
    0 every certificate is clean, 2 at least one protocol is statically
    refuted, 1 the analysis itself failed
    (:class:`repro.errors.AbsintError` reaches the generic handler).
    """
    from repro.absint import static_certificate

    targets = []
    for spec in args.protocols:
        targets.append((spec, parse_protocol(spec)))
    if args.zoo is not None:
        from repro.fuzz import Zoo

        zoo = Zoo(args.zoo)
        specimens = (
            [zoo.find(args.digest)] if args.digest else zoo.specimens()
        )
        for specimen in specimens:
            targets.append((specimen.digest[:16], specimen.build()))
    if not targets:
        raise SystemExit(
            "nothing to analyze: name protocol specs (e.g. split-brain:4) "
            "and/or pass --zoo DIR"
        )

    certificates = []
    refuted = 0
    for label, protocol in targets:
        certificate = static_certificate(protocol)
        certificates.append((label, certificate))
        if certificate.refuted:
            refuted += 1

    if args.json:
        payload = [
            dict(certificate.to_json_dict(), target=label)
            for label, certificate in certificates
        ]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        rows = []
        for label, certificate in certificates:
            overall = certificate.overall
            writes = sorted(overall.writes)
            rows.append([
                label,
                certificate.representation,
                "⊤" if overall.states.is_top() else len(overall.states),
                "⊤" if overall.widened_writes else writes,
                ", ".join(certificate.kinds) if certificate.refuted
                else "clean",
            ])
        print_table(
            f"absint ({len(certificates)} certificates, {refuted} refuted)",
            ["target", "repr", "|states|", "writes", "verdicts"],
            rows,
        )
        for label, certificate in certificates:
            for verdict in certificate.verdicts:
                print(f"  {label}: [{verdict.kind}] {verdict.message}")
    return EXIT_VIOLATION if refuted else EXIT_OK


def cmd_cache(args) -> int:
    from repro.parallel import ValencyCache

    cache = ValencyCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache files from {cache.base}")
        return EXIT_OK
    stats = cache.stats()
    print_table(
        "valency cache",
        ["key", "value"],
        [[key, stats[key]] for key in sorted(stats)],
    )
    return EXIT_OK


def cmd_fuzz_run(args) -> int:
    from repro.fuzz import run_campaign
    from repro.fuzz.campaign import CampaignConfig

    config = CampaignConfig(
        seed=args.seed,
        count=args.count,
        mutants=args.mutants,
        max_configs=args.max_configs,
        max_depth=args.max_depth,
        budget_steps=args.budget,
        deadline=args.deadline,
        guarded=args.guarded,
        zoo_root=args.zoo,
        zoo_cap=args.zoo_cap,
        inject=args.inject,
    )
    result = run_campaign(config, journal_path=args.journal)
    stats = result.stats
    print(
        f"fuzz campaign seed={config.seed}: generated {stats['generated']} "
        f"(of which {stats['mutated']} mutants), filtered "
        f"{stats['filtered']}, explored {stats['explored']}, spent "
        f"{stats['spent']} states ({result.stopped})"
    )
    if args.journal:
        print(f"journal: {args.journal}")
    for finding in result.divergent:
        print(
            f"DIVERGENCE {finding['digest'][:16]} [{finding['engine']}] "
            f"{finding['divergence']}: {finding['detail']}"
        )
    if result.zoo_added:
        print(
            f"zoo: added {len(result.zoo_added)} minimized specimen(s) "
            f"under {config.zoo_root}"
        )
    if result.divergent:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_fuzz_zoo_list(args) -> int:
    from repro.fuzz import Zoo

    zoo = Zoo(args.zoo)
    specimens = zoo.specimens()
    rows = [
        [
            s.digest[:16],
            s.protocol_dict.get("name", "?"),
            s.protocol_dict.get("n", "?"),
            s.protocol_dict.get("registers", "?"),
            s.tag or "-",
        ]
        for s in specimens
    ]
    print_table(
        f"zoo at {zoo.root} ({len(specimens)} specimens)",
        ["digest", "name", "n", "registers", "tag"],
        rows,
    )
    return EXIT_OK


def cmd_fuzz_zoo_replay(args) -> int:
    from repro.fuzz import DEFAULT_ENGINES, Zoo, differential

    zoo = Zoo(args.zoo)
    if args.digest:
        specimens = [zoo.find(args.digest)]
    else:
        specimens = zoo.specimens()
    if not specimens:
        print(f"zoo at {zoo.root} is empty")
        return EXIT_OK
    divergent = 0
    for specimen in specimens:
        report = differential(
            specimen.build(),
            DEFAULT_ENGINES,
            max_configs=args.max_configs,
            max_depth=args.max_depth,
        )
        if report.ok:
            print(f"ok        {specimen.digest[:16]} {specimen.tag}")
        else:
            divergent += 1
            first = report.first()
            print(
                f"DIVERGENT {specimen.digest[:16]} [{first.engine}] "
                f"{first.kind}: {first.detail}"
            )
    print(
        f"replayed {len(specimens)} specimen(s) through "
        f"{len(DEFAULT_ENGINES)} engines: {divergent} divergent"
    )
    return EXIT_VIOLATION if divergent else EXIT_OK


def _add_obs_flags(p) -> None:
    p.add_argument(
        "--trace-out", default=None, metavar="JOURNAL",
        help="record a JSONL trace journal (render it with `repro stats` "
        "or `repro trace`)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the final metrics snapshot as JSON",
    )


@contextlib.contextmanager
def _observed(args):
    """Route a command through a recording observation when asked to.

    The journal and the metrics file are finalised in ``finally`` -- the
    metrics record lands as the journal's last line and the sink is
    closed *before* ``main`` maps the exception to an exit code, so runs
    ending 2 (violation) or 3 (budget) still leave complete journals.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is None and metrics_out is None:
        yield
        return
    from repro.obs import JsonlSink, MetricsRegistry, Tracer, observe

    tracer = Tracer(JsonlSink(trace_out)) if trace_out else Tracer()
    registry = MetricsRegistry()
    try:
        with observe(tracer=tracer, metrics=registry):
            yield
    finally:
        try:
            tracer.emit_metrics(registry)
        finally:
            tracer.close()
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(
                    registry.snapshot(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")


def _add_cache_flag(p) -> None:
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist valency results under DIR so reruns skip "
        "re-exploration",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable 'A Tight Space Bound for Consensus'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocols", help="list protocol families")
    p.set_defaults(func=cmd_protocols)

    p = sub.add_parser("adversary", help="run the Theorem 1 adversary")
    p.add_argument("protocol", help="e.g. rounds:4")
    p.add_argument("--max-configs", type=int, default=30_000)
    p.add_argument("--max-depth", type=int, default=60)
    p.add_argument(
        "--auto", action="store_true",
        help="retry a failed construction at doubled oracle budgets, up "
        "to 4 runs in all (not with --budget, --deadline or --resume)",
    )
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument(
        "--budget", type=int, default=None,
        help="deterministic step budget for the construction",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock deadline in seconds",
    )
    p.add_argument(
        "--resume", default=None, metavar="CHECKPOINT",
        help="checkpoint journal: resume from it if present; every "
        "computed oracle answer is appended to it as the run goes",
    )
    _add_cache_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("check", help="model-check agreement/validity")
    p.add_argument("protocol")
    p.add_argument("--max-configs", type=int, default=120_000)
    p.add_argument("--random-runs", type=int, default=20)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="audit several protocols at once")
    p.add_argument("protocols", nargs="+")
    p.add_argument("--max-configs", type=int, default=60_000)
    p.add_argument("--max-depth", type=int, default=60)
    p.add_argument(
        "--budget", type=int, default=None,
        help="per-protocol step budget for the adversary column",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-protocol wall-clock deadline in seconds",
    )
    _add_cache_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "faults", help="crash + register-fault campaigns",
    )
    p.add_argument(
        "protocols", nargs="*",
        help=f"protocol specs (default: {' '.join(_FAULTS_DEFAULT)})",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="small protocols and tight caps (CI smoke test)",
    )
    p.add_argument(
        "--crashes", type=int, default=None, metavar="F",
        help="max simultaneous crashes (default: n-1)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--rate", type=float, default=1.0,
        help="fault injection rate for the register campaign",
    )
    p.add_argument("--max-configs", type=int, default=20_000)
    p.add_argument("--crash-configs", type=int, default=600)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("perturb", help="JTT covering induction on an object")
    p.add_argument("object", help="e.g. counter:6 or snapshot:4")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("mutex", help="mutex canonical-execution costs")
    p.add_argument(
        "sizes", nargs="*", type=int, default=[4, 8, 16],
        help="process counts (default: 4 8 16)",
    )
    p.set_defaults(func=cmd_mutex)

    p = sub.add_parser("validate", help="re-validate a certificate JSON")
    p.add_argument("certificate", help="path to the JSON file")
    p.add_argument("protocol", help="the protocol spec it was issued for")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "lint", help="static protocol analysis + repository self-lint"
    )
    p.add_argument(
        "protocols", nargs="*",
        help="protocol specs to analyze statically (e.g. rounds:3)",
    )
    p.add_argument(
        "--self", dest="self_check", action="store_true",
        help="lint the repro codebase invariants (determinism of proof "
        "paths, picklable errors, pinned trace schema)",
    )
    p.add_argument(
        "--root", default=None, metavar="DIR",
        help="package tree for --self (default: the installed repro "
        "package; used by tests to lint seeded broken trees)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics as JSON instead of a table",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "absint",
        help="fixpoint abstract interpretation: static decide sets, "
        "write bounds, refutation verdicts",
    )
    p.add_argument(
        "protocols", nargs="*",
        help="protocol specs to analyze (e.g. split-brain:4)",
    )
    p.add_argument(
        "--zoo", default=None, metavar="DIR",
        help="also analyze every specimen in this regression zoo",
    )
    p.add_argument(
        "--digest", default=None, metavar="PREFIX",
        help="with --zoo: analyze only the specimen matching this "
        "digest prefix",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the full machine-checkable certificates as JSON",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_absint)

    p = sub.add_parser("cache", help="persistent valency cache admin")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "fuzz",
        help="protocol fuzzing: corpus campaigns, differential oracle, "
        "regression zoo",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    fp = fuzz_sub.add_parser(
        "run", help="run one deterministic fuzzing campaign"
    )
    fp.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (the only entropy source; same seed + same "
        "flags = byte-identical journal and zoo additions)",
    )
    fp.add_argument(
        "--count", type=int, default=20, metavar="N",
        help="number of generated specimens (each may add mutants)",
    )
    fp.add_argument(
        "--mutants", type=int, default=2, metavar="M",
        help="mutants derived from each surviving specimen",
    )
    fp.add_argument(
        "--budget", type=int, default=None, metavar="STEPS",
        help="stop after this many explored states (deterministic "
        "accounting: journals stay byte-stable under a budget stop)",
    )
    fp.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock stop for nightly campaigns (non-deterministic "
        "truncation: do not combine with byte-comparison of journals)",
    )
    fp.add_argument("--max-configs", type=int, default=4_000)
    fp.add_argument("--max-depth", type=int, default=40)
    fp.add_argument(
        "--guarded", action="store_true",
        help="also differential-test run_adversary_guarded outcomes and "
        "exit codes (slower)",
    )
    fp.add_argument(
        "--zoo", default=os.path.join("corpus", "zoo"), metavar="DIR",
        help="regression zoo directory (default: corpus/zoo)",
    )
    fp.add_argument(
        "--zoo-cap", type=int, default=5, metavar="K",
        help="persist at most K new minimized specimens per campaign",
    )
    fp.add_argument(
        "--journal", default=None, metavar="FILE",
        help="write the campaign journal (JSONL, byte-deterministic) "
        "to FILE",
    )
    fp.add_argument(
        "--inject", default=None,
        choices=[
            "drop-witness-step", "forget-value", "collide-packed-row",
            "absint-unsound",
        ],
        help="append a deliberately sabotaged engine to the matrix (the "
        "oracle must catch it; self-test of the harness)",
    )
    _add_obs_flags(fp)
    fp.set_defaults(func=cmd_fuzz_run)

    zp = fuzz_sub.add_parser("zoo", help="inspect or replay the zoo")
    zoo_sub = zp.add_subparsers(dest="zoo_command", required=True)

    zl = zoo_sub.add_parser("list", help="list zoo specimens")
    zl.add_argument(
        "--zoo", default=os.path.join("corpus", "zoo"), metavar="DIR",
        help="regression zoo directory (default: corpus/zoo)",
    )
    zl.set_defaults(func=cmd_fuzz_zoo_list)

    zr = zoo_sub.add_parser(
        "replay",
        help="replay zoo specimens through the full engine matrix",
    )
    zr.add_argument(
        "digest", nargs="?", default=None,
        help="digest prefix of one specimen (default: the whole zoo)",
    )
    zr.add_argument(
        "--zoo", default=os.path.join("corpus", "zoo"), metavar="DIR",
        help="regression zoo directory (default: corpus/zoo)",
    )
    zr.add_argument("--max-configs", type=int, default=20_000)
    zr.add_argument("--max-depth", type=int, default=None)
    _add_obs_flags(zr)
    zr.set_defaults(func=cmd_fuzz_zoo_replay)

    p = sub.add_parser(
        "chaos",
        help="differential chaos harness (runtime fault injection)",
    )
    p.add_argument("protocol", help="e.g. rounds:3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scenarios", nargs="+", default=list(CHAOS_SCENARIOS),
        choices=list(CHAOS_SCENARIOS),
        help="scenarios to run (default: all)",
    )
    p.add_argument("--max-configs", type=int, default=30_000)
    p.add_argument("--max-depth", type=int, default=60)
    p.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep scenario caches/journals under DIR (default: a "
        "temporary directory)",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "stats", help="render a trace journal's metrics as tables"
    )
    p.add_argument("journal", help="JSONL journal written by --trace-out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace", help="filter and pretty-print a trace journal"
    )
    p.add_argument("journal", help="JSONL journal written by --trace-out")
    p.add_argument(
        "--type", default=None,
        choices=["span_start", "span_end", "event", "metrics"],
        help="show only records of this type",
    )
    p.add_argument(
        "--name", default=None,
        help="show only records with this exact name",
    )
    p.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after N matching records",
    )
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _observed(args):
            return args.func(args)
    except ViolationError as exc:
        # A command let a violation escape instead of formatting it --
        # still honour the exit-code contract, never a raw traceback.
        print(f"violation: {exc}")
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print(f"witness schedule ({len(witness)} steps): {list(witness)}")
        return EXIT_VIOLATION
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}")
        return EXIT_BUDGET
    except ExplorationLimitError as exc:
        print(describe_limit(exc.visited))
        return EXIT_BUDGET
    except ReproError as exc:
        print(f"error: {exc}")
        return EXIT_ERROR
    except BrokenPipeError:
        # Downstream consumer (``| head``) closed the pipe mid-print;
        # not an error.  Point stdout at devnull so the interpreter's
        # shutdown flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

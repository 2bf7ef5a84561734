"""One benchmark child: a fresh interpreter that runs one pass.

Usage (from ``run.py`` only)::

    python child.py '{"specs": [...], "trace": false, "tmp": DIR}'

The child imports ``repro.cli`` from the checkout's ``src/``, builds its
parser, and records ``time.monotonic()`` at that point (the parent turns
it into ``setup_s``).  An empty ``specs`` list stops there.  Otherwise
every spec runs in-process as ``repro adversary SPEC --out FILE`` with
CLI defaults; with ``trace`` the layer spans of :mod:`spans` are
installed and each run also writes ``--metrics-out``.  The last line of
stdout is one JSON object: ``ready``, ``wall``, ``runs`` (spec, exit
code, sha256, seconds) and, when traced, ``spans``, ``traced_wall`` and
the summed ``metrics``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _merge_metrics(total: dict, snapshot: dict) -> None:
    for name, value in snapshot.get("counters", {}).items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    for name, value in snapshot.get("gauges", {}).items():
        total["gauges"][name] = max(total["gauges"].get(name, value), value)
    for name, hist in snapshot.get("histograms", {}).items():
        into = total["histograms"].setdefault(name, {"count": 0, "sum": 0})
        into["count"] += hist["count"]
        into["sum"] += hist["sum"]


def main() -> int:
    job = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"repro imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.build_parser()
    ready = time.monotonic()
    specs = job["specs"]
    if not specs:
        print(json.dumps({"ready": ready}))
        return 0

    import timing

    tmp = Path(job["tmp"])
    trace = job["trace"]
    table = None
    if trace:
        import spans

        table = spans.SpanTable()
        spans.install(table)
    outputs = []

    def one(item):
        index, spec = item
        argv = ["adversary", spec, "--out", str(tmp / f"cert-{index}.json")]
        if trace:
            argv += ["--metrics-out", str(tmp / f"metrics-{index}.json")]
        stdout = io.StringIO()
        outputs.append(stdout)
        try:
            with contextlib.redirect_stdout(stdout):
                if table is None:
                    return cli.main(argv)
                return table.run(cli.main, argv)
        except SystemExit as exc:  # as the interpreter maps it to a status
            if exc.code is None:
                return 0
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashed run counts as failed, not fatal
            return f"raised {type(exc).__name__}: {exc}"

    codes, seconds, wall = timing.run_pass(one, list(enumerate(specs)))

    runs = []
    metrics = {"counters": {}, "gauges": {}, "histograms": {}}
    for index, spec in enumerate(specs):
        cert = tmp / f"cert-{index}.json"
        if cert.exists():
            digest = hashlib.sha256(cert.read_bytes()).hexdigest()
            cert.unlink()
        else:
            # Violations write no certificate; their witness is printed.
            digest = hashlib.sha256(outputs[index].getvalue().encode()).hexdigest()
        runs.append([spec, codes[index], digest, seconds[index]])
        snapshot = tmp / f"metrics-{index}.json"
        if snapshot.exists():
            _merge_metrics(metrics, json.loads(snapshot.read_text()))
            snapshot.unlink()

    result = {"ready": ready, "wall": wall, "runs": runs}
    if table is not None:
        result["spans"] = {
            "count": table.count,
            "self_s": table.self_s,
            "incl_s": table.incl_s,
        }
        result["traced_wall"] = sum(seconds)
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

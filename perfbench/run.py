"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload static-link --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/README.md`` explains each.  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the run is split into an untraced and a traced half and
the result carries the per-layer metrics, while the Chrome trace and
the self-time table land in ``perfbench/out/``.

The last line of standard output is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Without the checkout's ``src/repro`` the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import core  # noqa: E402

WORKLOADS = {
    "static-link": "perfbench.static_link",
    "dynamic-run": "perfbench.dynamic_run",
    "serve-mix": "perfbench.serve_mix",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still drains the fleet it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = core.load_spec()
    try:
        import_s = core.import_repro()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = core.RunContext(
        args.workload, args.seed, args.seconds, bool(args.trace),
        import_s=import_s, log=lambda text: print(text, flush=True),
    )
    result = module.run(ctx)
    line = result_line(ctx, module, result, spec)
    print(f"{ctx.tag}: attempted={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']}")
    for key in ("latency", "shares", "stamp", "inputs", "passes", "first_failures",
                "drifts"):
        if key in result.report:
            print(f"  {key}: {json.dumps(result.report[key], sort_keys=True)}")
    shown = module.LAYER_METRICS if ctx.trace else line["metrics"]
    print(core.format_metrics({n: result.metrics[n] for n in shown},
                              {n: line["metrics"][n]["unit"] for n in shown}))
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


def result_line(ctx: core.RunContext, module, result: core.WorkloadResult,
                spec: dict) -> dict:
    """The result object: every metric the run mode owes, by name."""
    if ctx.trace:
        missing = set(module.LAYER_METRICS) - set(result.metrics)
        if missing:
            raise RuntimeError(f"{ctx.workload} did not report {sorted(missing)}")
        # Layers this workload does not exercise did no work here.
        for name in core.metric_units(spec)[1]:
            result.metrics.setdefault(name, 0.0)
    return core.finish(ctx, result, spec)


if __name__ == "__main__":
    sys.exit(main())

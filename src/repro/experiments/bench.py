"""The pinned perf-benchmark suite: ``python -m repro.experiments bench``.

One command runs a fixed, seeded workload across the three performance
surfaces of the toolchain and writes a schema-versioned report:

* **build** — compile/link/run a pinned program set under ``ld`` and
  ``om-full``: simulated cycles/instructions and OM's address-load and
  GAT-size deltas (all deterministic — the simulator's timing model is
  pure), plus wall-clock link seconds;
* **serve** — the load generator's cold/warm phases against an
  embedded daemon: throughput, latency percentiles, and the serving
  counters (``completed`` is deterministic; the coalesced/cached split
  is timing-dependent and reported but not gated);
* **serve.fleet** — a 2-daemon consistent-hash fleet: a short
  multi-tenant soak (latency percentiles, zero-failure and
  counter-identity checks at zero tolerance) and the warm
  router-vs-single-daemon throughput ratio;
* **wpo** — the incremental-relink loop: warm-relink shard misses
  (deterministically zero), misses after a one-module edit, and
  relink-vs-full-link wall seconds;
* **decaf** — the OO benchsuite programs (second frontend) under
  ``ld``, ``om-full``, and ``om-full-wpo``: simulated cycles and
  instructions per variant plus OM's address-load delta, with
  cross-variant and interp-vs-JIT output identity enforced (any
  divergence is a correctness failure, not a perf blip);
* **machine** — interpreter-vs-JIT wall-clock on the plain-run
  (functional) path for every benchsuite program: min-of-N seconds per
  backend, per-program speedup, and the geomean (executed-instruction
  counts ride along at zero tolerance, so a JIT divergence trips the
  gate as a correctness failure, not a perf blip).

The report is a *flat* ``{"metric.name": value}`` map under a schema
tag, which is what ``regress`` diffs against the committed baselines
in ``benchmarks/baselines/`` — deterministic metrics at zero
tolerance, wall-clock metrics at generous direction-aware tolerances.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

#: Bump when metric names or semantics change; ``regress`` refuses to
#: compare reports and baselines of different schemas.
BENCH_SCHEMA = "repro-bench/1"

#: Pinned build-matrix programs (small enough for CI, varied enough to
#: exercise escaped-pointer and switch-table paths).
BUILD_PROGRAMS = ("eqntott", "compress")
BUILD_VARIANTS = ("ld", "om-full")
BUILD_SCALE = 1

#: The Decaf (OO frontend) programs additionally run under the
#: whole-program-partitioned linker, since vtable-rooted GC and
#: cross-partition dispatch are exactly what that path must preserve.
DECAF_VARIANTS = ("ld", "om-full", "om-full-wpo")

#: Pinned serve workload (mirrors the serve-bench smoke defaults).
SERVE_REQUESTS = 12
SERVE_CONCURRENCY = 4
SERVE_WORKERS = 2

#: Pinned fleet shape for the serve.fleet component: a short soak and
#: a warm router-vs-single-daemon throughput probe.
FLEET_SIZE = 2
FLEET_SOAK_SECONDS = 6.0
FLEET_TENANTS = 3

#: Pinned WPO incremental-relink shape.
WPO_MODULES = 12
WPO_PARTITIONS = 4
WPO_SEED = 0

#: Wall-clock repetitions per (program, backend) in the machine
#: component; the minimum is recorded (robust against CI noise).
MACHINE_REPS = 3


def bench_build() -> dict:
    """Simulated-cost and link-time metrics for the pinned matrix."""
    from repro.experiments import build

    build.configure_cache(None)
    build.clear_caches()
    metrics: dict[str, float] = {}
    for program in BUILD_PROGRAMS:
        for variant in BUILD_VARIANTS:
            started = time.perf_counter()
            build.link_variant(program, "each", variant, BUILD_SCALE)
            metrics[f"build.{program}.{variant}.link_seconds"] = (
                time.perf_counter() - started
            )
            run = build.run_variant(program, "each", variant, BUILD_SCALE)
            metrics[f"build.{program}.{variant}.cycles"] = run.cycles
            metrics[f"build.{program}.{variant}.instructions"] = (
                run.instructions
            )
        om = build.variant_stats(program, "each", "om-full", BUILD_SCALE)
        metrics[f"build.{program}.addr_loads_before"] = (
            om.stats.before.addr_loads
        )
        metrics[f"build.{program}.addr_loads_after"] = (
            om.stats.after.addr_loads
        )
        metrics[f"build.{program}.gat_bytes_before"] = (
            om.stats.gat_bytes_before
        )
        metrics[f"build.{program}.gat_bytes_after"] = om.stats.gat_bytes_after
    return metrics


def bench_serve() -> dict:
    """Cold/warm load-generator phases against an embedded daemon."""
    from repro.cache import ArtifactCache
    from repro.serve.client import ServeClient
    from repro.serve.loadgen import DEFAULT_PROGRAMS, build_workload, run_phase
    from repro.serve.server import ServeConfig, ServerThread

    programs = DEFAULT_PROGRAMS.split(",")
    workload = build_workload(
        programs, SERVE_REQUESTS,
        seed=0, scale=1, concurrency=SERVE_CONCURRENCY,
    )
    metrics: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        with ServerThread(
            ArtifactCache(tmp),
            ServeConfig(workers=SERVE_WORKERS, queue_limit=32),
        ) as st:
            phases = {}
            for name in ("cold", "warm"):
                phases[name] = run_phase(
                    st.address, workload, SERVE_CONCURRENCY,
                    timeout=300.0, retries=8,
                )
            probe = ServeClient(st.address, timeout=300.0)
            counters = probe.status()["counters"]
            probe.close()
    for name, phase in phases.items():
        metrics[f"serve.{name}.throughput_rps"] = phase["throughput_rps"]
        metrics[f"serve.{name}.p50_ms"] = phase["latency_ms"]["p50"]
        metrics[f"serve.{name}.p95_ms"] = phase["latency_ms"]["p95"]
        metrics[f"serve.{name}.failed"] = phase["failed"]
    metrics["serve.completed"] = counters["completed"]
    metrics["serve.identity_residual"] = counters["completed"] - (
        counters["coalesced"] + counters["cache_hits"] + counters["computed"]
    )
    metrics["serve.warm_speedup"] = (
        phases["warm"]["throughput_rps"]
        / max(phases["cold"]["throughput_rps"], 1e-9)
    )
    return metrics


def bench_serve_fleet() -> dict:
    """Short multi-tenant soak plus warm throughput for a 2-daemon
    fleet behind the consistent-hash router."""
    from repro.serve.client import ServeClient
    from repro.serve.fleet import FleetConfig, FleetThread
    from repro.serve.loadgen import (
        DEFAULT_PROGRAMS,
        measure_warm_speedup,
        run_soak,
    )

    programs = DEFAULT_PROGRAMS.split(",")
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        config = FleetConfig(
            size=FLEET_SIZE, workers=SERVE_WORKERS, queue_limit=32,
            cache_dir=str(Path(tmp) / "cache"),
        )
        with FleetThread(config) as fleet:
            soak = run_soak(
                fleet.address, programs,
                duration=FLEET_SOAK_SECONDS, tenants=FLEET_TENANTS,
                concurrency=SERVE_CONCURRENCY, scale=1, seed=0,
                timeout=300.0, retries=8,
            )
            probe = ServeClient(fleet.address, timeout=300.0)
            final = probe.status()
            probe.close()
            healthy = final["router"]["ring"]["healthy"]
            single = tuple(final["daemons"][healthy[0]]["address"])
            speedup = measure_warm_speedup(
                fleet.address, single, programs,
                scale=1, seed=0, concurrency=SERVE_CONCURRENCY,
                timeout=300.0, retries=8,
            )
    counters = final["counters"]
    return {
        # Deterministic: the fleet never fails or drops a request...
        "serve.fleet.failed": soak["failed"] + counters["failed"],
        "serve.fleet.identity_residual": counters["completed"] - (
            counters["coalesced"] + counters["cache_hits"]
            + counters["computed"]
        ),
        # ...while latency/throughput are wall-clock, gated loosely.
        "serve.fleet.soak_p99_ms": soak["latency_ms"]["p99"],
        "serve.fleet.warm_p99_ms": soak["warm_latency_ms"]["p99"],
        "serve.fleet.warm_rps": speedup["fleet_warm_rps"],
        "serve.fleet.warm_speedup": speedup["speedup"],
    }


def bench_wpo() -> dict:
    """Incremental-relink metrics on the pinned chain program."""
    from repro.benchsuite import build_stdlib
    from repro.cache import ArtifactCache
    from repro.fuzz.generate import generate_scale_program
    from repro.linker import make_crt0
    from repro.frontend import compile_sources
    from repro.objfile.archive import Archive
    from repro.objfile.serialize import dump_archive, load_archive
    from repro.om import OMLevel, OMOptions, om_link

    crt0 = make_crt0()
    lib = build_stdlib()

    def compiled(program) -> bytes:
        return dump_archive(
            [crt0] + compile_sources(list(program.modules), "each")
        )

    def timed_link(blob: bytes, options: OMOptions, cache):
        objects = load_archive(blob)
        libmc = Archive(lib.name, load_archive(dump_archive(lib.members)))
        started = time.perf_counter()
        result = om_link(
            objects, [libmc], level=OMLevel.FULL, options=options, cache=cache
        )
        return result, time.perf_counter() - started

    wpo_options = OMOptions(partitions=WPO_PARTITIONS)
    program = generate_scale_program(WPO_SEED, WPO_MODULES)
    blob = compiled(program)
    metrics: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-wpo-") as tmp:
        cache = ArtifactCache(tmp)
        full, full_s = timed_link(blob, OMOptions(), None)
        cold, cold_s = timed_link(blob, wpo_options, cache)
        warm, warm_s = timed_link(blob, wpo_options, cache)
        edited = generate_scale_program(WPO_SEED, WPO_MODULES, salts={1: 1})
        inc, inc_s = timed_link(compiled(edited), wpo_options, cache)
    metrics["wpo.full_link_seconds"] = full_s
    metrics["wpo.cold_link_seconds"] = cold_s
    metrics["wpo.warm_link_seconds"] = warm_s
    metrics["wpo.edit_relink_seconds"] = inc_s
    metrics["wpo.cold_misses"] = cold.wpo.misses
    metrics["wpo.warm_misses"] = warm.wpo.misses
    metrics["wpo.edit_misses"] = inc.wpo.misses
    metrics["wpo.shards"] = cold.wpo.shards
    return metrics


def bench_decaf() -> dict:
    """Decaf-frontend matrix: cost and OM metrics for the OO programs.

    Every program runs under all three linkers and both machine
    backends; outputs must be bit-identical across the whole cell
    block, so a vtable miscompile trips the gate directly.
    """
    from repro.benchsuite.suite import DECAF_PROGRAMS
    from repro.experiments import build
    from repro.machine import machine_for
    from repro.machine.jit import clear_jit_cache

    build.configure_cache(None)
    build.clear_caches()
    metrics: dict[str, float] = {}
    for program in DECAF_PROGRAMS:
        outputs = set()
        for variant in DECAF_VARIANTS:
            exe = build.link_variant(program, "each", variant, BUILD_SCALE)
            run = build.run_variant(program, "each", variant, BUILD_SCALE)
            metrics[f"decaf.{program}.{variant}.cycles"] = run.cycles
            metrics[f"decaf.{program}.{variant}.instructions"] = (
                run.instructions
            )
            outputs.add(run.output)
            # A first run on a cold cache interprets the cold code; the
            # second runs it in translated regions.
            clear_jit_cache()
            for which in ("first", "second"):
                jit = machine_for(exe, backend="jit").run(timed=False)
                if jit.output != run.output:
                    raise AssertionError(
                        f"{program}/{variant}: {which} jit run's output "
                        "diverges from interp"
                    )
        if len(outputs) != 1:
            raise AssertionError(
                f"{program}: outputs diverge across {DECAF_VARIANTS}"
            )
        om = build.variant_stats(program, "each", "om-full", BUILD_SCALE)
        metrics[f"decaf.{program}.addr_loads_before"] = (
            om.stats.before.addr_loads
        )
        metrics[f"decaf.{program}.addr_loads_after"] = (
            om.stats.after.addr_loads
        )
    return metrics


def bench_machine() -> dict:
    """Interpreter-vs-JIT plain-run wall-clock across the benchsuite.

    Each program is linked with the standard linker and executed on
    both machine backends; the JIT is warmed (translated) before
    timing, so the metric isolates steady-state execution — the
    regime the fuzz campaign, PGO loop, and serve daemon live in.
    """
    import math

    from repro.benchsuite.suite import PROGRAMS
    from repro.experiments import build
    from repro.machine import machine_for
    from repro.machine.jit import clear_jit_cache

    metrics: dict[str, float] = {}
    speedups: list[float] = []
    for program in PROGRAMS:
        exe = build.link_variant(program, "each", "ld", BUILD_SCALE)
        clear_jit_cache()
        # A cold program's first run translates only its hot code; the
        # second translates the rest, so no timed run translates.
        for __ in range(2):
            reference = machine_for(exe, backend="jit").run(timed=False)
        best = {"interp": float("inf"), "jit": float("inf")}
        for _ in range(MACHINE_REPS):
            for backend in ("interp", "jit"):
                machine = machine_for(exe, backend=backend)
                started = time.perf_counter()
                result = machine.run(timed=False)
                best[backend] = min(
                    best[backend], time.perf_counter() - started
                )
                if result.instructions != reference.instructions:
                    raise AssertionError(
                        f"{program}: {backend} executed "
                        f"{result.instructions} != jit warmup "
                        f"{reference.instructions}"
                    )
        speedup = best["interp"] / best["jit"]
        metrics[f"machine.{program}.instructions"] = reference.instructions
        metrics[f"machine.{program}.interp_seconds"] = best["interp"]
        metrics[f"machine.{program}.jit_seconds"] = best["jit"]
        metrics[f"machine.{program}.jit_speedup"] = speedup
        speedups.append(speedup)
    metrics["machine.jit_speedup_geomean"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups)
    )
    return metrics


_COMPONENTS = {
    "build": bench_build,
    "serve": bench_serve,
    "serve.fleet": bench_serve_fleet,
    "wpo": bench_wpo,
    "decaf": bench_decaf,
    "machine": bench_machine,
}


def run_suite(components=None, *, log=print) -> dict:
    """Run the pinned suite and return the schema-versioned report."""
    names = list(components or _COMPONENTS)
    metrics: dict[str, float] = {}
    timings: dict[str, float] = {}
    for name in names:
        started = time.perf_counter()
        log(f"bench: running {name}...")
        metrics.update(_COMPONENTS[name]())
        timings[name] = time.perf_counter() - started
        log(f"bench: {name} done in {timings[name]:.1f}s")
    return {
        "schema": BENCH_SCHEMA,
        "components": names,
        "component_seconds": timings,
        "config": {
            "build_programs": list(BUILD_PROGRAMS),
            "build_scale": BUILD_SCALE,
            "decaf_variants": list(DECAF_VARIANTS),
            "serve_requests": SERVE_REQUESTS,
            "serve_concurrency": SERVE_CONCURRENCY,
            "fleet_size": FLEET_SIZE,
            "fleet_soak_seconds": FLEET_SOAK_SECONDS,
            "wpo_modules": WPO_MODULES,
            "wpo_partitions": WPO_PARTITIONS,
            "machine_reps": MACHINE_REPS,
        },
        "metrics": metrics,
    }


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments bench",
        description="run the pinned perf suite, write a BENCH report",
    )
    parser.add_argument("--out", default="BENCH_pinned.json",
                        help="report path")
    parser.add_argument("--components", default=None,
                        help="comma-separated subset of "
                             f"{','.join(_COMPONENTS)} (default: all)")
    args = parser.parse_args(argv)

    components = None
    if args.components:
        components = [c for c in args.components.split(",") if c]
        unknown = [c for c in components if c not in _COMPONENTS]
        if unknown:
            parser.error(f"unknown components: {unknown}")
    report = run_suite(components)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench: {len(report['metrics'])} metrics -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(bench_main())

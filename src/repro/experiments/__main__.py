"""Command-line entry point: ``python -m repro.experiments <figure>``.

Figures: fig3 fig4 fig5 fig6 fig7 gat overhead all.  ``--scale N``
shrinks the workloads (useful for smoke runs); ``--programs a,b,c``
restricts the program set.

``--jobs N`` fans the build/link/run matrix across N worker processes
before the tables are printed; artifacts flow between workers (and
between invocations) through the content-addressed disk cache at
``--cache-dir`` (default: ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
``--no-cache`` disables the disk cache, which also forces inline
execution.  Each run prints the pipeline's per-stage metrics table —
on a warm cache every stage shows hits and zero misses.

``--trace out.json`` writes a Chrome-trace timeline of the pipeline
(one span per build/link/run/profile cell, on its worker's pid lane);
load it at https://ui.perfetto.dev or ``chrome://tracing``.

Two observability subcommands exist alongside the figures:

* ``explain <prog>`` — relink one program with a provenance trace
  attached and print every transformation decision OM made (pass, pc,
  before -> after, reason), reconciled against the pass counters;
* ``profile <prog>`` — per-procedure cycle/instruction attribution
  and executed address-calculation overhead for one build.

``layout <prog>`` compares one program's om-full build against the
profile-fed ``om-full-layout`` build (the closed PGO loop): identical
output, jsr->bsr conversions, executed GAT loads, cycles, and the
layout subsystem's telemetry.  Exits non-zero if any layout invariant
fails.

``fuzz`` runs the provenance-guided differential fuzzer
(:mod:`repro.fuzz`): seeded random MiniC programs through the full
(mode × link-variant) matrix, divergences minimized and persisted to
``--corpus-dir``.  Exits non-zero on any divergence or replay
mismatch.

``wpo`` runs the incremental-relink experiment: a deterministic
scale-N chain program (:func:`repro.fuzz.generate.
generate_scale_program`) is linked monolithically and with the
partitioned optimizer (:mod:`repro.wpo`), then relinked after
one-module edits.  It asserts byte-identity against the monolithic
link at every step, that a warm relink misses nothing, and that each
edit's shard-cache misses land only in the shards holding the edited
modules; ``--figure-out`` writes the relink-time-vs-touched-modules
figure.  Exits non-zero if any invariant fails.

``bench`` runs the pinned perf suite (:mod:`.bench`) — build matrix,
serve cold/warm, WPO incremental relink — and writes a
schema-versioned ``BENCH_pinned.json``; ``regress`` (:mod:`.regress`)
compares such a report against the committed baselines in
``benchmarks/baselines/`` with direction-aware per-metric tolerances
and exits non-zero on any out-of-tolerance regression.  The pair is
CI's perf gate; ``regress --update-baselines`` is the refresh
procedure after an intentional perf change.

``serve-bench`` benchmarks the serving path
(:mod:`repro.serve.loadgen`): a seeded mixed workload replayed against
the toolchain daemon at a configurable concurrency, cold cache then
warm, reporting throughput and p50/p95/p99 latency and reconciling the
client's observations against the server's ``status`` counters.
``--fleet N`` embeds N daemons behind the consistent-hash router
instead of one; ``--soak --duration S --tenants T`` switches to the
gated multi-tenant endurance run (warm-p99 ceiling, error budget,
fleet-wide counter reconciliation).
Exits non-zero on any failed request, reconciliation mismatch, or
tripped gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from repro.benchsuite.suite import DECAF_PROGRAMS, PROGRAMS
from repro.cache import ArtifactCache
from repro.experiments import figures, pipeline
from repro.experiments.build import configure_cache
from repro.experiments.report import print_figure

_FIGURES = {
    "fig3": (figures.fig3_rows, True),
    "fig4": (figures.fig4_rows, True),
    "fig5": (figures.fig5_rows, True),
    "fig6": (figures.fig6_rows, False),
    "fig7": (figures.fig7_rows, False),
    "gat": (figures.gat_rows, False),
    "overhead": (figures.overhead_rows, False),
    "pgo": (figures.pgo_rows, False),
}

_EXPLAIN_VARIANTS = (
    "om-none",
    "om-simple",
    "om-full",
    "om-full-sched",
    "om-full-layout",
)


def _explain(argv) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments explain")
    parser.add_argument("program")
    parser.add_argument("--proc", type=str, default=None,
                        help="restrict output to one procedure")
    parser.add_argument("--mode", choices=("each", "all"), default="each")
    parser.add_argument("--variant", choices=_EXPLAIN_VARIANTS,
                        default="om-full")
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--trace", type=str, default=None,
                        help="also save the full trace (Chrome-trace JSON)")
    args = parser.parse_args(argv)

    from repro.experiments import build
    from repro.obs import provenance
    from repro.obs.trace import TraceLog
    from repro.om import OMOptions, om_link

    configure_cache(None)
    objects, lib = build.copies_for(args.program, args.mode, args.scale)
    level, options = build._LEVELS[args.variant]
    profile_in = None
    base = build.FEEDBACK_VARIANTS.get(args.variant)
    if base:
        profile_in = build.profile_variant(args.program, args.mode, base, args.scale)
    trace = TraceLog()
    result = om_link(
        objects,
        [lib],
        level=level,
        options=dataclasses.replace(options, verify=True),
        trace=trace,
        profile=profile_in,
    )

    lines = provenance.explain_lines(trace, proc=args.proc)
    for line in lines:
        print(line)

    events = provenance.events(trace, proc=args.proc)
    by_proc: dict[str, int] = {}
    for event in events:
        by_proc[event["proc"]] = by_proc.get(event["proc"], 0) + 1
    print()
    print(f"{len(events)} provenance events in {len(by_proc)} procedures")
    for proc, count in sorted(by_proc.items(), key=lambda kv: -kv[1])[:10]:
        print(f"  {proc}: {count}")

    mismatches = provenance.reconcile(trace, result.counters)
    if args.proc is None:
        if mismatches:
            print("\ncounter reconciliation FAILED:")
            for field, (seen, expected) in sorted(mismatches.items()):
                print(f"  {field}: {seen} events vs counter {expected}")
        else:
            print("\nprovenance events reconcile exactly with pass counters")

    report = result.verify
    if report is not None:
        print(
            f"verify: instructions={report.instructions} "
            f"branches={report.branches} calls={report.calls} "
            f"gat_entries={report.gat_entries} problems={len(report.problems)}"
        )

    if args.trace:
        trace.save_chrome_trace(args.trace)
        print(f"trace written to {args.trace}")
    return 1 if (mismatches and args.proc is None) else 0


def _profile(argv) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments profile")
    parser.add_argument("program")
    parser.add_argument("--mode", choices=("each", "all"), default="each")
    parser.add_argument(
        "--variant",
        choices=("ld",) + _EXPLAIN_VARIANTS,
        default="om-full",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)

    from repro.experiments import build

    configure_cache(None)
    keys, rows = figures.profile_rows(
        args.program, args.mode, args.variant, args.scale, top=args.top
    )
    result = build.profile_variant(args.program, args.mode, args.variant, args.scale)
    print_figure(
        f"profile {args.program}/{args.mode}/{args.variant}",
        keys,
        rows,
        percent=False,
    )
    counts = result.overhead
    total = result.run.instructions
    frac = counts.instructions / total if total else 0.0
    print(
        f"run: {total} instructions, {result.run.cycles} cycles  |  "
        f"overhead: {counts.gat_loads} GAT loads "
        f"({counts.pv_loads} PV), {counts.gp_setup_pairs} GP-setup pairs "
        f"= {100 * frac:.2f}% of executed instructions"
    )
    return 0


def _layout(argv) -> int:
    """Compare one program's om-full link against the PGO closed loop."""
    parser = argparse.ArgumentParser(prog="repro.experiments layout")
    parser.add_argument("program")
    parser.add_argument("--mode", choices=("each", "all"), default="each")
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args(argv)

    from repro.experiments import build

    configure_cache(_resolve_cache(args.cache_dir, args.no_cache))
    base = build.variant_stats(args.program, args.mode, "om-full", args.scale)
    layout = build.variant_stats(
        args.program, args.mode, "om-full-layout", args.scale
    )
    base_prof = build.profile_variant(
        args.program, args.mode, "om-full", args.scale
    )
    layout_prof = build.profile_variant(
        args.program, args.mode, "om-full-layout", args.scale
    )

    identical = layout_prof.run.output == base_prof.run.output
    print(f"layout {args.program}/{args.mode}: "
          f"outputs identical: {'OK' if identical else 'FAIL'}")
    print(
        f"jsr->bsr: om-full={base.counters.jsr_to_bsr} "
        f"om-full-layout={layout.counters.jsr_to_bsr}"
    )
    print(
        f"executed GAT loads: om-full={base_prof.overhead.gat_loads} "
        f"om-full-layout={layout_prof.overhead.gat_loads}"
    )
    saved = base_prof.run.cycles - layout_prof.run.cycles
    print(
        f"cycles: om-full={base_prof.run.cycles} "
        f"om-full-layout={layout_prof.run.cycles} "
        f"({100.0 * saved / max(base_prof.run.cycles, 1):+.3f}%)"
    )
    print(
        f"layout: procs_moved={layout.stats.procs_moved} "
        f"relax_iterations={layout.stats.relax_iterations} "
        f"relax_demoted={layout.stats.relax_demoted}"
    )
    ok = (
        identical
        and layout.counters.jsr_to_bsr >= base.counters.jsr_to_bsr
        and layout_prof.overhead.gat_loads <= base_prof.overhead.gat_loads
    )
    if not ok:
        print("layout invariants: FAIL")
    return 0 if ok else 1


def _resolve_cache(cache_dir: str | None, no_cache: bool) -> ArtifactCache | None:
    if no_cache:
        return None
    return ArtifactCache(
        Path(cache_dir or os.environ.get("REPRO_CACHE_DIR") or ".repro-cache")
    )


def _wpo(argv) -> int:
    """Incremental-relink experiment on a scale-N chain program."""
    parser = argparse.ArgumentParser(prog="repro.experiments wpo")
    parser.add_argument("--modules", type=int, default=24,
                        help="translation units in the generated program")
    parser.add_argument("--partitions", type=int, default=6,
                        help="WPO shard count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--edits", type=int, default=3,
                        help="sweep touched-module counts 1..K")
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument("--figure-out", type=str, default=None,
                        help="write the relink-time figure JSON here")
    args = parser.parse_args(argv)

    import json
    import time

    from repro.benchsuite import build_stdlib
    from repro.fuzz.generate import generate_scale_program
    from repro.linker import make_crt0
    from repro.linker.executable import dump_executable
    from repro.linker.resolve import resolve_inputs
    from repro.frontend import compile_sources
    from repro.objfile.archive import Archive
    from repro.objfile.serialize import dump_archive, load_archive
    from repro.om import OMLevel, OMOptions, om_link

    cache = _resolve_cache(args.cache_dir, False)
    crt0 = make_crt0()
    lib = build_stdlib()

    def compiled(program) -> bytes:
        return dump_archive(
            [crt0] + compile_sources(list(program.modules), "each")
        )

    def timed_link(blob: bytes, options: OMOptions, use_cache: bool):
        # Private copies per link, as in the pipeline: linkers mutate.
        objects = load_archive(blob)
        libmc = Archive(lib.name, load_archive(dump_archive(lib.members)))
        start = time.monotonic()
        result = om_link(
            objects,
            [libmc],
            level=OMLevel.FULL,
            options=options,
            cache=cache if use_cache else None,
        )
        return result, time.monotonic() - start

    wpo_options = OMOptions(partitions=args.partitions)
    program = generate_scale_program(args.seed, args.modules)
    blob = compiled(program)

    mono, mono_s = timed_link(blob, OMOptions(), False)
    mono_bytes = dump_executable(mono.executable)

    cold, cold_s = timed_link(blob, wpo_options, True)
    identical = dump_executable(cold.executable) == mono_bytes
    ok = identical
    stats = cold.wpo
    print(
        f"wpo: modules={args.modules} partitions={args.partitions} "
        f"shards={stats.shards} rounds={stats.rounds}"
    )
    print(
        f"wpo: cold misses={stats.misses} hits={stats.hits} "
        f"built={len(stats.built)} "
        f"identical={'OK' if identical else 'FAIL'} "
        f"link={cold_s:.3f}s full={mono_s:.3f}s"
    )

    # A warm relink builds no module body: every shard is a cache read.
    warm, warm_s = timed_link(blob, wpo_options, True)
    identical = dump_executable(warm.executable) == mono_bytes
    ok = ok and identical and warm.wpo.misses == 0 and not warm.wpo.built
    print(
        f"wpo: warm misses={warm.wpo.misses} hits={warm.wpo.hits} "
        f"built={len(warm.wpo.built)} "
        f"identical={'OK' if identical else 'FAIL'} link={warm_s:.3f}s"
    )

    points = []
    for touched in range(1, max(1, args.edits) + 1):
        # Edited modules spread across 1..N-1 (module 0 holds main),
        # salted so instruction counts — and shard boundaries — hold.
        span = args.modules - 1
        edited = sorted({1 + (i * span) // touched for i in range(touched)})
        version = generate_scale_program(
            args.seed, args.modules, salts={m: touched for m in edited}
        )
        vblob = compiled(version)
        full, full_s = timed_link(vblob, OMOptions(), False)
        inc, inc_s = timed_link(vblob, wpo_options, True)
        identical = dump_executable(inc.executable) == dump_executable(
            full.executable
        )
        expected = sorted(
            index
            for index, members in enumerate(inc.wpo.members)
            if any(f"s{m}.o" in members for m in edited)
        )
        contained = set(inc.wpo.missed_shards) <= set(expected)
        # Only the missed shards' members have their bodies built.
        missed_members = {
            name
            for index in inc.wpo.missed_shards
            for name in inc.wpo.members[index]
        }
        linked = resolve_inputs(load_archive(vblob), [lib]).modules
        built_ok = {linked[g].name for g in inc.wpo.built} <= missed_members
        ok = (
            ok and identical and contained and built_ok
            and bool(inc.wpo.missed_shards)
        )
        print(
            f"wpo: edit touched={len(edited)} edited={edited} "
            f"missed_shards={inc.wpo.missed_shards} expected={expected} "
            f"misses={inc.wpo.misses} built={len(inc.wpo.built)} "
            f"built_in_missed={'OK' if built_ok else 'FAIL'} "
            f"identical={'OK' if identical else 'FAIL'} "
            f"contained={'OK' if contained else 'FAIL'} "
            f"relink={inc_s:.3f}s full={full_s:.3f}s"
        )
        points.append(
            {
                "touched_modules": len(edited),
                "edited": edited,
                "missed_shards": list(inc.wpo.missed_shards),
                "shards": inc.wpo.shards,
                "misses": inc.wpo.misses,
                "hits": inc.wpo.hits,
                "built": len(inc.wpo.built),
                "relink_seconds": round(inc_s, 6),
                "full_link_seconds": round(full_s, 6),
            }
        )

    if args.figure_out:
        figure = {
            "figure": "wpo-relink",
            "modules": args.modules,
            "partitions": args.partitions,
            "seed": args.seed,
            "monolithic_seconds": round(mono_s, 6),
            "cold_seconds": round(cold_s, 6),
            "warm_seconds": round(warm_s, 6),
            "points": points,
        }
        Path(args.figure_out).write_text(json.dumps(figure, indent=2) + "\n")
        print(f"wpo: figure written to {args.figure_out}")

    print(f"wpo invariants: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _fuzz(argv) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments fuzz")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for the campaign planner")
    parser.add_argument("--iterations", "-n", type=int, default=50,
                        help="programs to evaluate")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop at the first wave boundary past this "
                             "many seconds")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (requires the disk cache)")
    parser.add_argument("--corpus-dir", type=str, default="corpus",
                        help="where minimized repros and coverage seeds go")
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip the ddmin reducer on divergences")
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="per-cell simulator budget")
    parser.add_argument("--trace", type=str, default=None,
                        help="write a Chrome-trace timeline of the campaign")
    parser.add_argument("--languages", type=str, default="minic",
                        help="comma-separated frontend palette for fresh "
                             "programs: minic, decaf, mixed")
    args = parser.parse_args(argv)

    languages = tuple(
        part.strip() for part in args.languages.split(",") if part.strip()
    )
    known = {"minic", "decaf", "mixed"}
    if not languages or not set(languages) <= known:
        parser.error(
            f"--languages must name a subset of {sorted(known)}"
        )

    from repro.fuzz import run_campaign
    from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
    from repro.obs.trace import TraceLog

    cache = _resolve_cache(args.cache_dir, args.no_cache)
    trace = TraceLog() if args.trace else None
    stats = run_campaign(
        args.seed,
        args.iterations,
        time_budget=args.time_budget,
        jobs=args.jobs,
        corpus_dir=args.corpus_dir,
        cache=cache,
        trace=trace,
        max_instructions=args.max_instructions or DEFAULT_MAX_INSTRUCTIONS,
        minimize=not args.no_minimize,
        languages=languages,
        log=print,
    )
    print(stats.format())
    if trace is not None:
        trace.save_chrome_trace(args.trace)
        print(f"fuzz trace written to {args.trace}")
    return 0 if stats.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "explain":
        return _explain(argv[1:])
    if argv and argv[0] == "profile":
        return _profile(argv[1:])
    if argv and argv[0] == "fuzz":
        return _fuzz(argv[1:])
    if argv and argv[0] == "layout":
        return _layout(argv[1:])
    if argv and argv[0] == "wpo":
        return _wpo(argv[1:])
    if argv and argv[0] == "serve-bench":
        from repro.serve.loadgen import main as serve_bench_main

        return serve_bench_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.experiments.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "regress":
        from repro.experiments.regress import regress_main

        return regress_main(argv[1:])

    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument(
        "figure",
        choices=sorted(_FIGURES)
        + ["all", "summary", "explain", "profile", "fuzz", "layout",
           "wpo", "serve-bench", "bench", "regress"],
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--programs", type=str, default=None)
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the build/link/run pipeline",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk artifact cache (forces --jobs 1)",
    )
    parser.add_argument(
        "--trace", type=str, default=None,
        help="write a Chrome-trace timeline of the pipeline to this path",
    )
    args = parser.parse_args(argv)

    programs = args.programs.split(",") if args.programs else None
    known = PROGRAMS + DECAF_PROGRAMS
    unknown = [name for name in programs or () if name not in known]
    if unknown:
        parser.error(
            f"unknown program {unknown[0]!r} in --programs "
            f"(choose from {', '.join(known)})"
        )

    configure_cache(_resolve_cache(args.cache_dir, args.no_cache))

    names = sorted(_FIGURES) if args.figure == "all" else [args.figure]

    trace = None
    if args.trace:
        from repro.obs.trace import TraceLog

        trace = TraceLog()

    metrics = pipeline.prewarm(
        names if args.figure != "summary" else ["summary"],
        programs=programs,
        scale=args.scale,
        jobs=args.jobs,
        trace=trace,
    )
    print(metrics.format())
    print()

    if trace is not None:
        trace.save_chrome_trace(args.trace)
        print(f"pipeline trace written to {args.trace} "
              f"(load at https://ui.perfetto.dev)\n")

    if args.figure == "summary":
        from repro.experiments.summary import compute_summary, print_summary

        print_summary(compute_summary(programs=programs, scale=args.scale))
        return 0
    for name in names:
        generate, percent = _FIGURES[name]
        if name == "fig7":
            keys, rows = generate(
                programs=programs,
                scale=args.scale,
                link_timings=metrics.link_seconds,
            )
        else:
            keys, rows = generate(programs=programs, scale=args.scale)
        print_figure(name, keys, rows, percent=percent)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The command-line toolchain: ``python -m repro.toolchain <tool> ...``.

Mirrors the workflow of the paper's environment:

* ``cc``   — compile MiniC sources to object files (``-all`` for the
  compile-all interprocedural mode, ``-O0`` to disable optimization,
  ``-no-sched`` to disable pipeline scheduling);
* ``ar``   — build a static archive from object files;
* ``ld``   — standard link (objects + ``-l`` archives) to an executable;
* ``om``   — optimizing link (``-simple``/``-full``/``-sched``/``-gc``;
  ``-verify`` prints the structural verifier's counters, ``--trace``
  saves the link's span/provenance log as Chrome-trace JSON;
  ``-layout`` turns on profile-guided layout + jsr->bsr relaxation,
  fed by ``--profile-in profile.json``; ``--partitions N`` runs the
  transform rounds partitioned (byte-identical output), with
  ``--cache-dir`` for incremental relinks);
* ``run``  — execute an executable on the simulated AXP
  (``--profile-out profile.json`` writes the per-procedure profile
  that closes the PGO loop);
* ``dis``  — disassemble an object file or executable;
* ``serve`` — run the toolchain as a long-lived daemon
  (:mod:`repro.serve`): compile/link/run/explain requests over a
  length-prefixed JSON TCP protocol, coalesced and content-cached,
  with bounded admission and graceful drain on SIGTERM.

Executables are serialized with pickle (they are an internal format);
objects and archives use the repository's binary format.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

from repro.isa.disasm import disassemble
from repro.linker import link, make_crt0
from repro.machine import BACKENDS, run as machine_run
from repro.frontend import (
    LANGUAGES,
    compile_sources,
    frontend_for,
    language_for,
)
from repro.minicc import Options
from repro.objfile.archive import Archive
from repro.objfile.fileio import (
    load_archive_file,
    load_object_file,
    save_archive,
    save_object,
)
from repro.objfile.sections import SectionKind
from repro.om import OMLevel, OMOptions, om_link


def _cc(args) -> int:
    options = Options(optimize=not args.O0, schedule=not args.no_sched)
    if args.all:
        sources = [(Path(p).name, Path(p).read_text()) for p in args.sources]
        objects = compile_sources(sources, "all", options, language=args.lang)
        if len(objects) > 1:
            # A mixed-language compile-all yields one unit per
            # language; -o names a single object, so require per-file
            # invocations (each) and a plain link instead.
            raise SystemExit(
                "cc -all with mixed languages produces one unit per "
                "language; compile each language separately"
            )
        out = args.output or "all.o"
        objects[0].name = Path(out).name
        save_object(objects[0], out)
        print(out)
        return 0
    if args.output and len(args.sources) > 1:
        raise SystemExit("-o with multiple sources requires -all")
    for source in args.sources:
        path = Path(source)
        out = args.output or str(path.with_suffix(".o"))
        frontend = frontend_for(args.lang or language_for(path.name))
        obj = frontend.compile_module(
            path.read_text(), path.with_suffix(".o").name, options
        )
        save_object(obj, out)
        print(out)
    return 0


def _ar(args) -> int:
    archive = Archive(Path(args.output).stem)
    for member in args.objects:
        archive.add(load_object_file(member))
    save_archive(archive, args.output)
    print(f"{args.output}: {len(archive)} members")
    return 0


def _load_inputs(args):
    objects = [load_object_file(p) for p in args.objects]
    if not args.no_crt0:
        objects.insert(0, make_crt0())
    libraries = [load_archive_file(p) for p in args.libs or []]
    return objects, libraries


def _ld(args) -> int:
    objects, libraries = _load_inputs(args)
    executable = link(objects, libraries)
    Path(args.output).write_bytes(pickle.dumps(executable))
    print(f"{args.output}: {executable.text_size} text bytes, "
          f"GAT {executable.gat_size} bytes")
    return 0


def _om(args) -> int:
    objects, libraries = _load_inputs(args)
    level = OMLevel.SIMPLE if args.simple else OMLevel.FULL
    options = OMOptions(
        schedule=args.sched,
        remove_dead_procs=args.gc,
        convert_escaped=args.convert_escaped,
        verify=args.verify,
        layout=args.layout,
        relax=args.layout,
        partitions=args.partitions,
    )
    cache = None
    if args.cache_dir and args.partitions > 1:
        from repro.cache import ArtifactCache

        cache = ArtifactCache(args.cache_dir)
    profile_in = None
    if args.profile_in:
        from repro.machine.profile import ProfileResult

        profile_in = ProfileResult.from_json(Path(args.profile_in).read_bytes())
    trace = None
    if args.trace:
        from repro.obs.trace import TraceLog

        trace = TraceLog()
    result = om_link(
        objects,
        libraries,
        level=level,
        options=options,
        trace=trace,
        profile=profile_in,
        cache=cache,
    )
    Path(args.output).write_bytes(pickle.dumps(result.executable))
    stats = result.stats
    print(
        f"{args.output}: OM-{stats.level}; address loads "
        f"{stats.before.addr_loads} -> {stats.after.addr_loads}; "
        f"GAT {stats.gat_bytes_before} -> {stats.gat_bytes_after} bytes; "
        f"text {stats.text_bytes_before} -> {stats.text_bytes_after} bytes"
    )
    if result.wpo is not None:
        wpo = result.wpo
        print(
            f"wpo: shards={wpo.shards} rounds={wpo.rounds} "
            f"hits={wpo.hits} misses={wpo.misses} "
            f"missed_shards={wpo.missed_shards}"
        )
    if args.layout:
        print(
            f"layout: procs_moved={stats.procs_moved} "
            f"relax_iterations={stats.relax_iterations} "
            f"relax_demoted={stats.relax_demoted} "
            f"jsr->bsr={result.counters.jsr_to_bsr} "
            f"({'profiled' if profile_in is not None else 'static'})"
        )
    if result.verify is not None:
        report = result.verify
        print(
            f"verify: {report.instructions} instructions, "
            f"{report.branches} branches, {report.calls} calls, "
            f"{report.gat_entries} GAT entries, "
            f"{len(report.problems)} problems"
        )
        for problem in report.problems:
            print(f"  problem: {problem}", file=sys.stderr)
    if trace is not None:
        trace.save_chrome_trace(args.trace)
        print(f"trace: {args.trace}")
    return 1 if (result.verify is not None and result.verify.problems) else 0


def _run(args) -> int:
    executable = pickle.loads(Path(args.executable).read_bytes())
    if args.profile_out:
        from repro.machine.profile import profile

        profiled = profile(
            executable, timed=not args.fast, backend=args.backend
        )
        result = profiled.run
        Path(args.profile_out).write_bytes(profiled.to_json())
    else:
        result = machine_run(
            executable, timed=not args.fast, backend=args.backend
        )
    sys.stdout.write(result.output)
    if args.profile_out:
        print(f"profile: {args.profile_out}", file=sys.stderr)
    if args.stats:
        print(
            f"[{result.instructions} instructions, {result.cycles} cycles, "
            f"cpi {result.cpi:.2f}, i$ {result.icache_misses}, "
            f"d$ {result.dcache_misses}]",
            file=sys.stderr,
        )
    return 0


def _serve(args) -> int:
    import asyncio

    if args.fleet:
        from repro.serve.fleet import FleetConfig, fleet_main, parse_policy
        from repro.serve.router import RouterConfig

        quotas = dict(parse_policy(spec) for spec in args.quota or [])
        fleet_config = FleetConfig(
            size=args.fleet,
            workers=args.workers,
            queue_limit=args.queue_limit,
            retry_after=args.retry_after,
            run_budget=args.run_budget,
            cache_dir=None if args.no_cache else args.cache_dir,
            trace_dir=args.trace_dir,
            quotas=quotas,
        )
        router_config = RouterConfig(
            host=args.host, port=args.port, retry_after=args.retry_after
        )
        return asyncio.run(fleet_main(fleet_config, router_config))

    from repro.cache import ArtifactCache, compute_toolchain_stamp
    from repro.obs.trace import TraceLog
    from repro.serve.server import ServeConfig, serve_main

    # A daemon outlives toolchain upgrades on disk: compute the stamp
    # fresh at startup instead of trusting the memoized module-level
    # value, so artifacts are keyed under the code actually loaded now.
    cache = (
        None
        if args.no_cache
        else ArtifactCache(args.cache_dir, stamp=compute_toolchain_stamp())
    )
    trace = TraceLog(sink=args.trace) if args.trace else None
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        run_budget=args.run_budget,
        trace_dir=args.trace_dir,
    )
    return asyncio.run(serve_main(config, cache, trace))


def _metrics(args) -> int:
    """Scrape a running daemon's metrics in either exposition format."""
    from repro.serve.client import ServeClient

    host, _, port = args.address.rpartition(":")
    with ServeClient((host or "127.0.0.1", int(port)),
                     timeout=args.timeout) as client:
        payload = client.metrics()
    if args.format == "json":
        print(json.dumps(payload["json"], indent=2))
    else:
        sys.stdout.write(payload["text"])
    return 0


def _merge_trace(args) -> int:
    from repro.obs.merge import merge_main

    argv = list(args.sinks) + ["-o", args.output]
    if args.report:
        argv.append("--report")
    return merge_main(argv)


def _dis(args) -> int:
    path = Path(args.input)
    data = path.read_bytes()
    if data[:4] == b"ROBJ":
        obj = load_object_file(path)
        text = bytes(obj.section(SectionKind.TEXT).data)
        base = 0
    else:
        executable = pickle.loads(data)
        text = executable.text_bytes()
        base = executable.segments[0].vaddr
    for line in disassemble(text, base):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.toolchain")
    sub = parser.add_subparsers(dest="tool", required=True)

    cc = sub.add_parser(
        "cc", help="compile MiniC (.mc) or Decaf (.dcf) sources"
    )
    cc.add_argument("sources", nargs="+")
    cc.add_argument("-o", dest="output")
    cc.add_argument("-all", action="store_true", help="compile-all mode")
    cc.add_argument("-O0", action="store_true", help="disable optimization")
    cc.add_argument("-no-sched", action="store_true", help="disable scheduling")
    cc.add_argument(
        "--lang",
        choices=LANGUAGES,
        default=None,
        help="force a frontend (default: dispatch by source extension)",
    )
    cc.set_defaults(func=_cc)

    ar = sub.add_parser("ar", help="build a static archive")
    ar.add_argument("output")
    ar.add_argument("objects", nargs="+")
    ar.set_defaults(func=_ar)

    for name, func in (("ld", _ld), ("om", _om)):
        tool = sub.add_parser(name, help=f"{name} link")
        tool.add_argument("objects", nargs="+")
        tool.add_argument("-o", dest="output", required=True)
        tool.add_argument("-l", dest="libs", action="append")
        tool.add_argument("--no-crt0", action="store_true")
        if name == "om":
            tool.add_argument("-simple", action="store_true")
            tool.add_argument("-sched", action="store_true")
            tool.add_argument("-gc", action="store_true")
            tool.add_argument("--convert-escaped", action="store_true")
            tool.add_argument(
                "-verify", action="store_true",
                help="run the structural verifier and print its counters",
            )
            tool.add_argument(
                "--trace", dest="trace", default=None,
                help="write the link's span/provenance trace (Chrome JSON)",
            )
            tool.add_argument(
                "-layout", action="store_true",
                help="profile-guided layout + jsr->bsr relaxation",
            )
            tool.add_argument(
                "--profile-in", dest="profile_in", default=None,
                help="profile JSON (from `run --profile-out`) feeding -layout",
            )
            tool.add_argument(
                "--partitions", type=int, default=0,
                help="shard the transform rounds across N partitions "
                     "(byte-identical to the monolithic link)",
            )
            tool.add_argument(
                "--cache-dir", dest="cache_dir", default=None,
                help="shard-artifact cache for incremental relinks "
                     "(used with --partitions)",
            )
        tool.set_defaults(func=func)

    runner = sub.add_parser("run", help="execute on the simulated AXP")
    runner.add_argument("executable")
    runner.add_argument("--fast", action="store_true", help="skip timing model")
    runner.add_argument("--stats", action="store_true")
    runner.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution engine (default: $REPRO_MACHINE_BACKEND or interp)",
    )
    runner.add_argument(
        "--profile-out", dest="profile_out", default=None,
        help="write a per-procedure profile (JSON) for `om -layout`",
    )
    runner.set_defaults(func=_run)

    dis = sub.add_parser("dis", help="disassemble an object or executable")
    dis.add_argument("input")
    dis.set_defaults(func=_dis)

    serve = sub.add_parser("serve", help="run the toolchain daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; the bound port is "
                            "announced as 'serving on host:port')")
    serve.add_argument("--workers", type=int, default=2,
                       help="process-pool size for compile/link/run jobs")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admitted-job bound before retry-after replies")
    serve.add_argument("--retry-after", type=float, default=0.05,
                       help="backpressure hint sent when the queue is full")
    serve.add_argument("--run-budget", type=int, default=200_000_000,
                       help="ceiling on per-request simulator budgets")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="content-addressed artifact cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the disk cache (still coalesces)")
    serve.add_argument("--trace", default=None,
                       help="JSONL trace sink, flushed on drain")
    serve.add_argument("--trace-dir", default=None,
                       help="directory for per-pid worker trace sinks "
                            "(worker-<pid>.jsonl), mergeable with "
                            "merge-trace")
    serve.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="run N daemons behind a consistent-hash "
                            "router sharing one cache root (0 = single "
                            "daemon, the default)")
    serve.add_argument("--quota", action="append", default=None,
                       metavar="TENANT:KEY=VALUE,...",
                       help="per-tenant quota for fleet mode, e.g. "
                            "'t2:rate=2,burst=4,weight=0.5' (repeatable; "
                            "keys: rate, burst, weight, inflight)")
    serve.set_defaults(func=_serve)

    metrics = sub.add_parser(
        "metrics", help="scrape a running daemon's metrics"
    )
    metrics.add_argument("address", metavar="HOST:PORT")
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus")
    metrics.add_argument("--timeout", type=float, default=30.0)
    metrics.set_defaults(func=_metrics)

    merge = sub.add_parser(
        "merge-trace",
        help="merge JSONL trace sinks into one Chrome trace",
    )
    merge.add_argument("sinks", nargs="+",
                       help="JSONL sink files or directories of them")
    merge.add_argument("-o", dest="output", required=True,
                       help="merged Chrome-trace JSON output path")
    merge.add_argument("--report", action="store_true",
                       help="print the request-correlation report")
    merge.set_defaults(func=_merge_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

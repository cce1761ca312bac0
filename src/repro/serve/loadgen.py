"""Load generator for the toolchain daemon: ``serve-bench``.

Replays a seeded, mixed workload (``run``/``link``/``compile``/
``explain`` over a set of benchmark programs and link variants) against
a daemon at a configurable concurrency, twice:

* **cold** — a fresh content-addressed cache: every unique job is
  compiled, linked, and simulated in the worker pool;
* **warm** — the identical workload again: every request is served by
  the disk cache or by coalescing onto an in-flight duplicate.

Each phase reports throughput and exact client-side latency
percentiles (p50/p95/p99 over the recorded per-request durations —
the server's histograms are bucket estimates; the report carries
both).  The first ``concurrency`` items of the workload are one
identical expensive request, released through a barrier, so the
coalescing path is exercised deterministically.

After the warm phase the generator *reconciles* its observations
against the server's ``status`` counters (:func:`reconcile`):
completed == client successes, rejected == busy replies the client
absorbed, and the serving identity ``completed == coalesced +
cache_hits + computed``.  A report that fails reconciliation (or any
request) exits non-zero — the numbers in ``BENCH_serve.json`` are only
worth keeping if both sides of the wire agree on what happened.

Run as ``python -m repro.experiments serve-bench``.  By default an
embedded daemon (fresh temporary cache) is benchmarked; ``--connect
host:port`` targets an already-running one; ``--fleet N`` embeds a
whole router-fronted fleet (:mod:`repro.serve.fleet`).

``--soak`` switches from the two-phase replay to a duration-based
multi-tenant soak: ``--tenants`` client populations (``t0``, ``t1``,
…) drive a mixed cold/warm stream — warm draws from a fixed workload
pool, cold requests carry a nonce comment that changes the content
key but not the semantics — for ``--duration`` seconds, opening with
a barrier-released coalesce burst.  The soak report reconciles with
the same function — against a fleet, client observations vs. router
counters vs. summed daemon counters, with quota rejections accounted
separately and never as failures, and client failures within
``--error-budget`` — and gates on a warm-path p99 (``--p99-ms``).
"""

from __future__ import annotations

import argparse
import json
import queue
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.obs import merge as obs_merge
from repro.obs.metrics import percentile
from repro.obs.trace import TraceLog
from repro.serve.client import ServeClient, ServeError, ServerBusy

#: Default program set: five small benchmarks (the acceptance floor).
DEFAULT_PROGRAMS = "compress,ear,eqntott,li,ora"

#: Weighted op mix for the replayed workload.
_OP_MIX = (("run", 45), ("link", 20), ("compile", 20), ("explain", 15))

#: Link variants the mixed workload draws from, weighted.
_VARIANT_MIX = (("om-full", 50), ("ld", 20), ("om-simple", 15),
                ("om-full-sched", 15))


def _weighted(rng: random.Random, mix) -> str:
    total = sum(weight for _, weight in mix)
    pick = rng.uniform(0, total)
    for value, weight in mix:
        pick -= weight
        if pick <= 0:
            return value
    return mix[-1][0]


def build_workload(
    programs: list[str],
    total: int,
    *,
    seed: int,
    scale: int | None,
    concurrency: int,
) -> list[tuple[str, dict]]:
    """A deterministic (op, params) list; index 0..concurrency-1 are one
    identical ``run`` request — the coalesce burst."""
    rng = random.Random(seed)
    burst_params = {
        "program": programs[0],
        "scale": scale,
        "mode": "each",
        "variant": "om-full",
        "timed": True,
    }
    items: list[tuple[str, dict]] = [
        ("run", dict(burst_params)) for _ in range(min(concurrency, total))
    ]
    while len(items) < total:
        op = _weighted(rng, _OP_MIX)
        params: dict = {
            "program": rng.choice(programs),
            "scale": scale,
            "mode": "all" if rng.random() < 0.25 else "each",
        }
        if op != "compile":
            variant = _weighted(rng, _VARIANT_MIX)
            if op == "explain" and variant == "ld":
                variant = "om-full"
            params["variant"] = variant
        items.append((op, params))
    return items


def run_phase(
    address: tuple[str, int],
    workload: list[tuple[str, dict]],
    concurrency: int,
    *,
    timeout: float,
    retries: int,
    trace: TraceLog | None = None,
) -> dict:
    """Drive the workload through ``concurrency`` client threads."""
    work: queue.Queue = queue.Queue()
    for item in workload:
        work.put(item)
    barrier = threading.Barrier(concurrency)
    samples: list[tuple[str, float]] = []
    failures: list[dict] = []
    coalesced = cached = busy_replies = 0
    busy_reasons: dict[str, int] = {}
    lock = threading.Lock()

    def worker() -> None:
        nonlocal coalesced, cached, busy_replies
        client = ServeClient(address, timeout=timeout, retries=retries,
                             trace=trace)
        try:
            barrier.wait(timeout=timeout)
            while True:
                try:
                    op, params = work.get_nowait()
                except queue.Empty:
                    break
                started = time.monotonic()
                try:
                    response = client.request(op, **params)
                except ServeError as exc:
                    with lock:
                        failures.append(
                            {"op": op, "error": f"{type(exc).__name__}: {exc}"}
                        )
                    continue
                duration = time.monotonic() - started
                with lock:
                    samples.append((op, duration))
                    if response.get("coalesced"):
                        coalesced += 1
                    if response.get("cached"):
                        cached += 1
        finally:
            with lock:
                busy_replies += client.busy_retries
                for reason, count in client.busy_reasons.items():
                    busy_reasons[reason] = busy_reasons.get(reason, 0) + count
            client.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    if trace is not None:
        trace.flush()

    durations = sorted(duration for _, duration in samples)
    by_op: dict[str, int] = {}
    for op, _ in samples:
        by_op[op] = by_op.get(op, 0) + 1
    return {
        "requests": len(workload),
        "ok": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
        "busy_replies": busy_replies,
        "busy_reasons": busy_reasons,
        "coalesced": coalesced,
        "cached": cached,
        "by_op": by_op,
        "wall_s": wall,
        "throughput_rps": len(samples) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": 1e3 * percentile(durations, 0.50),
            "p95": 1e3 * percentile(durations, 0.95),
            "p99": 1e3 * percentile(durations, 0.99),
            "mean": 1e3 * sum(durations) / len(durations) if durations else 0.0,
            "max": 1e3 * durations[-1] if durations else 0.0,
        },
    }


#: Warm-pool size for the soak phase and the warm-throughput probe —
#: the same ``build_workload`` prefix both times, so the probe replays
#: keys the soak already warmed.
_SOAK_POOL = 24


def _nonce_sources(programs: list[str], scale, tag: str) -> list[list[str]]:
    """Sources for a guaranteed-cold request: the lead program with a
    ``//`` comment nonce appended — a new content key, same program."""
    from repro.benchsuite.suite import scaled_sources

    sources = [[name, text] for name, text in scaled_sources(programs[0], scale)]
    sources[0][1] += f"\n// soak nonce {tag}\n"
    return sources


def run_soak(
    address: tuple[str, int],
    programs: list[str],
    *,
    duration: float,
    tenants: int,
    concurrency: int,
    scale: int | None,
    seed: int,
    timeout: float,
    retries: int,
    cold_ratio: float = 0.25,
    trace: TraceLog | None = None,
) -> dict:
    """Duration-based mixed cold/warm multi-tenant traffic.

    ``concurrency`` worker threads are split round-robin over
    ``tenants`` tenant identities.  Every worker opens with the same
    barrier-released cold ``run`` request (the deterministic coalesce
    burst), then loops until the deadline drawing warm requests from a
    fixed pool (cache/coalesce path) or, with ``cold_ratio``
    probability, a nonce-comment cold request (worker-pool path).

    Quota rejections are *accounting, not failures*: a request that
    exhausts retries on ``reason="quota"`` is tallied under
    ``quota_exhausted``, and only non-quota errors land in
    ``failures``.
    """
    warm_pool = build_workload(
        programs, _SOAK_POOL, seed=seed, scale=scale, concurrency=0
    )
    burst = {
        "sources": _nonce_sources(programs, scale, f"burst-{seed}"),
        "mode": "each", "variant": "om-full", "timed": True,
    }
    barrier = threading.Barrier(concurrency)
    lock = threading.Lock()
    # tenant, seconds, cached, coalesced, opening-burst
    samples: list[tuple[str, float, bool, bool, bool]] = []
    failures: list[dict] = []
    totals = {
        "busy_replies": 0, "busy_reasons": {}, "quota_exhausted": 0,
        "cold_sent": 0, "transport_retries": 0,
    }

    def worker(index: int) -> None:
        tenant = f"t{index % tenants}"
        rng = random.Random((seed + 1) * 10_000 + index)
        client = ServeClient(
            address, timeout=timeout, retries=retries,
            trace=trace, tenant=tenant, rng=rng,
        )
        local_cold = 0
        try:
            barrier.wait(timeout=timeout)
            deadline = time.monotonic() + duration
            first = True
            while True:
                now = time.monotonic()
                if not first and now >= deadline:
                    break
                is_burst = first
                if first:
                    op, params = "run", dict(burst)
                    first = False
                elif rng.random() < cold_ratio:
                    local_cold += 1
                    op = "compile"
                    params = {
                        "sources": _nonce_sources(
                            programs, scale, f"w{index}-{local_cold}-{seed}"
                        ),
                        "mode": "each",
                    }
                else:
                    op, params = warm_pool[rng.randrange(len(warm_pool))]
                    params = dict(params)
                started = time.monotonic()
                try:
                    response = client.request(op, **params)
                except ServerBusy as exc:
                    with lock:
                        if exc.reason == "quota":
                            totals["quota_exhausted"] += 1
                        else:
                            failures.append({
                                "tenant": tenant, "op": op,
                                "error": f"ServerBusy: {exc}",
                            })
                    continue
                except ServeError as exc:
                    with lock:
                        failures.append({
                            "tenant": tenant, "op": op,
                            "error": f"{type(exc).__name__}: {exc}",
                        })
                    continue
                elapsed = time.monotonic() - started
                with lock:
                    samples.append((
                        tenant, elapsed,
                        bool(response.get("cached")),
                        bool(response.get("coalesced")),
                        is_burst,
                    ))
        finally:
            with lock:
                totals["busy_replies"] += client.busy_retries
                totals["transport_retries"] += client.transport_retries
                totals["cold_sent"] += local_cold
                for reason, count in client.busy_reasons.items():
                    totals["busy_reasons"][reason] = (
                        totals["busy_reasons"].get(reason, 0) + count
                    )
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"soak-{i}", daemon=True)
        for i in range(concurrency)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    if trace is not None:
        trace.flush()

    per_tenant: dict[str, dict] = {}
    for tenant, elapsed, cached, coalesced, _ in samples:
        bucket = per_tenant.setdefault(
            tenant, {"ok": 0, "cached": 0, "coalesced": 0, "latencies": []}
        )
        bucket["ok"] += 1
        bucket["cached"] += cached
        bucket["coalesced"] += coalesced
        bucket["latencies"].append(elapsed)
    for failure in failures:
        bucket = per_tenant.setdefault(
            failure["tenant"],
            {"ok": 0, "cached": 0, "coalesced": 0, "latencies": []},
        )
        bucket["failed"] = bucket.get("failed", 0) + 1
    tenant_report = {}
    for tenant, bucket in sorted(per_tenant.items()):
        latencies = sorted(bucket["latencies"])
        tenant_report[tenant] = {
            "ok": bucket["ok"],
            "failed": bucket.get("failed", 0),
            "cached": bucket["cached"],
            "coalesced": bucket["coalesced"],
            "p50_ms": 1e3 * percentile(latencies, 0.50),
            "p99_ms": 1e3 * percentile(latencies, 0.99),
        }

    durations = sorted(elapsed for _, elapsed, _, _, _ in samples)
    # Only cache hits count as warm latency: a coalesced request may
    # have joined a *cold* leader (the opening burst does so by
    # design, and pool items do while the pool is still warming) and
    # waited out the full compute — deduplication working as intended,
    # not a warm-path latency signal the p99 gate should read.
    warm_durations = sorted(
        elapsed for _, elapsed, cached, _, is_burst in samples
        if cached and not is_burst
    )
    attempted = len(samples) + len(failures) + totals["quota_exhausted"]
    return {
        "duration_s": duration,
        "wall_s": wall,
        "tenants": tenants,
        "cold_ratio": cold_ratio,
        "requests": attempted,
        "ok": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
        "cold_sent": totals["cold_sent"],
        "busy_replies": totals["busy_replies"],
        "busy_reasons": totals["busy_reasons"],
        "quota_exhausted": totals["quota_exhausted"],
        "transport_retries": totals["transport_retries"],
        "coalesced": sum(1 for _, _, _, c, _ in samples if c),
        "cached": sum(1 for _, _, cached, _, _ in samples if cached),
        "throughput_rps": len(samples) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": 1e3 * percentile(durations, 0.50),
            "p95": 1e3 * percentile(durations, 0.95),
            "p99": 1e3 * percentile(durations, 0.99),
        },
        "warm_latency_ms": {
            "count": len(warm_durations),
            "p50": 1e3 * percentile(warm_durations, 0.50),
            "p99": 1e3 * percentile(warm_durations, 0.99),
        },
        "per_tenant": tenant_report,
    }


def measure_warm_speedup(
    router: tuple[str, int],
    single: tuple[str, int],
    programs: list[str],
    *,
    scale: int | None,
    seed: int,
    concurrency: int,
    timeout: float,
    retries: int,
    repeat: int = 8,
) -> dict:
    """Warm throughput through the router vs. one daemon directly.

    Both measurements replay the same already-warm workload pool
    against the same shared disk cache, so the comparison isolates the
    serving topology: N event loops behind a relay vs. one event loop.
    Run this *after* the reconciliation snapshots — the direct-daemon
    leg bypasses the router, which would otherwise break the
    router==daemons counter checks.
    """
    pool = build_workload(
        programs, _SOAK_POOL, seed=seed, scale=scale, concurrency=0
    )
    workload = pool * repeat
    # Prime: make every pool key warm (idempotent if the soak already did).
    run_phase(router, pool, concurrency, timeout=timeout, retries=retries)
    fleet = run_phase(
        router, workload, concurrency, timeout=timeout, retries=retries
    )
    direct = run_phase(
        single, workload, concurrency, timeout=timeout, retries=retries
    )
    fleet_rps = fleet["throughput_rps"]
    single_rps = direct["throughput_rps"]
    return {
        "requests": len(workload),
        "fleet_warm_rps": fleet_rps,
        "single_warm_rps": single_rps,
        "speedup": fleet_rps / single_rps if single_rps > 0 else 0.0,
        "fleet_failed": fleet["failed"],
        "single_failed": direct["failed"],
        "fleet_p99_ms": fleet["latency_ms"]["p99"],
        "single_p99_ms": direct["latency_ms"]["p99"],
    }


def _delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def reconcile(
    before: dict, final: dict, client: dict, *, error_budget: float = 0.0
) -> dict:
    """Client-side observations vs. the server's own counters.

    ``before``/``final`` are ``status`` snapshots — either a single
    daemon's, or a fleet's, whose ``counters`` are the sum across the
    daemons and which carries the router's own in ``router``.
    ``client`` maps each traffic phase (the replay's ``cold`` and
    ``warm``, or ``soak``) to what its clients observed.  Through a
    router the checks tie three ledgers together: the clients'
    rejections are the router's, the daemons' rejections are what the
    router relayed, and quota rejections are accounted in their own
    series and never as failures.
    """
    delta = _delta(before["counters"], final["counters"])
    seen = {
        key: sum(phase[key] for phase in client.values())
        for key in ("requests", "ok", "failed", "busy_replies",
                    "coalesced", "cached")
    }
    allowed_failures = int(error_budget * seen["requests"])
    checks = {
        "completed_matches_client": {
            "ok": delta["completed"] == seen["ok"],
            "server": delta["completed"], "client": seen["ok"],
        },
        "coalesced_matches_client": {
            "ok": delta["coalesced"] == seen["coalesced"],
            "server": delta["coalesced"], "client": seen["coalesced"],
        },
        "cache_hits_match_client": {
            "ok": delta["cache_hits"] == seen["cached"],
            "server": delta["cache_hits"], "client": seen["cached"],
        },
        "serving_identity": {
            "ok": delta["completed"]
            == delta["coalesced"] + delta["cache_hits"] + delta["computed"],
            "completed": delta["completed"],
            "coalesced": delta["coalesced"],
            "cache_hits": delta["cache_hits"],
            "computed": delta["computed"],
        },
        "zero_server_failures": {
            "ok": delta["failed"] == 0, "failed": delta["failed"],
        },
        "failures_within_budget": {
            "ok": seen["failed"] <= allowed_failures,
            "client_failed": seen["failed"], "allowed": allowed_failures,
        },
        "coalescing_observed": {
            "ok": delta["coalesced"] >= 1, "coalesced": delta["coalesced"],
        },
    }
    router = final.get("router")
    if router is None:
        checks["rejected_matches_client_busy"] = {
            "ok": delta["rejected"] == seen["busy_replies"],
            "server": delta["rejected"], "client": seen["busy_replies"],
        }
    else:
        rdelta = _delta(before["router"]["counters"], router["counters"])
        quota_busy = sum(
            phase["busy_reasons"].get("quota", 0) for phase in client.values()
        )
        checks.update({
            "router_completed_matches_client": {
                "ok": rdelta["completed"] == seen["ok"],
                "router": rdelta["completed"], "client": seen["ok"],
            },
            "router_rejected_matches_client_busy": {
                "ok": rdelta["rejected"] == seen["busy_replies"],
                "router": rdelta["rejected"], "client": seen["busy_replies"],
            },
            "quota_rejections_accounted": {
                "ok": rdelta["quota_rejected"] == quota_busy,
                "router": rdelta["quota_rejected"], "client": quota_busy,
            },
            "daemon_rejections_relayed": {
                "ok": delta["rejected"] == rdelta["relayed_busy"],
                "daemons": delta["rejected"], "router": rdelta["relayed_busy"],
            },
            "router_zero_failures": {
                "ok": rdelta["failed"] == 0, "failed": rdelta["failed"],
            },
            "router_delta": {"ok": True, **rdelta},
        })
    if "cold" in client and "warm" in client:
        checks["warm_throughput_higher"] = {
            "ok": client["warm"]["throughput_rps"]
            > client["cold"]["throughput_rps"],
            "cold_rps": client["cold"]["throughput_rps"],
            "warm_rps": client["warm"]["throughput_rps"],
        }
    return {"ok": all(check["ok"] for check in checks.values()),
            "counters_delta": delta, "checks": checks}


def _soak_line(soak: dict) -> str:
    lat = soak["latency_ms"]
    return (
        f" soak: {soak['ok']}/{soak['requests']} ok in "
        f"{soak['wall_s']:.1f} s ({soak['throughput_rps']:.2f} req/s) | "
        f"{soak['failed']} failed, {soak['quota_exhausted']} quota-exhausted, "
        f"busy {soak['busy_replies']} {soak['busy_reasons']} | "
        f"cold {soak['cold_sent']}, cached {soak['cached']}, "
        f"coalesced {soak['coalesced']} | "
        f"p50 {lat['p50']:.1f} ms, p99 {lat['p99']:.1f} ms "
        f"(warm p99 {soak['warm_latency_ms']['p99']:.1f} ms)"
    )


def _phase_line(name: str, phase: dict) -> str:
    lat = phase["latency_ms"]
    return (
        f"{name:>5}: {phase['ok']}/{phase['requests']} ok, "
        f"{phase['failed']} failed, {phase['busy_replies']} busy replies | "
        f"{phase['throughput_rps']:.2f} req/s | "
        f"p50 {lat['p50']:.1f} ms, p95 {lat['p95']:.1f} ms, "
        f"p99 {lat['p99']:.1f} ms | "
        f"coalesced {phase['coalesced']}, cached {phase['cached']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments serve-bench",
        description="cold/warm load benchmark against the toolchain daemon",
    )
    parser.add_argument("--programs", default=DEFAULT_PROGRAMS,
                        help="comma-separated benchmarks, or 'all'")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload SCALE override (default 1: smoke size)")
    parser.add_argument("--concurrency", "-c", type=int, default=8)
    parser.add_argument("--requests", "-n", type=int, default=40,
                        help="requests per phase")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--retries", type=int, default=8)
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="benchmark a running daemon instead of an "
                             "embedded one")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="embed an N-daemon fleet (router + daemon "
                             "subprocesses, shared temp cache) instead of "
                             "a single embedded daemon")
    parser.add_argument("--quota", action="append", default=None,
                        metavar="TENANT:KEY=VALUE,...",
                        help="per-tenant quota for the embedded fleet "
                             "(repeatable), e.g. 't2:rate=2,burst=2'")
    parser.add_argument("--soak", action="store_true",
                        help="duration-based multi-tenant mixed cold/warm "
                             "soak instead of the two-phase replay")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="soak duration in seconds")
    parser.add_argument("--tenants", type=int, default=3,
                        help="tenant identities the soak spreads over")
    parser.add_argument("--cold-ratio", type=float, default=0.25,
                        help="fraction of soak requests forced cold via "
                             "a content-key nonce")
    parser.add_argument("--p99-ms", type=float, default=500.0,
                        help="soak gate: warm-path (cached/coalesced) "
                             "client p99 ceiling")
    parser.add_argument("--error-budget", type=float, default=0.0,
                        help="soak: allowed client failure fraction "
                             "(quota rejections never count)")
    parser.add_argument("--workers", type=int, default=4,
                        help="embedded daemon worker processes")
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="embedded daemon admission-queue bound")
    parser.add_argument("--cache-dir", default=None,
                        help="embedded daemon cache dir (default: fresh "
                             "temporary directory, guaranteeing a cold phase)")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="JSON report path")
    parser.add_argument("--trace-dir", default=None,
                        help="collect client/server/worker JSONL trace "
                             "sinks here, merge them into one Chrome "
                             "trace, and gate on request correlation; "
                             "with --connect only the client sinks are "
                             "written (point it at the daemon's own "
                             "--trace-dir and run merge-trace after the "
                             "drain)")
    parser.add_argument("--shutdown", action="store_true",
                        help="with --connect: send a shutdown request after "
                             "the benchmark (embedded daemons always drain)")
    args = parser.parse_args(argv)

    if args.programs == "all":
        from repro.benchsuite.suite import PROGRAMS

        programs = list(PROGRAMS)
    else:
        programs = [name for name in args.programs.split(",") if name]
    workload = build_workload(
        programs, args.requests,
        seed=args.seed, scale=args.scale, concurrency=args.concurrency,
    )

    thread = None
    tempdir = None
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if args.connect:
        if trace_dir is not None:
            # Client sinks only: the daemon side traces via its own
            # --trace-dir, and its sinks flush on drain — merging here
            # would race that, so merge-trace runs separately.
            trace_dir.mkdir(parents=True, exist_ok=True)
        host, _, port = args.connect.rpartition(":")
        address = (host or "127.0.0.1", int(port))
    elif args.fleet:
        from repro.serve.fleet import FleetConfig, FleetThread, parse_policy

        cache_dir = args.cache_dir
        if cache_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
            cache_dir = tempdir.name
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        thread = FleetThread(
            FleetConfig(
                size=args.fleet,
                workers=args.workers,
                queue_limit=args.queue_limit,
                cache_dir=cache_dir,
                trace_dir=str(trace_dir) if trace_dir is not None else None,
                quotas=dict(
                    parse_policy(spec) for spec in args.quota or []
                ),
            )
        )
        address = thread.start()
        print(f"embedded fleet on {address[0]}:{address[1]} "
              f"({args.fleet} daemons, cache: {cache_dir})")
    else:
        from repro.cache import ArtifactCache
        from repro.serve.server import ServeConfig, ServerThread

        cache_dir = args.cache_dir
        if cache_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
            cache_dir = tempdir.name
        server_trace = None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            server_trace = TraceLog(sink=trace_dir / "server.jsonl")
        thread = ServerThread(
            ArtifactCache(cache_dir),
            ServeConfig(
                workers=args.workers,
                queue_limit=args.queue_limit,
                trace_dir=str(trace_dir) if trace_dir is not None else None,
            ),
            trace=server_trace,
        )
        address = thread.start()
        print(f"embedded daemon on {address[0]}:{address[1]} "
              f"(cache: {cache_dir})")

    try:
        probe = ServeClient(address, timeout=args.timeout)
        before = probe.status()
        phases = {}
        soak = None
        if args.soak:
            soak_trace = None
            if trace_dir is not None:
                soak_trace = TraceLog(sink=trace_dir / "client-soak.jsonl")
            soak = run_soak(
                address, programs,
                duration=args.duration, tenants=args.tenants,
                concurrency=args.concurrency, scale=args.scale,
                seed=args.seed, timeout=args.timeout, retries=args.retries,
                cold_ratio=args.cold_ratio, trace=soak_trace,
            )
            print(_soak_line(soak))
            for tenant, row in soak["per_tenant"].items():
                print(f"  {tenant}: {row['ok']} ok, {row['failed']} failed, "
                      f"cached {row['cached']}, coalesced {row['coalesced']}, "
                      f"p99 {row['p99_ms']:.1f} ms")
        else:
            for name in ("cold", "warm"):
                phase_trace = None
                if trace_dir is not None:
                    phase_trace = TraceLog(
                        sink=trace_dir / f"client-{name}.jsonl"
                    )
                phases[name] = run_phase(
                    address, workload, args.concurrency,
                    timeout=args.timeout, retries=args.retries,
                    trace=phase_trace,
                )
                print(_phase_line(name, phases[name]))
        final = probe.status()
        if args.connect and args.shutdown:
            probe.shutdown()
        probe.close()
    finally:
        # Stop (and so drain) the embedded daemon *before* merging:
        # drain flushes the server sink, and workers flushed per job.
        if thread is not None:
            thread.stop()
        if tempdir is not None:
            tempdir.cleanup()

    correlation = None
    if trace_dir is not None and args.connect:
        print(f"client traces: {trace_dir} (remote daemon still "
              f"flushing; run merge-trace once it drains)")
    elif trace_dir is not None:
        merged = obs_merge.merge_traces([trace_dir])
        merged_path = trace_dir / "merged.trace.json"
        merged.save_chrome_trace(merged_path)
        correlation = obs_merge.correlation_report(merged)
        print(f"merged trace: {merged_path} "
              f"({len(merged.events)} events, "
              f"{correlation['request_ids']} request ids)")

    if args.soak:
        outcome = reconcile(
            before, final, {"soak": soak}, error_budget=args.error_budget
        )
        gates = {
            "warm_p99": {
                "ok": soak["warm_latency_ms"]["p99"] <= args.p99_ms,
                "observed_ms": soak["warm_latency_ms"]["p99"],
                "ceiling_ms": args.p99_ms,
            },
        }
        report = {
            "bench": "serve-soak",
            "concurrency": args.concurrency,
            "duration_s": args.duration,
            "tenants": args.tenants,
            "programs": programs,
            "scale": args.scale,
            "seed": args.seed,
            "soak": soak,
            "server": {"before": before, "final": final},
            "reconcile": outcome,
            "gates": gates,
            "correlation": correlation,
        }
    else:
        outcome = reconcile(before, final, phases)
        gates = {}
        report = {
            "bench": "serve",
            "concurrency": args.concurrency,
            "requests_per_phase": args.requests,
            "programs": programs,
            "scale": args.scale,
            "seed": args.seed,
            "phases": phases,
            "server": {"before": before, "final": final},
            "reconcile": outcome,
            "correlation": correlation,
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {args.out}")

    for name, check in outcome["checks"].items():
        flag = "OK" if check["ok"] else "FAIL"
        detail = {k: v for k, v in check.items() if k != "ok"}
        print(f"  {flag:>4}  {name}  {detail}")
    for name, gate in gates.items():
        flag = "OK" if gate["ok"] else "FAIL"
        detail = {k: v for k, v in gate.items() if k != "ok"}
        print(f"  {flag:>4}  gate:{name}  {detail}")
    ok = outcome["ok"] and all(gate["ok"] for gate in gates.values())
    if correlation is not None and not correlation["ok"]:
        print(f"  FAIL  trace_correlation  {correlation}")
        ok = False
    print(f"serve-bench: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

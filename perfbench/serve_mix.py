"""serve-mix: a closed loop of clients against a serving fleet.

The fleet is ``python -m repro.toolchain serve --fleet 2 --workers 1``
in its own processes (a router, 2 daemons, one pool worker each) with a
fresh shared cache per run and no quotas.  ``CLIENTS`` client threads of
this process each send their next request when the previous one
returns.

The request stream is built from a fixed catalog of ``compile``,
``link``, ``run`` and ``explain`` requests over ``PROGRAMS`` at SCALE 1.
It opens with the whole catalog in seeded order, then repeats it in
seeded blocks.  In each block one request of every kind (op, mode,
variant) carries a nonce comment in its main source, so it must be
computed; with six programs that is one request in six.  The rest
repeat a key already sent and are served by the cache or by
coalescing.  The fresh requests of a block are for different programs
and shift every block, so every block costs the workers about the same
and every key is computed equally often.  The seed chooses the orders
and the nonces, never the catalog, so the deterministic metrics do not
depend on it.
"""

from __future__ import annotations

import bisect
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench import builds, core, layers

PROGRAMS = ("eqntott", "espresso", "mdljsp2", "fpppp", "shapes", "mixcall")
#: Programs whose ``run`` requests the catalog holds (all of them).
RUN_PROGRAMS = PROGRAMS
CLIENTS = 2
FLEET_ARGS = ("--fleet", "2", "--workers", "1")
OPS = ("compile", "link", "run", "explain")
ANNOUNCE = "fleet serving on "
#: Seconds to wait for the fleet to announce or to drain.
FLEET_TIMEOUT = 60.0
#: A fleet set-up takes about 2 s plus a drain, so three, not five.
SETUP_REPEATS = 3
#: p99 needs 1000 requests to leave 10 beyond it; a run on a slow host
#: goes on past ``--seconds`` until it has them, so the percentile holds.
MIN_REQUESTS = 1000
#: Seconds between host-speed samples during the loop (each takes
#: about 9 ms, so this costs about 3 % of one core).
SAMPLE_EVERY = 0.25
#: A request is scaled by the samples within this many seconds of its end.
SPEED_WINDOW = 1.0

LAYER_METRICS = (
    "serve.client_ms", "serve.router_ms", "serve.daemon_ms",
    *(f"serve.{hop}.{op}_ms" for hop in ("client", "router", "daemon") for op in OPS),
    "serve.client_hop_ms", "serve.router_hop_ms", "serve.cache_probe_ms",
    "serve.cache_hits", "serve.coalesced", "serve.computed", "serve.rejected",
    "serve.failed", "serve.reuse_ratio", "serve.worker_compile_ms",
    "serve.worker_link_ms", "serve.worker_run_ms", "serve.pool_wait_ms",
    "op.wall_ms", "op.residual_ms", "trace.overhead_pct",
)

_STAGES = ("canonicalize", "coalesce", "cache_probe", "admit", "execute")


@dataclass(frozen=True)
class Key:
    """One catalog entry: what a request asks for, minus any nonce."""

    op: str
    program: str
    mode: str = "each"
    variant: str | None = None

    def __str__(self) -> str:
        return ":".join(p for p in (self.op, self.program, self.mode, self.variant) if p)


@dataclass
class Config:
    programs: tuple = PROGRAMS


def catalog(config: Config) -> list[Key]:
    keys = []
    for program in config.programs:
        keys += [Key("compile", program, mode) for mode in core.MODES]
        keys += [Key("link", program, "each", v) for v in core.LINK_VARIANTS]
        keys += [Key("run", program, "each", v) for v in ("ld", "om-full")]
        keys.append(Key("explain", program, "each", "om-full"))
    return keys


def request_stream(keys: list[Key], seed: int):
    """Endless ``(key, nonce)`` stream; ``nonce`` is None for a reuse."""
    rng = random.Random(f"serve-mix-{seed}")
    first = list(keys)
    rng.shuffle(first)
    for key in first:
        yield key, None
    programs = sorted({key.program for key in keys})
    rng.shuffle(programs)
    kinds = sorted({(key.op, key.mode, key.variant or "") for key in keys})
    block = 0
    while True:
        # One fresh request of every kind, each for a different program,
        # shifted every block: each block costs the workers about the same.
        fresh = {
            Key(op, programs[(block + i) % len(programs)], mode, variant or None)
            for i, (op, mode, variant) in enumerate(kinds)
        }
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            yield key, (f"{seed}.{block}" if key in fresh else None)
        block += 1


def request_params(key: Key, sources: dict, nonce: str | None) -> dict:
    pairs = [list(pair) for pair in sources[key.program]]
    if nonce is not None:
        pairs[0][1] += f"\n/* nonce {nonce} */\n"
    params = {"sources": pairs, "mode": key.mode}
    if key.variant is not None:
        params["variant"] = key.variant
    return params


# -- the fleet -------------------------------------------------------------------


class Fleet:
    """One ``serve --fleet`` subprocess tree and its output pump."""

    def __init__(self, work_dir, name: str, trace_dir=None):
        self.cache_dir = work_dir / f"cache-{name}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        argv = [sys.executable, "-m", "repro.toolchain", "serve", *FLEET_ARGS,
                "--port", "0", "--cache-dir", str(self.cache_dir)]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        self.lines: queue.Queue = queue.Queue()
        self.output: list[str] = []
        self.process = subprocess.Popen(
            argv, cwd=core.ROOT, env=core.subprocess_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        self.address = None
        self.address = self._await_announce()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def _await_announce(self) -> tuple[str, int]:
        deadline = time.monotonic() + FLEET_TIMEOUT
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("fleet did not announce:\n" + "".join(self.output))
            if line.startswith(ANNOUNCE):
                host, _, port = line[len(ANNOUNCE):].split()[0].rpartition(":")
                return host, int(port)

    def stop(self) -> None:
        """Drain the fleet; kill its process tree if it does not exit."""
        from repro.serve.client import ServeClient, ServeError

        if self.process.poll() is None:
            if self.address is None:
                self.process.terminate()
            else:
                try:
                    with ServeClient(self.address, timeout=FLEET_TIMEOUT,
                                     retries=0) as client:
                        client.shutdown()
                except (ServeError, OSError):
                    self.process.terminate()
        try:
            self.process.wait(timeout=FLEET_TIMEOUT)
        except subprocess.TimeoutExpired:
            for pid in _descendants(self.process.pid) + [self.process.pid]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.process.wait()
        self._pump.join(timeout=FLEET_TIMEOUT)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, from ``/proc`` parent links."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _start_warm(work_dir, name: str, sources: dict, trace_dir=None) -> Fleet:
    """Spawn a fleet and compute one request on every daemon."""
    from repro.serve.client import ServeClient

    fleet = Fleet(work_dir, name, trace_dir)
    try:
        with ServeClient(fleet.address, timeout=FLEET_TIMEOUT) as client:
            for attempt in range(32):
                key = Key("link", "mixcall", "each", "ld")
                client.link(**request_params(key, sources, f"warm-{attempt}"))
                daemons = client.status()["daemons"].values()
                if all(d["status"]["counters"]["computed"] for d in daemons):
                    return fleet
        raise RuntimeError("warm-up never reached every daemon")
    except BaseException:
        fleet.stop()
        raise


# -- the closed loop ---------------------------------------------------------------


class _Feed:
    """Hands the next request of the stream to whichever client asks.

    The run ends after ``seconds`` once ``min_requests`` were sent, and
    at the latest after three times ``seconds``.
    """

    def __init__(self, keys, seed: int, seconds: float, min_requests: int):
        self._stream = request_stream(keys, seed)
        self._lock = threading.Lock()
        now = time.perf_counter()
        self._deadline = now + seconds
        self._cap = now + 3 * seconds
        self._min = min_requests
        self.sent = 0

    def next(self):
        with self._lock:
            now = time.perf_counter()
            if now >= self._cap or (now >= self._deadline and self.sent >= self._min):
                return None
            self.sent += 1
            return next(self._stream)


def _client_loop(address, feed: _Feed, seed, index, sources, out, trace):
    from repro.serve.client import ServeClient, ServeError

    rng = random.Random(f"serve-mix-client-{seed}-{index}")
    with ServeClient(address, timeout=FLEET_TIMEOUT * 5, retries=8, rng=rng,
                     trace=trace) as client:
        while (item := feed.next()) is not None:
            key, nonce = item
            params = request_params(key, sources, nonce)
            start = time.perf_counter()
            try:
                reply = client.request(key.op, **params)
            except ServeError as exc:
                end = time.perf_counter()
                out.append((end, core.OpSample(str(key), key.op, end - start, False,
                                               f"{type(exc).__name__}: {exc}")))
                continue
            end = time.perf_counter()
            out.append((end, core.OpSample(
                str(key), key.op, end - start,
                out={"result": reply["result"], "fresh": nonce is not None,
                     "cached": bool(reply.get("cached")),
                     "coalesced": bool(reply.get("coalesced"))})))


def _drive(fleet: Fleet, keys, seed, seconds, sources, host, *,
           min_requests: int = 0, trace=None):
    """Run the closed loop for ``seconds``: ``(samples, elapsed, factor)``.

    This thread samples the host's speed through the loop, and each
    request's time is scaled to nominal speed by the samples taken
    within ``SPEED_WINDOW`` of its end; ``factor`` is the run's overall
    slowdown.  The fleet's own load slows the samples too, but the
    closed loop keeps that load the same from run to run, so it shifts
    every run alike.
    """
    feed = _Feed(keys, seed, seconds, min_requests)
    start = time.perf_counter()
    outs = [[] for _ in range(CLIENTS)]
    threads = [
        # Daemon threads: an interrupted run exits without waiting on them.
        threading.Thread(target=_client_loop, daemon=True, args=(
            fleet.address, feed, seed, i, sources, outs[i], trace))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    stamps, durations = [], []
    while any(thread.is_alive() for thread in threads):
        host.sample()
        stamps.append(time.perf_counter())
        durations.append(host.samples[-1])
        time.sleep(SAMPLE_EVERY)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    # Each request is scaled by the host speed sampled around its end.
    samples = []
    for end, sample in (item for out in outs for item in out):
        near = durations[bisect.bisect_left(stamps, end - SPEED_WINDOW):
                         bisect.bisect_right(stamps, end + SPEED_WINDOW)]
        reference = statistics.median(near or durations)
        sample.norm_s = sample.wall_s * core.REFERENCE_NOMINAL_S / reference
        samples.append(sample)
    return samples, elapsed, 1.0 / core.nominal_scale(samples)


def _status(fleet: Fleet) -> dict:
    from repro.serve.client import ServeClient

    with ServeClient(fleet.address, timeout=FLEET_TIMEOUT) as client:
        return client.status()


# -- checks and metrics ------------------------------------------------------------


def _check(samples, ctx, ledger: core.DriftLedger) -> dict:
    """Mark failed samples; returns the reference result per key."""
    reference: dict[str, dict] = {}
    expected: dict[str, str] = {}
    for sample in samples:
        if not sample.ok:
            continue
        result = sample.out["result"]
        key = sample.op
        if reference.setdefault(key, result) != result:
            sample.fail("reply differs from the first reply for the same key")
        if not ledger.check(f"serve-mix:{key}", core.digest(result)):
            sample.fail("deterministic reply drifted")
        op, program = key.split(":")[:2]
        if op == "run":
            if program not in expected:
                expected[program] = core.load_expected(
                    ctx.expected_dir, program, "each", core.RUN_SCALE)
            if result.get("output") != expected[program]:
                sample.fail("run output differs from expected file")
        if op == "explain" and not result.get("reconciled"):
            sample.fail("explain provenance does not reconcile")
    return reference


def _deterministic(reference: dict[str, dict], keys) -> dict:
    before = {}
    for name, result in reference.items():
        if "addr_loads_before" in result:
            before[name.split(":")[1]] = result["addr_loads_before"]
    text = gat = addr = cycles = 0
    for key in keys:
        result = reference.get(str(key))
        if result is None or key.op == "compile":
            continue
        text += result["text_bytes"]
        gat += result["gat_bytes"]
        addr += result.get("addr_loads_after", before.get(key.program, 0))
        cycles += result.get("cycles", 0)
    return {"text_bytes": text, "gat_bytes": gat, "addr_loads": addr,
            "sim_cycles": cycles}


def _latency_sums(status: dict) -> dict[tuple[str, str], tuple[int, float]]:
    """``{(hop, op): (count, total_ms)}`` for the router and the daemon sum."""
    sums = {}
    router = status["router"]["latency"]
    for op, summary in router.items():
        sums["router", op] = (summary["count"], summary.get("mean_ms", 0.0) * summary["count"])
    for daemon in status["daemons"].values():
        for op, summary in daemon["status"]["latency"].items():
            count, total = sums.get(("daemon", op), (0, 0.0))
            sums["daemon", op] = (count + summary["count"],
                                  total + summary.get("mean_ms", 0.0) * summary["count"])
    return sums


def _status_metrics(before: dict, after: dict, samples) -> dict:
    metrics = {}
    b, a = _latency_sums(before), _latency_sums(after)
    for hop in ("router", "daemon"):
        count = total = 0.0
        for op in OPS:
            n = a[hop, op][0] - b[hop, op][0]
            ms = a[hop, op][1] - b[hop, op][1]
            metrics[f"serve.{hop}.{op}_ms"] = ms / n if n else 0.0
            count += n
            total += ms
        metrics[f"serve.{hop}_ms"] = total / count if count else 0.0
    for op in OPS:
        walls = [s.wall_s for s in samples if s.kind == op]
        metrics[f"serve.client.{op}_ms"] = 1e3 * core.mean(walls)
    metrics["serve.client_ms"] = 1e3 * core.mean(s.wall_s for s in samples)
    metrics["serve.client_hop_ms"] = metrics["serve.client_ms"] - metrics["serve.router_ms"]
    metrics["serve.router_hop_ms"] = metrics["serve.router_ms"] - metrics["serve.daemon_ms"]
    counters = {k: after["counters"].get(k, 0) - before["counters"].get(k, 0)
                for k in ("cache_hits", "coalesced", "computed", "rejected",
                          "failed", "completed")}
    for name in ("cache_hits", "coalesced", "computed", "rejected", "failed"):
        metrics[f"serve.{name}"] = counters[name]
    metrics["serve.reuse_ratio"] = (
        (counters["cache_hits"] + counters["coalesced"]) / counters["completed"]
        if counters["completed"] else 0.0)
    return metrics


def _trace_metrics(trace_dir) -> tuple[dict, list[dict], dict]:
    """Stage and worker metrics from the fleet's merged trace sinks."""
    from repro.obs.merge import merge_traces, request_index

    merged = merge_traces([trace_dir])
    by_request = request_index(merged)
    spans = [e for e in merged.events if e.get("ph") == "X"]

    def mean_ms(name):
        return core.mean(e["dur"] for e in spans if e["name"] == name) / 1e3

    metrics = {"serve.cache_probe_ms": mean_ms("serve.cache_probe")}
    for stage in ("compile", "link", "run"):
        metrics[f"serve.worker_{stage}_ms"] = mean_ms(f"worker.stage.{stage}")
    # Self seconds per hop: each span minus the spans nested in it.
    totals: dict[str, float] = {}
    waits, residuals = [], []

    def add(name, micros):
        totals[name] = totals.get(name, 0.0) + micros / 1e6

    for events in by_request.values():
        def dur(names):
            return sum(e["dur"] for e in events if e["name"] in names)

        daemon = dur({f"serve.{op}" for op in OPS})
        stages = dur({f"serve.{s}" for s in _STAGES})
        execute = dur({"serve.execute"})
        worker = dur({f"worker.{op}" for op in OPS})
        worker_stages = dur({f"worker.stage.{s}" for s in ("compile", "link", "run")})
        for stage in _STAGES:
            if stage != "execute":
                add(f"serve.{stage}", dur({f"serve.{stage}"}))
        for stage in ("compile", "link", "run"):
            add(f"worker.stage.{stage}", dur({f"worker.stage.{stage}"}))
        if daemon:
            residuals.append((daemon - stages) / 1e3)
            add("serve.daemon", daemon - stages)
        if execute and worker:
            waits.append((execute - worker) / 1e3)
        add("serve.execute", execute - worker)
        add("worker.job", worker - worker_stages)
    metrics["serve.pool_wait_ms"] = core.mean(waits)
    metrics["op.residual_ms"] = core.mean(residuals)
    return metrics, merged.events, totals


def run(ctx: core.RunContext, config: Config | None = None) -> core.WorkloadResult:
    from repro.cache import compute_toolchain_stamp
    from repro.obs.trace import TraceLog

    config = config or Config()
    keys = catalog(config)
    sources = {p: builds.sources_for(p, core.RUN_SCALE) for p in config.programs}
    work_dir = ctx.out_dir / f"work-{ctx.tag}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    fleets: list[Fleet] = []
    stamp = compute_toolchain_stamp()
    ledger = core.DriftLedger(ctx.out_dir, stamp)
    untraced: list[core.OpSample] = []
    host = core.HostSpeed()
    setup_raw, setup_norm = [], []
    try:
        # Each set-up spawns and warms a fresh fleet; only the last is kept.
        for rep in range(SETUP_REPEATS):
            while fleets:
                fleets.pop().stop()
            host.sample(3)
            start = time.perf_counter()
            fleets.append(_start_warm(work_dir, f"setup{rep}", sources))
            setup_raw.append(time.perf_counter() - start)
            setup_norm.append(setup_raw[-1] / host.factor())
        fleet = fleets[0]
        budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
        before = _status(fleet)
        samples, elapsed, factor = _drive(
            fleet, keys, ctx.seed, budget, sources, host,
            min_requests=0 if ctx.trace else MIN_REQUESTS)
        after = _status(fleet)
        fleets.pop().stop()
        if ctx.trace:
            untraced = samples
            trace_dir = work_dir / "trace"
            fleets.append(_start_warm(work_dir, "traced", sources, trace_dir))
            fleet = fleets[0]
            client_trace = TraceLog()
            before = _status(fleet)
            samples, elapsed, factor = _drive(fleet, keys, ctx.seed, budget, sources,
                                              host, trace=client_trace)
            after = _status(fleet)
            fleets.pop().stop()
    finally:
        while fleets:
            fleets.pop().stop()
    rss_mb = core.children_rss_mb()

    everything = untraced + samples
    reference = _check(everything, ctx, ledger)
    ledger.save()
    failed = sum(1 for s in everything if not s.ok)
    fresh = [s for s in samples if s.ok and s.out["fresh"]]
    reused = [s for s in samples if s.ok and not s.out["fresh"]]
    report = {
        "workload": ctx.workload, "seed": ctx.seed, "stamp": stamp,
        "inputs": {
            "programs": core.digest(sources),
            "stream": core.digest([[str(k), n] for k, n in _prefix(keys, ctx.seed, 2000)]),
        },
        "setup_raw_s": setup_raw, "setup_s": setup_norm, "import_s": ctx.import_s,
        "host_factor": factor, "elapsed_s": elapsed,
        "catalog": len(keys),
        "shares": {
            "fresh": len(fresh) / max(1, len(samples)),
            "cached": sum(s.out["cached"] for s in reused) / max(1, len(samples)),
            "coalesced": sum(s.out["coalesced"] for s in samples if s.ok) / max(1, len(samples)),
            "fresh_p50_ms": 1e3 * statistics.median(s.wall_s for s in fresh) if fresh else 0.0,
            "reuse_p50_ms": 1e3 * statistics.median(s.wall_s for s in reused) if reused else 0.0,
        },
        "drifts": ledger.drifts[:10], **core.failure_summary(everything),
    }
    if ctx.trace:
        metrics = _status_metrics(before, after, samples)
        trace_metrics, events, totals = _trace_metrics(trace_dir)
        metrics.update(trace_metrics)
        metrics["op.wall_ms"] = metrics["serve.client_ms"]
        n = len(samples)
        totals["serve.client_hop"] = metrics["serve.client_hop_ms"] * n / 1e3
        totals["serve.router_hop"] = metrics["serve.router_hop_ms"] * n / 1e3
        layers.write_artifacts(ctx, events + client_trace.events, totals, samples)
        report["self_time_s"] = totals
        metrics = core.to_nominal(metrics, samples)
        metrics["trace.overhead_pct"] = core.overhead_pct(samples, untraced)
    else:
        latency, info = core.latency_metrics(samples)
        report["latency"] = info
        metrics = {
            "setup_s": ctx.import_s + statistics.median(setup_norm),
            "ops_per_s": len(samples) / elapsed * factor,
            **latency,
            "success_ratio": 1.0 - failed / max(1, len(everything)),
            "peak_rss_mb": rss_mb,
            **_deterministic(reference, keys),
        }
    shutil.rmtree(work_dir, ignore_errors=True)
    correct = failed == 0 and not ledger.drifts
    return core.WorkloadResult(metrics, len(everything), failed, correct, report)


def _prefix(keys, seed, n):
    stream = request_stream(keys, seed)
    return [next(stream) for _ in range(n)]

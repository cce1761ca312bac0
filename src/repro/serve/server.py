"""The toolchain daemon: an asyncio server over a process worker pool.

One event loop owns all I/O and all bookkeeping; CPU-bound toolchain
work (compile, link, simulate) runs on a ``ProcessPoolExecutor``.  A
request travels:

1. **canonicalize** — the payload is reduced to its content fields
   (``program`` names resolve to exact source texts here, on the
   server, so the key covers what will actually be built);
2. **coalesce** — a :class:`repro.cache.SingleFlight` keyed on the
   content digest merges identical in-flight requests: followers await
   the leader's flight future instead of spawning duplicate work;
3. **cache probe** — the leader consults the content-addressed disk
   cache (:class:`repro.cache.ArtifactCache`, kind ``serve``); a hit
   answers without touching the pool;
4. **admission** — a bounded count of in-pool jobs enforces
   backpressure: at the limit the server answers ``retry_after``
   instead of queueing unboundedly, and every follower of that flight
   receives the same hint;
5. **execute + publish** — the job runs in a worker, the result is
   written back to the cache, and all coalesced waiters complete.

Every counter, gauge and latency histogram lives in the daemon's
:class:`~repro.obs.metrics.MetricsRegistry`.  ``metrics`` answers the
daemon's identity with its registry snapshot (JSON and Prometheus
text); ``status`` is the identity plus
:func:`~repro.obs.metrics.render_status` of a snapshot, and its
counters satisfy ``completed == coalesced + cache_hits + computed``.
Draining (SIGTERM or a ``shutdown`` request) closes the listener, lets
in-flight dispatches finish, shuts the pool down, and flushes the
trace sink — no accepted request is dropped and no trailing span is
lost.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.cache import ArtifactCache, SingleFlight, compute_toolchain_stamp
from repro.obs.metrics import MetricsRegistry, render_status
from repro.obs.trace import TraceLog, now_us
from repro.serve import protocol, workers

#: Cache kind for serving-path job results.
CACHE_KIND = "serve"

#: Payload fields that participate in the content key, per op family.
_CONTENT_FIELDS = (
    "sources", "mode", "lang", "variant", "optimize", "schedule", "timed",
    "max_instructions", "backend",
)


@dataclass
class ServeConfig:
    """Daemon knobs; defaults suit a local build-farm node."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced/returned
    workers: int = 2  # process-pool size
    queue_limit: int = 16  # admitted-but-unfinished job ceiling
    retry_after: float = 0.05  # backpressure hint, seconds
    max_frame: int = protocol.MAX_FRAME
    run_budget: int = 200_000_000  # ceiling on per-run instruction budgets
    trace_flush_every: int = 64  # flush the trace sink every N events
    trace_dir: str | None = None  # per-pid worker JSONL sinks land here


class BusyError(Exception):
    """Admission refused: the job queue is full."""

    def __init__(self, retry_after: float):
        super().__init__(f"queue full; retry after {retry_after}s")
        self.retry_after = retry_after


class JobFailed(Exception):
    """The job ran and failed; carries the client-facing error."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


#: Serving-path counter names and help text, registered as
#: ``serve_<name>_total``; the identity the load generator reconciles
#: is ``completed == coalesced + cache_hits + computed``.
_COUNTER_HELP = {
    "requests": "every decoded request, admin included",
    "completed": "job requests answered ok",
    "failed": "job requests answered with an error",
    "rejected": "job requests answered retry-after",
    "coalesced": "completions served by joining another flight",
    "cache_hits": "completions served from the disk cache",
    "computed": "completions that ran in the worker pool",
    "cache_misses": "leader probes that missed the disk cache",
    "admitted": "jobs submitted to the worker pool",
    "bad_requests": "undecodable ops / malformed payloads",
}


class ToolchainServer:
    """One daemon instance: listener, flights, pool, counters."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        config: ServeConfig | None = None,
        *,
        trace: TraceLog | None = None,
        executor=None,
        job_runner=None,
    ):
        self.cache = cache
        self.config = config or ServeConfig()
        self.trace = trace
        # The daemon's toolchain stamp is fixed at construction — from
        # the cache (whose keys it must match) or computed fresh, never
        # the process-lifetime memoized ``toolchain_stamp()``.  It is
        # threaded to every pool worker and reported by ``status`` so
        # an operator can tell which toolchain version a long-lived
        # daemon is actually serving.
        self.stamp = (
            cache.stamp if cache is not None else compute_toolchain_stamp()
        )
        self.flights = SingleFlight()
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"serve_{name}_total", help)
            for name, help in _COUNTER_HELP.items()
        }
        self.latency = {
            op: self.metrics.histogram(
                "serve_request_seconds",
                "request latency by op, log-bucketed",
                op=op,
            )
            for op in protocol.JOB_OPS
        }
        self.stop_event = asyncio.Event()
        self.draining = False
        self._active_jobs = 0  # admitted, still in the pool
        self._pending = 0  # dispatches started, response not yet built
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = executor
        self._own_executor = executor is None
        self._job_runner = job_runner or workers.execute_job
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._started = time.monotonic()
        self._minted_ids = 0  # request_ids minted for clients that sent none
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Sampled gauges: live server state read at collection time."""
        gauge = self.metrics.gauge
        gauge("serve_queue_depth", "jobs admitted but waiting for a worker",
              fn=self.queue_depth)
        gauge("serve_active_jobs", "jobs admitted, still in the pool",
              fn=lambda: self._active_jobs)
        gauge("serve_uptime_seconds", "seconds since server construction",
              fn=lambda: time.monotonic() - self._started)
        gauge("serve_draining", "1 while the server refuses new work",
              fn=lambda: int(self.draining))
        gauge("serve_flights_started", "single-flight leaders opened",
              fn=lambda: self.flights.started)
        gauge("serve_flights_coalesced", "callers that joined a flight",
              fn=lambda: self.flights.coalesced)
        if self.cache is not None:
            stats = self.cache.stats
            gauge("serve_cache_disk_hits", "event-loop disk-cache hits",
                  fn=lambda: stats.total_hits)
            gauge("serve_cache_disk_misses", "event-loop disk-cache misses",
                  fn=lambda: stats.total_misses)
            gauge("serve_cache_disk_errors",
                  "disk-cache reads failed for non-ENOENT reasons",
                  fn=lambda: stats.total_errors)
            gauge("serve_cache_disk_quarantines",
                  "torn/corrupt entries quarantined on read",
                  fn=lambda: stats.total_quarantines)

    def _count(self, name: str) -> None:
        self._counters[name].inc()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener and spin up the pool: (host, port)."""
        if self._executor is None:
            # Spawned, not forked: pool workers are created lazily, after
            # the listener binds, and a forked worker would inherit the
            # listening socket — a SIGKILL'd daemon would then leave an
            # orphan holding its port open (connects succeed, nothing
            # answers), which is exactly the hang a fleet router must
            # never see from a dead backend.
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=workers.initialize_worker,
                initargs=(
                    str(self.cache.root) if self.cache is not None else None,
                    self.stamp,
                    self.config.trace_dir,
                ),
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        if self.trace is not None:
            self.trace.event(
                "serve.start", cat="serve", host=host, port=port,
                workers=self.config.workers, queue_limit=self.config.queue_limit,
            )
        return host, port

    async def drain(self) -> None:
        """Graceful stop: refuse new work, finish in-flight, flush."""
        if self.draining:
            await self._idle.wait()
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self._own_executor and self._executor is not None:
            pool = self._executor
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True)
            )
        for writer in list(self._writers):
            writer.close()
        if self.trace is not None:
            self.trace.event(
                "serve.drained", cat="serve", **self.status()["counters"]
            )
            self.trace.close()

    # -- per-connection loop ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    message = await protocol.read_frame(
                        reader, max_frame=self.config.max_frame
                    )
                except protocol.FrameTooLarge as exc:
                    # The refused body was never buffered, but the stream
                    # position is now meaningless: answer and hang up.
                    self._count("bad_requests")
                    await protocol.write_frame(
                        writer,
                        protocol.error_response(None, "frame-too-large", str(exc)),
                    )
                    break
                except protocol.ProtocolError:
                    self._count("bad_requests")
                    break  # undecodable stream; nothing sane to answer
                if message is None:
                    break
                response = await self._dispatch(message)
                await protocol.write_frame(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; its flights keep running for others
        finally:
            self._writers.discard(writer)
            writer.close()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, message: dict) -> dict:
        self._count("requests")
        rid = message.get("id")
        op = message.get("op")
        if op == "status":
            return protocol.ok_response(rid, self.status())
        if op == "metrics":
            return protocol.ok_response(rid, self.metrics_payload())
        if op == "shutdown":
            self.stop_event.set()
            return protocol.ok_response(rid, {"draining": True})
        if op not in protocol.JOB_OPS:
            self._count("bad_requests")
            return protocol.error_response(rid, "bad-request", f"unknown op {op!r}")
        if self.draining:
            return protocol.error_response(rid, "draining", "server is draining")

        # Accounting identity only — never part of the content key, so
        # tenants share cache entries and flights.
        tenant = str(message.get("tenant") or "anon")

        # The correlation id the client minted; requests without one
        # still get server-side correlation under a server-minted id.
        request_id = message.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            self._minted_ids += 1
            request_id = f"srv:{os.getpid()}:{self._minted_ids}"

        canon_start = now_us()
        try:
            payload = self._canonical_payload(op, message)
        except ValueError as exc:
            self._count("bad_requests")
            return protocol.error_response(rid, "bad-request", str(exc))
        finally:
            self._stage_span("canonicalize", canon_start, request_id, op=op)

        self._pending += 1
        self._idle.clear()
        started = time.monotonic()
        started_us = now_us()
        try:
            result, cached, coalesced = await self._job(op, payload, request_id)
        except BusyError as exc:
            self._count("rejected")
            self._tenant_inc("rejected", tenant)
            return protocol.busy_response(rid, exc.retry_after)
        except JobFailed as exc:
            self._count("failed")
            self._tenant_inc("failed", tenant)
            return protocol.error_response(rid, exc.kind, str(exc))
        finally:
            self._pending -= 1
            duration = time.monotonic() - started
            self._record_span(op, started_us, duration, request_id)
            if not self._pending:
                self._idle.set()
        self.latency[op].observe(duration)
        self._count("completed")
        self._tenant_inc("completed", tenant)
        if coalesced:
            self._count("coalesced")
        elif cached:
            self._count("cache_hits")
        else:
            self._count("computed")
        return protocol.ok_response(rid, result, cached=cached, coalesced=coalesced)

    def _stage_span(self, stage: str, start_us: float, request_id: str, **args):
        """One pipeline-stage span (externally timed: the event loop
        interleaves requests, so context-manager spans would nest
        across unrelated requests)."""
        if self.trace is None:
            return
        self.trace.add_span(
            f"serve.{stage}",
            start_us,
            now_us(),
            cat="serve-stage",
            request_id=request_id,
            **args,
        )

    def _record_span(
        self, op: str, started_us: float, duration: float, request_id: str
    ) -> None:
        if self.trace is None:
            return
        self.trace.add_span(
            f"serve.{op}",
            started_us,
            started_us + duration * 1e6,
            cat="serve",
            request_id=request_id,
            queue_depth=self.queue_depth(),
        )
        if self.trace.unflushed >= self.config.trace_flush_every:
            self.trace.flush()

    def _canonical_payload(self, op: str, message: dict) -> dict:
        """The content fields of a request, with programs resolved.

        Name-based requests (``program``/``scale``) expand to the exact
        source texts *before* keying, so editing a benchmark source is
        a cache miss — same discipline as the experiments cache.
        """
        payload = {
            key: message[key] for key in _CONTENT_FIELDS if key in message
        }
        if "program" in message:
            if "sources" in message:
                raise ValueError("request names both 'program' and 'sources'")
            payload["sources"] = _program_sources(
                message["program"], message.get("scale")
            )
        sources = payload.get("sources")
        if (
            not isinstance(sources, list)
            or not sources
            or not all(
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(isinstance(part, str) for part in pair)
                for pair in sources
            )
        ):
            raise ValueError("payload needs 'sources' [[name, text], ...] "
                             "or a 'program' name")
        payload["sources"] = [list(pair) for pair in sources]
        if op == "run":
            budget = int(payload.get("max_instructions")
                         or workers.DEFAULT_RUN_BUDGET)
            payload["max_instructions"] = min(budget, self.config.run_budget)
        return payload

    # -- the job path ------------------------------------------------------

    def _key(self, op: str, payload: dict) -> str:
        content = {"artifact": CACHE_KIND, "op": op, **payload}
        if self.cache is not None:
            return self.cache.key(content)
        # No disk cache: still coalesce, keyed on the canonical JSON.
        return json.dumps(content, sort_keys=True, separators=(",", ":"))

    async def _job(self, op: str, payload: dict, request_id: str):
        """Resolve one job: returns ``(result, cached, coalesced)``."""
        key = self._key(op, payload)
        leader, flight = self.flights.begin(key)
        if not leader:
            # The follower's span covers the wait; the worker-side span
            # for the shared computation carries the *leader's* id —
            # that is the correct attribution, not a gap.
            wait_start = now_us()
            try:
                outcome = await asyncio.wrap_future(flight)
            finally:
                self._stage_span("coalesce", wait_start, request_id, op=op)
            return self._follow(outcome)
        try:
            result, cached = await self._compute(op, payload, key, request_id)
        except BusyError as exc:
            self.flights.finish(key, flight, ("busy", exc.retry_after))
            raise
        except JobFailed as exc:
            self.flights.finish(key, flight, ("failed", exc.kind, str(exc)))
            raise
        except BaseException:
            self.flights.fail(key, flight, JobFailed("internal", "leader crashed"))
            raise
        self.flights.finish(key, flight, ("ok", result))
        return result, cached, False

    @staticmethod
    def _follow(outcome):
        tag = outcome[0]
        if tag == "ok":
            return outcome[1], False, True
        if tag == "busy":
            raise BusyError(outcome[1])
        raise JobFailed(outcome[1], outcome[2])

    async def _compute(self, op: str, payload: dict, key: str, request_id: str):
        """Leader path: disk cache, then admission, then the pool."""
        loop = asyncio.get_running_loop()
        if self.cache is not None:
            probe_start = now_us()
            data = await loop.run_in_executor(
                None, self.cache.get, CACHE_KIND, key
            )
            self._stage_span(
                "cache_probe", probe_start, request_id,
                op=op, hit=data is not None,
            )
            if data is not None:
                return json.loads(data), True
        self._count("cache_misses")

        if self._active_jobs >= self.config.queue_limit:
            raise BusyError(self.config.retry_after)
        admit_start = now_us()
        self._active_jobs += 1
        self._count("admitted")
        self._stage_span(
            "admit", admit_start, request_id,
            op=op, active_jobs=self._active_jobs,
        )
        exec_start = now_us()
        try:
            outcome = await loop.run_in_executor(
                self._executor,
                self._job_runner,
                op,
                payload,
                {"request_id": request_id},
            )
        finally:
            self._active_jobs -= 1
            self._stage_span("execute", exec_start, request_id, op=op)
        if not outcome.get("ok"):
            error = outcome.get("error") or {}
            raise JobFailed(
                error.get("kind", "internal"), error.get("message", "job failed")
            )
        result = outcome["result"]
        if self.cache is not None:
            data = json.dumps(result, sort_keys=True).encode()
            await loop.run_in_executor(
                None, self.cache.put, CACHE_KIND, key, data
            )
        return result, False

    # -- per-tenant accounting ----------------------------------------------

    def _tenant_inc(self, kind: str, tenant: str) -> None:
        """One labeled per-tenant series per outcome kind.  Lazily
        registered (tenants are discovered from traffic); registration
        is idempotent on ``(name, labels)`` so this is one dict probe
        per request after the first."""
        self.metrics.counter(
            f"serve_tenant_{kind}_total",
            f"per-tenant job requests {kind}",
            tenant=tenant,
        ).inc()

    # -- introspection -----------------------------------------------------

    def queue_depth(self) -> int:
        """Jobs admitted but waiting for a free worker."""
        return max(0, self._active_jobs - self.config.workers)

    def identity(self) -> dict:
        """Which daemon answers: what travels beside its snapshot."""
        return {
            "pid": os.getpid(),
            "stamp": self.stamp,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
        }

    def status(self) -> dict:
        return daemon_status(self.identity(), self.metrics.to_dict())

    def metrics_payload(self) -> dict:
        """The ``metrics`` op: the identity and both exposition formats."""
        return {
            "identity": self.identity(),
            "json": self.metrics.to_dict(),
            "text": self.metrics.to_prometheus(),
        }


def daemon_status(identity: dict, snapshot: dict) -> dict:
    """A daemon's ``status``: its identity and the rendering of its
    registry snapshot (the fleet router builds each daemon's entry from
    a fanned-out ``metrics`` payload the same way)."""
    return {**identity, **render_status(snapshot, "serve")}


def _program_sources(name: str, scale) -> list[list[str]]:
    try:
        return [[fname, text] for fname, text in _cached_sources(name, scale)]
    except (ValueError, OSError) as exc:
        raise ValueError(str(exc)) from None


@functools.lru_cache(maxsize=256)
def _cached_sources(name: str, scale) -> tuple[tuple[str, str], ...]:
    from repro.benchsuite.suite import scaled_sources

    return tuple((fname, text) for fname, text in scaled_sources(name, scale))


# -- daemon entry ---------------------------------------------------------------


async def serve_main(
    config: ServeConfig,
    cache: ArtifactCache | None,
    trace: TraceLog | None = None,
    *,
    announce=print,
) -> int:
    """Run a daemon until SIGTERM/SIGINT or a ``shutdown`` request,
    then drain.  Announces ``serving on <host>:<port>`` so wrappers
    (and humans) can discover an ephemeral port."""
    import signal

    server = ToolchainServer(cache, config, trace=trace)
    host, port = await server.start()
    announce(f"serving on {host}:{port}")

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.stop_event.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support

    await server.stop_event.wait()
    announce("draining...")
    await server.drain()
    counters = server.status()["counters"]
    announce(
        f"drained: {counters['completed']} completed, "
        f"{counters['coalesced']} coalesced, "
        f"{counters['cache_hits']} cache hits, "
        f"{counters['rejected']} rejected, {counters['failed']} failed"
    )
    return 0


class ServerThread:
    """A daemon embedded in the current process on a dedicated thread.

    The load generator's default mode and the serving-path tests use
    this to get a real TCP server — real framing, real coalescing,
    real worker pool — without managing a subprocess.  ``start()``
    blocks until the listener is bound and returns ``(host, port)``;
    ``stop()`` requests a drain and joins the thread.  Also usable as a
    context manager.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        config: ServeConfig | None = None,
        *,
        trace: TraceLog | None = None,
        executor=None,
        job_runner=None,
    ):
        self._kwargs = dict(
            cache=cache, config=config, trace=trace,
            executor=executor, job_runner=job_runner,
        )
        self.server: ToolchainServer | None = None
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not come up")
        if self._failure is not None:
            raise RuntimeError("server thread failed") from self._failure
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    def __enter__(self) -> ServerThread:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface start() failures to the caller
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        kwargs = self._kwargs
        self.server = ToolchainServer(
            kwargs["cache"], kwargs["config"], trace=kwargs["trace"],
            executor=kwargs["executor"], job_runner=kwargs["job_runner"],
        )
        self._loop = asyncio.get_running_loop()
        self.address = await self.server.start()
        self._ready.set()
        await self.server.stop_event.wait()
        await self.server.drain()

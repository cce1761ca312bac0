"""The fleet front door: a consistent-hash content-aware router.

One asyncio event loop accepts client connections speaking the
daemon's frame protocol and forwards each job request to one of N
:class:`~repro.serve.server.ToolchainServer` daemons.  The routing
decision starts from a **consistent hash of the request's content
fields** — not round-robin.  Each key has two ring candidates: its
owner and the next distinct daemon clockwise.  A job goes to the
candidate with fewer jobs forwarded and not yet answered, the owner on
a tie (the power of two choices, in its consistent-hashing form), so
fresh work does not queue behind one daemon's busy worker while the
other's sits idle.  While any copy of a key is in flight the key is
**pinned** to the daemon it went to, so every identical in-flight
request still lands on the *same* daemon, where the daemon's
``SingleFlight`` coalesces them into one build exactly as it would
behind a single-daemon deployment: the coalescing win survives the
scale-out.  The daemons share one disk cache, so a key answered by its
second candidate is a cache hit at its owner afterwards.  Under light
load every key goes to its owner; distinct keys spread across the
ring's virtual nodes, and losing a daemon re-maps only that daemon's
slice (the consistent-hashing property the fleet's restart path leans
on).

A request travels: decode (a private copy; the bytes themselves are
relayed verbatim both ways, the frame ``id`` is preserved end-to-end
so nothing is re-encoded) → **tenant quota admission**
(:class:`~repro.serve.quota.QuotaManager`; over-quota answers
``retry_after`` with ``reason="quota"``) → **weighted fair queueing**
onto the router's bounded forwarding concurrency
(:class:`~repro.serve.quota.FairScheduler`) → **ring lookup** (pin,
else the less-loaded candidate) → **forward** over a per-daemon
connection pool.  Loads and pins live on the event loop: they are
taken before the forward's first ``await`` and released when the
attempt ends, whatever its outcome.  A daemon that dies mid-request is
marked down (ring slice re-mapped immediately, and a daemon off the
ring is never a candidate, so a key pinned to it picks again), the
request is retried once on the re-mapped ring, and only if no healthy
daemon remains does the client see a retryable ``reason="upstream"``
busy reply — never a hang, never a silent drop.

Admin ops fan out: ``status`` and ``metrics`` both fetch every healthy
daemon's registry snapshot (without its Prometheus text) and add them
up with :func:`~repro.obs.metrics.sum_snapshots`.  ``status`` renders the sum,
each daemon's own snapshot and the router's registry with
:func:`~repro.obs.metrics.render_status`; ``metrics`` answers the
snapshots and the router's own exposition.  ``route`` takes a job's
op (``job``) and content fields and answers which daemon owns the key
that job would get and its two ``candidates``, owner first (tests and
operators use it to aim requests); ``shutdown`` initiates the fleet
drain.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, render_status, sum_snapshots
from repro.obs.trace import TraceLog, now_us
from repro.serve import protocol
from repro.serve.quota import FairScheduler, QuotaManager
from repro.serve.server import daemon_status

#: Payload fields that participate in the routing key.  A superset of
#: the daemon's ``_CONTENT_FIELDS`` plus the name-based request form:
#: the router must not pay source resolution per request, and hashing
#: the unresolved fields still sends *identical* requests to one
#: daemon, which is all fleet-wide coalescing needs (the shared disk
#: cache already unifies a name-based and an expanded request).
ROUTE_FIELDS = (
    "sources", "program", "scale", "mode", "variant", "optimize",
    "schedule", "timed", "max_instructions", "backend",
)


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node owns ``replicas`` points on a 64-bit ring (SHA-256 of
    ``"slot#i"``); a key maps to the first point clockwise of its own
    hash.  Deterministic across processes and runs — the same fleet
    shape always routes the same keys the same way.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            hashlib.sha256(data.encode()).digest()[:8], "big"
        )

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            point = self._hash(f"{node}#{i}")
            # SHA-256 collisions across 64-bit prefixes are not a real
            # concern, but keep the mapping well-defined anyway.
            if point in self._owners:
                continue
            self._owners[point] = node
            bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for i in range(self.replicas):
            point = self._hash(f"{node}#{i}")
            if self._owners.get(point) == node:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def nodes(self) -> set[str]:
        return set(self._nodes)

    def nodes_for(self, key: str, count: int) -> list[str]:
        """Up to ``count`` distinct nodes met clockwise from the key's
        hash: its owner first, then the next distinct nodes in order."""
        points = self._points
        wanted = min(count, len(self._nodes))
        found: list[str] = []
        start = bisect.bisect_right(points, self._hash(key))
        for step in range(len(points)):
            if len(found) == wanted:
                break
            node = self._owners[points[(start + step) % len(points)]]
            if node not in found:
                found.append(node)
        return found

    def node_for(self, key: str) -> str | None:
        nodes = self.nodes_for(key, 1)
        return nodes[0] if nodes else None


def routing_key(message: dict) -> str:
    """The canonical content key the ring hashes for one request."""
    content = {
        key: message[key] for key in ROUTE_FIELDS if key in message
    }
    content["op"] = message.get("op")
    return json.dumps(content, sort_keys=True, separators=(",", ":"))


@dataclass
class RouterConfig:
    """Router knobs; defaults suit a local fleet."""

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 64  # ring virtual nodes per daemon
    max_inflight: int = 64  # forwarded-job concurrency (WFQ bound)
    queue_timeout: float = 120.0  # max WFQ wait before answering busy
    retry_after: float = 0.05  # busy hint when no better estimate exists
    pool_size: int = 8  # connections per daemon
    upstream_timeout: float = 600.0  # per-forward ceiling (hang fuse)
    admin_timeout: float = 10.0  # per-daemon status/metrics fan-out fuse
    max_frame: int = protocol.MAX_FRAME
    trace_flush_every: int = 256


class BackendError(Exception):
    """Forwarding to a daemon failed at the transport layer."""


_ROUTER_COUNTER_HELP = {
    "requests": "every decoded request, admin included",
    "completed": "job requests relayed with an ok response",
    "failed": "job requests relayed with an error response",
    "rejected": "job requests answered retry-after (all reasons)",
    "quota_rejected": "rejections by tenant quota (subset of rejected)",
    "relayed_busy": "daemon busy replies relayed (subset of rejected)",
    "upstream_errors": "forward attempts lost to a dead/dying daemon",
    "second_candidate": "forward attempts sent past the key's ring owner",
    "bad_requests": "undecodable frames / unknown ops",
}


class _Backend:
    """One daemon slot: its address, health, connection pool, and the
    jobs forwarded to it and not yet answered."""

    def __init__(self, slot: str, address: tuple[str, int], pool_size: int):
        self.slot = slot
        self.address = (address[0], int(address[1]))
        self.healthy = True
        self.inflight = 0
        self._pool_size = pool_size
        self._pool: asyncio.LifoQueue | None = None

    def _ensure_pool(self) -> asyncio.LifoQueue:
        if self._pool is None:
            self._pool = asyncio.LifoQueue()
            for _ in range(self._pool_size):
                self._pool.put_nowait(None)
        return self._pool

    def reset(self, address: tuple[str, int] | None = None) -> None:
        """Forget every pooled connection (after death or restart)."""
        if address is not None:
            self.address = (address[0], int(address[1]))
        pool = self._ensure_pool()
        drained = []
        while True:
            try:
                drained.append(pool.get_nowait())
            except asyncio.QueueEmpty:
                break  # in-flight holders will discard on failure
        for conn in drained:
            if conn is not None:
                conn[1].close()
            pool.put_nowait(None)

    async def close(self) -> None:
        """Close every pooled connection; the router has drained, so
        none is in flight."""
        pool = self._ensure_pool()
        writers = []
        while not pool.empty():
            conn = pool.get_nowait()
            if conn is not None:
                writers.append(conn[1])
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def roundtrip(
        self, body: bytes, *, max_frame: int, timeout: float
    ) -> bytes:
        """Forward one raw frame body, return the raw response body."""
        pool = self._ensure_pool()
        conn = await pool.get()
        try:
            if conn is None:
                reader, writer = await asyncio.open_connection(*self.address)
                conn = (reader, writer)
            reader, writer = conn
            writer.write(protocol.frame_bytes(body))
            await writer.drain()
            raw = await asyncio.wait_for(
                protocol.read_raw_frame(reader, max_frame=max_frame),
                timeout=timeout,
            )
            if raw is None:
                raise BackendError(f"{self.slot} closed before answering")
        except BackendError:
            writer = conn[1] if conn else None
            if writer is not None:
                writer.close()
            conn = None
            raise
        except (OSError, asyncio.TimeoutError, protocol.ProtocolError) as exc:
            if conn is not None:
                conn[1].close()
                conn = None
            raise BackendError(
                f"forward to {self.slot} failed: {type(exc).__name__}: {exc}"
            ) from None
        finally:
            pool.put_nowait(conn)
        return raw


class FleetRouter:
    """The two-candidate consistent-hash router in front of a daemon
    fleet."""

    def __init__(
        self,
        backends: dict[str, tuple[str, int]],
        config: RouterConfig | None = None,
        *,
        quotas: QuotaManager | None = None,
        trace: TraceLog | None = None,
        on_backend_down=None,
    ):
        self.config = config or RouterConfig()
        self.trace = trace
        self.quotas = quotas or QuotaManager(
            retry_after=self.config.retry_after
        )
        self.scheduler = FairScheduler(
            self.config.max_inflight, weight_for=self.quotas.weight
        )
        self.ring = HashRing(self.config.replicas)
        self.backends: dict[str, _Backend] = {}
        for slot, address in backends.items():
            self.backends[slot] = _Backend(
                slot, address, self.config.pool_size
            )
            self.ring.add(slot)
        # key -> [slot, copies in flight]: identical concurrent requests
        # meet in one daemon's SingleFlight whatever the loads do.
        self._pins: dict[str, list] = {}
        self._on_backend_down = on_backend_down
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"router_{name}_total", help)
            for name, help in _ROUTER_COUNTER_HELP.items()
        }
        self.latency = {
            op: self.metrics.histogram(
                "router_request_seconds",
                "relay latency by op, log-bucketed",
                op=op,
            )
            for op in protocol.JOB_OPS
        }
        self.metrics.gauge(
            "router_inflight", "jobs being forwarded right now",
            fn=lambda: self.scheduler.inflight,
        )
        self.metrics.gauge(
            "router_backlog", "admitted jobs queued for a forward slot",
            fn=self.scheduler.backlog,
        )
        self.metrics.gauge(
            "router_granted", "forward slots granted",
            fn=lambda: self.scheduler.granted,
        )
        self.metrics.gauge(
            "router_queued", "admitted jobs that waited for a forward slot",
            fn=lambda: self.scheduler.queued,
        )
        self.metrics.gauge(
            "router_healthy_backends", "daemons currently on the ring",
            fn=lambda: len(self.ring.nodes()),
        )
        self.stop_event = asyncio.Event()
        self.draining = False
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._started = time.monotonic()

    # -- counters ----------------------------------------------------------

    def _count(self, name: str) -> None:
        self._counters[name].inc()

    def _tenant_count(self, kind: str, tenant: str) -> None:
        self.metrics.counter(
            f"router_tenant_{kind}_total",
            f"per-tenant {kind} at the router",
            tenant=tenant,
        ).inc()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        if self.trace is not None:
            self.trace.event(
                "router.start", cat="router", host=host, port=port,
                backends=sorted(self.backends),
            )
        return host, port

    async def drain(self) -> None:
        """Stop admitting, finish in-flight relays, close the client
        and daemon connections, flush the trace.

        Daemons are NOT stopped here — the fleet supervisor owns their
        lifecycle and drains them after the router stops forwarding.
        """
        if self.draining:
            await self._idle.wait()
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        for writer in list(self._writers):
            writer.close()
        for backend in self.backends.values():
            await backend.close()
        if self.trace is not None:
            self.trace.event(
                "router.drained", cat="router",
                **render_status(self.metrics.to_dict(), "router")["counters"],
            )
            self.trace.close()

    # -- backend health ----------------------------------------------------

    def mark_down(self, slot: str) -> None:
        """Take a daemon off the ring (its slice re-maps immediately)."""
        backend = self.backends.get(slot)
        if backend is None or not backend.healthy:
            return
        backend.healthy = False
        self.ring.remove(slot)
        backend.reset()
        if self.trace is not None:
            self.trace.event("router.backend_down", cat="router", slot=slot)
        if self._on_backend_down is not None:
            self._on_backend_down(slot)

    def restore(self, slot: str, address: tuple[str, int]) -> None:
        """Put a (re)started daemon back on the ring at its old slice."""
        backend = self.backends.get(slot)
        if backend is None:
            backend = _Backend(slot, address, self.config.pool_size)
            self.backends[slot] = backend
        backend.reset(address)
        backend.healthy = True
        self.ring.add(slot)
        if self.trace is not None:
            self.trace.event(
                "router.backend_up", cat="router", slot=slot,
                address=list(address),
            )

    # -- per-connection loop -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    body = await protocol.read_raw_frame(
                        reader, max_frame=self.config.max_frame
                    )
                except protocol.FrameTooLarge as exc:
                    self._count("bad_requests")
                    await protocol.write_frame(
                        writer,
                        protocol.error_response(
                            None, "frame-too-large", str(exc)
                        ),
                    )
                    break
                except protocol.ProtocolError:
                    self._count("bad_requests")
                    break
                if body is None:
                    break
                response = await self._dispatch(body)
                writer.write(
                    response if isinstance(response, bytes)
                    else protocol.encode_frame(
                        response, max_frame=self.config.max_frame
                    )
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, body: bytes) -> bytes | dict:
        self._count("requests")
        try:
            message = protocol.decode_body(body)
        except protocol.ProtocolError as exc:
            self._count("bad_requests")
            return protocol.error_response(None, "bad-request", str(exc))
        rid = message.get("id")
        op = message.get("op")
        if op == "status":
            return protocol.ok_response(rid, await self.status())
        if op == "metrics":
            return protocol.ok_response(rid, await self.metrics_payload())
        if op == "route":
            # The key of the job the caller means to send, not of this
            # route request.
            job = message.get("job")
            if job not in protocol.JOB_OPS:
                self._count("bad_requests")
                return protocol.error_response(
                    rid, "bad-request", f"route needs a job op, got {job!r}"
                )
            key = routing_key({**message, "op": job})
            candidates = self.ring.nodes_for(key, 2)
            slot = candidates[0] if candidates else None
            backend = self.backends.get(slot) if slot else None
            return protocol.ok_response(rid, {
                "key_sha256": hashlib.sha256(key.encode()).hexdigest(),
                "slot": slot,
                "candidates": candidates,
                "address": list(backend.address) if backend else None,
            })
        if op == "shutdown":
            self.stop_event.set()
            return protocol.ok_response(rid, {"draining": True})
        if op not in protocol.JOB_OPS:
            self._count("bad_requests")
            return protocol.error_response(
                rid, "bad-request", f"unknown op {op!r}"
            )
        if self.draining:
            return protocol.error_response(rid, "draining", "fleet is draining")
        return await self._relay_job(body, message, rid, op)

    async def _relay_job(
        self, body: bytes, message: dict, rid, op: str
    ) -> bytes | dict:
        tenant = str(message.get("tenant") or "anon")
        request_id = message.get("request_id")
        self._tenant_count("requests", tenant)
        hint = self.quotas.try_admit(tenant)
        if hint is not None:
            self._count("rejected")
            self._count("quota_rejected")
            self._tenant_count("rejected", tenant)
            self._route_span(op, now_us(), request_id, tenant,
                             outcome="quota-rejected")
            return protocol.busy_response(rid, hint, reason="quota")
        self._pending += 1
        self._idle.clear()
        started = time.monotonic()
        started_us = now_us()
        try:
            try:
                await asyncio.wait_for(
                    self.scheduler.acquire(tenant),
                    timeout=self.config.queue_timeout,
                )
            except asyncio.TimeoutError:
                self._count("rejected")
                self._tenant_count("rejected", tenant)
                return protocol.busy_response(
                    rid, self.config.retry_after, reason="overload"
                )
            try:
                owner, slot, raw = await self._forward(
                    routing_key(message), body
                )
            finally:
                self.scheduler.release()
        except BackendError:
            self._count("rejected")
            self._tenant_count("rejected", tenant)
            self._route_span(op, started_us, request_id, tenant,
                             outcome="upstream-lost")
            return protocol.busy_response(
                rid, self.config.retry_after, reason="upstream"
            )
        finally:
            self.quotas.release(tenant)
            self._pending -= 1
            if not self._pending:
                self._idle.set()
        duration = time.monotonic() - started
        self.latency[op].observe(duration)
        outcome = json.loads(raw)
        if outcome.get("ok"):
            self._count("completed")
            self._tenant_count("completed", tenant)
            verdict = "ok"
        elif "retry_after" in outcome:
            self._count("rejected")
            self._count("relayed_busy")
            self._tenant_count("rejected", tenant)
            verdict = "busy"
        else:
            self._count("failed")
            self._tenant_count("failed", tenant)
            verdict = "failed"
        self._route_span(op, started_us, request_id, tenant,
                         outcome=verdict, owner=owner, slot=slot)
        if (
            self.trace is not None
            and self.trace.unflushed >= self.config.trace_flush_every
        ):
            self.trace.flush()
        return protocol.frame_bytes(raw)

    async def _forward(
        self, key: str, body: bytes
    ) -> tuple[str, str, bytes]:
        """Forward to the less-loaded of the key's two ring candidates,
        or to where a copy of the key is in flight; on death, re-map
        and retry once per remaining backend.  Answers the key's owner,
        the daemon that answered and its raw reply.  Raises
        :class:`BackendError` when no healthy daemon answers."""
        attempts = len(self.backends) + 1
        last: BackendError | None = None
        for _ in range(attempts):
            candidates = self.ring.nodes_for(key, 2)
            if not candidates:
                raise last or BackendError("no healthy backends")
            # Loads and pins are taken before the first await, so the
            # pick and its accounting are one step of the event loop.
            pin = self._pins.setdefault(key, [None, 0])
            if pin[0] is None or not self.backends[pin[0]].healthy:
                pin[0] = min(
                    candidates, key=lambda s: self.backends[s].inflight
                )
            pin[1] += 1
            slot = pin[0]
            if slot != candidates[0]:
                self._count("second_candidate")
            backend = self.backends[slot]
            backend.inflight += 1
            try:
                raw = await backend.roundtrip(
                    body,
                    max_frame=self.config.max_frame,
                    timeout=self.config.upstream_timeout,
                )
                return candidates[0], slot, raw
            except BackendError as exc:
                self._count("upstream_errors")
                self.mark_down(slot)
                last = exc
            finally:
                backend.inflight -= 1
                pin[1] -= 1
                if not pin[1]:
                    del self._pins[key]
        raise last or BackendError("no healthy backends")

    def _route_span(
        self, op, start_us, request_id, tenant, *, outcome, owner=None,
        slot=None,
    ) -> None:
        if self.trace is None:
            return
        args = {"tenant": tenant, "outcome": outcome}
        if request_id is not None:
            args["request_id"] = request_id
        if slot is not None:
            args["owner"] = owner
            args["slot"] = slot
        self.trace.add_span(
            f"serve.route.{op}", start_us, now_us(), cat="router", **args
        )

    # -- admin fan-out -----------------------------------------------------

    async def _admin(self, slot: str, op: str, params: dict) -> dict:
        backend = self.backends[slot]
        body = protocol.encode_frame(
            protocol.request(op, 0, **params), max_frame=self.config.max_frame
        )[4:]
        raw = await backend.roundtrip(
            body,
            max_frame=self.config.max_frame,
            timeout=self.config.admin_timeout,
        )
        response = json.loads(raw)
        if not response.get("ok"):
            raise BackendError(f"{slot} {op} answered {response!r}")
        return response["result"]

    async def _fan_out(self, op: str, **params) -> dict[str, dict]:
        """One admin op against every healthy daemon, concurrently."""
        slots = [s for s, b in self.backends.items() if b.healthy]
        results = await asyncio.gather(
            *(self._admin(slot, op, params) for slot in slots),
            return_exceptions=True,
        )
        out = {}
        for slot, result in zip(slots, results):
            if isinstance(result, BaseException):
                out[slot] = {"error": str(result)}
            else:
                out[slot] = result
        return out

    async def _snapshots(self) -> tuple[dict[str, dict], dict]:
        """Every healthy daemon's ``metrics`` snapshot payload by slot
        (no exposition text, which no fleet op reads), and the sum of
        the snapshots of those that answered."""
        fanned = await self._fan_out("metrics", text=False)
        total = sum_snapshots(
            payload["json"] for payload in fanned.values()
            if "error" not in payload
        )
        return fanned, total

    async def status(self) -> dict:
        fanned, total = await self._snapshots()
        stamp = next(
            (p["identity"]["stamp"] for p in fanned.values() if "error" not in p),
            None,
        )
        daemons = {}
        for slot, backend in sorted(self.backends.items()):
            payload = fanned.get(slot)
            if payload is not None and "error" not in payload:
                payload = daemon_status(payload["identity"], payload["json"])
            daemons[slot] = {
                "healthy": backend.healthy,
                "address": list(backend.address),
                "status": payload,
            }
        return {
            "role": "fleet",
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started,
            "draining": self.draining,
            "stamp": stamp,
            **render_status(total, "serve"),
            "daemons": daemons,
            "router": {
                **render_status(self.metrics.to_dict(), "router"),
                "quotas": self.quotas.snapshot(),
                "ring": {
                    "replicas": self.ring.replicas,
                    "healthy": sorted(self.ring.nodes()),
                    "slots": sorted(self.backends),
                },
            },
        }

    async def metrics_payload(self) -> dict:
        """Router exposition plus each daemon's snapshot and their sum."""
        fanned, total = await self._snapshots()
        return {
            "json": self.metrics.to_dict(),
            "text": self.metrics.to_prometheus(),
            "daemons": {
                slot: payload.get("json") for slot, payload in fanned.items()
            },
            "fleet": {
                "counters": [
                    series for series in total["metrics"]
                    if series["kind"] == "counter"
                ],
            },
        }


class RouterThread:
    """A router embedded on a dedicated thread (mirror of
    :class:`~repro.serve.server.ServerThread`): real TCP, real ring,
    real quotas, against whatever backends the caller provides —
    which is what lets the routing/quota semantics be tested over stub
    daemons without a subprocess fleet."""

    def __init__(
        self,
        backends: dict[str, tuple[str, int]],
        config: RouterConfig | None = None,
        *,
        quotas: QuotaManager | None = None,
        trace: TraceLog | None = None,
    ):
        self._kwargs = dict(
            backends=backends, config=config, quotas=quotas, trace=trace
        )
        self.router: FleetRouter | None = None
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-router", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("router thread did not come up")
        if self._failure is not None:
            raise RuntimeError("router thread failed") from self._failure
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self.router is not None:
            try:
                self._loop.call_soon_threadsafe(self.router.stop_event.set)
            except RuntimeError:
                pass
        self._thread.join(timeout)

    def call(self, fn, timeout: float = 30.0):
        """Run ``fn(router)`` on the router's loop (tests use this to
        poke health transitions deterministically)."""
        assert self._loop is not None and self.router is not None
        future = asyncio.run_coroutine_threadsafe(
            self._call(fn), self._loop
        )
        return future.result(timeout)

    async def _call(self, fn):
        return fn(self.router)

    def __enter__(self) -> RouterThread:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        kwargs = self._kwargs
        self.router = FleetRouter(
            kwargs["backends"], kwargs["config"],
            quotas=kwargs["quotas"], trace=kwargs["trace"],
        )
        self._loop = asyncio.get_running_loop()
        self.address = await self.router.start()
        self._ready.set()
        await self.router.stop_event.wait()
        await self.router.drain()

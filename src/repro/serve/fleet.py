"""The fleet supervisor: N toolchain daemons behind one router.

One process runs a single asyncio loop hosting the
:class:`~repro.serve.router.FleetRouter` and supervising N daemon
*subprocesses* (`python -m repro.toolchain serve`), each with its own
event loop and worker pool but all sharing **one on-disk cache root**
— the crash-consistent content-addressed :class:`~repro.cache.
ArtifactCache` is the fleet's serial truth: a result computed by any
daemon is a warm hit for every daemon, including one that just
restarted.

Supervision is deliberately simple and observable:

* each daemon owns a stable **slot** (``d0`` … ``dN-1``) whose ring
  points never change — a restarted daemon reclaims exactly the slice
  its predecessor served, so one death re-maps one slice, twice;
* a daemon is declared down either by the **health loop** (its process
  exited) or by the **router** (a forward failed mid-request, which is
  faster than any polling interval); both paths converge on the same
  restart task, which respawns the slot, waits for the ``serving on``
  announcement, and restores the slot on the ring;
* **drain** is ordered: the router stops admitting and finishes
  in-flight relays first, then every daemon is asked to drain (SIGTERM
  → its own graceful path), so no accepted request is dropped anywhere
  in the fleet.

With a trace directory configured, the router and every daemon write
JSONL sinks into it (``router.jsonl``, ``daemon-<slot>.jsonl``, plus
the daemons' per-pid worker sinks), so ``merge-trace`` over that one
directory reconstructs the full fleet timeline.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import render_status
from repro.obs.trace import TraceLog
from repro.serve.quota import QuotaManager, TenantPolicy, parse_policy
from repro.serve.router import FleetRouter, RouterConfig


@dataclass
class FleetConfig:
    """Fleet shape and daemon knobs (router knobs ride separately in
    :class:`~repro.serve.router.RouterConfig`)."""

    size: int = 2  # daemon count
    workers: int = 2  # process-pool size per daemon
    queue_limit: int = 16
    retry_after: float = 0.05
    run_budget: int = 200_000_000
    cache_dir: str | None = ".repro-cache"  # shared root; None = no cache
    trace_dir: str | None = None
    daemon_host: str = "127.0.0.1"
    health_interval: float = 0.25  # process-liveness poll period
    restart_backoff: float = 0.2  # pause before respawning a dead slot
    startup_timeout: float = 30.0  # per-daemon announce deadline
    quotas: dict[str, TenantPolicy] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"fleet size must be >= 1, got {self.size}")


class DaemonProcess:
    """One daemon subprocess: spawn, announce-parse, output pump."""

    def __init__(self, slot: str, config: FleetConfig):
        self.slot = slot
        self.config = config
        self.process: asyncio.subprocess.Process | None = None
        self.address: tuple[str, int] | None = None
        self._pump: asyncio.Task | None = None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None

    def _argv(self) -> list[str]:
        config = self.config
        argv = [
            sys.executable, "-m", "repro.toolchain", "serve",
            "--host", config.daemon_host,
            "--port", "0",
            "--workers", str(config.workers),
            "--queue-limit", str(config.queue_limit),
            "--retry-after", str(config.retry_after),
            "--run-budget", str(config.run_budget),
        ]
        if config.cache_dir is None:
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", config.cache_dir]
        if config.trace_dir is not None:
            trace_dir = Path(config.trace_dir)
            argv += [
                "--trace", str(trace_dir / f"daemon-{self.slot}.jsonl"),
                "--trace-dir", str(trace_dir),
            ]
        return argv

    async def start(self) -> tuple[str, int]:
        """Spawn and wait for the ``serving on host:port`` announcement."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        self.process = await asyncio.create_subprocess_exec(
            *self._argv(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        announced: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pump = asyncio.ensure_future(self._pump_output(announced))
        try:
            self.address = await asyncio.wait_for(
                announced, timeout=self.config.startup_timeout
            )
        except asyncio.TimeoutError:
            await self.stop(grace=0.0)
            raise RuntimeError(
                f"daemon {self.slot} never announced its port"
            ) from None
        return self.address

    async def _pump_output(self, announced: asyncio.Future) -> None:
        """Read the daemon's output forever; the first ``serving on``
        line resolves the announce future, the rest is kept flowing so
        the pipe can never fill and stall the daemon."""
        assert self.process is not None and self.process.stdout is not None
        prefix = "serving on "
        async for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace").strip()
            if not announced.done() and line.startswith(prefix):
                host, _, port = line[len(prefix):].rpartition(":")
                announced.set_result((host, int(port)))
        if not announced.done():
            announced.set_exception(
                RuntimeError(f"daemon {self.slot} exited before announcing")
            )

    async def stop(self, grace: float = 30.0) -> None:
        """SIGTERM (the daemon's graceful drain path), then SIGKILL."""
        process = self.process
        if process is None:
            return
        if process.returncode is None:
            try:
                process.terminate()
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(process.wait(), timeout=grace or 0.001)
            except asyncio.TimeoutError:
                try:
                    process.kill()
                except ProcessLookupError:
                    pass
                await process.wait()
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, RuntimeError):
                pass
            self._pump = None
        # Close the subprocess transport now, while the loop is alive —
        # otherwise its destructor fires after loop close and complains.
        transport = getattr(process, "_transport", None)
        if transport is not None:
            transport.close()


class FleetSupervisor:
    """Spawns the fleet, fronts it with a router, keeps it healthy."""

    def __init__(
        self,
        config: FleetConfig | None = None,
        router_config: RouterConfig | None = None,
        *,
        trace: TraceLog | None = None,
    ):
        self.config = config or FleetConfig()
        if trace is None and self.config.trace_dir is not None:
            trace_dir = Path(self.config.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace = TraceLog(sink=trace_dir / "router.jsonl")
        self.trace = trace
        self.daemons: dict[str, DaemonProcess] = {}
        self.router: FleetRouter | None = None
        self._router_config = router_config or RouterConfig()
        self.restarts: dict[str, int] = {}
        self._restarting: set[str] = set()
        self._health_task: asyncio.Task | None = None
        self._restart_tasks: set[asyncio.Task] = set()
        self.stop_event = asyncio.Event()

    async def start(self) -> tuple[str, int]:
        """Spawn every daemon, then bind the router: (host, port)."""
        config = self.config
        slots = [f"d{i}" for i in range(config.size)]
        daemons = [DaemonProcess(slot, config) for slot in slots]
        try:
            addresses = await asyncio.gather(
                *(daemon.start() for daemon in daemons)
            )
        except BaseException:
            await asyncio.gather(
                *(daemon.stop(grace=0.0) for daemon in daemons),
                return_exceptions=True,
            )
            raise
        self.daemons = dict(zip(slots, daemons))
        backends = dict(zip(slots, addresses))
        self.router = FleetRouter(
            backends,
            self._router_config,
            quotas=QuotaManager(
                config.quotas, retry_after=self._router_config.retry_after
            ),
            trace=self.trace,
            on_backend_down=self._backend_down,
        )
        address = await self.router.start()
        self._health_task = asyncio.ensure_future(self._health_loop())
        return address

    # -- health ------------------------------------------------------------

    def _backend_down(self, slot: str) -> None:
        """Router noticed a dead daemon mid-request (faster than any
        poll): converge on the same restart path the health loop uses."""
        self._schedule_restart(slot)

    def _schedule_restart(self, slot: str) -> None:
        if self.stop_event.is_set() or slot in self._restarting:
            return
        self._restarting.add(slot)
        task = asyncio.ensure_future(self._restart(slot))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, slot: str) -> None:
        assert self.router is not None
        try:
            self.router.mark_down(slot)
            old = self.daemons[slot]
            await old.stop(grace=0.0)  # reap; it is already dead or doomed
            await asyncio.sleep(self.config.restart_backoff)
            if self.stop_event.is_set():
                return
            fresh = DaemonProcess(slot, self.config)
            try:
                address = await fresh.start()
            except BaseException:
                await fresh.stop(grace=0.0)  # no half-started orphans
                raise
            self.daemons[slot] = fresh
            self.restarts[slot] = self.restarts.get(slot, 0) + 1
            self.router.restore(slot, address)
        finally:
            self._restarting.discard(slot)

    async def _health_loop(self) -> None:
        """Declare a slot down the moment its process has exited."""
        while not self.stop_event.is_set():
            for slot, daemon in list(self.daemons.items()):
                if not daemon.alive() and slot not in self._restarting:
                    self._schedule_restart(slot)
            try:
                await asyncio.wait_for(
                    self.stop_event.wait(),
                    timeout=self.config.health_interval,
                )
            except asyncio.TimeoutError:
                pass

    # -- drain -------------------------------------------------------------

    async def drain(self) -> None:
        """Ordered fleet drain: router first, then every daemon."""
        self.stop_event.set()
        if self._health_task is not None:
            await self._health_task
        for task in list(self._restart_tasks):
            task.cancel()
        await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        if self.router is not None:
            await self.router.drain()
        await asyncio.gather(
            *(daemon.stop() for daemon in self.daemons.values()),
            return_exceptions=True,
        )


async def fleet_main(
    config: FleetConfig,
    router_config: RouterConfig | None = None,
    *,
    announce=print,
) -> int:
    """Run a fleet until SIGTERM/SIGINT or a ``shutdown`` request."""
    supervisor = FleetSupervisor(config, router_config)
    host, port = await supervisor.start()
    announce(f"fleet serving on {host}:{port} ({config.size} daemons)")

    loop = asyncio.get_running_loop()
    assert supervisor.router is not None
    stop = supervisor.router.stop_event
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    await stop.wait()
    announce("draining fleet...")
    await supervisor.drain()
    counters = render_status(
        supervisor.router.metrics.to_dict(), "router"
    )["counters"]
    announce(
        f"fleet drained: {counters['completed']} completed, "
        f"{counters['rejected']} rejected "
        f"({counters['quota_rejected']} by quota), "
        f"{counters['failed']} failed, "
        f"{sum(supervisor.restarts.values())} restarts"
    )
    return 0


class FleetThread:
    """A whole fleet embedded on one thread (daemons are still real
    subprocesses) — what the soak bench and the kill-a-daemon test use
    to run router + supervisor in-process while talking to them over
    real TCP."""

    def __init__(
        self,
        config: FleetConfig | None = None,
        router_config: RouterConfig | None = None,
    ):
        self._kwargs = dict(config=config, router_config=router_config)
        self.supervisor: FleetSupervisor | None = None
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-fleet", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        timeout = 30.0 + (self._kwargs["config"] or FleetConfig()).size * 10.0
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("fleet thread did not come up")
        if self._failure is not None:
            raise RuntimeError("fleet thread failed") from self._failure
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 120.0) -> None:
        if self._loop is not None and self.supervisor is not None:
            router = self.supervisor.router
            if router is not None:
                try:
                    self._loop.call_soon_threadsafe(router.stop_event.set)
                except RuntimeError:
                    pass
        self._thread.join(timeout)

    def call(self, fn, timeout: float = 60.0):
        """Run ``fn(supervisor)`` on the fleet's loop — how tests read
        daemon pids or poke health state without races."""
        assert self._loop is not None and self.supervisor is not None
        future = asyncio.run_coroutine_threadsafe(self._call(fn), self._loop)
        return future.result(timeout)

    async def _call(self, fn):
        return fn(self.supervisor)

    def __enter__(self) -> FleetThread:
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
        self.supervisor = FleetSupervisor(
            kwargs["config"], kwargs["router_config"]
        )
        self._loop = asyncio.get_running_loop()
        try:
            self.address = await self.supervisor.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        assert self.supervisor.router is not None
        await self.supervisor.router.stop_event.wait()
        await self.supervisor.drain()


__all__ = [
    "FleetConfig", "DaemonProcess", "FleetSupervisor", "FleetThread",
    "fleet_main", "parse_policy",
]

"""Link-as-a-service: the toolchain as a long-lived, concurrent daemon.

Every other entry point in this repository pays process startup and a
cold artifact cache per invocation.  Real link-time-optimization
deployments are services inside build farms, so this package keeps the
compile → link → OM → run loop warm behind a TCP protocol:

* :mod:`repro.serve.protocol` — length-prefixed JSON frames, with
  size ceilings and truncation detection on both ends;
* :mod:`repro.serve.server` — the asyncio daemon: single-flight
  request coalescing layered on the content-addressed cache, a
  bounded admission queue that answers ``retry-after`` under load, a
  ``ProcessPoolExecutor`` for the CPU-bound work, and graceful drain;
* :mod:`repro.serve.workers` — the pure job bodies the pool executes;
* :mod:`repro.serve.client` — connection-reusing client with
  per-request timeouts and full-jitter capped exponential backoff;
* :mod:`repro.serve.loadgen` — the ``serve-bench`` workload replayer
  reporting cold/warm throughput and latency percentiles, plus the
  multi-tenant ``--soak`` mode with p99/error-budget gates.

Counters, gauges and latency histograms live in one
:class:`~repro.obs.metrics.MetricsRegistry` per daemon and router;
``status`` renders its snapshot.

One daemon scales out into a **fleet**:

* :mod:`repro.serve.router` — the consistent-hash front door: routes
  each request by its canonical content key so identical in-flight
  requests land on the same daemon (coalescing survives the
  scale-out), relays frames verbatim, and sums the daemons' registry
  snapshots for fleet-wide ``status``/``metrics``;
* :mod:`repro.serve.quota` — per-tenant token-bucket quotas and the
  start-time-fair weighted scheduler the router admits through;
* :mod:`repro.serve.fleet` — the supervisor: N daemon subprocesses
  sharing one cache root, health-checked with automatic restart (a
  restarted slot reclaims exactly its ring slice), ordered drain.

Start a daemon with ``python -m repro.toolchain serve``; a fleet with
``python -m repro.toolchain serve --fleet N``; benchmark either with
``python -m repro.experiments serve-bench`` (``--soak`` for the gated
endurance run).
"""

from repro.serve.client import ServeClient
from repro.serve.fleet import FleetConfig, FleetSupervisor, FleetThread
from repro.serve.quota import QuotaManager, TenantPolicy, parse_policy
from repro.serve.router import FleetRouter, HashRing, RouterConfig, RouterThread
from repro.serve.server import ServeConfig, ServerThread, ToolchainServer

__all__ = [
    "FleetConfig",
    "FleetRouter",
    "FleetSupervisor",
    "FleetThread",
    "HashRing",
    "QuotaManager",
    "RouterConfig",
    "RouterThread",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "TenantPolicy",
    "ToolchainServer",
    "parse_policy",
]

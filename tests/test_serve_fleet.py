"""The serve fleet: two-candidate consistent-hash routing, fleet-wide
coalescing, tenant quotas, counter reconciliation, and daemon-death
robustness.

The router sends each job to the less-loaded of its key's two ring
candidates (the owner, then the next daemon clockwise; the owner on a
tie) and pins a key to its daemon while any copy is in flight, so
identical concurrent requests still coalesce in one daemon.  The tests
below aim jobs with the live ring (:func:`_candidates`), hold one
daemon busy with a ``sleep:`` job, and read each daemon's own
``computed`` and ``coalesced`` counters to see where work went.

Two gears, mirroring the daemon's own test file:

* **stub-backed** — real :class:`RouterThread` over real TCP, fronting
  :class:`ServerThread` daemons whose job runner is the deterministic
  ``stub_runner`` (the first source text scripts the job), all sharing
  one on-disk cache root.  Routing, load spilling, pinning,
  coalescing, quota accounting, and dead-backend re-mapping are
  asserted without a toolchain in sight.
* **subprocess** — a real :class:`FleetThread` (daemon subprocesses,
  shared cache, health-checked restart) for the kill-a-daemon
  scenario: SIGKILL mid-burst, no hangs, ring re-map, automatic
  restart, and warm service from the shared cache afterwards.
"""

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.cache import ArtifactCache
from repro.serve.client import RequestFailed, ServeClient, ServerBusy
from repro.serve.quota import QuotaManager, TenantPolicy
from repro.serve.router import RouterConfig, RouterThread, routing_key
from repro.serve.server import ServeConfig, ServerThread

from tests.test_serve_server import stub_runner


def _sources(script, name="m.mc"):
    return [[name, script]]


@contextmanager
def stub_fleet(tmp_path, n=2, *, quotas=None, retry_after=0.01, **server_cfg):
    """n stub daemons sharing one cache root, behind a real router."""
    server_cfg.setdefault("workers", 4)
    server_cfg.setdefault("queue_limit", 16)
    servers = []
    router = None
    try:
        for _ in range(n):
            thread = ServerThread(
                ArtifactCache(tmp_path / "cache", stamp="test"),
                ServeConfig(**server_cfg),
                executor=ThreadPoolExecutor(
                    max_workers=server_cfg["workers"]
                ),
                job_runner=stub_runner,
            )
            thread.start()
            servers.append(thread)
        router = RouterThread(
            {f"d{i}": thread.address for i, thread in enumerate(servers)},
            RouterConfig(retry_after=retry_after),
            quotas=QuotaManager(quotas or {}, retry_after=retry_after),
        )
        router.start()
        yield router, servers
    finally:
        if router is not None:
            router.stop()
        for thread in servers:
            thread.stop()


def _route(client, op, **params):
    """The router's answer for where an ``op`` job with ``params`` goes."""
    return client.request("route", job=op, **params)["result"]


def _candidates(router, op, **params):
    """The two ring candidates of an ``op`` job, owner first, read off
    the live router's ring."""
    key = routing_key({"op": op, **params})
    return router.call(lambda r: r.ring.nodes_for(key, 2))


def _owned_by(router, slot, op, script, tag):
    """Job params whose key ``slot`` owns; the first source is
    ``script`` and its file name carries ``tag``."""
    for i in range(64):
        params = {"sources": _sources(script, name=f"{tag}{i}.mc")}
        if _candidates(router, op, **params)[0] == slot:
            return params
    raise AssertionError(f"no {op} key owned by {slot}")


def _assert_released(router):
    """Every load and pin taken by a forward has been given back."""
    loads, pins = router.call(lambda r: (
        {slot: b.inflight for slot, b in r.backends.items()}, dict(r._pins)
    ))
    assert set(loads.values()) == {0}
    assert pins == {}


def _daemon_delta(before, after, name):
    """How much each daemon's own counter ``name`` grew between two
    fleet ``status`` replies."""
    def counts(status):
        return {
            slot: entry["status"]["counters"][name]
            for slot, entry in status["daemons"].items()
        }

    first = counts(before)
    return {slot: n - first[slot] for slot, n in counts(after).items()}


@contextmanager
def _holding(router, op, params):
    """Keep one ``op`` job in flight (a ``sleep:`` script) while the
    body runs; the job must answer ok once the body is done."""
    box = {}

    def hold():
        with ServeClient(router.address, timeout=30) as client:
            box["response"] = client.request(op, **params)

    with ServeClient(router.address, timeout=30) as probe:
        inflight = probe.status()["router"]["gauges"]["inflight"]
        holder = threading.Thread(target=hold)
        holder.start()
        assert _poll(
            lambda: probe.status()["router"]["gauges"]["inflight"]
            == inflight + 1,
            deadline_s=10.0, period=0.01,
        )
    try:
        yield
    finally:
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert box["response"]["ok"]


# -- routing -------------------------------------------------------------------


def test_routing_is_consistent_and_content_keyed(tmp_path):
    with stub_fleet(tmp_path, n=2) as (router, _servers):
        with ServeClient(router.address, timeout=30) as client:
            slots = set()
            for i in range(24):
                params = {"sources": _sources(f"text-{i}"), "mode": "each"}
                first = _route(client, "compile", **params)
                again = _route(client, "compile", **params)
                assert first["slot"] == again["slot"]
                assert first["slot"] in ("d0", "d1")
                assert first["address"] is not None
                # Accounting fields must not move the routing decision.
                tagged = _route(client, "compile", tenant="t9",
                                request_id="c1:1", **params)
                assert tagged["slot"] == first["slot"]
                slots.add(first["slot"])
            # 24 distinct keys must spread over both daemons.
            assert slots == {"d0", "d1"}


def test_route_answers_for_the_job_the_caller_means(tmp_path):
    """``route`` hashes the key the named job gets, so its slot and
    candidates are the ones that job is sent to; without a job op it is
    a bad request."""
    from repro.serve.protocol import JOB_OPS

    with stub_fleet(tmp_path, n=2) as (router, _servers):
        with ServeClient(router.address, timeout=30) as client:
            for i in range(200):
                params = {"sources": _sources(f"probe-{i}"), "mode": "each"}
                for op in JOB_OPS:
                    answer = _route(client, op, **params)
                    candidates = _candidates(router, op, **params)
                    assert answer["candidates"] == candidates
                    assert answer["slot"] == candidates[0]
            with pytest.raises(RequestFailed, match="bad-request"):
                client.request("route", **params)


def test_a_drained_router_closes_its_daemon_connections(tmp_path):
    import gc
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with stub_fleet(tmp_path, n=2) as (router, _servers):
            with ServeClient(router.address, timeout=30) as client:
                for i in range(6):
                    params = {"sources": _sources(f"conn-{i}"), "mode": "each"}
                    assert client.compile(**params)["ok"]
            used = router.call(lambda r: sum(
                conn is not None
                for backend in r.backends.values()
                for conn in backend._pool._queue
            ))
        assert used > 0
        for backend in router.router.backends.values():
            assert all(conn is None for conn in backend._pool._queue)
        gc.collect()
    assert [str(w.message) for w in caught if "transport" in str(w.message)] == []


def test_identical_requests_coalesce_fleet_wide(tmp_path):
    """Content-hash routing sends every copy of an in-flight request
    to the same daemon, where SingleFlight merges them — the coalesce
    win survives the scale-out."""
    with stub_fleet(tmp_path, n=2) as (router, _servers):
        with ServeClient(router.address, timeout=30) as probe:
            before = probe.status()
            assert before["role"] == "fleet"
        n = 6
        barrier = threading.Barrier(n)
        responses = []
        lock = threading.Lock()

        def fire():
            with ServeClient(router.address, timeout=30) as client:
                barrier.wait(timeout=10)
                response = client.run(
                    sources=_sources("sleep:0.8"), variant="ld"
                )
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == n
        assert all(response["ok"] for response in responses)
        with ServeClient(router.address, timeout=30) as probe:
            final = probe.status()
        completed = final["counters"]["completed"] - before["counters"]["completed"]
        coalesced = final["counters"]["coalesced"] - before["counters"]["coalesced"]
        computed = final["counters"]["computed"] - before["counters"]["computed"]
        assert completed == n
        assert computed == 1  # one flight, on one daemon
        assert coalesced == n - 1
        assert final["router"]["counters"]["completed"] >= n


def test_fresh_work_goes_to_the_idle_candidate(tmp_path):
    """While a slow job holds d0, a job for another key d0 owns is
    computed on its second candidate d1 instead of queueing behind it."""
    with stub_fleet(tmp_path, n=2) as (router, _servers):
        slow = _owned_by(router, "d0", "run", "sleep:2.5", "slow")
        fresh = _owned_by(router, "d0", "compile", "quick", "fresh")
        assert _candidates(router, "compile", **fresh) == ["d0", "d1"]
        with ServeClient(router.address, timeout=30) as client:
            before = client.status()
            with _holding(router, "run", slow):
                assert client.compile(**fresh)["ok"]
            after = client.status()
        assert _daemon_delta(before, after, "computed") == {"d0": 1, "d1": 1}
        spilled = (after["router"]["counters"]["second_candidate"]
                   - before["router"]["counters"]["second_candidate"])
        assert spilled == 1


def test_pin_beats_load_so_identical_requests_coalesce(tmp_path):
    """With d0 busy on a different slow job, the first of six identical
    requests for a key d0 owns goes to d1, and the key stays pinned
    there while it is in flight: all six meet in d1's SingleFlight,
    even once d1 carries more load than d0."""
    with stub_fleet(tmp_path, n=2) as (router, _servers):
        slow = _owned_by(router, "d0", "run", "sleep:3.0", "slow")
        hot = _owned_by(router, "d0", "run", "sleep:0.8", "hot")
        n = 6
        barrier = threading.Barrier(n)
        responses = []
        lock = threading.Lock()

        def fire():
            with ServeClient(router.address, timeout=30) as client:
                barrier.wait(timeout=10)
                response = client.run(**hot)
                with lock:
                    responses.append(response)

        with ServeClient(router.address, timeout=30) as probe:
            before = probe.status()
            with _holding(router, "run", slow):
                threads = [threading.Thread(target=fire) for _ in range(n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
            after = probe.status()
        assert len(responses) == n
        assert all(response["ok"] for response in responses)
        assert _daemon_delta(before, after, "computed") == {"d0": 1, "d1": 1}
        assert _daemon_delta(before, after, "coalesced") == {
            "d0": 0, "d1": n - 1,
        }
        _assert_released(router)


def test_key_pinned_to_a_downed_daemon_picks_again(tmp_path):
    """A copy of a key in flight on d0 pins the key there; once d0 is
    marked down it is no candidate, so the next copy picks again, goes
    to d1 and completes with no client error."""
    with stub_fleet(tmp_path, n=2) as (router, servers):
        hot = _owned_by(router, "d0", "run", "sleep:2.0", "hot")
        with ServeClient(router.address, timeout=30) as client:
            before = client.status()
            with _holding(router, "run", hot):
                router.call(lambda r: r.mark_down("d0"))
                assert _candidates(router, "run", **hot) == ["d1"]
                assert client.run(**hot)["ok"]
            router.call(lambda r: r.restore("d0", servers[0].address))
            after = client.status()
        assert _daemon_delta(before, after, "computed") == {"d0": 1, "d1": 1}
        assert after["counters"]["coalesced"] == before["counters"]["coalesced"]
        assert after["counters"]["failed"] == 0
        _assert_released(router)


def test_fleet_status_aggregates_and_identity_holds(tmp_path):
    with stub_fleet(tmp_path, n=2) as (router, servers):
        with ServeClient(router.address, timeout=30) as client:
            for i in range(10):
                assert client.compile(sources=_sources(f"job-{i}"))["ok"]
            # Replay: all served warm (cache hit on whichever daemon).
            for i in range(10):
                response = client.compile(sources=_sources(f"job-{i}"))
                assert response["cached"]
            status = client.status()
        counters = status["counters"]
        assert counters["completed"] == 20
        assert counters["completed"] == (
            counters["coalesced"] + counters["cache_hits"]
            + counters["computed"]
        )
        assert counters["cache_hits"] == 10
        # The summed view really is the sum of the per-daemon payloads.
        by_daemon = [
            entry["status"]["counters"]
            for entry in status["daemons"].values()
        ]
        assert counters["completed"] == sum(
            c["completed"] for c in by_daemon
        )
        assert sum(c["computed"] for c in by_daemon) == 10


# -- tenant quotas and reconciliation (satellite) ------------------------------


def test_reconciliation_holds_under_quota_rejections(tmp_path):
    """Fleet-wide ``completed == coalesced + cache_hits + computed``
    must survive tenant-quota rejections, which are accounted in their
    own series — router ``quota_rejected`` and per-tenant ``rejected``
    — and never as failures anywhere."""
    quotas = {"limited": TenantPolicy(rate=0.0001, burst=1.0)}
    with stub_fleet(tmp_path, n=2, quotas=quotas) as (router, _servers):
        with ServeClient(router.address, timeout=30) as probe:
            before = probe.status()

        free_ok = limited_ok = limited_rejected = 0
        with ServeClient(router.address, timeout=30, retries=0,
                         tenant="limited") as limited:
            for i in range(5):
                try:
                    limited.compile(sources=_sources(f"lim-{i}"))
                    limited_ok += 1
                except ServerBusy as exc:
                    assert exc.reason == "quota"
                    assert exc.retry_after > 0
                    limited_rejected += 1
        with ServeClient(router.address, timeout=30,
                         tenant="free") as free:
            for i in range(4):
                assert free.compile(sources=_sources(f"free-{i}"))["ok"]
                free_ok += 1
            assert free.compile(sources=_sources("free-0"))["cached"]
            free_ok += 1

        assert limited_ok == 1  # one burst token
        assert limited_rejected == 4

        with ServeClient(router.address, timeout=30) as probe:
            final = probe.status()
        delta = {
            key: final["counters"][key] - before["counters"].get(key, 0)
            for key in final["counters"]
        }
        # The serving identity, summed across daemon status payloads.
        assert delta["completed"] == (
            delta["coalesced"] + delta["cache_hits"] + delta["computed"]
        )
        assert delta["completed"] == free_ok + limited_ok
        # Rejections are counted separately — never as failures.
        assert delta["failed"] == 0
        rdelta = final["router"]["counters"]
        assert rdelta["failed"] == 0
        assert rdelta["quota_rejected"] == limited_rejected
        assert rdelta["rejected"] == limited_rejected
        # Per-tenant ledgers, summed fleet-wide by the router.
        assert final["tenants"]["limited"]["completed"] == 1
        assert final["tenants"]["free"]["completed"] == free_ok
        router_tenants = final["router"]["tenants"]
        assert router_tenants["limited"]["rejected"] == limited_rejected
        assert router_tenants["limited"]["completed"] == 1
        assert router_tenants["free"]["completed"] == free_ok
        # Quota snapshot agrees too.
        quota_view = final["router"]["quotas"]["limited"]
        assert quota_view["admitted"] == 1
        assert quota_view["rejected_rate"] == limited_rejected


def test_fleet_metrics_fan_out_aggregates_counters(tmp_path):
    with stub_fleet(tmp_path, n=2) as (router, _servers):
        with ServeClient(router.address, timeout=30,
                         tenant="t1") as client:
            for i in range(6):
                assert client.compile(sources=_sources(f"m-{i}"))["ok"]
            status = client.status()
            payload = client.metrics()
        aggregated = {
            (series["name"], tuple(sorted(series["labels"].items()))):
                series["value"]
            for series in payload["fleet"]["counters"]
        }
        assert aggregated[("serve_completed_total", ())] == 6
        assert aggregated[
            ("serve_tenant_completed_total", (("tenant", "t1"),))
        ] == 6
        assert status["counters"]["completed"] == 6
        assert "router_completed_total" in payload["text"]
        assert len(payload["daemons"]) == 2


# -- dead backends (stub) ------------------------------------------------------


def test_dead_backend_remaps_its_slice_without_client_errors(tmp_path):
    with stub_fleet(tmp_path, n=2) as (router, servers):
        with ServeClient(router.address, timeout=30) as client:
            # Find a key each daemon owns.
            owned = {}
            for i in range(40):
                params = {"sources": _sources(f"key-{i}"), "mode": "each"}
                slot = _route(client, "compile", **params)["slot"]
                owned.setdefault(slot, params)
                if len(owned) == 2:
                    break
            assert set(owned) == {"d0", "d1"}

            servers[1].stop()  # daemon d1 dies (listener gone)

            # A request for d1's key is re-mapped and served by d0 —
            # transparently, because jobs are idempotent.
            response = client.request("compile", **owned["d1"])
            assert response["ok"]
            status = client.status()
        assert status["router"]["ring"]["healthy"] == ["d0"]
        assert status["daemons"]["d1"]["healthy"] is False
        assert status["router"]["counters"]["upstream_errors"] >= 1


def test_no_healthy_backends_surfaces_as_retryable_busy(tmp_path):
    with stub_fleet(tmp_path, n=1) as (router, servers):
        servers[0].stop()
        with ServeClient(router.address, timeout=30, retries=1,
                         sleep=lambda s: None) as client:
            with pytest.raises(ServerBusy) as err:
                client.compile(sources=_sources("orphan"))
        # Not a hang, not a hard failure: a retryable busy reply
        # tagged with the upstream reason.
        assert err.value.reason == "upstream"
        assert err.value.retry_after > 0


# -- kill a daemon (subprocess fleet, satellite) -------------------------------

#: ~8M simulated instructions: slow enough (~2 s) to SIGKILL mid-run.
_SLOW_SOURCE = """\
int main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 1000000; i++) {
        acc = acc + 1;
    }
    return acc - 1000000;
}
"""


def _poll(predicate, deadline_s, period=0.1):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(period)
    return predicate()


def test_sigkill_mid_burst_remaps_restarts_and_serves_warm(tmp_path):
    """SIGKILL one of two real daemons mid-request: the in-flight
    request completes on the survivor (no hang, no hard error), the
    ring drops to one healthy slot, the supervisor restarts the slot,
    and the restarted daemon answers its old keys warm from the
    shared cache."""
    from repro.serve.fleet import FleetConfig, FleetThread

    config = FleetConfig(
        size=2, workers=1, queue_limit=8,
        cache_dir=str(tmp_path / "cache"),
        health_interval=0.1,
        restart_backoff=0.5,  # widen the one-healthy window we assert on
    )
    with FleetThread(config) as fleet:
        address = fleet.address
        with ServeClient(address, timeout=120, retries=8) as client:
            # Warm one key per slot (computed now, cached on shared disk).
            warm = {}
            for i in range(40):
                params = {
                    "sources": _sources(f"int main() {{ return {i}; }}"),
                    "mode": "each",
                }
                slot = _route(client, "compile", **params)["slot"]
                if slot not in warm:
                    assert client.compile(**params)["ok"]
                    warm[slot] = params
                if len(warm) == 2:
                    break
            assert set(warm) == {"d0", "d1"}

            slow = {
                "sources": _sources(_SLOW_SOURCE, name="slow.mc"),
                "mode": "each", "variant": "om-full", "timed": False,
            }
            victim = _route(client, "run", **slow)["slot"]
            survivor = "d0" if victim == "d1" else "d1"
            pids = fleet.call(
                lambda s: {slot: d.pid for slot, d in s.daemons.items()}
            )

            box = {}

            def fire():
                with ServeClient(address, timeout=120, retries=8) as c:
                    try:
                        box["response"] = c.request("run", **slow)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        box["error"] = exc

            burst = threading.Thread(target=fire)
            burst.start()
            time.sleep(0.8)  # the run is now in flight on the victim
            os.kill(pids[victim], signal.SIGKILL)

            # The ring sheds exactly the dead slot...
            assert _poll(
                lambda: client.status()["router"]["ring"]["healthy"]
                == [survivor],
                deadline_s=5.0, period=0.05,
            )

            # ...and the in-flight request neither hangs nor errors:
            # it is re-mapped and recomputed by the survivor.
            burst.join(timeout=90)
            assert not burst.is_alive(), "request hung after SIGKILL"
            assert "error" not in box, f"request failed: {box.get('error')}"
            assert box["response"]["ok"]

            # The supervisor restarts the slot automatically.
            assert _poll(
                lambda: sorted(
                    client.status()["router"]["ring"]["healthy"]
                ) == ["d0", "d1"],
                deadline_s=30.0,
            )
            assert fleet.call(lambda s: dict(s.restarts))[victim] == 1
            status = client.status()
            new_pid = status["daemons"][victim]["status"]["pid"]
            assert new_pid != pids[victim]

            # The restarted daemon serves its old key warm from the
            # shared cache: same slot, zero recompute.
            assert _route(client, "compile", **warm[victim])["slot"] == victim
            response = client.compile(**warm[victim])
            assert response["ok"] and response["cached"]

"""``status`` is a rendering of the registry, and serve-bench's one
reconciliation.

A daemon's and a fleet's ``status`` must equal the rendering of the
registry snapshots taken while answering it, ``requests`` included —
there is no second copy of a counter to drift.  ``reconcile`` is
checked on synthetic ledgers for each topology and mode: every check
passes on a consistent ledger, and each fails when its one input is
off by one.
"""

import json

import pytest

from repro.obs.metrics import render_status, sum_snapshots
from repro.serve.client import ServeClient
from repro.serve.loadgen import reconcile

from tests.test_serve_fleet import stub_fleet
from tests.test_serve_server import _stub_server


def _taken(registry) -> list[dict]:
    """Every snapshot ``registry`` hands out from now on, as the wire
    carries it."""
    taken = []
    to_dict = registry.to_dict

    def recording():
        snapshot = to_dict()
        taken.append(json.loads(json.dumps(snapshot)))
        return snapshot

    registry.to_dict = recording
    return taken


def _sources(script):
    return [["m.mc", script]]


def test_daemon_status_is_the_rendering_of_its_snapshot():
    with _stub_server(workers=2) as st:
        taken = _taken(st.server.metrics)
        with ServeClient(st.address, timeout=30, tenant="t1") as client:
            for i in range(3):
                assert client.compile(sources=_sources(f"job-{i}"))["ok"]
            status = client.status()
        identity = st.server.identity()
    assert len(taken) == 1
    assert status == {**identity, **render_status(taken[0], "serve")}
    # requests counts this status call too: it was in the snapshot.
    assert status["counters"]["requests"] == 4
    assert status["counters"]["completed"] == 3
    assert status["tenants"] == {"t1": {"completed": 3}}
    assert status["latency"]["compile"]["count"] == 3


def test_fleet_status_is_the_rendering_of_the_snapshots(tmp_path):
    with stub_fleet(tmp_path, n=2) as (router, servers):
        daemons = [_taken(thread.server.metrics) for thread in servers]
        own = _taken(router.router.metrics)
        with ServeClient(router.address, timeout=30, tenant="t1") as client:
            for i in range(6):
                assert client.compile(sources=_sources(f"job-{i}"))["ok"]
            status = client.status()
        identities = [thread.server.identity() for thread in servers]
    snapshots = [taken[-1] for taken in daemons]
    for i, snapshot in enumerate(snapshots):
        assert status["daemons"][f"d{i}"]["status"] == {
            **identities[i], **render_status(snapshot, "serve"),
        }
    fleet = render_status(sum_snapshots(snapshots), "serve")
    assert {key: status[key] for key in fleet} == fleet
    router_sections = render_status(own[-1], "router")
    assert {key: status["router"][key] for key in router_sections} == (
        router_sections
    )
    assert status["counters"]["completed"] == 6
    assert status["counters"]["requests"] == 6 + 2  # each answered the fan-out
    assert status["tenants"]["t1"]["completed"] == 6
    assert status["router"]["counters"]["requests"] == 7
    assert status["stamp"] == identities[0]["stamp"]


def test_fleet_admin_ops_render_no_daemon_exposition(tmp_path):
    """The router reads only the daemons' snapshots, so it asks for no
    Prometheus text; a daemon still renders it for a plain request."""
    with stub_fleet(tmp_path, n=2) as (router, servers):
        rendered = []
        for thread in servers:
            registry = thread.server.metrics

            def counted(render=registry.to_prometheus):
                rendered.append(1)
                return render()

            registry.to_prometheus = counted
        with ServeClient(router.address, timeout=30, tenant="t1") as client:
            assert client.compile(sources=_sources("job"))["ok"]
            status = client.status()
            metrics = client.metrics()
        assert rendered == []
        assert status["counters"]["completed"] == 1
        assert set(metrics["daemons"]) == {"d0", "d1"}
        with ServeClient(servers[0].address, timeout=30) as client:
            assert client.metrics()["text"]
        assert rendered == [1]


# -- reconcile -------------------------------------------------------------------


def _daemon(**delta):
    """``before``/``final`` daemon counters moved by ``delta``."""
    before = {
        "requests": 40, "completed": 30, "failed": 0, "rejected": 2,
        "coalesced": 4, "cache_hits": 6, "computed": 20,
        "cache_misses": 20, "admitted": 20, "bad_requests": 0,
    }
    final = {key: value + delta.get(key, 0) for key, value in before.items()}
    return {"counters": before}, {"counters": final}


def _phase(**fields):
    ledger = {"requests": 0, "ok": 0, "failed": 0, "busy_replies": 0,
              "busy_reasons": {}, "coalesced": 0, "cached": 0,
              "throughput_rps": 1.0}
    ledger.update(fields)
    return ledger


def _replay():
    """One cold and one warm phase against a single daemon."""
    before, final = _daemon(completed=20, coalesced=1, cache_hits=11,
                            computed=8, rejected=3)
    client = {
        "cold": _phase(requests=10, ok=10, busy_replies=3,
                       busy_reasons={"queue": 3}, coalesced=1, cached=1,
                       throughput_rps=5.0),
        "warm": _phase(requests=10, ok=10, cached=10, throughput_rps=6.0),
    }
    return before, final, client, 0.0


def _soak():
    """A single-daemon soak with two failures inside a 10% budget."""
    before, final = _daemon(completed=18, coalesced=1, cache_hits=9,
                            computed=8, rejected=1)
    client = {"soak": _phase(requests=20, ok=18, failed=2, busy_replies=1,
                             busy_reasons={"queue": 1}, coalesced=1,
                             cached=9)}
    return before, final, client, 0.1


def _fleet_soak():
    """A soak through a router: 3 quota rejections at the router, 2
    daemon rejections relayed."""
    before, final = _daemon(completed=15, coalesced=1, cache_hits=10,
                            computed=4, rejected=2)
    rbefore = {"requests": 50, "completed": 40, "failed": 0, "rejected": 5,
               "quota_rejected": 3, "relayed_busy": 2, "upstream_errors": 0,
               "bad_requests": 0}
    rfinal = dict(rbefore, requests=70, completed=55, rejected=10,
                  quota_rejected=6, relayed_busy=4)
    before["router"] = {"counters": rbefore}
    final["router"] = {"counters": rfinal}
    client = {"soak": _phase(requests=18, ok=15, busy_replies=5,
                             busy_reasons={"quota": 3, "queue": 2},
                             coalesced=1, cached=10)}
    return before, final, client, 0.0


def _nudge(*path, by=1):
    """Move the number at ``path`` in [before, final, client phase]."""
    def nudge(ledger):
        node = ledger
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += by
    return nudge


#: Each check, and its one input moved off by one (the warm phase's
#: throughput down to the cold phase's).
_OFF_BY_ONE = {
    "completed_matches_client": _nudge(2, "ok"),
    "coalesced_matches_client": _nudge(2, "coalesced"),
    "cache_hits_match_client": _nudge(2, "cached"),
    "serving_identity": _nudge(1, "counters", "computed"),
    "zero_server_failures": _nudge(1, "counters", "failed"),
    "failures_within_budget": _nudge(2, "failed"),
    "coalescing_observed": _nudge(1, "counters", "coalesced", by=-1),
    "rejected_matches_client_busy": _nudge(2, "busy_replies"),
    "warm_throughput_higher": _nudge(2, "throughput_rps", by=-1.0),
    "router_completed_matches_client": _nudge(
        1, "router", "counters", "completed"),
    "router_rejected_matches_client_busy": _nudge(
        1, "router", "counters", "rejected"),
    "quota_rejections_accounted": _nudge(2, "busy_reasons", "quota"),
    "daemon_rejections_relayed": _nudge(
        1, "router", "counters", "relayed_busy"),
    "router_zero_failures": _nudge(1, "router", "counters", "failed"),
}


def _run(case, mutate=None):
    before, final, client, budget = case()
    phase = "warm" if "warm" in client else "soak"
    ledger = [before, final, client[phase]]
    if mutate is not None:
        mutate(ledger)
    return reconcile(before, final, client, error_budget=budget)


@pytest.mark.parametrize("case, expected", [
    (_replay, {
        "completed_matches_client", "coalesced_matches_client",
        "cache_hits_match_client", "serving_identity",
        "zero_server_failures", "failures_within_budget",
        "coalescing_observed", "rejected_matches_client_busy",
        "warm_throughput_higher",
    }),
    (_soak, {
        "completed_matches_client", "coalesced_matches_client",
        "cache_hits_match_client", "serving_identity",
        "zero_server_failures", "failures_within_budget",
        "coalescing_observed", "rejected_matches_client_busy",
    }),
    (_fleet_soak, {
        "completed_matches_client", "coalesced_matches_client",
        "cache_hits_match_client", "serving_identity",
        "zero_server_failures", "failures_within_budget",
        "coalescing_observed", "router_completed_matches_client",
        "router_rejected_matches_client_busy", "quota_rejections_accounted",
        "daemon_rejections_relayed", "router_zero_failures", "router_delta",
    }),
], ids=["replay", "soak", "fleet-soak"])
def test_reconcile_passes_a_consistent_ledger(case, expected):
    outcome = _run(case)
    assert set(outcome["checks"]) == expected
    failing = {name for name, check in outcome["checks"].items()
               if not check["ok"]}
    assert not failing and outcome["ok"]
    assert outcome["counters_delta"]["completed"] == (
        outcome["checks"]["completed_matches_client"]["server"]
    )


@pytest.mark.parametrize("case", [_replay, _soak, _fleet_soak],
                         ids=["replay", "soak", "fleet-soak"])
def test_reconcile_each_check_fails_when_its_input_is_off_by_one(case):
    checks = set(_run(case)["checks"]) - {"router_delta"}  # a record
    for name in checks:
        outcome = _run(case, _OFF_BY_ONE[name])
        assert not outcome["checks"][name]["ok"], name
        assert not outcome["ok"]

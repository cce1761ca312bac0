"""Unit coverage for the fleet's routing and tenant-isolation math:
the consistent-hash ring, per-tenant token-bucket quotas (driven by a
fake clock, so the arithmetic is pinned without sleeping), and the
start-time-fair weighted scheduler."""

import asyncio

import pytest

from repro.serve.quota import (
    FairScheduler,
    QuotaManager,
    TenantPolicy,
    parse_policy,
)
from repro.serve.router import HashRing, routing_key

# -- hash ring -----------------------------------------------------------------


def test_ring_is_deterministic_across_instances():
    a = HashRing(replicas=32)
    b = HashRing(replicas=32)
    for ring in (a, b):
        for slot in ("d0", "d1", "d2"):
            ring.add(slot)
    keys = [f"key-{i}" for i in range(200)]
    assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]


def test_ring_spreads_keys_over_all_nodes():
    ring = HashRing(replicas=64)
    for slot in ("d0", "d1", "d2", "d3"):
        ring.add(slot)
    owners = {ring.node_for(f"key-{i}") for i in range(500)}
    assert owners == {"d0", "d1", "d2", "d3"}


def test_removing_a_node_remaps_only_its_slice():
    ring = HashRing(replicas=64)
    for slot in ("d0", "d1", "d2"):
        ring.add(slot)
    keys = [f"key-{i}" for i in range(400)]
    before = {k: ring.node_for(k) for k in keys}
    ring.remove("d1")
    after = {k: ring.node_for(k) for k in keys}
    for key in keys:
        if before[key] != "d1":
            # The consistent-hashing property: losing one node moves
            # only that node's keys.
            assert after[key] == before[key]
        else:
            assert after[key] in ("d0", "d2")


def test_restored_node_reclaims_exactly_its_slice():
    ring = HashRing(replicas=64)
    for slot in ("d0", "d1"):
        ring.add(slot)
    keys = [f"key-{i}" for i in range(300)]
    before = {k: ring.node_for(k) for k in keys}
    ring.remove("d0")
    ring.add("d0")  # same slot name -> same virtual points
    assert {k: ring.node_for(k) for k in keys} == before


def test_empty_ring_routes_nowhere():
    ring = HashRing()
    assert ring.node_for("anything") is None
    ring.add("d0")
    ring.remove("d0")
    assert ring.node_for("anything") is None


def test_nodes_for_lists_distinct_nodes_in_clockwise_order():
    """Owner first, then each node the key re-maps to once the nodes
    before it have left the ring."""
    slots = ("d0", "d1", "d2", "d3")
    ring = HashRing(replicas=16)
    for slot in slots:
        ring.add(slot)
    for i in range(100):
        key = f"key-{i}"
        order = ring.nodes_for(key, len(slots))
        assert sorted(order) == sorted(slots)
        assert order[0] == ring.node_for(key)
        assert ring.nodes_for(key, 2) == order[:2]
        shrinking = HashRing(replicas=16)
        for slot in slots:
            shrinking.add(slot)
        for gone, successor in zip(order, order[1:]):
            shrinking.remove(gone)
            assert shrinking.node_for(key) == successor


def test_nodes_for_more_than_exist_returns_all_of_them():
    ring = HashRing(replicas=8)
    assert ring.nodes_for("anything", 2) == []
    for slot in ("d0", "d1"):
        ring.add(slot)
    for i in range(50):
        nodes = ring.nodes_for(f"key-{i}", 5)
        assert sorted(nodes) == ["d0", "d1"]


def test_nodes_for_never_names_a_removed_node():
    ring = HashRing(replicas=64)
    for slot in ("d0", "d1", "d2"):
        ring.add(slot)
    ring.remove("d1")
    for i in range(300):
        nodes = ring.nodes_for(f"key-{i}", 3)
        assert sorted(nodes) == ["d0", "d2"]
        assert nodes[0] == ring.node_for(f"key-{i}")


def test_routing_key_covers_content_not_accounting():
    base = {"op": "run", "program": "compress", "scale": 2, "id": 1}
    same = dict(base, id=9, tenant="t1", request_id="c1:4")
    other = dict(base, scale=3)
    assert routing_key(base) == routing_key(same)
    assert routing_key(base) != routing_key(other)


# -- quota manager -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_rate_quota_rejects_with_exact_retry_after():
    clock = FakeClock()
    quotas = QuotaManager(
        {"t1": TenantPolicy(rate=2.0, burst=1.0)}, clock=clock
    )
    assert quotas.try_admit("t1") is None  # burst token
    quotas.release("t1")
    hint = quotas.try_admit("t1")
    # Empty bucket at rate 2/s: the next token is 0.5 s away.
    assert hint == pytest.approx(0.5)
    clock.now += 0.5
    assert quotas.try_admit("t1") is None
    quotas.release("t1")


def test_burst_allows_a_batch_then_throttles():
    clock = FakeClock()
    quotas = QuotaManager(
        {"t1": TenantPolicy(rate=1.0, burst=3.0)}, clock=clock
    )
    for _ in range(3):
        assert quotas.try_admit("t1") is None
        quotas.release("t1")
    assert quotas.try_admit("t1") is not None
    snapshot = quotas.snapshot()["t1"]
    assert snapshot["admitted"] == 3
    assert snapshot["rejected_rate"] == 1


def test_inflight_ceiling_uses_default_hint():
    quotas = QuotaManager(
        {"t1": TenantPolicy(max_inflight=2)}, retry_after=0.07
    )
    assert quotas.try_admit("t1") is None
    assert quotas.try_admit("t1") is None
    assert quotas.try_admit("t1") == pytest.approx(0.07)
    quotas.release("t1")
    assert quotas.try_admit("t1") is None


def test_unknown_tenant_gets_the_default_policy():
    quotas = QuotaManager({"t1": TenantPolicy(rate=1.0)})
    # Default policy: no rate, no ceiling — always admitted.
    for _ in range(10):
        assert quotas.try_admit("anon") is None
    assert quotas.snapshot()["anon"]["admitted"] == 10


def test_release_without_admit_is_an_error():
    quotas = QuotaManager()
    with pytest.raises(RuntimeError):
        quotas.release("t1")


def test_parse_policy_round_trip():
    tenant, policy = parse_policy("t2:rate=2,burst=4,weight=0.5,inflight=8")
    assert tenant == "t2"
    assert policy == TenantPolicy(
        rate=2.0, burst=4.0, weight=0.5, max_inflight=8
    )


@pytest.mark.parametrize("spec", ["", "t1", "t1:bogus=1", "t1:rate"])
def test_parse_policy_rejects_malformed_specs(spec):
    with pytest.raises(ValueError):
        parse_policy(spec)


def test_policy_validation():
    with pytest.raises(ValueError):
        TenantPolicy(weight=0)
    with pytest.raises(ValueError):
        TenantPolicy(rate=-1)
    with pytest.raises(ValueError):
        TenantPolicy(burst=0.5)


# -- fair scheduler ------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


def test_scheduler_grants_immediately_under_limit():
    async def body():
        sched = FairScheduler(2)
        await sched.acquire("a")
        await sched.acquire("b")
        assert sched.inflight == 2
        assert sched.backlog() == 0
        sched.release()
        sched.release()

    _run(body())


def test_scheduler_weighted_interleave():
    """With limit 1 and backlog from a weight-2 and a weight-1 tenant,
    grants follow virtual finish times: the heavy tenant gets two
    grants for each light grant."""

    async def body():
        weights = {"heavy": 2.0, "light": 1.0}
        sched = FairScheduler(1, weight_for=lambda t: weights.get(t, 1.0))
        order: list[str] = []

        async def work(tenant):
            await sched.acquire(tenant)
            order.append(tenant)
            sched.release()

        await sched.acquire("seed")  # force everyone below to queue
        tasks = [
            asyncio.ensure_future(work(t))
            for t in ["heavy", "light"] * 3
        ]
        await asyncio.sleep(0)  # let every waiter enqueue
        sched.release()  # start draining the backlog
        await asyncio.gather(*tasks)
        # Virtual finish times (heavy +0.5, light +1.0, enqueue-order
        # tie-break): while both have backlog the heavy tenant is
        # granted twice as often, then the light tail drains.
        assert order == ["heavy", "light", "heavy", "heavy", "light", "light"]
        while order and order[-1] == "light":
            order.pop()
        assert order.count("heavy") == 2 * order.count("light") + 1

    _run(body())


def test_scheduler_fifo_within_one_tenant():
    async def body():
        sched = FairScheduler(1)
        order = []

        async def work(tag):
            await sched.acquire("t")
            order.append(tag)
            sched.release()

        await sched.acquire("t")
        tasks = [asyncio.ensure_future(work(i)) for i in range(4)]
        await asyncio.sleep(0)
        sched.release()
        await asyncio.gather(*tasks)
        assert order == [0, 1, 2, 3]

    _run(body())


def test_scheduler_timeout_leaves_no_leak():
    async def body():
        sched = FairScheduler(1)
        await sched.acquire("a")
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(sched.acquire("b"), timeout=0.02)
        sched.release()
        # The cancelled waiter must not hold the slot or linger in the
        # backlog: a fresh acquire goes straight through.
        await asyncio.wait_for(sched.acquire("c"), timeout=1.0)
        assert sched.inflight == 1
        assert sched.backlog() == 0
        sched.release()

    _run(body())


def test_release_without_acquire_is_an_error():
    async def body():
        sched = FairScheduler(1)
        with pytest.raises(RuntimeError):
            sched.release()

    _run(body())

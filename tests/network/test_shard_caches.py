"""Shard-safety of derived caches (tentpole satellite).

Two caches derive state from the topology and used to be invalidated
only at their own mutation call sites, which is exactly the pattern
that breaks once mutations can originate in another process:

* the simulator's next-hop memo (``_next_hop_cache``), and
* the sharded workers' per-shard route memos and link-rate arrays.

Both now invalidate through ``Topology.add_change_listener`` —
``fail_link`` / ``repair_link`` / ``fail_switch`` / ``repair_switch`` /
``set_link_rate`` notify every registered engine, and the sharded
coordinator forwards the events to its workers as control ops.  These
tests pin the listener path: a stale memo here would silently route
bytes over failed links (sequential) or desynchronize the shards
(parallel).
"""

import pytest

from repro.network import FatTreeTopology, Message, NetworkSimulator
from repro.pspin.pdes import build_engine, sequential_engine


def _uplinks_used(net, leaf="l0"):
    return {
        dst for (src, dst), v in net.traffic.per_link.items()
        if src == leaf and dst.startswith("s") and v > 0
    }


# ----------------------------------------------------------------------
# Sequential engine: listener-driven memo invalidation
# ----------------------------------------------------------------------
def test_next_hop_memo_invalidated_by_direct_topology_failure():
    """A `topology.fail_link` call (not routed through the simulator)
    must still flush the next-hop memo: the follow-up send may not put
    a single byte on the failed uplink."""
    topo = FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=2)
    net = NetworkSimulator(topo, router="ecmp")
    net.on_deliver("h8", lambda m, t: None)
    net.send(Message("h0", "h8", 4096.0))
    net.run()  # memoizes h0 -> h8 through some l0 uplink
    (used,) = _uplinks_used(net)
    before = dict(net.traffic.per_link)

    topo.fail_link("l0", used)  # mutation bypasses the simulator
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    delta = {
        k: v - before.get(k, 0.0)
        for k, v in net.traffic.per_link.items()
        if v - before.get(k, 0.0) > 0
    }
    assert ("l0", used) not in delta, "stale next-hop memo used a failed link"
    assert any(src == "l0" for src, _ in delta), "message never left the rack"


def test_next_hop_memo_recovers_after_repair():
    topo = FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=2)
    net = NetworkSimulator(topo, router="shortest")
    net.on_deliver("h8", lambda m, t: None)
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    (used,) = _uplinks_used(net)
    topo.fail_link("l0", used)
    topo.repair_link("l0", used)
    before = dict(net.traffic.per_link)
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    # shortest is deterministic: after repair it's the original path.
    assert net.traffic.per_link[("l0", used)] > before[("l0", used)]


# ----------------------------------------------------------------------
# Sharded engine: cross-shard invalidation through control ops
# ----------------------------------------------------------------------
def _two_phase(workers, mutate):
    """Storm, mid-run topology mutation, second storm; parity digest."""
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    if workers:
        sim, net = build_engine(
            topo, workers=workers, router="ecmp", arbitration="fifo",
            coordinator_hosts=False,
        )
    else:
        sim, net = sequential_engine(topo, router="ecmp", arbitration="fifo")
    arrivals = []
    for h in topo.hosts:
        net.on_deliver(h, lambda m, t, h=h: arrivals.append((h, m.src, t)))
    hosts = topo.hosts
    n = len(hosts)
    for i, src in enumerate(hosts):
        net.send(Message(src, hosts[(i + 11) % n], 8192.0), at=3.0 * i)
    sim.run()               # phase 1: populates every route memo
    mutate(topo)            # cross-shard mutation between phases
    for i, src in enumerate(hosts):
        net.send(Message(src, hosts[(i + 11) % n], 8192.0),
                 at=sim.now + 3.0 * i)
    sim.run()
    out = (sim.now, sorted(arrivals), dict(net.traffic.per_link))
    if hasattr(net, "shutdown"):
        net.shutdown()
    return out


@pytest.mark.parametrize("workers", [2, 4])
def test_cross_shard_link_failure_invalidates_worker_memos(workers):
    mutate = lambda topo: topo.fail_link("l0", "s0")  # noqa: E731
    assert _two_phase(workers, mutate) == _two_phase(0, mutate)


def test_cross_shard_switch_failure_invalidates_worker_memos():
    mutate = lambda topo: topo.fail_switch("s1")  # noqa: E731
    assert _two_phase(2, mutate) == _two_phase(0, mutate)


def test_cross_shard_repair_restores_parity():
    def mutate(topo):
        topo.fail_link("l0", "s0")
        topo.repair_link("l0", "s0")

    assert _two_phase(2, mutate) == _two_phase(0, mutate)


def test_set_link_rate_propagates_to_worker_rate_caches():
    """Degrading a link's rate mid-run must reach the workers' cached
    per-link rate arrays: serialization times (and so every later
    arrival) shift identically in both engines."""
    def mutate(topo):
        topo.set_link_rate("l0", "s0", 10.0)   # 100 -> 10 Gbps
        topo.set_link_rate("l1", "s1", 25.0)

    slow = _two_phase(2, mutate)
    assert slow == _two_phase(0, mutate)
    fast = _two_phase(2, lambda topo: None)
    assert slow[0] > fast[0], "rate degradation never took effect"


def test_set_link_rate_rejects_unknown_link():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    with pytest.raises(ValueError, match="no link"):
        topo.set_link_rate("l0", "s9", 10.0)

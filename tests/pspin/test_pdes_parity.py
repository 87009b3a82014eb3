"""Sharded conservative-PDES engine vs the sequential oracle.

The sequential :class:`~repro.pspin.engine.Simulator` is the parity
oracle for the sharded engine (``repro.pspin.pdes.build_engine`` with
``workers >= 1``): same arrivals bit for bit, same makespans, same
merged traffic tables, across worker counts, arbitration modes,
sharded fault replay, and the recall path.  These tests pin that
contract.

Worker processes fork lazily on the first dispatched window, so every
sharded run here spins real subprocesses; keep the fabrics small.
"""

import warnings

import numpy as np
import pytest

from repro.comm.fabric import Fabric
from repro.network import FatTreeTopology, Message
from repro.network.shard import ShardingError, plan_shards
from repro.pspin.pdes import ShardedSimulator, build_engine, sequential_engine

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _storm(workers, arbitration="fifo", flows=False, faults=None,
           arm_mid_run=False, n_hosts=64, n_spines=4):
    """A staggered cross-rack transport storm; returns everything the
    parity assertions compare."""
    topo = FatTreeTopology(
        n_hosts=n_hosts, hosts_per_leaf=8, n_spines=n_spines
    )
    if workers:
        sim, net = build_engine(
            topo, workers=workers, router="updown", arbitration=arbitration,
            coordinator_hosts=False,
        )
    else:
        sim, net = sequential_engine(
            topo, router="updown", arbitration=arbitration
        )
    arrivals = []
    for h in topo.hosts:
        net.on_deliver(
            h, lambda m, t, h=h: arrivals.append((h, m.src, m.nbytes, t))
        )
    if faults is not None and not arm_mid_run:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net.arm_faults(faults, seed=7)
    hosts = topo.hosts
    n = len(hosts)
    k = 0
    for i, src in enumerate(hosts):
        for off in (1, 7, 19):
            flow = f"f{k % 3}" if flows else None
            net.send(
                Message(src, hosts[(i + off) % n], 4096.0 * (1 + k % 5),
                        flow=flow),
                at=3.0 * k,
            )
            k += 1
    if flows:
        net.set_flow_weight("f0", 2.0)
    if faults is not None and arm_mid_run:
        sim.run(until=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net.arm_faults(faults, seed=7)
            sim.run()  # the recall warning fires at the next barrier
    else:
        sim.run()
    flow_stats = None
    if flows:
        flow_stats = {
            f: (
                net.flow_stats(f).bytes_hops,
                net.flow_stats(f).messages,
                dict(net.flow_stats(f).per_link),
            )
            for f in ("f0", "f1", "f2")
        }
    out = {
        "makespan": sim.now,
        "arrivals": sorted(arrivals),
        "per_link": dict(net.traffic.per_link),
        "events": sim.events_processed,
        "bytes_hops": net.traffic.bytes_hops,
        "messages": net.traffic.messages,
        "drops": net.traffic.drops,
        "duplicates": net.traffic.duplicates,
        "retransmits": net.traffic.retransmits,
        "link_drops": dict(net.traffic.link_drops),
        "link_duplicates": dict(net.traffic.link_duplicates),
        "flows": flow_stats,
    }
    if hasattr(net, "shutdown"):
        net.shutdown()
    return out


# ----------------------------------------------------------------------
# Transport storms: bitwise across worker counts and arbitration modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fifo_storm_bitwise_parity(workers):
    seq = _storm(0)
    par = _storm(workers)
    assert par == seq  # makespan, arrivals, per-link, events — all of it


@pytest.mark.parametrize("workers", [1, 2])
def test_wfq_storm_parity_with_flow_stats(workers):
    seq = _storm(0, arbitration="wfq", flows=True)
    par = _storm(workers, arbitration="wfq", flows=True)
    assert par == seq


def test_event_counts_and_traffic_totals_merge_exactly():
    seq = _storm(0)
    par = _storm(2)
    assert par["events"] == seq["events"]
    assert par["bytes_hops"] == seq["bytes_hops"]
    assert par["messages"] == seq["messages"]


# ----------------------------------------------------------------------
# Fault schedules: pre-armed schedules replay sharded, bitwise
# ----------------------------------------------------------------------
_FAULTS = [{"kind": "down", "link": "l0-s0", "at": 500.0,
            "duration_ns": 8500.0}]
_LOSSY = [{"kind": "lossy", "link": "*", "at": 0.0, "loss_rate": 0.05,
           "duplicate_rate": 0.03}]
_MIXED = _LOSSY + _FAULTS + [
    {"kind": "slow", "link": "l1-s1", "at": 200.0, "slow_factor": 4.0,
     "duration_ns": 50000.0},
]


def test_fault_schedule_armed_before_start_matches_oracle():
    """A schedule armed before the first window replays *inside* the
    worker shards (the module-level RuntimeWarning-as-error mark proves
    no recall/disengage fires) and reproduces the sequential chaos run
    exactly — outage, host retransmissions and all."""
    seq = _storm(0, faults=_FAULTS)
    par = _storm(2, faults=_FAULTS)
    assert par == seq


@pytest.mark.parametrize("arbitration", ["fifo", "wfq"])
def test_pure_link_fault_schedule_runs_sharded(arbitration):
    """Loss/dup on every link, sharded: the seeded per-link rolls fire
    identically inside the owning workers; payload arrival order,
    makespan, and the merged drop/duplicate/retransmit counters are all
    bitwise vs the oracle."""
    seq = _storm(0, arbitration=arbitration, faults=_LOSSY)
    par = _storm(2, arbitration=arbitration, faults=_LOSSY)
    assert seq["drops"] > 0 and seq["duplicates"] > 0  # schedule bites
    assert par == seq


def test_mixed_fault_schedule_sharded_parity():
    """Lossy everywhere + a link outage + a slow link, together."""
    seq = _storm(0, faults=_MIXED)
    par = _storm(2, faults=_MIXED)
    assert par == seq


def test_fault_schedule_armed_mid_run_recalls_workers():
    """Arming mid-run pulls in-flight worker state back into the
    coordinator; the continued sequential run matches the oracle."""
    seq = _storm(0, faults=_FAULTS, arm_mid_run=True)
    par = _storm(2, faults=_FAULTS, arm_mid_run=True)
    assert par == seq


def test_wfq_recall_rebuilds_queue_state():
    """Recall under WFQ restores in-service queue entries, virtual
    times, and finish tags — pinned by an incast deep enough to have
    queued chunks at the recall barrier."""

    def incast(workers):
        topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=2)
        if workers:
            sim, net = build_engine(
                topo, workers=workers, router="updown", arbitration="wfq",
                coordinator_hosts=False,
            )
        else:
            sim, net = sequential_engine(
                topo, router="updown", arbitration="wfq"
            )
        arrivals = []
        for h in topo.hosts:
            net.on_deliver(h, lambda m, t, h=h: arrivals.append((h, m.src, t)))
        hosts = topo.hosts
        for k, src in enumerate(hosts[:-1]):
            for r in range(3):
                net.send(
                    Message(src, hosts[-1], 125000.0, flow=f"f{k % 4}"),
                    at=1.0 * k + 0.1 * r,
                )
        net.set_flow_weight("f0", 3.0)
        sim.run(until=5000.0)  # mid-contention: queues are deep
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net.arm_faults(
                [{"kind": "down", "link": "l0-s0", "at": 6000.0,
                  "duration_ns": 20000.0}],
                seed=3,
            )
            sim.run()  # the recall warning fires at the next barrier
        out = (sim.now, sorted(arrivals), dict(net.traffic.per_link))
        if hasattr(net, "shutdown"):
            net.shutdown()
        return out

    assert incast(2) == incast(0)


# ----------------------------------------------------------------------
# Fabric integration: collectives over the sharded engine
# ----------------------------------------------------------------------
def _fabric_ring(workers):
    fab = Fabric(n_hosts=32, hosts_per_leaf=8, n_spines=2,
                 routing="updown", workers=workers)
    comm = fab.communicator(name="t0")
    rng = np.random.default_rng(5)
    data = rng.integers(-8, 8, size=(32, 4096)).astype(np.float32)
    fut = comm.iallreduce(data, algorithm="ring")
    fab.run_until(fut)
    out = np.asarray(fut.result().extra["output"]).ravel()
    makespan = fab.now
    timeline = [
        (e["algorithm"], e["finish_ns"], e["goodput_gbps"], e["wire_bytes"])
        for e in fab.timeline()
    ]
    fab.shutdown()
    return out, makespan, timeline


def test_fabric_ring_allreduce_bitwise_and_makespan():
    seq_out, seq_makespan, seq_tl = _fabric_ring(0)
    par_out, par_makespan, par_tl = _fabric_ring(2)
    np.testing.assert_array_equal(par_out, seq_out)
    assert par_makespan == seq_makespan
    assert par_tl == seq_tl


def test_fabric_workers_builds_sharded_engine():
    fab = Fabric(n_hosts=32, hosts_per_leaf=8, n_spines=2, workers=2)
    try:
        assert isinstance(fab.sim, ShardedSimulator)
        assert fab.net.engaged
        assert fab.workers == 2
    finally:
        fab.shutdown()


# ----------------------------------------------------------------------
# Graceful degradation (satellite): warn + sequential, never error
# ----------------------------------------------------------------------
def test_more_workers_than_edge_switches_falls_back():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    with pytest.warns(RuntimeWarning, match="falling back to the sequential"):
        sim, net = build_engine(topo, workers=8, router="updown")
    assert not isinstance(sim, ShardedSimulator)
    got = []
    net.on_deliver("h1", lambda m, t: got.append(t))
    net.send(Message("h0", "h1", 4096.0))
    sim.run()
    assert len(got) == 1


def test_non_cacheable_router_falls_back():
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    with pytest.warns(RuntimeWarning, match="cannot be partitioned"):
        sim, net = build_engine(topo, workers=2, router="adaptive")
    assert not isinstance(sim, ShardedSimulator)


def test_plan_shards_rejects_impossible_cuts():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    with pytest.raises(ShardingError):
        plan_shards(topo, 8)


def test_unknown_sync_strategy_is_an_error():
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    with pytest.raises(ValueError, match="unknown sync strategy"):
        build_engine(topo, workers=2, sync="cmb")


def test_interceptor_registration_disengages_with_warning():
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    sim, net = build_engine(
        topo, workers=2, router="updown", arbitration="fifo",
        coordinator_hosts=False,
    )
    with pytest.warns(RuntimeWarning, match="disengaged before start"):
        net.intercept("l0", lambda net_, msg, now: False)
    assert not net.engaged
    # Still runs correctly, sequentially.
    got = []
    net.on_deliver("h9", lambda m, t: got.append(t))
    net.send(Message("h0", "h9", 4096.0))
    sim.run()
    assert len(got) == 1
    net.shutdown()


def test_workers_zero_is_the_classic_pair():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    sim, net = build_engine(topo, workers=0)
    assert not isinstance(sim, ShardedSimulator)
    assert not hasattr(net, "engaged")

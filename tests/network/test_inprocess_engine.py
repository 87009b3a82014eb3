"""The ``workers=0`` window engine against the per-event oracle.

``build_engine(workers=0)`` runs a FIFO fabric under a cacheable router
on the vectorized window engine with its one shard in this process.
``sequential_engine`` always builds the per-event pair.  Every storm
here must come out bitwise-identical on both: arrival times, per-link
and per-flow bytes, final clock and event count — including storms
whose send grid makes many arrivals tie at one instant, where the
window engine has to reproduce the heap's scheduling order.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.network import FatTreeTopology, Message
from repro.network.parallel import ShardedNetworkSimulator
from repro.pspin.pdes import ShardedSimulator, build_engine, sequential_engine

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: perfbench's parity storm: shape, and its send schedule (a host's
#: j-th message leaves at ``j * ROUND_NS`` plus a seeded offset in
#: ``[0, JITTER_NS)``, each round a cross-rack permutation).
PARITY = {"n_hosts": 512, "hosts_per_leaf": 16, "n_spines": 8,
          "msgs_per_host": 4}
FULL = {"n_hosts": 8192, "hosts_per_leaf": 32, "n_spines": 16,
        "msgs_per_host": 8}
ROUND_NS, JITTER_NS = 400.0, 64.0


def _storm_sends(cfg, seed):
    """``[(src, dst, nbytes, at, flow)]`` host-index sends of one
    permutation storm."""
    rng = np.random.default_rng([seed, cfg["n_hosts"]])
    n, hpl, m = cfg["n_hosts"], cfg["hosts_per_leaf"], cfg["msgs_per_host"]
    racks = n // hpl
    sends = []
    for j in range(m):
        order = rng.permutation(racks)
        to_rack = np.empty(racks, dtype=np.int64)
        to_rack[order] = np.roll(order, -int(rng.integers(1, racks)))
        slots = np.argsort(rng.random((racks, hpl)), axis=1)
        jitter = rng.uniform(0.0, JITTER_NS, size=n)
        for h in range(n):
            dst = int(to_rack[h // hpl] * hpl + slots[h // hpl, h % hpl])
            sends.append((h, dst, 4096.0, j * ROUND_NS + jitter[h], None))
    return sends


def _run(engine, shape, sends, router="updown", coordinator_hosts=False,
         setup=None, ready=None):
    """Run one storm; everything the parity assertions compare.
    ``setup(net)`` runs before the sends, ``ready(net)`` after them."""
    topo = FatTreeTopology(**shape)
    if engine == "oracle":
        sim, net = sequential_engine(topo, router=router, arbitration="fifo")
    else:
        sim, net = build_engine(
            topo, workers=0, router=router, arbitration="fifo",
            coordinator_hosts=coordinator_hosts,
        )
    arrivals = []
    hosts = topo.hosts
    for h in hosts:
        net.on_deliver(
            h, lambda m, t, h=h: arrivals.append((m.tag, h, m.flow, t))
        )
    if setup is not None:
        setup(net)
    for k, (s, d, nbytes, at, flow) in enumerate(sends):
        net.send(Message(hosts[s], hosts[d], nbytes, tag=k, flow=flow), at=at)
    if ready is not None:
        ready(net)
    sim.run()
    flows = sorted({f for *_, f in sends if f is not None})
    out = {
        "arrivals": sorted(arrivals),
        "per_link": dict(net.traffic.per_link),
        "bytes_hops": net.traffic.bytes_hops,
        "messages": net.traffic.messages,
        "now": sim.now,
        "events": sim.events_processed,
        "flows": {
            f: (net.flow_stats(f).bytes_hops, net.flow_stats(f).messages,
                dict(net.flow_stats(f).per_link))
            for f in flows
        },
    }
    if hasattr(net, "shutdown"):
        net.shutdown()
    return out, sim, net


def _shape(cfg):
    return {k: cfg[k] for k in ("n_hosts", "hosts_per_leaf", "n_spines")}


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_fifo_cacheable_workers_zero_is_the_window_engine():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    sim, net = build_engine(topo, workers=0, router="updown",
                            arbitration="fifo")
    assert isinstance(sim, ShardedSimulator)
    assert isinstance(net, ShardedNetworkSimulator) and net.in_process
    assert net._plan is None            # planned at the first barrier


@pytest.mark.parametrize("kwargs", [
    {"router": "updown", "arbitration": "wfq"},
    {"router": "adaptive", "arbitration": "fifo"},
])
def test_other_workers_zero_engines_stay_per_event(kwargs):
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    sim, net = build_engine(topo, workers=0, **kwargs)
    assert not isinstance(sim, ShardedSimulator)
    assert not hasattr(net, "engaged")


# ----------------------------------------------------------------------
# Bitwise parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7])
def test_parity_storm_bitwise(seed):
    sends = _storm_sends(PARITY, seed)
    ref, _, _ = _run("oracle", _shape(PARITY), sends)
    got, sim, net = _run("in-process", _shape(PARITY), sends)
    assert got == ref
    assert net.degradations == []
    assert sim.events_processed == 5 * len(sends)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7])
def test_full_storm_bitwise(seed):
    sends = _storm_sends(FULL, seed)
    ref, _, _ = _run("oracle", _shape(FULL), sends)
    got, _, _ = _run("in-process", _shape(FULL), sends)
    assert got == ref
    assert got["events"] == 5 * len(sends)


@st.composite
def _tie_storms(draw):
    """A small fat tree and a storm on a coarse send grid: sends share
    instants, and equal sizes make their arrivals tie again at every
    hop downstream."""
    hpl = draw(st.integers(2, 4))
    shape = {
        "n_hosts": hpl * draw(st.integers(1, 4)),
        "hosts_per_leaf": hpl,
        "n_spines": draw(st.integers(1, hpl)),
    }
    n = shape["n_hosts"]
    # Grid steps include one-hop times (serialization + 250 ns latency)
    # and bare serialization times of the sizes below at 100 Gbit/s.
    grid = draw(st.sampled_from(
        [0.0, 1.0, 100.0, 40.96, 120.0, 327.68, 577.68, 655.36]
    ))
    sizes = st.sampled_from([512.0, 4096.0, 4096.0, 8192.0, 1500.0])
    flows = st.sampled_from([None, "f0", "f1", "f2"])
    sends = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), sizes,
            st.integers(0, 12).map(lambda k: k * grid), flows,
        ).filter(lambda s: s[0] != s[1]),
        min_size=1, max_size=60,
    ))
    router = draw(st.sampled_from(["updown", "ecmp", "shortest"]))
    coordinator_hosts = draw(st.booleans())
    return shape, sends, router, coordinator_hosts


@given(_tie_storms())
# A host-sent row (hosts with the coordinator) and a spine hop reach one
# leaf link at the same instant, their parents having run at the same
# instant too: the host's send, scheduled before the run, goes first.
@example(case=(
    {"n_hosts": 6, "hosts_per_leaf": 3, "n_spines": 1},
    [(0, 3, 4096.0, 3 * 577.68, None), (4, 3, 4096.0, 5 * 577.68, None)],
    "updown", True,
))
def test_same_instant_ties_follow_heap_order(case):
    shape, sends, router, coordinator_hosts = case
    ref, _, _ = _run("oracle", shape, sends, router=router)
    got, _, _ = _run("in-process", shape, sends, router=router,
                     coordinator_hosts=coordinator_hosts)
    assert got == ref


# ----------------------------------------------------------------------
# Disengage and lifecycle
# ----------------------------------------------------------------------
_SMALL = {"n_hosts": 64, "hosts_per_leaf": 8, "n_spines": 4}
_LOSSY = [{"kind": "lossy", "link": "*", "at": 0.0, "loss_rate": 0.05,
           "duplicate_rate": 0.03}]


def _small_sends(offset=0.0):
    return [
        (i, (i + off) % 64, 4096.0 * (1 + (i + off) % 3), offset + 3.0 * i,
         None)
        for i in range(64) for off in (1, 9, 27)
    ]


def _disengage(net, how):
    if how == "intercept":
        net.intercept("l0", lambda net_, msg, now: False)
    else:
        net.arm_faults(_LOSSY, seed=7)


@pytest.mark.parametrize("sent", [False, True])
@pytest.mark.parametrize("how", ["intercept", "arm_faults"])
def test_disengage_before_a_run_is_per_event(how, sent):
    """Before the sends, or after them: arrivals already deferred for
    the unplanned shard rejoin the heap in their scheduling order."""
    hook = {"ready" if sent else "setup": lambda net: _disengage(net, how)}
    ref, _, _ = _run("oracle", _SMALL, _small_sends(), **hook)
    got, _, net = _run("in-process", _SMALL, _small_sends(), **hook)
    assert got == ref
    assert [d["event"] for d in net.degradations] == ["disengaged"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("how", ["intercept", "arm_faults"])
def test_disengage_between_runs_is_per_event(how):
    def two_runs(engine):
        topo = FatTreeTopology(**_SMALL)
        if engine == "oracle":
            sim, net = sequential_engine(topo, router="updown",
                                         arbitration="fifo")
        else:
            sim, net = build_engine(topo, workers=0, router="updown",
                                    arbitration="fifo",
                                    coordinator_hosts=False)
        arrivals = []
        for h in topo.hosts:
            net.on_deliver(h, lambda m, t, h=h: arrivals.append((h, m.tag, t)))
        for phase in range(2):
            if phase:
                _disengage(net, how)
            for k, (s, d, nb, at, _f) in enumerate(_small_sends(sim.now)):
                net.send(Message(topo.hosts[s], topo.hosts[d], nb,
                                 tag=(phase, k)), at=at)
            sim.run()
        out = (sorted(arrivals), dict(net.traffic.per_link), sim.now,
               sim.events_processed, net.traffic.drops)
        return out, net

    ref, _ = two_runs("oracle")
    got, net = two_runs("in-process")
    assert got == ref
    assert [d["event"] for d in net.degradations] == ["recall"]
    assert not net.engaged
    assert multiprocessing.active_children() == []


def test_no_processes_and_idempotent_shutdown():
    topo = FatTreeTopology(**_SMALL)
    sim, net = build_engine(topo, workers=0, router="updown",
                            arbitration="fifo")
    got = []
    net.on_deliver("h9", lambda m, t: got.append(t))
    net.send(Message("h0", "h9", 4096.0))
    sim.run()
    assert len(got) == 1 and net.engaged
    assert multiprocessing.active_children() == []
    net.shutdown()
    net.shutdown()
    assert not net.engaged
    net.__del__()       # interpreter teardown after an explicit shutdown

"""Worker supervision: crashed or wedged shard workers must not hang.

The coordinator heartbeats the barrier (``REPRO_SUPERVISE=checkpoint``,
the default): every window each worker ships a checkpoint of its
in-flight state, so when a worker dies mid-window the coordinator
restores the whole fabric from the last completed window and finishes
the run sequentially — with results bitwise identical to an
uninterrupted run, plus a recorded degradation event.

The kill switch is scheduled as a simulation event in *both* runs (a
no-op in the sequential one) so ``events_processed`` stays comparable.
"""

import os
import signal
import warnings

import pytest

from repro.network import FatTreeTopology, Message
from repro.pspin.pdes import build_engine, sequential_engine

_LOSSY = [{"kind": "lossy", "link": "*", "at": 0.0, "loss_rate": 0.05,
           "duplicate_rate": 0.03}]


def _storm(workers, arbitration="fifo", faults=None, sig=None,
           kill_at=5000.0):
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
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
    if faults is not None:
        net.arm_faults(faults, seed=7)
    hosts = topo.hosts
    n = len(hosts)
    k = 0
    for i, src in enumerate(hosts):
        for off in (1, 7, 19):
            flow = f"f{k % 3}" if arbitration == "wfq" else None
            net.send(
                Message(src, hosts[(i + off) % n], 4096.0 * (1 + k % 5),
                        flow=flow),
                at=3.0 * k,
            )
            k += 1

    def boom():
        if sig is not None and getattr(net, "_procs", None):
            os.kill(net._procs[0].pid, sig)

    sim.schedule_at(kill_at, boom)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim.run()
    tr = net.traffic
    out = {
        "makespan": sim.now,
        "arrivals": sorted(arrivals),
        "per_link": dict(tr.per_link),
        "events": sim.events_processed,
        "bytes_hops": tr.bytes_hops,
        "messages": tr.messages,
        "drops": tr.drops,
        "duplicates": tr.duplicates,
        "retransmits": tr.retransmits,
    }
    degradations = list(getattr(net, "degradations", []))
    if hasattr(net, "shutdown"):
        net.shutdown()
    return out, degradations


@pytest.mark.parametrize("arbitration", ["fifo", "wfq"])
def test_sigkilled_worker_recovers_bitwise(arbitration):
    seq, _ = _storm(0, arbitration=arbitration)
    crash, degradations = _storm(
        2, arbitration=arbitration, sig=signal.SIGKILL
    )
    assert crash == seq
    assert [d["event"] for d in degradations] == ["worker_crash"]
    assert degradations[0]["worker"] == 0
    assert "died" in degradations[0]["reason"]


def test_sigkill_under_armed_faults_recovers_bitwise():
    """The recovered sequential tail continues the *same* seeded fault
    replay: roll counters and retransmission state survive the crash."""
    seq, _ = _storm(0, faults=_LOSSY)
    crash, degradations = _storm(2, faults=_LOSSY, sig=signal.SIGKILL)
    assert seq["drops"] > 0
    assert crash == seq
    assert [d["event"] for d in degradations] == ["worker_crash"]


def test_wedged_worker_times_out_and_recovers(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "1.0")
    seq, _ = _storm(0)
    wedged, degradations = _storm(2, sig=signal.SIGSTOP)
    assert wedged == seq
    assert [d["event"] for d in degradations] == ["worker_crash"]
    assert "wedged" in degradations[0]["reason"]


def test_crash_recovery_warns():
    with pytest.warns(RuntimeWarning, match="lost worker"):
        topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
        sim, net = build_engine(
            topo, workers=2, router="updown", coordinator_hosts=False,
        )
        got = []
        net.on_deliver("h1", lambda m, t: got.append(t))
        for k in range(200):
            net.send(Message("h0", "h1", 4096.0), at=3.0 * k)
        sim.schedule_at(
            200.0,
            lambda: net._procs and os.kill(net._procs[0].pid, signal.SIGKILL),
        )
        sim.run()
        net.shutdown()
    assert len(got) == 200


def test_detect_mode_fails_fast(monkeypatch):
    monkeypatch.setenv("REPRO_SUPERVISE", "detect")
    with pytest.raises(RuntimeError, match="died at the barrier"):
        _storm(2, sig=signal.SIGKILL)


def test_unknown_supervision_mode_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SUPERVISE", "maybe")
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    with pytest.raises(ValueError, match="REPRO_SUPERVISE"):
        build_engine(topo, workers=2, router="updown")

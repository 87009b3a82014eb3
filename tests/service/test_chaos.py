"""Chaos composition: faults landing mid-service-run on the one clock.

The service adds no second event loop, so PR 5's fault layer composes
for free: a link outage injected mid-stream hits running collectives,
the fabric's self-healing replans them, and the SLO report shows the
recovery — while every job still completes.
"""

import pytest

from repro.comm.fabric import Fabric
from repro.service import FabricService, TraceWorkload


def _trace(n_jobs=4):
    return {
        "schema_version": 1,
        "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
        "jobs": [
            {"tenant": "prod" if i % 2 == 0 else "batch",
             "arrival": float(i * 5_000.0), "size": "4MiB",
             "algorithm": "flare_dense", "gap": 20_000.0, "iterations": 3,
             "n_hosts": 8}
            for i in range(n_jobs)
        ],
    }


def test_mid_stream_link_outage_recovers_and_completes():
    fabric = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    service = FabricService(fabric, TraceWorkload(_trace()))
    # Kill a leaf uplink mid-run (jobs pack under l0, aggregating there).
    fabric.inject(link="l0-s0", at=50_000.0, kind="down")
    report = service.run()

    assert report["jobs"]["completed"] == 4
    assert report["starved_jobs"] == []
    recoveries = sum(
        cls["recoveries"] for cls in report["classes"].values()
    )
    assert recoveries >= 1
    # The fault itself is visible in the report's event log.
    assert any(
        ev.get("event") == "fault" and ev.get("link") == "l0-s0"
        for ev in report["faults"]
    )


def test_switch_outage_falls_back_and_still_completes():
    # Two spines: killing s0 costs the aggregation root but leaves the
    # network connected (s1 still wires every leaf).
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    service = FabricService(fabric, TraceWorkload(_trace(2)))
    fabric.inject(switch="s0", at=10_000.0, kind="down")
    report = service.run()
    assert report["jobs"]["completed"] == 2
    fell_back = sum(cls["fell_back"] for cls in report["classes"].values())
    recovered = sum(cls["recoveries"] for cls in report["classes"].values())
    assert fell_back + recovered >= 1


def test_transient_outage_with_repair():
    fabric = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    service = FabricService(fabric, TraceWorkload(_trace(4)))
    fabric.inject(link="l0-s0", at=30_000.0, kind="down", duration_ns=200_000.0)
    report = service.run()
    assert report["jobs"]["completed"] == 4
    events = {ev.get("event") for ev in report["faults"]}
    assert {"fault", "repair"} <= events


class _PerEntryProbeService(FabricService):
    """Reference drain: every probe re-plans its job from scratch (no
    stamped footprints), so it always sees the live failure state."""

    def _on_pool_release(self):
        if self._draining or not len(self.queue):
            return
        self._draining = True
        try:
            while True:
                for entry in self.queue:
                    entry.key = entry.job
                entry = self.queue.pop_admittable(
                    self._replanned_fits, self.fabric.now
                )
                if entry is None:
                    break
                self._issue(entry.job, queued_ns=entry.enqueued_ns)
        finally:
            self._draining = False
        self.queue.sample_depth()

    def _replanned_fits(self, job):
        comm = self._comms[job.tenant_class]
        plan = comm.plan(nbytes=job.nbytes, **self._request_kwargs(job))
        return self.fabric.would_admit(plan, tenant=comm.name) is None


def _contended_trace(algorithm, n_jobs=6):
    return {
        "schema_version": 1,
        "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
        "jobs": [
            {"tenant": "prod" if i % 2 == 0 else "batch",
             "arrival": float(i * 1_000.0), "size": "1MiB",
             "algorithm": algorithm, "gap": 20_000.0, "iterations": 2,
             "n_hosts": 8}
            for i in range(n_jobs)
        ],
    }


def _strip(report):
    """The report minus what legitimately differs between drains (plan
    cache counters see fewer probes) or between runs (identity)."""
    drop = {"plan_cache", "run_id", "provenance_db"}
    return {
        **{k: v for k, v in report.items() if k not in drop},
        "snapshots": [
            {k: v for k, v in snap.items() if k not in drop}
            for snap in report["snapshots"]
        ],
    }


_FAIL_AT = 3_000.0


def _run_with_spine_outage(service_cls, policy, algorithm, repair_at):
    """Run the contended trace with spine s0 down from ``_FAIL_AT`` to
    ``repair_at``.  Returns the report, the keys waiting just before
    the fault, and every pool check as ``(time, switches, default
    root)``."""
    # One slot per switch: iterations queue behind each other, and the
    # spine outage lands while entries stamped on s0 are waiting.
    fabric = Fabric(
        n_hosts=16, hosts_per_leaf=4, n_spines=2, max_allreduces_per_switch=1
    )
    service = service_cls(
        fabric, TraceWorkload(_contended_trace(algorithm)),
        queue_policy=policy, snapshot_interval_ns=100_000.0,
    )
    fabric.inject(
        switch="s0", at=_FAIL_AT, kind="down", duration_ns=repair_at - _FAIL_AT
    )
    waiting_at_fault = []
    fabric.sim.schedule_at(
        _FAIL_AT - 1.0,
        lambda: waiting_at_fault.extend(e.key for e in service.queue),
    )
    checked = []
    check = fabric.manager.check

    def recording_check(switches, **kwargs):
        checked.append((fabric.now, tuple(switches), fabric.default_root))
        return check(switches, **kwargs)

    fabric.manager.check = recording_check
    return service.run(), waiting_at_fault, checked


@pytest.mark.parametrize("policy", ["wfq", "fifo"])
@pytest.mark.parametrize("algorithm, repair_at", [
    # Waiting trees run through s0; the repair lands while others wait.
    ("flare_dense", 503_000.0),
    # No tree: admitted on the fabric's default root, which moves to s1
    # and stays there after the repair, while entries stamped on s0
    # still wait (FIFO re-derives only the head).
    ("flare_switch", 40_000.0),
])
def test_outage_while_queued_restamps_footprints(policy, algorithm, repair_at):
    report, waiting_at_fault, checked = _run_with_spine_outage(
        FabricService, policy, algorithm, repair_at
    )
    assert report["jobs"]["completed"] == 6
    assert report["starved_jobs"] == []
    # The outage hit waiting entries stamped on s0, and the pools were
    # probed while it lasted...
    assert sum("s0" in fp[0] for fp in waiting_at_fault) >= 2
    during = [s for t, s, _root in checked if _FAIL_AT <= t < repair_at]
    assert during
    # ...yet no probe used a pre-fault footprint: every stale stamp
    # was re-derived over the live topology first.
    assert not any("s0" in switches for switches in during)
    reference, _, _ = _run_with_spine_outage(
        _PerEntryProbeService, policy, algorithm, repair_at
    )
    assert _strip(report) == _strip(reference)

"""Admission queue disciplines: FIFO head-of-line vs weighted-fair."""

import pytest
from hypothesis import given, strategies as st

from repro.core.manager import NetworkManager
from repro.service import AdmissionQueue
from repro.service.workload import Job


def _job(job_id, nbytes=1024.0, cls="t"):
    return Job(
        job_id=job_id, tenant_class=cls, arrival_ns=0.0, nbytes=nbytes,
        n_hosts=None, iterations=1, gap_ns=0.0,
    )


def _push(q, job, *, cls="t", weight=1.0, now=0.0, reason="slots"):
    q.push(job, tenant_class=cls, weight=weight, now=now, reason=reason)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="queue policy"):
        AdmissionQueue("lifo")


def test_fifo_preserves_arrival_order():
    q = AdmissionQueue("fifo")
    for i in range(3):
        _push(q, _job(i), now=float(i))
    order = [q.pop_admittable(lambda j: True, 10.0).job.job_id for _ in range(3)]
    assert order == [0, 1, 2]


def test_fifo_head_of_line_blocks():
    # Head not admittable -> nothing dequeues, even though job 1 could.
    q = AdmissionQueue("fifo")
    _push(q, _job(0))
    _push(q, _job(1))
    assert q.pop_admittable(lambda j: j.job_id == 1, 0.0) is None
    assert len(q) == 2


def test_wfq_skips_blocked_entries():
    q = AdmissionQueue("wfq")
    _push(q, _job(0))
    _push(q, _job(1))
    entry = q.pop_admittable(lambda j: j.job_id == 1, 0.0)
    assert entry.job.job_id == 1
    assert len(q) == 1


def test_wfq_heavy_class_drains_proportionally_faster():
    # Equal bytes; the 4x-weight class accrues vft 4x slower, so its
    # backlog interleaves 4:1 ahead of the 1x class.
    q = AdmissionQueue("wfq")
    for i in range(4):
        _push(q, _job(i, cls="prod"), cls="prod", weight=4.0)
    for i in range(4, 8):
        _push(q, _job(i, cls="batch"), cls="batch", weight=1.0)
    order = [
        q.pop_admittable(lambda j: True, 0.0).job.tenant_class
        for _ in range(8)
    ]
    assert order[:5] == ["prod", "prod", "prod", "prod", "batch"]


def test_wfq_light_class_not_starved():
    # vnow advances with dequeues, so a light class parked early cannot
    # be leapfrogged forever by later heavy arrivals.
    q = AdmissionQueue("wfq")
    _push(q, _job(0, cls="light"), cls="light", weight=1.0)
    for i in range(1, 9):
        _push(q, _job(i, cls="heavy"), cls="heavy", weight=8.0)
    drained = [
        q.pop_admittable(lambda j: True, 0.0).job.tenant_class
        for _ in range(9)
    ]
    assert "light" in drained[:8]


def test_wfq_ties_break_by_sequence():
    q = AdmissionQueue("wfq")
    _push(q, _job(0, cls="a"), cls="a")
    _push(q, _job(1, cls="b"), cls="b")
    # Same bytes, same weight, fresh class vfts -> identical vft; the
    # earlier enqueue wins.
    assert q.pop_admittable(lambda j: True, 0.0).job.job_id == 0


def test_counters_and_wait_samples():
    q = AdmissionQueue("wfq")
    _push(q, _job(0), now=100.0, reason="slots")
    _push(q, _job(1), now=200.0, reason="memory")
    q.sample_depth()
    entry = q.pop_admittable(lambda j: True, 500.0)
    assert entry.enqueued_ns == 100.0
    assert q.enqueued == 2 and q.dequeued == 1
    assert q.wait_samples_ns == [400.0]
    assert q.depth_samples == [2]
    assert q.reason_counts == {"slots": 1, "memory": 1}
    assert [e.job.job_id for e in q.waiting()] == [1]
    assert q.depth == 1


def test_pop_on_empty_returns_none():
    q = AdmissionQueue("fifo")
    assert q.pop_admittable(lambda j: True, 0.0) is None


def test_reports_and_checkpoints_keep_arrival_order():
    # WFQ probes in vft order (1: 256, 0: 4096, 2: 4608), but starved
    # lists (waiting) and checkpoints (to_state) stay in arrival order;
    # a restored queue probes in vft order again.
    q = AdmissionQueue("wfq")
    _push(q, _job(0, nbytes=4096.0, cls="batch"), cls="batch", weight=1.0)
    _push(q, _job(1, cls="prod"), cls="prod", weight=4.0)
    _push(q, _job(2, nbytes=512.0, cls="batch"), cls="batch", weight=1.0)
    assert [e.job.job_id for e in q] == [1, 0, 2]
    assert [e.job.job_id for e in q.waiting()] == [0, 1, 2]
    state = q.to_state()
    assert [e["job_id"] for e in state["entries"]] == [0, 1, 2]
    jobs = {e.job.job_id: e.job for e in q}
    restored = AdmissionQueue("wfq")
    restored.from_state(state, jobs.__getitem__)
    assert [e.job.job_id for e in restored] == [1, 0, 2]
    assert restored.to_state() == state


class _PerEntryProbeQueue:
    """Reference drain: every pop re-sorts the waiting list and probes
    every entry it passes, one probe per entry (the queue as it was
    before footprint stamping)."""

    def __init__(self, policy):
        self.policy = policy
        self._items = []
        self._seq = 0
        self._class_vft = {}
        self._vnow = 0.0

    def push(self, job, *, tenant_class, weight, now, reason):
        vft = max(self._class_vft.get(tenant_class, 0.0), self._vnow)
        vft += float(job.nbytes) / weight
        self._class_vft[tenant_class] = vft
        self._items.append((vft, self._seq, job))
        self._seq += 1

    def pop_admittable(self, admittable, now):
        if not self._items:
            return None
        if self.policy == "fifo":
            candidates = [self._items[0]]
        else:
            candidates = sorted(self._items, key=lambda q: (q[0], q[1]))
        for entry in candidates:
            if admittable(entry[2]):
                self._items.remove(entry)
                self._vnow = max(self._vnow, entry[0])
                return entry[2]
        return None

    def waiting(self):
        return [job for _vft, _seq, job in self._items]


_CLASSES = {"prod": 4.0, "batch": 1.0}


@st.composite
def _drain_cases(draw):
    switches = [f"sw{i}" for i in range(draw(st.integers(2, 5)))]
    footprint = st.tuples(
        st.lists(st.sampled_from(switches), min_size=1, unique=True).map(
            lambda s: tuple(sorted(s))
        ),
        st.sampled_from(sorted(_CLASSES)),
        st.sampled_from([512.0, 1024.0, 2048.0]),
    )
    ops = draw(st.lists(
        st.one_of(st.tuples(st.just("push"), footprint), st.just(("release",))),
        min_size=1, max_size=40,
    ))
    return {
        "policy": draw(st.sampled_from(["fifo", "wfq"])),
        "slots": draw(st.integers(1, 3)),
        "memory": draw(st.sampled_from([None, 2048.0, 4096.0])),
        "quota": draw(st.sampled_from([None, 1, 2])),
        "ops": ops,
    }


def _replay(case, queue, stamped):
    """Drive ``queue`` through the case against a real switch pool.

    Returns the admitted job ids in order, the waiting ids in arrival
    order, and ``[probes, distinct footprints waiting]`` per pop call.
    ``stamped`` pushes each entry with its footprint; otherwise the
    probe maps the job to its footprint itself."""
    pools = NetworkManager(
        case["slots"], switch_memory_bytes=case["memory"],
        tenant_quota=case["quota"],
    )
    footprints, running, admitted, probes = {}, [], [], []

    def check(footprint):
        switches, tenant, nbytes = footprint
        return pools.check(switches, tenant=tenant, memory_bytes=nbytes) is None

    def admit(job_id):
        switches, tenant, nbytes = footprints[job_id]
        running.append(pools.admit(switches, tenant=tenant, memory_bytes=nbytes))
        admitted.append(job_id)

    def probe(arg):
        probes[-1][0] += 1
        return check(footprints[arg.job_id] if isinstance(arg, Job) else arg)

    for op in case["ops"]:
        if op[0] == "push":
            job_id = len(footprints)
            fp = footprints[job_id] = op[1]
            if check(fp):
                admit(job_id)
                continue
            queue.push(
                _job(job_id, nbytes=fp[2], cls=fp[1]),
                tenant_class=fp[1], weight=_CLASSES[fp[1]], now=0.0,
                reason="slots", **({"footprint": fp} if stamped else {}),
            )
        elif running:
            pools.release(running.pop(0))
            while True:
                waiting = _waiting_ids(queue)
                probes.append([0, len({footprints[i] for i in waiting})])
                entry = queue.pop_admittable(probe, 0.0)
                if entry is None:
                    break
                admit(getattr(entry, "job", entry).job_id)
    return admitted, _waiting_ids(queue), probes


def _waiting_ids(queue):
    return [getattr(q, "job", q).job_id for q in queue.waiting()]


@given(_drain_cases())
def test_footprint_memo_drain_matches_per_entry_probes(case):
    # Probes never mutate the pools, so answering every entry that
    # shares a footprint with one probe admits exactly what probing
    # each entry admits, in the same order.
    admitted, waiting, probes = _replay(
        case, AdmissionQueue(case["policy"]), stamped=True
    )
    ref_admitted, ref_waiting, _ = _replay(
        case, _PerEntryProbeQueue(case["policy"]), stamped=False
    )
    assert admitted == ref_admitted
    assert waiting == ref_waiting
    for calls, distinct in probes:
        assert calls <= (1 if case["policy"] == "fifo" else distinct)

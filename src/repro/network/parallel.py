"""Sharded parallel network simulation: conservative window PDES.

This is the execution half of the sharded engine (planning lives in
``repro.network.shard``, engine selection in ``repro.pspin.pdes``).
The fabric graph is partitioned into shards; the coordinator keeps the
driver loop, the collectives' callbacks, and every ``Message`` object,
while shard runtimes simulate transport through their region of the
fabric.  With ``workers >= 1`` each shard runs in a forked worker
process behind a pipe.  The ``workers=0`` engine runs its one FIFO
shard in the coordinator process behind a loopback connection with
the same ``send``/``recv`` seam (:class:`_LocalConn`): same barrier
protocol, no fork, no pipe, no heartbeat, no checkpoint shipping —
nothing can crash separately.  That shard shares the coordinator's
``Topology``/``Link`` objects instead of owning a copy-on-write copy,
so it never replays topology mutations itself, and anything that would
make it mutate them (armed faults) or see messages mid-path
(interceptors) keeps the run on the per-event path.  It is planned at
its first barrier, not at construction.

Design in five invariants
-------------------------
1. **Windows equal lookahead.**  Each barrier grants everyone the
   window ``[T0, T0 + L)`` where ``T0`` is the global minimum next
   event and ``L`` the minimum link latency.  A message processed at
   ``t >= T0`` arrives at its next node at ``t + serialization + L >=
   T0 + L``, so every event strictly inside the window is safe — and,
   because *every* link's latency is at least ``L``, a message makes at
   most one hop per window.  That single-hop property is what lets a
   worker execute a whole window as one numpy batch (sort arrivals per
   link, chain the serializations) instead of running an event loop.

2. **Scheduling-time diversion.**  ``NetworkSimulator._schedule_hop``
   is the single seam through which every arrival is scheduled.  The
   coordinator's override diverts arrivals at worker-owned nodes into
   struct-of-arrays batches (columns: time, mid, node, src, dst,
   nbytes, flow) the moment they are *scheduled* — diverting at
   execution time would already have missed the lookahead deadline.

3. **Messages never leave the coordinator.**  A message crossing into
   a worker region is *parked* under a fresh ``mid``; only numeric
   metadata crosses the pipe.  Workers route/serialize by metadata and
   bounce two things back: onward crossings, and *deliveries* at nodes
   with registered callbacks — the coordinator unparks the original
   (payload, tag and all) and runs the callback at the exact bounced
   timestamp, inside its own copy of the same window.  Worker-to-worker
   crossings hub-relay through the coordinator with the next grant;
   the lookahead guarantees they are never late.

4. **Workers run a window before the coordinator does.**  Collectives
   read per-flow traffic mid-run (``finished()`` snapshots flow
   stats), so each barrier first collects the workers' per-flow stat
   deltas for the window, then lets the coordinator execute its local
   copy — every hop of a flow happens-before the delivery callback
   that might read it.  Global per-link tables are merged lazily at
   quiescence from nonzero numpy deltas.

5. **Faults replay inside their owning shard.**  ``LinkFault`` rolls
   are seeded on the link's monotone message counter, so they are a
   pure function of per-link event order — deterministic wherever the
   link executes.  Each worker arms its own injector over its private
   topology copy from the coordinator's armed spec list, fires
   apply/repair transitions at the exact simulated instants, and rolls
   loss/duplication locally; end-to-end retransmissions are handed to
   the shard owning the source host through the regular crossing
   batches (an extra ``meta`` column carries the retry count,
   duplicate flag, and retransmit-event flag).  Only the genuinely
   non-replayable cases recall the shards to the sequential engine:
   interceptors, mid-run arming, retransmit timeouts shorter than the
   lookahead, and outage schedules with live recovery listeners (their
   reactions mutate cross-shard state at window granularity).

6. **The engine supervises its own workers.**  Barrier receives poll
   with a heartbeat instead of blocking forever.  Under the default
   ``checkpoint`` supervision mode each window's reply carries the
   worker's post-window in-flight state (pending arrivals, WFQ queue
   contents, link-counter deltas), which the coordinator folds into a
   per-shard mirror — windows are natural checkpoint boundaries.  When
   a worker dies or wedges, surviving shards' mirrors are current
   through the completed window, the dead shard is restored from its
   last completed window plus the undelivered grant, and the run
   continues sequentially with identical results, recording a
   degradation event instead of hanging.  ``REPRO_SUPERVISE=detect``
   keeps detection but fails fast; ``off`` restores blocking receives.

Determinism: batches are sorted by ``(time, key, mid)`` before
scheduling, worker replies are merged in shard order, and the spine
hash is process-stable — same inputs, same event order, every run.
``key`` reproduces the per-event heap's tie-break among same-instant
arrivals, which is scheduling order: a vector worker numbers the rows
it executes in ``(time, key, mid)`` order, and a row's key is the
number of the execution that scheduled it.  Rows the coordinator
schedules carry the number of the delivery whose callback scheduled
them, or else an odd key placing the scheduling event among the shard
executions of its window: after those before its instant, ahead of
those at it, like an arrival scheduled before the run (key -1 before
the first window; rows with equal keys tie by ``mid``, their creation
order).  With one shard this is exactly the heap's order for transport
and delivery callbacks; across shards, ties are deterministic but not
heap-exact.  Serialization chains replicate
``Link.transmit``'s float operations exactly, so delivery timestamps
are bit-identical to the sequential engine's.
"""

from __future__ import annotations

import heapq
import math
import os
import time as _walltime
import traceback
import warnings
from functools import cached_property
from operator import attrgetter

import numpy as np

from repro.network.faults import _HASH_SPAN, FaultInjector
from repro.network.routing import Router
from repro.network.shard import (
    COORDINATOR, ShardingError, ShardPlan, plan_shards, updown_next_hop_vec,
)
from repro.network.simulator import (
    Message, NetworkSimulator, UnreachableError, _LinkQueue,
)
from repro.network.topology import NodeId, Topology
from repro.pspin.engine import _ARGS, _CALLBACK, _SEQ, _TIME, Simulator
from repro.utils.rngtools import stable_hash

_INF = float("inf")

# Crossing-batch column order (struct of arrays):
# time f8, mid i8, node i8, src i8, dst i8, nbytes f8, flow i8, meta i8,
# key i8.  ``meta`` packs reliability state: bit 0 = ephemeral
# duplicate, bit 1 = retransmit event (fires at the source host), bits
# 2+ = retry count.  It is all zeros outside fault runs.  ``key`` is the
# same-instant tie-break (see the module docstring).  Delivery batches
# carry (time, mid, node, meta, key) only: in both kinds the key is the
# last column.
_BATCH_DTYPES = (
    np.float64, np.int64, np.int64, np.int64, np.int64, np.float64,
    np.int64, np.int64, np.int64,
)

#: Key of rows with no scheduling rank: scheduled before the first
#: barrier, or by a per-event (WFQ) shard, where ``mid`` alone orders
#: ties.
_UNRANKED = -1

_META_EPHEMERAL = 1
_META_RETRANSMIT = 2


def _rows_to_batch(rows: list[tuple]) -> tuple | None:
    if not rows:
        return None
    cols = list(zip(*rows))
    return tuple(
        np.asarray(col, dtype=dt) for col, dt in zip(cols, _BATCH_DTYPES)
    )


def _concat_batches(batches: list) -> tuple | None:
    batches = [b for b in batches if b is not None and b[0].size]
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    return tuple(np.concatenate(cols) for cols in zip(*batches))


def _mask_batch(batch: tuple, mask: np.ndarray) -> tuple:
    return tuple(col[mask] for col in batch)


def _sort_batch(batch: tuple) -> tuple:
    # time-major, then scheduling key, then mid (creation order).
    order = np.lexsort((batch[1], batch[-1], batch[0]))
    return tuple(col[order] for col in batch)


def _batch_arrivals(batch: tuple | None) -> list[tuple]:
    """Crossing rows as recall arrivals ``(time, key, mid, node,
    meta)``; sorting them gives scheduling order."""
    if batch is None:
        return []
    return list(zip(
        batch[0].tolist(), batch[-1].tolist(), batch[1].tolist(),
        batch[2].tolist(), batch[7].tolist(),
    ))


def _msg_meta(msg: Message) -> int:
    return (msg.retries << 2) | (_META_EPHEMERAL if msg.ephemeral else 0)


class _WorkerDied(Exception):
    """A worker process exited or wedged at the barrier."""

    def __init__(self, worker: int, reason: str) -> None:
        super().__init__(f"shard worker {worker}: {reason}")
        self.worker = worker
        self.reason = reason


class _OneShardOwners(dict):
    """Owner table of an in-process engine before its plan exists: a
    one-shard plan owns every switch, and every host unless hosts stay
    with the coordinator (``plan_shards(topology, 1, ...)``)."""

    def __init__(self, topology: Topology, coordinator_hosts: bool) -> None:
        super().__init__()
        self._is_switch = topology.is_switch
        self._hosts = COORDINATOR if coordinator_hosts else 0

    def __missing__(self, node: NodeId) -> int:
        owner = self[node] = 0 if self._is_switch(node) else self._hosts
        return owner


class _CoordinatorFaultInjector(FaultInjector):
    """Coordinator-side injector for the sharded engine.

    Arming stays sharded: every injected spec is noted so the worker
    shards (forked later) arm identical local injectors and roll their
    own per-link fault decisions at the exact simulated instants.  The
    coordinator still applies every spec to its own topology copy —
    but the topology mutations its applications trigger are *muted*
    from the control-op broadcast: each worker fires the same
    transition itself, and a broadcast ctl op would arrive one window
    late.  Specs injected after the shards forked recall the engine to
    the sequential path (graceful degradation, not an error).
    """

    def inject(self, spec) -> None:
        net = self.net
        if net._forked:
            net._request_recall("fault injected mid-run")
        super().inject(spec)

    def _apply(self, spec) -> None:
        net = self.net
        net._ctl_mute += 1
        try:
            super()._apply(spec)
        finally:
            net._ctl_mute -= 1

    def _repair(self, spec) -> None:
        net = self.net
        net._ctl_mute += 1
        try:
            super()._repair(spec)
        finally:
            net._ctl_mute -= 1


class ShardedNetworkSimulator(NetworkSimulator):
    """Coordinator-side network simulator for the sharded engine.

    Construct through ``repro.pspin.pdes.build_engine`` (which plans
    the shards and handles graceful fallback); ``sim`` must be a
    :class:`~repro.pspin.pdes.ShardedSimulator`.  ``in_process`` runs
    one shard in this process instead of forked workers
    (``build_engine(workers=0)``); it takes no ``plan`` but plans
    itself, with ``coordinator_hosts``, at its first barrier.
    """

    _fault_injector_cls = _CoordinatorFaultInjector

    def __init__(
        self,
        topology: Topology,
        router: "Router | str | None" = None,
        routing_seed: int = 0,
        sim: Simulator | None = None,
        arbitration: str = "fifo",
        plan: ShardPlan | None = None,
        in_process: bool = False,
        coordinator_hosts: bool = True,
    ) -> None:
        if (plan is None) != in_process:
            raise ValueError(
                "ShardedNetworkSimulator needs a ShardPlan, or in_process "
                "(which plans itself)"
            )
        super().__init__(
            topology, router=router, routing_seed=routing_seed,
            sim=sim, arbitration=arbitration,
        )
        if not hasattr(self.sim, "attach_coupler"):
            raise TypeError("sharded engine needs a ShardedSimulator")
        self.in_process = in_process
        self.engaged = True
        self._forked = False
        self._suspend_reason: str | None = None
        self._procs: list = []
        self._conns: list = []
        # name -> owner (int; -1 coordinator) for the hot path.
        self._plan: ShardPlan | None = None
        if plan is not None:
            self._adopt_plan(plan)
        else:
            self._coordinator_hosts = coordinator_hosts
            self._owner = _OneShardOwners(topology, coordinator_hosts)
        # Before the first barrier (in process): (time, msg, node, seq)
        # of arrivals at shard-owned nodes, each holding the heap
        # sequence number its ``schedule_fast`` would have taken.
        self._unplanned: list[tuple] = []
        # Parked originals and message ids.
        self._parked: dict[int, Message] = {}
        self._next_mid = 1
        # Scheduling key of the rows a bounced delivery's callback
        # offloads (its shard's number for the delivery); None outside
        # one, where _placement_key applies.
        self._offload_key: int | None = None
        # Per shard, (number of its first execution, times of its
        # executions in number order) for the last granted window.
        self._shard_execs: list[tuple] = []
        # Undelivered cross-shard rows (hub relay).
        self._pending_rows: list[tuple] = []
        self._pending_batches: list[tuple] = []
        self._pending_min = _INF
        self._pending_count = 0
        # Worker status caches.
        self._worker_next: list[float] = []
        self._worker_last: list[float] = []
        self._worker_pending: list[int] = []
        self._remote_events = 0
        self._flushed = True
        # Provenance: WFQ queue-depth peaks reported by workers at
        # flush/recall, max-merged (integer maxima are order-free, so
        # this matches a sequential run bitwise).
        self._shard_queue_peaks: dict[tuple, int] = {}
        # Control ops for the next grant.  Only live workers need them:
        # a worker starts from the coordinator's state.
        self._ctl: list[tuple] = []
        # Flow <-> integer encoding shared with workers.
        self._flow_enc_map: dict = {None: 0}
        self._flow_by_enc: dict = {0: None}
        # Nonzero while the coordinator's own fault applications mutate
        # the topology: those transitions replay inside each worker, so
        # broadcasting them as ctl ops would double-apply one window
        # late.
        self._ctl_mute = 0
        #: Degradation log: every recall, pre-fork disengage, and
        #: worker-crash recovery, as dicts with ``event``, ``reason``,
        #: ``sim_time_ns`` (provenance records these per run).
        self.degradations: list[dict] = []
        #: Worker supervision at the barrier: ``checkpoint`` (default)
        #: ships per-window state mirrors and recovers crashed workers
        #: sequentially; ``detect`` fails fast on a dead/wedged worker;
        #: ``off`` restores plain blocking receives.
        #: An in-process shard cannot die on its own: ``off``.
        self.supervision = (
            "off" if in_process
            else os.environ.get("REPRO_SUPERVISE", "checkpoint")
        )
        if self.supervision not in ("checkpoint", "detect", "off"):
            raise ValueError(
                f"REPRO_SUPERVISE={self.supervision!r}; "
                "use 'checkpoint', 'detect' or 'off'"
            )
        self.worker_timeout_s = float(
            os.environ.get("REPRO_WORKER_TIMEOUT", "30")
        )
        # Per-shard state mirrors (checkpoint supervision): the shard's
        # post-window in-flight state, and the last grant batch not yet
        # folded into it.  FIFO mirrors accumulate as batch *lists*
        # (appending is O(1) per window) and compact lazily — the
        # delivered-row filter is monotone in the window stop, so one
        # filter at compaction/crash time equals filtering every
        # window.
        self._mirror: list = []
        self._mirror_stop: list = []
        self._last_batch: list = []
        # Per-window link-counter deltas accumulate into flat numpy
        # arrays (fancy-indexed add) and materialize into the per-link
        # tables only at handover points (quiescence, recall, crash) or
        # every 64th window — the Python merge loop per window was the
        # dominant supervision cost.  Busy times do the same (NaN = not
        # reported since the last merge): only the owning shard
        # transmits on a link, so nothing reads them in between.
        self._ck_bytes = None
        self._ck_msgs = None
        self._ck_busy = None
        self._ck_windows = 0
        self.sim.attach_coupler(self)

    def _adopt_plan(self, plan: ShardPlan) -> None:
        self._plan = plan
        self._index = plan.index
        self.window = plan.lookahead
        self._owner = dict(zip(plan.index.names, plan.index.owner.tolist()))
        self._owner_arr = plan.index.owner

    def _plan_first_barrier(self) -> None:
        """Plan the in-process shard and hand it the arrivals deferred
        until now, as one batch with mids in scheduling order (exactly
        what offloading each at scheduling time would have built).  A
        topology the planner rejects stays on the per-event path."""
        try:
            plan = plan_shards(
                self.topology, 1, coordinator_hosts=self._coordinator_hosts
            )
        except ShardingError as exc:
            self._request_recall(str(exc))
            return
        self._adopt_plan(plan)
        rows, self._unplanned = self._unplanned, []
        n = len(rows)
        if not n:
            return
        idx = self._index.idx
        parked = self._parked
        for _t, msg, _node, _seq in rows:
            if msg.mid == 0:
                msg.mid = self._next_mid
                self._next_mid += 1
                parked[msg.mid] = msg
            elif not msg.ephemeral:
                parked[msg.mid] = msg
        enc = self._flow_enc
        columns = (
            (row[0] for row in rows),
            (row[1].mid for row in rows),
            (idx[row[2]] for row in rows),
            (idx[row[1].src] for row in rows),
            (idx[row[1].dst] for row in rows),
            (row[1].nbytes for row in rows),
            (enc(row[1].flow) for row in rows),
            (_msg_meta(row[1]) for row in rows),
            (_UNRANKED for _ in rows),
        )
        batch = tuple(
            np.fromiter(col, dt, n) for col, dt in zip(columns, _BATCH_DTYPES)
        )
        self._pending_batches.append(batch)
        self._pending_count += n
        self._pending_min = min(self._pending_min, float(batch[0].min()))

    # ------------------------------------------------------------------
    # Flow encoding and control ops
    # ------------------------------------------------------------------
    def _flow_enc(self, flow) -> int:
        enc = self._flow_enc_map.get(flow)
        if enc is None:
            enc = len(self._flow_by_enc)
            self._flow_enc_map[flow] = enc
            self._flow_by_enc[enc] = flow
            if self._forked:
                self._ctl.append(("flow", enc, flow))
        return enc

    def on_deliver(self, node, callback, flow=None) -> None:
        super().on_deliver(node, callback, flow)
        if self._forked:
            self._ctl.append(("cb", node, self._flow_enc(flow)))

    def set_flow_weight(self, flow, weight) -> None:
        super().set_flow_weight(flow, weight)
        if self._forked:
            self._ctl.append(("weight", self._flow_enc(flow), float(weight)))

    def remove_flow(self, flow) -> None:
        super().remove_flow(flow)
        if self._forked:
            self._ctl.append(("remove_flow", self._flow_enc(flow)))

    def abandon_flow(self, flow) -> None:
        if self._forked:
            self._ctl.append(("abandon", self._flow_enc(flow)))
        super().abandon_flow(flow)

    def intercept(self, node, interceptor) -> None:
        self._request_recall("in-network interceptors registered")
        super().intercept(node, interceptor)

    def arm_faults(self, schedule=None, seed=None):
        if self.in_process:
            # The in-process shard shares this process's topology: its
            # fault replay would apply every transition a second time.
            self._request_recall("fault injector armed")
        elif self.faults is not None and seed is not None and self._forked:
            # Sharded fault replay: arming alone does not recall.  Specs
            # are noted (the injector subclass tracks them) and re-armed
            # inside each worker at fork; whether the schedule can stay
            # sharded is classified at fork time (_fault_recall_reason).
            # Re-seeding after the fork does recall: workers captured
            # the old salt in their fork snapshot.
            self._request_recall("fault injector re-seeded mid-run")
        return super().arm_faults(schedule, seed)

    def _fault_recall_reason(self) -> str | None:
        """Classify the armed fault state at fork time: None when the
        schedule replays sharded, else the recall reason."""
        faults = self.faults
        if faults is None:
            return None
        if faults.applied:
            # Transitions already fired pre-fork (e.g. during a
            # sequential free-run): the workers' replay would
            # double-apply them.
            return "faults applied before shards engaged"
        if self.retransmit_timeout_ns < self.window:
            # A retransmission must land at or after the window stop to
            # respect the conservative lookahead.
            return "retransmit timeout shorter than the lookahead window"
        outage = any(
            s.switch is not None or s.kind == "down" for s in faults.specs
        )
        if outage and faults._listeners:
            # Recovery listeners (e.g. the fabric's replan-on-outage)
            # mutate cross-shard state the moment a link dies; their
            # reactions cannot be replayed at window granularity.
            return "fault listeners on an outage schedule"
        return None

    def _topology_changed(self, event: str, *args) -> None:
        super()._topology_changed(event, *args)
        if self._forked and not self._ctl_mute:
            self._ctl.append((event, *args))

    def _record_degradation(self, event: str, reason: str, **detail) -> None:
        self.degradations.append({
            "event": event,
            "reason": reason,
            "sim_time_ns": float(self.sim.now),
            **detail,
        })

    # ------------------------------------------------------------------
    # Hot-path overrides: divert work owned by other shards
    # ------------------------------------------------------------------
    def _schedule_hop(self, time: float, msg: Message, node: NodeId) -> None:
        if self.engaged and self._owner[node] >= 0:
            self._offload(time, msg, node)
            return
        super()._schedule_hop(time, msg, node)

    def _hop(self, msg: Message, node: NodeId) -> None:
        if self.engaged and self._owner[node] >= 0:
            # e.g. burst entries expanding at a worker-owned source.
            self._offload(self.sim.now, msg, node)
            return
        super()._hop(msg, node)

    def _offload(self, time: float, msg: Message, node: NodeId) -> None:
        if self._plan is None:
            sim = self.sim
            self._unplanned.append((time, msg, node, sim._seq))
            sim._seq += 1
            return
        mid = msg.mid
        if mid == 0:
            mid = msg.mid = self._next_mid
            self._next_mid += 1
            self._parked[mid] = msg
        elif not msg.ephemeral:
            self._parked[mid] = msg
        # else: an ephemeral duplicate of an already-parked original —
        # the parked entry stays the original; the duplicate is
        # reconstructed from the row's meta bits on resume.
        idx = self._index.idx
        key = self._offload_key
        if key is None:
            key = self._placement_key(self.sim.now)
        self._pending_rows.append((
            time, mid, idx[node], idx[msg.src], idx[msg.dst],
            msg.nbytes, self._flow_enc(msg.flow), _msg_meta(msg), key,
        ))
        self._pending_count += 1
        if time < self._pending_min:
            self._pending_min = time
        if time < self.sim.local_bound:
            self.sim.local_bound = time

    def _materialize(self, mid: int, meta: int) -> Message:
        """The live message for a crossing row: the parked original
        with its authoritative retry count restored, or a reconstructed
        ephemeral duplicate (duplicates share the original's mid but
        must not mutate its retransmission state)."""
        msg = self._parked[mid]
        if meta & _META_EPHEMERAL and not msg.ephemeral:
            return Message(
                msg.src, msg.dst, msg.nbytes, msg.tag, msg.payload,
                msg.flow, ephemeral=True, mid=mid,
            )
        if meta:
            msg.retries = meta >> 2
        return msg

    def _resume_parked(
        self, mid: int, node: NodeId, meta: int = 0, rank: int | None = None
    ) -> None:
        """Run a row bounced back from a shard.  ``rank`` is set for a
        delivery the shard executed and numbered: rows its callback
        schedules carry that number as their key."""
        msg = self._materialize(mid, meta)
        if meta & _META_RETRANSMIT:
            # The host's retransmission timeout fires here (the row's
            # time already includes it); _retransmit counts and re-hops
            # from the source.
            NetworkSimulator._retransmit(self, msg)
            return
        if node == msg.dst and self.faults is None:
            # Under faults a late duplicate may still reference the
            # parked original after delivery; entries clear at
            # quiescence instead.
            del self._parked[mid]
        if rank is None:
            NetworkSimulator._hop(self, msg, node)
            return
        outer = self._offload_key
        self._offload_key = rank
        try:
            NetworkSimulator._hop(self, msg, node)
        finally:
            self._offload_key = outer

    def _placement_key(self, now: float) -> int:
        """Key of a row scheduled by a coordinator event at ``now``.

        The event runs after the shard executions of its window before
        ``now`` and, like an arrival scheduled before the run, ahead of
        those at ``now``: the odd number between them.  Heap-exact with
        one shard for events scheduled before the run (host sends);
        deterministic otherwise."""
        slot = 0
        for first, times in self._shard_execs:
            slot = max(slot, first + int(np.searchsorted(times, now)))
        return 2 * slot - 1

    # ------------------------------------------------------------------
    # Barrier protocol (driven by ShardedSimulator)
    # ------------------------------------------------------------------
    def advance(self, until: float | None) -> float | None:
        """One barrier: compute the global window, dispatch it to the
        workers, merge their replies, and return the coordinator's own
        local execution bound (None = globally idle / past ``until``).
        """
        if self._suspend_reason is not None:
            self._do_recall()
            return None
        if self._plan is None:
            self._plan_first_barrier()
            if not self.engaged:
                return None
        sim = self.sim
        local = sim.peek_time()
        t0 = local if local is not None else _INF
        if self._pending_min < t0:
            t0 = self._pending_min
        worker_min = min(self._worker_next, default=_INF)
        if worker_min < t0:
            t0 = worker_min
        if t0 == _INF:
            self._quiesce()
            return None
        if until is not None and t0 > until:
            return None
        if (
            not self._forked
            and self.faults is not None
            and self.faults.specs
            and not self.faults.applied
        ):
            # An armed-but-unapplied fault schedule: fork *now*, before
            # the free-run below executes the first ``_apply`` in the
            # coordinator.  Once a transition has fired pre-fork the
            # workers' shard-local replay would double-apply it and the
            # only safe answer is to disengage — forking first keeps
            # pure link-fault schedules sharded.
            reason = self._fault_recall_reason()
            if reason is not None:
                self._request_recall(reason)
                return None
            self._fork()
        if worker_min == _INF and self._pending_min == _INF:
            # Workers idle and nothing queued for them: free-run the
            # coordinator until it next crosses a shard boundary
            # (sim.local_bound tightens dynamically in _offload).
            sim.local_bound = _INF
            if until is None:
                return _INF
            # Events at exactly `until` run: sequential run(until) is
            # inclusive, window stops are exclusive.
            return math.nextafter(until, _INF)
        if not self._forked:
            reason = self._fault_recall_reason()
            if reason is not None:
                self._request_recall(reason)
                return None
            self._fork()
        stop = t0 + self.window
        if until is not None and until < stop:
            stop = math.nextafter(until, _INF)
        sim.local_bound = _INF
        self._dispatch(stop)
        return stop

    def _dispatch(self, stop: float) -> None:
        self._flushed = False
        ctl, self._ctl = self._ctl, []
        shard_batches = self._split_pending()
        dead: dict[int, str] = {}
        for w, (conn, batch) in enumerate(zip(self._conns, shard_batches)):
            if self.supervision == "checkpoint":
                self._last_batch[w] = batch
            try:
                conn.send(("w", stop, batch, ctl))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        inbound: list = []
        deliveries: list = []
        self._shard_execs = []
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            (_, outbox, dels, stats, next_t, last_t, events, npend, ck,
             execs) = reply
            if outbox is not None:
                ow = self._owner_arr[outbox[2]]
                coord = ow < 0
                if coord.any():
                    inbound.append(_mask_batch(outbox, coord))
                rest = ~coord
                if rest.any():
                    batch = _mask_batch(outbox, rest)
                    self._pending_batches.append(batch)
                    self._pending_count += int(batch[0].size)
                    low = float(batch[0].min())
                    if low < self._pending_min:
                        self._pending_min = low
            if dels is not None:
                deliveries.append(dels)
            if stats is not None:
                self._merge_stats(stats)
            if ck is not None:
                self._absorb_ck(w, ck, stop)
            self._worker_next[w] = next_t if next_t is not None else _INF
            self._worker_last[w] = last_t
            self._worker_pending[w] = npend
            self._remote_events += events
            self._shard_execs.append(execs)
        # Deliveries (t < stop) interleave with the coordinator's own
        # window; inbound crossings (t >= stop) land in future windows.
        for batch in (_concat_batches(deliveries), _concat_batches(inbound)):
            if batch is not None:
                self._schedule_batch(_sort_batch(batch))
        if dead:
            self._crash_recover(dead, stop)

    def _recv(self, w: int, conn):
        """One barrier receive with heartbeat supervision.  Raises
        :class:`_WorkerDied` when the worker exited or stayed silent
        past the timeout (supervision 'checkpoint'/'detect' only)."""
        if self.supervision == "off":
            reply = conn.recv()
        else:
            proc = self._procs[w]
            deadline = _walltime.monotonic() + self.worker_timeout_s
            while True:
                try:
                    if conn.poll(0.05):
                        reply = conn.recv()
                        break
                except (EOFError, OSError):
                    raise _WorkerDied(w, "worker process died") from None
                if not proc.is_alive():
                    # Drain a reply written just before death.
                    try:
                        if conn.poll(0):
                            reply = conn.recv()
                            break
                    except (EOFError, OSError):
                        pass
                    raise _WorkerDied(w, "worker process died")
                if _walltime.monotonic() >= deadline:
                    raise _WorkerDied(
                        w,
                        "worker wedged at the barrier "
                        f"(> {self.worker_timeout_s:.0f}s)",
                    )
        if reply[0] == "err":
            if len(reply) > 2 and reply[2] == "UnreachableError":
                raise UnreachableError(
                    f"shard worker {w}:\n{reply[1]}"
                )
            raise RuntimeError(f"shard worker {w} failed:\n{reply[1]}")
        return reply

    def _absorb_ck(self, w: int, ck: tuple, stop: float) -> None:
        """Fold one worker's per-window checkpoint into its mirror.

        Link-counter deltas and busy times accumulate for the
        coordinator tables (each link is owned by exactly one shard, so
        merging them mid-run is exact and the final flush sees empty
        deltas); the in-flight state replaces/extends the mirror.
        """
        state, queues, flush, busy, peaks = ck
        if flush is not None:
            idx, byts, msgs = flush
            if self._ck_bytes is None:
                n = len(self._index.link_keys)
                self._ck_bytes = np.zeros(n)
                self._ck_msgs = np.zeros(n, np.int64)
            # nz indices from the worker's flush are unique, so plain
            # fancy-indexed add is exact (and far cheaper than add.at).
            self._ck_bytes[idx] += byts
            self._ck_msgs[idx] += msgs
            self._ck_windows += 1
            if self._ck_windows % 64 == 0:
                # Keep mid-run readers (streaming provenance ticks)
                # loosely fresh without paying the merge every window.
                self._drain_ck_flush()
        if busy is not None:
            if self._ck_busy is None:
                self._ck_busy = np.full(len(self._index.link_keys), np.nan)
            self._ck_busy[busy[0]] = busy[1]
        if peaks:
            self._merge_queue_peaks(peaks)
        if self.arbitration == "fifo":
            # state = every arrival generated inside the shard this
            # window; post-window pend is exactly the t >= stop subset
            # of (previous pend | every grant | everything generated) —
            # append now, filter at compaction.
            bucket = self._mirror[w]
            if bucket is None:
                bucket = self._mirror[w] = []
            if self._last_batch[w] is not None:
                bucket.append(self._last_batch[w])
            if state is not None:
                bucket.append(state)
            self._mirror_stop[w] = stop
            if len(bucket) > 16:
                self._mirror[w] = self._compact_mirror(w)
        else:
            # Event workers dump their live heap/queues; the grant is
            # already inside the heap.
            self._mirror[w] = (state, queues)
        self._last_batch[w] = None

    def _compact_mirror(self, w: int) -> list:
        """Concat shard ``w``'s accumulated FIFO mirror batches and
        drop rows its worker already delivered (``t`` before the last
        completed window stop)."""
        bucket = self._mirror[w]
        if not bucket:
            return []
        batch = _concat_batches(bucket)
        keep = batch[0] >= self._mirror_stop[w]
        if not keep.all():
            batch = _mask_batch(batch, keep) if keep.any() else None
        return [batch] if batch is not None else []

    def _drain_ck_flush(self) -> None:
        """Materialize the accumulated per-window link-counter deltas
        and busy times into the per-link tables (exactness point:
        handover to the sequential engine, quiescence, or a provenance
        read)."""
        if self._ck_busy is not None:
            nz = np.nonzero(~np.isnan(self._ck_busy))[0]
            self._apply_busy((nz, self._ck_busy[nz]))
            self._ck_busy = None
        if self._ck_bytes is None:
            return
        nz = np.nonzero((self._ck_bytes != 0) | (self._ck_msgs != 0))[0]
        if nz.size:
            self._merge_link_flush(
                (nz, self._ck_bytes[nz], self._ck_msgs[nz])
            )
        self._ck_bytes = None
        self._ck_msgs = None

    def _crash_recover(self, dead: dict[int, str], stop: float) -> None:
        """A worker died or wedged mid-window: restore its shard from
        the last completed window and continue sequentially.

        Surviving shards completed this window — their mirrors, stats,
        and link tables are current.  The dead shard's window never
        happened (no reply, no visible effects), so its mirror (post
        previous window) plus the undelivered grant batch is exactly
        its live state; re-executing from there sequentially reproduces
        the uninterrupted run bitwise.
        """
        if self.supervision != "checkpoint":
            raise RuntimeError(
                "shard worker(s) died at the barrier: "
                + "; ".join(
                    f"worker {w}: {reason}" for w, reason in dead.items()
                )
            )
        for w, reason in dead.items():
            self._record_degradation(
                "worker_crash", reason, worker=w, window_stop=float(stop),
            )
            proc = self._procs[w]
            if proc.is_alive():  # wedged, not dead: put it down hard
                proc.kill()
        warnings.warn(
            "sharded engine lost worker(s) "
            f"{sorted(dead)} ({'; '.join(set(dead.values()))}); "
            "recovered from the last completed window, continuing "
            "sequentially",
            RuntimeWarning,
            stacklevel=4,
        )
        self._drain_ck_flush()
        arrivals: list[tuple] = []
        queues: list[tuple] = []
        for w in range(self._plan.n_shards):
            self._restore_mirror(w, arrivals, queues)
        self._shutdown_procs()
        self.engaged = False
        self._flushed = True
        n = self._plan.n_shards
        self._worker_next = [_INF] * n
        self._worker_pending = [0] * n
        self._restore_recalled(arrivals, queues)

    def _restore_mirror(self, w: int, arrivals: list, queues: list) -> None:
        """Append shard ``w``'s state as of its last completed window
        (its mirror plus the grant it never replied to) to the recall
        lists."""
        if self.arbitration == "fifo":
            batch = _concat_batches(
                self._compact_mirror(w) + [self._last_batch[w]]
            )
        else:
            if self._mirror[w] is not None:
                arr, qs = self._mirror[w]
                arrivals.extend(arr)
                queues.extend(qs)
            batch = self._last_batch[w]
        arrivals.extend(_batch_arrivals(batch))

    def _schedule_batch(self, batch: tuple) -> None:
        names = self._index.names
        schedule = self.sim.schedule_fast
        resume = self._resume_parked
        head = (batch[0].tolist(), batch[1].tolist(), batch[2].tolist())
        if len(batch) == len(_BATCH_DTYPES):
            # Crossings: the coordinator executes (and numbers) them.
            for t, mid, node, meta in zip(*head, batch[7].tolist()):
                schedule(t, resume, (mid, names[node], meta))
            return
        # Delivery bounces: (time, mid, node, meta, rank), executed and
        # numbered by their shard.
        for t, mid, node, meta, rank in zip(
            *head, batch[3].tolist(), batch[4].tolist()
        ):
            schedule(t, resume, (mid, names[node], meta, rank))

    def _split_pending(self) -> list:
        batch = _concat_batches(
            self._pending_batches + [_rows_to_batch(self._pending_rows)]
        )
        self._pending_rows = []
        self._pending_batches = []
        self._pending_min = _INF
        self._pending_count = 0
        out: list = [None] * self._plan.n_shards
        if batch is None:
            return out
        ow = self._owner_arr[batch[2]]
        for shard in range(self._plan.n_shards):
            mask = ow == shard
            if mask.any():
                out[shard] = _sort_batch(_mask_batch(batch, mask))
        coord = ow < 0
        if coord.any():
            self._schedule_batch(_sort_batch(_mask_batch(batch, coord)))
        return out

    # ------------------------------------------------------------------
    # Stats merging
    # ------------------------------------------------------------------
    def _merge_stats(self, delta: tuple) -> None:
        if len(delta) == 3:
            bh, msgs, flows = delta
            rel = None
        else:
            bh, msgs, flows, rel = delta
        self.traffic.bytes_hops += bh
        self.traffic.messages += msgs
        if flows:
            keys = self._index.link_keys
            for enc, fdelta in flows.items():
                stats = self.flow_stats(self._flow_by_enc[enc])
                fbh, fmsgs, links = fdelta[0], fdelta[1], fdelta[2]
                stats.bytes_hops += fbh
                stats.messages += fmsgs
                per_link = stats.per_link
                for li, val in links.items():
                    key = keys[li]
                    per_link[key] = per_link.get(key, 0.0) + val
                if len(fdelta) > 3:
                    stats.drops += fdelta[3]
                    stats.duplicates += fdelta[4]
                    stats.retransmits += fdelta[5]
        if rel is not None:
            keys = self._index.link_keys
            traffic = self.traffic
            drops, dups, retx, ldrops, ldups = rel
            traffic.drops += drops
            traffic.duplicates += dups
            traffic.retransmits += retx
            for table, deltas in (
                (traffic.link_drops, ldrops),
                (traffic.link_duplicates, ldups),
            ):
                for li, n in deltas.items():
                    key = keys[li]
                    table[key] = table.get(key, 0) + n

    def _merge_link_flush(self, flush: tuple) -> None:
        idx, byts, msgs = flush
        per_link = self.traffic.per_link
        keys = self._index.link_keys
        links = self.topology._links
        for i in range(len(idx)):
            key = keys[int(idx[i])]
            byte_delta = float(byts[i])
            per_link[key] = per_link.get(key, 0.0) + byte_delta
            link = links[key]
            link.bytes_carried += byte_delta
            link.messages_carried += int(msgs[i])

    def _apply_busy(self, busy: tuple) -> None:
        keys = self._index.link_keys
        links = self.topology._links
        for i, value in zip(busy[0].tolist(), busy[1].tolist()):
            links[keys[i]].busy_until = value

    def _merge_queue_peaks(self, peaks: list) -> None:
        names = self._index.names
        table = self._shard_queue_peaks
        for a_idx, b_idx, peak in peaks:
            key = (names[int(a_idx)], names[int(b_idx)])
            if peak > table.get(key, 0):
                table[key] = peak

    def queue_depth_peaks(self) -> dict:
        """Coordinator-local peaks max-merged with worker-reported ones
        (each (a, b) queue lives wholly on node ``a``'s shard, so the
        merge reproduces the sequential run's high-water marks)."""
        out = NetworkSimulator.queue_depth_peaks(self)
        for key, peak in self._shard_queue_peaks.items():
            if peak > out.get(key, 0):
                out[key] = peak
        return out

    def _flush_workers(self) -> None:
        """Pull every worker's link/busy/peak deltas into the
        coordinator-side tables (idempotent between windows)."""
        self._drain_ck_flush()
        if not self._forked or self._flushed:
            return
        dead: dict[int, str] = {}
        for w, conn in enumerate(self._conns):
            try:
                conn.send(("f",))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            _, flush, busy, peaks, last_t = reply
            if flush is not None:
                self._merge_link_flush(flush)
            if busy is not None:
                self._apply_busy(busy)
            if peaks:
                self._merge_queue_peaks(peaks)
            self._worker_last[w] = last_t
        self._flushed = True
        if dead:
            # At a flush barrier every shard is idle (quiescence) or
            # its in-flight state is intentionally dropped (shutdown
            # mid-run); under checkpoint supervision the counters were
            # already merged per window, so only record the loss.
            if self.supervision != "checkpoint":
                raise RuntimeError(
                    "shard worker(s) died at the flush barrier: "
                    + "; ".join(
                        f"worker {w}: {r}" for w, r in dead.items()
                    )
                )
            for w, reason in dead.items():
                self._record_degradation("worker_crash", reason, worker=w)

    def _quiesce(self) -> None:
        """Global idle: merge per-link tables, settle the clock."""
        self._flush_workers()
        self._parked.clear()
        last = max(self._worker_last, default=0.0)
        if last > self.sim.now:
            self.sim.now = last

    # ------------------------------------------------------------------
    # Introspection for ShardedSimulator
    # ------------------------------------------------------------------
    def remote_pending(self) -> int:
        return (
            self._pending_count + len(self._unplanned)
            + sum(self._worker_pending)
        )

    def remote_events(self) -> int:
        return self._remote_events

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _fork(self) -> None:
        """Start the shard runtimes: forked workers, or (in process)
        one runtime behind a loopback connection."""
        # Workers start from the coordinator's current state; only
        # later control ops need broadcasting.
        self._ctl = []
        n = self._plan.n_shards
        self._worker_next = [_INF] * n
        self._worker_last = [self.sim.now] * n
        self._worker_pending = [0] * n
        self._mirror = [None] * n
        self._mirror_stop = [-_INF] * n
        self._last_batch = [None] * n
        if self.in_process:
            self._conns = [
                _LocalConn(_shard_runtime(self, shard)) for shard in range(n)
            ]
            self._forked = True
            return
        from multiprocessing import get_context  # only forked engines

        ctx = get_context("fork")
        for shard in range(n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child, shard, self), daemon=True
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._forked = True

    def _request_recall(self, reason: str) -> None:
        if not self.engaged:
            return
        if not self._forked:
            if not self.in_process:
                warnings.warn(
                    f"sharded engine disengaged before start ({reason}); "
                    "running sequentially",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.engaged = False
            self._record_degradation("disengaged", reason)
            # Rows offloaded for the (never-started) workers rejoin
            # the sequential heap — dropping them would strand their
            # parked messages and drain the event loop mid-collective.
            self._restore_recalled([], [])
            return
        self._suspend_reason = reason

    def _do_recall(self) -> None:
        """Pull every worker's live state back and continue sequential.

        Exact when requested at quiescence (the supported pattern:
        faults/interceptors arm before a run or between runs); mid-run
        the handover happens at the next barrier, so effects on
        in-flight traffic begin one window (= one lookahead) later.
        """
        reason = self._suspend_reason
        self._suspend_reason = None
        if not self.in_process:
            warnings.warn(
                f"sharded engine recalled ({reason}); continuing "
                "sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
        self._record_degradation("recall", reason)
        self._drain_ck_flush()
        arrivals: list[tuple] = []
        queues: list[tuple] = []
        dead: dict[int, str] = {}
        for w, conn in enumerate(self._conns):
            try:
                conn.send(("rc",))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            _, arr, qs, stats, flush, busy, peaks, last_t = reply
            arrivals.extend(arr)
            queues.extend(qs)
            if stats is not None:
                self._merge_stats(stats)
            if flush is not None:
                self._merge_link_flush(flush)
            if busy is not None:
                self._apply_busy(busy)
            if peaks:
                self._merge_queue_peaks(peaks)
            self._worker_last[w] = last_t
        if dead:
            if self.supervision != "checkpoint":
                raise RuntimeError(
                    "shard worker(s) died during recall: "
                    + "; ".join(f"worker {w}: {r}" for w, r in dead.items())
                )
            # Restore the dead shard(s) from their mirrors (state as of
            # the last completed window — exact: a recall happens
            # between windows, when every effect through the last
            # window has already been absorbed).
            for w, reason_ in dead.items():
                self._record_degradation("worker_crash", reason_, worker=w)
                self._restore_mirror(w, arrivals, queues)
        self._shutdown_procs()
        self.engaged = False
        self._restore_recalled(arrivals, queues)

    def _restore_recalled(
        self, arrivals: list[tuple], queues: list[tuple]
    ) -> None:
        """Re-schedule recovered worker state into the coordinator's
        own heap/queues (the shared tail of recall and crash
        recovery)."""
        if self._plan is None:
            # Never planned: the deferred arrivals enter the heap as
            # their scheduling would have placed them.
            heap = self.sim._heap
            for time, msg, node, seq in self._unplanned:
                heapq.heappush(heap, [time, 1, seq, self._hop, (msg, node)])
            self._unplanned = []
            return
        names = self._index.names
        # Rows queued for relay but never dispatched rejoin the heap.
        batch = _concat_batches(
            self._pending_batches + [_rows_to_batch(self._pending_rows)]
        )
        if batch is not None:
            arrivals = arrivals + _batch_arrivals(batch)
        self._pending_rows = []
        self._pending_batches = []
        self._pending_min = _INF
        self._pending_count = 0
        # In-flight arrivals recovered from worker heaps, in their
        # original (time, seq) order.
        for t, _seq, mid, node_idx, meta in sorted(arrivals):
            self.sim.schedule_fast(
                t, self._resume_parked, (mid, names[node_idx], meta)
            )
        # WFQ queue contents: rebuild coordinator-side queues with the
        # same service order and re-arm their drains.
        now = self.sim.now
        for (a_idx, b_idx, vtime, tags, entries) in queues:
            key = (names[a_idx], names[b_idx])
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _LinkQueue(self.topology.link(*key))
            queue.vtime = vtime
            for enc, tag in tags.items():
                flow = self._flow_by_enc[enc]
                self._tag_flow(queue.finish_tag, flow)
                queue.finish_tag[flow] = tag
            for start, _seq, mid, node_idx, meta in sorted(
                entries, key=lambda e: (e[0], e[1])
            ):
                heapq.heappush(
                    queue.heap,
                    (
                        start, self._queue_seq,
                        self._materialize(mid, meta), names[node_idx],
                    ),
                )
                self._queue_seq += 1
            if queue.heap and not queue.drain_scheduled:
                queue.drain_scheduled = True
                at = queue.link.busy_until
                self.sim.schedule_fast(
                    at if at > now else now, self._rearm, (key, queue),
                    priority=0,
                )

    def _shutdown_procs(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("x",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hang safety
                proc.terminate()
                proc.join(timeout=1)
                if proc.is_alive():  # e.g. SIGSTOPped: SIGTERM pends
                    proc.kill()
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        self._forked = False

    def shutdown(self) -> None:
        """Stop worker processes (call at quiescence; in-flight state
        on the workers is not recovered).

        Worker-side traffic deltas ARE recovered: a driver that stops
        on a settled future (``Fabric.run_until``) never reaches the
        quiescence barrier, so the final flush happens here — the
        provenance recorder reads links after this returns."""
        if self._forked:
            self._flush_workers()
            self._shutdown_procs()
        self.engaged = False

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            if self._forked:
                self._shutdown_procs()
        except Exception:
            pass


# ======================================================================
# Worker side
# ======================================================================
def _shard_runtime(coord: ShardedNetworkSimulator, shard: int):
    if coord.arbitration == "fifo":
        return _VectorWorker(coord, shard)
    return _EventWorker(coord, shard)


def _serve(runtime, msg: tuple):
    """Answer one barrier request (None for the shutdown request)."""
    tag = msg[0]
    if tag == "w":
        return runtime.window(msg[1], msg[2], msg[3])
    if tag == "f":
        return runtime.flush()
    if tag == "rc":
        return runtime.recall()
    return None


class _LocalConn:
    """The pipe seam for a shard run in the coordinator process:
    ``send`` serves the request on the spot and ``recv`` hands back the
    reply.  A shard error raises straight out of ``send``."""

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        self._reply = None

    def send(self, msg: tuple) -> None:
        self._reply = _serve(self._runtime, msg)

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        self._runtime = None


def _worker_main(conn, shard: int, coord: ShardedNetworkSimulator) -> None:
    """Forked worker entry point: build the shard runtime over the
    inherited (copy-on-write) snapshot and serve barrier requests."""
    try:
        runtime = _shard_runtime(coord, shard)
        while True:
            msg = conn.recv()
            if msg[0] == "x":
                return
            conn.send(_serve(runtime, msg))
            if msg[0] == "rc":
                return
    except EOFError:  # pragma: no cover - parent died
        return
    except Exception as exc:  # surface the traceback to the coordinator
        try:
            conn.send(("err", traceback.format_exc(), type(exc).__name__))
        except Exception:  # pragma: no cover
            pass


class _WorkerBase:
    """State shared by both worker runtimes: flow decoding, callback
    keys, per-link stat snapshots, control-op replay."""

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        self.shard = shard
        self.index = coord._index
        self.owner = coord._index.owner
        self.names = coord._index.names
        # A forked worker's topology and router are its private
        # post-fork copies; an in-process shard shares the
        # coordinator's, so it must not replay topology mutations.
        self.topology = coord.topology
        self.router = coord.router
        self.shared_topology = coord.in_process
        self.flow_by_enc = dict(coord._flow_by_enc)
        self.enc_by_flow = dict(coord._flow_enc_map)
        # Delivery-callback keys: an arrival terminating at one of
        # these is state the coordinator wants to see — bounce it back.
        self.cb_keys = set(coord._deliver_cb.keys())
        links = coord.topology.links()
        self.links = links
        self.link_owner = self.owner[self.index.link_src]
        self.snap_busy = self.link_column("busy_until", np.float64)
        # Checkpoint supervision: ship post-window in-flight state with
        # every barrier reply so the coordinator can recover this shard
        # if the process later dies.
        self.ship_ck = coord.supervision == "checkpoint"

    def link_column(self, attr: str, dtype) -> np.ndarray:
        """One ``Link`` attribute over every link, in index order."""
        return np.fromiter(
            map(attrgetter(attr), self.links), dtype, len(self.links)
        )

    @cached_property
    def link_index(self) -> dict:
        return {key: i for i, key in enumerate(self.index.link_keys)}

    # -- control ops ---------------------------------------------------
    def apply_controls(self, ctl: list[tuple]) -> None:
        for op in ctl:
            kind = op[0]
            if kind == "flow":
                _, enc, flow = op
                self.flow_by_enc[enc] = flow
                self.enc_by_flow[flow] = enc
            elif kind == "cb":
                _, node, enc = op
                self.cb_keys.add((node, self.flow_by_enc[enc]))
                self.on_cb_change()
            elif kind == "weight":
                _, enc, w = op
                self.set_weight(self.flow_by_enc[enc], w)
            elif kind == "remove_flow":
                flow = self.flow_by_enc[op[1]]
                self.cb_keys = {k for k in self.cb_keys if k[1] != flow}
                self.remove_flow_local(flow)
                self.on_cb_change()
            elif kind == "abandon":
                flow = self.flow_by_enc[op[1]]
                self.cb_keys = {k for k in self.cb_keys if k[1] != flow}
                self.abandon_local(flow)
                self.on_cb_change()
            elif kind in (
                "fail_link", "repair_link", "fail_switch", "repair_switch",
            ):
                if not self.shared_topology:
                    getattr(self.topology, kind)(*op[1:])
                self.on_topology_ctl()
            elif kind == "set_link_rate":
                if not self.shared_topology:
                    self.topology.set_link_rate(op[1], op[2], op[3])
                self.on_rate_ctl(op[1], op[2])
            else:  # pragma: no cover - protocol drift guard
                raise RuntimeError(f"unknown control op {op!r}")

    def on_cb_change(self) -> None:
        pass

    def on_topology_ctl(self) -> None:
        pass

    def on_rate_ctl(self, a: NodeId, b: NodeId) -> None:
        pass

    def set_weight(self, flow, w: float) -> None:
        pass

    def remove_flow_local(self, flow) -> None:
        pass

    def abandon_local(self, flow) -> None:
        pass


class _EventWorker(_WorkerBase):
    """Per-event worker shard (WFQ arbitration): a real
    :class:`NetworkSimulator` over this process's topology copy, with
    cross-shard arrivals diverted into the outbox and deliveries
    bounced back to the coordinator."""

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        super().__init__(coord, shard)
        self.snap_bytes = self.link_column("bytes_carried", np.float64)
        self.snap_msgs = self.link_column("messages_carried", np.int64)
        self.sim = Simulator()
        self.sim.now = coord.sim.now
        self.net = _ShardNet(
            coord.topology, router=coord.router, sim=self.sim,
            arbitration=coord.arbitration,
        )
        self.net.runtime = self
        self.net._flow_weight.update(coord._flow_weight)
        self.net._dead_flows |= coord._dead_flows
        self.outbox: list[tuple] = []
        self.deliveries: list[tuple] = []
        # Global-scalar snapshots for per-window deltas.
        self._bh_sent = 0.0
        self._msgs_sent = 0
        self._flow_sent: dict = {}
        # Reliability-counter snapshots (fault runs).
        self._rel_sent = [0, 0, 0, {}, {}]
        self._applied_sent = 0
        if coord.faults is not None:
            # Sharded fault replay: arm an identical local injector
            # over this process's topology copy.  Nothing has executed
            # pre-fork (classification guarantees it), so every spec
            # re-arms at the same simulated instant the coordinator
            # armed it.
            self.net.retransmit_timeout_ns = coord.retransmit_timeout_ns
            self.net.max_retransmits = coord.max_retransmits
            inj = self.net.arm_faults(seed=coord.faults.seed)
            for spec in coord.faults.specs:
                inj.inject(spec)

    # -- link state deltas (read off this process's Link objects) -------
    def link_flush(self):
        cur_bytes = self.link_column("bytes_carried", np.float64)
        cur_msgs = self.link_column("messages_carried", np.int64)
        db = cur_bytes - self.snap_bytes
        dm = cur_msgs - self.snap_msgs
        self.snap_bytes = cur_bytes
        self.snap_msgs = cur_msgs
        nz = np.nonzero((db != 0) | (dm != 0))[0]
        if nz.size == 0:
            return None
        return (nz.astype(np.int64), db[nz], dm[nz])

    def busy_state(self):
        cur = self.link_column("busy_until", np.float64)
        changed = np.nonzero(
            (cur != self.snap_busy) & (self.link_owner == self.shard)
        )[0]
        self.snap_busy = cur
        if changed.size == 0:
            return None
        return (changed.astype(np.int64), cur[changed])

    def set_weight(self, flow, w: float) -> None:
        self.net._flow_weight[flow] = w

    def remove_flow_local(self, flow) -> None:
        self.net.remove_flow(flow)

    def abandon_local(self, flow) -> None:
        self.net.abandon_flow(flow)

    def window(self, stop: float, batch, ctl) -> tuple:
        self.apply_controls(ctl)
        if batch is not None:
            self._schedule_batch(batch)
        events = self.sim.run_window(stop)
        # A bounced delivery executes as a coordinator event; don't
        # count its worker-side arrival too.
        events -= len(self.deliveries)
        faults = self.net.faults
        if faults is not None:
            # Fault apply/repair transitions fire in every process; the
            # coordinator's own copies are the counted ones.
            applied = len(faults.applied)
            events -= applied - self._applied_sent
            self._applied_sent = applied
        out = _rows_to_batch(self.outbox)
        self.outbox = []
        dels = _deliveries_to_batch(self.deliveries)
        self.deliveries = []
        if self.ship_ck:
            arrivals, queues = self._live_state()
            ck = (
                arrivals, queues, self.link_flush(), self.busy_state(),
                self.queue_peaks(),
            )
        else:
            ck = None
        return (
            "r", out, dels, self._stats_delta(), self.sim.peek_time(),
            self.sim.now, events, self.sim.pending, ck, (0, np.empty(0)),
        )

    def _schedule_batch(self, batch: tuple) -> None:
        names = self.names
        t, mid, node, src, dst, nb, fl, meta, _key = batch
        hop = self.net._hop
        retransmit = self.net._retransmit
        schedule = self.sim.schedule_fast
        flow_by_enc = self.flow_by_enc
        for i in range(t.size):
            m = int(meta[i])
            msg = Message(
                names[int(src[i])], names[int(dst[i])], float(nb[i]),
                flow=flow_by_enc[int(fl[i])], mid=int(mid[i]),
                retries=m >> 2, ephemeral=bool(m & _META_EPHEMERAL),
            )
            if m & _META_RETRANSMIT:
                # The host timeout fires here, at the source.
                schedule(float(t[i]), retransmit, (msg,))
            else:
                schedule(float(t[i]), hop, (msg, names[int(node[i])]))

    def _stats_delta(self):
        traffic = self.net.traffic
        faulty = self.net.faults is not None
        bh = traffic.bytes_hops - self._bh_sent
        msgs = traffic.messages - self._msgs_sent
        flows = {}
        link_index = self.link_index
        for flow, stats in self.net._flow_traffic.items():
            sent = self._flow_sent.get(flow)
            if sent is None:
                sent = self._flow_sent[flow] = [0.0, 0, {}, 0, 0, 0]
            dbh = stats.bytes_hops - sent[0]
            dmsgs = stats.messages - sent[1]
            fdrops = stats.drops - sent[3]
            fdups = stats.duplicates - sent[4]
            fretx = stats.retransmits - sent[5]
            if dbh == 0.0 and dmsgs == 0 and not (fdrops or fdups or fretx):
                continue
            dl = {}
            prev = sent[2]
            for key, val in stats.per_link.items():
                delta = val - prev.get(key, 0.0)
                if delta:
                    dl[link_index[key]] = delta
            sent[0] = stats.bytes_hops
            sent[1] = stats.messages
            sent[2] = dict(stats.per_link)
            sent[3] = stats.drops
            sent[4] = stats.duplicates
            sent[5] = stats.retransmits
            if faulty:
                flows[self.enc_by_flow[flow]] = (
                    dbh, dmsgs, dl, fdrops, fdups, fretx,
                )
            else:
                flows[self.enc_by_flow[flow]] = (dbh, dmsgs, dl)
        rel = None
        if faulty:
            rs = self._rel_sent
            drops = traffic.drops - rs[0]
            dups = traffic.duplicates - rs[1]
            retx = traffic.retransmits - rs[2]
            ldrops = {}
            for key, val in traffic.link_drops.items():
                d = val - rs[3].get(key, 0)
                if d:
                    ldrops[link_index[key]] = d
            ldups = {}
            for key, val in traffic.link_duplicates.items():
                d = val - rs[4].get(key, 0)
                if d:
                    ldups[link_index[key]] = d
            if drops or dups or retx or ldrops or ldups:
                rel = (drops, dups, retx, ldrops, ldups)
                rs[0] = traffic.drops
                rs[1] = traffic.duplicates
                rs[2] = traffic.retransmits
                rs[3] = dict(traffic.link_drops)
                rs[4] = dict(traffic.link_duplicates)
        if bh == 0.0 and msgs == 0 and not flows and rel is None:
            return None
        self._bh_sent = traffic.bytes_hops
        self._msgs_sent = traffic.messages
        if rel is not None:
            return (bh, msgs, flows, rel)
        return (bh, msgs, flows)

    def queue_peaks(self):
        """WFQ queue-depth peaks on this shard as ``(a_idx, b_idx,
        peak)`` rows (None when no queue ever held a message).  Not
        reset after reporting: the coordinator max-merges, which is
        idempotent."""
        idx = self.index.idx
        peaks = [
            (idx[a], idx[b], queue.depth_peak)
            for (a, b), queue in self.net._queues.items()
            if queue.depth_peak
        ]
        return peaks or None

    def flush(self) -> tuple:
        return (
            "fr", self.link_flush(), self.busy_state(), self.queue_peaks(),
            self.sim.now,
        )

    def _live_state(self) -> tuple[list, list]:
        """In-flight arrivals and WFQ queue contents as numeric rows
        (the shared core of recall and per-window checkpoints)."""
        idx = self.index.idx
        net = self.net
        hop = net._hop
        rearm = net._rearm
        retransmit = net._retransmit
        faults = net.faults
        fault_apply = faults._apply if faults is not None else None
        fault_repair = faults._repair if faults is not None else None
        arrivals = []
        for entry in self.sim._heap:
            cb = entry[_CALLBACK]
            if cb is None:
                continue
            if cb == hop:
                msg, node = entry[_ARGS]
                arrivals.append((
                    entry[_TIME], entry[_SEQ], msg.mid, idx[node],
                    _msg_meta(msg),
                ))
            elif cb == rearm:
                continue  # re-derived from queue state
            elif cb == retransmit:
                # Pending host timeout: fires at the source with the
                # already-bumped retry count.
                (msg,) = entry[_ARGS]
                arrivals.append((
                    entry[_TIME], entry[_SEQ], msg.mid, idx[msg.src],
                    _META_RETRANSMIT | (msg.retries << 2),
                ))
            elif cb == fault_apply or cb == fault_repair:
                continue  # the coordinator applies its own copies
            else:  # pragma: no cover - protocol drift guard
                raise RuntimeError(f"unexpected worker event {cb!r}")
        queues = []
        for (a, b), queue in net._queues.items():
            if not queue.heap:
                continue
            tags = {
                self.enc_by_flow[f]: tag
                for f, tag in queue.finish_tag.items()
            }
            entries = [
                (start, seq, msg.mid, idx[node], _msg_meta(msg))
                for (start, seq, msg, node) in queue.heap
            ]
            queues.append((idx[a], idx[b], queue.vtime, tags, entries))
        return arrivals, queues

    def recall(self) -> tuple:
        arrivals, queues = self._live_state()
        return (
            "rcr", arrivals, queues, self._stats_delta(), self.link_flush(),
            self.busy_state(), self.queue_peaks(), self.sim.now,
        )


def _deliveries_to_batch(rows: list[tuple]):
    """(time, mid, node, meta, rank) bounce batches."""
    if not rows:
        return None
    t, mid, node, meta, rank = zip(*rows)
    return (
        np.asarray(t, dtype=np.float64),
        np.asarray(mid, dtype=np.int64),
        np.asarray(node, dtype=np.int64),
        np.asarray(meta, dtype=np.int64),
        np.asarray(rank, dtype=np.int64),
    )


class _ShardNet(NetworkSimulator):
    """Worker-side event simulator: owns one region of the fabric."""

    runtime: _EventWorker  # attached right after construction

    def _schedule_hop(self, time: float, msg: Message, node: NodeId) -> None:
        rt = self.runtime
        idx = rt.index.idx
        if rt.owner[idx[node]] != rt.shard:
            rt.outbox.append((
                time, msg.mid, idx[node], idx[msg.src], idx[msg.dst],
                msg.nbytes, rt.enc_by_flow[msg.flow], _msg_meta(msg),
                _UNRANKED,
            ))
            return
        super()._schedule_hop(time, msg, node)

    def _hop(self, msg: Message, node: NodeId) -> None:
        if node == msg.dst:
            rt = self.runtime
            if (node, msg.flow) in rt.cb_keys or (node, None) in rt.cb_keys:
                rt.deliveries.append(
                    (self.sim.now, msg.mid, rt.index.idx[node],
                     _msg_meta(msg), _UNRANKED)
                )
            return
        super()._hop(msg, node)

    def _lose(self, msg: Message) -> None:
        rt = self.runtime
        if rt.owner[rt.index.idx[msg.src]] == rt.shard:
            # Local source host: the retransmission timeout fires in
            # this shard's own event loop.
            super()._lose(msg)
            return
        # Non-local source: replicate the host bookkeeping exactly,
        # then hand the timeout event to the source's owner through the
        # outbox (it fires at now + timeout >= now + lookahead, so it
        # is never late).
        if self._dead_flows and msg.flow in self._dead_flows:
            return
        self._count(msg, "drops")
        if msg.ephemeral:
            return      # a lost duplicate; the original recovers itself
        if msg.retries >= self.max_retransmits:
            raise UnreachableError(
                f"chunk {msg.src} -> {msg.dst} (flow {msg.flow!r}) lost "
                f"{msg.retries} retransmissions in a row; destination "
                "unreachable (persistent failure or partition)"
            )
        msg.retries += 1
        idx = rt.index.idx
        rt.outbox.append((
            self.sim.now + self.retransmit_timeout_ns, msg.mid,
            idx[msg.src], idx[msg.src], idx[msg.dst], msg.nbytes,
            rt.enc_by_flow[msg.flow],
            _META_RETRANSMIT | (msg.retries << 2), _UNRANKED,
        ))


class _VectorWorker(_WorkerBase):
    """Vectorized worker shard (FIFO arbitration).

    The single-hop-per-window invariant means a window's work is: take
    every pending arrival with ``time < stop``, route it one hop,
    chain the per-link serializations, and emit the next-hop arrivals.
    All of that runs as numpy array operations — the shard needs no
    event heap at all, which is where the order-of-magnitude event
    throughput over the per-event engine comes from.

    Bitwise parity with ``Link.transmit``: a link visited by exactly
    one arrival this window computes ``max(t, busy) + nbytes/rate``
    elementwise (identical IEEE operations to the scalar path); links
    with several arrivals run the same scalar ``max``/``+`` chain in a
    Python loop over the segment in execution order.

    Execution order is the per-event heap's: ``(time, key, mid)``.  The
    shard numbers its executions in that order (even numbers, so the
    coordinator can slot its own events between two of them), stamps
    each emitted row with the number of the execution that emitted it,
    and reports each window's execution times in number order.
    """

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        super().__init__(coord, shard)
        index = self.index
        self.now = coord.sim.now
        self.events = 0
        #: Executions numbered so far, and the times of this window's
        #: executions in number order (reported to the coordinator).
        self.executed = 0
        self.exec_times: list = []
        self.rate = index.link_rate.copy()
        self.latency = index.link_latency
        self.busy = self.snap_busy.copy()
        self.acc_bytes = np.zeros(index.n_links, np.float64)
        self.acc_msgs = np.zeros(index.n_links, np.int64)
        #: Pending rows (arrivals at or past the last window stop), as
        #: time-sorted runs: a window takes each run's prefix.
        self.pend: list[tuple] = []
        self.outbox: list[tuple] = []
        self.deliveries: list[tuple] = []
        self.has_cb = np.zeros(index.n_nodes, np.bool_)
        self._rebuild_cb()
        self.vec_routing = (
            index.kind is not None and self.router.name == "updown"
        )
        self.salt = getattr(self.router, "_salt", 0)
        self.route_memo: dict = {}
        self.dead_encs: set = {
            self.enc_by_flow[f]
            for f in coord._dead_flows
            if f in self.enc_by_flow
        }
        # Per-flow accounting [bytes_hops, messages, {link: bytes},
        # drops, duplicates, retransmits].
        self.flow_acc: dict = {}
        self._bh = 0.0
        self._nmsg = 0
        # Checkpoint supervision: every mine-generated row this window.
        self.ck_mine: list = []
        # -- fault replay state (armed schedules only) ------------------
        faults = coord.faults
        self.faulty = faults is not None
        if self.faulty:
            self.fsalt = faults._salt
            self.retx_timeout = coord.retransmit_timeout_ns
            self.max_retx = coord.max_retransmits
            # Absolute per-link message counters: the roll key.  Rolls
            # read the post-increment counter, exactly like
            # ``Link.transmit`` + ``FaultInjector.roll``.
            self.nmsg_roll = self.link_column("messages_carried", np.int64)
            self.link_fault: dict[int, object] = {}
            self.link_down = self.link_column("failed", np.bool_)
            self.node_failed = np.zeros(index.n_nodes, np.bool_)
            for s in self.topology._failed_switches:
                self.node_failed[index.idx[s]] = True
            # Apply/repair timeline, fired lazily before the next row at
            # or past each transition (priority-0 semantics: an event at
            # t beats a row at t).  Applies sort before repairs at equal
            # instants, matching the coordinator's schedule order.
            now0 = coord.sim.now
            timeline: list[tuple] = []
            for i, spec in enumerate(faults.specs):
                at = max(spec.at, now0)
                timeline.append((at, 0, (0.0, i), spec))
                if spec.duration_ns is not None:
                    # Repairs at equal instants fire in the order their
                    # applies did — the sequential heap assigns a repair
                    # its sequence number when the apply executes.
                    timeline.append(
                        (at + spec.duration_ns, 1, (at, i), spec)
                    )
            timeline.sort(key=lambda e: (e[0], e[1], e[2]))
            self.fault_timeline = timeline
            self.fault_i = 0
            # Scalar event loop state: a (t, mid, ...) row heap for the
            # current window plus the rows parked past it.
            self._fheap: list = []
            self._frest: list = []
            self._fdels: list = []
            self._fout: list = []
            # Reliability counters since last delta:
            # [drops, dups, retransmits, {li: drops}, {li: dups}].
            self.rel = [0, 0, 0, {}, {}]

    # -- control hooks -------------------------------------------------
    def _rebuild_cb(self) -> None:
        self.has_cb[:] = False
        idx = self.index.idx
        for node, _flow in self.cb_keys:
            self.has_cb[idx[node]] = True

    def on_cb_change(self) -> None:
        self._rebuild_cb()

    def on_topology_ctl(self) -> None:
        self.route_memo.clear()

    def on_rate_ctl(self, a: NodeId, b: NodeId) -> None:
        idx = self.index.idx
        for sa, sb in ((a, b), (b, a)):
            li = int(self.index.link_ids(
                np.asarray([idx[sa]]), np.asarray([idx[sb]])
            )[0])
            self.rate[li] = self.links[li].bytes_per_ns

    def abandon_local(self, flow) -> None:
        self.dead_encs.add(self.enc_by_flow[flow])

    # -- window execution ----------------------------------------------
    def window(self, stop: float, batch, ctl) -> tuple:
        self.apply_controls(ctl)
        if batch is not None:
            self.pend.append(batch)     # the coordinator sorted it
        start_events = self.events
        first = self.executed
        if self.faulty:
            self._window_faulty(stop)
        else:
            # Emitted rows land at or past ``stop`` (one hop per window).
            rows = self._take(stop)
            if rows is not None:
                self._process(rows)
        out = _concat_batches(self.outbox) if self.outbox else None
        self.outbox = []
        dels = _concat_batches(self.deliveries) if self.deliveries else None
        self.deliveries = []
        if self.pend:
            next_t = min(float(run[0][0]) for run in self.pend)
            npend = sum(int(run[0].size) for run in self.pend)
        else:
            next_t, npend = None, 0
        if self.ship_ck:
            ck = (
                _concat_batches(self.ck_mine) if self.ck_mine else None,
                None, self.link_flush(), self.busy_state(), None,
            )
            self.ck_mine = []
        else:
            ck = None
        return (
            "r", out, dels, self._stats_delta(), next_t, self.now,
            self.events - start_events, npend, ck, (first, self._exec_log()),
        )

    def _exec_log(self) -> np.ndarray:
        # Arrays from vectorized windows, floats from fault replay.
        times, self.exec_times = self.exec_times, []
        if self.faulty:
            return np.asarray(times, dtype=np.float64)
        return np.concatenate(times) if times else np.empty(0)

    def _take(self, stop: float) -> tuple | None:
        """Remove and return every pending row with ``time < stop``."""
        taken, runs = [], []
        for run in self.pend:
            k = int(np.searchsorted(run[0], stop))
            if k:
                taken.append(tuple(col[:k] for col in run))
            if k < run[0].size:
                runs.append(tuple(col[k:] for col in run) if k else run)
        self.pend = runs
        return _concat_batches(taken)

    def _push(self, batch: tuple) -> None:
        order = np.argsort(batch[0], kind="stable")
        self.pend.append(tuple(col[order] for col in batch))

    def _process(self, rows: tuple) -> None:
        t, mid, node, src, dst, nb, fl, meta, key = rows
        n = t.size
        self.events += n
        # Execution order is the heap's (time, key, mid); sorting by
        # time alone gives it unless two rows share an instant.
        order = np.argsort(t, kind="stable")
        if n > 1:
            ts = t[order]
            if (ts[1:] == ts[:-1]).any():
                order = np.lexsort((mid, key, t))
        t, mid, node, src, dst, nb, fl, meta = (
            c[order] for c in (t, mid, node, src, dst, nb, fl, meta)
        )
        last = float(t[-1])
        if last > self.now:
            self.now = last
        rank = 2 * np.arange(self.executed, self.executed + n)
        self.executed += n
        self.exec_times.append(t)
        if self.dead_encs:
            alive = ~np.isin(
                fl, np.fromiter(self.dead_encs, np.int64, len(self.dead_encs))
            )
            if not alive.all():
                t, mid, node, src, dst, nb, fl, meta, rank = (
                    c[alive]
                    for c in (t, mid, node, src, dst, nb, fl, meta, rank)
                )
                if t.size == 0:
                    return
        deliver = node == dst
        if deliver.any():
            bounce = deliver & self.has_cb[node]
            nbounce = int(bounce.sum())
            if nbounce:
                self.deliveries.append((
                    t[bounce], mid[bounce], node[bounce], meta[bounce],
                    rank[bounce],
                ))
                self.events -= nbounce  # executed coordinator-side
            keep = ~deliver
            if not keep.any():
                return
            t, mid, node, src, dst, nb, fl, meta, rank = (
                c[keep] for c in (t, mid, node, src, dst, nb, fl, meta, rank)
            )
        nxt = self._route(node, dst)
        li = self.index.link_ids(node, nxt)
        ser = nb / self.rate[li]
        order = np.argsort(li, kind="stable")  # per link, execution order
        li_s = li[order]
        t_s = t[order]
        ser_s = ser[order]
        fin = np.empty_like(t_s)
        starts = np.ones(li_s.size, np.bool_)
        starts[1:] = li_s[1:] != li_s[:-1]
        seg_start = np.nonzero(starts)[0]
        seg_end = np.append(seg_start[1:], li_s.size)
        single = (seg_end - seg_start) == 1
        if single.any():
            pos = seg_start[single]
            lids = li_s[pos]
            fin[pos] = np.maximum(t_s[pos], self.busy[lids]) + ser_s[pos]
            self.busy[lids] = fin[pos]
        if not single.all():
            # Python floats run the same IEEE max/+ chain, faster than
            # numpy scalars.
            multi = ~single
            lids = li_s[seg_start[multi]]
            t_l, ser_l = t_s.tolist(), ser_s.tolist()
            chained: list[float] = []
            ends = []
            for s, e, b in zip(
                seg_start[multi].tolist(), seg_end[multi].tolist(),
                self.busy[lids].tolist(),
            ):
                for i in range(s, e):
                    when = t_l[i]
                    b = (when if when > b else b) + ser_l[i]
                    chained.append(b)
                ends.append(b)
            fin[np.repeat(multi, seg_end - seg_start)] = chained
            self.busy[lids] = ends
        np.add.at(self.acc_bytes, li, nb)
        np.add.at(self.acc_msgs, li, 1)
        self._bh += float(nb.sum())
        self._nmsg += int(nb.size)
        if (fl != 0).any():
            self._account_flows(li, nb, fl)
        arr = np.empty_like(fin)
        arr[order] = fin + self.latency[li_s]
        ow = self.owner[nxt]
        mine = ow == self.shard
        out_rows = (arr, mid, nxt, src, dst, nb, fl, meta, rank)
        if mine.any():
            mine_rows = _mask_batch(out_rows, mine)
            if self.ship_ck:
                self.ck_mine.append(mine_rows)
            self._push(mine_rows)
        away = ~mine
        if away.any():
            self.outbox.append(_mask_batch(out_rows, away))

    # -- fault replay: scalar per-row engine ----------------------------
    def _window_faulty(self, stop: float) -> None:
        """Window execution under an armed fault schedule.

        Faults break the batch model (each row may roll loss or
        duplication, and the rolls consume per-link counters in event
        order), so the window runs as a scalar mini event loop over a
        ``(t, mid)``-ordered row heap (executions are still numbered, in
        that order, for the rows they emit).  Apply/repair transitions
        fire lazily before the first row at or past their instant
        (priority-0 semantics).
        """
        self._fstop = stop
        heap = self._fheap
        rows = self._take(stop)
        if rows is not None:
            for row in zip(*(col.tolist() for col in rows)):
                heapq.heappush(heap, row)
        timeline = self.fault_timeline
        ntl = len(timeline)
        while heap:
            t = heap[0][0]
            while self.fault_i < ntl and timeline[self.fault_i][0] <= t:
                self._fire_fault(timeline[self.fault_i])
                self.fault_i += 1
            self._exec_row(*heapq.heappop(heap))
        if self._frest:
            rest = _rows_to_batch(self._frest)
            self._frest = []
            if self.ship_ck:
                self.ck_mine.append(rest)
            self._push(rest)
        if self._fdels:
            self.deliveries.append(_deliveries_to_batch(self._fdels))
            self._fdels = []
        if self._fout:
            self.outbox.append(_rows_to_batch(self._fout))
            self._fout = []

    def _exec_row(
        self, t: float, mid: int, node: int, src: int, dst: int,
        nb: float, fl: int, meta: int, _key: int,
    ) -> None:
        if t > self.now:
            self.now = t
        self.events += 1
        rank = 2 * self.executed
        self.executed += 1
        self.exec_times.append(t)
        if fl in self.dead_encs:
            return
        if meta & _META_RETRANSMIT:
            # Host timeout firing at the source: count, then hop.
            meta &= ~_META_RETRANSMIT
            self._count_rel(fl, 2)
        if node == dst:
            if self.has_cb[node]:
                self._fdels.append((t, mid, node, meta, rank))
                self.events -= 1  # executed coordinator-side
            return
        if node != src and self.node_failed[node]:
            # Dead switch swallows the chunk (no link attribution).
            self._lose_row(t, mid, src, dst, nb, fl, meta, rank)
            return
        nxt = self._route_one(node, dst)
        li = self.link_index[(self.names[node], self.names[nxt])]
        if self.link_down[li]:
            self._count_link_rel(li, 3)
            self._lose_row(t, mid, src, dst, nb, fl, meta, rank)
            return
        fault = self.link_fault.get(li)
        # Mirror Link.transmit's float chain (and counter bumps) bit
        # for bit.
        rate = self.rate[li]
        if fault is not None and fault.kind == "slow":
            rate = rate / fault.slow_factor
        busy = self.busy[li]
        start = t if t > busy else busy
        fin = start + nb / rate
        self.busy[li] = fin
        self.nmsg_roll[li] += 1
        self.acc_bytes[li] += nb
        self.acc_msgs[li] += 1
        self._bh += nb
        self._nmsg += 1
        if fl:
            stats = self._flow_entry(fl)
            stats[0] += nb
            stats[1] += 1
            stats[2][li] = stats[2].get(li, 0.0) + nb
        arr = fin + self.latency[li]
        if fault is not None and fault.kind == "lossy":
            if fault.loss_rate and self._roll(li, "drop", fault.loss_rate):
                self._count_link_rel(li, 3)
                self._lose_row(t, mid, src, dst, nb, fl, meta, rank)
                return
            if fault.duplicate_rate and self._roll(
                li, "dup", fault.duplicate_rate
            ):
                self._count_link_rel(li, 4)
                self._count_rel(fl, 1)
                self._emit_row(
                    arr + self.latency[li], mid, nxt, src, dst, nb, fl,
                    meta | _META_EPHEMERAL, rank,
                )
        self._emit_row(arr, mid, nxt, src, dst, nb, fl, meta, rank)

    def _lose_row(
        self, t: float, mid: int, src: int, dst: int, nb: float,
        fl: int, meta: int, rank: int,
    ) -> None:
        self._count_rel(fl, 0)
        if meta & _META_EPHEMERAL:
            return      # a lost duplicate; the original recovers itself
        retries = meta >> 2
        if retries >= self.max_retx:
            raise UnreachableError(
                f"chunk {self.names[src]} -> {self.names[dst]} (flow enc "
                f"{fl}) lost {retries} retransmissions in a row; "
                "destination unreachable (persistent failure or partition)"
            )
        self._emit_row(
            t + self.retx_timeout, mid, src, src, dst, nb, fl,
            _META_RETRANSMIT | ((retries + 1) << 2), rank,
        )

    def _emit_row(
        self, t: float, mid: int, node: int, src: int, dst: int,
        nb: float, fl: int, meta: int, key: int,
    ) -> None:
        row = (t, mid, node, src, dst, nb, fl, meta, key)
        if self.owner[node] == self.shard:
            if t < self._fstop:
                # Executes this window; the checkpoint mirror only needs
                # rows that survive past the stop (``_frest``).
                heapq.heappush(self._fheap, row)
            else:
                self._frest.append(row)
        else:
            self._fout.append(row)

    def _count_rel(self, fl: int, slot: int) -> None:
        """Run-level reliability counter bump (slot 0 drops, 1
        duplicates, 2 retransmits) with per-flow attribution."""
        self.rel[slot] += 1
        if fl:
            self._flow_entry(fl)[3 + slot] += 1

    def _count_link_rel(self, li: int, slot: int) -> None:
        """Per-link attribution (slot 3 link_drops, 4 link_dups)."""
        table = self.rel[slot]
        table[li] = table.get(li, 0) + 1

    def _flow_entry(self, fl: int) -> list:
        stats = self.flow_acc.get(fl)
        if stats is None:
            stats = self.flow_acc[fl] = [0.0, 0, {}, 0, 0, 0]
        return stats

    def _roll(self, li: int, what: str, rate: float) -> bool:
        a, b = self.index.link_keys[li]
        return stable_hash(
            a, b, int(self.nmsg_roll[li]), what, salt=self.fsalt
        ) < rate * _HASH_SPAN

    def _route_one(self, node: int, dst: int) -> int:
        key = node * self.index.n_nodes + dst
        hop = self.route_memo.get(key)
        if hop is None:
            names = self.names
            try:
                hop = self.index.idx[
                    self.router.next_hop(names[node], names[dst])
                ]
            except ValueError as exc:
                raise UnreachableError(
                    f"no route {names[node]} -> {names[dst]}: the "
                    "injected failures partitioned the network "
                    f"({exc})"
                ) from exc
            self.route_memo[key] = hop
        return hop

    def _spec_link_ids(self, spec) -> list[int]:
        if spec.link == "*":
            return list(range(len(self.links)))
        a, b = spec.link
        out = []
        for key in ((a, b), (b, a)):
            li = self.link_index.get(key)
            if li is not None:
                out.append(li)
        return out

    def _fire_fault(self, ev: tuple) -> None:
        _at, phase, _n, spec = ev
        topo = self.topology
        if phase == 0:
            if spec.switch is not None:
                topo.fail_switch(spec.switch)
                self._sync_topology_state()
            elif spec.kind == "down":
                topo.fail_link(*spec.link)
                self._sync_topology_state()
            else:
                fault = spec.link_fault()
                for li in self._spec_link_ids(spec):
                    self.link_fault[li] = fault
        else:
            if spec.switch is not None:
                topo.repair_switch(spec.switch)
                self._sync_topology_state()
            elif spec.kind == "down":
                topo.repair_link(*spec.link)
                self._sync_topology_state()
            else:
                for li in self._spec_link_ids(spec):
                    fault = self.link_fault.get(li)
                    if fault is not None and fault.kind == spec.kind:
                        del self.link_fault[li]

    def _sync_topology_state(self) -> None:
        """Recompute failure masks from the (just mutated) topology
        copy and drop the route memo — outage transitions are rare, so
        a full refresh keeps the hot path branch-free."""
        self.link_down = self.link_column("failed", np.bool_)
        self.node_failed[:] = False
        for s in self.topology._failed_switches:
            self.node_failed[self.index.idx[s]] = True
        self.route_memo.clear()

    def _route(self, node: np.ndarray, dst: np.ndarray) -> np.ndarray:
        if self.vec_routing:
            return updown_next_hop_vec(self.index, node, dst, self.salt)
        # Scalar fallback: route each unique (node, dst) pair once.
        nn = np.int64(self.index.n_nodes)
        uniq, inverse = np.unique(node * nn + dst, return_inverse=True)
        memo = self.route_memo
        names = self.names
        idx = self.index.idx
        next_hop = self.router.next_hop
        table = np.empty(uniq.size, np.int64)
        for i, key in enumerate(uniq):
            key = int(key)
            hop = memo.get(key)
            if hop is None:
                a, b = divmod(key, int(nn))
                hop = memo[key] = idx[next_hop(names[a], names[b])]
            table[i] = hop
        return table[inverse]

    def _account_flows(self, li, nb, fl) -> None:
        acc = self.flow_acc
        for i in np.nonzero(fl)[0]:
            enc = int(fl[i])
            stats = acc.get(enc)
            if stats is None:
                stats = acc[enc] = [0.0, 0, {}]
            nbytes = float(nb[i])
            stats[0] += nbytes
            stats[1] += 1
            key = int(li[i])
            stats[2][key] = stats[2].get(key, 0.0) + nbytes

    def _stats_delta(self):
        bh, nmsg = self._bh, self._nmsg
        flows = {enc: tuple(stats) for enc, stats in self.flow_acc.items()}
        self.flow_acc = {}
        self._bh = 0.0
        self._nmsg = 0
        rel = None
        if self.faulty:
            drops, dups, retx, ldrops, ldups = self.rel
            if drops or dups or retx or ldrops or ldups:
                rel = (drops, dups, retx, ldrops, ldups)
                self.rel = [0, 0, 0, {}, {}]
        if bh == 0.0 and nmsg == 0 and not flows and rel is None:
            return None
        if rel is None:
            return (bh, nmsg, flows)
        return (bh, nmsg, flows, rel)

    # -- quiescence / recall -------------------------------------------
    def link_flush(self):
        nz = np.nonzero((self.acc_bytes != 0) | (self.acc_msgs != 0))[0]
        if nz.size == 0:
            return None
        out = (nz.astype(np.int64), self.acc_bytes[nz], self.acc_msgs[nz])
        self.acc_bytes = np.zeros_like(self.acc_bytes)
        self.acc_msgs = np.zeros_like(self.acc_msgs)
        return out

    def busy_state(self):
        changed = np.nonzero(
            (self.busy != self.snap_busy) & (self.link_owner == self.shard)
        )[0]
        self.snap_busy = self.busy.copy()
        if changed.size == 0:
            return None
        return (changed.astype(np.int64), self.busy[changed])

    def flush(self) -> tuple:
        # FIFO arbitration never materializes WFQ queues, so the peaks
        # slot is always empty — matching a sequential FIFO run.
        return ("fr", self.link_flush(), self.busy_state(), None, self.now)

    def recall(self) -> tuple:
        return (
            "rcr", _batch_arrivals(_concat_batches(self.pend)), [],
            self._stats_delta(), self.link_flush(), self.busy_state(), None,
            self.now,
        )

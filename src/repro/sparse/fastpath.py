"""Train kernel: exact fast-path model of the sparse aggregation handler.

The kernel replays :class:`~repro.sparse.handlers.SparseAggregationHandler`
packet by packet in the order the :class:`~repro.pspin.train.TrainRunner`
dispatches them: the same dispatch overhead, per-element insert cost,
spill-flush and finalize costs, and per-block critical section, over
fresh :class:`~repro.sparse.hash_storage.HashStorage` /
:class:`~repro.sparse.array_storage.ArrayStorage` objects.  A block's
packets all run on one subset, in the same order as under the
per-packet DES, so every insert, spill and flush is identical by
construction; only the per-event machinery around them is gone.

Anything the kernel cannot reproduce raises
:class:`~repro.pspin.train.FastPathAbort` and the switch re-runs the
train per packet: an L1 budget failure (where the DES raises the
``MemoryError`` the driver reports as infeasible), malformed shard
announcements, or blocks left incomplete.
"""

from __future__ import annotations

from repro.pspin.train import (
    FastPathAbort,
    SparsePacketTrain,
    register_train_kernel,
    replay_region_profile,
)
from repro.sparse.handlers import SparseAggregationHandler


class _SparseRecord:
    __slots__ = ("storage", "cluster", "received", "announced", "done", "lock_free")

    def __init__(self, storage, cluster: int) -> None:
        self.storage = storage
        self.cluster = cluster
        self.received: dict[int, int] = {}
        self.announced: dict[int, int] = {}
        #: Children whose announced shards have all arrived.
        self.done: set[int] = set()
        self.lock_free = 0.0


class SparseKernel:
    """Exact train model of :class:`SparseAggregationHandler`."""

    has_continuations = False

    def __init__(self, handler, switch, train, handler_name: str) -> None:
        if not isinstance(train, SparsePacketTrain):
            raise FastPathAbort("dense train for the sparse handler")
        if handler._blocks:
            raise FastPathAbort("handler has blocks in flight")
        if switch.scheduler.subset_size != switch.config.cores_per_cluster:
            # The handler charges remote-L1 penalties to blocks homed
            # off the dispatching cluster; the kernel assumes none.
            raise FastPathAbort("blocks would be homed off their subset")
        config = handler.config
        cm = switch.config.cost_model
        self.handler = handler
        self.switch = switch
        self.train = train
        self.config = config
        self.cost_model = cm
        self.dispatch_c = cm.handler_dispatch_cycles
        self.spill_c = cm.spill_flush_cycles
        self.flush_c = cm.array_flush_cycles_per_element
        self.l1_budget = config.l1_budget_bytes
        self.l1_free = [
            cl.l1.capacity_bytes - cl.l1.used_bytes for cl in switch.clusters
        ]
        self.budget_used = dict(handler._budget_used)
        self.l1_events: list[list[tuple[float, int]]] = [[] for _ in switch.clusters]
        self.wm_events: list[tuple[float, int]] = []
        self.blocks: dict[int, _SparseRecord] = {}
        self.completed: set[int] = set()
        self.block_cluster: dict[int, int] = {}
        self.blocks_completed = 0
        self.spilled_bytes = 0
        self.peak_block_memory = handler.peak_block_memory
        #: (finish, dispatch number, block, spill flushes, final result)
        self.emissions: list[tuple] = []

    def set_block_clusters(self, block_subset: dict[int, int]) -> None:
        """Runner-provided block -> subset map (subsets are clusters
        under the fast path's eligibility rules)."""
        self.block_cluster = block_subset

    # -- runner interface ----------------------------------------------
    def process(self, pkt: int, block_id: int, port: int, dispatch_t: float, start_t: float):
        config = self.config
        rec = self.blocks.get(block_id)
        if rec is None:
            if block_id in self.completed:
                # The DES would map the straggler to a fresh subset.
                raise FastPathAbort("packet for an already completed block")
            cluster = self.block_cluster[block_id]
            storage = self.handler._make_storage()
            mem = storage.memory_bytes
            used = self.budget_used.get(cluster, 0)
            if used + mem > self.l1_budget or mem > self.l1_free[cluster]:
                raise FastPathAbort("block storage does not fit the L1 budget")
            self.budget_used[cluster] = used + mem
            self.l1_free[cluster] -= mem
            self.l1_events[cluster].append((dispatch_t, mem))
            self.wm_events.append((dispatch_t, mem))
            if mem > self.peak_block_memory:
                self.peak_block_memory = mem
            rec = _SparseRecord(storage, cluster)
            self.blocks[block_id] = rec
        train = self.train
        t = start_t + self.dispatch_c
        values = train.values[pkt]
        # The block is always homed on the dispatching cluster, so the
        # handler's remote-L1 penalty factor is 1.0.
        insert_cost = self.cost_model.sparse_insert_cycles(len(values), config.storage)
        flushes = rec.storage.insert(train.indices[pkt], values)
        hold = insert_cost + len(flushes) * self.spill_c
        for flush in flushes:
            self.spilled_bytes += flush.bytes

        # Shard accounting (BlockState.mark_sparse).
        if not 0 <= port < config.n_children:
            raise FastPathAbort("port outside the children range")
        received = rec.received.get(port, 0) + 1
        rec.received[port] = received
        if train.last_of_block[pkt]:
            count = int(train.shard_count[pkt])
            if rec.announced.setdefault(port, count) != count:
                raise FastPathAbort("conflicting shard counts")
        announced = rec.announced.get(port)
        if announced is not None and received >= announced:
            rec.done.add(port)

        final = None
        complete = len(rec.done) == config.n_children
        if complete:
            indices, out_values, residual = rec.storage.finalize()
            if residual is not None:
                self.spilled_bytes += residual.bytes
            if config.storage == "array":
                hold += config.block_span * self.flush_c
            else:
                hold += len(indices) * self.flush_c
            final = (indices, out_values)
            self.blocks_completed += 1

        lock_free = rec.lock_free
        entry = lock_free if lock_free > t else t
        wait = entry - t
        finish = entry + hold
        rec.lock_free = finish
        if flushes or final is not None:
            self.emissions.append(
                (finish, len(self.emissions), block_id, flushes, final)
            )
        if complete:
            mem = rec.storage.memory_bytes
            cluster = rec.cluster
            self.l1_free[cluster] += mem
            self.l1_events[cluster].append((finish, -mem))
            self.wm_events.append((finish, -mem))
            self.budget_used[cluster] -= mem
            del self.blocks[block_id]
            self.completed.add(block_id)
        return finish, wait, None

    def finish_check(self) -> None:
        if self.blocks:
            raise FastPathAbort("train left incomplete blocks behind")

    def commit(self):
        """Apply kernel-side state; returns (egress emissions, bytes)."""
        switch = self.switch
        for cluster, events in zip(switch.clusters, self.l1_events):
            replay_region_profile(cluster.l1, events)
        switch.telemetry.working_memory_bytes.events.extend(self.wm_events)
        handler = self.handler
        handler.blocks_completed += self.blocks_completed
        handler.spilled_bytes_total += self.spilled_bytes
        handler.peak_block_memory = self.peak_block_memory
        handler._budget_used.update(self.budget_used)
        # Completion order; a block's handlers finish in dispatch order,
        # and each emits its spill flushes before its final result.
        self.emissions.sort()
        emit = handler._emit_sparse
        out = []
        for finish, _n, block_id, flushes, final in self.emissions:
            for flush in flushes:
                out.extend((finish, p) for p in emit(flush.indices, flush.values, block_id))
            if final is not None:
                out.extend((finish, p) for p in emit(final[0], final[1], block_id))
        return out, sum(p.wire_bytes for _t, p in out)


register_train_kernel(SparseAggregationHandler, SparseKernel)

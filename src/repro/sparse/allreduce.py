"""Switch-level sparse allreduce driver (Fig. 13/14 simulated results).

Mirrors :func:`repro.core.allreduce.run_switch_allreduce` for the sparse
path: generates a sparse workload at a target density, packetizes it
with the Sec. 7 rules, pushes it through the PsPIN switch with the
sparse handler, and reports bandwidth (of *sparsified* bytes), per-block
storage memory, and the extra traffic caused by hash spilling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.sparse.fastpath  # noqa: F401  (registers the sparse train kernel)
from repro.core.staggered import arrival_arrays
from repro.pspin.costs import CostModel
from repro.pspin.packets import HEADER_BYTES
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.pspin.train import SparsePacketTrain
from repro.sparse.formats import SparseWorkload, make_sparse_workload, packetize_block
from repro.sparse.handlers import SparseAggregationHandler, SparseHandlerConfig
from repro.sparse.models import SPARSE_ELEMENT_BYTES
from repro.utils.units import parse_size

FULL_CLUSTERS = 64


@dataclass
class SparseAllreduceResult:
    """Outcome of one simulated sparse allreduce on one switch."""

    storage: str
    density: float
    data_bytes: int                  # sparsified bytes per host (approx)
    n_children: int
    n_blocks: int
    sim_clusters: int
    feasible: bool
    makespan_cycles: float = 0.0
    sim_bandwidth_tbps: float = 0.0
    bandwidth_tbps: float = 0.0
    block_memory_bytes: int = 0
    ingress_payload_bytes: int = 0
    egress_payload_bytes: int = 0
    ideal_egress_bytes: int = 0
    spilled_bytes: int = 0
    #: (actual egress - ideal egress) / ideal egress * 100: how much
    #: more traffic leaves the switch than perfect aggregation would
    #: produce ("for 20% data density, spilling doubles the network
    #: traffic" == ~100%).
    extra_traffic_pct: float = 0.0
    contention_wait_cycles: float = 0.0
    blocks_completed: int = 0
    deferred_arrivals: int = 0
    #: True iff the packet-train fast path simulated the run.
    fast_path_used: bool = False
    infeasible_reason: str = ""
    outputs: dict[int, np.ndarray] = field(default_factory=dict)

    def summary(self) -> str:
        if not self.feasible:
            return f"sparse-{self.storage} d={self.density:.0%}: INFEASIBLE ({self.infeasible_reason})"
        return (
            f"sparse-{self.storage} d={self.density:.0%}: "
            f"{self.bandwidth_tbps:.2f} Tbps, block mem "
            f"{self.block_memory_bytes / 1024:.1f} KiB, extra traffic "
            f"{self.extra_traffic_pct:.0f}%"
        )


def run_sparse_switch_allreduce(
    data_bytes: int | str,
    density: float,
    storage: str = "hash",
    children: int = 64,
    n_clusters: int = 4,
    cores_per_cluster: int = 8,
    dtype: str = "float32",
    correlation: float = 0.0,
    seed: int = 0,
    packet_bytes: int = 1024,
    hash_slots_factor: float = 4.0,
    cost_model: Optional[CostModel] = None,
    workload: Optional[SparseWorkload] = None,
    jitter: float = 1.0,
    verify: bool = True,
) -> SparseAllreduceResult:
    """Simulate one sparse allreduce through a Flare switch.

    .. deprecated::
        Thin shim over the :mod:`repro.comm` registry
        ("flare_switch_sparse" algorithm); prefer
        ``Communicator.allreduce(..., sparse=True)``.
    """
    warnings.warn(
        "run_sparse_switch_allreduce is deprecated; use repro.comm."
        "Communicator.allreduce(..., algorithm='flare_switch_sparse')",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.comm import legacy_execute

    result = legacy_execute(
        "flare_switch_sparse",
        nbytes=parse_size(data_bytes),
        n_hosts=children,
        dtype=dtype,
        sparse=True,
        density=density,
        params={
            "storage": storage,
            "n_clusters": n_clusters,
            "cores_per_cluster": cores_per_cluster,
            "correlation": correlation,
            "packet_bytes": packet_bytes,
            "hash_slots_factor": hash_slots_factor,
            "cost_model": cost_model,
            "workload": workload,
        },
        execute_args={"seed": seed, "jitter": jitter, "verify": verify},
    )
    return result.raw


def _run_sparse_switch_allreduce(
    data_bytes: int | str,
    density: float,
    storage: str = "hash",
    children: int = 64,
    n_clusters: int = 4,
    cores_per_cluster: int = 8,
    dtype: str = "float32",
    correlation: float = 0.0,
    seed: int = 0,
    packet_bytes: int = 1024,
    hash_slots_factor: float = 4.0,
    cost_model: Optional[CostModel] = None,
    workload: Optional[SparseWorkload] = None,
    jitter: float = 1.0,
    verify: bool = True,
) -> SparseAllreduceResult:
    """Sparse switch-level allreduce implementation.

    ``data_bytes`` is the *sparsified* per-host volume (indices +
    values), matching the paper's "Data Size (Sparsified)" axes.
    """
    data_bytes = parse_size(data_bytes)
    cost_model = cost_model or CostModel()
    elements_per_packet = max(1, packet_bytes // SPARSE_ELEMENT_BYTES)
    n_blocks = max(1, data_bytes // (elements_per_packet * SPARSE_ELEMENT_BYTES))

    if workload is None:
        workload = make_sparse_workload(
            n_hosts=children,
            n_blocks=n_blocks,
            elements_per_packet=elements_per_packet,
            density=density,
            dtype=dtype,
            seed=seed,
            correlation=correlation,
        )
    n_blocks = workload.n_blocks

    switch_cfg = SwitchConfig(
        n_clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        cost_model=cost_model,
    )
    switch = PsPINSwitch(switch_cfg)
    hconf = SparseHandlerConfig(
        allreduce_id=1,
        n_children=children,
        storage=storage,
        density=density,
        dtype_name=dtype,
        packet_bytes=packet_bytes,
        hash_slots_factor=hash_slots_factor,
    )
    handler = SparseAggregationHandler(hconf)
    switch.register_handler(handler)
    switch.parser.install_allreduce(1, handler.name)

    # Arrival schedule: blocks staggered like the dense driver; a block's
    # shards from one host go back-to-back.
    delta_full = switch_cfg.packet_interarrival_cycles(packet_bytes)
    delta_sim = delta_full * FULL_CLUSTERS / n_clusters
    train = _sparse_train(
        workload, elements_per_packet, delta_sim, children, n_blocks, jitter, seed
    )
    ingress_payload = int(train.wire_bytes.sum()) - train.n_packets * HEADER_BYTES
    fast_path_used = switch.inject_train(train)

    try:
        makespan = switch.run()
    except MemoryError as exc:
        return SparseAllreduceResult(
            storage=storage,
            density=density,
            data_bytes=data_bytes,
            n_children=children,
            n_blocks=n_blocks,
            sim_clusters=n_clusters,
            feasible=False,
            block_memory_bytes=_probe_block_memory(hconf),
            infeasible_reason=str(exc).split(";")[0],
            deferred_arrivals=int(switch.telemetry.deferred_arrivals.value),
        )

    dense_out, egress_payload = _reassemble(switch.egress, workload, dtype)
    # Every host's contribution, as flat (block * span + index) keys in
    # host-major order: the ideal egress is their distinct count, the
    # golden model their per-position sum in host order.
    span = workload.block_span
    host_blocks = [blk for host in workload.blocks for blk in host]
    keys = np.concatenate(
        [blk.indices.astype(np.int64) + blk.block_id * span for blk in host_blocks]
    )
    touched = np.zeros(n_blocks * span, dtype=bool)
    touched[keys] = True
    ideal_egress = int(np.count_nonzero(touched)) * SPARSE_ELEMENT_BYTES
    if verify:
        golden = np.zeros(n_blocks * span, dtype=dtype)
        np.add.at(golden, keys, np.concatenate([blk.values for blk in host_blocks]))
        golden = golden.reshape(n_blocks, span)
        for b in range(n_blocks):
            got = dense_out.get(b)
            if got is None:
                raise AssertionError(f"block {b} never completed")
            if not np.allclose(got, golden[b], rtol=1e-5, atol=1e-5):
                raise AssertionError(f"block {b}: sparse aggregation mismatch")

    seconds = makespan / (cost_model.clock_ghz * 1e9) if makespan > 0 else float("inf")
    sim_tbps = ingress_payload * 8.0 / seconds / 1e12 if makespan > 0 else 0.0
    spilled = handler.spilled_bytes_total
    return SparseAllreduceResult(
        storage=storage,
        density=density,
        data_bytes=data_bytes,
        n_children=children,
        n_blocks=n_blocks,
        sim_clusters=n_clusters,
        feasible=True,
        makespan_cycles=makespan,
        sim_bandwidth_tbps=sim_tbps,
        bandwidth_tbps=sim_tbps * FULL_CLUSTERS / n_clusters,
        block_memory_bytes=handler.peak_block_memory,
        ingress_payload_bytes=ingress_payload,
        egress_payload_bytes=egress_payload,
        ideal_egress_bytes=ideal_egress,
        spilled_bytes=spilled,
        extra_traffic_pct=(
            100.0 * max(0, egress_payload - ideal_egress) / ideal_egress
            if ideal_egress
            else 0.0
        ),
        contention_wait_cycles=switch.telemetry.contention_wait_cycles.value,
        blocks_completed=handler.blocks_completed,
        deferred_arrivals=int(switch.telemetry.deferred_arrivals.value),
        fast_path_used=fast_path_used,
        outputs=dense_out,
    )


def _sparse_train(
    workload: SparseWorkload,
    elements_per_packet: int,
    delta_sim: float,
    children: int,
    n_blocks: int,
    jitter: float,
    seed: int,
) -> SparsePacketTrain:
    """The whole ingress stream as one train, in heap order.

    Host ``h`` sends block ``b`` at its staggered arrival time; shard
    ``i`` of that block follows ``i * delta_sim`` later.  A stable sort
    by time over that (stream, shard) injection order is exactly the
    order the event heap would deliver the packets in.
    """
    times, hosts, blocks = arrival_arrays(
        n_hosts=children,
        n_blocks=n_blocks,
        delta=delta_sim,
        staggered=True,
        jitter=jitter,
        seed=seed + 1,
    )
    p_times, p_blocks, p_ports, p_idx, p_vals, p_last, p_count = (
        [], [], [], [], [], [], []
    )
    for t, h, b in zip(times.tolist(), hosts.tolist(), blocks.tolist()):
        for chunk_i, chunk in enumerate(
            packetize_block(workload.blocks[h][b], elements_per_packet)
        ):
            p_times.append(t + chunk_i * delta_sim)
            p_blocks.append(chunk.block_id)
            p_ports.append(h)
            p_idx.append(chunk.indices)
            p_vals.append(chunk.values)
            p_last.append(chunk.last_of_block)
            p_count.append(chunk.shard_count)
    order = np.argsort(np.asarray(p_times), kind="stable").tolist()
    return SparsePacketTrain(
        1,
        times=[p_times[i] for i in order],
        block_ids=[p_blocks[i] for i in order],
        ports=[p_ports[i] for i in order],
        indices=[p_idx[i] for i in order],
        values=[p_vals[i] for i in order],
        last_of_block=[p_last[i] for i in order],
        shard_count=[p_count[i] for i in order],
    )


def _reassemble(egress, workload: SparseWorkload, dtype: str):
    """Per-block dense outputs (final results + spill packets) and the
    egress payload bytes.  One ``np.add.at`` over the concatenated
    egress, in list order, adds each position's contributions in the
    same order as one call per packet would."""
    if not egress:
        return {}, 0
    span = workload.block_span
    packets = [pkt for _t, pkt in egress]
    indices = np.concatenate([pkt.indices for pkt in packets])
    values = np.concatenate([pkt.payload for pkt in packets])
    block_of = np.array([pkt.block_id for pkt in packets], dtype=np.int64)
    lengths = np.array([len(pkt.indices) for pkt in packets], dtype=np.int64)
    present = np.unique(block_of)
    row = np.searchsorted(present, block_of)
    acc = np.zeros((len(present), span), dtype=dtype)
    np.add.at(acc.reshape(-1), np.repeat(row, lengths) * span + indices, values)
    outputs = {int(b): acc[i] for i, b in enumerate(present.tolist())}
    return outputs, int(indices.nbytes + values.nbytes)


def _probe_block_memory(hconf: SparseHandlerConfig) -> int:
    """Storage footprint for reporting even when the run is infeasible."""
    handler = SparseAggregationHandler(hconf)
    return handler._make_storage().memory_bytes

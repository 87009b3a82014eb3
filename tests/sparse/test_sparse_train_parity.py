"""Parity suite: sparse packet trains, fast path vs per-packet DES.

The sparse train kernel replays the sparse handler over fresh hash /
array storages in the runner's dispatch order.  Its contract is the
dense suite's: identical makespans, bitwise outputs, identical byte and
block accounting, the same egress stream per block, and the same
infeasible verdict when block storage overflows the L1 budget.
"""

import math
import os
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sparse.allreduce as sparse_allreduce
from repro.pspin.packets import HEADER_BYTES
from repro.pspin.switch import PsPINSwitch
from repro.sparse.allreduce import _run_sparse_switch_allreduce, _sparse_train
from repro.sparse.formats import make_sparse_workload, packetize_block


def run_pair(**kwargs):
    """Run the same sparse allreduce with the fast path on, then off;
    returns both results and the switches they ran on."""
    results, switches = [], []
    for fast in (True, False):
        captured = []

        class RecordingSwitch(PsPINSwitch):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                captured.append(self)

        env = {"REPRO_FASTPATH": "1" if fast else "0"}
        with mock.patch.object(sparse_allreduce, "PsPINSwitch", RecordingSwitch), \
                mock.patch.dict(os.environ, env):
            results.append(_run_sparse_switch_allreduce(**kwargs))
        switches.append(captured[0])
    return results, switches


def egress_by_block(switch):
    out = defaultdict(list)
    for t, pkt in switch.egress:
        out[pkt.block_id].append((
            t, pkt.port, pkt.indices.tobytes(), pkt.payload.tobytes(),
            pkt.last_of_block, pkt.shard_count,
        ))
    return dict(out)


def assert_sparse_parity(results, switches, expect_fast=True):
    fast, slow = results
    assert fast.fast_path_used is expect_fast
    assert slow.fast_path_used is False
    assert fast.feasible == slow.feasible
    assert fast.infeasible_reason == slow.infeasible_reason
    assert fast.makespan_cycles == slow.makespan_cycles
    assert fast.sim_bandwidth_tbps == slow.sim_bandwidth_tbps
    assert set(fast.outputs) == set(slow.outputs)
    for block_id, want in slow.outputs.items():
        got = fast.outputs[block_id]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert fast.ingress_payload_bytes == slow.ingress_payload_bytes
    assert fast.egress_payload_bytes == slow.egress_payload_bytes
    assert fast.ideal_egress_bytes == slow.ideal_egress_bytes
    assert fast.spilled_bytes == slow.spilled_bytes
    assert fast.extra_traffic_pct == slow.extra_traffic_pct
    assert fast.blocks_completed == slow.blocks_completed
    assert fast.block_memory_bytes == slow.block_memory_bytes
    assert fast.deferred_arrivals == slow.deferred_arrivals
    # Cycle accumulators to float addition-order tolerance (the fast
    # path sums per subset).
    assert math.isclose(
        fast.contention_wait_cycles,
        slow.contention_wait_cycles,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )
    assert egress_by_block(switches[0]) == egress_by_block(switches[1])
    tel_fast, tel_slow = switches[0].telemetry, switches[1].telemetry
    assert tel_fast.packets_in.value == tel_slow.packets_in.value
    assert tel_fast.bytes_in.value == tel_slow.bytes_in.value
    assert tel_fast.bytes_out.value == tel_slow.bytes_out.value
    assert tel_fast.input_buffer_bytes.peak == tel_slow.input_buffer_bytes.peak
    assert tel_fast.working_memory_bytes.peak == tel_slow.working_memory_bytes.peak


@pytest.mark.parametrize("storage", ["hash", "array"])
@pytest.mark.parametrize("hosts", [16, 32, 64])
@pytest.mark.parametrize("density", [0.01, 0.2])
def test_sparse_parity(storage, hosts, density):
    results, switches = run_pair(
        data_bytes="16KiB", density=density, storage=storage, children=hosts, seed=hosts
    )
    assert results[0].feasible
    assert_sparse_parity(results, switches)


@pytest.mark.parametrize(
    "storage, density, correlation, jitter",
    [
        ("hash", 0.05, 0.5, 0.0),
        ("hash", 0.1, 0.9, 1.0),
        ("hash", 0.2, 0.0, 0.0),
        ("array", 0.05, 0.5, 0.0),
        ("array", 0.1, 0.9, 0.5),
    ],
)
def test_sparse_parity_correlation_and_jitter(storage, density, correlation, jitter):
    results, switches = run_pair(
        data_bytes="16KiB", density=density, storage=storage, children=32,
        correlation=correlation, jitter=jitter, seed=3,
    )
    assert_sparse_parity(results, switches)


def test_hash_spills_take_the_fast_path():
    results, switches = run_pair(
        data_bytes="16KiB", density=0.2, storage="hash", children=16, n_clusters=1, seed=5
    )
    assert results[0].spilled_bytes > 0
    assert_sparse_parity(results, switches)


def test_infeasible_array_falls_back_with_same_verdict():
    """Array storage at 0.1% density overflows the L1 budget: the kernel
    aborts and the DES returns the infeasible result it always did."""
    results, switches = run_pair(
        data_bytes="64KiB", density=0.001, storage="array", children=16,
        n_clusters=1, seed=3,
    )
    assert not results[0].feasible
    assert "partition" in results[0].infeasible_reason
    assert results[0].block_memory_bytes == results[1].block_memory_bytes > 0
    assert_sparse_parity(results, switches, expect_fast=False)


@settings(max_examples=12, deadline=None)
@given(
    storage=st.sampled_from(["hash", "array"]),
    hosts=st.sampled_from([16, 32, 64]),
    size_kib=st.sampled_from([8, 16]),
    density=st.floats(0.01, 0.2),
    correlation=st.sampled_from([0.0, 0.3, 0.9]),
    jitter=st.sampled_from([0.0, 0.5, 1.0]),
    n_clusters=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 10_000),
)
def test_property_sparse_parity(
    storage, hosts, size_kib, density, correlation, jitter, n_clusters, seed
):
    results, switches = run_pair(
        data_bytes=f"{size_kib}KiB", density=density, storage=storage,
        children=hosts, correlation=correlation, jitter=jitter,
        n_clusters=n_clusters, seed=seed,
    )
    assert_sparse_parity(results, switches, expect_fast=results[1].feasible)


def test_sparse_train_is_the_injected_stream_in_heap_order():
    """Every host's chunks appear once, shards back to back in time,
    in stable time order; packets() rebuilds them field for field."""
    wl = make_sparse_workload(
        n_hosts=8, n_blocks=4, elements_per_packet=16, density=0.1, seed=2
    )
    train = _sparse_train(wl, 16, 2.5, 8, 4, jitter=1.0, seed=2)
    assert np.all(np.diff(train.times) >= 0)
    expected = {}
    for h in range(8):
        for b in range(4):
            for chunk in packetize_block(wl.blocks[h][b], 16):
                expected.setdefault((h, b), []).append(chunk)
    seen = defaultdict(list)
    for k, pkt in enumerate(train.packets()):
        assert (pkt.port, pkt.block_id) == (train.ports[k], train.block_ids[k])
        assert pkt.wire_bytes == train.wire_bytes[k]
        assert train.wire_bytes[k] == pkt.indices.nbytes + pkt.payload.nbytes + HEADER_BYTES
        seen[(pkt.port, pkt.block_id)].append(pkt)
    assert set(seen) == set(expected)
    for key, chunks in expected.items():
        pkts = seen[key]
        assert len(pkts) == len(chunks)
        for pkt, chunk in zip(pkts, chunks):
            assert np.array_equal(pkt.indices, chunk.indices)
            assert np.array_equal(pkt.payload, chunk.values)
            assert pkt.last_of_block == chunk.last_of_block
            assert pkt.shard_count == chunk.shard_count

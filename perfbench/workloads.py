"""The benchmark's four workloads.

Each workload makes all of its inputs from the seed in ``__init__``
(untimed, outside set-up), then run.py repeats passes over those
same inputs:

* ``setup()``   -- build topology, fabric/engine, communicators and
  service and warm the plan caches (timed as ``setup_s``);
* ``run(state)`` -- the timed region: one full pass over the inputs;
* ``check(state)`` -- untimed output checks; returns a :class:`Pass`;
* ``harvest(state)`` -- gauges the program reports at the pass
  boundary, read for traced runs only;
* ``close(state)`` -- release what set-up opened.

``warmup()`` runs a small, different input once per process, so lazy
imports and first-call costs do not land in the first pass, and returns
the errors of any check it makes.

Simulated metrics come from a fixed input set, never from how many
passes fit in the time window, so a host-only speed-up leaves them
identical.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Pass:
    """Checked outcome of one timed pass."""

    ops: int
    failed: int
    #: ``(start, end)`` host-time interval of each blocking call in the
    #: closed loop.  The open loops leave it empty: their ops complete
    #: in bursts inside one event loop, so run.py takes each pass's
    #: host time per op instead.
    host_spans: list = field(default_factory=list)
    #: Simulated metrics; must be identical on every pass of a seed.
    sim: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _jain(xs) -> float:
    xs = np.asarray([x for x in xs if x > 0], dtype=float)
    if xs.size == 0:
        return 1.0
    return float(xs.sum() ** 2 / (xs.size * (xs * xs).sum()))


def _sim_summary(op_ns, makespan_ns: float, payload_bytes: float, fairness: float) -> dict:
    return {
        "sim_op_p50_us": _pct(op_ns, 50) / 1e3,
        "sim_op_p90_us": _pct(op_ns, 90) / 1e3,
        "sim_makespan_us": makespan_ns / 1e3,
        "sim_goodput_gbps": payload_bytes * 8.0 / makespan_ns,
        "fairness": fairness,
    }


# ======================================================================
# switch_aggregate: closed loop, one client, blocking allreduces
# ======================================================================
class SwitchAggregate:
    """Blocking ``Communicator.allreduce`` calls on the switch model.

    One pass is 103 calls, each issued after the previous returns:
    int32 sum under single / multi(4) / tree aggregation, reproducible
    fp32 sum, int32 ``max``, hash and array sparse storage at 1%
    density, all at 16-64 hosts x 16-64 KiB where the packet-train fast
    path engages, plus one 64 hosts x 256 KiB multi(4) call where it
    disengages and the per-packet path runs.  Payload values, jitter
    seeds and call order come from the seed.
    """

    name = "switch_aggregate"
    HOSTS = (16, 32, 64)
    SIZES_KIB = (16, 32, 64)
    AGGREGATIONS = ("single", "multi(4)", "tree")
    ELEMENTS = 256                      # per 1 KiB packet of 4-byte elements
    DRAWS = 2

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        ops = []

        def int_payload(hosts, kib):
            return rng.integers(-(1 << 20), 1 << 20, size=(hosts, kib, self.ELEMENTS), dtype=np.int32)

        for _ in range(self.DRAWS):
            for hosts in self.HOSTS:
                for kib in self.SIZES_KIB:
                    for agg in self.AGGREGATIONS:
                        ops.append(("sum", hosts, kib, {"aggregation": agg}, int_payload(hosts, kib)))
                    fp = rng.standard_normal((hosts, kib, self.ELEMENTS)).astype(np.float32)
                    ops.append(("repro", hosts, kib, {"reproducible": True}, fp))
                    ops.append(("max", hosts, kib, {"op": "max"}, int_payload(hosts, kib)))
                for storage in ("hash", "array"):
                    ops.append(("sparse", hosts, 16, {"storage": storage}, None))
        ops.append(("sum", 64, 256, {"aggregation": "multi(4)"}, int_payload(64, 256)))
        order = rng.permutation(len(ops))
        seeds = rng.integers(0, 1 << 30, size=len(ops))
        self.ops = []
        for i, k in enumerate(order):
            kind, hosts, kib, kw, data = ops[k]
            self.ops.append({
                "kind": kind, "hosts": hosts, "kib": kib, "kwargs": kw,
                "data": data, "seed": int(seeds[i]), "golden": _golden(kind, data),
            })

    # ------------------------------------------------------------------
    @staticmethod
    def _call_args(op: dict) -> tuple:
        if op["kind"] == "sparse":
            return (f"{op['kib']}KiB",), {
                "algorithm": "flare_switch_sparse", "sparse": True,
                "density": 0.01, **op["kwargs"],
            }
        return (op["data"],), {"algorithm": "flare_switch", **op["kwargs"]}

    def warmup(self) -> list:
        from repro import Communicator

        comm = Communicator(n_hosts=4)
        data = np.ones((4, 2, self.ELEMENTS), dtype=np.int32)
        for kw in ({"aggregation": "single"}, {"aggregation": "multi(4)"},
                   {"aggregation": "tree"}, {"op": "max"}):
            comm.allreduce(data, algorithm="flare_switch", **kw)
        comm.allreduce(data.astype(np.float32), algorithm="flare_switch", reproducible=True)
        for storage in ("hash", "array"):
            comm.allreduce("4KiB", algorithm="flare_switch_sparse", sparse=True,
                           density=0.01, storage=storage)
        return []

    def setup(self) -> dict:
        from repro import Communicator

        comms = {h: Communicator(n_hosts=h) for h in self.HOSTS}
        for op in self.ops:                   # warm every plan cache
            comm = comms[op["hosts"]]
            args, kwargs = self._call_args(op)
            request, payloads = comm.make_request(*args, **kwargs)
            comm.plan(request, payloads=payloads)
        return {"comms": comms, "results": [], "host_spans": [], "trace": None}

    def run(self, state: dict) -> None:
        comms, results, spans = state["comms"], state["results"], state["host_spans"]
        trace = state["trace"]
        for op in self.ops:
            if trace is not None:
                trace.op = trace.next_op()
            args, kwargs = self._call_args(op)
            comm = comms[op["hosts"]]
            t0 = perf_counter()
            try:
                result = comm.allreduce(*args, seed=op["seed"], **kwargs)
            except Exception as exc:          # counted as a failed op
                result = exc
            spans.append((t0, perf_counter()))
            results.append(result)

    def check(self, state: dict) -> Pass:
        out = Pass(ops=len(self.ops), failed=0, host_spans=list(state["host_spans"]))
        times, payload = [], 0.0
        for op, res in zip(self.ops, state["results"]):
            err = _check_switch_op(op, res)
            if err is not None:
                out.failed += 1
                out.errors.append(f"{op['kind']} {op['hosts']}x{op['kib']}KiB: {err}")
                continue
            times.append(res.time_ns)
            payload += res.sent_bytes_per_host * res.n_hosts
        if times:
            makespan = float(sum(times))      # closed loop: calls run back to back
            out.sim = _sim_summary(times, makespan, payload, 1.0)
            out.sim["op_times_ns"] = times
        return out

    def harvest(self, state: dict) -> dict:
        return {}

    def close(self, state: dict) -> None:
        state["results"].clear()


def _pairwise(data: np.ndarray) -> np.ndarray:
    """Host-order binary-tree sum: the reproducible aggregation order."""
    parts = list(data)
    while len(parts) > 1:
        parts = [
            parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def _golden(kind: str, data):
    if kind == "sum":
        return data.sum(axis=0, dtype=np.int32)
    if kind == "max":
        return data.max(axis=0)
    if kind == "repro":
        return _pairwise(data)
    return None


def _check_switch_op(op: dict, res):
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    if not res.time_ns > 0:
        return f"time_ns {res.time_ns}"
    if op["kind"] == "sparse":
        if res.extra.get("feasible") is False:
            return "sparse result infeasible"
        return None
    outputs = res.extra.get("outputs") or {}
    golden = op["golden"]
    if len(outputs) != golden.shape[0]:
        return f"{len(outputs)} output blocks, expected {golden.shape[0]}"
    got = np.stack([outputs[b] for b in range(golden.shape[0])])
    if got.dtype != golden.dtype or not np.array_equal(got, golden):
        return "output differs from the numpy reduction"
    return None


# ======================================================================
# tenant_service: open loop in simulated time, FabricService replay
# ======================================================================
class _KeepJobs:
    """Workload source that keeps the jobs it hands to the service, so
    per-iteration simulated times can be read after the run."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.classes = inner.classes
        self.handed: list = []

    def jobs(self) -> list:
        self.handed = self.inner.jobs()
        return self.handed


class TenantService:
    """A seeded burst of 512 eight-host jobs x 2 iterations.

    Two classes weighted 4:1, arrivals 1 us apart, sizes 64 KiB - 1 MiB
    and algorithms ring / flare_dense / butterfly / swing, on a 32-host
    fat tree with 2-slot switch pools, WFQ admission, ``pack`` placement
    and a provenance database in a temporary directory.  The seed
    permutes a balanced design: every block of 20 jobs holds each
    (algorithm, size) pair once, in seeded order.
    """

    name = "tenant_service"
    JOBS = 512
    ITERATIONS = 2
    JOB_HOSTS = 8
    FABRIC_HOSTS = 32
    ALGORITHMS = ("ring", "flare_dense", "butterfly", "swing")
    SIZES_KIB = (64, 128, 256, 512, 1024)

    def __init__(self, seed: int, out_dir: str) -> None:
        rng = np.random.default_rng([seed, 2])
        combos = [(a, s) for a in self.ALGORITHMS for s in self.SIZES_KIB]
        jobs = []
        for i in range(self.JOBS):
            if i % len(combos) == 0:
                block = rng.permutation(len(combos))
            if i % 2 == 0:
                prod_first = bool(rng.integers(0, 2))
            algo, kib = combos[block[i % len(combos)]]
            jobs.append({
                "tenant": "prod" if (i % 2 == 0) == prod_first else "batch",
                "arrival": float(i * 1000),
                "size": float(kib * 1024),
                "algorithm": algo,
                "gap": 20_000.0,
                "iterations": self.ITERATIONS,
                "n_hosts": self.JOB_HOSTS,
            })
        self.trace = {
            "schema_version": 1,
            "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
            "jobs": jobs,
        }
        self.out_dir = out_dir

    def _service(self, trace: dict, db_dir: str):
        from repro.comm.fabric import Fabric
        from repro.service import FabricService, TraceWorkload

        fabric = Fabric(
            n_hosts=self.FABRIC_HOSTS,
            max_allreduces_per_switch=2,
            provenance_db=os.path.join(db_dir, "provenance.db"),
            run_label="perfbench/tenant_service",
        )
        workload = _KeepJobs(TraceWorkload(trace))
        service = FabricService(fabric, workload, scheduler="pack", queue_policy="wfq")
        return fabric, workload, service

    def warmup(self) -> list:
        small = dict(self.trace, jobs=self.trace["jobs"][:20])
        db_dir = tempfile.mkdtemp(prefix="warmup-", dir=self.out_dir)
        try:
            fabric, _, service = self._service(small, db_dir)
            service.run()
            fabric.shutdown()
        finally:
            shutil.rmtree(db_dir, ignore_errors=True)
        return []

    def setup(self) -> dict:
        db_dir = tempfile.mkdtemp(prefix="service-", dir=self.out_dir)
        fabric, workload, service = self._service(self.trace, db_dir)
        return {"fabric": fabric, "workload": workload, "service": service,
                "db_dir": db_dir, "report": None, "error": None}

    def run(self, state: dict) -> None:
        try:
            state["report"] = state["service"].run()
            state["fabric"].shutdown()
        except Exception as exc:              # counted as failed ops
            state["error"] = exc

    def check(self, state: dict) -> Pass:
        n_ops = self.JOBS * self.ITERATIONS
        out = Pass(ops=n_ops, failed=0)
        report = state["report"]
        if state["error"] is not None or report is None:
            out.failed = n_ops
            out.errors.append(f"service raised {state['error']!r}")
            return out
        jobs = state["workload"].handed
        done = sum(j.iterations_done for j in jobs)
        out.failed = n_ops - done
        starved = len(report["starved_jobs"])
        if starved or report["jobs"]["completed"] != self.JOBS or out.failed:
            out.errors.append(
                f"{report['jobs']['completed']}/{self.JOBS} jobs completed, "
                f"{starved} starved, {done}/{n_ops} iterations done"
            )
        times = [t for j in jobs for t in j.iteration_times_ns]
        if times:
            payload = sum(j.nbytes * self.JOB_HOSTS * j.iterations_done for j in jobs)
            out.sim = _sim_summary(times, report["now_ns"], payload, report["fairness"])
            out.sim["iteration_times_ns"] = times
            out.sim["events"] = state["fabric"].sim.events_processed
        return out

    def harvest(self, state: dict) -> dict:
        fabric, queue = state["fabric"], state["service"].queue
        waits = queue.wait_samples_ns
        return {
            **_network_gauges(fabric.net),
            "service.queue.depth_max": max(queue.depth_samples, default=0),
            "service.queue.wait_p90_us": _pct(waits, 90) / 1e3 if waits else 0.0,
            "fabric.fallbacks": sum(1 for e in fabric.timeline() if e["fell_back"]),
        }

    def close(self, state: dict) -> None:
        if state["report"] is None and state["error"] is None:
            state["fabric"].shutdown()        # set up but never run
        shutil.rmtree(state["db_dir"], ignore_errors=True)


def _network_gauges(net) -> dict:
    traffic = net.traffic
    return {
        "network.retransmits": traffic.retransmits,
        "network.drops": traffic.drops,
        "network.queue_depth_peak": max(net.queue_depth_peaks().values(), default=0),
    }


# ======================================================================
# fabric_storm / fabric_storm_sharded: open loop, cross-rack storm
# ======================================================================
STORM = {"n_hosts": 8192, "hosts_per_leaf": 32, "n_spines": 16, "msgs_per_host": 8}
#: Small storm for the sharded-vs-sequential parity check and warm-up.
PARITY_STORM = {"n_hosts": 512, "hosts_per_leaf": 16, "n_spines": 8, "msgs_per_host": 4}
MSG_BYTES = 4096.0
#: Send schedule: a host's j-th message leaves at ``j * ROUND_NS`` plus
#: a seeded offset in ``[0, JITTER_NS)``.  Rounds are spaced wider than
#: one message's serialization (327.68 ns at 100 Gbit/s), so a host
#: never queues behind its own message, and the offsets are distinct
#: reals, so no two messages reach one link at the same instant.  The
#: two engines order same-instant arrivals differently; this schedule
#: keeps the storms free of such ties, so their results match bitwise.
ROUND_NS, JITTER_NS = 400.0, 64.0


def storm_inputs(cfg: dict, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, send_ns)`` host indices and send times, message
    ``k`` being round ``k % msgs_per_host`` of host ``k // msgs_per_host``.

    Every round is a seeded permutation of the hosts that sends each
    host's message to another rack: racks map through a random cyclic
    derangement, host slots through a random permutation per rack.
    Every host sends and receives ``msgs_per_host`` messages.
    """
    rng = np.random.default_rng([seed, 3, cfg["n_hosts"]])
    n, hpl, m = cfg["n_hosts"], cfg["hosts_per_leaf"], cfg["msgs_per_host"]
    racks = n // hpl
    host = np.arange(n)
    rack, slot = host // hpl, host % hpl
    dst = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        order = rng.permutation(racks)
        to_rack = np.empty(racks, dtype=np.int64)
        to_rack[order] = np.roll(order, -int(rng.integers(1, racks)))
        slots = np.argsort(rng.random((racks, hpl)), axis=1)
        dst[:, j] = to_rack[rack] * hpl + slots[rack, slot]
    src = np.repeat(host, m)
    send = np.tile(np.arange(m), n) * ROUND_NS + rng.uniform(0.0, JITTER_NS, size=n * m)
    return src, dst.reshape(-1), send


def _storm_engine(cfg: dict, workers: int):
    from repro.network import FatTreeTopology
    from repro.pspin.pdes import build_engine

    topo = FatTreeTopology(
        n_hosts=cfg["n_hosts"], hosts_per_leaf=cfg["hosts_per_leaf"],
        n_spines=cfg["n_spines"],
    )
    sim, net = build_engine(
        topo, workers=workers, router="updown", arbitration="fifo",
        coordinator_hosts=False,
    )
    names = topo.hosts
    log: list = []
    for h in names:
        net.on_deliver(h, lambda m, t, h=h: log.append((m.tag[0], h, t)))
    return sim, net, names, log


def _storm_send(net, names, src, dst, send) -> None:
    from repro.network import Message

    for k, (s, d, t) in enumerate(zip(src.tolist(), dst.tolist(), send.tolist())):
        net.send(Message(names[s], names[d], MSG_BYTES, tag=(k,)), at=t)


def _shutdown(net) -> None:
    stop = getattr(net, "shutdown", None)
    if stop is not None:
        stop()


def run_small_storm(cfg: dict, seed: int, workers: int) -> dict:
    """Run a storm to completion; full arrival log and per-link bytes."""
    src, dst, send = storm_inputs(cfg, seed)
    sim, net, names, log = _storm_engine(cfg, workers)
    try:
        _storm_send(net, names, src, dst, send)
        sim.run()
    finally:
        _shutdown(net)
    return {
        "arrivals": sorted(log),
        "per_link": dict(net.traffic.per_link),
        "now": sim.now,
        "events": sim.events_processed,
    }


class FabricStorm:
    """Cross-rack transport storm on an 8,192-host fat tree.

    ``build_engine(workers=0)`` for ``fabric_storm``; ``workers=1`` (one
    shard worker beside the coordinator) for ``fabric_storm_sharded``.
    65,536 messages of 4 KiB, four links each: 327,680 events.
    """

    def __init__(self, seed: int, workers: int) -> None:
        self.name = "fabric_storm_sharded" if workers else "fabric_storm"
        self.workers = workers
        self.seed = seed
        self.src, self.dst, self.send = storm_inputs(STORM, seed)
        self.n_msgs = self.src.size

    def warmup(self) -> list:
        """Run the small parity storm; on the sharded engine, also on the
        sequential one, and require arrivals, per-link bytes, final time
        and event count to match bitwise."""
        got = run_small_storm(PARITY_STORM, self.seed, self.workers)
        if not self.workers:
            return []
        ref = run_small_storm(PARITY_STORM, self.seed, 0)
        return [
            f"parity storm: sharded {key} differs from the sequential engine"
            for key in ("arrivals", "per_link", "now", "events")
            if got[key] != ref[key]
        ]

    def setup(self) -> dict:
        sim, net, names, log = _storm_engine(STORM, self.workers)
        return {"sim": sim, "net": net, "names": names, "log": log, "error": None}

    def run(self, state: dict) -> None:
        sim, net = state["sim"], state["net"]
        try:
            _storm_send(net, state["names"], self.src, self.dst, self.send)
            sim.run()
        except Exception as exc:              # counted as failed ops
            state["error"] = exc
        finally:
            _shutdown(net)

    def check(self, state: dict) -> Pass:
        out = Pass(ops=self.n_msgs, failed=0)
        if state["error"] is not None:
            out.failed = self.n_msgs
            out.errors.append(f"storm raised {state['error']!r}")
            return out
        sim, net, names, log = state["sim"], state["net"], state["names"], state["log"]
        arrival = np.full(self.n_msgs, np.nan)
        wrong = 0
        for k, h, t in log:
            if h != names[self.dst[k]] or not np.isnan(arrival[k]):
                wrong += 1
            arrival[k] = t
        lost = int(np.isnan(arrival).sum())
        out.failed = min(self.n_msgs, lost + wrong)
        if lost or wrong:
            out.errors.append(f"{lost} messages lost, {wrong} misdelivered or duplicated")
        hops = 4 * MSG_BYTES * self.n_msgs
        if net.traffic.bytes_hops != hops:
            out.errors.append(f"link bytes {net.traffic.bytes_hops} != {hops}")
            out.failed = self.n_msgs
        if self.workers and not hasattr(net, "remote_events"):
            out.errors.append("build_engine fell back to the sequential engine")
            out.failed = self.n_msgs
        ok = ~np.isnan(arrival)
        latency = arrival[ok] - self.send[ok]
        if latency.size:
            per_src_bytes = np.bincount(self.src[ok], minlength=STORM["n_hosts"]) * MSG_BYTES
            per_src_ns = np.bincount(self.src[ok], weights=latency, minlength=STORM["n_hosts"])
            rate = np.divide(per_src_bytes, per_src_ns, out=np.zeros_like(per_src_ns), where=per_src_ns > 0)
            out.sim = _sim_summary(latency, sim.now, MSG_BYTES * latency.size, _jain(rate))
            out.sim["arrival_ns"] = arrival.tolist()
            out.sim["events"] = sim.events_processed
        return out

    def harvest(self, state: dict) -> dict:
        net = state["net"]
        gauges = _network_gauges(net)
        remote = getattr(net, "remote_events", None)
        gauges["shard.remote_events"] = remote() if remote is not None else 0
        gauges["shard.recalls"] = sum(
            1 for d in getattr(net, "degradations", ()) if d.get("event") == "recall"
        )
        return gauges

    def close(self, state: dict) -> None:
        state["log"].clear()


def make_workload(name: str, seed: int, out_dir: str):
    if name == "switch_aggregate":
        return SwitchAggregate(seed)
    if name == "tenant_service":
        return TenantService(seed, out_dir)
    if name == "fabric_storm":
        return FabricStorm(seed, workers=0)
    if name == "fabric_storm_sharded":
        return FabricStorm(seed, workers=1)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("switch_aggregate", "tenant_service", "fabric_storm", "fabric_storm_sharded")

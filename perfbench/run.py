"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload switch_aggregate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

``--trace 0`` measures the end-to-end metrics with every layer entry
point untouched (checked before and after).  ``--trace 1`` measures
the same workload untraced, then again with the layer wrappers of
``perfbench/layers.py`` installed, and reports the per-layer metrics,
per pass, plus the tracing overhead.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the full record
(host, per-pass figures, errors) goes to ``perfbench/out/``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from calibrate import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: A phase stops starting passes after this many wall seconds, so a
#: traced run (two phases) ends inside 180 s even on a host running at
#: a third of its usual speed.
PHASE_CAP_S = 50.0
#: A pass sets up at least this many times and until its set-ups took
#: :data:`SETUP_MIN_S`, then runs on the last set-up; ``setup_s`` is the
#: median over all set-ups, so a set-up of a few milliseconds is sampled
#: tens of times per pass.
SETUP_REPEATS = 2
SETUP_MIN_S = 0.25

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "host_op_p50_ms": "ms",
    "host_op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_op_p50_us": "us",
    "sim_op_p90_us": "us",
    "sim_makespan_us": "us",
    "sim_goodput_gbps": "Gbit/s",
    "fairness": "index",
    "ok_ratio": "ratio",
}
SIM_KEYS = ("sim_op_p50_us", "sim_op_p90_us", "sim_makespan_us", "sim_goodput_gbps", "fairness")


def host_record() -> dict:
    from repro.provenance.identity import git_state

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **git_state(ROOT),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _public_sim(sim: dict) -> dict:
    return {k: sim[k] for k in SIM_KEYS if k in sim}


def measure(wl, seconds: float, probe, trace=None) -> dict:
    """Repeat set-up + timed pass + check until ``seconds`` of timed
    work have run (at least two passes).  Each pass sets up as
    :data:`SETUP_REPEATS` and :data:`SETUP_MIN_S` say and runs on the
    last set-up.  With a ``trace``, the layer wrappers are installed for
    the timed region only, so set-up and checks add no spans.

    Every set-up and every pass starts from a collected heap.  ``probe``
    samples the host's speed through set-up and run (``calibrate.py``):
    inside them on untraced passes, around them on traced ones.  Each
    pass records its timed seconds outside the slices (``walls``), and
    its set-up and timed seconds and the host seconds of each blocking
    call the workload reports at the reference host's speed
    (:meth:`SpeedProbe.nominal_s`), and its mean slowdown factor."""
    setups, walls, nominal, factors, passes, op_s = [], [], [], [], [], []
    started = perf_counter()
    while True:
        gc.collect()
        probe.reset()
        intervals = []
        with probe.sampling(interrupt=trace is None):
            while True:
                t0 = perf_counter()
                state = wl.setup()
                intervals.append((t0, perf_counter()))
                if (len(intervals) >= SETUP_REPEATS
                        and sum(e - s for s, e in intervals) >= SETUP_MIN_S):
                    break
                wl.close(state)
                gc.collect()
            state["trace"] = trace
            try:
                if trace is not None:
                    trace.op = trace.next_op()
                    trace.install()
                try:
                    t2 = perf_counter()
                    wl.run(state)
                    t3 = perf_counter()
                finally:
                    if trace is not None:
                        trace.restore()
            except BaseException:
                wl.close(state)
                raise
        try:
            checked = wl.check(state)
            gauges = wl.harvest(state) if trace is not None else {}
        finally:
            wl.close(state)
            state = None
        setups += [probe.nominal_s(s, e) for s, e in intervals]
        walls.append(probe.program_s(t2, t3))
        nominal.append(probe.nominal_s(t2, t3))
        factors.append(probe.factor())
        op_s.append([probe.nominal_s(s, e) for s, e in checked.host_spans])
        passes.append((checked, gauges))
        if len(passes) >= 2 and (sum(walls) >= seconds or perf_counter() - started > PHASE_CAP_S):
            break
    return {"setups": setups, "walls": walls, "nominal": nominal, "factors": factors,
            "op_s": op_s, "passes": passes}


def e2e_metrics(phase: dict) -> tuple[dict, dict]:
    """End-to-end metrics of one phase, plus attempt accounting.

    Host times are at the reference host's speed; the median over
    passes is reported, so a burst of outside load that the speed
    samples miss moves one pass, not the figure."""
    passes = [p for p, _ in phase["passes"]]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    sims = [p.sim for p in passes]
    if any(s != sims[0] for s in sims[1:]):
        errors.append("simulated results differ between passes of one seed")
        failed = attempted
    rates = [(p.ops - p.failed) / t for p, t in zip(passes, phase["nominal"])]
    if all(phase["op_s"]):
        # Closed loop: every pass makes the same calls in the same order,
        # so each call's host time is its median over the passes (a burst
        # of outside load moves one pass only), and the percentiles are
        # taken over the calls.
        per_op_ms = [np.median(np.asarray(phase["op_s"]), axis=0) * 1e3]
        p50, p90 = (float(np.percentile(per_op_ms[0], q)) for q in (50, 90))
    else:
        # Open loop: percentiles over passes of each pass's host time
        # per op.
        per_op_ms = [np.asarray([t / p.ops * 1e3]) for p, t in zip(passes, phase["nominal"])]
        p50, p90 = (float(np.percentile(np.concatenate(per_op_ms), q)) for q in (50, 90))
    metrics = {
        "ops_per_s": statistics.median(rates),
        "host_op_p50_ms": p50,
        "host_op_p90_ms": p90,
        "setup_s": statistics.median(phase["setups"]),
        "peak_rss_mb": peak_rss_mb(),
        **_public_sim(sims[0]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    missing = [k for k in E2E_UNITS if k not in metrics]
    if missing:
        errors.append(f"no simulated results: {missing}")
    account = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": len(passes),
        "host_op_samples": sum(x.size for x in per_op_ms),
        "timed_s": sum(phase["walls"]),
        "raw_ops_per_s": statistics.median(
            (p.ops - p.failed) / w for p, w in zip(passes, phase["walls"])
        ),
        "slowdown_factor": statistics.median(phase["factors"]),
    }
    return metrics, account


#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "pspin.packets": "count",
    "pspin.fastpath.packet_ratio": "ratio",
    "pspin.fastpath.aborts": "count",
    "pspin.train.s": "s",
    "pspin.des.s": "s",
    "pspin.deferred_arrivals": "count",
    "core.verify.s": "s",
    "sparse.allreduce.s": "s",
    "sparse.infeasible": "count",
    "network.send.calls": "count",
    "network.route.calls": "count",
    "network.route.s": "s",
    "network.transmit.calls": "count",
    "network.transmit.s": "s",
    "network.retransmits": "count",
    "network.drops": "count",
    "network.queue_depth_peak": "count",
    "engine.events": "count",
    "engine.run.self_s": "s",
    "engine.events_per_s": "1/s",
    "shard.advance.calls": "count",
    "shard.advance.s": "s",
    "shard.remote_events": "count",
    "shard.recalls": "count",
    "service.queue.push": "count",
    "service.queue.pop.calls": "count",
    "service.queue.pop.s": "s",
    "service.queue.pop.self_s": "s",
    "service.queue.depth_max": "count",
    "service.queue.wait_p90_us": "us",
    "service.place.calls": "count",
    "service.place.s": "s",
    "core.admit.calls": "count",
    "core.admit.rejects": "count",
    "comm.allreduce.self_s": "s",
    "comm.plan.calls": "count",
    "comm.plan.self_s": "s",
    "comm.plan_cache.hit_ratio": "ratio",
    "comm.plan_cache.hits": "count",
    "comm.plan_cache.lookups": "count",
    "comm.plans_built": "count",
    "comm.build.s": "s",
    "collectives.execute.calls": "count",
    "collectives.execute.self_s": "s",
    "fabric.issue.calls": "count",
    "fabric.issue.self_s": "s",
    "fabric.run.s": "s",
    "fabric.fallbacks": "count",
    "collectives.issue.calls": "count",
    "collectives.issue.self_s": "s",
    "provenance.flush.calls": "count",
    "provenance.flush.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}
#: Gauges harvested per pass that report a maximum, not a per-pass sum.
MAX_GAUGES = ("network.queue_depth_peak", "service.queue.depth_max", "service.queue.wait_p90_us")


def layer_metrics(tr, phase: dict, untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer metrics of the traced phase, per pass.  Seconds are
    divided by the phase's median slowdown factor, like the end-to-end
    host times.  The tracing overhead compares the two phases' rates in
    program seconds, not normalized: the phases sample the host's speed
    in different ways (inside the passes and around them), which would
    show as overhead."""
    n = len(phase["passes"])
    k = statistics.median(phase["factors"])
    counts = dict(tr.counts)
    for _, gauges in phase["passes"]:
        for key, value in gauges.items():
            if key in MAX_GAUGES:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def per_pass(key: str) -> float:
        value = counts.get(key, 0)
        return value if key in MAX_GAUGES else value / n

    def span(name: str) -> tuple[float, float, float]:
        calls, total, own = tr.totals(name)
        return calls / n, total / 1e9 / n / k, own / 1e9 / n / k

    def acc(name: str) -> tuple[float, float]:
        calls, ns = tr.acc.get(name, (0, 0))[:2]
        return calls / n, ns / 1e9 / n / k

    out = {}
    offered = counts.get("pspin.train.offered", 0)
    out["pspin.packets"] = per_pass("pspin.packets")
    out["pspin.fastpath.packet_ratio"] = counts.get("pspin.train.settled", 0) / offered if offered else 0.0
    out["pspin.fastpath.aborts"] = per_pass("pspin.fastpath.aborts")
    out["pspin.train.s"] = span("pspin.train")[1]
    out["pspin.des.s"] = span("pspin.des")[1]
    out["pspin.deferred_arrivals"] = per_pass("pspin.deferred_arrivals")
    out["core.verify.s"] = span("core.verify")[1]
    out["sparse.allreduce.s"] = span("sparse.allreduce")[1]
    out["sparse.infeasible"] = per_pass("sparse.infeasible")
    out["network.send.calls"], _ = acc("network.send")
    out["network.route.calls"], out["network.route.s"] = acc("network.route")
    out["network.transmit.calls"], out["network.transmit.s"] = acc("network.transmit")
    for key in ("network.retransmits", "network.drops", "network.queue_depth_peak"):
        out[key] = per_pass(key)
    _, engine_s, engine_self = span("engine.run")
    out["engine.events"] = per_pass("engine.events")
    out["engine.run.self_s"] = engine_self
    out["engine.events_per_s"] = out["engine.events"] / engine_s if engine_s else 0.0
    out["shard.advance.calls"], out["shard.advance.s"], _ = span("shard.advance")
    out["shard.remote_events"] = per_pass("shard.remote_events")
    out["shard.recalls"] = per_pass("shard.recalls")
    out["service.queue.push"] = per_pass("service.queue.push.calls")
    (out["service.queue.pop.calls"], out["service.queue.pop.s"],
     out["service.queue.pop.self_s"]) = span("service.queue.pop")
    out["service.queue.depth_max"] = per_pass("service.queue.depth_max")
    out["service.queue.wait_p90_us"] = per_pass("service.queue.wait_p90_us")
    out["service.place.calls"], out["service.place.s"], _ = span("service.place")
    out["core.admit.calls"] = per_pass("core.admit.calls")
    out["core.admit.rejects"] = per_pass("core.admit.rejects")
    out["comm.allreduce.self_s"] = span("comm.allreduce")[2]
    out["comm.plan.calls"], _, out["comm.plan.self_s"] = span("comm.plan")
    lookups = counts.get("comm.plan_cache.lookups", 0)
    out["comm.plan_cache.hit_ratio"] = counts.get("comm.plan_cache.hits", 0) / lookups if lookups else 0.0
    out["comm.plan_cache.hits"] = per_pass("comm.plan_cache.hits")
    out["comm.plan_cache.lookups"] = per_pass("comm.plan_cache.lookups")
    out["comm.plans_built"], out["comm.build.s"], _ = span("comm.build")
    out["collectives.execute.calls"], _, out["collectives.execute.self_s"] = span("collectives.execute")
    out["fabric.issue.calls"], _, out["fabric.issue.self_s"] = span("fabric.issue")
    out["fabric.run.s"] = span("fabric.run")[1]
    out["fabric.fallbacks"] = per_pass("fabric.fallbacks")
    out["collectives.issue.calls"], _, out["collectives.issue.self_s"] = span("collectives.issue")
    out["provenance.flush.calls"], out["provenance.flush.s"], _ = span("provenance.flush")
    timed = sum(phase["walls"])
    unattributed = max(0.0, timed - tr.top_ns / 1e9)
    out["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0
    out["trace.unattributed_s"] = unattributed / n / k
    out["trace.unattributed_share"] = unattributed / timed
    out["trace.spans"] = len(tr.spans) / n
    return out


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no simulator sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from layers import LayerTrace, assert_pristine
    from workloads import make_workload

    os.makedirs(OUT_DIR, exist_ok=True)
    t_gen = perf_counter()
    wl = make_workload(name, seed, OUT_DIR)
    gen_s = perf_counter() - t_gen
    errors = wl.warmup()

    probe = SpeedProbe()
    # The inputs and the probe's table live for the whole run; frozen,
    # the collector does not scan them while the program runs.
    gc.collect()
    gc.freeze()

    assert_pristine()
    untraced = measure(wl, seconds, probe)
    assert_pristine()
    metrics, account = e2e_metrics(untraced)
    account["errors"] = errors + account["errors"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": host_record(),
        "input_generation_s": gen_s,
        "e2e": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "account": account,
        "per_pass": {
            "setup_s": untraced["setups"],
            "timed_s": untraced["walls"],
            "nominal_timed_s": untraced["nominal"],
            "slowdown": untraced["factors"],
        },
    }
    result_metrics = record["e2e"]
    attempted, failed = account["attempted"], account["failed"]
    if traced:
        tr = LayerTrace()
        phase = measure(wl, seconds, probe, trace=tr)
        traced_e2e, traced_account = e2e_metrics(phase)
        layer = layer_metrics(tr, phase, account["raw_ops_per_s"],
                              traced_account["raw_ops_per_s"])
        sims = [_public_sim(p.sim) for p, _ in phase["passes"]]
        if sims[0] != _public_sim(untraced["passes"][0][0].sim):
            traced_account["errors"].append("tracing changed the simulated results")
            traced_account["failed"] = traced_account["attempted"]
        account["errors"] += traced_account["errors"]
        attempted += traced_account["attempted"]
        failed += traced_account["failed"]
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        tr.dump(spans_path)
        record["traced_e2e"] = traced_e2e
        record["per_layer"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        result_metrics = record["per_layer"]

    correct = not account["errors"] and failed == 0
    record["correct"] = correct
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    host = record["host"]
    print(f"# host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"git={host['git_sha']} dirty={host['git_dirty']} ({host['platform']})")
    print(f"# {name} seed={seed}: {account['passes']} passes, {attempted} ops attempted, "
          f"{failed} failed, {account['host_op_samples']} host-time samples")
    print(f"# host speed: median slowdown {account['slowdown_factor']:.4g} against the reference "
          f"host; un-normalized ops_per_s {account['raw_ops_per_s']:.6g} 1/s")
    for err in account["errors"][:20]:
        print(f"# ERROR {err}")
    for key, item in record["e2e"].items():
        print(f"# e2e {key} = {item['value']:.6g} {item['unit']}")
    for key, item in record.get("per_layer", {}).items():
        print(f"# layer {key} = {item['value']:.6g} {item['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())

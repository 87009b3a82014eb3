"""Layer tracing applied from outside the program.

The benchmark measures the simulator without editing it: for a traced
run, :class:`LayerTrace` replaces the public entry points of each layer
(classes and module functions of ``repro``) with thin wrappers, and
:meth:`LayerTrace.restore` puts the originals back.  Untraced runs call
:func:`assert_pristine` so their numbers never carry tracing cost.

Wrapper kinds:

* **span** -- one record per call: name, start, end, parent span, and
  the op id run.py set for the op in progress.  A span's
  self time is its duration minus the time of its child spans and of
  the accumulators that ran inside it.  An **engine** span wraps an
  event loop and also counts the events it processed.
* **accumulator** -- per-hop functions (routing, link transmit, send)
  add a call count and elapsed time to one cell per name instead of
  recording a span per call.  Their time still counts as child time
  of the enclosing span.
* **counter** -- counts calls (and whatever the hook reads off the
  arguments and result) without taking time; the **cache** counter
  also reads the plan cache's hit count around the lookup.

Spans stay in memory; :meth:`LayerTrace.dump` writes them when the run
ends.  Work inside forked shard workers is not visible from here.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

_MARK = "__perfbench_layer__"

# Span record fields.
NAME, START, END, PARENT, OP, CHILD = range(6)


def _hook_inject_train(tr, args, result):
    switch, train = args[0], args[1]
    n = train.n_packets
    tr.counts["pspin.train.offered"] += n
    if result:
        tr.counts["pspin.train.settled"] += n
    elif switch.config.fast_path:
        tr.counts["pspin.fastpath.aborts"] += 1


def _hook_switch_run(tr, args, result):
    tel = args[0].telemetry
    tr.counts["pspin.packets"] += tel.packets_in.value
    tr.counts["pspin.deferred_arrivals"] += tel.deferred_arrivals.value


def _hook_sparse(tr, args, result):
    if result.feasible is False:
        tr.counts["sparse.infeasible"] += 1


def _hook_admit_check(tr, args, result):
    if result is not None:
        tr.counts["core.admit.rejects"] += 1


def _hook_plan_cache(tr, args, result, hits_before):
    tr.counts["comm.plan_cache.lookups"] += 1
    tr.counts["comm.plan_cache.hits"] += args[0].hits - hits_before


#: (module, class or None, attribute, kind, layer name, hook).  Module
#: functions are also replaced wherever another ``repro`` module
#: imported them by name.
SPECS = (
    # comm / collectives / fabric
    ("repro.comm.communicator", "Communicator", "allreduce", "span", "comm.allreduce", None),
    ("repro.comm.communicator", "Communicator", "plan", "span", "comm.plan", None),
    ("repro.comm.plan", None, "build_plan", "span", "comm.build", None),
    ("repro.comm.plan", "PlanCache", "get_or_build", "cache", "comm.plan_cache", _hook_plan_cache),
    ("repro.comm.plan", "CollectivePlan", "execute", "span", "collectives.execute", None),
    ("repro.comm.plan", "CollectivePlan", "issue", "span", "collectives.issue", None),
    ("repro.comm.fabric", "Fabric", "issue", "span", "fabric.issue", None),
    ("repro.comm.fabric", "Fabric", "run", "span", "fabric.run", None),
    ("repro.core.manager", "NetworkManager", "check", "count", "core.admit", _hook_admit_check),
    # pspin / core / sparse
    ("repro.pspin.switch", "PsPINSwitch", "inject_train", "count", "pspin.inject_train", _hook_inject_train),
    ("repro.pspin.train", None, "try_run_train", "span", "pspin.train", None),
    ("repro.pspin.switch", "PsPINSwitch", "run", "span", "pspin.des", _hook_switch_run),
    ("repro.core.allreduce", None, "_verify_outputs", "span", "core.verify", None),
    ("repro.sparse.allreduce", None, "_run_sparse_switch_allreduce", "span", "sparse.allreduce", _hook_sparse),
    # engine / network / shard
    ("repro.pspin.engine", "Simulator", "run", "engine", "engine.run", None),
    ("repro.pspin.engine", "Simulator", "run_stoppable", "engine", "engine.run", None),
    ("repro.pspin.pdes", "ShardedSimulator", "run", "engine", "engine.run", None),
    ("repro.pspin.pdes", "ShardedSimulator", "run_stoppable", "engine", "engine.run", None),
    ("repro.network.simulator", "NetworkSimulator", "send", "acc", "network.send", None),
    ("repro.network.simulator", "NetworkSimulator", "send_burst", "acc", "network.send", None),
    ("repro.network.routing", "Router", "next_hop", "acc", "network.route", None),
    ("repro.network.links", "Link", "transmit", "acc", "network.transmit", None),
    ("repro.network.parallel", "ShardedNetworkSimulator", "advance", "span", "shard.advance", None),
    # service
    ("repro.service.engine", "FabricService", "run", "span", "service.run", None),
    ("repro.service.queueing", "AdmissionQueue", "push", "count", "service.queue.push", None),
    ("repro.service.queueing", "AdmissionQueue", "pop_admittable", "span", "service.queue.pop", None),
    ("repro.service.scheduler", "JobScheduler", "place", "span", "service.place", None),
    # provenance
    ("repro.provenance.recorder", "ProvenanceRecorder", "flush", "span", "provenance.flush", None),
    ("repro.provenance.recorder", "ProvenanceRecorder", "tick", "span", "provenance.flush", None),
)


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _aliases(module: str, attr: str, original) -> list:
    """Other ``repro`` modules holding ``original`` under ``attr``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == module or not name.startswith("repro") or mod is None:
            continue
        if getattr(mod, attr, None) is original:
            out.append(mod)
    return out


def assert_pristine() -> None:
    """Raise unless every traced entry point is the program's own.

    Untraced runs call this before and after measuring, so their
    numbers never include a wrapper's cost."""
    for module, cls, attr, *_ in SPECS:
        owner = _owner(module, cls)
        if getattr(vars(owner).get(attr), _MARK, False):
            raise RuntimeError(f"{module}.{cls or ''}.{attr} is still wrapped")
        if cls is None:
            for mod in list(sys.modules.values()):
                if (
                    mod is not None
                    and getattr(mod, "__name__", "").startswith("repro")
                    and getattr(getattr(mod, attr, None), _MARK, False)
                ):
                    raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")


class LayerTrace:
    """Spans, accumulators and counts for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Op id stamped on every span opened while it is set.
        self.op = 0
        self._last_op = 0
        #: name -> [calls, ns] for accumulators.
        self.acc: dict[str, list] = {}
        self.counts: defaultdict[str, float] = defaultdict(int)
        #: ns spent inside root-level spans and accumulators.
        self.top_ns = 0
        self._engines: set[int] = set()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def next_op(self) -> int:
        """A fresh op id (run.py stamps one per op or per pass)."""
        self._last_op += 1
        return self._last_op

    # ------------------------------------------------------------------
    def _span(self, name: str, fn, hook):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack
        tr = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [nid, 0, 0, parent, tr.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = t1 = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0
                else:
                    tr.top_ns += t1 - t0
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    def _engine(self, name: str, fn):
        """Span around an event loop, once per simulator: a nested run
        of the same simulator (a subclass delegating to its base) is
        part of the outer span, and the events it processed count
        once."""
        inner = self._span(name, fn, None)
        active = self._engines
        tr = self

        def wrapper(sim, *args, **kwargs):
            key = id(sim)
            if key in active:
                return fn(sim, *args, **kwargs)
            active.add(key)
            before = sim.events_processed
            try:
                return inner(sim, *args, **kwargs)
            finally:
                active.discard(key)
                tr.counts["engine.events"] += sim.events_processed - before

        return wrapper

    def _acc(self, name: str, fn):
        cell = self.acc.setdefault(name, [0, 0, False])
        spans, stack = self.spans, self.stack
        tr = self

        def wrapper(*args, **kwargs):
            if cell[2]:                      # re-entered (burst -> send)
                return fn(*args, **kwargs)
            cell[2] = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                cell[2] = False
                cell[0] += 1
                cell[1] += d
                if stack:
                    spans[stack[-1]][CHILD] += d
                else:
                    tr.top_ns += d

        return wrapper

    def _counter(self, name: str, fn, hook):
        tr = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tr.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    def _cache(self, name: str, fn, hook):
        tr = self

        def wrapper(cache, *args, **kwargs):
            hits = cache.hits
            result = fn(cache, *args, **kwargs)
            hook(tr, (cache,) + args, result, hits)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point in :data:`SPECS` with its wrapper."""
        assert_pristine()
        for module, cls, attr, kind, name, hook in SPECS:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            if kind == "span":
                wrapper = self._span(name, original, hook)
            elif kind == "engine":
                wrapper = self._engine(name, original)
            elif kind == "acc":
                wrapper = self._acc(name, original)
            elif kind == "count":
                wrapper = self._counter(name, original, hook)
            else:
                wrapper = self._cache(name, original, hook)
            functools.update_wrapper(wrapper, original)
            setattr(wrapper, _MARK, True)
            targets = [owner] + (_aliases(module, attr, original) if cls is None else [])
            for target in targets:
                setattr(target, attr, wrapper)
                self._patched.append((target, attr, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)
        assert_pristine()

    # ------------------------------------------------------------------
    def totals(self, name: str) -> tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` of every span named ``name``."""
        nid = self._name_ids.get(name)
        calls = total = own = 0
        if nid is None:
            return 0, 0, 0
        for rec in self.spans:
            if rec[NAME] == nid:
                d = rec[END] - rec[START]
                calls += 1
                total += d
                own += d - rec[CHILD]
        return calls, total, own

    def dump(self, path: str) -> None:
        """Write spans, accumulators and counts as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns"],
                    "names": self.names,
                    "spans": self.spans,
                    "accumulators": {k: v[:2] for k, v in self.acc.items()},
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )

"""Engine backends: per-event DES vs window-vectorized conservative PDES.

This module is the seam that lets the fabric (and the bench harness)
pick an engine without any caller-visible API change:
``build_engine(topology, workers=N, ...)`` returns a ``(sim, net)``
pair.

* ``workers >= 1`` partitions the fabric (``repro.network.shard``),
  forks that many worker processes behind the window-synchronized
  coordinator (``repro.network.parallel``), and returns a
  :class:`ShardedSimulator` whose ``run``/``run_stoppable``/``step``
  drive the PDES barrier protocol.
* ``workers=0`` (the default) forks nothing.  A FIFO fabric under a
  cacheable routing policy still gets the window engine: its one shard
  runs *in the coordinator process* behind the same barrier protocol,
  because window vectorization, not parallelism, is where the
  sharded engine's speed comes from.  Everything else — WFQ
  arbitration (every ``Fabric`` by default), adaptive routing, a
  topology with no shard plan — gets the classic per-event pair.

Either way every existing driver loop (``Fabric.run_until``, service
engine, benches) works unchanged.  :func:`sequential_engine` always
builds the per-event pair: it is the parity oracle every engine is
checked against bitwise.  DESIGN.md ("Engines: one per-event oracle,
one window engine") records why.

Synchronization strategies are pluggable via ``SYNC_STRATEGIES``
(currently ``"window"``: conservative time-stepping with the fabric's
minimum link latency as lookahead; null-message CMB is a documented
extension point).  Any reason requested workers cannot engage — no
clean cut, more workers than edge switches, a non-cacheable routing
policy — degrades *gracefully*: a ``RuntimeWarning`` and the per-event
engine, never an error.  The in-process engine was never asked for, so
its own disengagements (interceptors, armed faults) are silent and
only recorded in ``net.degradations``.

Conservative window protocol (coordinator side)
-----------------------------------------------
The coordinator owns the driver loop.  Each barrier it computes the
global minimum next-event time ``T0`` (its own heap, worker-advertised
next events, undelivered cross-shard batches) and grants everyone the
window ``[T0, T0 + lookahead)``.  Any message generated at ``t >= T0``
reaches another shard no earlier than ``t + lookahead``, so every
event strictly inside the window is safe to execute without further
coordination — the classic lookahead argument, with the window length
fixed at exactly the lookahead.  When all workers are idle the
coordinator *free-runs* its local heap (no barriers) until it next
offloads work across a shard boundary — the dynamic ``local_bound``
below — which makes coordinator-heavy phases (plan execution, service
callbacks) cost nothing extra.
"""

from __future__ import annotations

import math
import warnings

from repro.pspin.engine import _ARGS, _CALLBACK, _TIME, Simulator

try:  # pragma: no cover - trivial import guard
    from heapq import heappop
except ImportError:  # pragma: no cover
    raise


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` that interleaves local execution with
    PDES window barriers run by an attached coupler (the sharded
    network simulator).

    Uncoupled — or after the coupler disengages (fault recall, worker
    shutdown) — it behaves exactly like the sequential engine.
    """

    def __init__(self) -> None:
        super().__init__()
        self._coupler = None
        #: Granted local window bound (exclusive); persists across
        #: ``stop_requested`` interruptions so a window resumes rather
        #: than re-barriers.
        self._window_stop: float | None = None
        #: Dynamic bound during free-run: earliest timestamp offloaded
        #: across a shard boundary.  Events at or past it need a
        #: barrier first.
        self.local_bound: float = math.inf

    def attach_coupler(self, coupler) -> None:
        self._coupler = coupler

    # ------------------------------------------------------------------
    # Local window execution
    # ------------------------------------------------------------------
    def _run_local(self, stop: float, stoppable: bool) -> bool:
        """Run events with ``time < min(stop, local_bound)``; returns
        True iff interrupted by ``stop_requested``."""
        heap = self._heap
        processed = 0
        stopped = False
        while heap:
            entry = heap[0]
            if entry[_CALLBACK] is None:
                heappop(heap)
                continue
            t = entry[_TIME]
            if t >= stop or t >= self.local_bound:
                break
            heappop(heap)
            self.now = t
            entry[_CALLBACK](*entry[_ARGS])
            processed += 1
            if stoppable and self.stop_requested:
                stopped = True
                break
        self._events_processed += processed
        return stopped

    # ------------------------------------------------------------------
    # Driver API overrides
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        c = self._coupler
        if c is None or not c.engaged:
            return super().run(until)
        while True:
            if self._window_stop is not None:
                self._run_local(self._window_stop, stoppable=False)
                self._window_stop = None
            if not c.engaged:
                return super().run(until)
            nxt = c.advance(until)
            if not c.engaged:
                return super().run(until)
            if nxt is None:
                break
            self._window_stop = nxt
        if until is not None and until > self.now:
            self.now = until

    def run_stoppable(self) -> bool:
        c = self._coupler
        if c is None or not c.engaged:
            return super().run_stoppable()
        self.stop_requested = False
        while True:
            if self._window_stop is not None:
                if self._run_local(self._window_stop, stoppable=True):
                    return True
                self._window_stop = None
            if not c.engaged:
                return super().run_stoppable()
            nxt = c.advance(None)
            if not c.engaged:
                return super().run_stoppable()
            if nxt is None:
                return False
            self._window_stop = nxt

    def step(self) -> bool:
        c = self._coupler
        if c is None or not c.engaged:
            return super().step()
        while True:
            if self._window_stop is not None:
                t = self.peek_time()
                if t is not None and t < self._window_stop and t < self.local_bound:
                    return super().step()
                self._window_stop = None
            if not c.engaged:
                return super().step()
            nxt = c.advance(None)
            if not c.engaged:
                return super().step()
            if nxt is None:
                return False
            self._window_stop = nxt

    # ------------------------------------------------------------------
    # Introspection (merged across shards)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        local = super().pending
        c = self._coupler
        if c is None or not c.engaged:
            return local
        return local + c.remote_pending()

    @property
    def events_processed(self) -> int:
        c = self._coupler
        extra = c.remote_events() if c is not None else 0
        return self._events_processed + extra


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def sequential_engine(
    topology, router=None, routing_seed: int = 0, arbitration: str = "wfq"
):
    """The classic per-event ``(Simulator, NetworkSimulator)`` pair.

    The parity oracle: every other engine must reproduce its results
    bitwise, so tests and benches build their references here rather
    than through :func:`build_engine` (which may pick a window engine
    even for ``workers=0``).
    """
    from repro.network.simulator import NetworkSimulator

    sim = Simulator()
    net = NetworkSimulator(
        topology, router=router, routing_seed=routing_seed,
        sim=sim, arbitration=arbitration,
    )
    return sim, net


def _window_backend(
    topology, router, routing_seed, arbitration, workers, coordinator_hosts
):
    from repro.network.parallel import ShardedNetworkSimulator
    from repro.network.routing import build_router
    from repro.network.shard import ShardingError, plan_shards

    policy = build_router(router, topology, seed=routing_seed)
    if not policy.cacheable:
        raise ShardingError(
            f"routing policy {policy.name!r} consults live cross-shard link "
            "state and cannot be partitioned"
        )
    plan = plan_shards(topology, workers, coordinator_hosts=coordinator_hosts)
    sim = ShardedSimulator()
    net = ShardedNetworkSimulator(
        topology,
        router=policy,
        routing_seed=routing_seed,
        sim=sim,
        arbitration=arbitration,
        plan=plan,
    )
    return sim, net


def _in_process_backend(
    topology, router, routing_seed, arbitration, coordinator_hosts
):
    """The window engine with its one shard in this process, or the
    per-event pair when the fabric cannot use it.  Planning is deferred
    to the first barrier: at scale it costs more than building the
    rest of the engine."""
    from repro.network.routing import build_router

    policy = build_router(router, topology, seed=routing_seed)
    if arbitration != "fifo" or not policy.cacheable:
        return sequential_engine(topology, policy, routing_seed, arbitration)
    # Imported only here: a per-event run never loads the window engine.
    from repro.network.parallel import ShardedNetworkSimulator
    from repro.network.shard import plan_obstacle

    if plan_obstacle(topology) is not None:
        return sequential_engine(topology, policy, routing_seed, arbitration)
    sim = ShardedSimulator()
    net = ShardedNetworkSimulator(
        topology,
        router=policy,
        routing_seed=routing_seed,
        sim=sim,
        arbitration=arbitration,
        in_process=True,
        coordinator_hosts=coordinator_hosts,
    )
    return sim, net


#: Pluggable conservative-sync strategies for the sharded engine.
#: ``"window"`` is lookahead-wide time-stepping; null-message CMB would
#: register here.
SYNC_STRATEGIES = {"window": _window_backend}


def build_engine(
    topology,
    workers: int = 0,
    router=None,
    routing_seed: int = 0,
    arbitration: str = "wfq",
    coordinator_hosts: bool = True,
    sync: str = "window",
):
    """Build a ``(sim, net)`` engine pair.

    ``workers`` counts worker *processes*.  ``workers >= 1`` builds the
    sharded engine over that many forked workers; every sharding
    failure degrades to the per-event engine with a
    :class:`RuntimeWarning` naming the reason, so callers never have to
    guard ``workers=N`` against topology shape.  ``workers=0`` forks
    nothing: FIFO arbitration under a cacheable router runs the window
    engine in this process, anything else is the per-event pair (see
    the module docstring; :func:`sequential_engine` always builds the
    latter).
    """
    if workers and workers > 0:
        try:
            strategy = SYNC_STRATEGIES[sync]
        except KeyError:
            raise ValueError(
                f"unknown sync strategy {sync!r}; "
                f"available: {tuple(sorted(SYNC_STRATEGIES))}"
            ) from None
        try:
            return strategy(
                topology, router, routing_seed, arbitration,
                workers, coordinator_hosts,
            )
        except Exception as exc:  # ShardingError and friends
            from repro.network.shard import ShardingError

            if not isinstance(exc, ShardingError):
                raise
            warnings.warn(
                f"sharded engine unavailable ({exc}); "
                "falling back to the sequential engine",
                RuntimeWarning,
                stacklevel=2,
            )
        return sequential_engine(topology, router, routing_seed, arbitration)
    return _in_process_backend(
        topology, router, routing_seed, arbitration, coordinator_hosts
    )

"""Fabric graph partitioning for the sharded parallel engine.

The sharded engine (``repro.network.parallel``) pins disjoint regions
of the fabric — switches, their attached hosts, and every link whose
*source* endpoint they own — to worker processes.  This module is the
planning half: a deterministic, topology-agnostic partitioner plus the
flat numpy index tables the workers' vectorized event batches run on.

Partitioning strategy
---------------------
Edge switches (those with at least one host neighbor) are sorted in
natural order and split into ``n_shards`` contiguous, balanced chunks,
so racks stay together and most traffic stays shard-local.  Core
switches (spines and the like) are dealt round-robin across shards.
Hosts either stay with the coordinator process (``coordinator_hosts=
True`` — required when host-side callbacks drive collectives, as in
``Fabric``) or follow their edge switch (pure transport workloads,
maximum parallelism).  A *directed* link belongs to the shard owning
its source node, so every ``Link.transmit`` has exactly one writer.

Lookahead
---------
Conservative synchronization needs a lower bound on how fast causality
crosses shard boundaries.  We use the minimum link latency over the
*whole* fabric, not just cut edges: that stronger bound additionally
guarantees a message makes at most one hop per synchronization window,
which is what lets workers execute a window as one vectorized batch
(sort arrivals per link, chain the serializations) with no intra-window
event loop at all.

Everything here is pure planning — no processes, no simulator state.
:class:`ShardingError` signals "no usable partition"; callers degrade
to the sequential engine rather than erroring (see
``repro.pspin.pdes.build_engine``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.network.topology import FatTreeTopology, NodeId, Topology

#: Owner id of the coordinator process in every owner table.
COORDINATOR = -1


class ShardingError(RuntimeError):
    """The topology admits no usable partition for the requested shard
    count (too few edge switches, zero-latency links, ...)."""


def _natural_key(name: str) -> tuple:
    """Sort switch names numerically when suffixed with digits
    (``l2`` < ``l10``), falling back to lexicographic order."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail)) if tail else (head, -1)


@dataclass
class ShardIndex:
    """Flat integer/float views of one topology, shared by all shards.

    Node indices follow ``topology.hosts + topology.switches`` order;
    link indices follow ``topology.links()`` order.  Workers inherit
    these arrays copy-on-write across ``fork`` and address links by
    index instead of name on the vectorized path.
    """

    names: list[NodeId]
    idx: dict[NodeId, int]
    owner: np.ndarray  # int64 per node; COORDINATOR (-1) or shard id
    link_keys: list[tuple[NodeId, NodeId]]
    link_src: np.ndarray  # int64 node index per directed link
    link_dst: np.ndarray
    link_rate: np.ndarray  # float64 bytes/ns per link
    link_latency: np.ndarray  # float64 ns per link
    # Sorted composite key table for vectorized (src, dst) -> link id.
    _lookup_keys: np.ndarray = field(repr=False)
    _lookup_perm: np.ndarray = field(repr=False)
    # Fat-tree structure for closed-form vectorized up-down routing
    # (None on other families; workers fall back to per-pair routing).
    kind: np.ndarray | None = None  # 0 host / 1 leaf / 2 spine
    num: np.ndarray | None = None  # numeric suffix of each node name
    host_leaf_node: np.ndarray | None = None  # host idx -> leaf node idx
    spine_node: np.ndarray | None = None  # spine number -> node idx
    n_spines: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_links(self) -> int:
        return len(self.link_keys)

    def link_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized directed-link lookup by endpoint node indices."""
        composite = src * np.int64(self.n_nodes) + dst
        pos = np.searchsorted(self._lookup_keys, composite)
        if pos.size and (
            (pos >= self._lookup_keys.size).any()
            or (self._lookup_keys[np.minimum(pos, self._lookup_keys.size - 1)]
                != composite).any()
        ):
            raise KeyError("no such link in index")
        return self._lookup_perm[pos]


@dataclass
class ShardPlan:
    """A committed partition: node ownership + synchronization window."""

    n_shards: int
    index: ShardIndex
    shard_nodes: list[list[NodeId]]  # per shard, deterministic order
    lookahead: float  # ns; also the PDES window length
    coordinator_hosts: bool
    cut_links: int  # directed links whose endpoints span owners

    def owner_of(self, node: NodeId) -> int:
        return int(self.index.owner[self.index.idx[node]])


def build_index(topology: Topology, owner: np.ndarray | None = None) -> ShardIndex:
    """Build the flat numpy tables for one topology."""
    names = list(topology.hosts) + list(topology.switches)
    idx = {name: i for i, name in enumerate(names)}
    n = len(names)
    if owner is None:
        owner = np.full(n, COORDINATOR, dtype=np.int64)
    link_keys = list(topology._links)
    links = topology._links.values()
    link_src = np.fromiter((idx[a] for a, _ in link_keys), np.int64, len(link_keys))
    link_dst = np.fromiter((idx[b] for _, b in link_keys), np.int64, len(link_keys))
    link_rate = np.fromiter((ln.bytes_per_ns for ln in links), np.float64, len(links))
    link_latency = np.fromiter(
        (ln.latency_ns for ln in links), np.float64, len(links)
    )
    composite = link_src * np.int64(n) + link_dst
    perm = np.argsort(composite, kind="stable")
    index = ShardIndex(
        names=names,
        idx=idx,
        owner=owner,
        link_keys=link_keys,
        link_src=link_src,
        link_dst=link_dst,
        link_rate=link_rate,
        link_latency=link_latency,
        _lookup_keys=composite[perm],
        _lookup_perm=perm.astype(np.int64),
    )
    if isinstance(topology, FatTreeTopology):
        # Hosts come first, in number order; switch names parse once.
        n_hosts = topology.n_hosts
        kind = np.zeros(n, dtype=np.int64)
        num = np.zeros(n, dtype=np.int64)
        num[:n_hosts] = np.arange(n_hosts)
        spine_node = np.zeros(topology.n_spines, dtype=np.int64)
        leaf_node = np.zeros(topology.n_leaves, dtype=np.int64)
        for i in range(n_hosts, n):
            name = names[i]
            value = int(name[1:])
            num[i] = value
            if name[0] == "l":
                kind[i] = 1
                leaf_node[value] = i
            else:
                kind[i] = 2
                spine_node[value] = i
        host_leaf_node = np.zeros(n, dtype=np.int64)
        host_leaf_node[:n_hosts] = leaf_node[
            np.arange(n_hosts) // topology.hosts_per_leaf
        ]
        index.kind = kind
        index.num = num
        index.host_leaf_node = host_leaf_node
        index.spine_node = spine_node
        index.n_spines = topology.n_spines
    return index


def updown_next_hop_vec(
    index: ShardIndex, node: np.ndarray, dst: np.ndarray, salt: int
) -> np.ndarray:
    """Vectorized up-down next hop over fat-tree structure arrays.

    Bit-identical to ``UpDownRouter.next_hop`` — both sides compute the
    spine pick with the same splitmix64 key (see ``routing.mix64``).
    ``node != dst`` rows only (deliveries are split off by the caller).
    """
    from repro.network.routing import mix64_np

    kind, num = index.kind, index.num
    out = np.empty(node.shape, dtype=np.int64)
    nk = kind[node]
    dk = kind[dst]
    # Hosts climb to their leaf.
    mask = nk == 0
    out[mask] = index.host_leaf_node[node[mask]]
    # Spines descend to the destination('s) leaf.
    mask = nk == 2
    if mask.any():
        d = dst[mask]
        out[mask] = np.where(dk[mask] == 0, index.host_leaf_node[d], d)
    # Leaves: descend locally, jump straight to a spine destination, or
    # cross the salted spine pick.
    mask = nk == 1
    if mask.any():
        n_ = node[mask]
        d = dst[mask]
        dk_ = dk[mask]
        dleaf = np.where(dk_ == 0, index.host_leaf_node[d], d)
        key = (
            (num[n_].astype(np.uint64) << np.uint64(34))
            ^ ((dk_ != 0).astype(np.uint64) << np.uint64(33))
            ^ num[d].astype(np.uint64)
            ^ np.uint64(salt)
        )
        spine = index.spine_node[
            (mix64_np(key) % np.uint64(index.n_spines)).astype(np.int64)
        ]
        local = np.where(dleaf == n_, d, spine)
        out[mask] = np.where(dk_ == 2, d, local)
    return out


def _host_links(topology: Topology) -> list[tuple[NodeId, NodeId]]:
    """Healthy ``(switch, host)`` links, from one scan of the link
    table (the full adjacency build costs far more at scale)."""
    failed = topology._failed_links
    is_switch = topology.is_switch
    return [
        key for key in topology._links
        if is_switch(key[0]) and not is_switch(key[1]) and key not in failed
    ]


def plan_obstacle(topology: Topology) -> str | None:
    """Why ``topology`` admits no one-shard plan (None when it does).

    Cheap, for deciding at engine construction; :func:`plan_shards`
    raises :class:`ShardingError` under the same conditions."""
    links = topology._links
    if not links:
        return "topology has no links"
    if not any(topology.is_switch(a) for a, _ in links):
        return "topology has no switches to shard"
    failed = topology._failed_links
    if not any(
        not topology.is_switch(b) and (a, b) not in failed
        for a, b in links if topology.is_switch(a)
    ):
        return "no edge switch to anchor a shard"
    if min(map(attrgetter("latency_ns"), links.values())) <= 0.0:
        return "zero-latency links leave conservative sync no lookahead"
    return None


def plan_shards(
    topology: Topology,
    n_shards: int,
    coordinator_hosts: bool = True,
) -> ShardPlan:
    """Partition ``topology`` into ``n_shards`` worker regions.

    Raises :class:`ShardingError` when no usable partition exists:
    fewer edge switches than shards, non-positive link latency (no
    lookahead), or a degenerate switchless fabric.
    """
    if n_shards < 1:
        raise ShardingError(f"n_shards must be >= 1, got {n_shards}")
    index = build_index(topology)
    switches = sorted(index.names[topology.n_hosts:], key=_natural_key)
    if not switches:
        raise ShardingError("topology has no switches to shard")
    host_links = _host_links(topology)
    edge_set = {sw for sw, _ in host_links}
    edge = [s for s in switches if s in edge_set]
    core = [s for s in switches if s not in edge_set]
    if len(edge) < n_shards:
        raise ShardingError(
            f"workers={n_shards} exceeds the {len(edge)} edge switches "
            "available to anchor shards"
        )
    links = topology._links
    if not links:
        raise ShardingError("topology has no links")
    lookahead = min(link.latency_ns for link in links.values())
    if lookahead <= 0.0:
        raise ShardingError(
            "zero-latency links leave conservative sync no lookahead"
        )

    owner = index.owner
    shard_nodes: list[list[NodeId]] = [[] for _ in range(n_shards)]
    # Contiguous balanced chunks of edge switches keep racks together.
    bounds = np.linspace(0, len(edge), n_shards + 1).astype(int)
    for shard in range(n_shards):
        for name in edge[bounds[shard]: bounds[shard + 1]]:
            owner[index.idx[name]] = shard
            shard_nodes[shard].append(name)
    for i, name in enumerate(core):
        shard = i % n_shards
        owner[index.idx[name]] = shard
        shard_nodes[shard].append(name)
    if not coordinator_hosts:
        # Each host follows its attachment switch: the first in sorted
        # order, as ``Topology.attach_switch`` picks it.
        attach: dict[NodeId, NodeId] = {}
        for sw, host in host_links:
            if host not in attach or sw < attach[host]:
                attach[host] = sw
        for host in topology.hosts:
            shard = int(owner[index.idx[attach[host]]])
            owner[index.idx[host]] = shard
            shard_nodes[shard].append(host)
    link_owner = owner[index.link_src]
    cut = int((link_owner != owner[index.link_dst]).sum())
    return ShardPlan(
        n_shards=n_shards,
        index=index,
        shard_nodes=shard_nodes,
        lookahead=lookahead,
        coordinator_hosts=coordinator_hosts,
        cut_links=cut,
    )

"""Graph topologies for the network substrate.

The paper's transport (§4.1) is a single shared Ethernet bus: every
host can reach every other host, and all frames serialize through one
wire.  This module generalizes that into an explicit :class:`Topology`
— an undirected graph of hosts with optional per-edge
:class:`~repro.network.parameters.NetworkParameters` overrides — so the
same DES transmit path can model rings, meshes, tori, and arbitrary
adjacency files, with contention per link instead of per bus.

The shared bus is recovered exactly as the *complete graph through one
resource*: every pair of hosts is adjacent (all routes are one hop) and
``shared_medium=True`` maps every edge onto a single wire
:class:`~repro.simulation.Resource`.  That construction is what keeps
the seed results bit-identical after the refactor.

Routing is deterministic shortest-path: a BFS next-hop table with
lowest-neighbor-id tie-breaking, computed once per topology and cached.
Messages are carried store-and-forward, paying each link's wire time in
sequence (see :mod:`repro.network.graph`).
"""

from __future__ import annotations

import json
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .parameters import NetworkParameters

__all__ = [
    "Topology",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "mesh_dims",
    "parse_topology_spec",
    "resolve_topology",
]

#: Topology families accepted by the CLI ``--topology`` flag (plus
#: ``file:<adjacency.json>`` for arbitrary graphs).
TOPOLOGY_KINDS = ("bus", "complete", "ring", "mesh", "torus")

#: Anything `resolve_topology` accepts: ``None`` (bus), a spec string
#: (``"ring"``, ``"file:net.json"``), or an explicit Topology.
TopologySpec = Union[None, str, "Topology"]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _AllPairs(_SequenceABC):
    """Lazy complete-graph edge sequence: every ``(u, v)`` with u < v.

    ``Topology.bus(P)`` / ``complete(P)`` at P=4096 would otherwise
    materialize ~8.4M edge tuples just for the network layer to map them
    all onto one wire resource.  This mimics the sorted tuple of all
    pairs — identical iteration order, length, membership, and indexing
    — in O(1) memory, with O(1) hashing so topology-keyed caches stay
    cheap.  Comparison against a real tuple of the same pairs is
    supported (element-wise) for compatibility, though the O(1) hash
    deliberately does not match ``hash`` of that tuple.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2

    def __iter__(self):
        n = self.n
        return ((u, v) for u in range(n) for v in range(u + 1, n))

    def __contains__(self, edge: object) -> bool:
        try:
            u, v = edge  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        return isinstance(u, int) and isinstance(v, int) and 0 <= u < v < self.n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(self)[idx]
        total = len(self)
        if idx < 0:
            idx += total
        if not 0 <= idx < total:
            raise IndexError("edge index out of range")
        u, row = 0, self.n - 1
        while idx >= row:
            idx -= row
            u += 1
            row -= 1
        return (u, u + 1 + idx)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _AllPairs):
            return self.n == other.n
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("repro.network.topology._AllPairs", self.n))

    def __reduce__(self):
        return (_AllPairs, (self.n,))

    def __repr__(self) -> str:
        return f"_AllPairs(n={self.n})"


def mesh_dims(n_hosts: int) -> tuple[int, int]:
    """Grid dimensions for an ``n_hosts`` mesh/torus: the most nearly
    square ``rows x cols`` factorization (rows <= cols)."""
    best = (1, n_hosts)
    r = 1
    while r * r <= n_hosts:
        if n_hosts % r == 0:
            best = (r, n_hosts // r)
        r += 1
    return best


@dataclass(frozen=True)
class Topology:
    """An undirected host graph with optional per-edge link parameters.

    Frozen and hashable so it can key caches (the characterization layer
    memoizes cost models per ``(params, topology)``).  ``edges`` holds
    normalized ``(u, v)`` pairs with ``u < v``; ``link_params`` holds
    per-edge :class:`NetworkParameters` overrides for heterogeneous
    links (a slow WAN hop inside a fast cluster, say).
    """

    kind: str
    n_hosts: int
    #: Normalized (u < v) edge pairs — a real tuple, or an
    #: :class:`_AllPairs` lazy view for complete graphs at scale.
    edges: Sequence[tuple[int, int]]
    #: When true, every edge shares one wire resource (Ethernet bus
    #: semantics): frames serialize globally, not per link.
    shared_medium: bool = False
    link_params: tuple[tuple[tuple[int, int], NetworkParameters], ...] = \
        field(default=())

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ValueError("need at least one host")
        if isinstance(self.edges, _AllPairs):
            # Complete graph by construction: valid by definition, and
            # per-edge validation would be O(P^2).
            if self.edges.n != self.n_hosts:
                raise ValueError("complete edge set does not match host count")
            seen: "set[tuple[int, int]] | _AllPairs" = self.edges
        else:
            seen = set()
            for u, v in self.edges:
                if not (0 <= u < self.n_hosts and 0 <= v < self.n_hosts):
                    raise ValueError(f"edge ({u},{v}) out of range "
                                     f"0..{self.n_hosts - 1}")
                if u == v:
                    raise ValueError(f"self-edge ({u},{v}) not allowed")
                if (u, v) != _normalize_edge(u, v):
                    raise ValueError(f"edge ({u},{v}) not normalized (u < v)")
                if (u, v) in seen:
                    raise ValueError(f"duplicate edge ({u},{v})")
                seen.add((u, v))
        for (u, v), _params in self.link_params:
            if _normalize_edge(u, v) not in seen:
                raise ValueError(f"link_params for non-edge ({u},{v})")
        if self.n_hosts > 1 and not self.is_connected:
            raise ValueError("topology must be connected")

    # -- structure -------------------------------------------------------

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per host (index = host id)."""
        nbrs: list[list[int]] = [[] for _ in range(self.n_hosts)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def neighbors(self, host: int) -> tuple[int, ...]:
        return self.adjacency[host]

    def degree(self, host: int) -> int:
        return len(self.adjacency[host])

    @cached_property
    def max_degree(self) -> int:
        if isinstance(self.edges, _AllPairs):
            return self.n_hosts - 1 if self.n_hosts > 1 else 0
        return max((len(ns) for ns in self.adjacency), default=0)

    @cached_property
    def is_connected(self) -> bool:
        if self.n_hosts <= 1 or isinstance(self.edges, _AllPairs):
            return True
        nbrs: list[list[int]] = [[] for _ in range(self.n_hosts)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for other in nbrs[node]:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        return len(seen) == self.n_hosts

    @cached_property
    def _link_param_map(self) -> dict[tuple[int, int], NetworkParameters]:
        return {_normalize_edge(u, v): p for (u, v), p in self.link_params}

    def params_for(self, u: int, v: int) -> Optional[NetworkParameters]:
        """Per-edge parameter override, or ``None`` for the default."""
        return self._link_param_map.get(_normalize_edge(u, v))

    # -- routing ---------------------------------------------------------

    @cached_property
    def _next_hop(self) -> tuple[tuple[int, ...], ...]:
        """``_next_hop[dst][src]`` = first hop on the shortest src->dst
        path (BFS from each destination, lowest-id tie-break)."""
        table: list[tuple[int, ...]] = []
        for dst in range(self.n_hosts):
            hop = [-1] * self.n_hosts
            hop[dst] = dst
            frontier = [dst]
            while frontier:
                nxt: list[int] = []
                for node in frontier:
                    # Sorted neighbors => the lowest-id parent claims a
                    # host first, making routes deterministic.
                    for other in self.adjacency[node]:
                        if hop[other] == -1:
                            hop[other] = node
                            nxt.append(other)
                frontier = sorted(nxt)
            table.append(tuple(hop))
        return tuple(table)

    def route(self, src: int, dst: int) -> tuple[tuple[int, int], ...]:
        """Shortest path as a tuple of directed hop pairs.

        ``route(0, 3)`` on a 4-ring is ``((0, 3),)``; on a 4-line it is
        ``((0, 1), (1, 2), (2, 3))``.  Empty for ``src == dst``.
        """
        if src == dst:
            return ()
        if isinstance(self.edges, _AllPairs):
            # Complete graph: every pair is adjacent.  Skipping the BFS
            # table matters at scale — it is O(P^2) time and memory.
            return ((src, dst),)
        hops: list[tuple[int, int]] = []
        here = src
        while here != dst:
            there = self._next_hop[dst][here]
            if there < 0:  # pragma: no cover - guarded by is_connected
                raise ValueError(f"no route {src}->{dst}")
            hops.append((here, there))
            here = there
        return tuple(hops)

    def hops(self, src: int, dst: int) -> int:
        """Shortest-path length in links (0 for same host)."""
        return len(self.route(src, dst))

    @cached_property
    def diameter(self) -> int:
        if isinstance(self.edges, _AllPairs):
            return 1 if self.n_hosts > 1 else 0
        return max(self.hops(s, d)
                   for s in range(self.n_hosts)
                   for d in range(self.n_hosts))

    def laplacian(self) -> list[list[float]]:
        """Graph Laplacian ``L = D - A`` as nested lists (numpy-free so
        the analytics layer decides how to consume it)."""
        lap = [[0.0] * self.n_hosts for _ in range(self.n_hosts)]
        for u, v in self.edges:
            lap[u][u] += 1.0
            lap[v][v] += 1.0
            lap[u][v] -= 1.0
            lap[v][u] -= 1.0
        return lap

    def describe(self) -> str:
        medium = "shared" if self.shared_medium else "switched"
        return (f"{self.kind}(P={self.n_hosts}, links={len(self.edges)}, "
                f"{medium}, max_degree={self.max_degree})")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def bus(n_hosts: int) -> "Topology":
        """The paper's shared Ethernet segment: complete graph, one wire."""
        return Topology("bus", n_hosts, _AllPairs(n_hosts),
                        shared_medium=True)

    @staticmethod
    def complete(n_hosts: int) -> "Topology":
        """Fully switched crossbar: complete graph, one wire per pair."""
        return Topology("complete", n_hosts, _AllPairs(n_hosts))

    @staticmethod
    def ring(n_hosts: int) -> "Topology":
        if n_hosts == 1:
            return Topology("ring", 1, ())
        if n_hosts == 2:
            return Topology("ring", 2, ((0, 1),))
        edges = tuple(sorted(_normalize_edge(i, (i + 1) % n_hosts)
                             for i in range(n_hosts)))
        return Topology("ring", n_hosts, edges)

    @staticmethod
    def mesh(n_hosts: int) -> "Topology":
        """2D grid, most-nearly-square ``rows x cols`` factorization."""
        rows, cols = mesh_dims(n_hosts)
        return Topology("mesh", n_hosts, _grid_edges(rows, cols, wrap=False))

    @staticmethod
    def torus(n_hosts: int) -> "Topology":
        """2D grid with wraparound links in both dimensions."""
        rows, cols = mesh_dims(n_hosts)
        return Topology("torus", n_hosts, _grid_edges(rows, cols, wrap=True))

    @staticmethod
    def random_graph(n_hosts: int, extra_edges: int = 0,
                     seed: int = 0) -> "Topology":
        """Seeded random connected graph: a random spanning tree (so the
        result is always connected) plus ``extra_edges`` distinct chords.

        Uses a dedicated :mod:`random` instance — identical seeds give
        identical graphs regardless of global RNG state.
        """
        import random as _random
        rng = _random.Random(seed)
        order = list(range(n_hosts))
        rng.shuffle(order)
        edges = {_normalize_edge(order[i], rng.choice(order[:i]))
                 for i in range(1, n_hosts)}
        candidates = [(u, v) for u in range(n_hosts)
                      for v in range(u + 1, n_hosts)
                      if (u, v) not in edges]
        rng.shuffle(candidates)
        edges.update(candidates[:extra_edges])
        return Topology(f"random[{seed}]", n_hosts, tuple(sorted(edges)))

    @staticmethod
    def from_adjacency(adjacency: Mapping[Union[int, str], Iterable[int]],
                       kind: str = "custom") -> "Topology":
        """Build from an adjacency mapping ``{host: [neighbors...]}``.

        Hosts must be the contiguous range ``0..P-1``; missing entries
        are hosts with no listed neighbors (they must still be reachable
        via someone else's list — the graph is treated as undirected).
        """
        nodes: set[int] = set()
        pairs: set[tuple[int, int]] = set()
        for raw_u, nbrs in adjacency.items():
            u = int(raw_u)
            nodes.add(u)
            for raw_v in nbrs:
                v = int(raw_v)
                nodes.add(v)
                if u == v:
                    raise ValueError(f"self-edge at host {u}")
                pairs.add(_normalize_edge(u, v))
        if not nodes:
            raise ValueError("empty adjacency")
        n_hosts = max(nodes) + 1
        if nodes != set(range(n_hosts)):
            missing = sorted(set(range(n_hosts)) - nodes)
            raise ValueError(f"hosts must be contiguous 0..{n_hosts - 1}; "
                             f"missing {missing}")
        return Topology(kind, n_hosts, tuple(sorted(pairs)))

    @staticmethod
    def from_file(path: str) -> "Topology":
        """Load a topology from a JSON adjacency file.

        Two shapes are accepted (see docs/TOPOLOGY.md):

        * an adjacency object: ``{"0": [1, 2], "1": [0], "2": [0]}``
        * an edge-list object::

              {"n_hosts": 4,
               "edges": [[0, 1], [1, 2], [2, 3]],
               "links": [{"edge": [2, 3], "bandwidth": 120000.0}]}

          where each optional ``links`` entry overrides
          :class:`NetworkParameters` fields for one edge.
        """
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object")
        if "edges" not in doc:
            return Topology.from_adjacency(doc, kind=f"file:{path}")
        n_hosts = int(doc.get("n_hosts", 0))
        edges = tuple(sorted(_normalize_edge(int(u), int(v))
                             for u, v in doc["edges"]))
        if not n_hosts:
            n_hosts = max((v for _, v in edges), default=0) + 1
        overrides: list[tuple[tuple[int, int], NetworkParameters]] = []
        base = NetworkParameters()
        for link in doc.get("links", ()):
            u, v = (int(x) for x in link["edge"])
            fields = {k: float(val) for k, val in link.items()
                      if k != "edge"}
            unknown = set(fields) - {
                "send_overhead", "recv_overhead", "wire_latency",
                "bandwidth", "local_overhead"}
            if unknown:
                raise ValueError(f"{path}: unknown link fields {sorted(unknown)}")
            merged = {f: fields.get(f, getattr(base, f))
                      for f in ("send_overhead", "recv_overhead",
                                "wire_latency", "bandwidth",
                                "local_overhead")}
            overrides.append((_normalize_edge(u, v),
                              NetworkParameters(**merged)))
        return Topology(f"file:{path}", n_hosts, edges,
                        link_params=tuple(sorted(overrides)))


def _grid_edges(rows: int, cols: int, wrap: bool) -> tuple[tuple[int, int], ...]:
    """Edges of a rows x cols grid (host id = r * cols + c)."""
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            host = r * cols + c
            if cols > 1 and (wrap or c + 1 < cols):
                edges.add(_normalize_edge(host, r * cols + (c + 1) % cols))
            if rows > 1 and (wrap or r + 1 < rows):
                edges.add(_normalize_edge(host, ((r + 1) % rows) * cols + c))
    return tuple(sorted(edges))


def parse_topology_spec(spec: str) -> str:
    """Validate a CLI ``--topology`` value; returns the spec unchanged.

    Raises ``ValueError`` with a user-facing message for bad specs.  The
    actual graph is built later by :func:`resolve_topology`, once the
    host count is known.
    """
    if spec in TOPOLOGY_KINDS:
        return spec
    if spec.startswith("file:") and spec[len("file:"):]:
        return spec
    raise ValueError(
        f"bad --topology {spec!r}: expected one of "
        f"{', '.join(TOPOLOGY_KINDS)} or file:<adjacency.json>")


def resolve_topology(spec: TopologySpec, n_hosts: int) -> Topology:
    """Resolve a topology spec against a host count.

    ``None`` and ``"bus"`` give the paper's shared bus.  A ``file:``
    spec loads the adjacency file and checks its host count matches.
    An explicit :class:`Topology` is validated for size and returned.
    A named kind is built once per process while it stays among the
    four most recently resolved; ``file:`` specs and explicit
    topologies are never cached.
    """
    if spec is None:
        spec = "bus"
    if isinstance(spec, Topology):
        if spec.n_hosts != n_hosts:
            raise ValueError(f"topology is for {spec.n_hosts} hosts, "
                             f"run has {n_hosts}")
        return spec
    if spec.startswith("file:"):
        topo = Topology.from_file(spec[len("file:"):])
        if topo.n_hosts != n_hosts:
            raise ValueError(f"adjacency file has {topo.n_hosts} hosts, "
                             f"run has {n_hosts}")
        return topo
    if spec not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology {spec!r}: expected one of "
                         f"{', '.join(TOPOLOGY_KINDS)} or "
                         f"file:<adjacency.json>")
    return _named_topology(spec, n_hosts)


@lru_cache(maxsize=4)
def _named_topology(kind: str, n_hosts: int) -> Topology:
    """One frozen :class:`Topology` per ``(kind, n_hosts)`` for as long
    as it stays among the four most recent: runs that share it share its
    cached routing table (built once, not once per run)."""
    return getattr(Topology, kind)(n_hosts)  # each kind names its builder

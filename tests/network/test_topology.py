"""Unit tests for the Topology graph abstraction."""

import json
from functools import cached_property

import pytest

from repro.network.parameters import NetworkParameters
from repro.network.topology import (
    Topology,
    _named_topology,
    mesh_dims,
    parse_topology_spec,
    resolve_topology,
)


# -- constructors --------------------------------------------------------

def test_bus_is_complete_and_shared():
    topo = Topology.bus(4)
    assert topo.shared_medium
    assert len(topo.edges) == 6  # C(4, 2)
    assert topo.diameter == 1
    assert topo.max_degree == 3


def test_complete_is_switched():
    topo = Topology.complete(4)
    assert not topo.shared_medium
    assert topo.edges == Topology.bus(4).edges


def test_ring_structure():
    topo = Topology.ring(5)
    assert len(topo.edges) == 5
    assert all(topo.degree(h) == 2 for h in range(5))
    assert topo.diameter == 2


def test_ring_small_cases():
    assert Topology.ring(1).edges == ()
    assert Topology.ring(2).edges == ((0, 1),)


def test_mesh_dims_prefers_square():
    assert mesh_dims(16) == (4, 4)
    assert mesh_dims(8) == (2, 4)
    assert mesh_dims(7) == (1, 7)  # prime: a line


def test_mesh_is_grid_without_wraparound():
    topo = Topology.mesh(6)  # 2 x 3
    assert len(topo.edges) == 7  # 2*2 vertical + 3*1... (r*(c-1) + c*(r-1))
    corners = [h for h in range(6) if topo.degree(h) == 2]
    assert len(corners) == 4


def test_torus_adds_wraparound():
    mesh = Topology.mesh(9)   # 3 x 3
    torus = Topology.torus(9)
    assert len(torus.edges) > len(mesh.edges)
    assert all(torus.degree(h) == 4 for h in range(9))


def test_random_graph_is_seeded_and_connected():
    a = Topology.random_graph(10, extra_edges=3, seed=5)
    b = Topology.random_graph(10, extra_edges=3, seed=5)
    c = Topology.random_graph(10, extra_edges=3, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges
    assert a.is_connected
    assert len(a.edges) == 9 + 3  # spanning tree + chords


# -- validation ----------------------------------------------------------

def test_rejects_disconnected_graph():
    with pytest.raises(ValueError, match="connected"):
        Topology("broken", 4, ((0, 1), (2, 3)))


def test_rejects_self_edge_and_duplicates():
    with pytest.raises(ValueError, match="self-edge"):
        Topology("bad", 2, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        Topology("bad", 2, ((0, 1), (0, 1)))


def test_rejects_out_of_range_and_unnormalized_edges():
    with pytest.raises(ValueError, match="out of range"):
        Topology("bad", 2, ((0, 5),))
    with pytest.raises(ValueError, match="not normalized"):
        Topology("bad", 2, ((1, 0),))


def test_rejects_link_params_on_non_edge():
    override = ((0, 2), NetworkParameters())
    with pytest.raises(ValueError, match="non-edge"):
        Topology("bad", 3, ((0, 1), (1, 2)), link_params=(override,))


# -- routing -------------------------------------------------------------

def test_route_is_shortest_path():
    ring = Topology.ring(6)
    assert ring.route(0, 1) == ((0, 1),)
    assert ring.route(0, 5) == ((0, 5),)     # wraps the short way
    assert ring.hops(0, 3) == 3              # antipode
    assert ring.route(2, 2) == ()


def test_route_tie_break_is_lowest_id_and_deterministic():
    # On a 4-ring both 0->1->2 and 0->3->2 are shortest; BFS with sorted
    # neighbors must pick the lowest-id first hop, every time.
    ring = Topology.ring(4)
    assert ring.route(0, 2) == ((0, 1), (1, 2))
    assert all(ring.route(0, 2) == ((0, 1), (1, 2)) for _ in range(5))


def test_routes_are_continuous_and_end_at_dst():
    topo = Topology.random_graph(12, extra_edges=4, seed=1)
    for src in range(12):
        for dst in range(12):
            route = topo.route(src, dst)
            if src == dst:
                assert route == ()
                continue
            assert route[0][0] == src and route[-1][1] == dst
            for (_, a), (b, _) in zip(route, route[1:]):
                assert a == b


def test_diameter_examples():
    assert Topology.bus(8).diameter == 1
    assert Topology.ring(8).diameter == 4
    assert Topology.torus(16).diameter == 4  # 4x4, wraparound


# -- spectral helpers ----------------------------------------------------

def test_laplacian_rows_sum_to_zero():
    topo = Topology.mesh(6)
    lap = topo.laplacian()
    for h, row in enumerate(lap):
        assert sum(row) == 0.0
        assert row[h] == topo.degree(h)


def test_topology_is_hashable_cache_key():
    assert hash(Topology.ring(4)) == hash(Topology.ring(4))
    assert Topology.ring(4) == Topology.ring(4)
    assert Topology.ring(4) != Topology.mesh(4)


# -- adjacency files -----------------------------------------------------

def test_from_adjacency_object(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"0": [1, 2], "1": [0], "2": [0]}))
    topo = Topology.from_file(str(path))
    assert topo.n_hosts == 3
    assert topo.edges == ((0, 1), (0, 2))


def test_from_edge_list_with_link_overrides(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "n_hosts": 4,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "links": [{"edge": [2, 3], "bandwidth": 120000.0}]}))
    topo = Topology.from_file(str(path))
    assert topo.n_hosts == 4
    assert topo.params_for(3, 2).bandwidth == 120000.0
    assert topo.params_for(0, 1) is None


def test_from_file_rejects_unknown_link_fields(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "n_hosts": 2, "edges": [[0, 1]],
        "links": [{"edge": [0, 1], "color": 3}]}))
    with pytest.raises(ValueError, match="unknown link fields"):
        Topology.from_file(str(path))


def test_from_adjacency_rejects_gaps():
    with pytest.raises(ValueError, match="contiguous"):
        Topology.from_adjacency({0: [3], 3: [0]})


# -- spec parsing / resolution -------------------------------------------

def test_parse_topology_spec_accepts_kinds_and_files():
    for kind in ("bus", "complete", "ring", "mesh", "torus"):
        assert parse_topology_spec(kind) == kind
    assert parse_topology_spec("file:net.json") == "file:net.json"
    with pytest.raises(ValueError, match="bad --topology"):
        parse_topology_spec("hypercube")
    with pytest.raises(ValueError):
        parse_topology_spec("file:")


def test_resolve_topology_none_is_the_paper_bus():
    topo = resolve_topology(None, 4)
    assert topo.kind == "bus" and topo.shared_medium


def test_resolve_topology_checks_host_count(tmp_path):
    with pytest.raises(ValueError, match="4 hosts"):
        resolve_topology(Topology.ring(4), 8)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"0": [1], "1": [0]}))
    with pytest.raises(ValueError, match="2 hosts"):
        resolve_topology(f"file:{path}", 5)
    assert resolve_topology(f"file:{path}", 2).n_hosts == 2


# -- the named-topology cache ----------------------------------------------

@pytest.fixture
def fresh_cache():
    _named_topology.cache_clear()
    yield
    _named_topology.cache_clear()


def test_a_named_topology_is_built_once(fresh_cache):
    assert resolve_topology("torus", 16) is resolve_topology("torus", 16)
    assert resolve_topology(None, 4) is resolve_topology("bus", 4)
    assert resolve_topology("ring", 8) is not resolve_topology("ring", 9)


def test_files_and_explicit_topologies_are_not_cached(fresh_cache, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"0": [1], "1": [0, 2], "2": [1]}))
    first = resolve_topology(f"file:{path}", 3)
    assert resolve_topology(f"file:{path}", 3) is not first
    assert resolve_topology(f"file:{path}", 3) == first
    explicit = Topology.ring(5)
    assert resolve_topology(explicit, 5) is explicit
    assert _named_topology.cache_info().currsize == 0


def test_a_fifth_topology_evicts_the_oldest(fresh_cache):
    oldest = resolve_topology("mesh", 12)
    routes = [oldest.route(s, d) for s in range(12) for d in range(12)]
    for kind in ("ring", "torus", "complete", "bus"):
        resolve_topology(kind, 12)
    assert _named_topology.cache_info().currsize == 4
    rebuilt = resolve_topology("mesh", 12)
    assert rebuilt is not oldest and rebuilt == oldest
    assert [rebuilt.route(s, d) for s in range(12) for d in range(12)] == \
        routes


def test_two_torus_runs_build_one_routing_table(fresh_cache, monkeypatch):
    """The executor and the run plan both resolve the run's topology, and
    the second run shares the first one's: one builder call, one BFS."""
    from repro import ClusterSpec, run_loop
    from repro.apps.mxm import MxmConfig, mxm_loop
    from repro.runtime.options import RunOptions

    built, tables = [], []
    real_torus, real_next_hop = Topology.torus, Topology._next_hop.func

    def torus(n_hosts):
        built.append(n_hosts)
        return real_torus(n_hosts)

    def next_hop(topology):
        tables.append(topology.kind)
        return real_next_hop(topology)

    counted = cached_property(next_hop)
    counted.__set_name__(Topology, "_next_hop")
    monkeypatch.setattr(Topology, "torus", staticmethod(torus))
    monkeypatch.setattr(Topology, "_next_hop", counted)
    loop = mxm_loop(MxmConfig(32, 16, 16), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(16, max_load=3, persistence=1.0,
                                      seed=7)
    durations = [run_loop(loop, cluster, "LCDLB",
                          RunOptions(topology="torus")).duration
                 for _ in range(2)]
    assert durations[0] == durations[1]
    assert built == [16] and tables == ["torus"]

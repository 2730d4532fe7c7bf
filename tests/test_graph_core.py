import dataclasses
import inspect
import pickle
import tracemalloc

import numpy as np
import pytest

import parse_oracle
from conftest import planar_grid, projective_k4
from surfwalk import covering_blowup, graph_core, rotation_system
from surfwalk.covering_blowup import hedgehog
from surfwalk.enumeration import enumerate_embeddings
from surfwalk.errors import GraphError
from surfwalk.graph_core import (
    SymmetricDigraph,
    arc_edge,
    arc_reverse,
    bfs_forest,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from surfwalk.rotation_system import detect_orientability, trace_faces
from surfwalk.scattering import orientability_from_scattering, scattering_matrix
from surfwalk.walk_dynamics import Coin


def test_complete_graph_counts():
    g = complete_graph(4)
    assert (g.vertex_count, g.arc_count, g.edge_count) == (4, 12, 6)
    assert complete_graph(3).arc_count == 6
    assert complete_graph(7).edge_count == 21


def test_complete_graph_rejects_small_n():
    with pytest.raises(GraphError):
        complete_graph(2)


def test_incoming_arcs_k4():
    g = complete_graph(4)
    arcs = g.incoming_arcs(0)
    assert len(arcs) == 3
    assert sorted(g.origin[e] for e in arcs) == [1, 2, 3]
    for x in range(4):
        assert len(g.incoming_arcs(x)) == g.degree(x) == 3


def test_incoming_arcs_path_middle_vertex():
    g = path_graph(3)
    assert len(g.incoming_arcs(1)) == 2


def test_incoming_arcs_unknown_vertex():
    with pytest.raises(GraphError):
        complete_graph(4).incoming_arcs(7)


def test_degree_sum_identity():
    for g in (complete_graph(5), cycle_graph(6), path_graph(4)):
        assert sum(len(g.incoming_arcs(x)) for x in range(g.vertex_count)) == g.arc_count
        assert g.arc_count == 2 * g.edge_count


def test_involution_structure():
    g = complete_graph(4)
    for e in range(g.arc_count):
        assert arc_reverse(arc_reverse(e)) == e
        assert arc_reverse(e) != e
        assert g.origin[arc_reverse(e)] == g.terminus[e]
        assert g.terminus[arc_reverse(e)] == g.origin[e]
        assert arc_edge(e) == arc_edge(arc_reverse(e))


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(GraphError):
        SymmetricDigraph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        SymmetricDigraph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        SymmetricDigraph.from_edges(2, [(0, 3)])


def test_connectivity():
    assert is_connected(complete_graph(5))
    g = SymmetricDigraph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


def _tree_pairs(g):
    """The forest of ``bfs_forest`` as (parent, child) pairs: tree arc ``e``
    runs from the child to the parent."""
    return [(g.terminus[e], g.origin[e]) for e in bfs_forest(g)]


def test_bfs_forest_connected_is_breadth_first():
    # Breadth first from vertex 0, neighbours in incoming-arc order: both
    # neighbours of 0 come before anything two steps away.
    assert _tree_pairs(cycle_graph(5)) == [(0, 1), (0, 4), (1, 2), (4, 3)]
    assert _tree_pairs(complete_graph(5)) == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert _tree_pairs(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]


def test_bfs_forest_disconnected_roots_each_tree_at_its_smallest_vertex():
    g = SymmetricDigraph.from_edges(7, [(4, 2), (0, 1), (3, 4), (2, 3)])
    # Components {0, 1} and {2, 3, 4}, and the isolated vertices 5 and 6;
    # vertex 2 reaches 4 through a smaller arc id than 3.
    forest = bfs_forest(g)
    assert _tree_pairs(g) == [(0, 1), (2, 4), (2, 3)]
    assert g.vertex_count - len(forest) == 4
    assert not is_connected(g)
    assert bfs_forest(SymmetricDigraph(1, (), ())) == []


def _count_searches(monkeypatch):
    """Count the calls of ``bfs_forest`` through each module's name for it,
    set whether or not the module imports it."""
    calls = []

    def counted(g):
        calls.append(g)
        return bfs_forest(g)

    for module in (graph_core, rotation_system, covering_blowup):
        monkeypatch.setattr(module, "bfs_forest", counted, raising=False)
    return calls


def test_one_search_behind_the_three_orientability_routes(monkeypatch):
    rs = projective_k4()
    calls = _count_searches(monkeypatch)
    assert not trace_faces(rs).orientable
    assert not detect_orientability(rs)[0]
    assert not orientability_from_scattering(scattering_matrix(hedgehog(rs), Coin.hadamard_type()))
    assert calls == [rs.graph]


def test_one_search_behind_the_census(monkeypatch):
    calls = _count_searches(monkeypatch)
    assert len(enumerate_embeddings(complete_graph(4))) == 11
    assert len(calls) == 1


def test_derived_arrays_are_shared_and_read_only():
    g = complete_graph(5)
    forest = g.spanning_forest
    arrays = (g.origin_array, g.terminus_array, forest.parent, forest.edge)
    assert g.origin_array is arrays[0] and g.terminus_array is arrays[1] and g.spanning_forest is forest
    assert g.origin_array.tolist() == list(g.origin) and g.terminus_array.tolist() == list(g.terminus)
    assert forest.arcs == tuple(bfs_forest(g))
    # Vertex 0 is the root, its own parent over edge 0; the others hang off it.
    assert forest.parent.tolist() == [0, 0, 0, 0, 0]
    assert forest.edge.tolist() == [0, 0, 1, 2, 3]
    for a in arrays:
        assert a.dtype == "int64" and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_derived_arrays_stay_out_of_equality_hash_repr_and_pickles():
    g = cycle_graph(6)
    before = (hash(g), repr(g), pickle.dumps(g))
    g.origin_array, g.terminus_array, g.spanning_forest
    assert (hash(g), repr(g), pickle.dumps(g)) == before
    assert g == cycle_graph(6)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and clone.origin_array is not g.origin_array


def test_replaced_graph_derives_its_own_arrays():
    g = path_graph(4)
    g.origin_array, g.spanning_forest
    same = dataclasses.replace(g)
    assert same.origin_array is not g.origin_array and same.spanning_forest is not g.spanning_forest
    assert same.origin_array.tolist() == g.origin_array.tolist()
    # A path 0-1-2-3 renumbered 0-3-2-1: the tree hangs the other way.
    other = dataclasses.replace(g, origin=(0, 3, 3, 2, 2, 1), terminus=(3, 0, 2, 3, 1, 2))
    assert other.origin_array.tolist() == [0, 3, 3, 2, 2, 1]
    assert other.spanning_forest.parent.tolist() == [0, 2, 3, 0]
    assert other.spanning_forest.edge.tolist() == [0, 2, 1, 0]


def _memo_peak(g):
    """The tracemalloc peak of deriving the memos of a fresh copy of ``g``."""
    fresh = dataclasses.replace(g)
    tracemalloc.start()
    try:
        fresh.origin_array, fresh.terminus_array, fresh.spanning_forest
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memo_memory_grows_linearly_in_arcs():
    # On K_n the vertex count grows like the square root of the arcs, on a
    # grid like the arcs themselves; either way the memo is linear in arcs.
    for graphs in ([complete_graph(n) for n in (16, 32, 64)], [planar_grid(n).graph for n in (30, 60)]):
        per_arc = [_memo_peak(g) / g.arc_count for g in graphs]
        assert all(later <= 2 * per_arc[0] for later in per_arc[1:]), per_arc
    assert _memo_peak(planar_grid(60).graph) < 1e6


def test_incoming_is_no_constructor_parameter():
    g = complete_graph(3)
    assert list(inspect.signature(SymmetricDigraph).parameters) == ["vertex_count", "origin", "terminus"]
    with pytest.raises(TypeError):
        SymmetricDigraph(3, g.origin, g.terminus, ((9,),))
    with pytest.raises(TypeError):
        SymmetricDigraph(3, g.origin, g.terminus, _incoming=((9,),))


# Arc pairs (o(2k), t(2k), o(2k+1), t(2k+1)) of one bad edge of each kind,
# in a graph on vertices 0..3 whose good edges are {0, 1} and {1, 2}, and
# the message that names it when it is edge k.
BAD_EDGES = {
    "unknown vertex": ((0, 9, 9, 0), "edge {k} references unknown vertex"),
    "self-loop": ((2, 2, 2, 2), "self-loop at vertex 2"),
    "non-inverse pair": ((2, 3, 3, 1), "arc pair {k} is not mutually inverse"),
    "duplicate edge": ((1, 0, 0, 1), "duplicate edge (0, 1)"),
}


def _digraph(arc_pairs):
    origin, terminus = [], []
    for o0, t0, o1, t1 in arc_pairs:
        origin += [o0, o1]
        terminus += [t0, t1]
    return SymmetricDigraph(4, tuple(origin), tuple(terminus))


@pytest.mark.parametrize("first", BAD_EDGES)
@pytest.mark.parametrize("second", BAD_EDGES)
def test_first_bad_edge_is_named(first, second):
    pair_a, message = BAD_EDGES[first]
    pair_b, _ = BAD_EDGES[second]
    if first == second:
        # A second edge of the same kind, with its own message.
        pair_b = {
            "unknown vertex": (3, 8, 8, 3),
            "self-loop": (3, 3, 3, 3),
            "non-inverse pair": (0, 3, 3, 2),
            "duplicate edge": (2, 1, 1, 2),
        }[first]
    arcs = [(0, 1, 1, 0), pair_a, (1, 2, 2, 1), pair_b]
    with pytest.raises(GraphError) as err:
        _digraph(arcs)
    assert str(err.value) == message.format(k=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymmetricDigraph(0, (), ()), "graph needs at least one vertex"),
        (lambda: SymmetricDigraph(2, (0, 1, 0), (1, 0, 1)), "arcs must come in reverse pairs"),
        (lambda: path_graph(3).arc_between(0, 2), "no edge between 0 and 2"),
        (lambda: cycle_graph(2), "cycle_graph requires n >= 3"),
        (lambda: path_graph(1), "path_graph requires n >= 2"),
    ],
    ids=["no-vertex", "odd-arc-count", "missing-edge", "short-cycle", "short-path"],
)
def test_invalid_input_raises_graph_error(build, message):
    with pytest.raises(GraphError) as err:
        build()
    assert err.type is GraphError
    assert str(err.value) == message


def _graph_or_error(build):
    try:
        return build()
    except GraphError as exc:
        return str(exc)


def test_array_validation_matches_the_edge_loop(rng):
    # Random arc tuples on up to 6 vertices, each arc pair most often sound
    # and otherwise broken in one of the four ways, against the per-edge
    # loop of tests/parse_oracle.py: the same first fault, or the same
    # incoming-arc lists.
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        origin, terminus = [], []
        for _ in range(int(rng.integers(0, 8))):
            u, v = (int(x) for x in rng.integers(-1, n + 1, 2))
            if rng.random() < 0.9:
                u, v = u % n, v % n
            pair = [u, v, v, u]
            if rng.random() < 0.1:
                pair[int(rng.integers(4))] = int(rng.integers(n))
            origin += [pair[0], pair[2]]
            terminus += [pair[1], pair[3]]
        o, t = tuple(origin), tuple(terminus)
        got = _graph_or_error(lambda: SymmetricDigraph(n, o, t))
        want = _graph_or_error(lambda: parse_oracle.validated(n, o, t))
        if isinstance(want, str):
            assert got == want, (n, o, t)
        else:
            assert (got.origin, got.terminus, got._incoming) == want
            assert got.origin_array.tolist() == list(o) and got.terminus_array.tolist() == list(t)


def test_from_edges_reads_pairs_and_arrays():
    pairs = [(4, 2), (0, 1), (3, 4), (2, 3)]
    g = SymmetricDigraph.from_edges(5, pairs)
    assert SymmetricDigraph.from_edges(5, np.array(pairs)) == g
    assert (g.origin, g.terminus) == ((4, 2, 0, 1, 3, 4, 2, 3), (2, 4, 1, 0, 4, 3, 3, 2))
    assert g._incoming == parse_oracle.digraph(5, pairs)[2]
    assert {type(i) for i in g.origin + g.terminus} == {int}


def test_ids_beyond_int64_are_unknown_vertices():
    with pytest.raises(GraphError, match="^edge 1 references unknown vertex$"):
        SymmetricDigraph(3, (0, 1, 2**64, 0), (1, 0, 0, 2**64))
    with pytest.raises(GraphError, match="^self-loop at vertex 2$"):
        SymmetricDigraph(3, (2, 2, 0, -(2**70)), (2, 2, -(2**70), 0))
    with pytest.raises(GraphError, match="^edge 1 references unknown vertex$"):
        SymmetricDigraph.from_edges(3, [(0, 1), (2**64, 0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: SymmetricDigraph(3, (0.5, 1, 1, 2, 2, 0), (1, 0.5, 2, 1, 0, 2)),
            "vertex id 0.5 at the origin of arc 0 is not an integer",
        ),
        (
            lambda: SymmetricDigraph(3, (0, 1, "1", 2, 2, 0), (1, 0, 2, "1", 0, 2)),
            "vertex id '1' at the origin of arc 2 is not an integer",
        ),
        (
            lambda: SymmetricDigraph(3, (0, 1, 1, 2, 2, 0), (1, 0, 2, 1.0, 0, 2)),
            "vertex id 1.0 at the terminus of arc 3 is not an integer",
        ),
        (
            lambda: SymmetricDigraph(3, np.array([0.0, 1, 1, 2, 2, 0]), np.array([1, 0, 2, 1, 0, 2])),
            "vertex id 0.0 at the origin of arc 0 is not an integer",
        ),
        (
            lambda: SymmetricDigraph.from_edges(3, np.array([[0, 1], [1, 2], [2, 0]], dtype=float)),
            "vertex id 0.0 at the origin of arc 0 is not an integer",
        ),
        (
            lambda: SymmetricDigraph.from_edges(3, [(0, 1), (1, 2.0), (2, 0)]),
            "vertex id 2.0 at the origin of arc 3 is not an integer",
        ),
        (
            lambda: SymmetricDigraph.from_edges(3, [(0, 1), ("0", 2)]),
            "vertex id '0' at the origin of arc 2 is not an integer",
        ),
        (lambda: SymmetricDigraph.from_edges(3, [(0, 1, 2)]), "edges must be (u, v) pairs"),
        (lambda: SymmetricDigraph.from_edges(3, [(0, 1), (1, 2, 0)]), "edges must be (u, v) pairs"),
        (lambda: SymmetricDigraph.from_edges(3, np.array([0, 1, 1, 2])), "edges must be (u, v) pairs"),
    ],
    ids=[
        "float-tuple",
        "string-tuple",
        "float-terminus",
        "float-array",
        "float-edge-array",
        "float-edge-list",
        "string-edge-list",
        "triple",
        "ragged",
        "flat-array",
    ],
)
def test_ids_that_are_no_integers_name_their_arc(build, message):
    # Nothing is truncated or parsed: a float, even a whole one, or a
    # string is no vertex id, on the tuple path and on the array path.
    with pytest.raises(GraphError) as err:
        build()
    assert str(err.value) == message


def test_array_input_is_kept_and_its_tuples_are_ints():
    g = complete_graph(5)
    origin, terminus = np.array(g.origin), np.array(g.terminus)
    built = SymmetricDigraph(5, origin, terminus)
    # The int64 arrays given are the ones validated, kept and made read-only.
    assert built.origin_array is origin and built.terminus_array is terminus
    assert not origin.flags.writeable and not terminus.flags.writeable
    assert built == g and hash(built) == hash(g) and built._incoming == g._incoming
    assert {type(i) for i in built.origin + built.terminus} == {int}
    # Another integer dtype is converted once.
    narrow = SymmetricDigraph(5, np.array(g.origin, dtype=np.int32), np.array(g.terminus, dtype=np.uint8))
    assert narrow == g and narrow.origin_array.dtype == np.int64
    # An unsigned id past int64 names no vertex; it is not wrapped into one.
    with pytest.raises(GraphError, match="^edge 0 references unknown vertex$"):
        SymmetricDigraph(3, np.array([2**63, 1], dtype=np.uint64), np.array([1, 2**63], dtype=np.uint64))


def test_from_edges_builds_the_arrays_once():
    pairs = [(4, 2), (0, 1), (3, 4), (2, 3)]
    edges = np.array(pairs)
    g = SymmetricDigraph.from_edges(5, edges)
    # The edge array is copied, not kept: the caller may still write to it.
    assert not np.shares_memory(g.origin_array, edges) and edges.flags.writeable
    assert g.origin_array.tolist() == [4, 2, 0, 1, 3, 4, 2, 3]
    assert g.terminus_array.tolist() == [2, 4, 1, 0, 4, 3, 3, 2]
    assert SymmetricDigraph.from_edges(5, []) == SymmetricDigraph(5, (), ())
    assert SymmetricDigraph.from_edges(3, [(True, 2), (0, 2)]).origin == (1, 2, 0, 2)

import pytest

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


def test_bfs_forest_connected_is_breadth_first():
    # Breadth first from vertex 0, neighbours in incoming-arc order: both
    # neighbours of 0 come before anything two steps away.
    assert bfs_forest(cycle_graph(5)) == [(0, 1), (0, 4), (1, 2), (4, 3)]
    assert bfs_forest(complete_graph(5)) == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert bfs_forest(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]


def test_bfs_forest_disconnected_roots_each_tree_at_its_smallest_vertex():
    g = SymmetricDigraph.from_edges(7, [(4, 2), (0, 1), (3, 4), (2, 3)])
    # Components {0, 1} and {2, 3, 4}, and the isolated vertices 5 and 6;
    # vertex 2 reaches 4 through a smaller arc id than 3.
    forest = bfs_forest(g)
    assert forest == [(0, 1), (2, 4), (2, 3)]
    assert g.vertex_count - len(forest) == 4
    assert not is_connected(g)
    assert bfs_forest(SymmetricDigraph(1, (), ())) == []

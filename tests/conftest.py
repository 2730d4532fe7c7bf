import itertools

import numpy as np
import pytest

from surfwalk.graph_core import SymmetricDigraph, complete_graph
from surfwalk.rotation_system import RotationSystem
from surfwalk.walk_dynamics import Coin

# Clockwise planar rotation of K4 (the sphere embedding).  The edge order
# of complete_graph(4) puts {0,1} first, so twisting edge 0 turns it into
# the standard projective-plane system with faces [6,3,3].
PLANAR_K4_ORDERS = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def planar_k4(twists=None):
    return RotationSystem.from_neighbor_orders(complete_graph(4), PLANAR_K4_ORDERS, twists)


def projective_k4():
    return planar_k4([1, 0, 0, 0, 0, 0])


def grid_graph(n):
    """The n x n grid graph; vertex i n + j sits at row i, column j."""
    edges = [(i * n + j, i * n + j + 1) for i in range(n) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j) for i in range(n - 1) for j in range(n)]
    return SymmetricDigraph.from_edges(n * n, edges)


def planar_grid(n):
    """The n x n grid drawn in the plane, every twist cleared: each vertex
    lists its neighbours counterclockwise, so the faces are the unit
    squares and the outer cycle, on the sphere."""
    orders = []
    for i in range(n):
        for j in range(n):
            around = [(i, j + 1), (i - 1, j), (i, j - 1), (i + 1, j)]
            orders.append([r * n + c for r, c in around if 0 <= r < n and 0 <= c < n])
    return RotationSystem.from_neighbor_orders(grid_graph(n), orders)


def random_simple_graph(rng, max_vertices=6):
    """A connected simple graph with minimum degree 2 (rotation-ready)."""
    while True:
        n = rng.integers(3, max_vertices + 1)
        pairs = list(itertools.combinations(range(n), 2))
        keep = [p for p in pairs if rng.random() < 0.6]
        g_try = None
        if keep:
            try:
                g_try = SymmetricDigraph.from_edges(n, keep)
            except Exception:
                g_try = None
        if g_try is None:
            continue
        from surfwalk.graph_core import is_connected

        if is_connected(g_try) and all(g_try.degree(x) >= 2 for x in range(n)):
            return g_try


def random_rotation_system(rng, graph=None, max_vertices=6):
    g = graph if graph is not None else random_simple_graph(rng, max_vertices)
    rot = [0] * g.arc_count
    for x in range(g.vertex_count):
        ax = list(g.incoming_arcs(x))
        order = [ax[0]] + list(rng.permutation(ax[1:]))
        for i, e in enumerate(order):
            rot[e] = order[(i + 1) % len(order)]
    twist = tuple(int(t) for t in rng.integers(0, 2, g.edge_count))
    return RotationSystem(g, tuple(rot), twist)


def decomposition_fields(fd):
    """Every field of a FacialDecomposition, each self-intersection dict as
    its item list, so that item order counts.  ``==`` on decompositions
    reads the system alone."""
    return (
        fd.rs,
        fd.faces,
        [list(hits.items()) for hits in fd.self_intersections],
        fd.orientable,
        fd.genus,
        fd.cover_base,
        fd._face_data,
    )


def random_d_real_coin(rng, max_a=0.9):
    s = float(rng.uniform(0.05, max_a)) * (1 if rng.random() < 0.5 else -1)
    return Coin.from_params(s, float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 2 * np.pi)))


@pytest.fixture(scope="session")
def k4_classes():
    from surfwalk.enumeration import enumerate_embeddings

    return enumerate_embeddings(complete_graph(4))


@pytest.fixture(scope="session")
def k5_classes():
    from surfwalk.enumeration import enumerate_embeddings

    return enumerate_embeddings(complete_graph(5))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

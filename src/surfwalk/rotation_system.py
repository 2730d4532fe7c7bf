"""Rotation systems (G, rho, tau) and their facial structure.

A rotation system pins a two-cell embedding of the graph on a closed
surface: ``rho`` is the cyclic order of incoming arcs at each vertex and
``tau`` marks twisted (type-1) edges.  Face tracing runs on states
``(arc, parity)`` where the parity is the running twist sum, i.e. on the
arcs of the tau-double-cover; traced orbits come in chiral pairs and each
pair is one face of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import GraphError
from .graph_core import (
    SymmetricDigraph,
    arc_edge,
    arc_reverse,
    is_connected,
    permutation_cycles,
)

__all__ = [
    "RotationSystem",
    "FacialDecomposition",
    "trace_faces",
    "euler_genus",
    "detect_orientability",
    "flip_vertex",
    "mirror",
]


@dataclass(frozen=True)
class RotationSystem:
    """(G, rho, tau): rotation ``rot[e]`` is the cyclic successor of arc
    ``e`` among the arcs into t(e); ``twist[k]`` is tau of edge ``k``."""

    graph: SymmetricDigraph
    rot: tuple[int, ...]
    twist: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        if len(self.rot) != g.arc_count:
            raise GraphError("rotation must cover every arc")
        if len(self.twist) != g.edge_count:
            raise GraphError("twist must cover every edge")
        if any(t not in (0, 1) for t in self.twist):
            raise GraphError("twists must be 0 or 1")
        for x in range(g.vertex_count):
            ax = g.incoming_arcs(x)
            if len(ax) < 2:
                raise GraphError(
                    f"vertex {x} has degree {len(ax)}; a fixed-point-free "
                    "cyclic rotation needs degree >= 2"
                )
            # rho_x must be one cycle through all of A_x with no fixed point.
            e = ax[0]
            seen = []
            while True:
                nxt = self.rot[e]
                if g.terminus[nxt] != x:
                    raise GraphError(f"rotation leaves A_{x} at arc {e}")
                if nxt == e:
                    raise GraphError(f"rotation fixes arc {e}")
                seen.append(nxt)
                e = nxt
                if e == ax[0]:
                    break
                if len(seen) > len(ax):
                    raise GraphError(f"rotation at vertex {x} is not a single cycle")
            if len(seen) != len(ax):
                raise GraphError(f"rotation at vertex {x} is not a single cycle")

    @classmethod
    def from_neighbor_orders(
        cls,
        graph: SymmetricDigraph,
        orders: Sequence[Sequence[int]],
        twists: Sequence[int] | None = None,
    ) -> "RotationSystem":
        """Build from per-vertex cyclic neighbor lists.

        ``orders[x]`` lists the neighbors of ``x`` in cyclic order; the
        rotation maps the incoming arc from ``orders[x][i]`` to the one from
        ``orders[x][i + 1]``.  This is the format of the CLI files and of the
        usual ``clockwise at each vertex`` picture.
        """
        rot = [0] * graph.arc_count
        for x, order in enumerate(orders):
            ax = graph.incoming_arcs(x)
            nbrs = sorted(graph.origin[e] for e in ax)
            if sorted(order) != nbrs:
                raise GraphError(
                    f"rotation at vertex {x} must list its neighbors {nbrs} exactly once"
                )
            arcs = [graph.arc_between(u, x) for u in order]
            for i, e in enumerate(arcs):
                rot[e] = arcs[(i + 1) % len(arcs)]
        if twists is None:
            twists = [0] * graph.edge_count
        return cls(graph, tuple(rot), tuple(twists))

    def neighbor_orders(self) -> list[list[int]]:
        """Inverse of :meth:`from_neighbor_orders` (starts at the smallest arc)."""
        g = self.graph
        out = []
        for x in range(g.vertex_count):
            e0 = g.incoming_arcs(x)[0]
            order, e = [], e0
            while True:
                order.append(g.origin[e])
                e = self.rot[e]
                if e == e0:
                    break
            out.append(order)
        return out

    def rot_inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.rot)
        for e, f in enumerate(self.rot):
            inv[f] = e
        return tuple(inv)


def flip_vertex(rs: RotationSystem, x: int) -> RotationSystem:
    """The embedding-preserving vertex move: invert rho_x and toggle the
    twist of every edge incident to x."""
    g = rs.graph
    if not (0 <= x < g.vertex_count):
        raise GraphError(f"unknown vertex {x}")
    rot = list(rs.rot)
    for e in g.incoming_arcs(x):
        rot[rs.rot[e]] = e
    twist = list(rs.twist)
    for e in g.incoming_arcs(x):
        twist[arc_edge(e)] ^= 1
    return RotationSystem(g, tuple(rot), tuple(twist))


def mirror(rs: RotationSystem) -> RotationSystem:
    """The chiral system (G, rho^-1, tau)."""
    return RotationSystem(rs.graph, rs.rot_inverse(), rs.twist)


# --------------------------------------------------------------------------
# Face tracing.
#
# A trace state is 2*e + s: arc e together with the parity s of the twist
# sum accumulated up to and including e.  The successor applies rho (s = 0)
# or rho^-1 (s = 1), flips to the inverse arc and absorbs the new edge's
# twist into the parity.  States are exactly the arcs of the double cover,
# and the chiral involution (reverse the walk on the opposite sheet) is
# chi(e, s) = (e-bar, s + tau(e) + 1).
# --------------------------------------------------------------------------


def _successor_table(rs: RotationSystem) -> list[int]:
    g = rs.graph
    rot_inv = rs.rot_inverse()
    succ = [0] * (2 * g.arc_count)
    for e in range(g.arc_count):
        for s in (0, 1):
            nxt = arc_reverse(rs.rot[e] if s == 0 else rot_inv[e])
            succ[2 * e + s] = 2 * nxt + (s ^ rs.twist[arc_edge(nxt)])
    return succ


def _chi(rs: RotationSystem, state: int) -> int:
    e, s = state >> 1, state & 1
    return 2 * arc_reverse(e) + (s ^ rs.twist[arc_edge(e)] ^ 1)


@dataclass(frozen=True)
class FacialDecomposition:
    """All facial walks of a rotation system.

    ``cover_faces`` are the traced orbits on (arc, parity) states, each
    starting at its smallest state, in pairs ``chiral_partner[i]`` of
    mutually reversed walks; ``representative`` flags one orbit per pair.
    ``faces`` are the representatives projected to base arcs: the facial
    walks of (G, rho, tau), each face reported once.  Self-intersections are
    the edges a face crosses in both directions, stored with the two
    distances between the crossings along the walk.
    """

    rs: RotationSystem
    cover_faces: tuple[tuple[int, ...], ...]
    chiral_partner: tuple[int, ...]
    representative: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]
    self_intersections: tuple[dict[int, tuple[int, int]], ...]
    orientable: bool
    genus: int
    state_face: tuple[tuple[int, int], ...] = field(repr=False, compare=False, default=())
    cover_base: tuple[tuple[int, bool], ...] = field(repr=False, compare=False, default=())

    @property
    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted((len(f) for f in self.faces), reverse=True))

    def face_of(self, state: int) -> tuple[int, int]:
        """(cover face index, position) of a trace state ``2*arc + parity``."""
        return self.state_face[state]

    def base_face_of(self, cover_index: int) -> tuple[int, bool]:
        """(base face index, is_chiral_copy) of a cover face."""
        if not 0 <= cover_index < len(self.cover_base):
            raise GraphError(f"no cover face {cover_index}")
        return self.cover_base[cover_index]


def trace_faces(rs: RotationSystem) -> FacialDecomposition:
    """Trace every facial walk and derive genus and orientability."""
    g = rs.graph
    orbits, orbit_of, position = permutation_cycles(_successor_table(rs))

    # Pair each orbit with its chiral partner; a self-paired orbit would
    # break the face count and is rejected loudly.
    partner = [-1] * len(orbits)
    for i, orbit in enumerate(orbits):
        j = orbit_of[_chi(rs, orbit[0])]
        if j == i:
            raise GraphError("facial walk equals its own chiral reverse")
        partner[i] = j

    # Each orbit starts at its smallest state; the representative of a pair
    # is the orbit whose projected arc sequence is lexicographically smaller.
    arcs = [tuple(s >> 1 for s in orbit) for orbit in orbits]
    reps = [i if arcs[i] <= arcs[j] else j for i, j in enumerate(partner) if i < j]
    reps.sort(key=lambda i: arcs[i])

    cover_base: list[tuple[int, bool]] = [(-1, False)] * len(orbits)
    for base, i in enumerate(reps):
        cover_base[i] = (base, False)
        cover_base[partner[i]] = (base, True)

    # Self-intersections: state (e, s) meets its reverse (e-bar, s ^ tau(e))
    # on the same orbit; record per edge the forward/backward distances.
    self_int: list[dict[int, tuple[int, int]]] = []
    for i in reps:
        r = len(orbits[i])
        hits: dict[int, tuple[int, int]] = {}
        for p, s in enumerate(orbits[i]):
            e = s >> 1
            rev = 2 * arc_reverse(e) + ((s & 1) ^ rs.twist[arc_edge(e)])
            if orbit_of[rev] == i:
                d1 = (position[rev] - p) % r
                hits[arc_edge(e)] = (min(d1, r - d1), max(d1, r - d1))
        self_int.append(hits)

    orientable, _ = detect_orientability(rs)
    n_faces = len(reps)
    chi_euler = g.vertex_count - g.edge_count + n_faces
    if orientable:
        if (2 - chi_euler) % 2:
            raise GraphError("Euler characteristic is odd on an orientable surface")
        genus = (2 - chi_euler) // 2
    else:
        genus = 2 - chi_euler

    return FacialDecomposition(
        rs=rs,
        cover_faces=tuple(map(tuple, orbits)),
        chiral_partner=tuple(partner),
        representative=tuple(reps),
        faces=tuple(arcs[i] for i in reps),
        self_intersections=tuple(self_int),
        orientable=orientable,
        genus=genus,
        state_face=tuple(zip(orbit_of, position)),
        cover_base=tuple(cover_base),
    )


def euler_genus(rs: RotationSystem) -> tuple[bool, int]:
    """(orientable, genus) of the embedded surface, via Euler's formula."""
    if not is_connected(rs.graph):
        raise GraphError("genus is defined for connected graphs only")
    fd = trace_faces(rs)
    return fd.orientable, fd.genus


def _bfs_tree(g: SymmetricDigraph) -> list[tuple[int, int]]:
    """BFS spanning tree rooted at vertex 0, as (parent, child) pairs in
    discovery order."""
    seen = [False] * g.vertex_count
    seen[0] = True
    queue = [0]
    tree = []
    while queue:
        x = queue.pop(0)
        for e in g.incoming_arcs(x):
            y = g.origin[e]
            if not seen[y]:
                seen[y] = True
                tree.append((x, y))
                queue.append(y)
    if not all(seen):
        raise GraphError("orientability detection needs a connected graph")
    return tree


def detect_orientability(rs: RotationSystem) -> tuple[bool, RotationSystem]:
    """Normalize twists along a spanning tree by vertex flips; the surface is
    non-orientable iff a twisted edge survives outside the tree."""
    g = rs.graph
    tree = _bfs_tree(g)
    out = rs
    tree_edges = set()
    for parent, child in tree:
        e = g.arc_between(parent, child)
        tree_edges.add(arc_edge(e))
        if out.twist[arc_edge(e)]:
            out = flip_vertex(out, child)
    orientable = all(
        out.twist[k] == 0 for k in range(g.edge_count) if k not in tree_edges
    )
    return orientable, out

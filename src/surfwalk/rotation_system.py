"""Rotation systems (G, rho, tau) and their facial structure.

A rotation system pins a two-cell embedding of the graph on a closed
surface: ``rho`` is the cyclic order of incoming arcs at each vertex and
``tau`` marks twisted (type-1) edges.  Face tracing runs on the arcs of
the tau-double-cover, whose numbering is fixed here once (see
:func:`_cover_arcs`); traced walks come in chiral pairs and each pair is
one face of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add, sub
from typing import Sequence

from .errors import GraphError
from .graph_core import (
    SymmetricDigraph,
    arc_edge,
    bfs_forest,
    permutation_cycles,
)

__all__ = [
    "RotationSystem",
    "FacialDecomposition",
    "trace_faces",
    "detect_orientability",
    "flip_vertex",
    "mirror",
]


@dataclass(frozen=True)
class RotationSystem:
    """(G, rho, tau): rotation ``rot[e]`` is the cyclic successor of arc
    ``e`` among the arcs into t(e); ``twist[k]`` is tau of edge ``k``.

    The double cover is traced at most once per system: ``_cover`` and
    ``_walks`` hold the cover arcs and the walks on them, and ``_hedgehog``
    the tailed blow-up built from them, each computed on first read, kept
    out of ``==``, ``hash``, ``repr`` and pickles, and read only: their
    lists are never changed and the blow-up's arrays are not writeable.
    """

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
        if self.rot and not (0 <= min(self.rot) and max(self.rot) < len(self.rot)):
            raise GraphError(f"rotation names an arc outside 0..{len(self.rot) - 1}")
        rot, terminus = self.rot, g.terminus
        if len(set(rot)) != len(rot):
            raise GraphError("successor map is not a permutation")
        for x, ax in enumerate(g._incoming):
            if len(ax) < 2:
                raise GraphError(
                    f"vertex {x} has degree {len(ax)}; a fixed-point-free "
                    "cyclic rotation needs degree >= 2"
                )
            # rho_x must be one cycle through all of A_x (so no fixed point).
            for e in ax:
                if terminus[rot[e]] != x:
                    raise GraphError(f"rotation leaves A_{x} at arc {e}")
            # rho is a permutation that keeps A_x, so the cycle through the
            # first arc of A_x stays in A_x.
            first = ax[0]
            e, length = rot[first], 1
            while e != first:
                e, length = rot[e], length + 1
            if length != len(ax):
                raise GraphError(f"rotation at vertex {x} is not a single cycle")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_cover", "_walks", "_hedgehog")}

    @cached_property
    def _cover(self) -> tuple[list[int], list[int], list[int]]:
        """The cover rotation, ``lift`` and ``state`` of :func:`_cover_arcs`."""
        return _cover_arcs(self)

    @cached_property
    def _walks(self) -> tuple[tuple[tuple[int, ...], ...], list[int], list[int]]:
        """The cycles of the face successor ``rot[c] ^ 1`` on cover arcs, with
        each arc's walk and position, as :func:`permutation_cycles` lists them."""
        walks, walk_of, position = permutation_cycles([c ^ 1 for c in self._cover[0]])
        return tuple(map(tuple, walks)), walk_of, position

    @cached_property
    def _hedgehog(self):
        """The blow-up :func:`surfwalk.covering_blowup.hedgehog` returns."""
        from .covering_blowup import blow_up, double_cover

        return blow_up(double_cover(self))

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
            arc_from = {graph.origin[e]: e for e in graph.incoming_arcs(x)}
            if len(order) != len(arc_from) or arc_from.keys() != set(order):
                raise GraphError(
                    f"rotation at vertex {x} must list its neighbors {sorted(arc_from)} exactly once"
                )
            arcs = [arc_from[u] for u in order]
            for i, e in enumerate(arcs):
                rot[e] = arcs[(i + 1) % len(arcs)]
        if twists is None:
            twists = [0] * graph.edge_count
        return cls(graph, tuple(rot), tuple(twists))

    def neighbor_orders(self) -> list[list[int]]:
        """Inverse of :meth:`from_neighbor_orders` (starts at the smallest arc)."""
        g = self.graph
        cycles, cycle_of, _ = permutation_cycles(self.rot)
        return [
            [g.origin[e] for e in cycles[cycle_of[g.incoming_arcs(x)[0]]]]
            for x in range(g.vertex_count)
        ]

    def rot_inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.rot)
        for e, f in enumerate(self.rot):
            inv[f] = e
        return tuple(inv)


def _flipped(rs: RotationSystem, flip_bits: Sequence[int]) -> RotationSystem:
    """The system after the vertex move at every x with ``flip_bits[x]`` set:
    rho is inverted at each flipped vertex and the twist of each edge is
    toggled once per flipped end."""
    g = rs.graph
    rot, twist = list(rs.rot), list(rs.twist)
    for x in range(g.vertex_count):
        if flip_bits[x]:
            for e in g.incoming_arcs(x):
                rot[rs.rot[e]] = e
                twist[arc_edge(e)] ^= 1
    return RotationSystem(g, tuple(rot), tuple(twist))


def flip_vertex(rs: RotationSystem, x: int) -> RotationSystem:
    """The embedding-preserving vertex move: invert rho_x and toggle the
    twist of every edge incident to x."""
    g = rs.graph
    if not (0 <= x < g.vertex_count):
        raise GraphError(f"unknown vertex {x}")
    flip_bits = [0] * g.vertex_count
    flip_bits[x] = 1
    return _flipped(rs, flip_bits)


def mirror(rs: RotationSystem) -> RotationSystem:
    """The chiral system (G, rho^-1, tau)."""
    return RotationSystem(rs.graph, rs.rot_inverse(), rs.twist)


# --------------------------------------------------------------------------
# Face tracing.
#
# Faces are traced on the arcs of the tau-double-cover, numbered once, here.
# Base edge k = {u, v} (arc 2k = u -> v, arc 2k + 1 = v -> u) owns cover arcs
# 4k .. 4k+3: cover arc c lies over base arc 2(c >> 2) + (c & 1), and its
# terminus is on sheet ((c >> 1) & 1) ^ tau_k for even c and on sheet
# (c >> 1) & 1 for odd c.  So c ^ 1 is the reverse arc, c ^ 2 the same base
# arc on the other sheet, c ^ 3 the chiral reverse (the reversed walk on the
# opposite sheet) and c >> 2 the base edge.  A state is 2 * base arc + sheet;
# sheet 0 carries rho and sheet 1 rho^-1.
# --------------------------------------------------------------------------


def _cover_arcs(rs: RotationSystem) -> tuple[list[int], list[int], list[int]]:
    """The double cover's rotation, ``lift`` (the cover arc of each state)
    and ``state`` (the state of each cover arc)."""
    n = 4 * len(rs.twist)
    # Cover arcs 4k .. 4k+3 lie over base arcs 2k, 2k + 1, 2k, 2k + 1 and
    # carry states 4k + tau_k, 4k + 2, 4k + 1 - tau_k, 4k + 3.
    state = list(range(n))
    state[0::4] = map(add, range(0, n, 4), rs.twist)
    state[1::4] = range(2, n, 4)
    state[2::4] = map(sub, range(1, n, 4), rs.twist)
    lift = [0] * n
    for c, s in enumerate(state):
        lift[s] = c
    # Sheet 0 turns the lift of e to the lift of rho(e); sheet 1 turns the
    # lift of rho(e) back to the lift of e.
    up, down = lift[0::2], lift[1::2]
    cover_rot = [0] * n
    for c, d in zip(up, map(up.__getitem__, rs.rot)):
        cover_rot[c] = d
    for c, d in zip(map(down.__getitem__, rs.rot), down):
        cover_rot[c] = d
    return cover_rot, lift, state


@dataclass(frozen=True)
class FacialDecomposition:
    """All facial walks of a rotation system.

    ``cover_faces`` are the extended facial walks: the cycles of the face
    successor ``rot[c] ^ 1`` on cover arcs, each starting at its smallest
    cover arc and listed in that order, so they equal the hedgehog's
    ``faces``.  They come in chiral pairs (``c`` and ``c ^ 3``), and
    ``cover_base[i]`` is (base face index, is_chiral_copy) of walk ``i``.
    ``faces`` are the representatives projected to base arcs, each read
    from its smallest state ``2 * base arc + sheet``: the facial walks of
    (G, rho, tau), each face reported once and sorted by arc sequence.
    Self-intersections are the edges a face crosses in both directions,
    stored with the two distances between the crossings along the walk.
    """

    rs: RotationSystem
    cover_faces: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    self_intersections: tuple[dict[int, tuple[int, int]], ...]
    orientable: bool
    genus: int
    cover_base: tuple[tuple[int, bool], ...] = field(repr=False, compare=False, default=())

    @property
    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted((len(f) for f in self.faces), reverse=True))


def trace_faces(rs: RotationSystem) -> FacialDecomposition:
    """Trace every facial walk and derive genus and orientability."""
    g = rs.graph
    _, lift, state = rs._cover
    walks, walk_of, position = rs._walks

    # A walk is read from its smallest state; the key (arc sequence, that
    # state) picks the representative of each chiral pair and orders them.
    starts = [lift[min(map(state.__getitem__, walk))] for walk in walks]
    read = [walk[position[c0]:] + walk[: position[c0]] for walk, c0 in zip(walks, starts)]
    proj = [s >> 1 for s in state]
    arcs = [tuple(map(proj.__getitem__, walk)) for walk in read]
    key = [(a, state[c0]) for a, c0 in zip(arcs, starts)]

    # Pair each walk with its chiral partner; a self-paired walk would break
    # the face count and is rejected loudly.
    partner = [walk_of[walk[0] ^ 3] for walk in walks]
    reps = [i if key[i] <= key[j] else j for i, j in enumerate(partner) if i < j]
    if 2 * len(reps) != len(walks):
        raise GraphError("facial walk equals its own chiral reverse")
    reps.sort(key=key.__getitem__)

    cover_base: list[tuple[int, bool]] = [(-1, False)] * len(walks)
    for base, i in enumerate(reps):
        cover_base[i] = (base, False)
        cover_base[partner[i]] = (base, True)

    # Self-intersections: cover arc c meets its reverse c ^ 1 on the same
    # walk; record per edge the forward/backward distances.
    self_int: list[dict[int, tuple[int, int]]] = []
    for i in reps:
        r = len(walks[i])
        hits: dict[int, tuple[int, int]] = {}
        for c in read[i]:
            if walk_of[c ^ 1] == i:
                d1 = (position[c ^ 1] - position[c]) % r
                hits[c >> 2] = (min(d1, r - d1), max(d1, r - d1))
        self_int.append(hits)

    orientable, _ = _tree_flips(rs)
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
        cover_faces=walks,
        faces=tuple(arcs[i] for i in reps),
        self_intersections=tuple(self_int),
        orientable=orientable,
        genus=genus,
        cover_base=tuple(cover_base),
    )


def _tree_flips(rs: RotationSystem) -> tuple[bool, list[int]]:
    """Twist normalisation along a BFS spanning tree, from the twist bits.

    Walking the tree in discovery order, a child is flipped iff its tree
    edge, after the flip of its parent, is still twisted.  An edge then ends
    up twisted iff its own twist and the flips of its two ends disagree; the
    surface is non-orientable iff such an edge survives (only non-tree edges
    can).  Returns (orientable, flip bit per vertex).
    """
    g = rs.graph
    tree = bfs_forest(g)
    if len(tree) != g.vertex_count - 1:
        raise GraphError("orientability and genus need a connected graph")
    flip = [0] * g.vertex_count
    for parent, child in tree:
        flip[child] = flip[parent] ^ rs.twist[arc_edge(g.arc_between(parent, child))]
    orientable = all(
        t == flip[u] ^ flip[v] for t, u, v in zip(rs.twist, g.origin[::2], g.terminus[::2])
    )
    return orientable, flip


def detect_orientability(rs: RotationSystem) -> tuple[bool, RotationSystem]:
    """Normalize twists along a spanning tree by vertex flips; the surface is
    non-orientable iff a twisted edge survives outside the tree.  The
    normalized system is built once, with every tree flip applied together."""
    orientable, flip = _tree_flips(rs)
    return orientable, _flipped(rs, flip)

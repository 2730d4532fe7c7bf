"""Double covering and blow-up of a rotation system.

The Z2 voltage lift by the twists gives the double cover; replacing each of
its vertices by the directed cycle of its rotation gives the blow-up graph
on which the walk lives.  Blow-up vertices are the cover arcs; island arc
``g`` runs from cover arc ``g`` to ``rot[g]`` and bridge arc ``g`` runs from
``g`` to ``g-bar``, so both families are indexed by cover arc ids and all
incidence maps are array lookups.

Hedgehog tails cut every island arc at a boundary vertex; a tail is
identified by the island arc it sits on, and the bijection with bridges is
``phi(bridge g) = tail on island g-bar``.  :func:`hedgehog` is the one path
from a rotation system to that tailed blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph_core import SymmetricDigraph, arc_edge, permutation_cycles
from .rotation_system import RotationSystem

__all__ = [
    "DoubleCover",
    "BlowUpGraph",
    "double_cover",
    "blow_up",
    "attach_hedgehog",
    "hedgehog",
]


@dataclass(frozen=True)
class DoubleCover:
    """The cover (G^tau, rho + rho^-1, id).

    Cover vertex ``2x + s`` is base vertex ``x`` on sheet ``s``; sheet 0
    carries rho, sheet 1 carries rho^-1.  ``lift[2e + s]`` is the cover arc
    of base arc ``e`` whose terminus lies on sheet ``s``; ``proj`` and
    ``sheet`` invert that.
    """

    base: RotationSystem
    graph: SymmetricDigraph
    lift: tuple[int, ...]
    proj: tuple[int, ...]
    sheet: tuple[int, ...]
    rot: tuple[int, ...]
    components: int

    @property
    def arc_count(self) -> int:
        return self.graph.arc_count

    def arc_to_state(self, c: int) -> int:
        return 2 * self.proj[c] + self.sheet[c]


def double_cover(rs: RotationSystem) -> DoubleCover:
    g = rs.graph
    n, m = g.vertex_count, g.edge_count

    # Cover edge 2k + j joins (u, j) and (v, j + tau) for base edge k = {u, v};
    # its arcs keep the u -> v arc first, matching the base pair order.
    edges = []
    for k in range(m):
        u, v = g.origin[2 * k], g.terminus[2 * k]
        t = rs.twist[k]
        edges.append((2 * u + 0, 2 * v + (t & 1)))
        edges.append((2 * u + 1, 2 * v + (1 ^ t)))
    cover = SymmetricDigraph.from_edges(2 * n, edges)

    lift = [0] * (2 * g.arc_count)
    for k in range(m):
        t = rs.twist[k]
        for s in (0, 1):
            lift[2 * (2 * k) + s] = 2 * (2 * k + (s ^ t))       # u -> v lift
            lift[2 * (2 * k + 1) + s] = 2 * (2 * k + s) + 1     # v -> u lift
    proj = [0] * cover.arc_count
    sheet = [0] * cover.arc_count
    for e in range(g.arc_count):
        for s in (0, 1):
            proj[lift[2 * e + s]] = e
            sheet[lift[2 * e + s]] = s

    rot_inv = rs.rot_inverse()
    rot = [0] * cover.arc_count
    for c in range(cover.arc_count):
        e, s = proj[c], sheet[c]
        nxt = rs.rot[e] if s == 0 else rot_inv[e]
        rot[c] = lift[2 * nxt + s]

    # Component count of the cover (1 iff the base embedding is non-orientable).
    seen = [False] * cover.vertex_count
    components = 0
    for start in range(cover.vertex_count):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            for a in cover.incoming_arcs(x):
                y = cover.origin[a]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)

    return DoubleCover(
        base=rs,
        graph=cover,
        lift=tuple(lift),
        proj=tuple(proj),
        sheet=tuple(sheet),
        rot=tuple(rot),
        components=components,
    )


@dataclass(frozen=True)
class BlowUpGraph:
    """Blow-up of the double cover, plus tail bookkeeping.

    ``rot``/``rot_inv`` are the island successor maps, ``bridge_sign`` holds
    (-1)^tau per bridge, and ``faces`` lists every extended facial walk as
    the cyclic sequence of island arc ids it visits (both chiral copies, so
    the walks partition all islands).  ``boundary`` marks the island arcs
    carrying a tail; tails never exist as paths, only as these marks.
    """

    cover: DoubleCover
    rot: np.ndarray
    rot_inv: np.ndarray
    bar: np.ndarray
    bridge_twist: np.ndarray
    bridge_sign: np.ndarray
    island_of: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    boundary: np.ndarray

    @property
    def size(self) -> int:
        """Number of blow-up vertices = islands = bridges."""
        return len(self.rot)

    @property
    def hedgehog(self) -> bool:
        return bool(self.boundary.all())

    def boundary_islands(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    # Incidence maps between islands and bridges, all O(1):
    def br(self, g: int) -> int:
        """Bridge into the origin of island arc g."""
        return int(self.bar[g])

    def br_sharp(self, g: int) -> int:
        """Bridge into the terminus of island arc g."""
        return int(self.bar[self.rot[g]])

    def is_(self, g: int) -> int:
        """Island arc into the origin of bridge g."""
        return int(self.rot_inv[g])

    def is_sharp(self, g: int) -> int:
        """Island arc out of the origin of bridge g."""
        return g

    def tail_of_bridge(self, g: int) -> int:
        """phi: the boundary vertex fed by bridge g, named by its island arc."""
        return int(self.bar[g])

    def bridge_of_tail(self, i: int) -> int:
        return int(self.bar[i])


def blow_up(dc: DoubleCover, boundary=None) -> BlowUpGraph:
    """Blow up the double cover; ``boundary`` selects tailed island arcs
    (defaults to none; see :func:`attach_hedgehog`)."""
    n = dc.arc_count
    rot = np.array(dc.rot, dtype=np.int64)
    rot_inv = np.zeros(n, dtype=np.int64)
    rot_inv[rot] = np.arange(n)
    bar = np.arange(n, dtype=np.int64) ^ 1
    twist = np.array(
        [dc.base.twist[arc_edge(dc.proj[c])] for c in range(n)], dtype=np.int64
    )
    sign = 1.0 - 2.0 * twist
    island_of = np.array([dc.graph.terminus[c] for c in range(n)], dtype=np.int64)

    # Extended facial walks: successor of island g is bar(rot(g)); the
    # bridge crossed between them is bar(successor).
    faces, _, _ = permutation_cycles(bar[rot].tolist())

    if boundary is None:
        bmask = np.zeros(n, dtype=bool)
    else:
        bmask = np.zeros(n, dtype=bool)
        bmask[np.asarray(list(boundary), dtype=np.int64)] = True

    return BlowUpGraph(
        cover=dc,
        rot=rot,
        rot_inv=rot_inv,
        bar=bar,
        bridge_twist=twist,
        bridge_sign=sign,
        island_of=island_of,
        faces=tuple(map(tuple, faces)),
        boundary=bmask,
    )


def base_face_map(bg: BlowUpGraph, fd) -> list[tuple[int, bool]]:
    """For each extended facial walk of the blow-up, the (base face index,
    is_chiral_copy) pair under the facial decomposition of the base system."""
    out = []
    for face in bg.faces:
        state = bg.cover.arc_to_state(face[0])
        cover_index, _ = fd.face_of(state)
        out.append(fd.base_face_of(cover_index))
    return out


def attach_hedgehog(bg: BlowUpGraph) -> BlowUpGraph:
    """Tail every island arc (the boundary assignment of all closed forms)."""
    return replace(bg, boundary=np.ones(bg.size, dtype=bool))


def hedgehog(rs: RotationSystem) -> BlowUpGraph:
    """The hedgehog system of ``rs``: its double cover, blown up, with a
    tail on every island arc."""
    return attach_hedgehog(blow_up(double_cover(rs)))

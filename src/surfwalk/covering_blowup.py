"""Double covering and blow-up of a rotation system.

The Z2 voltage lift by the twists gives the double cover; replacing each of
its vertices by the directed cycle of its rotation gives the blow-up graph
on which the walk lives.  Blow-up vertices are the cover arcs; island arc
``g`` runs from cover arc ``g`` to ``rot[g]`` and bridge arc ``g`` runs from
``g`` to ``g-bar``, so both families are indexed by cover arc ids and all
incidence maps are array lookups.  Cover arcs carry the one numbering of
:mod:`surfwalk.rotation_system`, so the extended facial walks ``faces`` are
the walks ``trace_faces`` reports as ``cover_faces``, in the same order, and
its ``cover_base[i]`` names the base face of ``faces[i]``.

Hedgehog tails cut every island arc at a boundary vertex; a tail is
identified by the island arc it sits on, and the bijection with bridges is
``phi(bridge g) = tail on island g-bar``.  :func:`hedgehog` is the one path
from a rotation system to that tailed blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph_core import SymmetricDigraph, bfs_forest, permutation_cycles
from .rotation_system import RotationSystem, _cover_arcs

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
    carries rho, sheet 1 carries rho^-1.  Cover arcs are numbered as in
    :mod:`surfwalk.rotation_system`: base edge ``k`` owns cover arcs
    ``4k .. 4k+3``, ``c ^ 1`` is the reverse of ``c`` and ``c ^ 2`` the
    same base arc on the other sheet.  ``proj[c]`` and ``sheet[c]`` give the
    base arc of ``c`` and the sheet of its terminus; ``lift[2e + s]`` is
    the cover arc over base arc ``e`` ending on sheet ``s``.
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


def double_cover(rs: RotationSystem) -> DoubleCover:
    g = rs.graph
    rot, lift, state = _cover_arcs(rs)
    terminus = [2 * g.terminus[s >> 1] + (s & 1) for s in state]
    cover = SymmetricDigraph(
        2 * g.vertex_count, tuple(terminus[c ^ 1] for c in range(len(terminus))), tuple(terminus)
    )
    return DoubleCover(
        base=rs,
        graph=cover,
        lift=tuple(lift),
        proj=tuple(s >> 1 for s in state),
        sheet=tuple(s & 1 for s in state),
        rot=tuple(rot),
        # A spanning forest has one tree per component, each with one edge
        # fewer than vertices; 1 component iff the base is non-orientable.
        components=cover.vertex_count - len(bfs_forest(cover)),
    )


@dataclass(frozen=True)
class BlowUpGraph:
    """Blow-up of the double cover, plus tail bookkeeping.

    ``rot``/``rot_inv`` are the island successor maps, ``bridge_sign`` holds
    (-1)^tau per bridge, and ``faces`` lists every extended facial walk as
    the cyclic sequence of island arc ids it visits (both chiral copies, so
    the walks partition all islands).  ``boundary`` marks the island arcs
    carrying a tail; tails never exist as paths, only as these marks.

    The incidence maps between islands and bridges are array lookups: the
    bridge into the origin of island arc g is ``bar[g]`` and the one into
    its terminus ``bar[rot[g]]``; the island arc into the origin of bridge
    g is ``rot_inv[g]`` and the one out of it is ``g``.  The bijection phi
    from bridges to tails is ``bar`` as well: bridge g feeds the tail on
    island ``bar[g]``, and tail i is fed by bridge ``bar[i]``.
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


def blow_up(dc: DoubleCover, boundary=None) -> BlowUpGraph:
    """Blow up the double cover; ``boundary`` selects tailed island arcs
    (defaults to none; see :func:`attach_hedgehog`)."""
    n = dc.arc_count
    rot = np.array(dc.rot, dtype=np.int64)
    rot_inv = np.zeros(n, dtype=np.int64)
    rot_inv[rot] = np.arange(n)
    bar = np.arange(n, dtype=np.int64) ^ 1
    twist = np.array(dc.base.twist, dtype=np.int64)[np.array(dc.proj, dtype=np.int64) >> 1]
    sign = 1.0 - 2.0 * twist
    island_of = np.array(dc.graph.terminus, dtype=np.int64)

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


def attach_hedgehog(bg: BlowUpGraph) -> BlowUpGraph:
    """Tail every island arc (the boundary assignment of all closed forms)."""
    return replace(bg, boundary=np.ones(bg.size, dtype=bool))


def hedgehog(rs: RotationSystem) -> BlowUpGraph:
    """The hedgehog system of ``rs``: its double cover, blown up, with a
    tail on every island arc."""
    return attach_hedgehog(blow_up(double_cover(rs)))

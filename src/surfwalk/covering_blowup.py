"""Double covering and blow-up of a rotation system.

The Z2 voltage lift by the twists gives the double cover; replacing each of
its vertices by the directed cycle of its rotation gives the blow-up graph
on which the walk lives.  Blow-up vertices are the cover arcs; island arc
``g`` runs from cover arc ``g`` to ``rot[g]`` and bridge arc ``g`` runs from
``g`` to ``g-bar``, so both families are indexed by cover arc ids and all
incidence maps are array lookups.  Cover arcs carry the one numbering of
:mod:`surfwalk.rotation_system`, so the extended facial walks ``faces`` are
the walks ``trace_faces`` reports as ``cover_faces``, in the same order, and
its ``cover_base[i]`` names the base face of ``faces[i]``.  The cover is
held as index arrays over that numbering, converted once; only the
orientability cross-check builds it as a validated graph.

Every island arc carries a hedgehog tail, cut in at a boundary vertex; a
tail is identified by the island arc it sits on, so tails and islands share
the ids ``0 .. size - 1``, and the bijection with bridges is
``phi(bridge g) = tail on island g-bar``.  :func:`hedgehog` is the one path
from a rotation system to that tailed blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """The cover (G^tau, rho + rho^-1, id), as read-only int64 arrays.

    Cover vertex ``2x + s`` is base vertex ``x`` on sheet ``s``; sheet 0
    carries rho, sheet 1 carries rho^-1.  Cover arcs are numbered as in
    :mod:`surfwalk.rotation_system`: base edge ``k`` owns cover arcs
    ``4k .. 4k+3``, ``c ^ 1`` is the reverse of ``c`` and ``c ^ 2`` the
    same base arc on the other sheet.  ``rot`` is the cover rotation,
    ``proj[c]`` and ``sheet[c]`` give the base arc of ``c`` and the sheet of
    its terminus; ``lift[2e + s]`` is the cover arc over base arc ``e``
    ending on sheet ``s``.  The blow-up needs nothing else; the cover as a
    validated graph and its component count are built on first read, for
    the orientability cross-check.
    """

    base: RotationSystem
    # The arrays follow from base, so equality and hashing read base alone.
    rot: np.ndarray = field(compare=False)
    lift: np.ndarray = field(compare=False)
    proj: np.ndarray = field(compare=False)
    sheet: np.ndarray = field(compare=False)

    @property
    def arc_count(self) -> int:
        return len(self.rot)

    @cached_property
    def graph(self) -> SymmetricDigraph:
        terminus = 2 * np.array(self.base.graph.terminus, dtype=np.int64)[self.proj] + self.sheet
        origin = terminus[np.arange(self.arc_count) ^ 1]
        return SymmetricDigraph(
            2 * self.base.graph.vertex_count, tuple(origin.tolist()), tuple(terminus.tolist())
        )

    @cached_property
    def components(self) -> int:
        # A spanning forest has one tree per component, each with one edge
        # fewer than vertices; 1 component iff the base is non-orientable.
        return self.graph.vertex_count - len(bfs_forest(self.graph))


def double_cover(rs: RotationSystem) -> DoubleCover:
    rot, lift, state = (np.array(a, dtype=np.int64) for a in _cover_arcs(rs))
    proj, sheet = state >> 1, state & 1
    for a in (rot, lift, proj, sheet):
        a.flags.writeable = False
    return DoubleCover(base=rs, rot=rot, lift=lift, proj=proj, sheet=sheet)


@dataclass(frozen=True)
class BlowUpGraph:
    """Blow-up of the double cover with a tail on every island arc.

    ``rot``/``rot_inv`` are the island successor maps, ``bridge_sign`` holds
    (-1)^tau per bridge, and ``faces`` lists every extended facial walk as
    the cyclic sequence of island arc ids it visits (both chiral copies, so
    the walks partition all islands, and hence all tails).  Tails never
    exist as paths: tail ``g`` is the boundary condition on island arc ``g``.

    The incidence maps between islands and bridges are array lookups: the
    bridge into the origin of island arc g is ``bar[g]`` and the one into
    its terminus ``bar[rot[g]]``; the island arc into the origin of bridge
    g is ``rot_inv[g]`` and the one out of it is ``g``.  The bijection phi
    from bridges to tails is ``bar`` as well: bridge g feeds the tail on
    island ``bar[g]``, and tail i is fed by bridge ``bar[i]``.
    """

    cover: DoubleCover
    # The rest follows from cover, so equality and hashing read cover alone.
    rot: np.ndarray = field(compare=False)
    rot_inv: np.ndarray = field(compare=False)
    bar: np.ndarray = field(compare=False)
    bridge_twist: np.ndarray = field(compare=False)
    bridge_sign: np.ndarray = field(compare=False)
    faces: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def size(self) -> int:
        """Number of blow-up vertices = islands = bridges = tails."""
        return len(self.rot)


def blow_up(dc: DoubleCover) -> BlowUpGraph:
    """Blow up the double cover, with a tail on every island arc."""
    n = dc.arc_count
    rot = dc.rot
    rot_inv = np.empty_like(rot)
    rot_inv[rot] = np.arange(n)
    bar = np.arange(n, dtype=np.int64) ^ 1
    twist = np.array(dc.base.twist, dtype=np.int64)[dc.proj >> 1]
    sign = 1.0 - 2.0 * twist

    # Extended facial walks: successor of island g is bar(rot(g)); the
    # bridge crossed between them is bar(successor).
    faces, _, _ = permutation_cycles(bar[rot].tolist())

    return BlowUpGraph(
        cover=dc,
        rot=rot,
        rot_inv=rot_inv,
        bar=bar,
        bridge_twist=twist,
        bridge_sign=sign,
        faces=tuple(map(tuple, faces)),
    )


def attach_hedgehog(bg: BlowUpGraph) -> BlowUpGraph:
    """The identity: :func:`blow_up` already tails every island arc.  Kept
    for callers that name the hedgehog step of the pipeline."""
    return bg


def hedgehog(rs: RotationSystem) -> BlowUpGraph:
    """The hedgehog system of ``rs``: its double cover, blown up, with a
    tail on every island arc."""
    return blow_up(double_cover(rs))

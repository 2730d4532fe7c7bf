"""Double covering and blow-up of a rotation system.

The Z2 voltage lift by the twists gives the double cover; replacing each of
its vertices by the directed cycle of its rotation gives the blow-up graph
on which the walk lives.  Blow-up vertices are the cover arcs; island arc
``g`` runs from cover arc ``g`` to ``rot[g]`` and bridge arc ``g`` runs from
``g`` to ``g-bar``, so both families are indexed by cover arc ids and all
incidence maps are array lookups.  Cover arcs carry the one numbering of
:mod:`surfwalk.rotation_system`, so the extended facial walks ``faces`` are
the walks the system's face tracer found, in its order, and
``trace_faces(rs).cover_base[i]`` names the base face of ``faces[i]``.  The
cover is held as the read-only index arrays the rotation system's array
tracer built over that numbering, not copied; only the orientability
cross-check builds it as a validated graph.

Every island arc carries a hedgehog tail, cut in at a boundary vertex; a
tail is identified by the island arc it sits on, so tails and islands share
the ids ``0 .. size - 1``, and the bijection with bridges is
``phi(bridge g) = tail on island g-bar``.  :func:`hedgehog` is the one path
from a rotation system to that tailed blow-up; it is built once per system
and shared, so its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError
from .graph_core import SymmetricDigraph, _memo, _read_only
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
    """The cover (G^tau, rho + rho^-1, id), as read-only int64 arrays.

    Cover vertex ``2x + s`` is base vertex ``x`` on sheet ``s``; sheet 0
    carries rho, sheet 1 carries rho^-1.  Cover arcs are numbered as in
    :mod:`surfwalk.rotation_system`: base edge ``k`` owns cover arcs
    ``4k .. 4k+3``, ``c ^ 1`` is the reverse of ``c`` and ``c ^ 2`` the
    same base arc on the other sheet.  ``rot`` is the cover rotation,
    ``proj[c]`` and ``sheet[c]`` give the base arc of ``c`` and the sheet of
    its terminus; ``lift[2e + s]`` is the cover arc over base arc ``e``
    ending on sheet ``s``.  The blow-up reads these arrays and takes its
    faces from the walks the base system traced once (``base._walks``), so
    a DoubleCover must come from :func:`double_cover`, whose ``rot`` and
    ``lift`` are ``base._cover``'s own arrays.  Building it traces no walk.
    The cover as a validated graph and its component count are built on
    first read, for the orientability cross-check.
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

    @_memo
    def graph(self) -> SymmetricDigraph:
        terminus = 2 * self.base.graph.terminus_array[self.proj] + self.sheet
        origin = terminus[np.arange(self.arc_count) ^ 1]
        return SymmetricDigraph(2 * self.base.graph.vertex_count, origin, terminus)

    @_memo
    def components(self) -> int:
        # A spanning forest has one tree per component, each with one edge
        # fewer than vertices; 1 component iff the base is non-orientable.
        return self.graph.vertex_count - len(self.graph.spanning_forest.arcs)


def double_cover(rs: RotationSystem) -> DoubleCover:
    rot, lift, state = rs._cover
    proj, sheet = _read_only(state >> 1, state & 1)
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

    ``faces`` and the coin-free arrays every scattering matrix on the graph
    reads live here, each derived on first read from the walk arrays the
    base system traced (``cover.base._walks``), read-only and kept out of
    ``==``: ``face_layout`` (tails in walk order, face offsets, twist
    parities), ``face_index`` (face lengths, each slot's face and place),
    ``tail_slot`` (each tail's slot in the layout), ``gram_index`` (the
    Gram gathers and scatters per face length) and ``same_face_pairs``
    (the tails whose partner is on their own face).  A
    caller pays only for those it reads; S itself does only coin
    arithmetic.
    """

    cover: DoubleCover
    # The rest follows from cover, so equality and hashing read cover alone.
    rot: np.ndarray = field(compare=False)
    rot_inv: np.ndarray = field(compare=False)
    bar: np.ndarray = field(compare=False)
    bridge_twist: np.ndarray = field(compare=False)
    bridge_sign: np.ndarray = field(compare=False)

    @property
    def size(self) -> int:
        """Number of blow-up vertices = islands = bridges = tails."""
        return len(self.rot)

    @_memo
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The extended facial walks, as tuples of island arc ids (the island
        after g is ``bar[rot[g]]``, reached over bridge ``rot[g]``): the walk
        arrays split at their offsets, as ``face_layout`` reads them."""
        walks = self.cover.base._walks
        flat, bounds = walks.arcs.tolist(), walks.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @_memo
    def face_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``lengths``, per face its length, and per slot of the layout
        (``tails`` order) ``face``, the number of its face, and ``place``,
        its place on that face from 0."""
        walks = self.cover.base._walks
        lengths = walks.lengths.view()
        face = np.repeat(np.arange(len(lengths)), lengths)
        return _read_only(lengths, face, np.arange(self.size) - np.repeat(walks.offsets[:-1], lengths))

    @_memo
    def face_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coin-free layout every scattering matrix of this graph shares:
        ``tails``, the islands of every face in walk order, face after face;
        ``offsets``, face ``i`` owning ``tails[offsets[i]:offsets[i + 1]]``;
        and ``parity``, per tail, the twist parity P_j of the bridges crossed
        from the face's first tail up to and including tail j.

        An extended facial walk is a closed walk on the double cover: it
        ends on the sheet it started on, so it crosses an even number of
        twisted bridges and its last P_j is 0.  A face that breaks this
        raises :class:`GraphError`.
        """
        # Every island carries a tail, so the tails of a face are its islands:
        # the walk arrays the base system traced, in the order of ``faces``,
        # each read through a view, so every graph keeps its own arrays.
        walks = self.cover.base._walks
        tails, offsets = walks.arcs.view(), walks.offsets.view()
        twist = self.bridge_twist[tails]
        face = self.face_index[1]
        # P_j: the running twist count, less its value before the face's start.
        run = np.cumsum(twist)
        parity = (run - (run - twist)[offsets[face]]) & 1
        odd = np.flatnonzero(parity[offsets[1:] - 1])
        if len(odd):
            raise GraphError(f"face {odd[0]} crosses an odd number of twisted bridges: it does not close on its sheet")
        return _read_only(tails, offsets, parity)

    @_memo
    def tail_slot(self) -> np.ndarray:
        """The inverse of ``face_layout``'s ``tails``: per tail, its slot in
        the layout."""
        slot = np.empty(self.size, dtype=np.int64)
        slot[self.face_layout[0]] = np.arange(self.size)
        return _read_only(slot)[0]

    @_memo
    def gram_index(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct face length q, a row per face of that length: the
        gather of its first circulant column c_f[q], c_f[1 ... q-1] from the
        layout, and the scatter of its Gram column back into the layout
        (``ScatteringMatrix._gram``)."""
        lengths, offsets = self.face_index[0], self.face_layout[1]
        index = []
        for q in dict.fromkeys(lengths.tolist()):
            scatter = offsets[:-1][lengths == q, None] + np.arange(q)
            index.append(_read_only(np.roll(scatter, 1, axis=1), scatter))
        return tuple(index)

    @_memo
    def same_face_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """For each slot u (at j) of the layout whose tail t has its partner
        ``bar[t]`` on the same face (at j'): the slot of the face's Gram
        column entry (j - j') mod q, and the sign sign_t (-1)^(P_j + P_j')
        (``comfortability.average_by_enumeration``)."""
        tails, offsets, parity = self.face_layout
        lengths, face, _ = self.face_index
        partner = self.tail_slot[self.bar[tails]]
        u = np.flatnonzero(face[partner] == face)
        v, f = partner[u], face[u]
        sign = self.bridge_sign[tails[u]] * (1 - 2 * (parity[u] ^ parity[v]))
        return _read_only(offsets[f] + (u - v) % lengths[f], sign)


def blow_up(dc: DoubleCover) -> BlowUpGraph:
    """Blow up the double cover, with a tail on every island arc."""
    n = dc.arc_count
    rot = dc.rot
    rot_inv = np.empty_like(rot)
    rot_inv[rot] = np.arange(n)
    bar = np.arange(n, dtype=np.int64) ^ 1
    twist = dc.base.twist_array[dc.proj >> 1]
    sign = 1.0 - 2.0 * twist
    # A hedgehog is shared by every caller of hedgehog(rs).
    _read_only(rot_inv, bar, twist, sign)

    return BlowUpGraph(
        cover=dc,
        rot=rot,
        rot_inv=rot_inv,
        bar=bar,
        bridge_twist=twist,
        bridge_sign=sign,
    )


def attach_hedgehog(bg: BlowUpGraph) -> BlowUpGraph:
    """The identity: :func:`blow_up` already tails every island arc.  Kept
    for callers that name the hedgehog step of the pipeline."""
    return bg


def hedgehog(rs: RotationSystem) -> BlowUpGraph:
    """The hedgehog system of ``rs``: its double cover, blown up, with a
    tail on every island arc.  Built once per system and kept on it, so
    every call on ``rs`` returns the same read-only graph."""
    return rs._hedgehog

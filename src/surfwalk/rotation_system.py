"""Rotation systems (G, rho, tau) and their facial structure.

A rotation system pins a two-cell embedding of the graph on a closed
surface: ``rho`` is the cyclic order of incoming arcs at each vertex and
``tau`` marks twisted (type-1) edges.  Face tracing runs on the arcs of
the tau-double-cover, whose numbering is fixed here once (see
:func:`_cover_arcs`); traced walks come in chiral pairs and each pair is
one face of the embedding.  One array routine traces a batch of systems
on one graph together (:func:`trace_batch`, as the census does with every
class of a graph); :func:`trace_faces` is the batch of one.  Likewise one
array routine checks a batch of rotation and twist rows on one graph
(:func:`_check_rows`): a system built alone is the batch of one, and
:meth:`RotationSystem.from_rows` checks the census's classes together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphError
from .graph_core import SymmetricDigraph, _int64, _memo, is_connected

__all__ = [
    "RotationSystem",
    "FacialDecomposition",
    "trace_faces",
    "trace_batch",
    "detect_orientability",
    "flip_vertex",
    "mirror",
]


@dataclass(frozen=True)
class RotationSystem:
    """(G, rho, tau): rotation ``rot[e]`` is the cyclic successor of arc
    ``e`` among the arcs into t(e); ``twist[k]`` is tau of edge ``k``.

    Either is given as a sequence of integers or as a flat integer array.
    ``rot_array`` and ``twist_array`` are the read-only int64 arrays the
    system is validated from (:func:`_check_rows`, the system being a batch
    of one), beside the tuples, which serve Python loops: an int64 array
    given is kept, not copied, and made read-only, so the caller must not
    write to it afterwards; tuples given are converted once.  A system
    restored from a pickle derives the arrays again on first read.
    :meth:`from_rows` builds and checks a whole batch of systems on one
    graph at once.

    The double cover is traced at most once per system: ``_cover`` and
    ``_walks`` hold the cover arcs and the walks on them, and ``_hedgehog``
    the tailed blow-up built from them, each computed on first read.  All
    of these are kept out of ``==``, ``hash``, ``repr`` and pickles, and are
    read only: their arrays are not writeable and their tuples and lists
    are never changed.  :func:`trace_batch` fills none of the trace memos.
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
        # An entry that is no integer is named before any fault of value.
        twist = _int64(self.twist, lambda k, t: "twists must be 0 or 1")
        rot = _int64(self.rot, lambda e, r: f"rotation entry {r!r} at arc {e} is not an integer")
        _check_rows(g, rot[None], twist[None])
        if not isinstance(self.rot, tuple):
            object.__setattr__(self, "rot", tuple(rot.tolist()))
        if not isinstance(self.twist, tuple):
            object.__setattr__(self, "twist", tuple(twist.tolist()))
        rot.flags.writeable = twist.flags.writeable = False
        object.__setattr__(self, "rot_array", rot)
        object.__setattr__(self, "twist_array", twist)

    def __getstate__(self):
        memos = ("rot_array", "twist_array", "_cover", "_walks", "_hedgehog")
        return {k: v for k, v in self.__dict__.items() if k not in memos}

    @classmethod
    def from_rows(
        cls, graph: SymmetricDigraph, rot: np.ndarray, twist: np.ndarray
    ) -> list["RotationSystem"]:
        """The systems on ``graph`` of the rows of the integer arrays
        ``rot`` (systems x arcs) and ``twist`` (systems x edges), validated
        together by one call of :func:`_check_rows`, which raises the fault
        of the first row at fault as that row's system alone would.  Each
        system keeps its rows, views of the arrays, as ``rot_array`` and
        ``twist_array``; int64 arrays are kept, not copied, and made
        read-only."""
        rot, twist = np.asarray(rot), np.asarray(twist)
        if rot.ndim != 2 or rot.shape[1] != graph.arc_count:
            raise GraphError("rotation must cover every arc")
        if twist.ndim != 2 or twist.shape[1] != graph.edge_count or len(twist) != len(rot):
            raise GraphError("twist must cover every edge")
        if rot.dtype.kind not in "iub" or twist.dtype.kind not in "iub":
            raise GraphError("from_rows takes integer arrays")
        rot, twist = rot.astype(np.int64, copy=False), twist.astype(np.int64, copy=False)
        _check_rows(graph, rot, twist)
        rot.flags.writeable = twist.flags.writeable = False
        systems = []
        for r, t, rot_row, twist_row in zip(rot.tolist(), twist.tolist(), rot, twist):
            # Checked already: the fields are set as __post_init__ sets them.
            rs = object.__new__(cls)
            object.__setattr__(rs, "graph", graph)
            object.__setattr__(rs, "rot", tuple(r))
            object.__setattr__(rs, "twist", tuple(t))
            object.__setattr__(rs, "rot_array", rot_row)
            object.__setattr__(rs, "twist_array", twist_row)
            systems.append(rs)
        return systems

    @_memo
    def rot_array(self) -> np.ndarray:
        """``rot`` as a read-only int64 array."""
        rot = np.array(self.rot, dtype=np.int64)
        rot.flags.writeable = False
        return rot

    @_memo
    def twist_array(self) -> np.ndarray:
        """``twist`` as a read-only int64 array."""
        twist = np.array(self.twist, dtype=np.int64)
        twist.flags.writeable = False
        return twist

    @_memo
    def _cover(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cover rotation, ``lift`` and ``state`` of :func:`_cover_arcs`,
        as read-only int64 arrays."""
        cover = _cover_arcs(self.rot_array[None], self.twist_array[None])
        for a in cover:
            a.flags.writeable = False
        return cover

    @_memo
    def _walks(self) -> _Walks:
        """The walks of :func:`_cover_walks` on the cover, a batch of one,
        their arrays read-only."""
        walks = _cover_walks(self._cover[0], len(self._cover[0]))
        for a in (walks.walk_of, walks.position, walks.offsets, walks.lengths, walks.arcs):
            a.flags.writeable = False
        return walks

    @_memo
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
        n = graph.vertex_count
        lengths = np.fromiter(map(len, orders[:n]), dtype=np.int64, count=min(len(orders), n))
        neighbour = np.fromiter(chain.from_iterable(orders[:n]), dtype=np.int64, count=int(lengths.sum()))
        rot = _rotation(graph, np.arange(len(lengths)), lengths, neighbour)
        if len(orders) > n:
            raise GraphError(f"unknown vertex {n}")
        if twists is None:
            twists = np.zeros(graph.edge_count, dtype=np.int64)
        return cls(graph, rot, twists)

    def neighbor_orders(self) -> list[list[int]]:
        """Inverse of :meth:`from_neighbor_orders`: rho walked from each
        vertex's smallest incoming arc."""
        g, orders = self.graph, []
        for x in range(g.vertex_count):
            e = first = g.incoming_arcs(x)[0]
            orders.append([g.origin[e]])
            while (e := self.rot[e]) != first:
                orders[-1].append(g.origin[e])
        return orders


_PAST_EVERY_KEY = np.array([np.iinfo(np.int64).max])
_PAST_EVERY_KEY.flags.writeable = False


def _rotation(graph: SymmetricDigraph, vertex: np.ndarray, lengths: np.ndarray, neighbour: np.ndarray) -> np.ndarray:
    """The rotation of cyclic neighbour lists, one per distinct vertex
    ``vertex[i] < n``: its ``lengths[i]`` neighbours, the lists one after
    another in ``neighbour``.  A vertex without a list keeps arc 0 as the
    successor of its arcs, which :class:`RotationSystem` rejects.  Raises
    :class:`GraphError` for the smallest vertex whose list is not its
    neighbours, each once."""
    n = graph.vertex_count
    at = np.repeat(vertex, lengths)
    # The arc u -> x has key n x + u (exact, as n^2 < 2^63 in any graph), so
    # one sorted lookup finds the arc of every (x, u) pair.  The last key,
    # past every pair's, is that of no arc (its index is the arc count): a
    # lookup that finds no arc lands on a key it does not equal.
    keys = np.concatenate((graph.terminus_array * n + graph.origin_array, _PAST_EVERY_KEY))
    by_key = keys.argsort()
    wanted = at * n + neighbour
    arc = by_key[keys[by_key].searchsorted(wanted)]
    # A negative neighbour read unsigned is past every vertex.
    found = (keys[arc] == wanted) & (neighbour.view(np.uint64) < n)
    # A found pair names an arc into its own vertex, so if every arc is
    # named once, every vertex lists its neighbours exactly once.  Else the
    # vertices at fault are those that list more or fewer than they have,
    # name a pair that is no arc into them, or name an arc twice; a vertex
    # without a list is none of them.
    if not (found.all() and (np.bincount(arc, minlength=len(keys))[:-1] == 1).all()):
        twice = np.bincount(arc[found], minlength=len(keys)) > 1
        bad = np.bincount(at, ~found | twice[arc], minlength=n) > 0
        bad[vertex] |= lengths != np.bincount(graph.terminus_array, minlength=n)[vertex]
        if bad.any():
            x = int(bad.argmax())
            neighbours = sorted(graph.origin[e] for e in graph.incoming_arcs(x))
            raise GraphError(f"rotation at vertex {x} must list its neighbors {neighbours} exactly once")
    # Each list's arcs, rolled one place: rho(arc[i]) = arc[i + 1], and a
    # vertex's last arc turns back to its first.
    after = np.arange(1, len(arc) + 1)
    ends = np.cumsum(lengths)[lengths > 0]
    after[ends - 1] = ends - lengths[lengths > 0]
    rot = np.zeros(graph.arc_count, dtype=np.int64)
    rot[arc] = arc[after]
    return rot


def _check_rows(graph: SymmetricDigraph, rot: np.ndarray, twist: np.ndarray) -> None:
    """Check the rows of the int64 arrays ``rot`` (systems x arcs) and
    ``twist`` (systems x edges) as rotation systems on ``graph``, and raise
    the :class:`GraphError` of the first row at fault, the one its system
    alone would raise.  A row's faults are tried in this order: a twist
    other than 0 or 1; a successor outside the arcs; a successor map that
    is no permutation; then vertex by vertex, a degree below 2, an arc of
    the vertex whose successor leaves it (the first such arc is named), and
    more than one cycle through its arcs."""
    if not len(rot):
        return
    degrees = [len(ax) for ax in graph._incoming]
    # A negative entry read unsigned is past every arc and every twist.
    if (
        twist.view(np.uint64).max(initial=0) <= 1
        and rot.view(np.uint64).max(initial=0) < graph.arc_count
        and min(degrees) >= 2
    ):
        seen, leaves, heads = _cycles(graph, rot, max(degrees))
        # A permutation that keeps every A_x has a cycle or more per vertex:
        # one each iff there are as many cycles as vertices in every row.
        if seen.all() and not leaves.any() and np.count_nonzero(heads) == len(rot) * len(degrees):
            return
    raise GraphError(_first_fault(graph, rot, twist, degrees))


def _cycles(
    graph: SymmetricDigraph, rot: np.ndarray, longest: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For rows of successors, each an arc: ``seen``, whether each arc
    (row after row) is some arc's successor, so that a row is a permutation
    iff all its arcs are seen; ``leaves`` (rows x arcs), whether the
    successor of each arc leaves its vertex; and ``heads`` (rows x arcs),
    whether each arc is the smallest of its cycle.  ``heads`` holds for
    each cycle of ``longest`` arcs or fewer, which in a permutation takes in
    every cycle through the arcs of a vertex none of which leaves it."""
    rows, n_arcs = rot.shape
    terminus = graph.terminus_array
    succ = (rot + np.arange(rows)[:, None] * n_arcs).ravel()
    seen = np.zeros(succ.size, dtype=bool)
    seen[succ] = True
    # Min-label pointer doubling: after the round of span s, label[c] is the
    # smallest of the s arcs from c on along its cycle.
    arc = np.arange(succ.size)
    label, jump, span = arc, succ, 1
    while span < longest:
        label = np.minimum(label, label[jump])
        span *= 2
        if span < longest:
            jump = jump[jump]
    return seen, terminus[rot] != terminus, (label == arc).reshape(rows, n_arcs)


def _first_fault(
    graph: SymmetricDigraph, rot: np.ndarray, twist: np.ndarray, degrees: list[int]
) -> str:
    """The message :func:`_check_rows` raises: the first fault of the first
    row at fault, a vertex's faults read from counts per row and vertex."""
    rows, n_arcs = rot.shape
    n, terminus = graph.vertex_count, graph.terminus_array
    twisted = (twist.view(np.uint64) > 1).any(axis=1)
    inside = rot.view(np.uint64) < n_arcs
    # A row with a successor outside is at fault before its cycles count.
    seen, leaves, heads = _cycles(graph, np.where(inside, rot, 0), max(degrees))
    at = (np.arange(rows)[:, None] * n + terminus).ravel()
    leaving = np.bincount(at, leaves.ravel(), minlength=rows * n).reshape(rows, n) > 0
    cycles = np.bincount(at, heads.ravel(), minlength=rows * n).reshape(rows, n)
    vertex = (np.array(degrees) < 2) | leaving | (cycles > 1)
    outside = ~inside.all(axis=1)
    permutation = seen.reshape(rows, n_arcs).all(axis=1)
    row = int((twisted | outside | ~permutation | vertex.any(axis=1)).argmax())
    if twisted[row]:
        return "twists must be 0 or 1"
    if outside[row]:
        return f"rotation names an arc outside 0..{n_arcs - 1}"
    if not permutation[row]:
        return "successor map is not a permutation"
    x = int(vertex[row].argmax())
    if degrees[x] < 2:
        return f"vertex {x} has degree {degrees[x]}; a fixed-point-free cyclic rotation needs degree >= 2"
    if leaving[row, x]:
        return f"rotation leaves A_{x} at arc {int((leaves[row] & (terminus == x)).argmax())}"
    return f"rotation at vertex {x} is not a single cycle"


def _flipped(rs: RotationSystem, flip_bits: Sequence[int]) -> RotationSystem:
    """The system after the vertex move at every x with ``flip_bits[x]`` set:
    rho is inverted at each flipped vertex and the twist of each edge is
    toggled once per flipped end."""
    g = rs.graph
    # The arcs into a flipped vertex; arcs 2k and 2k + 1 run into the two
    # ends of edge k.
    at = np.asarray(flip_bits, dtype=bool)[g.terminus_array]
    rot = rs.rot_array.copy()
    rot[rs.rot_array[at]] = at.nonzero()[0]
    return RotationSystem(g, rot, rs.twist_array ^ at[0::2] ^ at[1::2])


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
    inverse = np.empty_like(rs.rot_array)
    inverse[rs.rot_array] = np.arange(len(inverse))
    return RotationSystem(rs.graph, inverse, rs.twist_array)


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
#
# A batch of systems on one graph is traced at once, on flat int64 arrays
# over the cover arcs of all of them: cover arc c of system s is
# s * 4|E| + c there, and so are the states.  _cover_arcs builds the covers,
# _cover_walks finds the walks by pointer doubling, and _decompose reads the
# faces, self-intersections and orientability off them, with one Python
# pass per system for the tuples and face data of its FacialDecomposition.
# A single system is the batch of one, traced through its memos.
# --------------------------------------------------------------------------

# Cover arcs 4k .. 4k+3 lie over base arcs 2k, 2k + 1, 2k, 2k + 1 and carry
# states 4k + (0, 2, 1, 3) + tau_k * (1, 0, -1, 0); state 4k + j lifts to
# cover arc 4k + (0, 2, 1, 3)[j] + tau_k * (2, -2, 0, 0)[j].
_UNTWISTED = np.array([0, 2, 1, 3])
_STATE_TWIST = np.array([1, 0, -1, 0])
_LIFT_TWIST = np.array([2, -2, 0, 0])
for _a in (_UNTWISTED, _STATE_TWIST, _LIFT_TWIST):
    _a.flags.writeable = False


def _cover_arcs(rot: np.ndarray, twist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The double covers of a batch: from ``rot`` (systems x 2|E|) and
    ``twist`` (systems x |E|), the cover rotation, ``lift`` (the cover arc
    of each state) and ``state`` (the state of each cover arc), as flat
    int64 arrays numbered across the batch."""
    untwisted = np.arange(0, 4 * twist.size, 4)[:, None] + _UNTWISTED
    tau = twist.reshape(-1, 1)
    state = (untwisted + tau * _STATE_TWIST).ravel()
    lift = (untwisted + tau * _LIFT_TWIST).ravel()
    # Sheet 0 turns the lift of e to the lift of rho(e); sheet 1 turns the
    # lift of rho(e) back to the lift of e.
    up, down = lift[0::2], lift[1::2]
    rot = (rot + np.arange(0, rot.size, rot.shape[1])[:, None]).ravel()
    cover_rot = np.empty_like(lift)
    cover_rot[up] = up[rot]
    cover_rot[down[rot]] = down
    return cover_rot, lift, state


class _Walks(NamedTuple):
    """The walks of a batch of covers (arcs numbered as by
    :func:`_cover_arcs`), numbered system after system, each system's in
    order of their smallest cover arc."""

    walk_of: np.ndarray  # the walk of each arc
    position: np.ndarray  # each arc's place on its walk, from its smallest arc
    offsets: np.ndarray  # walk w is arcs[offsets[w]:offsets[w + 1]]
    lengths: np.ndarray  # the length of each walk
    arcs: np.ndarray  # every walk's arcs in walk order, walk after walk
    first: list[int]  # system s owns walks first[s] .. first[s + 1] - 1


def _cover_walks(cover_rot: np.ndarray, n: int) -> _Walks:
    """The cycles of the face successor ``rot[c] ^ 1`` of every cover in a
    batch of covers with ``n`` arcs each, each from its smallest cover arc,
    in order of those arcs."""
    arc = np.arange(len(cover_rot))
    succ = cover_rot ^ 1
    # Min-label pointer doubling on key = 2n * label + distance.  After the
    # round of span s, the label of arc c is the smallest arc among the s
    # arcs from c on, and the distance how far along the first of them lies
    # (a label met again further on loses on the larger distance); the
    # distance stays below 2n, so the keys order by label first.  Every
    # walk has a chiral partner of its length other than itself (see
    # _decompose), so no walk is longer than n / 2 and the rounds stop at
    # that span.
    key, jump, span = 2 * n * arc, succ, 1
    while 2 * span < n:
        key = np.minimum(key, key[jump] + span)
        jump = jump[jump]
        span *= 2
    label, distance = np.divmod(key, 2 * n)
    # A walk starts at the arc at distance 0 from its label.
    heads = (distance == 0).nonzero()[0]
    number = np.empty_like(arc)
    number[heads] = np.arange(len(heads))
    walk_of = number[label]
    lengths = distance[succ[heads]] + 1
    position = lengths[walk_of] - distance
    position[heads] = 0
    offsets = np.zeros(len(heads) + 1, dtype=np.int64)
    np.add.accumulate(lengths, out=offsets[1:])
    arcs = np.empty_like(arc)
    arcs[offsets[walk_of] + position] = arc
    first = heads.searchsorted(arc[::n]).tolist() + [len(heads)]
    return _Walks(walk_of, position, offsets, lengths, arcs, first)


@dataclass(frozen=True)
class FacialDecomposition:
    """All facial walks of a rotation system.

    The extended facial walks are the cycles of the face successor
    ``rot[c] ^ 1`` on cover arcs, each starting at its smallest cover arc
    and listed in that order: the hedgehog's ``faces``.  They come in
    chiral pairs (``c`` and ``c ^ 3``), and ``cover_base[i]`` is (base face
    index, is_chiral_copy) of walk ``i``.  ``faces`` are the
    representatives projected to base arcs, each read from its smallest
    state ``2 * base arc + sheet``: the facial walks of (G, rho, tau), each
    face reported once and sorted by arc sequence.  Self-intersections are
    the edges a face crosses in both directions, stored with the two
    distances between the crossings along the walk.  ``_face_data`` holds,
    per face, its length and its hit distance pairs sorted, the faces in
    increasing order of those: the canonical order
    :func:`surfwalk.comfortability.average_comfortability` sums in.  It is
    read only, never changed.
    """

    rs: RotationSystem
    # The rest follows from rs, so equality and hashing read rs alone.
    faces: tuple[tuple[int, ...], ...] = field(compare=False)
    self_intersections: tuple[dict[int, tuple[int, int]], ...] = field(compare=False)
    orientable: bool = field(compare=False)
    genus: int = field(compare=False)
    cover_base: tuple[tuple[int, bool], ...] = field(repr=False, compare=False)
    _face_data: list[tuple[int, list[tuple[int, int]]]] = field(repr=False, compare=False)

    @property
    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted((len(f) for f in self.faces), reverse=True))


def trace_faces(rs: RotationSystem) -> FacialDecomposition:
    """Trace every facial walk and derive genus and orientability: the batch
    of one, read from the cover and walks ``rs`` traces once."""
    _, lift, state = rs._cover
    return _decompose([rs], rs.twist_array[None], lift, state, rs._walks)[0]


def trace_batch(systems: Sequence[RotationSystem]) -> list[FacialDecomposition]:
    """:func:`trace_faces` of every system of a batch on one graph, traced
    together; the systems keep no trace of their own."""
    if not systems:
        return []
    g = systems[0].graph
    if any(rs.graph != g for rs in systems):
        raise GraphError("a batch traces systems of one graph")
    rot = np.stack([rs.rot_array for rs in systems])
    return _trace_rows(systems, rot, np.stack([rs.twist_array for rs in systems]))


def _trace_rows(
    systems: Sequence[RotationSystem], rot: np.ndarray, twist: np.ndarray
) -> list[FacialDecomposition]:
    """:func:`trace_batch` of ``systems``, one graph's, whose rows of
    ``rot`` and ``twist`` are given, as :meth:`RotationSystem.from_rows`
    took them."""
    cover_rot, lift, state = _cover_arcs(rot, twist)
    return _decompose(systems, twist, lift, state, _cover_walks(cover_rot, 4 * systems[0].graph.edge_count))


def _decompose(
    systems: Sequence[RotationSystem], twist: np.ndarray, lift: np.ndarray, state: np.ndarray, walks: _Walks
) -> list[FacialDecomposition]:
    """The FacialDecomposition of each system of a batch, from the covers'
    ``lift`` and ``state`` and the walks on them."""
    g = systems[0].graph
    n = 4 * g.edge_count
    walk_of, position, offsets, lengths, arcs, first = walks
    heads = offsets[:-1]
    arc = np.arange(len(arcs))

    # A walk is read from its smallest state: slot[c] is the place of arc c
    # in the reads, laid out as the walks are.
    start_state = np.minimum.reduceat(state[arcs], heads)
    length = lengths[walk_of]
    slot = offsets[walk_of] + (position - position[lift[start_state]][walk_of]) % length
    read = np.empty_like(arcs)
    read[slot] = arc
    slot_walk = walk_of[read]
    proj = (state[read] % n) >> 1

    # The key (arc sequence, start state) picks the representative of each
    # chiral pair.  Partners have one length, so their reads are compared
    # slot by slot: at the first slot where they differ, or else by their
    # start states.  A self-paired walk is no representative, which the face
    # count below rejects.  No rotation system has one: it would hold an arc
    # c followed by c ^ 3, so the cover rotation would send c to c ^ 2,
    # across the sheets it keeps apart.
    partner = walk_of[arcs[heads] ^ 3]
    theirs = proj[arc + (offsets[partner] - heads)[slot_walk]]
    last = len(arc) - 1
    stop = np.minimum.reduceat(np.where(proj != theirs, arc, last + 1), heads)
    is_rep = np.where(stop <= last, (proj < theirs)[np.minimum(stop, last)], start_state < start_state[partner])
    reps = is_rep.nonzero()[0]

    # Self-intersections: cover arc c meets its reverse c ^ 1 on the same
    # walk; record per edge, at the first of the two in read order, the
    # forward/backward distances.
    back = read ^ 1
    ahead = slot[back] - arc
    hit = ((walk_of[back] == slot_walk) & (ahead > 0)).nonzero()[0]
    c, d1 = read[hit], ahead[hit]
    r = length[c]
    near = np.minimum(d1, r - d1)
    edge, distances = ((c % n) >> 2).tolist(), list(zip(near.tolist(), (r - near).tolist()))
    hit_bounds = hit.searchsorted(offsets).tolist()

    orientable = _tree_flips(g, twist)[0].tolist()
    rep_bounds = reps.searchsorted(first).tolist()
    proj, bounds, reps = proj.tolist(), offsets.tolist(), reps.tolist()
    start_state, partner = start_state.tolist(), partner.tolist()
    decompositions = []
    for s, rs in enumerate(systems):
        lo, hi = first[s], first[s + 1]
        ranked = sorted(
            (tuple(proj[bounds[w] : bounds[w + 1]]), start_state[w], w) for w in reps[rep_bounds[s] : rep_bounds[s + 1]]
        )
        if 2 * len(ranked) != hi - lo:
            raise GraphError("facial walk equals its own chiral reverse")
        cover_base: list[tuple[int, bool]] = [(-1, False)] * (hi - lo)
        self_int, face_data = [], []
        for base, (face, _, w) in enumerate(ranked):
            cover_base[w - lo] = (base, False)
            cover_base[partner[w] - lo] = (base, True)
            a, b = hit_bounds[w], hit_bounds[w + 1]
            hits = distances[a:b]
            self_int.append(dict(zip(edge[a:b], hits)) if hits else {})
            face_data.append((len(face), sorted(hits)))

        chi_euler = g.vertex_count - g.edge_count + len(ranked)
        if orientable[s]:
            if (2 - chi_euler) % 2:
                raise GraphError("Euler characteristic is odd on an orientable surface")
            genus = (2 - chi_euler) // 2
        else:
            genus = 2 - chi_euler
        decompositions.append(
            FacialDecomposition(
                rs=rs,
                faces=tuple(face for face, _, _ in ranked),
                self_intersections=tuple(self_int),
                orientable=orientable[s],
                genus=genus,
                cover_base=tuple(cover_base),
                _face_data=sorted(face_data),
            )
        )
    return decompositions


def _tree_flips(g: SymmetricDigraph, twist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twist normalisation along the graph's BFS spanning tree, for a batch
    of twist rows (systems x |E|) on one graph.  The tree, with each
    vertex's parent and tree edge, and the origin array are the graph's own
    (``g.spanning_forest``, ``g.origin_array``, built once per graph), so a
    call does only the pointer jumping and the final edge check.

    Walking the tree in discovery order, a child is flipped iff its tree
    edge, after the flip of its parent, is still twisted, so a vertex is
    flipped iff its tree path to the root carries an odd twist.  An edge
    then ends up twisted iff its own twist and the flips of its two ends
    disagree; the surface is non-orientable iff such an edge survives (only
    non-tree edges can).  Returns (orientable, flip bit per vertex), a row
    per system.
    """
    if not is_connected(g):
        raise GraphError("orientability and genus need a connected graph")
    # The root, vertex 0, is its own parent, over edge 0, whose twist it
    # then drops.
    tree = g.spanning_forest
    flip = twist.take(tree.edge, axis=1)
    flip[:, 0] = 0
    # Pointer jumping: after the round of span s, flip[v] is the parity of
    # the twists on the s tree edges above v (on all of them if the root is
    # nearer) and above[v] the vertex s edges up (or the root), until every
    # vertex sees the root.
    above = tree.parent
    while above.any():
        flip ^= flip.take(above, axis=1)
        above = above[above]
    # Arc 2k runs from one end of edge k and arc 2k + 1 from the other.
    ends = flip.take(g.origin_array, axis=1)
    return ~(twist ^ ends[:, 0::2] ^ ends[:, 1::2]).any(axis=1), flip


def detect_orientability(rs: RotationSystem) -> tuple[bool, RotationSystem]:
    """Normalize twists along a spanning tree by vertex flips; the surface is
    non-orientable iff a twisted edge survives outside the tree.  The
    normalized system is built once, with every tree flip applied together."""
    orientable, flip = _tree_flips(rs.graph, rs.twist_array[None])
    return bool(orientable[0]), _flipped(rs, flip[0])

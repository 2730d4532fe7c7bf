"""Exhaustive enumeration of the embeddings of a small graph.

A raw system is an integer index.  At vertex x the cyclic orders of the
incoming arcs ``ax`` are ``ax[0]`` followed by each permutation of the
others (``itertools.permutations`` order), numbered in that order.  The
rotation index is the mixed radix of these numbers over the vertices, the
last vertex fastest, and the raw index is ``rotation * 2^|E| + word``, where
bit k of the twist word is the twist of edge k.

Each equivalence move is a permutation of the raw indices, held factored as
an index map of the rotation indices and one of the twist words.  A vertex
flip sends the local order at x to its inverse and XORs the word with x's
edge mask; a graph automorphism conjugates every local order (a table per
vertex) and permutes the twist bits.  The global mirror (invert every
rotation, keep the twists) is the flip of every vertex, so it adds no
generator.  Orbits under the flips and a generating set of the automorphisms
are found by min-label propagation over integer arrays, which leaves on
every raw index the smallest raw index of its orbit, the orbit root.  Each
class is represented by its root, so deduplication is exact and the raw
index is the only order.  The roots are decoded into rotation and twist
arrays together; one RotationSystem is built per class and none per raw
system, every class of the graph is validated in one array check
(:meth:`~surfwalk.rotation_system.RotationSystem.from_rows`), and the same
arrays are traced in one batch
(:func:`~surfwalk.rotation_system._trace_rows`), which keeps no trace on
the systems; time and memory are linear in the raw count, which the
budget bounds.  The EW_BUDGET environment variable alone sets the budget.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .comfortability import average_comfortability, limit_comfortability
from .errors import AssumptionError, BudgetError, GraphError
from .fileformat import _DECIMAL, _INT64
from .graph_core import SymmetricDigraph, arc_edge, is_connected
from .rotation_system import FacialDecomposition, RotationSystem, _trace_rows
from .walk_dynamics import Coin

__all__ = [
    "EmbeddingClass",
    "GenusSummary",
    "enumerate_embeddings",
    "rank_by_comfortability",
    "min_max_genus",
    "graph_automorphisms",
    "default_budget",
    "check_budget",
]

DEFAULT_BUDGET = 10**7
BUDGET_ENV = "EW_BUDGET"
# Raw counts above this are reported as "more than 10^20", not spelled out.
SHOWN_COUNT_LIMIT = 10**20


def default_budget() -> int:
    """EW_BUDGET read as the file format reads an integer (an optional sign
    and ASCII digits, within 64 bits), or DEFAULT_BUDGET if it is unset or
    empty.  A value that is no such integer, or is below 1, is a
    :class:`BudgetError` that names it."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    if not _DECIMAL.fullmatch(raw):
        raise BudgetError(f"{BUDGET_ENV}={raw!r} is not an integer")
    # More than 19 significant digits are past int64, and int() refuses
    # more than 4300.
    if len(raw.lstrip("+-").lstrip("0")) > 19 or int(raw) not in _INT64:
        raise BudgetError(f"{BUDGET_ENV}={raw!r} does not fit in 64 bits")
    budget = int(raw)
    if budget < 1:
        raise BudgetError(f"{BUDGET_ENV}={raw!r} is below 1")
    return budget


def check_budget(edge_count: int, degrees: Iterable[int]) -> int:
    """The raw count Prod (deg-1)! * 2^|E|, or :class:`BudgetError` if it
    exceeds the budget, :func:`default_budget`: the EW_BUDGET environment
    variable is its one setter.

    The factors (a 2 per edge, then 2 .. deg-1 per vertex) are multiplied one
    by one and the product is given up as soon as it passes
    max(budget, 10^20), so a huge graph costs a few dozen multiplications,
    not its exact count.
    """
    budget = default_budget()
    cap = max(budget, SHOWN_COUNT_LIMIT)
    factors = itertools.chain(
        itertools.repeat(2, min(edge_count, cap.bit_length())),
        itertools.chain.from_iterable(range(2, d) for d in degrees),
    )
    count = 1
    for f in factors:
        count *= f
        if count > cap:
            break
    if count <= budget:
        return count
    shown = str(count) if count <= SHOWN_COUNT_LIMIT else "more than 10^20"
    raise BudgetError(
        f"{shown} raw rotation systems exceed the budget {budget}; "
        "try a smaller graph or raise EW_BUDGET"
    )


def graph_automorphisms(g: SymmetricDigraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, in lexicographic order.

    Backtracking: vertex x is mapped after 0 .. x-1, to each unused vertex of
    its degree, in increasing order, whose adjacency to the images of
    0 .. x-1 matches that of x.
    """
    n = g.vertex_count
    adj = [set() for _ in range(n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    perm: list[int] = []
    used = [False] * n
    autos: list[tuple[int, ...]] = []

    def extend(x: int):
        if x == n:
            autos.append(tuple(perm))
            return
        for y in range(n):
            if used[y] or len(adj[y]) != len(adj[x]):
                continue
            if any((u in adj[x]) != (perm[u] in adj[y]) for u in range(x)):
                continue
            used[y] = True
            perm.append(y)
            extend(x + 1)
            perm.pop()
            used[y] = False

    extend(0)
    return autos


def _generating_set(autos: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Generators of the group ``autos``, chosen greedily: each member that
    the generators so far do not reach joins them."""
    identity = tuple(range(len(autos[0])))
    group, gens = {identity}, []
    for p in autos:
        if p in group:
            continue
        gens.append(p)
        group, stack = {identity}, [identity]
        while stack:
            q = stack.pop()
            for s in gens:
                r = tuple(s[i] for i in q)
                if r not in group:
                    group.add(r)
                    stack.append(r)
    return gens


class _RawIndex:
    """The raw systems of a graph as integers ``rotation * 2^|E| + word``
    (see the module docstring), and the equivalence moves as index maps."""

    def __init__(self, g: SymmetricDigraph):
        self.g = g
        self.orders = []
        for x in range(g.vertex_count):
            ax = g.incoming_arcs(x)
            self.orders.append([(ax[0],) + p for p in itertools.permutations(ax[1:])])
        self.number = [{o: j for j, o in enumerate(orders)} for orders in self.orders]
        radix = [len(orders) for orders in self.orders]
        self.stride = [math.prod(radix[x + 1 :]) for x in range(len(radix))]
        self.rotations = math.prod(radix)
        self.words = 2**g.edge_count
        r = np.arange(self.rotations)
        self.digits = [(r // s) % k for s, k in zip(self.stride, radix)]
        self.word = np.arange(self.words)

    def flip(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(rotation map, word map) of the flip of vertex ``x``."""
        inverse = np.array([self.number[x][(o[0],) + o[:0:-1]] for o in self.orders[x]])
        digit = self.digits[x]
        rot_map = np.arange(self.rotations) + (inverse[digit] - digit) * self.stride[x]
        mask = sum(1 << arc_edge(e) for e in self.g.incoming_arcs(x))
        return rot_map, self.word ^ mask

    def automorphism(self, perm: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(rotation map, word map) of the graph automorphism ``perm``."""
        g = self.g
        amap = [g.arc_between(perm[g.origin[e]], perm[g.terminus[e]]) for e in range(g.arc_count)]
        rot_map = np.zeros(self.rotations, dtype=np.int64)
        for x, orders in enumerate(self.orders):
            y = perm[x]
            first = g.incoming_arcs(y)[0]
            table = []
            for o in orders:
                image = [amap[e] for e in o]
                k = image.index(first)
                table.append(self.number[y][tuple(image[k:] + image[:k])])
            rot_map += np.array(table)[self.digits[x]] * self.stride[y]
        return rot_map, self.move_bits([arc_edge(amap[2 * k]) for k in range(g.edge_count)])

    def rotation_rows(self, r: np.ndarray) -> np.ndarray:
        """The ``rot`` rows of the rotation indices ``r``, one per index."""
        rot = np.empty((len(r), self.g.arc_count), dtype=np.int64)
        for x, (orders, stride) in enumerate(zip(self.orders, self.stride)):
            # table[j, i]: the successor of the i-th arc of A_x in order j.
            successors = [dict(zip(o, o[1:] + o[:1])) for o in orders]
            ax = self.g.incoming_arcs(x)
            table = np.array([[succ[e] for e in ax] for succ in successors])
            rot[:, ax] = table[r // stride % len(orders)]
        return rot

    def move_bits(self, targets: list[int]) -> np.ndarray:
        """The word map that moves bit k of every word to bit ``targets[k]``."""
        moved = np.zeros_like(self.word)
        for k, target in enumerate(targets):
            moved |= ((self.word >> k) & 1) << target
        return moved


def _orbit_labels(index: _RawIndex, moves) -> np.ndarray:
    """Per raw index, the smallest raw index of its orbit under ``moves``.

    Min-label propagation: each label takes the minimum with the label of
    each move's image, then jumps to its own label's label, until no move
    lowers any label.  Labels stay orbit members and only fall, and at the
    fixed point every label is constant on its orbit, hence the minimum.
    """
    n = index.rotations * index.words
    label = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    grid = label.reshape(index.rotations, index.words)
    while True:
        changed = False
        for rot_map, word_map in moves:
            moved = grid[rot_map[:, None], word_map]
            if (moved < grid).any():
                np.minimum(grid, moved, out=grid)
                changed = True
        if not changed:
            return label
        label[:] = label[label]


@dataclass(frozen=True)
class EmbeddingClass:
    """One embedding up to vertex flips, mirror and graph automorphisms: the
    faces of its representative, the orbit member of smallest raw index, and
    the orbit size.  Every other attribute is read from the faces."""

    decomposition: FacialDecomposition
    orbit_size: int

    @property
    def representative(self) -> RotationSystem:
        return self.decomposition.rs

    @property
    def orientable(self) -> bool:
        return self.decomposition.orientable

    @property
    def genus(self) -> int:
        return self.decomposition.genus

    @property
    def face_lengths(self) -> tuple[int, ...]:
        return self.decomposition.face_lengths

    @property
    def self_intersection_profile(self) -> tuple[tuple[int, int], ...]:
        """(face length, number of self-intersections) per face, descending."""
        fd = self.decomposition
        pairs = ((len(f), len(hits)) for f, hits in zip(fd.faces, fd.self_intersections))
        return tuple(sorted(pairs, reverse=True))

    @property
    def label(self) -> str:
        faces = ",".join(str(x) for x in self.face_lengths)
        return f"{self.decomposition.surface_label} [{faces}]"


def enumerate_embeddings(g: SymmetricDigraph) -> list[EmbeddingClass]:
    """All embedding classes of ``g``: orientable first, then by genus, face
    lengths and self-intersection profile (each ascending), ties in the
    raw-index order of their representatives.

    Raises :class:`BudgetError` when the raw count Prod (deg-1)! * 2^|E|
    exceeds the budget of :func:`check_budget`, which the EW_BUDGET
    environment variable alone sets.
    """
    degrees = [g.degree(x) for x in range(g.vertex_count)]
    for x, d in enumerate(degrees):
        if d < 2:
            raise GraphError(
                f"vertex {x} has degree {d}; a fixed-point-free "
                "cyclic rotation needs degree >= 2"
            )
    if not is_connected(g):
        raise GraphError("enumeration needs a connected graph")
    check_budget(g.edge_count, degrees)
    index = _RawIndex(g)
    moves = [index.flip(x) for x in range(g.vertex_count)]
    moves += [index.automorphism(p) for p in _generating_set(graph_automorphisms(g))]
    label = _orbit_labels(index, moves)

    # Each class is represented by its orbit root, the smallest raw index of
    # its orbit; the roots are numbered in order to count the orbit sizes.
    n = label.size
    roots = np.flatnonzero(label == np.arange(n, dtype=label.dtype))
    class_of = np.zeros(n, dtype=label.dtype)
    class_of[roots] = np.arange(len(roots))
    class_of = class_of[label]
    del label
    sizes = np.bincount(class_of, minlength=len(roots))

    rot = index.rotation_rows(roots // index.words)
    twist = (roots % index.words)[:, None] >> np.arange(g.edge_count) & 1
    # One check and one trace for every class, on the same rows.
    systems = RotationSystem.from_rows(g, rot, twist)
    traced = _trace_rows(systems, rot, twist)
    classes = [EmbeddingClass(fd, size) for fd, size in zip(traced, sizes.tolist())]

    classes.sort(key=lambda c: (not c.orientable, c.genus, c.face_lengths, c.self_intersection_profile))
    return classes


@dataclass(frozen=True)
class RankedClass:
    embedding: EmbeddingClass
    average: float
    limit: float


def rank_by_comfortability(classes, a: float) -> list[RankedClass]:
    """Classes sorted by average comfortability at coin parameter ``a``
    (descending); ties keep the enumeration order."""
    if not 0.0 < a < 1.0:
        raise AssumptionError("ranking needs 0 < a < 1")
    coin = Coin.real_symmetric(a)
    ranked = [
        RankedClass(
            embedding=c,
            average=average_comfortability(c.decomposition, coin),
            limit=limit_comfortability(c.decomposition),
        )
        for c in classes
    ]
    ranked.sort(key=lambda r: -r.average)
    return ranked


@dataclass(frozen=True)
class GenusSummary:
    orientable_min: int | None
    orientable_max: int | None
    nonorientable_min: int | None
    nonorientable_max: int | None


def min_max_genus(classes) -> GenusSummary:
    ori = [c.genus for c in classes if c.orientable]
    non = [c.genus for c in classes if not c.orientable]
    return GenusSummary(
        orientable_min=min(ori) if ori else None,
        orientable_max=max(ori) if ori else None,
        nonorientable_min=min(non) if non else None,
        nonorientable_max=max(non) if non else None,
    )

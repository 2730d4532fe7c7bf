"""Finite simple symmetric digraphs with an arc involution.

Arcs are stored in reverse pairs: arc ``2k`` runs ``u -> v`` and arc
``2k + 1`` runs ``v -> u``, so the involution is ``e ^ 1`` and the
undirected edge id of an arc is ``e >> 1``.  Vertices and arcs are dense
non-negative integers, which lets every permutation downstream (rotations,
face walks, covers) be a plain integer array.

A graph is validated as arrays, and keeps the int64 arrays of ``origin``
and ``terminus`` that validation reads (``origin_array``,
``terminus_array``): those it was given, or those it formed from tuples.
What else depends on the graph alone is derived once per graph, on first
read, and kept on it: the spanning forest of the one
graph search, :func:`bfs_forest` (``spanning_forest``), behind
connectivity, the orientability tree and the double-cover component count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphError

__all__ = [
    "SymmetricDigraph",
    "arc_reverse",
    "arc_edge",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "bfs_forest",
    "is_connected",
]


def arc_reverse(e: int) -> int:
    """The inverse arc (e-bar)."""
    return e ^ 1


def arc_edge(e: int) -> int:
    """The undirected edge id |e| supporting arc ``e``."""
    return e >> 1


class _memo:
    """An attribute computed by ``func`` on first read and then set on the
    object with ``object.__setattr__``, so that later reads find it first.
    Unlike :class:`functools.cached_property` it takes no lock and writes
    nothing into ``obj.__dict__``; on Python 3.11 reaching for the
    ``__dict__`` turns off CPython's fast path for every later read of the
    object's fields, which the census makes many of per graph."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


class Forest(NamedTuple):
    """A spanning forest: ``arcs`` are its tree arcs as :func:`bfs_forest`
    finds them; ``parent[v]`` and ``edge[v]`` are the parent of vertex
    ``v`` and the edge to it, a root being its own parent over edge 0."""

    arcs: tuple[int, ...]
    parent: np.ndarray
    edge: np.ndarray


@dataclass(frozen=True)
class SymmetricDigraph:
    """A finite simple graph seen as a symmetric digraph.

    ``origin[e]`` and ``terminus[e]`` give o(e) and t(e); the involution and
    edge projection are index arithmetic (see module docstring).  Either is
    given as a sequence of integers or as a flat integer array; the tuples
    serve Python loops, and ``origin_array`` and ``terminus_array`` are the
    int64 arrays the constructor validates: an int64 array given is kept,
    not copied, and made read-only, so the caller must not write to it
    afterwards.  A graph restored from a pickle derives them again on first
    read, and ``spanning_forest`` is derived on first read; all are kept
    out of ``==``, ``hash``, ``repr`` and pickles, and read only.
    """

    vertex_count: int
    origin: tuple[int, ...]
    terminus: tuple[int, ...]
    _incoming: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, o, t = self.vertex_count, self.origin, self.terminus
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(o) != len(t) or len(o) % 2:
            raise GraphError("arcs must come in reverse pairs")
        origin = _int64(o, lambda e, i: f"vertex id {i!r} at the origin of arc {e} is not an integer")
        terminus = _int64(t, lambda e, i: f"vertex id {i!r} at the terminus of arc {e} is not an integer")
        # A sound graph: each arc pair mutually inverse (the origins, each
        # pair swapped, are the termini), no vertex unknown (a negative id
        # read unsigned is past any vertex) and no arc twice, which a
        # self-loop (its two arcs alike) or an edge given twice would make.
        # Once the ids are known, the arc keys n terminus + origin are
        # exact: n^2 < 2^63 in any graph that can hold its tuple of arcs per
        # vertex.
        key = terminus * n + origin
        key.sort()
        if (
            origin.reshape(-1, 2)[:, ::-1].tobytes() != terminus.tobytes()
            or origin.view(np.uint64).max(initial=0) >= n
            or np.count_nonzero(key[1:] == key[:-1])
        ):
            raise GraphError(_first_bad_edge(n, origin, terminus))
        # A_x in increasing arc order: a stable sort of the arcs by terminus.
        arcs = terminus.argsort(kind="stable").tolist()
        bounds = np.add.accumulate(np.bincount(terminus, minlength=n)).tolist()
        object.__setattr__(
            self, "_incoming", tuple([tuple(arcs[a:b]) for a, b in zip([0] + bounds, bounds)])
        )
        if not isinstance(o, tuple):
            object.__setattr__(self, "origin", tuple(origin.tolist()))
        if not isinstance(t, tuple):
            object.__setattr__(self, "terminus", tuple(terminus.tolist()))
        origin.flags.writeable = terminus.flags.writeable = False
        object.__setattr__(self, "origin_array", origin)
        object.__setattr__(self, "terminus_array", terminus)

    def __getstate__(self):
        memos = ("origin_array", "terminus_array", "spanning_forest")
        return {k: v for k, v in self.__dict__.items() if k not in memos}

    @_memo
    def origin_array(self) -> np.ndarray:
        """``origin`` as a read-only int64 array."""
        return _read_only(np.array(self.origin, dtype=np.int64))[0]

    @_memo
    def terminus_array(self) -> np.ndarray:
        """``terminus`` as a read-only int64 array."""
        return _read_only(np.array(self.terminus, dtype=np.int64))[0]

    @_memo
    def spanning_forest(self) -> Forest:
        """The forest of :func:`bfs_forest`, with each vertex's parent and
        tree edge as read-only int64 arrays."""
        arcs = bfs_forest(self)
        parent, edge = list(range(self.vertex_count)), [0] * self.vertex_count
        for e in arcs:
            c = self.origin[e]
            parent[c], edge[c] = self.terminus[e], e >> 1
        parent, edge = np.array(parent, dtype=np.int64), np.array(edge, dtype=np.int64)
        return Forest(tuple(arcs), *_read_only(parent, edge))

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> "SymmetricDigraph":
        """The graph whose edge ``k`` is ``edges[k]``, a sequence of (u, v)
        pairs or an (m, 2) integer array: arc ``2k`` runs u -> v and arc
        ``2k + 1`` back.  The arc arrays are built from the pairs in numpy
        (an array given is copied), and the tuples from them."""
        if isinstance(edges, np.ndarray):
            if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
                raise GraphError("edges must be (u, v) pairs")
            origin = edges.flatten()
        else:
            flat = list(chain.from_iterable(edges))
            if len(flat) != 2 * len(edges):
                raise GraphError("edges must be (u, v) pairs")
            origin = np.array(flat)
            if origin.dtype.kind not in "iub":
                # An id beyond int64 or no integer at all: each is read as
                # given, so that the constructor names the arc at fault.
                origin = np.array(flat, dtype=object)
        return cls(vertex_count, origin, origin.reshape(-1, 2)[:, ::-1].flatten())

    @property
    def arc_count(self) -> int:
        return len(self.origin)

    @property
    def edge_count(self) -> int:
        return len(self.origin) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (min, max) vertex pairs, in edge-id order."""
        return [
            (min(self.origin[2 * k], self.terminus[2 * k]), max(self.origin[2 * k], self.terminus[2 * k]))
            for k in range(self.edge_count)
        ]

    def incoming_arcs(self, x: int) -> tuple[int, ...]:
        """A_x, the arcs with terminus ``x``, in increasing id order."""
        if not (0 <= x < self.vertex_count):
            raise GraphError(f"unknown vertex {x}")
        return self._incoming[x]

    def degree(self, x: int) -> int:
        return len(self.incoming_arcs(x))

    def arc_between(self, u: int, v: int) -> int:
        """The arc u -> v; raises if the edge is absent (graph is simple)."""
        for e in self._incoming[v]:
            if self.origin[e] == u:
                return e
        raise GraphError(f"no edge between {u} and {v}")


def complete_graph(n: int) -> SymmetricDigraph:
    """K_n for n >= 3 (smaller n cannot carry a rotation system)."""
    if n < 3:
        raise GraphError("complete_graph requires n >= 3")
    return SymmetricDigraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> SymmetricDigraph:
    if n < 3:
        raise GraphError("cycle_graph requires n >= 3")
    return SymmetricDigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SymmetricDigraph:
    if n < 2:
        raise GraphError("path_graph requires n >= 2")
    return SymmetricDigraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bfs_forest(g: SymmetricDigraph) -> list[int]:
    """A breadth-first spanning forest as its tree arcs in discovery order:
    arc ``e`` runs from the child ``origin[e]`` to its parent
    ``terminus[e]``.  Each tree is rooted at its smallest vertex and
    neighbours are visited in incoming-arc order, so the tree of vertex 0
    comes first; the forest has ``vertex_count`` minus the number of
    components arcs."""
    seen = [False] * g.vertex_count
    forest = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for e in g.incoming_arcs(x):
                y = g.origin[e]
                if not seen[y]:
                    seen[y] = True
                    forest.append(e)
                    queue.append(y)
    return forest


def is_connected(g: SymmetricDigraph) -> bool:
    return len(g.spanning_forest.arcs) == g.vertex_count - 1


def _first_bad_edge(n: int, origin: np.ndarray, terminus: np.ndarray) -> str:
    """The fault of the first edge at fault, each edge's faults tried in the
    order they are named.  Every edge before it is sound, so a duplicate
    repeats a sound edge, whose key is exact."""
    u, v = origin[0::2], terminus[0::2]
    low, high = np.minimum(u, v), np.maximum(u, v)
    unknown = (low < 0) | (high >= n)
    loop = low == high
    inverse = (origin[1::2] == v) & (terminus[1::2] == u)
    # Equal keys sit side by side in a stable sort, the earliest first.
    key = low * n + high
    order = key.argsort(kind="stable")
    duplicate = np.zeros(len(key), dtype=bool)
    duplicate[order[1:]] = key[order[1:]] == key[order[:-1]]
    k = int((unknown | loop | ~inverse | duplicate).argmax())
    if unknown[k]:
        return f"edge {k} references unknown vertex"
    if loop[k]:
        return f"self-loop at vertex {int(u[k])}"
    if not inverse[k]:
        return f"arc pair {k} is not mutually inverse"
    return f"duplicate edge {(int(low[k]), int(high[k]))}"


def _int64(values, fault) -> np.ndarray:
    """``values``, a flat sequence or array of integers, as an int64 array:
    an int64 array as it is, another integer array or a sequence converted.
    An integer beyond int64 becomes negative (-1 from a sequence, wrapped
    from a uint64 array), which names no vertex or arc either.
    Raises :class:`GraphError` with ``fault(i, value)`` for the first entry
    that is no integer (a float, even a whole one, or a string): nothing is
    truncated or parsed."""
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind in "iub":
            return values if values.dtype == np.int64 else values.astype(np.int64)
        values = values.tolist()
    else:
        try:
            ints = np.array(values)
        except ValueError:  # ragged nesting
            ints = None
        if ints is not None and ints.ndim == 1 and ints.dtype.kind in "iub":
            return ints.astype(np.int64, copy=False)
    for i, value in enumerate(values):
        if not isinstance(value, (int, np.integer, np.bool_)):
            raise GraphError(fault(i, value.item() if isinstance(value, np.generic) else value))
    return np.array([i if -(2**63) <= i < 2**63 else -1 for i in values], dtype=np.int64)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays

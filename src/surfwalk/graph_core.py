"""Finite simple symmetric digraphs with an arc involution.

Arcs are stored in reverse pairs: arc ``2k`` runs ``u -> v`` and arc
``2k + 1`` runs ``v -> u``, so the involution is ``e ^ 1`` and the
undirected edge id of an arc is ``e >> 1``.  Vertices and arcs are dense
non-negative integers, which lets every permutation downstream (rotations,
face walks, covers) be a plain integer array.

What depends on the graph alone is derived once per graph, on first read,
and kept on it: ``origin`` and ``terminus`` as int64 arrays
(``origin_array``, ``terminus_array``) and the spanning forest of the one
graph search, :func:`bfs_forest` (``spanning_forest``), behind
connectivity, the orientability tree and the double-cover component count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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
    edge projection are index arithmetic (see module docstring).  The
    tuples serve Python loops; ``origin_array``, ``terminus_array`` and
    ``spanning_forest`` are derived from them on first read, kept out of
    ``==``, ``hash``, ``repr`` and pickles, and read only.
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
        seen = set()
        for k, (u, v, u_back, v_back) in enumerate(zip(o[0::2], t[0::2], o[1::2], t[1::2])):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {k} references unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if (u_back, v_back) != (v, u):
                raise GraphError(f"arc pair {k} is not mutually inverse")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        inc: list[list[int]] = [[] for _ in range(n)]
        for e, x in enumerate(t):
            inc[x].append(e)
        object.__setattr__(self, "_incoming", tuple(tuple(a) for a in inc))

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
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "SymmetricDigraph":
        origin: list[int] = []
        terminus: list[int] = []
        for u, v in edges:
            origin += [u, v]
            terminus += [v, u]
        return cls(vertex_count, tuple(origin), tuple(terminus))

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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays

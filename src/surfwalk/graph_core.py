"""Finite simple symmetric digraphs with an arc involution.

Arcs are stored in reverse pairs: arc ``2k`` runs ``u -> v`` and arc
``2k + 1`` runs ``v -> u``, so the involution is ``e ^ 1`` and the
undirected edge id of an arc is ``e >> 1``.  Vertices and arcs are dense
non-negative integers, which lets every permutation downstream (rotations,
face walks, covers) be a plain integer array.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    "permutation_cycles",
]


def arc_reverse(e: int) -> int:
    """The inverse arc (e-bar)."""
    return e ^ 1


def arc_edge(e: int) -> int:
    """The undirected edge id |e| supporting arc ``e``."""
    return e >> 1


@dataclass(frozen=True)
class SymmetricDigraph:
    """A finite simple graph seen as a symmetric digraph.

    ``origin[e]`` and ``terminus[e]`` give o(e) and t(e); the involution and
    edge projection are index arithmetic (see module docstring).
    """

    vertex_count: int
    origin: tuple[int, ...]
    terminus: tuple[int, ...]
    _incoming: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())

    def __post_init__(self):
        n, o, t = self.vertex_count, self.origin, self.terminus
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(o) != len(t) or len(o) % 2:
            raise GraphError("arcs must come in reverse pairs")
        seen = set()
        for k in range(len(o) // 2):
            u, v = o[2 * k], t[2 * k]
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {k} references unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if (o[2 * k + 1], t[2 * k + 1]) != (v, u):
                raise GraphError(f"arc pair {k} is not mutually inverse")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        inc: list[list[int]] = [[] for _ in range(n)]
        for e, x in enumerate(t):
            inc[x].append(e)
        object.__setattr__(self, "_incoming", tuple(tuple(a) for a in inc))

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


def bfs_forest(g: SymmetricDigraph) -> list[tuple[int, int]]:
    """A breadth-first spanning forest as (parent, child) pairs in discovery
    order.  Each tree is rooted at its smallest vertex and neighbours are
    visited in incoming-arc order, so the tree of vertex 0 comes first; the
    forest has ``vertex_count`` minus the number of components pairs."""
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
                    forest.append((x, y))
                    queue.append(y)
    return forest


def is_connected(g: SymmetricDigraph) -> bool:
    return len(bfs_forest(g)) == g.vertex_count - 1


def permutation_cycles(succ: Sequence[int]) -> tuple[list[list[int]], list[int], list[int]]:
    """The cycles of the permutation ``succ`` of ``0 .. n-1``.

    Cycles are listed in order of their smallest element and each starts
    there.  Also returns, per element, the index of its cycle and its
    position on it, so ``cycles[cycle_of[x]][position[x]] == x``.
    """
    n = len(succ)
    cycle_of = [-1] * n
    position = [0] * n
    cycles: list[list[int]] = []
    for start in range(n):
        if cycle_of[start] >= 0:
            continue
        cycle = []
        x = start
        while cycle_of[x] < 0:
            cycle_of[x] = len(cycles)
            position[x] = len(cycle)
            cycle.append(x)
            x = succ[x]
        if x != start:
            raise GraphError("successor map is not a permutation")
        cycles.append(cycle)
    return cycles, cycle_of, position

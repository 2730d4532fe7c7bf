"""The rotation-system file format.

A file lists the vertex count, one ``edge u v twist`` line per edge and one
``rotation x: v1 v2 ... vd`` line per vertex giving the cyclic order of the
neighbors of ``x`` (the graph is simple, so a neighbor names the incoming
arc).  Edge ids follow the order of the edge lines.  Blank lines and ``#``
comments are ignored.
"""

from __future__ import annotations

from .errors import GraphError, ParseError
from .graph_core import SymmetricDigraph
from .rotation_system import RotationSystem

__all__ = ["parse_rotation_system", "serialize_rotation_system"]


def parse_rotation_system(text: str) -> RotationSystem:
    vertices: int | None = None
    edges: list[tuple[int, int]] = []
    twists: list[int] = []
    rotations: dict[int, list[int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "edge":
            if len(fields) != 4:
                raise ParseError("edge lines read: edge <u> <v> <twist>", line=lineno)
            try:
                u, v, t = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                _name_first_non_integer(fields, 1, lineno)
            if t not in (0, 1):
                raise ParseError(f"twist must be 0 or 1, got {t}", line=lineno)
            edges.append((u, v))
            twists.append(t)
        elif kind == "rotation":
            if len(fields) < 2 or not fields[1].endswith(":"):
                raise ParseError("rotation lines read: rotation <x>: <v1> <v2> ...", line=lineno)
            try:
                x = int(fields[1][:-1])
            except ValueError:
                raise ParseError(f"bad vertex {fields[1][:-1]!r}", line=lineno)
            if x in rotations:
                raise ParseError(f"duplicate rotation line for vertex {x}", line=lineno)
            try:
                rotations[x] = list(map(int, fields[2:]))
            except ValueError:
                _name_first_non_integer(fields, 2, lineno)
        elif kind == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", line=lineno)
            vertices = _int(fields, 1, lineno, expect=2)
        else:
            raise ParseError(f"unknown directive {kind!r}", line=lineno)

    if vertices is None:
        raise ParseError("missing vertices line")
    if not edges:
        raise ParseError("no edges")
    # Every vertex of a rotation system has degree >= 2, so |V| <= |E|.
    if vertices > len(edges):
        raise ParseError(
            f"{vertices} vertices need at least as many edges, got {len(edges)}"
        )
    missing = [x for x in range(vertices) if x not in rotations]
    if missing:
        raise ParseError(f"missing rotation line for vertices {_id_list(missing)}")
    extra = [x for x in rotations if not 0 <= x < vertices]
    if extra:
        raise ParseError(f"rotation lines for unknown vertices {_id_list(extra)}")

    try:
        graph = SymmetricDigraph.from_edges(vertices, edges)
        orders = [rotations[x] for x in range(vertices)]
        return RotationSystem.from_neighbor_orders(graph, orders, twists)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _id_list(ids: list[int]) -> str:
    """The first ten ids, and how many more there are."""
    if len(ids) <= 10:
        return str(ids)
    return f"{ids[:10]} and {len(ids) - 10} more"


def _int(fields, i, lineno, expect=None):
    if expect is not None and len(fields) != expect:
        raise ParseError(f"expected {expect} fields, got {len(fields)}", line=lineno)
    try:
        return int(fields[i])
    except (IndexError, ValueError):
        raise ParseError(f"expected an integer in field {i}", line=lineno)


def _name_first_non_integer(fields, first, lineno):
    """Raise the error of the first field from ``first`` on that is no integer."""
    for i in range(first, len(fields)):
        _int(fields, i, lineno)


def serialize_rotation_system(rs: RotationSystem) -> str:
    g = rs.graph
    lines = [f"vertices {g.vertex_count}"]
    for k, (u, v) in enumerate(
        (g.origin[2 * k], g.terminus[2 * k]) for k in range(g.edge_count)
    ):
        lines.append(f"edge {u} {v} {rs.twist[k]}")
    for x, order in enumerate(rs.neighbor_orders()):
        lines.append(f"rotation {x}: " + " ".join(str(v) for v in order))
    return "\n".join(lines) + "\n"

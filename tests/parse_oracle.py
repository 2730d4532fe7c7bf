"""The line parser of the rotation-system file format as it stood before
the array front end, kept as the oracle ``tests/test_fileformat.py``
compares the library's parser with.

:func:`parse_rotation_system` reads the text line by line
(``str.splitlines``) and converts each integer with ``int``; the graph and
the rotation are then built by the per-edge and per-vertex loops that
:meth:`SymmetricDigraph.__post_init__`, :meth:`SymmetricDigraph.from_edges`
and :meth:`RotationSystem.from_neighbor_orders` ran before they worked on
arrays (:func:`digraph`, :func:`neighbor_rotation`), and the rotation
is checked by the per-vertex loop that :class:`RotationSystem` ran before
its array check (:func:`check_rotation`).  It returns the library's
:class:`RotationSystem` built from those fields, and the incoming-arc
lists the loop found.  Nothing here calls the library's parser, graph
validation, neighbour lookup or rotation check, save to build the
returned system once every check has passed.
"""

from surfwalk.errors import GraphError, ParseError
from surfwalk.graph_core import SymmetricDigraph
from surfwalk.rotation_system import RotationSystem


def digraph(vertex_count, edges):
    """(origin, terminus, incoming) of the graph with the given edges,
    validated edge by edge, the first fault raised."""
    origin: list[int] = []
    terminus: list[int] = []
    for u, v in edges:
        origin += [u, v]
        terminus += [v, u]
    return validated(vertex_count, tuple(origin), tuple(terminus))


def validated(n, o, t):
    """(o, t, incoming) once every edge passes, else the GraphError of the
    first edge at fault."""
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
    return o, t, tuple(tuple(a) for a in inc)


def neighbor_rotation(origin, incoming, orders):
    """The rotation of per-vertex cyclic neighbour lists, vertex by vertex."""
    rot = [0] * len(origin)
    for x, order in enumerate(orders):
        if x >= len(incoming):
            raise GraphError(f"unknown vertex {x}")
        arc_from = {origin[e]: e for e in incoming[x]}
        if len(order) != len(arc_from) or arc_from.keys() != set(order):
            raise GraphError(
                f"rotation at vertex {x} must list its neighbors {sorted(arc_from)} exactly once"
            )
        arcs = [arc_from[u] for u in order]
        for i, e in enumerate(arcs):
            rot[e] = arcs[(i + 1) % len(arcs)]
    return rot


def check_rotation(graph, rot, twist):
    """Raise the GraphError of the first fault of ``rot`` and ``twist``,
    sequences of ints, as a rotation system on ``graph``, vertex by vertex;
    return if there is none."""
    if len(rot) != graph.arc_count:
        raise GraphError("rotation must cover every arc")
    if len(twist) != graph.edge_count:
        raise GraphError("twist must cover every edge")
    if any(t not in (0, 1) for t in twist):
        raise GraphError("twists must be 0 or 1")
    if rot and not (0 <= min(rot) and max(rot) < len(rot)):
        raise GraphError(f"rotation names an arc outside 0..{len(rot) - 1}")
    if len(set(rot)) != len(rot):
        raise GraphError("successor map is not a permutation")
    for x, ax in enumerate(graph.incoming_arcs(x) for x in range(graph.vertex_count)):
        if len(ax) < 2:
            raise GraphError(
                f"vertex {x} has degree {len(ax)}; a fixed-point-free "
                "cyclic rotation needs degree >= 2"
            )
        # rho_x must be one cycle through all of A_x (so no fixed point).
        for e in ax:
            if graph.terminus[rot[e]] != x:
                raise GraphError(f"rotation leaves A_{x} at arc {e}")
        # rho is a permutation that keeps A_x, so the cycle through the
        # first arc of A_x stays in A_x.
        first = ax[0]
        e, length = rot[first], 1
        while e != first:
            e, length = rot[e], length + 1
        if length != len(ax):
            raise GraphError(f"rotation at vertex {x} is not a single cycle")


def parse_rotation_system(text: str):
    """(rotation system, incoming-arc lists) of the file ``text``."""
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
        origin, terminus, incoming = digraph(vertices, edges)
        orders = [rotations[x] for x in range(vertices)]
        rot = neighbor_rotation(origin, incoming, orders)
        graph = SymmetricDigraph(vertices, origin, terminus)
        check_rotation(graph, rot, twists)
        return RotationSystem(graph, tuple(rot), tuple(twists)), incoming
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

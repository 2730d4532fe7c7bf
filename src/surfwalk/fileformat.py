"""The rotation-system file format.

A file lists the vertex count, one ``edge u v twist`` line per edge and one
``rotation x: v1 v2 ... vd`` line per vertex giving the cyclic order of the
neighbors of ``x`` (the graph is simple, so a neighbor names the incoming
arc).  Edge ids follow the order of the edge lines.

Lines end at ``\n`` only; a trailing ``\r`` is whitespace, so CRLF files
read the same.  A ``#`` starts a comment that runs to the end of its line,
and blank lines are ignored.  Integers are decimal, an optional sign and
ASCII digits, and must fit in a signed 64-bit integer.  :func:`read_int`
holds that rule, and is the one reader of integers from outside: the
budget (EW_BUDGET) and the CLI's ``--inflow``, ``--max-steps`` and the n
of ``K<n>`` are read by it too, and :func:`read_float` reads floats alike.

The parser reads the text once, line by line, keeping every integer field
as text.  The fields are converted in one call, and the graph and the
rotation are checked as arrays (:class:`SymmetricDigraph`, and the lookup
behind :meth:`RotationSystem.from_neighbor_orders`).  The first fault in
line order is reported; the fields are checked line by line only when the
conversion is in doubt or found a fault of value, to name the line and
field at fault.
"""

from __future__ import annotations

import re
from itertools import accumulate

import numpy as np

from .errors import GraphError, ParseError
from .graph_core import SymmetricDigraph
from .rotation_system import RotationSystem, _rotation

__all__ = ["parse_rotation_system", "serialize_rotation_system"]


def parse_rotation_system(text: str) -> RotationSystem:
    """The rotation system the file ``text`` gives; a :class:`ParseError`
    names the first fault in line order."""
    # The line pass keeps strings and ints only: what it keeps lives until
    # the end of the parse, and a list kept per line would make the garbage
    # collector run within it.
    numbers: list[str] = []  # "edge", u, v and twist of each edge line
    edge_lines: list[int] = []
    heads: list[str] = []  # x of each rotation line
    neighbours: list[str] = []  # each rotation line's neighbours, line after line
    degrees: list[int] = []
    rotation_lines: list[int] = []
    vertices = vertices_line = None
    # The pass stops at the first line whose form is at fault; the faults of
    # value on the lines before it come first.
    fault = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.partition("#")[0].split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "edge":
            if len(fields) != 4:
                fault = ParseError("edge lines read: edge <u> <v> <twist>", line=lineno)
                break
            numbers += fields
            edge_lines.append(lineno)
        elif kind == "rotation":
            if len(fields) < 2 or not fields[1].endswith(":"):
                fault = ParseError("rotation lines read: rotation <x>: <v1> <v2> ...", line=lineno)
                break
            heads.append(fields[1][:-1])
            neighbours += fields[2:]
            degrees.append(len(fields) - 2)
            rotation_lines.append(lineno)
        elif kind == "vertices":
            if vertices is not None:
                fault = ParseError("duplicate vertices line", line=lineno)
                break
            if len(fields) != 2:
                fault = ParseError(f"expected 2 fields, got {len(fields)}", line=lineno)
                break
            vertices, vertices_line = fields[1], lineno
        else:
            fault = ParseError(f"unknown directive {kind!r}", line=lineno)
            break

    m = len(edge_lines)
    del numbers[::4]  # the word "edge"
    values, doubtful = _integers(numbers + heads + neighbours + [vertices or "0"])
    if values is not None:
        # In a sound file the rotation lines' vertices are 0 .. n - 1, each
        # once.  A twist other than 0 or 1 or a vertex's second rotation
        # line is a fault of value, named in line order like the others.
        x, n = values[3 * m : 3 * m + len(heads)], int(values[-1])
        in_order = np.sort(x)
        permutation = len(x) == n and bool((in_order == np.arange(n)).all())
        repeated = not permutation and bool((in_order[1:] == in_order[:-1]).any())
        doubtful = doubtful or repeated or bool((values[2 : 3 * m : 3] >> 1).any())
    if doubtful:
        # Check every field of the lines read, rebuilt in line order: the
        # first fault of value is named (there is one if the read failed),
        # and with none the read was right.
        read = [(line, ["edge", *numbers[3 * k : 3 * k + 3]]) for k, line in enumerate(edge_lines)]
        ends = accumulate(degrees)
        read += [
            (line, ["rotation", x + ":", *neighbours[end - d : end]])
            for line, x, d, end in zip(rotation_lines, heads, degrees, ends)
        ]
        if vertices is not None:
            read.append((vertices_line, ["vertices", vertices]))
        _name_fault(sorted(read))
    if fault is not None:
        raise fault

    if vertices is None:
        raise ParseError("missing vertices line")
    if not m:
        raise ParseError("no edges")
    # Every vertex of a rotation system has degree >= 2, so |V| <= |E|.
    if n > m:
        raise ParseError(f"{n} vertices need at least as many edges, got {m}")
    edges, twist = values[: 3 * m].reshape(m, 3)[:, :2], values[2 : 3 * m : 3]
    if not permutation:
        known = (x >= 0) & (x < n)
        present = np.zeros(max(n, 0), dtype=bool)
        present[x[known]] = True
        if not present.all():
            raise ParseError(f"missing rotation line for vertices {_id_list(np.flatnonzero(~present).tolist())}")
        if not known.all():
            raise ParseError(f"rotation lines for unknown vertices {_id_list(x[~known].tolist())}")

    try:
        graph = SymmetricDigraph.from_edges(n, edges)
        rot = _rotation(graph, x, np.array(degrees, dtype=np.int64), values[3 * m + n : -1])
        return RotationSystem(graph, rot, twist)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _id_list(ids: list[int]) -> str:
    """The first ten ids, and how many more there are."""
    if len(ids) <= 10:
        return str(ids)
    return f"{ids[:10]} and {len(ids) - 10} more"


_INT64 = range(-(2**63), 2**63)
_DECIMAL = re.compile(r"[+-]?[0-9]+")
# A decimal float with an optional exponent, or a word float() reads.
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))")


def _integers(fields: list[str]) -> tuple[np.ndarray | None, bool]:
    """``fields`` as int64, read in one call, and whether the read is in
    doubt.

    ``np.fromstring`` reads exactly the fields that match ``_DECIMAL``, save
    two kinds that it misreads: a lone sign, which it reads as 0, and a
    value beyond int64, which it reads as the int64 maximum.  So the read
    is in doubt if it failed or came out short, or if the fields hold a
    sign or that maximum; :func:`_name_fault` then checks every field.
    """
    joined = " ".join(fields)
    try:
        values = np.fromstring(joined, dtype=np.int64, sep=" ")
    # Older numpy reports a field it cannot read with a DeprecationWarning
    # and a short read, the warning raised where warnings are errors.
    except (ValueError, DeprecationWarning):
        return None, True
    doubtful = len(values) != len(fields) or "+" in joined or "-" in joined or values.max() == _INT64[-1]
    return values, doubtful


def read_int(text: str) -> int | None:
    """The integer ``text`` spells, an optional sign and ASCII digits, or
    None if it spells none.  More than 19 significant digits are past int64
    and read as ±10**19, so ``value in _INT64`` still checks the range, and
    int() never sees the more than 4300 digits it refuses.  Test for None
    first: ``None in _INT64`` scans the whole range."""
    if not _DECIMAL.fullmatch(text):
        return None
    if len(text.lstrip("+-").lstrip("0")) > 19:
        return -(10**19) if text[0] == "-" else 10**19
    return int(text)


def read_float(text: str) -> float | None:
    """The float ``text`` spells, or None: ASCII digits with an optional
    sign, point and exponent, or float()'s words ``inf``, ``infinity`` and
    ``nan``; no ``_``, surrounding whitespace or other scripts' digits."""
    if not _FLOAT.fullmatch(text):
        return None
    return float(text)


def _int(field: str, i: int, lineno: int, message: str | None = None) -> int:
    """The integer in ``field``, field ``i`` of its line, or the ParseError
    that names it: ``message`` if it is no decimal integer, and a range fault
    if it does not fit in 64 bits."""
    value = read_int(field)
    if value is None:
        raise ParseError(message or f"expected an integer in field {i}", line=lineno)
    if value not in _INT64:
        raise ParseError(f"field {i} does not fit in 64 bits", line=lineno)
    return value


def _name_fault(read: list[tuple[int, list[str]]]) -> None:
    """Raise the first fault of value among the lines ``read``, in line
    order: a field that is no decimal integer or does not fit in 64 bits, a
    twist other than 0 or 1, or a vertex's second rotation line; return if
    there is none.  Called only when the bulk read of the fields is in
    doubt, to name the line and field at fault."""
    seen = set()
    for lineno, fields in read:
        if fields[0] == "rotation":
            x = _int(fields[1][:-1], 1, lineno, f"bad vertex {fields[1][:-1]!r}")
            if x in seen:
                raise ParseError(f"duplicate rotation line for vertex {x}", line=lineno)
            seen.add(x)
            first = 2
        else:
            first = 1
        for i in range(first, len(fields)):
            value = _int(fields[i], i, lineno)
        if fields[0] == "edge" and value not in (0, 1):
            raise ParseError(f"twist must be 0 or 1, got {value}", line=lineno)


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

"""Command-line front end.

Exit codes: 0 success, 2 file parse error or bad option (a FILE or GRAPH
that cannot be read, and an ``--out`` that is empty or cannot be opened or
written, among them) or a stdout that cannot be written, 3 invariant or
coin-assumption violation, 4 non-convergence, 5 enumeration budget
exceeded.

Each command is a function registered with :func:`_command` at import,
with its table: its one argument (FILE or GRAPH) and its options, each
with the function that reads its value, its default and its help.  One
loop over argv reads a command line against its table.  An option's value
is the token after it, whatever that token starts with (``--d -0.3,0.4``),
or follows ``=`` (``--d=-0.3,0.4``); ``--`` ends the options.  A usage
fault exits 2 with one ``error:`` line, and ``--help`` prints the usage.
Integers (``--max-steps``, an ``--inflow`` tail id, the n of ``K<n>``)
are read as the file format reads one, by
:func:`~surfwalk.fileformat.read_int`, and floats (``--tol``, ``--a`` and
each part of a coin entry) by :func:`~surfwalk.fileformat.read_float`.

Complex numbers cross the boundary as ``re,im`` pairs: coin flags accept
``0.7`` or ``0.5,-0.5``; JSON matrices are row-major arrays of such
strings and CSV uses two columns per complex entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import stat
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .comfortability import average_comfortability, comfortability, limit_comfortability
from .covering_blowup import double_cover, hedgehog
from .enumeration import check_budget, enumerate_embeddings, rank_by_comfortability
from .errors import (
    AssumptionError,
    BudgetError,
    ConvergenceError,
    GraphError,
    ParseError,
)
from .fileformat import _INT64, parse_rotation_system, read_float, read_int
from .graph_core import complete_graph
from .rotation_system import detect_orientability, trace_faces
from .scattering import scattering_matrix, stationary_closed_form
from .walk_dynamics import Coin, internal_energy, run_to_stationary

EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_CONVERGENCE = 4
EXIT_BUDGET = 5


# Every float of an exported array or matrix is written by this one call, as
# '%.17g' (the same bytes as f"{x:.17g}"), which round-trips.  Scalars, in
# JSON and in the enumerate/rank CSV, are written as json.dumps writes them,
# by float.__repr__, which round-trips too.
_format_float = "%.17g".__mod__


def _distinct_texts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%.17g' text of each distinct 64-bit pattern in a float array (an
    object array), and for every entry of ``x`` the index of its text.

    Each pattern is formatted once: exported arrays repeat values.
    Patterns are compared, not values, so -0.0 keeps its sign next to 0.0.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits, inverse = np.unique(x.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(list(map(_format_float, bits.view(np.float64).tolist())), dtype=object)
    return texts, inverse.reshape(x.shape)


def _complex_texts(z: np.ndarray) -> np.ndarray:
    """The 're,im' text of every entry of a complex array, same shape.

    Each distinct (re, im) pair of texts is joined once as well, so equal
    entries share one string.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    texts, inverse = _distinct_texts(z[..., None].view(np.float64))
    pairs, pair_inverse = np.unique(inverse[..., 0] * len(texts) + inverse[..., 1], return_inverse=True)
    joined = (texts + ",")[pairs // len(texts)] + texts[pairs % len(texts)]
    return joined[pair_inverse.reshape(z.shape)]


def _frame(indent: str) -> tuple[str, str, str]:
    """The opening, the item separator and the closing of a non-empty array
    as json.dumps(indent=2) writes it with its closing bracket at
    ``indent``."""
    inner = indent + "  "
    return "[\n" + inner, ",\n" + inner, "\n" + indent + "]"


def _json_array(items: list[str], indent: str, quote: str = '"') -> str:
    """``json.dumps`` with indent=2 of a list, nested at ``indent``, whose
    items are their ``items`` texts between ``quote``s: strings that need no
    escaping, or with ``quote=""`` JSON texts (ints, or records already
    indented to the items' depth)."""
    if not items:
        return "[]"
    start, sep, end = _frame(indent)
    return f"{start}{quote}{(quote + sep + quote).join(items)}{quote}{end}"


def _json_records(template: str, records: list[tuple]):
    """A renderer for :func:`_iterdumps` of a list of records, each written
    as ``template % record``: ``template`` is one record as
    json.dumps(indent=2) writes it at indent 0, its fields ``%d``."""

    def render(indent):
        record = template.replace("\n", "\n" + indent + "  ")
        return _json_array(list(map(record.__mod__, records)), indent, quote="")

    return render


# One legend record as json.dumps(indent=2) writes it at indent 0.
_LEGEND_RECORD = '{\n  "tail": %d,\n  "bridge": %d,\n  "base_arc": [\n    %d,\n    %d\n  ],\n  "sheet": %d\n}'


def _json_legend(bg):
    """A renderer of the tail legend for :func:`_iterdumps`: one record per
    tail, the island arc it sits on, the bridge feeding it and the base arc
    (origin, terminus) and sheet underneath."""
    dc = bg.cover
    g = dc.base.graph
    records = zip(
        range(bg.size),
        bg.bar.tolist(),
        g.origin_array[dc.proj].tolist(),
        g.terminus_array[dc.proj].tolist(),
        dc.sheet.tolist(),
    )
    return _json_records(_LEGEND_RECORD, list(records))


# json.dumps writes the slot string "\x00" as "\u0000"; no other string a
# command exports holds a control character.
_SLOT = '"\\u0000"'


def _iterdumps(payload) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2)``, in parts, for a
    payload whose pre-rendered values are renderers: callables that take
    the indent of their slot and return the value's text.

    With an indent, json.dumps runs the pure-Python encoder.  It renders
    only the skeleton here, with a slot string in place of each renderer,
    and each one's text is spliced into its slot in the same layout, at the
    indent of the line the slot is on.  The parts are rendered as they are
    taken, so the whole text need never be held.
    """
    renders = []

    def slot(node):
        if isinstance(node, dict):
            return {key: slot(value) for key, value in node.items()}
        if isinstance(node, list):
            return [slot(value) for value in node]
        if callable(node):
            renders.append(node)
            return "\x00"
        return node

    # The encoder visits the payload in the order slot() did.
    parts = json.dumps(slot(payload), indent=2).split(_SLOT)
    yield parts[0]
    for before, render, after in zip(parts, renders, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield render(line[: len(line) - len(line.lstrip(" "))])
        yield after


def _parse_complex(text: str) -> complex:
    parts = [read_float(part) for part in text.split(",")]
    if len(parts) <= 2 and None not in parts:
        return complex(*parts)
    raise AssumptionError(f"complex values read 're' or 're,im', got {text!r}")


def _coin_from_options(a, b, c, d) -> Coin:
    return Coin(_parse_complex(a), _parse_complex(b), _parse_complex(c), _parse_complex(d))


class UsageError(Exception):
    """A command line, an ``--out`` or a stdout that a command cannot use:
    exit 2 with one ``error:`` line."""


class _Option(NamedTuple):
    """One entry of a command's table: an option, or the command's one
    argument.  ``read`` turns its text into the value passed as keyword
    ``dest``, or raises ValueError with the reason; a flag has no ``read``
    and takes no text.  The values of a ``multiple`` option, which may be
    given again and again, are passed as a tuple."""

    name: str
    dest: str
    read: Callable[[str], object] | None
    default: object = None
    metavar: str = ""
    help: str = ""
    multiple: bool = False


class _Command(NamedTuple):
    run: Callable
    argument: _Option
    options: dict[str, _Option]
    defaults: dict[str, object]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, argument: _Option, *options: _Option):
    """Register the decorated function as command ``name``, with its table;
    every command also takes ``--help``."""
    options += (_Option("--help", "help", None, False, help="Show this message and exit."),)
    table = {option.name: option for option in options}
    defaults = {option.dest: option.default for option in options}

    def register(run):
        _COMMANDS[name] = _Command(run, argument, table, defaults)
        return run

    return register


def _float(text: str) -> float:
    value = read_float(text)
    if value is None:
        raise ValueError(f"{text!r} is not a valid float.")
    return value


def _integer(text: str) -> int:
    """An integer option, read as the file format reads an integer."""
    value = read_int(text)
    if value is None:
        raise ValueError(f"{text!r} is not a valid integer.")
    if value not in _INT64:
        raise ValueError(f"{text!r} does not fit in 64 bits.")
    return value


def _choice(*choices: str) -> Callable[[str], str]:
    def read(text):
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return read


def _input_file(text: str) -> str:
    """FILE: a file that exists, is no directory and can be read."""
    try:
        mode = os.stat(text).st_mode
    except OSError:
        raise ValueError(f"File {text!r} does not exist.") from None
    if stat.S_ISDIR(mode):
        raise ValueError(f"File {text!r} is a directory.")
    if not os.access(text, os.R_OK):
        raise ValueError(f"File {text!r} is not readable.")
    return text


def _graph(text: str) -> int | str:
    """GRAPH: the n of K<n> (or k<n>), n a non-negative integer as the file
    format reads one, or else a FILE."""
    n = read_int(text[1:]) if text[:1] in ("K", "k") else None
    if n is not None and n >= 0:
        return n
    try:
        return _input_file(text)
    except ValueError:
        raise ValueError(f"{text!r} is neither K<n> nor a rotation-system file") from None


def _out_file(text: str) -> str:
    """``--out``: checked before the work is done, and refused if it is
    empty or a directory; one that cannot be opened or written fails when
    written."""
    if not text:
        raise ValueError("an empty path names no file.")
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    return text


_FILE = _Option("FILE", "file", _input_file)
_GRAPH = _Option("GRAPH", "graph", _graph)
_OUT = _Option("--out", "out", _out_file, None, "FILE", "write the document here instead of stdout")
_COIN_DEFAULT = f"{1 / np.sqrt(2):.17g}"
_COIN = tuple(
    _Option(f"--{entry}", f"{entry}_", str, default, "TEXT", f"coin entry {entry} (re[,im])")
    for entry, default in zip("abcd", [_COIN_DEFAULT] * 3 + [f"-{_COIN_DEFAULT}"])
)


def _columns(rows: Iterable[tuple[str, str]]) -> str:
    """Help rows, their second column aligned."""
    rows = list(rows)
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{right}".rstrip() for left, right in rows)


def _help(name: str | None) -> str:
    """The usage of command ``name``, or with None of the program, ended
    by its newline so that it is written in one piece."""
    if name is None:
        commands = _columns((key, command.run.__doc__) for key, command in _COMMANDS.items())
        return (
            "Usage: surfwalk [OPTIONS] COMMAND [ARGS]...\n\n"
            "  Quantum walks on graph embeddings given by rotation systems.\n\n"
            f"Options:\n  --help  Show this message and exit.\n\nCommands:\n{commands}\n"
        )
    command = _COMMANDS[name]
    options = _columns(
        (
            f"{option.name} {option.metavar}".rstrip(),
            option.help + (f"  [default: {option.default}]" if option.read and option.default not in (None, ()) else ""),
        )
        for option in command.options.values()
    )
    usage = f"Usage: surfwalk {name} [OPTIONS] {command.argument.name}"
    return f"{usage}\n\n  {command.run.__doc__}\n\nOptions:\n{options}\n"


def _read(option: _Option, text: str):
    try:
        return option.read(text)
    except ValueError as exc:
        raise UsageError(f"Invalid value for {option.name!r}: {exc}") from None


def _parse(args: list[str]) -> tuple[Callable, dict]:
    """The function a command line runs and its keyword arguments: a
    command and its values, or :func:`_emit` and the usage asked for with
    ``--help``.  A fault of the line is a :class:`UsageError`."""
    if not args:
        raise UsageError("Missing command.")
    name = args[0]
    if name == "--help":
        return _emit, {"text": _help(None), "out": None}
    if name.startswith("-"):
        raise UsageError(f"No such option {name.partition('=')[0]!r}.")
    command = _COMMANDS.get(name)
    if command is None:
        raise UsageError(f"No such command {name!r}.")
    values = dict(command.defaults)
    positional = []
    tokens = iter(args[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            positional.append(token)
            continue
        if token == "--":
            positional += tokens
            break
        key, eq, text = token.partition("=")
        option = command.options.get(key)
        if option is None:
            raise UsageError(f"No such option {key!r}.")
        if option.read is None:
            if eq:
                raise UsageError(f"Option {key!r} does not take a value.")
            values[option.dest] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"Option {key!r} requires an argument.")
        value = _read(option, text)
        values[option.dest] = (*values[option.dest], value) if option.multiple else value
    if values.pop("help"):
        return _emit, {"text": _help(name), "out": None}
    if not positional:
        raise UsageError(f"Missing argument {command.argument.name!r}.")
    if len(positional) > 1:
        extra = positional[1:]
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
    values[command.argument.dest] = _read(command.argument, positional[0])
    return command.run, values


def _load_system(path: str):
    """The rotation system in the file ``path``; a file that cannot be
    opened or read is a usage fault."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from exc
    return parse_rotation_system(text)


def _load_graph(graph: int | str):
    """The graph GRAPH names: K_n for an int n, else the graph of a file."""
    if isinstance(graph, str):
        return _load_system(graph).graph
    # The budget is checked from n alone, before any edge is built; an n
    # past 10**18 is past every budget, and itertools.repeat takes no more.
    n = min(graph, 10**18)
    check_budget(n * (n - 1) // 2, itertools.repeat(n - 1, n))
    return complete_graph(n)


def _emit(text: str | Iterable[str], out: str | None):
    """Write ``text``, a string or strings taken in turn, ended by one
    newline, to ``out`` or else to stdout: the same bytes either way.  The
    parts are written as they come and the newline on its own, so a large
    document is never joined or copied whole.

    An existing ``out`` is written over in place, not truncated when it is
    opened: truncating first frees all of a file's blocks before the first
    byte goes in, which costs more than the write on some file systems.
    Once the writing ends, by return or by raise, a regular file is cut at
    the last byte written, so it holds exactly those bytes; a device or a
    FIFO is never cut.  A process killed during the write (SIGKILL) leaves
    the old file's tail after the new prefix.  An ``out`` that cannot be
    opened or written is a bad ``--out``, and a stdout that cannot be
    written a usage error: either exits 2 with one ``error:`` line.
    """

    def write_all(write):
        ended = False
        for part in (text,) if isinstance(text, str) else text:
            write(part)
            ended = part.endswith("\n") if part else ended
        if not ended:
            write("\n")

    if out:
        try:
            # O_BINARY (Windows only) as open() sets it: the text writer
            # translates newlines itself.
            fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        except OSError as exc:
            raise UsageError(f"Invalid value for '--out': cannot open {out!r}: {exc.strerror}") from exc
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                try:
                    write_all(fh.write)
                finally:
                    try:
                        fh.flush()
                    finally:
                        if stat.S_ISREG(os.fstat(fd).st_mode):
                            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except OSError as exc:
            raise UsageError(f"Invalid value for '--out': cannot write {out!r}: {exc.strerror}") from exc
    else:
        stdout = sys.stdout

        def write(part):
            stdout.write(part)
            stdout.flush()

        try:
            write_all(write)
        except OSError as exc:
            # What did not reach stdout stays in its buffer, and the flush at
            # interpreter exit would fail on it again and exit 120: point the
            # descriptor at the null device so that flush succeeds.
            try:
                fd = stdout.fileno()
            except (AttributeError, OSError, ValueError):
                pass
            else:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            raise UsageError(f"cannot write stdout: {exc.strerror}") from exc


# A faces edge [u, v, twist], face arc [origin, terminus] and
# self-intersection record as json.dumps(indent=2) writes each at indent 0.
_EDGE_RECORD = "[\n  %d,\n  %d,\n  %d\n]"
_ARC_RECORD = "[\n  %d,\n  %d\n]"
_HIT_RECORD = '{\n  "edge": [\n    %d,\n    %d\n  ],\n  "distances": [\n    %d,\n    %d\n  ]\n}'


def _faces_payload(rs) -> dict:
    """The faces document; its arrays are renderers for :func:`_iterdumps`."""
    fd = trace_faces(rs)
    g = rs.graph
    edges = g.edges()
    faces = [
        {
            "length": len(face),
            "arcs": _json_records(_ARC_RECORD, [(g.origin[e], g.terminus[e]) for e in face]),
            "self_intersections": _json_records(
                _HIT_RECORD, [(*edges[k], *d) for k, d in sorted(hits.items())]
            ),
        }
        for face, hits in zip(fd.faces, fd.self_intersections)
    ]
    return {
        "vertices": g.vertex_count,
        "edges": _json_records(_EDGE_RECORD, [(u, v, t) for (u, v), t in zip(edges, rs.twist)]),
        "orientable": fd.orientable,
        "genus": fd.genus,
        "face_lengths": list(fd.face_lengths),
        "faces": faces,
    }


@_command("faces", _FILE, _OUT)
def cmd_faces(file, out):
    """Facial walks, self-intersections, orientability and genus."""
    rs = _load_system(file)
    _emit(_iterdumps(_faces_payload(rs)), out)


@_command("genus", _FILE, _OUT)
def cmd_genus(file, out):
    """Genus and orientability of the embedded surface."""
    rs = _load_system(file)
    fd = trace_faces(rs)
    payload = {
        "orientable": fd.orientable,
        "genus": fd.genus,
        "surface": fd.surface_label,
        "face_count": len(fd.faces),
    }
    _emit(json.dumps(payload, indent=2), out)


@_command("orientable", _FILE, _OUT)
def cmd_orientable(file, out):
    """Orientability by the spanning tree, checked by the double cover."""
    rs = _load_system(file)
    orientable, _ = detect_orientability(rs)
    components = double_cover(rs).components
    payload = {
        "orientable": orientable,
        "double_cover_components": components,
        "agreement": (components == 2) == orientable,
    }
    _emit(json.dumps(payload, indent=2), out)


def _block_texts(s) -> tuple[np.ndarray, list[np.ndarray], list[list[str]]]:
    """The 're,im' text of the 2q values of each face, face after face;
    per face the grid of its entries' positions in that array (its index
    grid from :meth:`face_tables`, offset by the values of the faces
    before); and per face its tail ids as texts.

    S_f is Q_f plus d on the diagonal, whose value (at ``index[0, 0]``) no
    other entry uses.  The texts are rendered once: O(sum q), not
    O(sum q^2), floats.
    """
    values, grids, tails, start = [], [], [], 0
    for face, v, index in s.face_tables():
        # The sum also turns each -0.0 imaginary part into 0.0, as exported.
        values.append(v + s.coin.d * (np.arange(len(v)) == index[0, 0]))
        grids.append(index + start)
        start += len(v)
        tails.append(list(map(str, face.tolist())))
    return _complex_texts(np.concatenate(values)), grids, tails


def _joined_cells(grid: np.ndarray, in_row: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """Per entry of a face's grid, its value's text with what follows it:
    ``in_row`` texts, and ``row_end`` ones in the last column."""
    cells = in_row[grid]
    cells[:, -1] = row_end[grid[:, -1]]
    return cells


def _json_blocks(texts: np.ndarray, grids: list[np.ndarray]) -> list:
    """One renderer per face for :func:`_iterdumps`: given the indent of its
    slot, the face's matrix as json.dumps(indent=2) writes a list of rows of
    strings.

    Each value text is joined, once for all faces, with what follows it
    inside a row and at a row's end, so a face's matrix is one join over
    its q^2 entries.
    """

    @functools.cache
    def framed(indent):
        """The value texts joined with what follows them in a row and at a
        row's end, the opening of the first row and the closing of the last."""
        start, sep, end = _frame(indent)
        row_start, row_sep, row_end = _frame(indent + "  ")
        in_row = texts + f'"{row_sep}"'
        row_break = texts + f'"{row_end}{sep}{row_start}"'
        return in_row, row_break, f'{start}{row_start}"', f'"{row_end}{end}'

    def render(grid, indent):
        in_row, row_break, first, last = framed(indent)
        cells = _joined_cells(grid, in_row, row_break)
        # The last cell first: for q = 1 it is also the first.
        cells[-1, -1] = texts[grid[-1, -1]] + last
        cells[0, 0] = first + cells[0, 0]
        return "".join(cells.ravel().tolist())

    return [functools.partial(render, grid) for grid in grids]


def _csv_blocks(texts: np.ndarray, grids: list[np.ndarray], leads: list[list[str]]) -> Iterator[str]:
    """Each face's CSV rows, one string per face: per row its lead cells
    (``leads[i]``, one text per row, ended by a comma) and then two cells,
    re and im, per entry.  As in :func:`_json_blocks`, the value texts are
    joined with their separators once for all faces."""
    in_row, row_end = texts + ",", texts + "\n"
    for grid, lead in zip(grids, leads):
        cells = _joined_cells(grid, in_row, row_end)
        cells[:, 0] = np.array(lead, dtype=object) + cells[:, 0]
        yield "".join(cells.ravel().tolist())


@_command("scatter", _FILE, *_COIN, _Option("--format", "fmt", _choice("json", "csv"), "json", "[json|csv]", "document format"), _OUT)
def cmd_scatter(file, a_, b_, c_, d_, fmt, out):
    """Per-face scattering blocks of the hedgehog system."""
    rs = _load_system(file)
    coin = _coin_from_options(a_, b_, c_, d_)
    bg = hedgehog(rs)
    s = scattering_matrix(bg, coin)
    labels = trace_faces(rs).cover_base
    texts, grids, tails = _block_texts(s)
    if fmt == "json":
        matrices = _json_blocks(texts, grids)
        payload = {
            "tails": _json_legend(bg),
            "unitarity_defect": s.unitarity_defect(),
            "min_face_gap": s.min_gap,
            "blocks": [
                {
                    "face": labels[i][0],
                    "chiral_copy": labels[i][1],
                    "tails": functools.partial(_json_array, tails[i], quote=""),
                    "matrix": matrices[i],
                }
                for i in range(len(tails))
            ],
        }
        _emit(_iterdumps(payload), out)
    else:
        leads = [[f"{labels[i][0]},{int(labels[i][1])},{tail}," for tail in face] for i, face in enumerate(tails)]
        _emit(_csv_blocks(texts, grids, leads), out)


def _parse_inflow(bg, spec: str) -> np.ndarray:
    """The inflow ``--inflow`` names: ``uniform``, or one tail, its id read
    as the file format reads an integer."""
    if spec == "uniform":
        return np.ones(bg.size, dtype=complex)
    tail = read_int(spec)
    if tail is None:
        raise AssumptionError(f"--inflow takes a tail id or 'uniform', got {spec!r}")
    if not 0 <= tail < bg.size:
        raise AssumptionError(f"tail {spec} does not exist")
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[tail] = 1.0
    return inflow


@_command(
    "comfort",
    _FILE,
    *_COIN,
    _Option("--inflow", "inflow", str, "uniform", "TEXT", "tail id, or 'uniform' for the averaged energy"),
    _Option("--limit", "want_limit", None, False, help="include the a->1 limit coefficient"),
    _OUT,
)
def cmd_comfort(file, a_, b_, c_, d_, inflow, want_limit, out):
    """Comfortability of one inflow, or its single-tail average."""
    rs = _load_system(file)
    coin = _coin_from_options(a_, b_, c_, d_)
    fd = trace_faces(rs)
    payload: dict = {}
    if inflow == "uniform":
        avg = average_comfortability(fd, coin)
        payload["average"] = avg
        payload["average_per_tail"] = avg / 2.0
    else:
        bg = hedgehog(rs)
        vec = _parse_inflow(bg, inflow)
        report = comfortability(fd, coin, vec)
        payload.update(
            {"energy": report.energy, "island": report.island, "bridge": report.bridge}
        )
    if want_limit:
        payload["limit"] = limit_comfortability(fd)
    _emit(json.dumps(payload, indent=2), out)


@_command(
    "simulate",
    _FILE,
    *_COIN,
    _Option("--inflow", "inflow", str, "0", "TEXT", "tail id, or 'uniform'"),
    _Option("--tol", "tol", _float, 1e-10, "FLOAT", "stop once no entry changes by this much"),
    _Option("--max-steps", "max_steps", _integer, 10**6, "INTEGER", "give up after this many steps"),
    _OUT,
)
def cmd_simulate(file, a_, b_, c_, d_, inflow, tol, max_steps, out):
    """Run the walk to its stationary state and compare with closed forms."""
    rs = _load_system(file)
    coin = _coin_from_options(a_, b_, c_, d_)
    bg = hedgehog(rs)
    vec = _parse_inflow(bg, inflow)
    state = run_to_stationary(bg, coin, vec, tol=tol, max_steps=max_steps)
    outflow, island_in, island_plus, bridge = (
        functools.partial(_json_array, texts.tolist())
        for texts in _complex_texts(np.stack([state.outflow, state.island_in, state.island_plus, state.bridge]))
    )
    energy = internal_energy(state)
    payload = {
        "steps": state.steps,
        "residual": state.residual,
        "energy": energy,
        "tails": _json_legend(bg),
        "outflow": outflow,
        "state": {
            "island_before_tail": island_in,
            "island_after_tail": island_plus,
            "bridge": bridge,
        },
    }
    if coin.has_closed_form:
        s = scattering_matrix(bg, coin)
        closed = stationary_closed_form(bg, coin, vec, scattering=s)
        fd = trace_faces(rs)
        report = comfortability(fd, coin, vec, scattering=s)
        payload["comparison"] = {
            # closed.outflow is S vec = Q vec + d vec, from the matrix-free product.
            "outflow_vs_scattering": float(np.abs(state.outflow - closed.outflow).max()),
            "state_vs_closed_form": float(
                max(
                    np.abs(state.island_in - closed.island_in).max(),
                    np.abs(state.island_plus - closed.island_plus).max(),
                    np.abs(state.bridge - closed.bridge).max(),
                )
            ),
            "energy_vs_formula": abs(energy - report.energy),
        }
    _emit(_iterdumps(payload), out)


def _require_unit_interval(a_values):
    """Reject an ``--a`` outside (0, 1) before any census work."""
    if not all(0.0 < a < 1.0 for a in a_values):
        raise AssumptionError("--a needs 0 < a < 1")


def _format_class_rows(rows, a_values):
    header = ["label", "orientable", "genus", "faces", "self_intersections", "orbit_size", "limit"]
    header += ["avg_a=" + float.__repr__(a) for a in a_values]
    lines = [",".join(header)]
    for cls, limit, avgs in rows:
        faces = " ".join(str(x) for x in cls.face_lengths)
        prof = " ".join(f"{l}:{s}" for l, s in cls.self_intersection_profile)
        cells = [
            cls.label.replace(",", " "),
            str(cls.orientable).lower(),
            str(cls.genus),
            faces,
            prof,
            str(cls.orbit_size),
            float.__repr__(limit),
        ]
        cells += map(float.__repr__, avgs)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@_command(
    "enumerate",
    _GRAPH,
    _Option("--a", "a_values", _float, (), "FLOAT", "add the average at this coin parameter (repeatable)", multiple=True),
    _OUT,
)
def cmd_enumerate(graph, a_values, out):
    """All embedding classes of a graph ('K4' or a rotation-system file)."""
    _require_unit_interval(a_values)
    coins = [Coin.real_symmetric(a) for a in a_values]
    g = _load_graph(graph)
    rows = []
    for cls in enumerate_embeddings(g):
        avgs = [average_comfortability(cls.decomposition, coin) for coin in coins]
        rows.append((cls, limit_comfortability(cls.decomposition), avgs))
    _emit(_format_class_rows(rows, a_values), out)


@_command("rank", _GRAPH, _Option("--a", "a_value", _float, 0.98, "FLOAT", "rank by the average at this coin parameter"), _OUT)
def cmd_rank(graph, a_value, out):
    """Embedding classes sorted by average comfortability (best first)."""
    _require_unit_interval([a_value])
    g = _load_graph(graph)
    ranked = rank_by_comfortability(enumerate_embeddings(g), a_value)
    rows = [(r.embedding, r.limit, [r.average]) for r in ranked]
    _emit(_format_class_rows(rows, [a_value]), out)


def main(argv=None) -> int:
    try:
        run, values = _parse(sys.argv[1:] if argv is None else argv)
        run(**values)
        return 0
    except UsageError as exc:
        message, code = f"error: {exc}", EXIT_PARSE
    except ParseError as exc:
        message, code = f"parse error: {exc}", EXIT_PARSE
    except (AssumptionError, GraphError) as exc:
        message, code = f"error: {exc}", EXIT_ASSUMPTION
    except ConvergenceError as exc:
        message, code = f"did not converge: {exc}", EXIT_CONVERGENCE
    except BudgetError as exc:
        message, code = f"budget exceeded: {exc}", EXIT_BUDGET
    except KeyboardInterrupt:
        # Interrupted: end the line the terminal echoed ^C on, no traceback.
        message, code = "", 1
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

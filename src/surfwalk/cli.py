"""Command-line front end.

Exit codes: 0 success, 2 file parse error, 3 invariant or coin-assumption
violation, 4 non-convergence, 5 enumeration budget exceeded.

Complex numbers cross the boundary as ``re,im`` pairs: coin flags accept
``0.7`` or ``0.5,-0.5``; JSON matrices are row-major arrays of such
strings and CSV uses two columns per complex entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import sys
from typing import NamedTuple

import click
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
from .fileformat import parse_rotation_system
from .graph_core import complete_graph
from .rotation_system import detect_orientability, trace_faces
from .scattering import scattering_matrix, stationary_closed_form
from .walk_dynamics import Coin, internal_energy, run_to_stationary

EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_CONVERGENCE = 4
EXIT_BUDGET = 5


# Every float the CLI exports is written by this one call, as '%.17g' (the
# same bytes as f"{x:.17g}"), which round-trips.
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


def _float_texts(x: np.ndarray) -> np.ndarray:
    """The '%.17g' text of every entry of a float array, same shape."""
    texts, inverse = _distinct_texts(x)
    return texts[inverse]


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


def _json_array(texts: np.ndarray, indent: str) -> str:
    """``json.dumps(texts.tolist(), indent=2)`` for a 1-D or 2-D array of
    strings that need no escaping, nested at ``indent`` (the indent of its
    closing bracket)."""
    if not texts.size:
        return json.dumps(texts.tolist(), indent=2).replace("\n", "\n" + indent)
    inner = indent + "  "
    if texts.ndim == 1:
        return "[\n" + inner + '"' + ('",\n' + inner + '"').join(texts.tolist()) + '"\n' + indent + "]"
    # One join over a grid holding each cell after the text that precedes it.
    cell = inner + "  "
    grid = np.empty((texts.shape[0], 2 * texts.shape[1]), dtype=object)
    grid[:, ::2] = '",\n' + cell + '"'
    grid[:, 0] = '"\n' + inner + "],\n" + inner + "[\n" + cell + '"'
    grid[0, 0] = "[\n" + inner + "[\n" + cell + '"'
    grid[:, 1::2] = texts
    cells = grid.ravel().tolist()
    cells.append('"\n' + inner + "]\n" + indent + "]")
    return "".join(cells)


class _TailLegend(NamedTuple):
    """One record per tail, held as columns: the island arc it sits on,
    the bridge feeding it and the base arc (origin, terminus) and sheet
    underneath."""

    tail: list[int]
    bridge: list[int]
    origin: list[int]
    terminus: list[int]
    sheet: list[int]


# One legend record as json.dumps(indent=2) writes it at indent 0.
_LEGEND_RECORD = '{\n  "tail": %d,\n  "bridge": %d,\n  "base_arc": [\n    %d,\n    %d\n  ],\n  "sheet": %d\n}'


def _json_legend(legend: _TailLegend, indent: str) -> str:
    """``json.dumps`` of the legend's records with indent=2, nested at
    ``indent`` as :func:`_json_array` is."""
    if not legend.tail:
        return "[]"
    inner = indent + "  "
    record = _LEGEND_RECORD.replace("\n", "\n" + inner)
    return "[\n" + inner + (",\n" + inner).join(map(record.__mod__, zip(*legend))) + "\n" + indent + "]"


# json.dumps writes the slot string "\x00" as "\u0000"; no other string a
# command exports holds a control character.
_SLOT = '"\\u0000"'


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)`` for a payload whose arrays of
    strings are numpy object arrays and whose tail legends are
    :class:`_TailLegend` columns.

    With an indent, json.dumps runs the pure-Python encoder.  It renders
    only the skeleton here, with a slot string in place of each array and
    legend, and each one's text is spliced into its slot in the same
    layout, at the indent of the line the slot is on.
    """
    renders = []

    def slot(node):
        if isinstance(node, np.ndarray):
            renders.append(functools.partial(_json_array, node))
        elif isinstance(node, _TailLegend):
            renders.append(functools.partial(_json_legend, node))
        elif isinstance(node, dict):
            return {key: slot(value) for key, value in node.items()}
        elif isinstance(node, list):
            return [slot(value) for value in node]
        else:
            return node
        return "\x00"

    # The encoder visits the payload in the order slot() did.
    parts = json.dumps(slot(payload), indent=2).split(_SLOT)
    out = [parts[0]]
    for before, render, after in zip(parts, renders, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        out += [render(line[: len(line) - len(line.lstrip(" "))]), after]
    return "".join(out)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise AssumptionError(f"complex values read 're' or 're,im', got {text!r}")


def _coin_from_options(a, b, c, d) -> Coin:
    return Coin(_parse_complex(a), _parse_complex(b), _parse_complex(c), _parse_complex(d))


_COIN_DEFAULT = f"{1 / np.sqrt(2):.17g}"

_coin_options = [
    click.option("--a", "a_", default=_COIN_DEFAULT, show_default="1/sqrt(2)", help="coin entry a (re[,im])"),
    click.option("--b", "b_", default=_COIN_DEFAULT, show_default="1/sqrt(2)", help="coin entry b (re[,im])"),
    click.option("--c", "c_", default=_COIN_DEFAULT, show_default="1/sqrt(2)", help="coin entry c (re[,im])"),
    click.option("--d", "d_", default=f"-{_COIN_DEFAULT}", show_default="-1/sqrt(2)", help="coin entry d (re[,im])"),
]


def _with_coin_options(func):
    for opt in reversed(_coin_options):
        func = opt(func)
    return func


def _load_system(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rotation_system(fh.read())


def _load_graph_or_kn(spec: str):
    m = re.fullmatch(r"[Kk](\d+)", spec)
    if m:
        # The budget is checked from n alone, before any edge is built; an n
        # of more than 18 digits is past every budget.
        n = int(m.group(1)) if len(m.group(1)) <= 18 else 10**18
        check_budget(n * (n - 1) // 2, itertools.repeat(n - 1, n))
        return complete_graph(n)
    if not os.path.isfile(spec):
        raise click.BadParameter(f"{spec!r} is neither K<n> nor a rotation-system file", param_hint="GRAPH")
    return _load_system(spec).graph


def _emit(text: str, out: str | None):
    """Write ``text``, ended by one newline, to ``out`` or else to stdout:
    the same bytes either way.  The newline goes out on its own, so a large
    document is not copied to append it."""
    end = "" if text.endswith("\n") else "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
    else:
        click.echo(text, nl=False)
        click.echo(end, nl=False)


def _tail_legend(bg) -> _TailLegend:
    dc = bg.cover
    g = dc.base.graph
    return _TailLegend(
        list(range(bg.size)),
        bg.bar.tolist(),
        np.take(g.origin, dc.proj).tolist(),
        np.take(g.terminus, dc.proj).tolist(),
        dc.sheet.tolist(),
    )


def _faces_payload(rs) -> dict:
    fd = trace_faces(rs)
    g = rs.graph
    edges = g.edges()
    faces = []
    for i, face in enumerate(fd.faces):
        faces.append(
            {
                "length": len(face),
                "arcs": [[g.origin[e], g.terminus[e]] for e in face],
                "self_intersections": [
                    {"edge": list(edges[k]), "distances": list(d)}
                    for k, d in sorted(fd.self_intersections[i].items())
                ],
            }
        )
    return {
        "vertices": g.vertex_count,
        "edges": [[u, v, rs.twist[k]] for k, (u, v) in enumerate(edges)],
        "orientable": fd.orientable,
        "genus": fd.genus,
        "face_lengths": list(fd.face_lengths),
        "faces": faces,
    }


@click.group()
def cli():
    """Quantum walks on graph embeddings given by rotation systems."""


@cli.command("faces")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), help="write JSON here instead of stdout")
def cmd_faces(file, out):
    """Facial walks, self-intersections, orientability and genus."""
    rs = _load_system(file)
    _emit(json.dumps(_faces_payload(rs), indent=2), out)


@cli.command("genus")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_genus(file, out):
    """Genus and orientability of the embedded surface."""
    rs = _load_system(file)
    fd = trace_faces(rs)
    payload = {
        "orientable": fd.orientable,
        "genus": fd.genus,
        "surface": f"{'g' if fd.orientable else 'k'}={fd.genus}",
        "face_count": len(fd.faces),
    }
    _emit(json.dumps(payload, indent=2), out)


@cli.command("orientable")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_orientable(file, out):
    """Orientability by the spanning-tree normalization, cross-checked
    against the double-cover component count."""
    rs = _load_system(file)
    orientable, _ = detect_orientability(rs)
    components = double_cover(rs).components
    payload = {
        "orientable": orientable,
        "double_cover_components": components,
        "agreement": (components == 2) == orientable,
    }
    _emit(json.dumps(payload, indent=2), out)


def _block_texts(s, render) -> list[np.ndarray]:
    """The text of every entry of every face block of ``s``, one array per
    face, gathered through the face's index grid (:meth:`face_tables`).

    ``render`` maps a complex array to one text per entry, or to a row of
    texts per entry; it runs once, over the table values that some entry
    uses, on all faces together: O(sum q), not O(sum q^2), floats.
    """
    tables = list(s.face_tables())
    used = [np.flatnonzero(np.bincount(index.ravel(), minlength=len(values))) for values, index in tables]
    texts = render(np.concatenate([values[k] for (values, _), k in zip(tables, used)]))
    out = []
    start = 0
    for (values, index), k in zip(tables, used):
        slots = np.empty((len(values),) + texts.shape[1:], dtype=object)
        slots[k] = texts[start : start + len(k)]
        start += len(k)
        out.append(slots[index])
    return out


@cli.command("scatter")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_with_coin_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_scatter(file, a_, b_, c_, d_, fmt, out):
    """Per-face scattering blocks of the hedgehog system."""
    rs = _load_system(file)
    coin = _coin_from_options(a_, b_, c_, d_)
    bg = hedgehog(rs)
    s = scattering_matrix(bg, coin)
    labels = trace_faces(rs).cover_base
    tails = [t.tolist() for t in s.face_tails()]
    if fmt == "json":
        matrices = _block_texts(s, _complex_texts)
        payload = {
            "tails": _tail_legend(bg),
            "unitarity_defect": s.unitarity_defect(),
            "min_face_gap": s.min_gap,
            "blocks": [
                {
                    "face": labels[i][0],
                    "chiral_copy": labels[i][1],
                    "tails": tails[i],
                    "matrix": matrices[i],
                }
                for i in range(len(tails))
            ],
        }
        _emit(_dumps(payload), out)
    else:
        # Two cells, re and im, per entry.
        cells = _block_texts(s, lambda z: _float_texts(z[:, None].view(np.float64)))
        lines = []
        for i, face_tails in enumerate(tails):
            face, copy = str(labels[i][0]), str(int(labels[i][1]))
            for row_tail, row in zip(face_tails, cells[i].reshape(len(face_tails), -1).tolist()):
                lines.append(",".join([face, copy, str(row_tail), *row]))
        _emit("\n".join(lines) + "\n", out)


def _parse_inflow(bg, spec: str) -> np.ndarray:
    if spec == "uniform":
        return np.ones(bg.size, dtype=complex)
    try:
        tail = int(spec)
    except ValueError:
        raise AssumptionError(f"--inflow takes a tail id or 'uniform', got {spec!r}")
    if not 0 <= tail < bg.size:
        raise AssumptionError(f"tail {tail} does not exist")
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[tail] = 1.0
    return inflow


@cli.command("comfort")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_with_coin_options
@click.option("--inflow", default="uniform", show_default=True, help="tail id, or 'uniform' for the averaged energy")
@click.option("--limit", "want_limit", is_flag=True, help="include the a->1 limit coefficient")
@click.option("--out", type=click.Path(dir_okay=False))
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
        report = comfortability(fd, coin, vec, scattering=scattering_matrix(bg, coin))
        payload.update(
            {"energy": report.energy, "island": report.island, "bridge": report.bridge}
        )
    if want_limit:
        payload["limit"] = limit_comfortability(fd)
    _emit(json.dumps(payload, indent=2), out)


@cli.command("simulate")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_with_coin_options
@click.option("--inflow", default="0", show_default=True, help="tail id, or 'uniform'")
@click.option("--tol", default=1e-10, show_default=True)
@click.option("--max-steps", default=10**6, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_simulate(file, a_, b_, c_, d_, inflow, tol, max_steps, out):
    """Run the walk to its stationary state and compare with closed forms."""
    rs = _load_system(file)
    coin = _coin_from_options(a_, b_, c_, d_)
    bg = hedgehog(rs)
    vec = _parse_inflow(bg, inflow)
    state = run_to_stationary(bg, coin, vec, tol=tol, max_steps=max_steps)
    outflow, island_in, island_plus, bridge = _complex_texts(
        np.stack([state.outflow, state.island_in, state.island_plus, state.bridge])
    )
    payload = {
        "steps": state.steps,
        "residual": state.residual,
        "energy": internal_energy(state),
        "tails": _tail_legend(bg),
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
            "energy_vs_formula": abs(internal_energy(state) - report.energy),
        }
    _emit(_dumps(payload), out)


def _format_class_rows(rows, a_values):
    header = ["label", "orientable", "genus", "faces", "self_intersections", "orbit_size", "limit"]
    header += [f"avg_a={a:g}" for a in a_values]
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
            f"{limit:.12g}",
        ]
        cells += [f"{v:.12g}" for v in avgs]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@cli.command("enumerate")
@click.argument("graph")
@click.option("--a", "a_values", multiple=True, type=float, help="evaluate the average at these coin parameters")
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_enumerate(graph, a_values, out):
    """All embedding classes of a graph ('K4' or a rotation-system file)."""
    if not all(0.0 < a < 1.0 for a in a_values):
        raise AssumptionError("--a needs 0 < a < 1")
    coins = [Coin.real_symmetric(a) for a in a_values]
    g = _load_graph_or_kn(graph)
    rows = []
    for cls in enumerate_embeddings(g):
        avgs = [average_comfortability(cls.decomposition, coin) for coin in coins]
        rows.append((cls, limit_comfortability(cls.decomposition), avgs))
    _emit(_format_class_rows(rows, a_values), out)


@cli.command("rank")
@click.argument("graph")
@click.option("--a", "a_value", type=float, default=0.98, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_rank(graph, a_value, out):
    """Embedding classes sorted by average comfortability (best first)."""
    g = _load_graph_or_kn(graph)
    ranked = rank_by_comfortability(enumerate_embeddings(g), a_value)
    rows = [(r.embedding, r.limit, [r.average]) for r in ranked]
    _emit(_format_class_rows(rows, [a_value]), out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_PARSE
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        return EXIT_PARSE
    except (AssumptionError, GraphError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ASSUMPTION
    except ConvergenceError as exc:
        click.echo(f"did not converge: {exc}", err=True)
        return EXIT_CONVERGENCE
    except BudgetError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

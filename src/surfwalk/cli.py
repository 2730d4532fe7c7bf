"""Command-line front end.

Exit codes: 0 success, 2 file parse error, 3 invariant or coin-assumption
violation, 4 non-convergence, 5 enumeration budget exceeded.

Complex numbers cross the boundary as ``re,im`` pairs: coin flags accept
``0.7`` or ``0.5,-0.5``; JSON matrices are row-major arrays of such
strings and CSV uses two columns per complex entry.
"""

from __future__ import annotations

import json
import re
import sys

import click
import numpy as np

from .comfortability import (
    average_comfortability,
    comfortability,
    limit_comfortability,
    positive_coin_average,
)
from .covering_blowup import base_face_map, double_cover, hedgehog
from .enumeration import enumerate_embeddings, rank_by_comfortability
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


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g},{z.imag:.17g}"


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
        return complete_graph(int(m.group(1)))
    return _load_system(spec).graph


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _tail_legend(bg) -> list[dict]:
    """One record per tail: the island arc it sits on, the bridge feeding it
    and the base arc/sheet underneath."""
    dc = bg.cover
    legend = []
    for i in map(int, bg.boundary_islands()):
        e = dc.proj[i]
        g = dc.base.graph
        legend.append(
            {
                "tail": i,
                "bridge": int(bg.bridge_of_tail(i)),
                "base_arc": [g.origin[e], g.terminus[e]],
                "sheet": dc.sheet[i],
            }
        )
    return legend


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
    labels = base_face_map(bg, trace_faces(rs))
    if fmt == "json":
        payload = {
            "tails": _tail_legend(bg),
            "unitarity_defect": s.unitarity_defect(),
            "blocks": [
                {
                    "face": labels[i][0],
                    "chiral_copy": labels[i][1],
                    "tails": list(tails),
                    "matrix": [[_fmt_complex(z) for z in row] for row in block],
                }
                for i, (tails, block) in enumerate(s.blocks)
            ],
        }
        _emit(json.dumps(payload, indent=2), out)
    else:
        lines = []
        for i, (tails, block) in enumerate(s.blocks):
            for r, row_tail in enumerate(tails):
                cells = [str(labels[i][0]), str(int(labels[i][1])), str(row_tail)]
                for z in block[r]:
                    cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
                lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", out)


def _parse_inflow(bg, spec: str) -> np.ndarray:
    inflow = np.zeros(bg.size, dtype=complex)
    if spec == "uniform":
        inflow[bg.boundary_islands()] = 1.0
        return inflow
    try:
        tail = int(spec)
    except ValueError:
        raise AssumptionError(f"--inflow takes a tail id or 'uniform', got {spec!r}")
    if not (0 <= tail < bg.size) or not bg.boundary[tail]:
        raise AssumptionError(f"tail {tail} does not exist")
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
        a = complex(coin.a)
        if abs(a.imag) < 1e-12 and a.real > 0 and abs(coin.omega - 1) < 1e-12:
            payload["positive_coin_form"] = positive_coin_average(fd, a.real)
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
    payload = {
        "steps": state.steps,
        "residual": state.residual,
        "energy": internal_energy(state),
        "tails": _tail_legend(bg),
        "outflow": [_fmt_complex(z) for z in state.outflow],
        "state": {
            "island_before_tail": [_fmt_complex(z) for z in state.island_in],
            "island_after_tail": [_fmt_complex(z) for z in state.island_plus],
            "bridge": [_fmt_complex(z) for z in state.bridge],
        },
    }
    if coin.d_is_real and min(abs(coin.b), abs(coin.c)) > 1e-12 and abs(coin.a) < 1:
        s = scattering_matrix(bg, coin)
        closed = stationary_closed_form(bg, coin, vec, scattering=s)
        fd = trace_faces(rs)
        report = comfortability(fd, coin, vec, scattering=s)
        payload["comparison"] = {
            "outflow_vs_scattering": float(np.abs(state.outflow - s.matrix() @ vec).max()),
            "state_vs_closed_form": float(
                max(
                    np.abs(state.island_in - closed.island_in).max(),
                    np.abs(state.island_plus - closed.island_plus).max(),
                    np.abs(state.bridge - closed.bridge).max(),
                )
            ),
            "energy_vs_formula": abs(internal_energy(state) - report.energy),
        }
    _emit(json.dumps(payload, indent=2), out)


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
    g = _load_graph_or_kn(graph)
    classes = enumerate_embeddings(g)
    rows = []
    for cls in classes:
        avgs = [positive_coin_average(cls.decomposition, a) for a in a_values]
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

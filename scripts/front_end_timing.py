#!/usr/bin/env python3
"""Time the front end of the closed-form pipeline, stage by stage, on K_n
and on grids.

For each n in 8, 16, 32, 64 and 128 the script draws a seeded random
rotation system on K_n (uniform cyclic orders, fair twists), writes it in
the file format and prints one JSON line with the best time in milliseconds of each stage.
A K4 line comes first, drawn from a generator of its own with the same
seed, so the larger sizes keep their systems; it records the constant
cost of each stage on a small system.  The 30 x 30 and 60 x 60 grid
lines come last, from a third generator with that seed.  A grid is
sparse: its vertex count grows like its arcs, where K_n's grows like
their square root, so a path that is quadratic in the vertex count looks
linear along K_n and shows only on the grids.  The stages:

- ``parse_ms``: ``parse_rotation_system`` on the file text (validation
  included);
- ``validation_ms``: building the ``SymmetricDigraph`` and the
  ``RotationSystem`` from their arrays;
- ``trace_faces_ms``: ``trace_faces`` on a fresh system, which traces the
  double cover;
- ``hedgehog_ms``: ``hedgehog`` on a fresh system that ``trace_faces`` has
  traced, so it reads that trace; a repeated ``hedgehog`` call on one
  system is a memo read, so each call gets a system of its own;
- ``face_index_ms``: the one-time derivation of every coin-free index
  array a hedgehog keeps for its scattering matrices (``face_layout``,
  ``face_index``, ``gram_index``, ``same_face_pairs``) on a fresh hedgehog;
- ``scattering_matrix_ms``: ``scattering_matrix`` under the Hadamard coin,
  on a hedgehog whose coin-free indices are already built, so only the
  coin arithmetic is timed;
- ``orientability_ms``: ``orientability_from_scattering`` on that S, the
  sign test read from its face layout: one sign per tail, set on the base
  edge it is entered over, and the spanning-tree balance check;
- ``orientability_untwisted_ms``: the same on the system with every twist
  cleared, which is orientable;
- ``average_by_enumeration_ms``: ``average_by_enumeration`` under the
  Hadamard coin on that hedgehog, which builds its own S and reads each
  face's Gram column through the built indices;
- ``average_comfortability_ms``: ``average_comfortability`` under the
  Hadamard coin, the face/self-intersection sum over the decomposition's
  face data, sorted once before the timing;
- ``stationary_closed_form_ms`` and ``comfortability_ms``:
  ``stationary_closed_form`` and ``comfortability`` under the Hadamard
  coin with a unit inflow on tail 0, each building its own S on that
  hedgehog;
- ``stationary_closed_form_uniform_ms``: ``stationary_closed_form`` the
  same way on a unit inflow at every tail, which solves each face's
  recurrence (``ScatteringMatrix._solve``) instead of reading one column.

Up to 8 vertices (the K4 and K8 lines) it also times the simulator, the
one stage the closed forms leave out:

- ``run_to_stationary_ms`` and ``run_to_stationary_steps``:
  ``run_to_stationary`` under the Hadamard coin with a unit inflow on
  tail 0 and the default ``tol``, from the zero state, and the number of
  steps it takes.

Up to 20 vertices it also times the dense export (a K32 export is on the order of
100 MB):

- ``blocks_ms``: the dense face blocks of a fresh scattering matrix;
- ``unitarity_defect_ms``: ``unitarity_defect`` on a fresh scattering
  matrix (it builds no dense block);
- ``scatter_json_ms`` and ``scatter_csv_ms``: the ``scatter`` command, from
  the file to its ``--out`` file.

Two more lines close the output, one per fit: for each stage timed on at
least two of its rows, the least-squares slope of log time against log
arcs, over the K8 to K128 rows (``"fit": "K_n"``; the K4 row is left out,
as it records the constant cost of a stage, which would flatten the fit)
and over the two grid rows (``"fit": "grid"``).  A slope near 1 is a
linear stage; one near 2 is quadratic in the arcs, or, on the grids, in the
vertices.

BLAS runs on one thread, as in ``perfbench/run.py``, so the figures are
comparable with the benchmark's.  Run it from the root of a checkout:

    PYTHONPATH=src python scripts/front_end_timing.py
"""

import json
import os
import tempfile
import time

if __name__ == "__main__":
    # Before numpy is imported: BLAS reads these once, when it loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from surfwalk import cli  # noqa: E402
from surfwalk.comfortability import average_by_enumeration, average_comfortability, comfortability  # noqa: E402
from surfwalk.covering_blowup import hedgehog  # noqa: E402
from surfwalk.fileformat import parse_rotation_system, serialize_rotation_system  # noqa: E402
from surfwalk.graph_core import SymmetricDigraph, complete_graph  # noqa: E402
from surfwalk.rotation_system import RotationSystem, trace_faces  # noqa: E402
from surfwalk.scattering import (  # noqa: E402
    orientability_from_scattering,
    scattering_matrix,
    stationary_closed_form,
)
from surfwalk.walk_dynamics import Coin, run_to_stationary  # noqa: E402

SMALL = 4  # timed first, from its own generator
SIZES = (8, 16, 32, 64, 128)
GRIDS = (30, 60)  # n x n grids, timed last, from their own generator
SEED = 101
REPEAT = 5  # calls per stage; the fastest is reported
EXPORT_MAX_N = 20  # the dense export stages run up to 20 vertices
SIMULATOR_MAX_N = 8  # the simulator runs up to 8 vertices


def grid_graph(n: int) -> SymmetricDigraph:
    """The n x n grid graph; vertex i n + j sits at row i, column j."""
    edges = [(i * n + j, i * n + j + 1) for i in range(n) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j) for i in range(n - 1) for j in range(n)]
    return SymmetricDigraph.from_edges(n * n, edges)


def random_system(g: SymmetricDigraph, rng) -> RotationSystem:
    """Each vertex's neighbours, in increasing order, uniformly permuted,
    and a fair twist per edge."""
    neighbours = [sorted(g.origin[e] for e in g.incoming_arcs(x)) for x in range(g.vertex_count)]
    orders = [[int(u) for u in rng.permutation(around)] for around in neighbours]
    twists = [int(t) for t in rng.integers(0, 2, g.edge_count)]
    return RotationSystem.from_neighbor_orders(g, orders, twists)


def best_ms(run, repeat: int, prepare=lambda: None) -> float:
    """The fastest of ``repeat`` calls of ``run(prepare())``, in ms."""
    times = []
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def face_indices(bg):
    """Every coin-free index array of ``bg``, derived on first read."""
    return bg.face_layout, bg.face_index, bg.gram_index, bg.same_face_pairs


def stage_times(name: str, g: SymmetricDigraph, rng, repeat: int) -> dict:
    rs = random_system(g, rng)
    text = serialize_rotation_system(rs)
    coin = Coin.hadamard_type()

    def fresh():
        return RotationSystem(g, rs.rot, rs.twist)

    def traced():
        system = fresh()
        trace_faces(system)
        return system

    fd = trace_faces(rs)
    bg = hedgehog(rs)
    face_indices(bg)
    s = scattering_matrix(bg, coin)
    average_comfortability(fd, coin)
    one_tail = np.zeros(bg.size, dtype=complex)
    one_tail[0] = 1.0
    uniform = np.ones(bg.size, dtype=complex)
    untwisted = scattering_matrix(hedgehog(RotationSystem(g, rs.rot, (0,) * g.edge_count)), coin)
    row = {
        "graph": name,
        "arcs": g.arc_count,
        "parse_ms": best_ms(parse_rotation_system, repeat, lambda: text),
        "validation_ms": best_ms(
            lambda _: RotationSystem(SymmetricDigraph(g.vertex_count, g.origin, g.terminus), rs.rot, rs.twist),
            repeat,
        ),
        "trace_faces_ms": best_ms(trace_faces, repeat, fresh),
        "hedgehog_ms": best_ms(hedgehog, repeat, traced),
        "face_index_ms": best_ms(face_indices, repeat, lambda: hedgehog(traced())),
        "scattering_matrix_ms": best_ms(lambda _: scattering_matrix(bg, coin), repeat),
        "orientability_ms": best_ms(orientability_from_scattering, repeat, lambda: s),
        "orientability_untwisted_ms": best_ms(orientability_from_scattering, repeat, lambda: untwisted),
        "average_by_enumeration_ms": best_ms(lambda fd: average_by_enumeration(fd, coin), repeat, lambda: fd),
        "average_comfortability_ms": best_ms(lambda fd: average_comfortability(fd, coin), repeat, lambda: fd),
        "stationary_closed_form_ms": best_ms(lambda _: stationary_closed_form(bg, coin, one_tail), repeat),
        "comfortability_ms": best_ms(lambda fd: comfortability(fd, coin, one_tail), repeat, lambda: fd),
        "stationary_closed_form_uniform_ms": best_ms(lambda _: stationary_closed_form(bg, coin, uniform), repeat),
    }
    if g.vertex_count <= SIMULATOR_MAX_N:
        row["run_to_stationary_ms"] = best_ms(lambda _: run_to_stationary(bg, coin, one_tail), repeat)
        row["run_to_stationary_steps"] = run_to_stationary(bg, coin, one_tail).steps
    if g.vertex_count <= EXPORT_MAX_N:
        row.update(export_times(text, bg, coin, repeat))
    return row


def export_times(text: str, bg, coin: Coin, repeat: int) -> dict:
    def fresh():
        return scattering_matrix(bg, coin)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

        def scatter(fmt):
            argv = ["scatter", path, "--format", fmt, "--out", os.path.join(tmp, "out")]
            return best_ms(lambda _: cli.main(argv), repeat)

        return {
            "blocks_ms": best_ms(lambda s: s.blocks, repeat, fresh),
            "unitarity_defect_ms": best_ms(lambda s: s.unitarity_defect(), repeat, fresh),
            "scatter_json_ms": scatter("json"),
            "scatter_csv_ms": scatter("csv"),
        }


def log_log_slopes(rows: list[dict]) -> dict:
    """Per ``_ms`` stage timed on at least two of ``rows``, the least-squares
    slope of log time against log arcs.  A time below the clock's
    resolution counts as that resolution, so every slope is finite."""
    floor = 1e3 * time.get_clock_info("perf_counter").resolution
    slopes = {}
    for stage in dict.fromkeys(key for row in rows for key in row if key.endswith("_ms")):
        timed = [row for row in rows if stage in row]
        if len(timed) >= 2:
            arcs = np.log([row["arcs"] for row in timed])
            ms = np.log([max(row[stage], floor) for row in timed])
            slopes[stage] = float(np.polyfit(arcs, ms, 1)[0])
    return slopes


def main():
    print(json.dumps(stage_times(f"K{SMALL}", complete_graph(SMALL), np.random.default_rng(SEED), REPEAT)), flush=True)
    fits = {"K_n": [], "grid": []}
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        fits["K_n"].append(stage_times(f"K{n}", complete_graph(n), rng, REPEAT))
        print(json.dumps(fits["K_n"][-1]), flush=True)
    rng = np.random.default_rng(SEED)
    for n in GRIDS:
        fits["grid"].append(stage_times(f"grid{n}x{n}", grid_graph(n), rng, REPEAT))
        print(json.dumps(fits["grid"][-1]), flush=True)
    for fit, rows in fits.items():
        print(json.dumps({"fit": fit, **log_log_slopes(rows)}), flush=True)


if __name__ == "__main__":
    main()

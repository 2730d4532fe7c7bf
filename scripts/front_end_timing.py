#!/usr/bin/env python3
"""Time the front end of the closed-form pipeline, stage by stage, on K_n
and on grids.

For each n in 8, 16, 32, 64 and 128 the script draws a seeded random
rotation system on K_n (uniform cyclic orders, fair twists), writes it in
the file format and prints one JSON line with the best time in milliseconds of each stage.
The lines are timed round-robin: each of 5 passes makes one call of every
stage of every line, line after line, and a line keeps each stage's best
time over the passes, so that a host that slows down or speeds up during
the run does so for every line alike and not for the later lines' slopes.
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
  ``RotationSystem`` from their int64 arrays, as the parser hands them on;
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

- ``run_to_stationary_ms``, ``_steps`` and ``_rate``: ``run_to_stationary``
  under the Hadamard coin with a unit inflow on tail 0 and the default
  ``tol``, from the zero state, its step count and observed ``rate``.

Up to 20 vertices it also times the dense export (a K32 export is on the order of
100 MB):

- ``blocks_ms``: the dense face blocks of a fresh scattering matrix;
- ``unitarity_defect_ms``: ``unitarity_defect`` on a fresh scattering
  matrix (it builds no dense block);
- ``scatter_json_ms`` and ``scatter_csv_ms``: the ``scatter`` command, from
  the file to its ``--out`` file.

Each line ends with ``peak_kb``, the largest ``tracemalloc`` peak of one
call of each stage every line times (not the simulator or the export), in
kB above what was allocated when the call began; it is read in a pass of
its own after the timing, as tracing slows every call.

Two more lines close the output, one per fit: for each stage timed on at
least two of its rows, and for ``peak_kb``, the least-squares slope of log
time (or peak) against log arcs, over the K8 to K128 rows (``"fit":
"K_n"``; the K4 row is left out, as it records the constant cost of a
stage, which would flatten the fit) and over the two grid rows (``"fit":
"grid"``).  A slope near 1 is a linear stage; one near 2 is quadratic in
the arcs, or, on the grids, in the vertices.

BLAS runs on one thread, as in ``perfbench/run.py``, so the figures are
comparable with the benchmark's.  Run it from the root of a checkout:

    PYTHONPATH=src python scripts/front_end_timing.py
"""

import json
import math
import os
import tempfile
import time
import tracemalloc

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
PASSES = 5  # round-robin passes over every row; each stage's fastest call is reported
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


def one_call_ms(run, prepare) -> float:
    """The time of one call of ``run(prepare())``, in ms."""
    arg = prepare()
    start = time.perf_counter()
    run(arg)
    return 1e3 * (time.perf_counter() - start)


def peak_kb(stages: dict) -> float:
    """The largest ``tracemalloc`` peak of one call of each stage, in kB
    above what was allocated when the call began."""
    peak = 0
    tracemalloc.start()
    try:
        for run, prepare in stages.values():
            arg = prepare()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run(arg)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            del arg
    finally:
        tracemalloc.stop()
    return peak / 1e3


def face_indices(bg):
    """Every coin-free index array of ``bg``, derived on first read."""
    return bg.face_layout, bg.face_index, bg.gram_index, bg.same_face_pairs


def no_argument():
    return None


class Row:
    """One graph's line: its ``head`` (graph and arcs) and its stages, each
    ``(run, prepare)``, timed as ``run(prepare())``: ``common``, those every
    line times, and ``extra``, the simulator (with its step count and rate,
    ``simulated``) and the dense export, which only the smaller graphs time."""

    def __init__(self, name: str, g: SymmetricDigraph, rng, tmp: str):
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
        self.head = {"graph": name, "arcs": g.arc_count}
        self.common = {
            "parse_ms": (parse_rotation_system, lambda: text),
            "validation_ms": (
                lambda _: RotationSystem(
                    SymmetricDigraph(g.vertex_count, g.origin_array, g.terminus_array), rs.rot_array, rs.twist_array
                ),
                no_argument,
            ),
            "trace_faces_ms": (trace_faces, fresh),
            "hedgehog_ms": (hedgehog, traced),
            "face_index_ms": (face_indices, lambda: hedgehog(traced())),
            "scattering_matrix_ms": (lambda _: scattering_matrix(bg, coin), no_argument),
            "orientability_ms": (orientability_from_scattering, lambda: s),
            "orientability_untwisted_ms": (orientability_from_scattering, lambda: untwisted),
            "average_by_enumeration_ms": (lambda fd: average_by_enumeration(fd, coin), lambda: fd),
            "average_comfortability_ms": (lambda fd: average_comfortability(fd, coin), lambda: fd),
            "stationary_closed_form_ms": (lambda _: stationary_closed_form(bg, coin, one_tail), no_argument),
            "comfortability_ms": (lambda fd: comfortability(fd, coin, one_tail), lambda: fd),
            "stationary_closed_form_uniform_ms": (lambda _: stationary_closed_form(bg, coin, uniform), no_argument),
        }
        self.extra = {}
        if g.vertex_count <= SIMULATOR_MAX_N:
            self.extra["run_to_stationary_ms"] = (lambda _: run_to_stationary(bg, coin, one_tail), no_argument)
            self.simulated = run_to_stationary(bg, coin, one_tail)
        if g.vertex_count <= EXPORT_MAX_N:
            self.extra.update(export_stages(text, bg, coin, os.path.join(tmp, name)))

    def line(self, best: dict) -> dict:
        """The JSON line: the stages' ``best`` times in the order of the
        module docstring, and the memory peak of the common stages."""
        line = dict(self.head)
        for stage in self.common | self.extra:
            line[stage] = best[stage]
            if stage == "run_to_stationary_ms":
                line["run_to_stationary_steps"] = self.simulated.steps
                line["run_to_stationary_rate"] = self.simulated.rate
        line["peak_kb"] = peak_kb(self.common)
        return line


def export_stages(text: str, bg, coin: Coin, base: str) -> dict:
    """The dense export stages; the ``scatter`` command reads the system
    from ``base + ".txt"`` and writes ``base + ".out"``."""
    with open(base + ".txt", "w", encoding="utf-8") as fh:
        fh.write(text)

    def fresh():
        return scattering_matrix(bg, coin)

    def scatter(fmt):
        argv = ["scatter", base + ".txt", "--format", fmt, "--out", base + ".out"]
        return (lambda _: cli.main(argv), no_argument)

    return {
        "blocks_ms": (lambda s: s.blocks, fresh),
        "unitarity_defect_ms": (lambda s: s.unitarity_defect(), fresh),
        "scatter_json_ms": scatter("json"),
        "scatter_csv_ms": scatter("csv"),
    }


def time_rows(rows: list[Row], passes: int) -> list[dict]:
    """The lines of ``rows``, timed round-robin: each pass makes one call of
    every stage of every row, row after row, and a row keeps each stage's
    best time over the passes, so that a host that slows down or speeds up
    during the run does so for every row alike."""
    best = [{} for _ in rows]
    for _ in range(passes):
        for row, times in zip(rows, best):
            for stage, (run, prepare) in (row.common | row.extra).items():
                times[stage] = min(times.get(stage, math.inf), one_call_ms(run, prepare))
    return [row.line(times) for row, times in zip(rows, best)]


def stage_times(name: str, g: SymmetricDigraph, rng, repeat: int) -> dict:
    """The line of one graph alone, its stages timed over ``repeat``
    passes."""
    with tempfile.TemporaryDirectory() as tmp:
        return time_rows([Row(name, g, rng, tmp)], repeat)[0]


def log_log_slopes(rows: list[dict]) -> dict:
    """Per ``_ms`` stage timed on at least two of ``rows``, and for
    ``peak_kb``, the least-squares slope of log time (or peak) against log
    arcs.  A time below the clock's resolution counts as that resolution,
    and a peak below 1 byte as 1 byte, so every slope is finite."""
    floor = {"peak_kb": 1e-3}
    resolution = 1e3 * time.get_clock_info("perf_counter").resolution
    slopes = {}
    for key in dict.fromkeys(key for row in rows for key in row if key.endswith("_ms") or key == "peak_kb"):
        timed = [row for row in rows if key in row]
        if len(timed) >= 2:
            arcs = np.log([row["arcs"] for row in timed])
            values = np.log([max(row[key], floor.get(key, resolution)) for row in timed])
            slopes[key] = float(np.polyfit(arcs, values, 1)[0])
    return slopes


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # K4 from a generator of its own, so the larger sizes keep their
        # systems, and the grids from a third.
        rows = [Row(f"K{SMALL}", complete_graph(SMALL), np.random.default_rng(SEED), tmp)]
        rng = np.random.default_rng(SEED)
        rows += [Row(f"K{n}", complete_graph(n), rng, tmp) for n in SIZES]
        rng = np.random.default_rng(SEED)
        rows += [Row(f"grid{n}x{n}", grid_graph(n), rng, tmp) for n in GRIDS]
        lines = time_rows(rows, PASSES)
    for line in lines:
        print(json.dumps(line), flush=True)
    kn, grids = lines[1 : 1 + len(SIZES)], lines[1 + len(SIZES) :]
    for fit, fitted in (("K_n", kn), ("grid", grids)):
        print(json.dumps({"fit": fit, **log_log_slopes(fitted)}), flush=True)


if __name__ == "__main__":
    main()

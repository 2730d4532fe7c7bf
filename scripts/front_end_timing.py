#!/usr/bin/env python3
"""Time the front end of the closed-form pipeline, stage by stage, on K_n.

For each n in 8, 16, 32, 64 and 128 the script draws a seeded random
rotation system on K_n (uniform cyclic orders, fair twists), writes it in
the file format and prints one JSON line with the best time in milliseconds of each stage:

- ``parse_ms``: ``parse_rotation_system`` on the file text (validation
  included);
- ``validation_ms``: building the ``SymmetricDigraph`` and the
  ``RotationSystem`` from their arrays;
- ``trace_faces_ms``: ``trace_faces`` on a fresh system, which traces the
  double cover;
- ``hedgehog_ms``: ``hedgehog`` on the same system afterwards, which reads
  that trace;
- ``scattering_matrix_ms``: ``scattering_matrix`` under the Hadamard coin.

For n <= 20 it also times the dense export (a K32 export is on the order of
100 MB):

- ``blocks_ms``: the dense face blocks of a fresh scattering matrix;
- ``unitarity_defect_ms``: ``unitarity_defect`` on a fresh scattering
  matrix (it builds no dense block);
- ``scatter_json_ms`` and ``scatter_csv_ms``: the ``scatter`` command, from
  the file to its ``--out`` file.

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
from surfwalk.covering_blowup import hedgehog  # noqa: E402
from surfwalk.fileformat import parse_rotation_system, serialize_rotation_system  # noqa: E402
from surfwalk.graph_core import SymmetricDigraph, complete_graph  # noqa: E402
from surfwalk.rotation_system import RotationSystem, trace_faces  # noqa: E402
from surfwalk.scattering import scattering_matrix  # noqa: E402
from surfwalk.walk_dynamics import Coin  # noqa: E402

SIZES = (8, 16, 32, 64, 128)
SEED = 101
REPEAT = 5  # calls per stage; the fastest is reported
EXPORT_MAX_N = 20  # the dense export stages run up to K20


def random_kn_system(n: int, rng) -> RotationSystem:
    g = complete_graph(n)
    orders = [[int(u) for u in rng.permutation([u for u in range(n) if u != x])] for x in range(n)]
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


def stage_times(n: int, rng, repeat: int) -> dict:
    rs = random_kn_system(n, rng)
    g = rs.graph
    text = serialize_rotation_system(rs)
    coin = Coin.hadamard_type()

    def fresh():
        return RotationSystem(g, rs.rot, rs.twist)

    def traced():
        system = fresh()
        trace_faces(system)
        return system

    bg = hedgehog(rs)
    row = {
        "graph": f"K{n}",
        "arcs": g.arc_count,
        "parse_ms": best_ms(parse_rotation_system, repeat, lambda: text),
        "validation_ms": best_ms(
            lambda _: RotationSystem(SymmetricDigraph(g.vertex_count, g.origin, g.terminus), rs.rot, rs.twist),
            repeat,
        ),
        "trace_faces_ms": best_ms(trace_faces, repeat, fresh),
        "hedgehog_ms": best_ms(hedgehog, repeat, traced),
        "scattering_matrix_ms": best_ms(lambda _: scattering_matrix(bg, coin), repeat),
    }
    if n <= EXPORT_MAX_N:
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


def main():
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        print(json.dumps(stage_times(n, rng, REPEAT)), flush=True)


if __name__ == "__main__":
    main()

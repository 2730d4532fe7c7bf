import re
import runpy
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_walk_convergence_reports_every_k4_class(capsys):
    runpy.run_path(str(SCRIPTS / "walk_convergence.py"), run_name="__main__")
    rows = [line for line in capsys.readouterr().out.splitlines() if "spectral radius" in line]
    assert len(rows) == 11
    # The residual decays at the spectral radius of the step map.
    for row in rows:
        radius, ratio = map(
            float, re.search(r"spectral radius (\S+)\s+observed residual ratio (\S+)", row).groups()
        )
        assert abs(radius - ratio) < 0.005, row
        steps, us_per_step = re.search(r"steps (\d+)\s+(\S+) us/step$", row).groups()
        assert int(steps) > 0 and float(us_per_step) > 0, row


def test_front_end_timing_reports_every_stage():
    script = runpy.run_path(str(SCRIPTS / "front_end_timing.py"))
    complete_graph, seed = script["complete_graph"], script["SEED"]
    row = script["stage_times"]("K8", complete_graph(8), np.random.default_rng(seed), 1)
    stages = [
        "parse_ms",
        "validation_ms",
        "trace_faces_ms",
        "hedgehog_ms",
        "face_index_ms",
        "scattering_matrix_ms",
        "orientability_ms",
        "orientability_untwisted_ms",
        "average_by_enumeration_ms",
        "average_comfortability_ms",
        "stationary_closed_form_ms",
        "comfortability_ms",
        "stationary_closed_form_uniform_ms",
    ]
    simulator = ["run_to_stationary_ms", "run_to_stationary_steps"]
    export = ["blocks_ms", "unitarity_defect_ms", "scatter_json_ms", "scatter_csv_ms"]
    assert list(row) == ["graph", "arcs"] + stages + simulator + export
    assert (row["graph"], row["arcs"]) == ("K8", 56)
    assert all(isinstance(row[k], float) and row[k] >= 0 for k in stages + simulator[:1] + export)
    assert isinstance(row["run_to_stationary_steps"], int) and row["run_to_stationary_steps"] > 0
    # The simulator is timed up to 8 vertices only.
    k9 = script["stage_times"]("K9", complete_graph(9), np.random.default_rng(seed), 1)
    assert list(k9) == ["graph", "arcs"] + stages + export
    # The dense export is timed up to 20 vertices only.
    k21 = script["stage_times"]("K21", complete_graph(21), np.random.default_rng(seed), 1)
    assert list(k21) == ["graph", "arcs"] + stages
    # The small-system row comes first, from a generator of its own.
    assert script["SMALL"] == 4 and script["SIZES"][0] == 8
    small = script["stage_times"]("K4", complete_graph(script["SMALL"]), np.random.default_rng(seed), 1)
    assert list(small) == ["graph", "arcs"] + stages + simulator + export
    assert (small["graph"], small["arcs"]) == ("K4", 12)
    assert small["run_to_stationary_ms"] > 0 and small["run_to_stationary_steps"] > 0
    assert all(isinstance(small[k], float) and small[k] > 0 for k in stages[-4:])
    # The grids come last: 30 x 30 has 2 * 30 * 29 edges.
    assert script["GRIDS"] == (30, 60)
    grid = script["stage_times"]("grid30x30", script["grid_graph"](30), np.random.default_rng(seed), 1)
    assert list(grid) == ["graph", "arcs"] + stages
    assert (grid["graph"], grid["arcs"]) == ("grid30x30", 3480)
    assert all(isinstance(grid[k], float) and grid[k] >= 0 for k in stages)
    # The log-log slope of every stage timed on two rows or more, finite.
    slopes = script["log_log_slopes"]([row, k9, k21])
    assert list(slopes) == stages + export
    smaller = script["stage_times"]("grid8x8", script["grid_graph"](8), np.random.default_rng(seed), 1)
    grid_slopes = script["log_log_slopes"]([smaller, grid])
    assert list(grid_slopes) == stages
    assert all(isinstance(s, float) and np.isfinite(s) for s in [*slopes.values(), *grid_slopes.values()])

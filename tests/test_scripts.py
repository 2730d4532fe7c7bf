import runpy
import time
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    simulator = ["run_to_stationary_ms", "run_to_stationary_steps", "run_to_stationary_rate"]
    export = ["blocks_ms", "unitarity_defect_ms", "scatter_json_ms", "scatter_csv_ms"]
    assert list(row) == ["graph", "arcs"] + stages + simulator + export + ["peak_kb"]
    assert (row["graph"], row["arcs"]) == ("K8", 56)
    assert all(isinstance(row[k], float) and row[k] >= 0 for k in stages + simulator[:1] + export)
    assert isinstance(row["run_to_stationary_steps"], int) and row["run_to_stationary_steps"] > 0
    assert isinstance(row["run_to_stationary_rate"], float) and 0 < row["run_to_stationary_rate"] < 1
    assert isinstance(row["peak_kb"], float) and row["peak_kb"] > 0
    # The simulator is timed up to 8 vertices only.
    k9 = script["stage_times"]("K9", complete_graph(9), np.random.default_rng(seed), 1)
    assert list(k9) == ["graph", "arcs"] + stages + export + ["peak_kb"]
    # The dense export is timed up to 20 vertices only.
    k21 = script["stage_times"]("K21", complete_graph(21), np.random.default_rng(seed), 1)
    assert list(k21) == ["graph", "arcs"] + stages + ["peak_kb"]
    # The small-system row comes first, from a generator of its own.
    assert script["SMALL"] == 4 and script["SIZES"][0] == 8
    small = script["stage_times"]("K4", complete_graph(script["SMALL"]), np.random.default_rng(seed), 1)
    assert list(small) == ["graph", "arcs"] + stages + simulator + export + ["peak_kb"]
    assert (small["graph"], small["arcs"]) == ("K4", 12)
    assert small["run_to_stationary_ms"] > 0 and small["run_to_stationary_steps"] > 0
    assert all(isinstance(small[k], float) and small[k] > 0 for k in stages[-4:])
    # The grids come last: 30 x 30 has 2 * 30 * 29 edges.
    assert script["GRIDS"] == (30, 60)
    grid = script["stage_times"]("grid30x30", script["grid_graph"](30), np.random.default_rng(seed), 1)
    assert list(grid) == ["graph", "arcs"] + stages + ["peak_kb"]
    assert (grid["graph"], grid["arcs"]) == ("grid30x30", 3480)
    assert all(isinstance(grid[k], float) and grid[k] >= 0 for k in stages)
    # The log-log slope of every stage timed on two rows or more, and of
    # the memory peak, finite.
    slopes = script["log_log_slopes"]([row, k9, k21])
    assert list(slopes) == stages + export + ["peak_kb"]
    smaller = script["stage_times"]("grid8x8", script["grid_graph"](8), np.random.default_rng(seed), 1)
    grid_slopes = script["log_log_slopes"]([smaller, grid])
    assert list(grid_slopes) == stages + ["peak_kb"]
    assert all(isinstance(s, float) and np.isfinite(s) for s in [*slopes.values(), *grid_slopes.values()])
    # The peak follows the arcs on the grids: 3480 / 224 arcs, slope near 1.
    assert 0.5 < grid_slopes["peak_kb"] < 1.5, grid_slopes["peak_kb"]


class _FakeRow:
    """A line whose stages record the order of their calls; the first call
    of ``slow`` sleeps 20 ms."""

    def __init__(self, name, calls):
        def run(stage):
            def call(_):
                calls.append((name, stage))
                if stage == "slow_ms" and calls.count((name, stage)) == 1:
                    time.sleep(0.02)

            return call

        self.common = {stage: (run(stage), lambda: None) for stage in ("a_ms", "slow_ms")}
        self.extra = {"b_ms": (run("b_ms"), lambda: None)}
        self.name = name

    def line(self, best):
        return {"graph": self.name, **best}


def test_front_end_timing_visits_every_row_in_each_pass():
    script = runpy.run_path(str(SCRIPTS / "front_end_timing.py"))
    calls = []
    lines = script["time_rows"]([_FakeRow("x", calls), _FakeRow("y", calls)], 3)
    one_pass = [(row, stage) for row in "xy" for stage in ("a_ms", "slow_ms", "b_ms")]
    assert calls == one_pass * 3
    # Each stage keeps its best call: the slow first call is not it.
    assert [line["graph"] for line in lines] == ["x", "y"]
    assert all(line["slow_ms"] < 10 and set(line) == {"graph", "a_ms", "slow_ms", "b_ms"} for line in lines)


def test_front_end_timing_peak_is_the_largest_stage_peak():
    script = runpy.run_path(str(SCRIPTS / "front_end_timing.py"))
    kept = []
    stages = {
        "small": (lambda _: bytearray(10_000), lambda: None),
        # What the stage keeps counts, and so does what it frees again.
        "large": (lambda n: kept.append(bytearray(n)), lambda: 2_000_000),
        "freed": (lambda _: len(bytearray(1_000_000)), lambda: None),
    }
    peak = script["peak_kb"](stages)
    assert 2_000 <= peak < 2_100, peak

"""Tests of the benchmark's own machinery: tracing, inputs, the contract.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import surfwalk
from perfbench import calibrate, harness, inputs, metrics, run, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    outer = t.open("outer")
    clock.now = 1.0
    inner = t.open("inner")
    clock.now = 3.0
    t.close(inner, clock())
    second = t.open("inner")
    clock.now = 3.5
    t.close(second, clock())
    clock.now = 10.0
    t.close(outer, clock())
    stats = t.take_stats()
    assert stats["outer"].total_s == 10.0
    assert stats["outer"].self_s == 10.0 - 2.0 - 0.5
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == stats["inner"].total_s == 2.5
    assert [s["parent"] for s in t.spans] == [0, 0, -1]
    assert t.take_stats() == {}


def _bindings():
    """Every attribute of every surfwalk module and traced class."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "surfwalk" or name.startswith("surfwalk."):
            snapshot.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (surfwalk.RotationSystem, surfwalk.SymmetricDigraph, surfwalk.ScatteringMatrix):
        snapshot.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_wrappers_are_removed_after_the_traced_run():
    import surfwalk.cli

    before = _bindings()
    patch = tracer.install(tracer.Tracer())
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # Re-exports and ``from ... import`` bindings are swapped too.
        for key in [
            ("surfwalk", "scattering_matrix"),
            ("surfwalk.scattering", "scattering_matrix"),
            ("surfwalk.cli", "scattering_matrix"),
            ("surfwalk.comfortability", "scattering_matrix"),
            ("surfwalk.walk_dynamics", "flip_vertex"),
            ("surfwalk.cli", "main"),
            ("RotationSystem", "__post_init__"),
        ]:
            assert key in changed
    finally:
        patch.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_traced_op_reports_its_layers():
    (op,) = workloads.prepare_census({"graphs": [{"n": 4, "edges": inputs.complete_edges(4)}]}, "").ops
    spans = tracer.Tracer()
    tally = harness.Tally()
    patch = tracer.install(spans)
    try:
        assert harness.run_op(op, tally, spans) is not None
    finally:
        patch.restore()
    values = metrics.pass_layer_metrics(spans.take_stats())
    assert values["enumeration.enumerate_embeddings.calls"] == 1
    assert values["graph_core.SymmetricDigraph.calls"] == 1
    assert values["rotation_system.RotationSystem.calls"] > 1024
    assert values["enumeration.raw_per_s"] > 0
    assert values["scattering.scattering_matrix.calls"] == 0
    # Checks run untraced, and the op after the run is untraced too.
    assert harness.run_op(op, tally) is not None
    assert spans.take_stats() == {}
    assert tally.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_input_digest(name):
    generate = workloads.WORKLOADS[name][0]
    first = inputs.digest(generate(np.random.default_rng(7)))
    assert inputs.digest(generate(np.random.default_rng(7))) == first
    assert inputs.digest(generate(np.random.default_rng(8))) != first


def test_census_family_has_the_stated_size():
    family = inputs.census_family()
    assert len(family) == 25
    assert sum(inputs.raw_system_count(n, edges) for n, edges in family) == 55_672
    assert (4, inputs.complete_edges(4)) in family


def test_generated_face_lengths_match_the_library():
    rng = np.random.default_rng(3)
    graphs = [(n, inputs.complete_edges(n)) for n in (4, 7, 12)] + inputs.census_family()[-4:]
    for n, edges in graphs:
        orders, twists = inputs.random_system(n, edges, rng)
        rs = surfwalk.parse_rotation_system(inputs.system_text(n, edges, orders, twists))
        expected = sorted(2 * [len(f) for f in surfwalk.trace_faces(rs).faces], reverse=True)
        assert inputs.face_lengths(n, edges, orders, twists) == expected
        if n == len(edges) * 2 // (n - 1):
            counts = inputs.kn_face_counts(n, np.asarray([orders]), np.asarray([twists]))[0]
            assert sorted(counts[counts > 0].tolist(), reverse=True) == expected


def test_oracle_small_systems_have_the_stated_face_counts():
    data = workloads.generate_oracle_small(np.random.default_rng(5))
    systems = [surfwalk.trace_faces(surfwalk.parse_rotation_system(text)) for text in data["systems"]]
    assert [len(fd.faces) for fd in systems] == list(workloads.ORACLE_FACES) * (len(systems) // 2)


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_uses_each_ops_median_successful_time():
    times = [[0.010, 0.012, 0.011], [0.200, 0.100, 0.300], [None, 0.001, None]]
    assert metrics.op_medians(times) == [0.011, 0.200, 0.001]
    values = metrics.end_to_end([1.0, 3.0, 2.0], times, 50.0)
    assert values["wall_s"] == (pytest.approx(0.212), 7)
    assert values["setup_s"] == (2.0, 3)
    # A failed sample never stands in for a fast one.
    assert metrics.op_medians([[None, 0.5]]) == [0.5]


def test_calibration_cancels_a_uniform_slowdown():
    clock = FakeClock()
    speed = {"slow": 1.0}

    def timer():
        clock.now += 0.001
        return calibrate.INTERP.reference_s * speed["slow"]

    cal = calibrate.Calibration(calibrate.INTERP, clock=clock, timer=timer)
    samples = [[]]
    for slow in (1.0, 1.0, 1.5, 1.5, 1.5, 1.0, 1.0):
        speed["slow"] = slow
        cal.maybe_sample()
        cal.sample()
        samples[0].append((clock.now, 0.2 * slow))
        clock.now += 0.2 * slow
        cal.sample()
        cal.sample()
    assert cal.scale(samples) == [[pytest.approx(0.2)] * 7]
    # Only the samples nearest an op count, from both sides.
    start, took = samples[0][3]
    assert cal.factor(start, start + took) == pytest.approx(1 / 1.5)


def test_short_ops_are_repeated_in_later_passes():
    calls = []

    class Op:
        def __init__(self, name, cost):
            self.name, self.cost = name, cost

        def run(self):
            calls.append(self.name)
            end = time.perf_counter() + self.cost
            while time.perf_counter() < end:
                pass

        def check(self, result, check):
            pass

    ops = [Op("short", 0.0005), Op("long", 0.012)]
    samples, _ = harness.measure(ops, 0.0, harness.Tally(), calibrate.Calibration(calibrate.INTERP, timer=lambda: 0.004),
                                 min_passes=2, repeat=True)
    assert calls[:2] == ["short", "long"]
    assert calls[2:] == ["short"] * harness.MAX_REPEATS + ["long"]
    assert [len(column) for column in samples] == [1 + harness.MAX_REPEATS, 2]

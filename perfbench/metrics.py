"""Metric definitions: names, units, better direction and how each is
computed from a run.  ``BENCHMARK.json`` lists the same names; a test holds
the two together.
"""

from __future__ import annotations

import statistics

import numpy as np

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_ms.p50": ("ms", "lower"),
    "op_ms.p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Reported on the summary lines but kept out of the result's metrics: it is
# 0 on a correct program, and the result line already carries the counts.
FAIL_FRAC = ("fail_frac", "ratio", "lower")

# A run makes at least this many passes, so that every op's median is
# taken over several samples, spread over the run.
MIN_PASSES = 4


def op_medians(times: list[list]) -> list[float]:
    """Each op's median successful time; ``times`` holds one list of
    samples per op.

    The times are calibrated (``calibrate.Calibration.scale``), so a slow
    stretch of the host is already taken out of them; the median then
    drops what the calibration misses, such as a stall shorter than the
    gap between kernel samples.  Failed samples never count, so a wrong
    answer is never a fast one.
    """
    medians = []
    for column in times:
        ok = [t for t in column if t is not None]
        if ok:
            medians.append(statistics.median(ok))
    return medians


def end_to_end(setups: list[float], times: list[list], peak_rss_mb: float) -> dict:
    """name -> (value, sample count), from calibrated set-up and op times."""
    op_ms = [1e3 * t for t in op_medians(times)]
    samples = sum(t is not None for column in times for t in column)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (1e-3 * sum(op_ms), samples),
        "op_ms.p50": (float(np.percentile(op_ms, 50)), samples),
        "op_ms.p90": (float(np.percentile(op_ms, 90)), samples),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


# --------------------------------------------------------------------------
# Per-layer metrics, from the spans of one traced pass.  Span names are
# "<module>.<function>" (see tracer.TARGETS).
# --------------------------------------------------------------------------

_CALLS_AND_SELF = [
    "scattering.scattering_matrix",
    "scattering.ScatteringMatrix.matrix",
    "scattering.ScatteringMatrix.q_matrix",
    "scattering.stationary_closed_form",
    "comfortability.comfortability",
    "walk_dynamics.run_to_stationary",
    "walk_dynamics.outflow_map",
    "enumeration.enumerate_embeddings",
    "rotation_system.flip_vertex",
    "rotation_system.RotationSystem",
    "rotation_system.trace_faces",
    "graph_core.SymmetricDigraph",
    "fileformat.parse_rotation_system",
    "cli.main",
]
_SELF_ONLY = [
    "comfortability.average_comfortability",
    "comfortability.average_by_enumeration",
    "comfortability.limit_comfortability",
    "enumeration.graph_automorphisms",
    "enumeration.rank_by_comfortability",
    "rotation_system.detect_orientability",
    "covering_blowup.double_cover",
    "covering_blowup.blow_up",
    "covering_blowup.attach_hedgehog",
]
_CALLS_ONLY = ["walk_dynamics.step", "rotation_system.mirror"]


def _calls(stats, name):
    return stats[name].calls if name in stats else 0


def _self_ms(stats, name):
    return 1e3 * stats[name].self_s if name in stats else 0.0


def _size(stats, name, key):
    return stats[name].sizes.get(key, 0) if name in stats else 0


def _ratio(num, den):
    return num / den if den else 0.0


def _derived(stats) -> dict:
    solve = "walk_dynamics.run_to_stationary"
    enum = "enumeration.enumerate_embeddings"
    enum_s = stats[enum].total_s if enum in stats else 0.0
    scatter = "scattering.scattering_matrix"
    return {
        "scattering.scattering_matrix.us_per_tail": _ratio(
            1e3 * _self_ms(stats, scatter), _size(stats, scatter, "tails")
        ),
        "scattering.max_block_dim": stats[scatter].peaks.get("max_block", 0) if scatter in stats else 0,
        "walk_dynamics.steps_per_solve": _ratio(_size(stats, solve, "steps"), _calls(stats, solve)),
        # Time per step and blow-up arc, steps included (they are child spans).
        "walk_dynamics.us_per_step_arc": _ratio(
            1e6 * (stats[solve].total_s if solve in stats else 0.0), _size(stats, solve, "step_arcs")
        ),
        "enumeration.raw_per_s": _ratio(_size(stats, enum, "raw"), enum_s),
        "enumeration.classes_per_s": _ratio(_size(stats, enum, "classes"), enum_s),
        "covering_blowup.arcs": _size(stats, "covering_blowup.blow_up", "arcs"),
        "cli.bytes_out": _size(stats, "cli.main", "bytes"),
    }


_DERIVED_UNITS = {
    "scattering.scattering_matrix.us_per_tail": ("us", "lower"),
    "scattering.max_block_dim": ("count", "lower"),
    "walk_dynamics.steps_per_solve": ("count", "lower"),
    "walk_dynamics.us_per_step_arc": ("us", "lower"),
    "enumeration.raw_per_s": ("1/s", "higher"),
    "enumeration.classes_per_s": ("1/s", "higher"),
    "covering_blowup.arcs": ("count", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
}

# Whole-run diagnostics reported with the traced run.
_RUN_LEVEL = {
    "check.max_gap": ("abs", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "scattering.unitarity_defect.max": ("abs", "lower"),
}


def _per_layer_units() -> dict:
    units = {}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_ms"] = ("ms", "lower")
    for name in _SELF_ONLY:
        units[f"{name}.self_ms"] = ("ms", "lower")
    for name in _CALLS_ONLY:
        units[f"{name}.calls"] = ("count", "lower")
    units.update(_DERIVED_UNITS)
    units.update(_RUN_LEVEL)
    return units


PER_LAYER = _per_layer_units()


def pass_layer_metrics(stats) -> dict:
    """Per-layer values of one traced pass (0 where a layer was not called)."""
    out = {}
    for name in _CALLS_AND_SELF:
        out[f"{name}.calls"] = _calls(stats, name)
        out[f"{name}.self_ms"] = _self_ms(stats, name)
    for name in _SELF_ONLY:
        out[f"{name}.self_ms"] = _self_ms(stats, name)
    for name in _CALLS_ONLY:
        out[f"{name}.calls"] = _calls(stats, name)
    out.update(_derived(stats))
    return out


def per_layer(pass_stats: list, max_gap: float, overhead_frac: float, max_defect: float) -> dict:
    """name -> (value, sample count): medians over traced passes plus the
    run-level diagnostics."""
    per_pass = [pass_layer_metrics(stats) for stats in pass_stats]
    out = {name: (statistics.median(p[name] for p in per_pass), len(per_pass)) for name in per_pass[0]}
    out["check.max_gap"] = (max_gap, 1)
    out["trace.overhead_frac"] = (overhead_frac, len(per_pass))
    out["scattering.unitarity_defect.max"] = (max_defect, 1)
    return out

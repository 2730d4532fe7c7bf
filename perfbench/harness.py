"""The closed loop: run ops one after another, time each, check each."""

from __future__ import annotations

import gc
import time

from .calibrate import NEIGHBOURS
from .workloads import Check

# Measuring stops here even if too few passes are done, to end well within
# the 180 s a run may take.
MAX_MEASURE_S = 120.0
MAX_MESSAGES = 20
# An op shorter than this runs int(REPEAT_BELOW_S / its time) times in a
# row in each pass after the first, at most MAX_REPEATS times.
REPEAT_BELOW_S = 0.02
MAX_REPEATS = 3


class Tally:
    """Attempted and failed ops, and the worst oracle gap and defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_gap = 0.0
        self.max_defect = 0.0
        self.messages: list[str] = []

    def fail(self, op_name: str, why: str):
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{op_name}: {why}")


def run_op(op, tally: Tally, tracer=None, index: int = -1):
    """Run one op timed and check it untimed; the time, or None if it failed."""
    tally.attempted += 1
    if tracer is not None:
        tracer.op, tracer.active = index, True
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        tally.fail(op.name, f"raised {exc!r}")
        return None
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    check = Check()
    try:
        op.check(result, check)
    except Exception as exc:  # a check that cannot run fails the op
        check.failures.append(f"check raised {exc!r}")
    tally.max_gap = max(tally.max_gap, check.max_gap)
    tally.max_defect = max(tally.max_defect, check.max_defect)
    if not check.ok:
        tally.fail(op.name, "; ".join(check.failures))
        return None
    return elapsed


def _repeats(first) -> int:
    """How many times an op runs in each pass after the first, given its
    first time: short ops, whose times vary most, run several times, so
    that their medians rest on more samples."""
    if first is None:
        return 1
    return min(MAX_REPEATS, max(1, int(REPEAT_BELOW_S / first)))


def measure(ops, seconds: float, tally: Tally, calibration, min_passes: int = 1, tracer=None, repeat=False):
    """Passes over ``ops`` until ``seconds`` have passed and at least
    ``min_passes`` passes are done, sampling the calibration kernel between
    ops.  With ``repeat``, each pass after the first runs a short op
    several times in a row (see ``_repeats``).  Returns each op's samples as
    (start, time) pairs, the time None for a failed run, and the tracer's
    stats per pass."""
    samples = [[] for _ in ops]
    repeats = [1] * len(ops)
    passes, pass_stats = 0, []
    start = time.perf_counter()
    while True:
        gc.collect()
        for i, op in enumerate(ops):
            for _ in range(repeats[i]):
                calibration.maybe_sample()
                op_start = time.perf_counter()
                samples[i].append((op_start, run_op(op, tally, tracer, i)))
        passes += 1
        if tracer is not None:
            pass_stats.append(tracer.take_stats())
        if repeat and passes == 1:
            repeats = [_repeats(column[0][1]) for column in samples]
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and passes >= min_passes):
            # Samples after the last op, so it has neighbours on both sides.
            for _ in range(NEIGHBOURS):
                calibration.sample()
            return samples, pass_stats

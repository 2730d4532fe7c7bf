"""Benchmark entry point.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # all four workloads, one process each

Run it from the root of a checkout; it measures the surfwalk sources under
``src/`` there and exits with code 2 if they are missing.  One workload
runs as a closed loop in one single-threaded process: set up (import,
input generation, file writes, warm-up), then repeat passes over the
workload's fixed op list for ``--seconds`` (and at least 4 passes), timing
each op and checking its answer untimed.  Every time is calibrated against
the workload's reference kernel, run alongside it (``calibrate``), so that
a slow stretch of a shared host cancels out.  Set-up is timed cold, from the
first line of this file through the warm-up, in this process and in two
fresh ones started with ``--setup-only``; ``setup_s`` is the median.  The
timing metrics come from each op's median calibrated time over the passes
(``metrics.op_medians``).  The last line of standard output is the result
as JSON; the lines before it give every metric with its sample count, the
uncalibrated figures, the run's environment and the digest of the
generated inputs.

With ``--trace 1`` half of the time runs untraced and half with span
wrappers installed, and the result holds the per-layer metrics instead of
the end-to-end ones.  A record of each run is written to ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is imported: the single-thread
# baseline, and no scheduler noise from a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
WORKLOAD_NAMES = ("census", "closed_large", "oracle_small", "cli")
# setup_s is the median of this many cold set-ups, each in its own process,
# so one slow start does not decide the figure.
SETUP_PROCESSES = 3


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "commit": _commit(),
    }


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown (not a git checkout)"


def _cold_setup(args) -> dict:
    """The calibrated and raw set-up times of a fresh process on the same
    workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    child = json.loads(proc.stdout.splitlines()[-1])
    if child["failed"]:
        raise RuntimeError(f"{child['failed']} warm-up ops failed in a set-up process")
    return child


def _print_metrics(values: dict, units: dict):
    for name, (value, count) in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name][0]:<6} (n={count})")


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "surfwalk", "__init__.py")):
        print(f"perfbench: no surfwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import numpy as np

    import surfwalk

    if os.path.dirname(os.path.dirname(os.path.abspath(surfwalk.__file__))) != SRC:
        print(f"perfbench: surfwalk was imported from {surfwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import calibrate, inputs, metrics, tracer, workloads
    from perfbench.harness import Tally, measure, run_op

    generate, prepare, kernel = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        data = generate(np.random.default_rng(args.seed))
        prepared = prepare(data, workdir)
        for op in prepared.warmup:
            run_op(op, tally)
        setup_raw = time.perf_counter() - _T0
        setup_s = setup_raw * kernel.speed_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw, "failed": tally.failed}))
            return 0
        setups, setup_raws = [setup_s], [setup_raw]
        if not args.trace:
            for child in (_cold_setup(args) for _ in range(SETUP_PROCESSES - 1)):
                setups.append(child["setup_s"])
                setup_raws.append(child["setup_raw_s"])
        digest = inputs.digest(data)
        ops = prepared.ops

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs_digest": digest, "ops": [op.name for op in ops],
                  "environment": environment(), "setup_s": setups}
        calibration = calibrate.Calibration(kernel)
        if args.trace:
            untraced, _ = measure(ops, args.seconds / 2, tally, calibration)
            untraced = calibration.scale(untraced)
            spans = tracer.Tracer()
            patch = tracer.install(spans)
            try:
                traced, pass_stats = measure(ops, args.seconds / 2, tally, calibration, tracer=spans)
            finally:
                patch.restore()
            traced = calibration.scale(traced)
            overhead = sum(metrics.op_medians(traced)) / sum(metrics.op_medians(untraced)) - 1.0
            values = metrics.per_layer(pass_stats, tally.max_gap, overhead, tally.max_defect)
            units = metrics.PER_LAYER
            record.update(untraced_op_s=untraced, traced_op_s=traced, spans=spans.spans,
                          per_pass=[metrics.pass_layer_metrics(s) for s in pass_stats])
        else:
            samples, _ = measure(ops, args.seconds, tally, calibration, min_passes=metrics.MIN_PASSES, repeat=True)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            times = calibration.scale(samples)
            values = metrics.end_to_end(setups, times, peak_mb)
            units = metrics.END_TO_END
            raw = [[t for _, t in column] for column in samples]
            uncalibrated = metrics.end_to_end(setup_raws, raw, peak_mb)
            record.update(op_s=times, raw_op_s=raw, op_start_s=[[s for s, _ in column] for column in samples],
                          setup_raw_s=setup_raws,
                          uncalibrated={name: value for name, (value, _) in uncalibrated.items()})
        record.update(kernel=kernel.name, kernel_at_s=calibration.at, kernel_s=calibration.took)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    fail_frac = tally.failed / max(tally.attempted, 1)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, (value, _) in values.items()},
    }
    record.update(result=result, failures=tally.messages)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops per pass, inputs sha256 {digest}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    _print_metrics(values, units)
    if "uncalibrated" in record:
        print("# uncalibrated " + json.dumps(record["uncalibrated"], sort_keys=True))
    print(f"  {metrics.FAIL_FRAC[0]:<48} {fail_frac:>14.6g} {metrics.FAIL_FRAC[1]:<6} "
          f"(n={tally.attempted})")
    for message in tally.messages:
        print(f"# FAILED {message}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up time and peak memory are
    its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            status = proc.returncode
        elif not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print it as JSON and exit (used for setup_s)")
    args = parser.parse_args(argv)
    # Exit through the finally blocks on SIGTERM, so scratch files go too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

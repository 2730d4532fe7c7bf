#!/usr/bin/env python3
"""Log the convergence behaviour of the walk iteration on K4 embeddings.

For each embedding class the script runs the simulator with a single unit
inflow, records the step-to-step residual ratio, and compares it with the
spectral radius of the internal one-step map.  The decay is geometric, but
its ratio is governed by that spectral radius, which sits well above the
island amplitude |a| (about 0.95 for the Hadamard-type coin on K4).  It
also prints the step count of ``run_to_stationary`` on the same inflow and
its time per step (best of 3 runs).

Run it as ``PYTHONPATH=src python scripts/walk_convergence.py``.
"""

import time

import numpy as np

from surfwalk.covering_blowup import hedgehog
from surfwalk.enumeration import enumerate_embeddings
from surfwalk.graph_core import complete_graph
from surfwalk.walk_dynamics import Coin, WaveState, run_to_stationary, step, step_matrix


def main():
    coin = Coin.hadamard_type()
    print(f"coin |a| = {abs(coin.a):.6f}")
    for cls in enumerate_embeddings(complete_graph(4)):
        bg = hedgehog(cls.representative)
        radius = np.abs(np.linalg.eigvals(step_matrix(bg, coin))).max()

        inflow = np.zeros(bg.size, dtype=complex)
        inflow[0] = 1.0
        state = WaveState.zero(bg, inflow)
        prev = None
        ratios = []
        for t in range(1, 360):
            new = step(state, bg, coin)
            res = max(
                np.abs(new.island_in - state.island_in).max(),
                np.abs(new.island_plus - state.island_plus).max(),
                np.abs(new.bridge - state.bridge).max(),
            )
            if prev and res > 0 and t > 100:
                ratios.append(res / prev)
            prev = res
            state = new
        # geometric mean over the asymptotic window, clear of underflow
        tail = float(np.exp(np.mean(np.log(ratios))))
        steps, seconds = run_time(bg, coin, inflow)
        print(
            f"{cls.label:16}  spectral radius {radius:.6f}   "
            f"observed residual ratio {tail:.6f}   "
            f"steps {steps}  {1e6 * seconds / steps:.2f} us/step"
        )


def run_time(bg, coin, inflow, repeats=3):
    """The step count of one ``run_to_stationary`` and its best time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        state = run_to_stationary(bg, coin, inflow)
        best = min(best, time.perf_counter() - start)
    return state.steps, best


if __name__ == "__main__":
    main()

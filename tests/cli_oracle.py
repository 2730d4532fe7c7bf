"""The CLI's array export written entry by entry, kept as a test oracle for
the vectorised renderer in ``surfwalk.cli``.

Every complex entry is formatted on its own as f"{re:.17g},{im:.17g}", JSON
is written by ``json.dumps(payload, indent=2)`` and CSV row by row, as the
commands first did; every document ends with one newline.  The payloads
are assembled here from the library; of the CLI only the tail legend is
reused, and none of its text helpers.
"""

import json

import numpy as np

from surfwalk.cli import _tail_legend
from surfwalk.comfortability import comfortability
from surfwalk.covering_blowup import hedgehog
from surfwalk.rotation_system import trace_faces
from surfwalk.scattering import scattering_matrix, stationary_closed_form
from surfwalk.walk_dynamics import internal_energy, run_to_stationary


def fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:.17g},{z.imag:.17g}"


def scatter_json(rs, coin) -> str:
    bg = hedgehog(rs)
    s = scattering_matrix(bg, coin)
    labels = trace_faces(rs).cover_base
    payload = {
        "tails": _tail_legend(bg),
        "unitarity_defect": s.unitarity_defect(),
        "min_face_gap": s.min_gap,
        "blocks": [
            {
                "face": labels[i][0],
                "chiral_copy": labels[i][1],
                "tails": list(tails),
                "matrix": [[fmt_complex(z) for z in row] for row in block],
            }
            for i, (tails, block) in enumerate(s.blocks)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def scatter_csv(rs, coin) -> str:
    bg = hedgehog(rs)
    s = scattering_matrix(bg, coin)
    labels = trace_faces(rs).cover_base
    lines = []
    for i, (tails, block) in enumerate(s.blocks):
        for r, row_tail in enumerate(tails):
            cells = [str(labels[i][0]), str(int(labels[i][1])), str(row_tail)]
            for z in block[r]:
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def simulate_json(rs, coin, tail: int, tol: float) -> str:
    """``simulate`` with a single-tail inflow; the comparison block is
    reported when the closed forms apply."""
    bg = hedgehog(rs)
    vec = np.zeros(bg.size, dtype=complex)
    vec[tail] = 1.0
    state = run_to_stationary(bg, coin, vec, tol=tol, max_steps=10**6)
    payload = {
        "steps": state.steps,
        "residual": state.residual,
        "energy": internal_energy(state),
        "tails": _tail_legend(bg),
        "outflow": [fmt_complex(z) for z in state.outflow],
        "state": {
            "island_before_tail": [fmt_complex(z) for z in state.island_in],
            "island_after_tail": [fmt_complex(z) for z in state.island_plus],
            "bridge": [fmt_complex(z) for z in state.bridge],
        },
    }
    if coin.d_is_real and min(abs(coin.b), abs(coin.c)) >= 1e-12 and abs(coin.a) < 1 - 1e-14:
        s = scattering_matrix(bg, coin)
        closed = stationary_closed_form(bg, coin, vec, scattering=s)
        report = comfortability(trace_faces(rs), coin, vec, scattering=s)
        payload["comparison"] = {
            "outflow_vs_scattering": float(np.abs(state.outflow - closed.outflow).max()),
            "state_vs_closed_form": float(
                max(
                    np.abs(state.island_in - closed.island_in).max(),
                    np.abs(state.island_plus - closed.island_plus).max(),
                    np.abs(state.bridge - closed.bridge).max(),
                )
            ),
            "energy_vs_formula": abs(internal_energy(state) - report.energy),
        }
    return json.dumps(payload, indent=2) + "\n"

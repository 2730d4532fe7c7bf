"""Closed-form scattering matrix, stationary state and orientability test.

The scattering matrix is block diagonal over the extended facial walks: the
block of a face is built from the weighted cyclic permutation that moves
amplitude from one tail on the face to the next, picking up omega per
island hop and a sign per twisted bridge.  Everything here is indexed by
tail site (= island arc id); the bridge-labelled view used by the
comfortability formulas is a relabelling by the arc involution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering_blowup import BlowUpGraph
from .errors import AssumptionError
from .walk_dynamics import Coin, WaveState

__all__ = [
    "ScatteringMatrix",
    "face_permutation",
    "scattering_matrix",
    "stationary_closed_form",
    "orientability_from_scattering",
]

_AMPLITUDE_EPS = 1e-12


def _face_boundary(bg: BlowUpGraph, face: tuple[int, ...]):
    """Boundary positions of a face and the inter-tail weights.

    Returns (tails, dist, parity): the island ids carrying a tail in walk
    order, the number of island hops from each tail to the next, and the
    twist parity collected on the way.
    """
    r = len(face)
    positions = [j for j in range(r) if bg.boundary[face[j]]]
    q = len(positions)
    tails = [face[j] for j in positions]
    dist, parity = [], []
    for idx in range(q):
        j_prev, j = positions[idx - 1], positions[idx]
        d = (j - j_prev) % r or r
        p = 0
        for k in range(1, d + 1):
            p ^= int(bg.bridge_twist[face[(j_prev + k) % r]])
        dist.append(d)
        parity.append(p)
    return tails, dist, parity


def _weighted_shift(dist, parity, omega: complex) -> np.ndarray:
    q = len(dist)
    p = np.zeros((q, q), dtype=complex)
    for j in range(q):
        p[j, (j - 1) % q] = (-1.0) ** parity[j] * omega ** dist[j]
    return p


def face_permutation(bg: BlowUpGraph, face_index: int, omega: complex) -> np.ndarray:
    """P_f(omega): the weighted cyclic shift over the tails of one face.

    Entry (j, j-1) is (-1)^(twist parity) * omega^(island hops) between
    consecutive tails; with the hedgehog this is omega times a sign.
    """
    _, dist, parity = _face_boundary(bg, bg.faces[face_index])
    return _weighted_shift(dist, parity, omega)


@dataclass(frozen=True)
class ScatteringMatrix:
    """Block-diagonal unitary mapping constant inflow to stationary outflow.

    ``blocks[i]`` pairs the ordered tail ids of face ``i`` with its q x q
    block; faces without tails contribute empty blocks.
    """

    bg: BlowUpGraph
    coin: Coin
    blocks: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def matrix(self) -> np.ndarray:
        """Dense matrix indexed by island arc id on both axes."""
        n = self.bg.size
        s = np.zeros((n, n), dtype=complex)
        for tails, block in self.blocks:
            idx = np.array(tails, dtype=np.int64)
            if len(idx):
                s[np.ix_(idx, idx)] = block
        return s

    def q_matrix(self) -> np.ndarray:
        """Q = S - dI on the tail sites (island indexed)."""
        s = self.matrix()
        d = self.coin.d
        idx = self.bg.boundary_islands()
        s[idx, idx] -= d
        return s

    def unitarity_defect(self) -> float:
        worst = 0.0
        for tails, block in self.blocks:
            if len(tails) == 0:
                continue
            eye = np.eye(len(tails))
            worst = max(worst, np.abs(block.conj().T @ block - eye).max())
        return worst


def scattering_matrix(bg: BlowUpGraph, coin: Coin) -> ScatteringMatrix:
    """S = sum of face blocks bc P_f(omega) (I - a P_f(omega))^-1 + d I."""
    coin.require_d_real()
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    degenerate = abs(b) < _AMPLITUDE_EPS or abs(c) < _AMPLITUDE_EPS
    if not degenerate and abs(a) >= 1.0 - 1e-14:
        raise AssumptionError("face blocks need |a| < 1 to be invertible")

    omega = coin.omega
    blocks = []
    for face in bg.faces:
        tails, dist, parity = _face_boundary(bg, face)
        q = len(tails)
        if q == 0:
            blocks.append(((), np.zeros((0, 0), dtype=complex)))
            continue
        if degenerate:
            blocks.append((tuple(tails), d * np.eye(q, dtype=complex)))
            continue
        p = _weighted_shift(dist, parity, omega)
        eye = np.eye(q, dtype=complex)
        block = b * c * (p @ np.linalg.inv(eye - a * p)) + d * eye
        blocks.append((tuple(tails), block))
    return ScatteringMatrix(bg=bg, coin=coin, blocks=tuple(blocks))


def stationary_closed_form(
    bg: BlowUpGraph, coin: Coin, inflow: np.ndarray, scattering: ScatteringMatrix | None = None
) -> WaveState:
    """The stationary state, assembled from Q = S - dI without iteration.

    Writing q = Q inflow (tail indexed): the quay before a tail holds
    q / c, the quay after it holds the next face step of the same thing and
    a bridge superposes its two endpoint values weighted by d.
    """
    coin.require_d_real()
    if not bg.hedgehog:
        raise AssumptionError("the stationary closed form is stated for the hedgehog")
    if abs(coin.b) < _AMPLITUDE_EPS or abs(coin.c) < _AMPLITUDE_EPS:
        raise AssumptionError(
            "a degenerate coin (b = 0 or c = 0) has no eta; use the simulator"
        )
    s = scattering if scattering is not None else scattering_matrix(bg, coin)
    inflow = np.asarray(inflow, dtype=complex)
    q = s.q_matrix() @ inflow

    bar, rot = bg.bar, bg.rot
    sign_after = bg.bridge_sign[rot]
    c, d, omega = coin.c, coin.d, coin.omega

    island_in = q / c
    island_plus = sign_after * q[bar[rot]] / (c * omega)
    bridge = (q[bar] + bg.bridge_sign * d * q) / (coin.b * coin.c)
    # Every island carries a tail on the hedgehog, so S inflow = q + d inflow.
    return WaveState(
        island_in=island_in,
        island_plus=island_plus,
        bridge=bridge,
        inflow=inflow,
        outflow=q + d * inflow,
        steps=0,
        residual=0.0,
    )


def orientability_from_scattering(s: ScatteringMatrix, bg: BlowUpGraph) -> bool:
    """Sign test of the scattering entries between distinct islands.

    With a > 0 (and d real) every nonzero cross-island entry is real with
    sign the twist parity between the two tails.  The two islands covering
    one vertex of the underlying graph are read together: a twisted surface
    couples a vertex pair through both sheet combinations and their parities
    disagree, so some pair sees both signs.  (Between single cover islands
    the parity is always path independent, because every cycle of the
    double cover has even twist parity; grouping the antipodal islands is
    what makes the test discriminating.)  All-zero submatrices (vertex
    pairs not sharing a face) are vacuously consistent.
    """
    coin = s.coin
    if abs(complex(coin.a).imag) > _AMPLITUDE_EPS or complex(coin.a).real <= 0:
        raise AssumptionError("orientability detection needs a real coin entry a > 0")
    coin.require_d_real()
    if not bg.hedgehog:
        raise AssumptionError("orientability detection is stated for the hedgehog")

    dense = s.matrix()
    if np.abs(dense.imag).max() > 1e-8:
        raise AssumptionError("scattering entries are not real; check the coin")
    dense = dense.real

    base_of_tail = bg.island_of >> 1
    groups = [np.flatnonzero(base_of_tail == u) for u in range(bg.cover.base.graph.vertex_count)]
    for ui, rows in enumerate(groups):
        for vi, cols in enumerate(groups):
            if ui == vi:
                continue
            sub = dense[np.ix_(rows, cols)]
            nz = sub[np.abs(sub) > _AMPLITUDE_EPS]
            if nz.size and nz.min() < 0 < nz.max():
                return False
    return True

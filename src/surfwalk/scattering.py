"""Closed-form scattering matrix, stationary state and orientability test.

The scattering matrix is block diagonal over the extended facial walks.
A face of length q visits q islands, each carrying a tail, and P_f(omega)
is the weighted cyclic shift that moves amplitude from one tail to the
next, picking up omega per island hop and a sign per twisted bridge: its
weights w_j have unit modulus and P_f^q is Pi_f times the identity, Pi_f
being the product of the weights.  Hence

    (I - a P_f)^-1 = sum_{k<q} a^k P_f^k / (1 - a^q Pi_f),

and every entry of S_f = bc P_f (I - a P_f)^-1 + d I is explicit: the entry
from a tail to the tail k steps further round the face is
bc a^(k-1) W / (1 - a^q Pi_f) (plus d on the diagonal), with W the product
of the k weights in between.  :class:`ScatteringMatrix` keeps per face only
the tails and their twist parities and the closing factor
1 / (1 - a^q Pi_f); ``apply_q`` multiplies by Q = S - dI in O(q) per face,
and the dense ``blocks``, ``matrix()`` and ``q_matrix()`` are export views
built from the same entries.  No block is ever inverted.

Everything here is indexed by tail site (= island arc id); the
bridge-labelled view used by the comfortability formulas is a relabelling
by the arc involution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .covering_blowup import BlowUpGraph
from .errors import AssumptionError
from .rotation_system import RotationSystem
from .walk_dynamics import Coin, WaveState

__all__ = [
    "ScatteringMatrix",
    "scattering_matrix",
    "stationary_closed_form",
    "orientability_from_scattering",
]


@dataclass(frozen=True)
class ScatteringMatrix:
    """Block-diagonal unitary mapping constant inflow to stationary outflow.

    Face ``i`` owns ``tails[offsets[i]:offsets[i + 1]]``, the islands of
    ``bg.faces[i]`` in walk order; ``parity`` gives, per tail, the twist of
    the bridge crossed from the previous tail of its face.  ``closing[i]``
    is 1 / (1 - a^q Pi_f) (zero for a degenerate coin, whose Q vanishes)
    and ``gaps[i]`` is |1 - a^q Pi_f|, the conditioning of the face as
    |a| -> 1.

    ``blocks[i]`` pairs the ordered tail ids of face ``i`` with its q x q
    block.
    """

    bg: BlowUpGraph
    coin: Coin
    # The rest follows from (bg, coin), so equality and hashing read those.
    tails: np.ndarray = field(compare=False)
    offsets: np.ndarray = field(compare=False)
    parity: np.ndarray = field(compare=False)
    closing: np.ndarray = field(compare=False)
    gaps: np.ndarray = field(compare=False)

    @property
    def min_gap(self) -> float:
        """The smallest |1 - a^q Pi_f| over the faces."""
        return float(self.gaps.min())

    def _columns(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Explicit columns of Q on face ``i``: rows are the face's tails in
        walk order, one column per tail position in ``cols``.

        With phi_j the product of the weights up to tail j, the weights
        from tail m round to tail j multiply to phi_j / phi_m, times Pi_f
        when the walk passes the face's start (j <= m).  So entry (j, m) is
        bc / (1 - a^q Pi_f) * t[j - m] * phi_j / phi_m, where the Toeplitz
        sequence t holds a^(k-1) for the k = j - m > 0 steps ahead and
        Pi_f a^(k-1) for the k = q + j - m steps round the start.  A double
        omega has unit modulus only to rounding, so conj(phi_m) would stand
        in for 1 / phi_m with an error growing with the steps to tail m.
        """
        q = self.offsets[i + 1] - self.offsets[i]
        coin = self.coin
        # phi_j and a^k are accumulated in long double and rounded once:
        # double powers drift by several ulps over a long face, and the
        # energies' 1 / |bc|^2 magnifies that as |a| -> 1.
        phase = self._phase(i).astype(complex)
        a_pow = np.full(q, np.clongdouble(coin.a))
        a_pow[:1] = 1
        a_pow = np.cumprod(a_pow).astype(complex)
        # t[d + q - 1] for d = j - m in (-q, q); window m, read backwards, is column m.
        t = np.concatenate((phase[-1:] * a_pow, a_pow[:-1]))
        toeplitz = sliding_window_view(t, q)[q - 1 - cols].T
        scale = coin.b * coin.c * self.closing[i]
        return (scale * phase)[:, None] * toeplitz / phase[cols]

    def _phase(self, i: int) -> np.ndarray:
        """phi_j, the product of the weights of face ``i`` up to tail j (the
        last one is Pi_f), in long double.  Weight w_j = (-1)^parity_j omega
        is entry (j, j-1) of P_f(omega)."""
        o, e = self.offsets[i], self.offsets[i + 1]
        return np.cumprod((1 - 2 * self.parity[o:e]) * np.clongdouble(self.coin.omega))

    def _solve(self, i: int, v: np.ndarray) -> np.ndarray:
        """Q v on face ``i`` for a general inflow ``v`` (face order).

        The cyclic recurrence x_j = v_j + a w_j x_{j-1}, Q v = bc P x, is
        solved for y_j = x_j / phi_j: y_j = v_j / phi_j + a y_{j-1} with
        y_{-1} = Pi_f y_{q-1}, and entry j of Q v is bc phi_j y_{j-1}.
        Only a multiplies in the loop, so no rounded product a w_j is
        raised to the q-th power round the face; the loop runs in long
        double, as near |a| = 1 each step's rounding travels round the whole
        face before the energies' 1 / |bc|^2 magnifies it.
        """
        coin = self.coin
        phase = self._phase(i)
        a = np.clongdouble(coin.a)
        us = list(v / phase)
        # One pass from zero gives (1 - a^q Pi) y_{q-1}.
        y = np.clongdouble(0)
        for u in us:
            y = u + a * y
        y *= self.closing[i] * phase[-1]
        ys = []
        for u in us:
            ys.append(y)
            y = u + a * y
        return (coin.b * coin.c * (phase * np.array(ys))).astype(complex)

    def apply_q(self, v: np.ndarray) -> np.ndarray:
        """Q v, matrix-free: O(q) per face that ``v`` touches.

        ``v`` is indexed by tail (= island arc id).  S v = Q v + d v.
        """
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.bg.size,):
            raise AssumptionError(f"inflow must have one entry per island arc ({self.bg.size})")
        out = np.zeros(self.bg.size, dtype=complex)
        live = np.flatnonzero(v[self.tails])
        faces = np.searchsorted(self.offsets, live, side="right") - 1
        for i in dict.fromkeys(faces.tolist()):
            o, e = self.offsets[i], self.offsets[i + 1]
            hit = live[faces == i]
            if len(hit) == 1:
                column = self._columns(i, hit - o)[:, 0]
                out[self.tails[o:e]] = v[self.tails[hit[0]]] * column
            else:
                out[self.tails[o:e]] = self._solve(i, v[self.tails[o:e]])
        return out

    def face_tails(self) -> list[np.ndarray]:
        """The tail ids of each face, in walk order."""
        return np.split(self.tails, self.offsets[1:-1])

    def face_q_block(self, i: int) -> np.ndarray:
        """Q restricted to face ``i`` (q x q, tails in walk order)."""
        q = self.offsets[i + 1] - self.offsets[i]
        return self._columns(i, np.arange(q))

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        return tuple(
            (tuple(map(int, tails)), self.face_q_block(i) + self.coin.d * np.eye(len(tails)))
            for i, tails in enumerate(self.face_tails())
        )

    def matrix(self) -> np.ndarray:
        """Dense matrix indexed by island arc id on both axes (export view)."""
        n = self.bg.size
        s = np.zeros((n, n), dtype=complex)
        for tails, block in self.blocks:
            idx = np.array(tails, dtype=np.int64)
            s[np.ix_(idx, idx)] = block
        return s

    def q_matrix(self) -> np.ndarray:
        """Q = S - dI (island indexed; export view)."""
        s = self.matrix()
        s.flat[:: self.bg.size + 1] -= self.coin.d
        return s

    def unitarity_defect(self) -> float:
        """max |S_f^H S_f - I| over the dense face blocks."""
        worst = 0.0
        for tails, block in self.blocks:
            gram = block.conj().T @ block
            gram.flat[:: len(tails) + 1] -= 1
            worst = max(worst, np.abs(gram).max())
        return worst


def scattering_matrix(bg: BlowUpGraph, coin: Coin) -> ScatteringMatrix:
    """S = sum of face blocks bc P_f(omega) (I - a P_f(omega))^-1 + d I,
    kept as explicit per-face data (O(total tails), no inverse)."""
    coin.require_d_real()
    a = coin.a

    # Every island carries a tail, so the tails of a face are its islands.
    tails = np.fromiter(itertools.chain.from_iterable(bg.faces), dtype=np.int64, count=bg.size)
    parity = bg.bridge_twist[tails]
    lengths = np.array([len(face) for face in bg.faces], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))

    # a^q Pi_f is formed in long double: as |a| -> 1 the gap 1 - a^q Pi_f
    # shrinks to ~q(1 - |a|), and the double rounding of the product,
    # divided by that gap, would cost every entry of the face a few hundred
    # ulps.
    twists = np.add.reduceat(parity, offsets[:-1])
    turn = (
        np.power(np.clongdouble(a), lengths)
        * (1 - 2 * (twists & 1))
        * np.power(np.clongdouble(coin.omega), lengths)
    )
    gaps = np.abs(1.0 - turn).astype(float)
    if not coin.degenerate and coin.unit_a:
        worst = int(np.argmin(gaps))
        raise AssumptionError(
            "face blocks need |a| < 1 to be invertible; the smallest gap "
            f"|1 - a^q Pi| is {gaps[worst]:.3e} (face {worst})"
        )
    if coin.degenerate:
        closing = np.zeros(len(lengths), dtype=complex)
    else:
        closing = (1.0 / (1.0 - turn)).astype(complex)
    return ScatteringMatrix(
        bg=bg,
        coin=coin,
        tails=tails,
        offsets=offsets,
        parity=parity,
        closing=closing,
        gaps=gaps,
    )


def _require_built_for(s: ScatteringMatrix, coin: Coin, rs: RotationSystem):
    """Reject a precomputed S that belongs to another coin or rotation
    system than the hedgehog of ``rs`` under ``coin``."""
    if s.coin != coin:
        raise AssumptionError("scattering= was built for another coin")
    if s.bg.cover.base != rs:
        raise AssumptionError("scattering= was built for another rotation system")


def stationary_closed_form(
    bg: BlowUpGraph, coin: Coin, inflow: np.ndarray, scattering: ScatteringMatrix | None = None
) -> WaveState:
    """The stationary state, assembled from Q = S - dI without iteration.

    Writing q = Q inflow (tail indexed): the quay before a tail holds
    q / c, the quay after it holds the next face step of the same thing and
    a bridge superposes its two endpoint values weighted by d.
    """
    coin.require_d_real()
    if coin.degenerate:
        raise AssumptionError(
            "a degenerate coin (b = 0 or c = 0) has no eta; use the simulator"
        )
    if scattering is None:
        s = scattering_matrix(bg, coin)
    else:
        s = scattering
        _require_built_for(s, coin, bg.cover.base)
    inflow = np.asarray(inflow, dtype=complex)
    q = s.apply_q(inflow)

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


def orientability_from_scattering(s: ScatteringMatrix) -> bool:
    """Sign test of the scattering entries between distinct islands.

    With a > 0 (and d real) every nonzero cross-island entry is real with
    sign the twist parity between the two tails.  The two islands covering
    one vertex of the underlying graph are read together: a twisted surface
    couples a vertex pair through both sheet combinations and their parities
    disagree, so some pair sees both signs.  (Between single cover islands
    the parity is always path independent, because every cycle of the
    double cover has even twist parity; grouping the antipodal islands is
    what makes the test discriminating.)  Vertex pairs not sharing a face
    have no entries and are vacuously consistent.  Entries are read block
    by block; the pair of base vertices indexes the running sign range.
    """
    coin, bg = s.coin, s.bg
    if abs(complex(coin.a).imag) > Coin.AMPLITUDE_EPS or complex(coin.a).real <= 0:
        raise AssumptionError("orientability detection needs a real coin entry a > 0")
    coin.require_d_real()

    nv = bg.cover.base.graph.vertex_count
    low = np.full(nv * nv, np.inf)
    high = np.full(nv * nv, -np.inf)
    base_of_tail = np.array(bg.cover.base.graph.terminus)[bg.cover.proj]
    for tails, block in s.blocks:
        if np.abs(block.imag).max() > 1e-8:
            raise AssumptionError("scattering entries are not real; check the coin")
        vertex = base_of_tail[np.array(tails)]
        pair = vertex[:, None] * nv + vertex[None, :]
        keep = (vertex[:, None] != vertex[None, :]) & (np.abs(block.real) > Coin.AMPLITUDE_EPS)
        np.minimum.at(low, pair[keep], block.real[keep])
        np.maximum.at(high, pair[keep], block.real[keep])
    return not np.any((low < 0) & (high > 0))

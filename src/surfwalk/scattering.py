"""Closed-form scattering matrix, stationary state and orientability test.

The scattering matrix is block diagonal over the extended facial walks.
A face of length q visits q islands, each carrying a tail, and P_f(omega)
is the weighted cyclic shift that moves amplitude from one tail to the
next, picking up omega per island hop and a sign per twisted bridge: its
weights w_j have unit modulus and P_f^q is Pi_f times the identity, Pi_f
being the product of the weights.  Hence

    (I - a P_f)^-1 = sum_{k<q} a^k P_f^k / (1 - a^q Pi_f),

and every entry of S_f = bc P_f (I - a P_f)^-1 + d I is explicit.  With P_j
the twist parity of the walk up to tail j, P = P_{q-1}, and

    c_f[k] = bc omega (a omega)^(k-1) / (1 - a^q Pi_f),   k = 1 ... q,

the entry from tail m to tail j of Q_f = S_f - dI is

    (-1)^(P_j + P_m + [j <= m] P) c_f[(j - m) mod q]      (residue 0 read as q):

a circulant up to the diagonal similarity by (-1)^P_j, the wrap-around term
[j <= m] P being the sign of Pi_f.  So each block holds at most 2q distinct
entries, the values +-c_f[k].  :class:`ScatteringMatrix` keeps per face the
tails, their parities P_j, the closing factor 1 / (1 - a^q Pi_f) and the
table c_f; ``apply_q`` multiplies by Q = S - dI in O(q) per face, and
``face_tables()`` gives each face's values and index grid, from which the
CLI renders its export.  The dense ``blocks``, ``matrix()`` and
``q_matrix()`` are views gathered from the tables for the tests and the
benchmark; no CLI path reads them.  No block is ever inverted.

The same structure gives the unitarity defect without a dense block: S_f is
D (T + dI) D with D = diag((-1)^P_j) and T circulant (P even) or negacyclic
(P odd), so S_f^H S_f - I is again (nega)circulant and its largest entry is
read off the FFT of one column, O(q log q) per face.

Everything here is indexed by tail site (= island arc id); the
bridge-labelled view used by the comfortability formulas is a relabelling
by the arc involution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    ``bg.faces[i]`` in walk order; ``parity`` gives, per tail, the twist
    parity P_j of the bridges crossed from the face's first tail up to and
    including tail j.  ``closing[i]`` is 1 / (1 - a^q Pi_f) (zero for a
    degenerate coin, whose Q vanishes) and ``gaps[i]`` is |1 - a^q Pi_f|,
    the conditioning of the face as |a| -> 1.

    Each block is a signed circulant: ``table[offsets[i] + k - 1]`` holds
    c_f[k] = bc omega (a omega)^(k-1) / (1 - a^q Pi_f) for k = 1 ... q, and
    entry (j, m) of Q_f is (-1)^(P_j + P_m + [j <= m] P) c_f[(j - m) mod q],
    residue 0 read as q, P being the face's last P_j.  Every view of the
    entries (``apply_q`` on one tail, ``face_q_block``, ``blocks``) gathers
    from the table.

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
    table: np.ndarray = field(compare=False)

    @property
    def min_gap(self) -> float:
        """The smallest |1 - a^q Pi_f| over the faces."""
        return float(self.gaps.min())

    def _signed(self, i: int) -> np.ndarray:
        """c_f[1 ... q] and then their negatives: the 2q values any entry of
        Q on face ``i`` takes."""
        t = self.table[self.offsets[i] : self.offsets[i + 1]]
        return np.concatenate((t, -t))

    def _index(self, i: int, cols: np.ndarray) -> np.ndarray:
        """For the columns ``cols`` of Q on face ``i`` (rows are the face's
        tails in walk order), the position of each entry in
        :meth:`_signed`: (j - m - 1) mod q, plus q where the sign is -1."""
        o, e = self.offsets[i], self.offsets[i + 1]
        q = e - o
        p = self.parity[o:e]
        rows = np.arange(q)[:, None]
        flip = p[:, None] ^ p[cols]
        if p[-1]:
            # Pi_f = -omega^q: the walk from tail m round to tail j <= m
            # passes the face's start and picks up one more sign.
            flip ^= rows <= cols
        return (rows + (q - 1) - cols) % q + q * flip

    def _columns(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Explicit columns of Q on face ``i``: rows are the face's tails in
        walk order, one column per tail position in ``cols``."""
        return self._signed(i)[self._index(i, cols)]

    def _phase(self, i: int) -> np.ndarray:
        """phi_j, the product of the weights of face ``i`` up to tail j (the
        last one is Pi_f), in long double: (-1)^P_j omega^(j+1).  Weight
        w_j = (-1)^(P_j - P_{j-1}) omega is entry (j, j-1) of P_f(omega)."""
        o, e = self.offsets[i], self.offsets[i + 1]
        return np.cumprod(np.full(e - o, np.clongdouble(self.coin.omega))) * (1 - 2 * self.parity[o:e])

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

    def face_tables(self):
        """Per face, the 2q values an entry of S_f can take and the index of
        each entry's value: ``values[index]`` is the face's block in
        :attr:`blocks`.

        The values are those of :meth:`_signed` with d I added as
        ``d * np.eye(q)`` adds it, d * 0 off the diagonal included, so the
        block is ``face_q_block(i) + d * np.eye(q)`` bit for bit.  Residue
        q, the diagonal's (at ``index[0, 0]``), is the one value no other
        entry uses.
        """
        off, on = self.coin.d * np.array([0.0, 1.0])
        for i in range(len(self.offsets) - 1):
            signed = self._signed(i)
            index = self._index(i, np.arange(self.offsets[i + 1] - self.offsets[i]))
            values = signed + off
            diagonal = index[0, 0]
            values[diagonal] = signed[diagonal] + on
            yield values, index

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        return tuple(
            (tuple(map(int, tails)), values[index])
            for tails, (values, index) in zip(self.face_tails(), self.face_tables())
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
        """max |S_f^H S_f - I| over the faces, from each block's spectrum.

        S_f = D H D with D = diag((-1)^P_j) and H = T + dI, T being
        circulant for even P and negacyclic for odd P, with first column
        c_f[q] (negated for odd P) and then c_f[1 ... q-1].  So
        S_f^H S_f - I = D (H^H H - I) D is again (nega)circulant: every
        entry has the modulus of an entry of its first column,
        ifft(|fft(h zeta)|^2) / zeta - delta_0, where h is the first column
        of H and zeta_j = exp(i pi j / q) for odd P, 1 for even.  As
        |zeta_j| = 1, the division is left out.  Faces of one length and
        parity share one FFT: O(q log q) per face, and no block is built.
        """
        lengths = np.diff(self.offsets)
        odd = self.parity[self.offsets[1:] - 1]
        key = 2 * lengths + odd
        worst = 0.0
        for k in dict.fromkeys(key.tolist()):
            q, p = divmod(k, 2)
            # Row per face: c_f[q], c_f[1], ..., c_f[q-1].
            h = self.table[self.offsets[:-1][key == k, None] + (np.arange(q) - 1) % q]
            h[:, 0] = (-1) ** p * h[:, 0] + self.coin.d
            if p:
                h *= np.exp(1j * np.pi / q * np.arange(q))
            gram = np.fft.ifft(np.abs(np.fft.fft(h)) ** 2)
            gram[:, 0] -= 1
            worst = max(worst, float(np.abs(gram).max()))
        return worst


# log 2^-1023: half the least normal double, a margin for |omega| = 1 only
# to rounding.
_LOG_TINY = -1023 * math.log(2.0)


def scattering_matrix(bg: BlowUpGraph, coin: Coin) -> ScatteringMatrix:
    """S = sum of face blocks bc P_f(omega) (I - a P_f(omega))^-1 + d I,
    kept as explicit per-face data (O(total tails), no inverse)."""
    coin.require_d_real()
    a = coin.a

    # Every island carries a tail, so the tails of a face are its islands.
    tails = np.fromiter(itertools.chain.from_iterable(bg.faces), dtype=np.int64, count=bg.size)
    twist = bg.bridge_twist[tails]
    lengths = np.array([len(face) for face in bg.faces], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    start = np.repeat(offsets[:-1], lengths)
    # P_j: the running twist count, less its value before the face's start.
    run = np.cumsum(twist)
    parity = (run - (run - twist)[start]) & 1

    # a^q Pi_f is formed in long double: as |a| -> 1 the gap 1 - a^q Pi_f
    # shrinks to ~q(1 - |a|), and the double rounding of the product,
    # divided by that gap, would cost every entry of the face a few hundred
    # ulps.
    omega = np.clongdouble(coin.omega)
    turn = np.power(np.clongdouble(a), lengths) * (1 - 2 * parity[offsets[1:] - 1]) * np.power(omega, lengths)
    gaps = np.abs(1.0 - turn).astype(float)
    if not coin.degenerate and coin.unit_a:
        worst = int(np.argmin(gaps))
        raise AssumptionError(
            "face blocks need |a| < 1 to be invertible; the smallest gap "
            f"|1 - a^q Pi| is {gaps[worst]:.3e} (face {worst})"
        )
    if coin.degenerate:
        closing = np.zeros(len(lengths), dtype=np.clongdouble)
    else:
        closing = 1.0 / (1.0 - turn)
    # c_f[k] = bc omega (a omega)^(k-1) closing_f for every tail at once,
    # in long double and rounded once: double powers drift by several ulps
    # over a long face, and the energies' 1 / |bc|^2 magnifies that as
    # |a| -> 1.
    powers = np.full(lengths.max(initial=1), np.clongdouble(a) * omega)
    powers[0] = 1
    powers = np.cumprod(powers)
    lead = np.clongdouble(coin.b) * np.clongdouble(coin.c) * omega * closing
    # Entries below the normal double range are flushed to zero: from the
    # power k at which |a|^k times the largest lead falls below 2^-1023,
    # every entry does, and those powers are zeroed, as converting a long
    # double below the normal double range takes a slow path per value.
    top = float(np.abs(lead).max(initial=0.0))
    if 0.0 < abs(a) < 1.0 and top > 0.0:
        powers[max(0, int((_LOG_TINY - math.log(top)) / math.log(abs(a))) + 1) :] = 0
    table = (np.repeat(lead, lengths) * powers[np.arange(bg.size) - start]).astype(complex)
    return ScatteringMatrix(
        bg=bg,
        coin=coin,
        tails=tails,
        offsets=offsets,
        parity=parity,
        closing=closing.astype(complex),
        gaps=gaps,
        table=table,
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
    a bridge superposes its two endpoint values weighted by d.  The coin
    must satisfy :attr:`Coin.has_closed_form`; for any other, use the
    simulator.
    """
    coin.require_closed_form()
    s = scattering_matrix(bg, coin) if scattering is None else scattering
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
    have no entries and are vacuously consistent.  Entries are gathered one
    face at a time from :meth:`ScatteringMatrix.face_tables`, so memory
    follows the largest face; ``seen[sign, pair]`` records which signs each
    pair of base vertices has shown.
    """
    coin, bg = s.coin, s.bg
    if abs(complex(coin.a).imag) > Coin.AMPLITUDE_EPS or complex(coin.a).real <= 0:
        raise AssumptionError("orientability detection needs a real coin entry a > 0")

    nv = bg.cover.base.graph.vertex_count
    seen = np.zeros((2, nv * nv), dtype=bool)
    base_of_tail = np.array(bg.cover.base.graph.terminus)[bg.cover.proj]
    for tails, (values, index) in zip(s.face_tails(), s.face_tables()):
        block = values[index]
        if np.abs(block.imag).max() > 1e-8:
            raise AssumptionError("scattering entries are not real; check the coin")
        vertex = base_of_tail[tails]
        pair = vertex[:, None] * nv + vertex[None, :]
        keep = (vertex[:, None] != vertex[None, :]) & (np.abs(block.real) > Coin.AMPLITUDE_EPS)
        seen[(block.real[keep] > 0).astype(np.intp), pair[keep]] = True
    return not (seen[0] & seen[1]).any()

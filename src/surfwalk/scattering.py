"""Closed-form scattering matrix, stationary state and orientability test.

The scattering matrix is block diagonal over the extended facial walks.
A face of length q visits q islands, each carrying a tail, and P_f(omega)
is the weighted cyclic shift that moves amplitude from one tail to the
next, picking up omega per island hop and a sign per twisted bridge.  An
extended facial walk is a closed walk on the double cover, so it ends on
the sheet it started on and crosses an even number of twisted bridges:
the signs cancel round the face and P_f^q = omega^q I.  Hence

    (I - a P_f)^-1 = sum_{k<q} a^k P_f^k / (1 - a^q omega^q),

and every entry of S_f = bc P_f (I - a P_f)^-1 + d I is explicit.  With P_j
the twist parity of the walk up to tail j and

    c_f[k] = bc omega (a omega)^(k-1) / (1 - a^q omega^q),   k = 1 ... q,

the entry from tail m to tail j of Q_f = S_f - dI is

    (-1)^(P_j + P_m) c_f[(j - m) mod q]      (residue 0 read as q):

Q_f = D C_f D with D = diag((-1)^P_j) and C_f circulant, the one form of
every face block.  So each block holds at most 2q distinct entries, the
values +-c_f[k].  :class:`ScatteringMatrix` keeps per face the tails,
their parities P_j, the closing factor 1 / (1 - a^q omega^q) and the
table c_f.  Every coin-free array lives on the hedgehog, built on first
read and shared by every S on it: the tails and parities are its
``face_layout``, which refuses a face of odd parity, the table is spread
by its ``face_index`` (each slot's face and place) and the Gram columns
below by its ``gram_index``, so a call does only coin arithmetic.
``apply_q`` multiplies by Q = S - dI in O(q) per face, and
``face_tables()`` is the one per-face view of the entries: each face's
tails, its 2q values and the index grid that gathers Q_f from them.  The
CLI export reads it; the dense ``blocks``, ``matrix()`` and
``q_matrix()`` are formed from it on each call for the tests and the
benchmark, and S keeps none of them.  No block is ever inverted.  The
sign test reads the layout alone: a > 0, omega = 1 and b, c != 0 make
every c_f[k] bc times a positive number, so entry (j, j-1) has the sign
(-1)^(P_j + P_(j-1)) against bc however small it is.  That sign is the
twist of the base edge tail j is entered over, so S spells out a signed
graph, and the surface is orientable iff it is balanced.

The same structure gives Gram matrices without a dense block: with
H_f = C_f + xI, (D H_f D)^H (D H_f D) = D H_f^H H_f D and H_f^H H_f is
again circulant, so every entry is read off the FFT of one column,
O(q log q) per face.  The unitarity defect (x = d) and the enumerated
average of :mod:`surfwalk.comfortability` (x = 0) both read it.

Everything here is indexed by tail site (= island arc id); the
bridge-labelled view used by the comfortability formulas is a relabelling
by the arc involution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covering_blowup import BlowUpGraph
from .errors import AssumptionError
from .rotation_system import RotationSystem, _tree_flips
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

    ``tails``, ``offsets`` and ``parity`` are ``bg.face_layout``, shared
    with every S on ``bg`` like its other coin-free indices, ``face_index``
    (which spreads ``table``) and ``gram_index``: face ``i`` owns
    ``tails[offsets[i]:offsets[i + 1]]``, the islands of ``bg.faces[i]``
    in walk order, and ``parity`` gives, per tail, the twist parity P_j of
    the bridges crossed from the face's first tail up to and including
    tail j; the last P_j of a face is 0.  ``closing[i]`` is
    1 / (1 - a^q omega^q) (zero for a degenerate coin, whose Q vanishes)
    and ``gaps[i]`` is |1 - a^q omega^q|, the conditioning of the face as
    |a| -> 1.

    Each block is a signed circulant: ``table[offsets[i] + k - 1]`` holds
    c_f[k] = bc omega (a omega)^(k-1) / (1 - a^q omega^q) for k = 1 ... q,
    and entry (j, m) of Q_f is (-1)^(P_j + P_m) c_f[(j - m) mod q], residue
    0 read as q.  Every view of the entries (``apply_q`` on one tail,
    :meth:`face_tables`, ``blocks``) gathers from the table, and none is
    stored.

    ``blocks[i]`` pairs the ordered tail ids of face ``i`` with its q x q
    block S_f, built anew on each read.
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
        """The smallest |1 - a^q omega^q| over the faces."""
        return float(self.gaps.min())

    def _signed(self, i: int) -> np.ndarray:
        """c_f[1 ... q] and then their negatives: the 2q values any entry of
        Q on face ``i`` takes."""
        t = self.table[self.offsets[i] : self.offsets[i + 1]]
        return np.concatenate((t, -t))

    def _index(self, i: int) -> np.ndarray:
        """For entry (j, m) of Q on face ``i`` (rows and columns are the
        face's tails in walk order), its position in :meth:`_signed`:
        (j - m - 1) mod q, plus q where the sign is -1."""
        o, e = self.offsets[i], self.offsets[i + 1]
        q = e - o
        j, p = np.arange(q), self.parity[o:e]
        return (j[:, None] + (q - 1) - j) % q + q * (p[:, None] ^ p)

    def _phase(self, i: int) -> np.ndarray:
        """phi_j, the product of the weights of face ``i`` up to tail j (the
        last one is omega^q), in long double: (-1)^P_j omega^(j+1).  Weight
        w_j = (-1)^(P_j - P_{j-1}) omega is entry (j, j-1) of P_f(omega)."""
        o, e = self.offsets[i], self.offsets[i + 1]
        return np.cumprod(np.full(e - o, np.clongdouble(self.coin.omega))) * (1 - 2 * self.parity[o:e])

    def _solve(self, i: int, v: np.ndarray) -> np.ndarray:
        """Q v on face ``i`` for a general inflow ``v`` (face order).

        The cyclic recurrence x_j = v_j + a w_j x_{j-1}, Q v = bc P x, is
        solved for y_j = x_j / phi_j: y_j = v_j / phi_j + a y_{j-1} with
        y_{-1} = omega^q y_{q-1}, and entry j of Q v is bc phi_j y_{j-1}.
        Only a multiplies in the loop, so no rounded product a w_j is
        raised to the q-th power round the face; the loop runs in long
        double, as near |a| = 1 each step's rounding travels round the whole
        face before the energies' 1 / |bc|^2 magnifies it.
        """
        coin = self.coin
        phase = self._phase(i)
        a = np.clongdouble(coin.a)
        us = list(v / phase)
        # One pass from zero gives (1 - a^q omega^q) y_{q-1}.
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
        if not np.isfinite(v).all():
            raise AssumptionError("inflow must be finite")
        out = np.zeros(self.bg.size, dtype=complex)
        live = self.bg.tail_slot[np.flatnonzero(v)]
        faces = self.bg.face_index[1][live]
        for i in dict.fromkeys(faces.tolist()):
            o, e = self.offsets[i], self.offsets[i + 1]
            hit = live[faces == i]
            if len(hit) == 1:
                out[self.tails[o:e]] = v[self.tails[hit[0]]] * self._column(o, e, hit[0])
            else:
                out[self.tails[o:e]] = self._solve(i, v[self.tails[o:e]])
        return out

    def _column(self, o: int, e: int, slot: int) -> np.ndarray:
        """The column of Q_f for the tail at layout slot ``slot``, place m on
        the face that owns slots ``o:e``, over the face's tails in walk
        order: entry j is (-1)^(P_j + P_m) c_f[(j - m) mod q], residue 0
        read as q, a gather of q table entries."""
        place = self.bg.face_index[2]
        column = self.table[o + (place[o:e] - (place[slot] + 1)) % (e - o)]
        np.negative(column, out=column, where=(self.parity[o:e] ^ self.parity[slot]).astype(bool))
        return column

    def face_tables(self):
        """Per face, in walk order: its tail ids, the 2q values an entry of
        Q_f takes (:meth:`_signed`) and the index grid of its entries, so
        that ``values[index]`` is Q_f.  Residue q, the diagonal's (at
        ``index[0, 0]``), is the one value no other entry uses."""
        for i, tails in enumerate(np.split(self.tails, self.offsets[1:-1])):
            yield tails, self._signed(i), self._index(i)

    @property
    def blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        return tuple(
            (tuple(map(int, tails)), values[index] + self.coin.d * np.eye(len(tails)))
            for tails, values, index in self.face_tables()
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

    def _gram(self, shift: complex) -> np.ndarray:
        """Per face, the first column g_f of H_f^H H_f, laid out as ``tails``.

        Q_f = D C_f D with D = diag((-1)^P_j) and C_f circulant, with first
        column c_f[q] and then c_f[1 ... q-1]; H_f = C_f + shift I.  A
        circulant is normal, so H^H H = H H^H, and it is circulant too: its
        entry (j, j') is g[(j - j') mod q], where g = ifft(|fft(h)|^2) and h
        is the first column of H.  Faces of one length share one FFT, through
        the graph's ``gram_index``: O(q log q) per face, and no block is built.
        A zero shift is not added: only |fft(h)| is read, which adding zero
        leaves as it is.
        """
        gram = np.empty(len(self.table), dtype=complex)
        for gather, scatter in self.bg.gram_index:
            h = self.table[gather]
            if shift:
                h[:, 0] += shift
            gram[scatter] = np.fft.ifft(np.abs(np.fft.fft(h)) ** 2)
        return gram

    def unitarity_defect(self) -> float:
        """max |S_f^H S_f - I| over the faces, from each block's spectrum.

        S_f = D (C_f + dI) D, so S_f^H S_f - I = D (H^H H - I) D with
        H = C_f + dI: every entry has the modulus of an entry of the
        :meth:`_gram` column g_f less delta_0.
        """
        gram = self._gram(self.coin.d)
        gram[self.offsets[:-1]] -= 1
        return float(np.abs(gram).max())


# log 2^-1023: half the least normal double, a margin for |omega| = 1 only
# to rounding.
_LOG_TINY = -1023 * math.log(2.0)


def scattering_matrix(bg: BlowUpGraph, coin: Coin) -> ScatteringMatrix:
    """S = sum of face blocks bc P_f(omega) (I - a P_f(omega))^-1 + d I,
    kept as explicit per-face data (O(total tails), no inverse)."""
    coin.require_d_real()
    degenerate = coin.degenerate
    a = np.clongdouble(coin.a)

    tails, offsets, parity = bg.face_layout
    lengths, face, place = bg.face_index

    # a^q omega^q is formed in long double: as |a| -> 1 the gap
    # 1 - a^q omega^q shrinks to ~q(1 - |a|), and the double rounding of
    # the product, divided by that gap, would cost every entry of the face
    # a few hundred ulps.
    omega = np.clongdouble(coin.omega)
    one_minus = 1.0 - np.power(a, lengths) * np.power(omega, lengths)
    gaps = np.abs(one_minus).astype(float)
    if not degenerate and coin.unit_a:
        worst = int(np.argmin(gaps))
        raise AssumptionError(
            "face blocks need |a| < 1 to be invertible; the smallest gap "
            f"|1 - a^q omega^q| is {gaps[worst]:.3e} (face {worst})"
        )
    if degenerate:
        closing = np.zeros(len(lengths), dtype=np.clongdouble)
    else:
        closing = 1.0 / one_minus
    # c_f[k] = bc omega (a omega)^(k-1) closing_f for every tail at once,
    # in long double and rounded once: double powers drift by several ulps
    # over a long face, and the energies' 1 / |bc|^2 magnifies that as
    # |a| -> 1.
    powers = np.empty(lengths.max(initial=1), dtype=np.clongdouble)
    powers.fill(a * omega)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    lead = np.clongdouble(coin.b) * np.clongdouble(coin.c) * omega * closing
    # Entries below the normal double range are flushed to zero: from the
    # power k at which |a|^k times the largest lead falls below 2^-1023,
    # every entry does, and those powers are zeroed, as converting a long
    # double below the normal double range takes a slow path per value.
    top = float(np.abs(lead).max(initial=0.0))
    r = abs(coin.a)
    if 0.0 < r < 1.0 and top > 0.0:
        powers[max(0, int((_LOG_TINY - math.log(top)) / math.log(r)) + 1) :] = 0
    # take: a long-double gather through an index array is about 1.5x
    # faster than fancy indexing.
    table = (lead.take(face) * powers.take(place)).astype(complex)
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
    """Balance of the signed graph that S's entries spell out.

    Under a real a > 0, omega = 1 and b, c != 0, every c_f[k] =
    bc a^(k-1) / (1 - a^q) is bc times a positive number, so entry
    (j, j-1) of Q_f is nonzero with sign (-1)^(P_j + P_(j-1)) against bc,
    the tail before a face's first one being its last.  Tail j is entered
    over the bridge of base edge ``tails[j] >> 2``, so that sign is the
    edge's twist: the signs are fixed by the layout (``tails``,
    ``offsets``, ``parity``), and ``table``, whose entries underflow as
    a -> 0, is not read.  The surface is orientable iff this signed graph
    is balanced, which the spanning-tree normalisation of
    :func:`surfwalk.rotation_system.detect_orientability` decides, in
    O(tails) memory.
    """
    coin, bg, a = s.coin, s.bg, complex(s.coin.a)
    if coin.degenerate or abs(a.imag) > Coin.AMPLITUDE_EPS or a.real <= 0 or abs(coin.omega - 1) > Coin.AMPLITUDE_EPS:
        raise AssumptionError("orientability detection needs a real coin entry a > 0, omega = 1 and b, c != 0")

    lengths, face, place = bg.face_index
    before = s.offsets[face] + (place - 1) % lengths[face]
    graph = bg.cover.base.graph
    twist = np.zeros(graph.edge_count, dtype=np.int64)
    twist[s.tails >> 2] = s.parity ^ s.parity[before]
    return bool(_tree_flips(graph, twist[None])[0][0])

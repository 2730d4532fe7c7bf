"""The face blocks of S, and the average comfortability of a real coin, in
exact rational arithmetic, kept as test oracles.

A complex number is a pair of ``fractions.Fraction``.  The coin's double
entries a, b, c, d and its double omega, the numbers the library computes
from, are taken as exact, so the only error measured is that of evaluating
the formulas.  Each block is summed as the geometric series of the weighted
shift, bc P_f (I - a P_f)^-1 = bc / (1 - a^q Pi_f) sum_{k<q} a^k P_f^(k+1),
walking from each tail round the face and multiplying the weights one at a
time; the closing factor 1 / (1 - a^q Pi_f) is exact.  Nothing here calls
``surfwalk.scattering`` or ``surfwalk.comfortability``.
"""

import functools
from fractions import Fraction

import numpy as np


def _exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def face_blocks(bg, coin):
    """(tails, block) per face of ``bg``, the block a q x q list of lists of
    exact entries of S_f: entry (j, m) carries amplitude from tail m to
    tail j, tails in walk order."""
    a, d, omega = _exact(coin.a), _exact(coin.d), _exact(coin.omega)
    bc = _mul(_exact(coin.b), _exact(coin.c))
    out = []
    for face in bg.faces:
        q = len(face)
        # Entry (j, j - 1) of P_f: the sign of the bridge crossed into tail j.
        weights = [(-omega[0], -omega[1]) if bg.bridge_twist[g] else omega for g in face]
        turn = (Fraction(1), Fraction(0))
        for w in weights:
            turn = _mul(turn, _mul(a, w))
        closing = _mul(bc, _inverse((1 - turn[0], -turn[1])))
        steps = [_mul(a, w) for w in weights]
        block = [[None] * q for _ in range(q)]
        for m in range(q):
            # k steps round the face from tail m: bc a^(k-1) w_(m+1) ... w_(m+k) / (1 - a^q Pi_f).
            x = _mul(closing, weights[(m + 1) % q])
            for k in range(1, q + 1):
                j = (m + k) % q
                if k > 1:
                    x = _mul(x, steps[j])
                block[j][m] = x
            block[m][m] = (block[m][m][0] + d[0], block[m][m][1] + d[1])
        out.append((list(face), block))
    return out


def relative_error(block: np.ndarray, exact) -> float:
    """max |block - exact| over the entries, over the largest |exact| entry."""
    worst = largest = 0.0
    for row, exact_row in zip(block.tolist(), exact):
        for z, (re, im) in zip(row, exact_row):
            worst = max(worst, abs(complex(float(Fraction(z.real) - re), float(Fraction(z.imag) - im))))
            largest = max(largest, abs(complex(float(re), float(im))))
    return worst / largest


def real_coin_averages(decompositions, coin) -> list[Fraction]:
    """The face form of the average comfortability of each facial
    decomposition, for a coin whose a, d and omega are real, in exact
    rational arithmetic:

        ((2 + |b|^2) t1 + 2 d t2) / (|c|^2 |A|),
        t1 = sum_f L (1 - a^(2L)) / (1 - z^L)^2,
        t2 = sum_f sum_hits 2 (z^d1 (1 - a^(2 d2)) + z^d2 (1 - a^(2 d1))) / (1 - z^L)^2,

    with z = a omega, L the length of base face f and (d1, d2) the two
    distances of each edge it crosses twice.  The coin's doubles and its
    double omega are taken as exact.  Each distinct face's term is
    evaluated once for all decompositions.
    """
    (a, a_im), (d, d_im), (omega, omega_im) = map(_exact, (coin.a, coin.d, coin.omega))
    if a_im or d_im or omega_im:
        raise ValueError("the oracle is stated for real a, d and omega")
    b2 = sum(x * x for x in _exact(coin.b))
    c2 = sum(x * x for x in _exact(coin.c))
    z = a * omega

    @functools.cache
    def crossing(d1, d2):
        return 2 * (z**d1 * (1 - a ** (2 * d2)) + z**d2 * (1 - a ** (2 * d1)))

    @functools.cache
    def face_term(length, hits):
        crossings = sum(crossing(d1, d2) for d1, d2 in hits)
        return ((2 + b2) * length * (1 - a ** (2 * length)) + 2 * d * crossings) / (1 - z**length) ** 2

    return [
        sum(face_term(len(face), tuple(sorted(hits.values()))) for face, hits in zip(fd.faces, fd.self_intersections))
        / (c2 * fd.rs.graph.arc_count)
        for fd in decompositions
    ]

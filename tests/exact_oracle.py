"""The face blocks of S in exact rational arithmetic, kept as a test oracle.

A complex number is a pair of ``fractions.Fraction``.  The coin's double
entries a, b, c, d and its double omega, the numbers the library computes
from, are taken as exact, so the only error measured is that of evaluating
the blocks.  Each block is summed as the geometric series of the weighted
shift, bc P_f (I - a P_f)^-1 = bc / (1 - a^q Pi_f) sum_{k<q} a^k P_f^(k+1),
walking from each tail round the face and multiplying the weights one at a
time; the closing factor 1 / (1 - a^q Pi_f) is exact.  Nothing here calls
``surfwalk.scattering``.
"""

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

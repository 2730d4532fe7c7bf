"""The dense scattering route, kept as a test oracle for the explicit one.

Each face block is built as the paper states it, bc P_f (I - a P_f)^-1 + d I,
with P_f traced here from the blow-up walk and the resolvent inverted by
numpy; sigma is the dense twist-signed flip-flop on the tail space.  Nothing
here calls ``surfwalk.scattering`` or ``surfwalk.comfortability``.
"""

import numpy as np


def face_shift(bg, face):
    """Tails of a face in walk order and its weighted cyclic shift P_f(omega)
    as a function of omega: entry (j, j-1) is (-1)^parity omega^hops."""
    r = len(face)
    positions = [j for j in range(r) if bg.boundary[face[j]]]
    q = len(positions)
    hops, signs = [], []
    for idx in range(q):
        j_prev, j = positions[idx - 1], positions[idx]
        d = (j - j_prev) % r or r
        twist = sum(int(bg.bridge_twist[face[(j_prev + k) % r]]) for k in range(1, d + 1))
        hops.append(d)
        signs.append((-1.0) ** twist)

    def shift(omega):
        p = np.zeros((q, q), dtype=complex)
        for j in range(q):
            p[j, (j - 1) % q] = signs[j] * omega ** hops[j]
        return p

    return [face[j] for j in positions], shift


def blocks(bg, coin):
    """(tails, block) per face, each block by a dense inverse."""
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    out = []
    for face in bg.faces:
        tails, shift = face_shift(bg, face)
        eye = np.eye(len(tails), dtype=complex)
        if abs(b) < 1e-12:
            out.append((tails, d * eye))
            continue
        p = shift(coin.omega)
        out.append((tails, b * c * (p @ np.linalg.inv(eye - a * p)) + d * eye))
    return out


def matrix(bg, coin):
    """Dense S, island indexed on both axes."""
    s = np.zeros((bg.size, bg.size), dtype=complex)
    for tails, block in blocks(bg, coin):
        if tails:
            s[np.ix_(tails, tails)] = block
    return s


def q_matrix(bg, coin):
    """Dense Q = S - dI on the tail sites."""
    s = matrix(bg, coin)
    idx = np.flatnonzero(bg.boundary)
    s[idx, idx] -= coin.d
    return s


def apply_q(bg, coin, v):
    """Q v block by block (no n x n matrix, for long faces)."""
    out = np.zeros(bg.size, dtype=complex)
    for tails, block in blocks(bg, coin):
        if tails:
            out[tails] = (block - coin.d * np.eye(len(tails))) @ v[tails]
    return out


def sigma_matrix(bg):
    """Twist-signed flip-flop on the tail space: entry (i, i-bar) = (-1)^tau."""
    sigma = np.zeros((bg.size, bg.size))
    sigma[np.arange(bg.size), bg.bar] = bg.bridge_sign
    return sigma


def energies(bg, coin, inflow):
    """(island, bridge) energy of one inflow from dense Q and sigma."""
    q = q_matrix(bg, coin) @ inflow
    island = np.vdot(q, q).real / abs(coin.c) ** 2
    flipped = sigma_matrix(bg) @ q + coin.d * q
    bridge = np.vdot(flipped, flipped).real / (2.0 * abs(coin.b * coin.c) ** 2)
    return island, bridge

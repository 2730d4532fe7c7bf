"""The dense scattering route, kept as a test oracle for the explicit one.

Each face block is built as the paper states it, bc P_f (I - a P_f)^-1 + d I,
with P_f built here from the face's bridge twists and the resolvent
inverted by numpy; sigma is the dense twist-signed flip-flop on the tail
space.  Nothing here calls ``surfwalk.scattering`` or ``surfwalk.comfortability``.
"""

import numpy as np


def face_shift(bg, face):
    """Tails of a face in walk order and its weighted cyclic shift P_f(omega)
    as a function of omega.  Every island carries a tail, so the tails are
    the face's islands, and entry (j, j-1) is (-1)^tau omega, tau being the
    twist of the bridge crossed into island j."""
    q = len(face)
    signs = [(-1.0) ** int(bg.bridge_twist[g]) for g in face]

    def shift(omega):
        p = np.zeros((q, q), dtype=np.result_type(omega, complex))
        for j in range(q):
            p[j, (j - 1) % q] = signs[j] * omega
        return p

    return list(face), shift


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
        s[np.ix_(tails, tails)] = block
    return s


def q_matrix(bg, coin):
    """Dense Q = S - dI."""
    return matrix(bg, coin) - coin.d * np.eye(bg.size)


def apply_q(bg, coin, v):
    """Q v block by block (no n x n matrix, for long faces)."""
    out = np.zeros(bg.size, dtype=complex)
    for tails, block in blocks(bg, coin):
        out[tails] = (block - coin.d * np.eye(len(tails))) @ v[tails]
    return out


def sigma_matrix(bg):
    """Twist-signed flip-flop on the tail space: entry (i, i-bar) = (-1)^tau."""
    sigma = np.zeros((bg.size, bg.size))
    sigma[np.arange(bg.size), bg.bar] = bg.bridge_sign
    return sigma


def refined_q(bg, coin, inflow):
    """Q inflow face by face, solving (I - a P_f) x = v densely, Q v = bc P_f x.

    The energies divide by |bc|^2 = (1 - |a|^2)^2, so they need Q v to more
    digits than the blocks give: near |a| = 1 the condition number of
    I - a P_f reaches 2 / (1 - |a|), and rounding a P_f to double alone
    costs three digits at |a| = 0.999.  The system is therefore formed in
    long double, solved by numpy in double, and refined once with the
    long-double residual.  Columns of a 2-D ``inflow`` are separate inflows.
    """
    out = np.zeros(inflow.shape, dtype=complex)
    if abs(coin.b) < 1e-12:
        return out
    for face in bg.faces:
        tails, shift = face_shift(bg, face)
        p = shift(np.clongdouble(coin.omega))
        m = np.eye(len(tails)) - np.clongdouble(coin.a) * p
        v = inflow[tails].astype(np.clongdouble)
        x = np.linalg.solve(m.astype(complex), v.astype(complex))
        x = x + np.linalg.solve(m.astype(complex), (v - m @ x).astype(complex))
        out[tails] = coin.b * coin.c * (p.astype(complex) @ x)
    return out


def energies(bg, coin, inflow):
    """(island, bridge) energy of one inflow from dense Q and sigma."""
    q = refined_q(bg, coin, inflow)
    island = np.vdot(q, q).real / abs(coin.c) ** 2
    flipped = sigma_matrix(bg) @ q + coin.d * q
    bridge = np.vdot(flipped, flipped).real / (2.0 * abs(coin.b * coin.c) ** 2)
    return island, bridge


def unitarity_defect(blocks):
    """max |S_f^H S_f - I| over (tails, block) pairs, by the dense Gram of
    each block."""
    return max(np.abs(block.conj().T @ block - np.eye(len(tails))).max() for tails, block in blocks)

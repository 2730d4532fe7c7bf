"""The coin-free face indices rebuilt on every call, kept as a test oracle
for the ones a ``BlowUpGraph`` derives once (``face_index``,
``gram_index`` and ``same_face_pairs``).

Each other function starts from the hedgehog's ``face_layout`` alone and
derives its lengths, per-slot face starts, Gram gathers and same-face
partners afresh, in the order and arithmetic the library used before it
kept them, so the library's S, Gram columns and enumerated average must
equal these bit for bit.  :func:`layout_from_tuples` flattens the layout
itself from the face tuples, as the library did before it read the
traced walk arrays.
"""

import itertools
import math

import numpy as np

from surfwalk.covering_blowup import hedgehog

_LOG_TINY = -1023 * math.log(2.0)


def layout_from_tuples(bg):
    """``tails``, ``offsets`` and ``parity`` (``face_layout``), and
    ``lengths``, ``face`` and ``place`` (``face_index``), from the tuples
    of ``bg.faces`` and the bridge twists alone."""
    tails = np.fromiter(itertools.chain.from_iterable(bg.faces), dtype=np.int64, count=bg.size)
    lengths = np.fromiter(map(len, bg.faces), dtype=np.int64, count=len(bg.faces))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    parity = np.concatenate([np.cumsum(bg.bridge_twist[list(f)]) & 1 for f in bg.faces])
    face = np.repeat(np.arange(len(lengths)), lengths)
    place = np.arange(bg.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return tails, offsets, parity, lengths, face, place


def scattering_parts(bg, coin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``table``, ``closing`` and ``gaps`` of the scattering matrix of
    ``bg`` under a coin with a closed form and |a| < 1."""
    a = coin.a
    _, offsets, _ = bg.face_layout
    lengths = np.diff(offsets)
    omega = np.clongdouble(coin.omega)
    turn = np.power(np.clongdouble(a), lengths) * np.power(omega, lengths)
    gaps = np.abs(1.0 - turn).astype(float)
    if coin.degenerate:
        closing = np.zeros(len(lengths), dtype=np.clongdouble)
    else:
        closing = 1.0 / (1.0 - turn)
    powers = np.full(lengths.max(initial=1), np.clongdouble(a) * omega)
    powers[0] = 1
    powers = np.cumprod(powers)
    lead = np.clongdouble(coin.b) * np.clongdouble(coin.c) * omega * closing
    top = float(np.abs(lead).max(initial=0.0))
    if 0.0 < abs(a) < 1.0 and top > 0.0:
        powers[max(0, int((_LOG_TINY - math.log(top)) / math.log(abs(a))) + 1) :] = 0
    start = np.repeat(offsets[:-1], lengths)
    table = (np.repeat(lead, lengths) * powers[np.arange(bg.size) - start]).astype(complex)
    return table, closing.astype(complex), gaps


def gram(table: np.ndarray, offsets: np.ndarray, shift: complex) -> np.ndarray:
    """Per face, the first column of H_f^H H_f with H_f = C_f + shift I,
    laid out as the face layout."""
    lengths = np.diff(offsets)
    out = np.empty(len(table), dtype=complex)
    for q in dict.fromkeys(lengths.tolist()):
        starts = offsets[:-1][lengths == q, None]
        h = table[starts + (np.arange(q) - 1) % q]
        h[:, 0] += shift
        out[starts + np.arange(q)] = np.fft.ifft(np.abs(np.fft.fft(h)) ** 2)
    return out


def unitarity_defect(bg, coin) -> float:
    table, _, _ = scattering_parts(bg, coin)
    offsets = bg.face_layout[1]
    g = gram(table, offsets, coin.d)
    g[offsets[:-1]] -= 1
    return float(np.abs(g).max())


def average_by_enumeration(fd, coin) -> float:
    """Sum of single-tail energies over every tail, divided by |A|."""
    bg = hedgehog(fd.rs)
    tails, offsets, parity = bg.face_layout
    table, _, _ = scattering_parts(bg, coin)
    lengths = np.diff(offsets)
    g = gram(table, offsets, 0.0)
    norm = float(lengths @ g[offsets[:-1]].real)

    slot = np.empty(bg.size, dtype=np.int64)
    slot[tails] = np.arange(bg.size)
    face = np.repeat(np.arange(len(lengths)), lengths)
    partner = slot[bg.bar[tails]]
    u = np.flatnonzero(face[partner] == face)
    v, f = partner[u], face[u]
    entry = g[offsets[f] + (u - v) % lengths[f]]
    cross = float(bg.bridge_sign[tails[u]] * (1 - 2 * (parity[u] ^ parity[v])) @ entry.real)

    d = coin.d.real
    island = norm / abs(coin.c) ** 2
    bridge = ((1.0 + d * d) * norm + 2.0 * d * cross) / (2.0 * abs(coin.b * coin.c) ** 2)
    return (island + bridge) / fd.rs.graph.arc_count

"""Comfortability: how much amplitude an embedding stores.

For one inflow the energy splits into an island part and a bridge part,
both functions of Q = S - dI alone.  Averaging over a uniformly random
single-tail inflow collapses to traces of QQ* and QQ*sigma, which reduce
to sums over faces weighted by face length and by self-intersection
distances.  The a -> 1 scaling limit of the average exposes the genus.

Normalization.  The tails number twice the arcs of the underlying graph
(one per island arc of the covered blow-up), and every average here is the
sum over all tails divided by the number of base arcs |A|: that is the
normalization under which the a -> 0 average is 3 and the a -> 1 limit is
(|F|/|E|)(1 - ...).  The uniform per-tail expectation is exactly half of
it and is reported alongside.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covering_blowup import hedgehog
from .errors import AssumptionError, BudgetError, GraphError
from .rotation_system import FacialDecomposition
from .scattering import ScatteringMatrix, _require_built_for, scattering_matrix
from .walk_dynamics import Coin

__all__ = [
    "ComfortReport",
    "comfortability",
    "average_comfortability",
    "positive_coin_average",
    "average_by_enumeration",
    "limit_comfortability",
    "island_h",
    "island_energy",
    "compare_partitions",
    "kn_best_worst",
    "KnGenera",
]


@dataclass(frozen=True)
class ComfortReport:
    """Energies of one stationary state, split island/bridge."""

    energy: float
    island: float
    bridge: float

    def __post_init__(self):
        # In this form a nan energy fails the check too.
        if not (self.energy >= -1e-12 and self.island >= -1e-12 and self.bridge >= -1e-12):
            raise AssumptionError("comfortability must be non-negative")


def comfortability(
    fd: FacialDecomposition,
    coin: Coin,
    inflow: np.ndarray,
    scattering: ScatteringMatrix | None = None,
) -> ComfortReport:
    """Energy stored by the stationary state with the given inflow, from S alone.

    With q = Q inflow (tail indexed), the island part is |q|^2 / |c|^2 and
    the bridge part |sigma q + d q|^2 / (2 |bc|^2), where the twist-signed
    flip-flop sigma q holds at each tail the bridge sign times q at its
    partner tail.
    """
    coin.require_closed_form()
    if scattering is None:
        s = scattering_matrix(hedgehog(fd.rs), coin)
    else:
        s = scattering
        _require_built_for(s, coin, fd.rs)
    q = s.apply_q(inflow)
    flipped = s.bg.bridge_sign * q[s.bg.bar] + coin.d * q
    island = float((q.conj() * q).real.sum()) / abs(coin.c) ** 2
    bridge = float((flipped.conj() * flipped).real.sum()) / (2.0 * abs(coin.b * coin.c) ** 2)
    return ComfortReport(energy=island + bridge, island=island, bridge=bridge)


def average_comfortability(fd: FacialDecomposition, coin: Coin) -> float:
    """Average energy over a uniformly random single-tail inflow (times the
    tail/arc normalization ratio 2; see module docstring).

    The terms are summed in a canonical order, faces by (length, sorted
    hit distances) and each face's hits sorted, so embeddings with the same
    face data get bit-identical averages and rank ties stay exact.  That
    order is the decomposition's ``_face_data``, sorted when its faces are
    traced, so a coin sweep does only coin arithmetic.

    With z = a omega = r e^(i theta), r = |a| (|omega| = 1), each 1 - r^x is
    -expm1(x log r) and each |1 - z^L|^2 is (1 - r^L)^2 + 4 r^L
    sin^2(L theta / 2), so neither is formed by a subtraction that cancels
    as |a| -> 1.  theta is held in half turns, so that a real z has L theta
    / 2 a multiple of pi / 2 exactly.
    """
    coin.require_closed_form()
    d = coin.d.real
    z = coin.a * coin.omega
    b2 = abs(coin.b) ** 2
    c2 = abs(coin.c) ** 2
    r = abs(coin.a)
    log_r = math.log1p(r - 1.0) if r else -math.inf
    half_turns = cmath.phase(z) / math.pi

    t1 = 0.0
    t2 = 0.0
    for length, hits in fd._face_data:
        gap = -math.expm1(length * log_r)
        sine = math.sin(math.pi / 2 * math.remainder(length * half_turns, 2.0))
        denom = gap * gap + 4.0 * (1.0 - gap) * sine * sine
        t1 += length * -math.expm1(2 * length * log_r) / denom
        if hits:
            inner = 0.0
            for d1, d2 in hits:
                inner += 2.0 * (
                    z**d1 * -math.expm1(2 * d2 * log_r) + z**d2 * -math.expm1(2 * d1 * log_r)
                ).real
            t2 += inner / denom
    n_arcs = fd.rs.graph.arc_count
    return ((2.0 + b2) / c2 * t1 + 2.0 * d / c2 * t2) / n_arcs


def positive_coin_average(fd: FacialDecomposition, a: float) -> float:
    """The positive-coin (a > 0, omega = 1) face/self-intersection form of
    the average; equals :func:`average_comfortability` for the real coin
    [[a, b], [b, -a]].  Each self-intersecting edge is weighted once per
    crossing direction on each chiral copy of its face, which is what the
    tail-by-tail average requires.

    This is an oracle for the benchmark's checks and criterion 05: no
    library or CLI path calls it.
    """
    if not 0.0 < a < 1.0:
        raise AssumptionError("this form is stated for 0 < a < 1")
    # b^2 = 1 - a^2 and 1 - a^L are formed without subtracting from 1, which
    # cancels as a -> 1.
    b2 = (1.0 - a) * (1.0 + a)
    log_a = math.log1p(a - 1.0)
    first = 0.0
    second = 0.0
    for face, hits in zip(fd.faces, fd.self_intersections):
        length = len(face)
        one_minus = -math.expm1(length * log_a)
        first += length * (1.0 + a**length) / one_minus
        if hits:
            arc_sum = sum(2.0 * (a**d1 + a**d2) for d1, d2 in hits.values())
            second += arc_sum / one_minus
    n_arcs = fd.rs.graph.arc_count
    return ((2.0 + b2) / b2 * first - 2.0 * a / b2 * second) / n_arcs


def average_by_enumeration(fd: FacialDecomposition, coin: Coin) -> float:
    """Sum of single-tail energies over every tail, divided by |A|, from
    the Gram columns of S's face blocks.

    The inflow on tail m excites one face, and its Q inflow is column m of
    that face's block Q_f, so the energies of :func:`comfortability` sum
    over m to traces of Q Q^H: the island parts to N / |c|^2 and the
    bridge parts to ((1 + d^2) N + 2 d X) / (2 |bc|^2).  With Q_f =
    D C_f D and g_f the Gram column of C_f (:meth:`ScatteringMatrix._gram`),
    N = sum_f q_f g_f[0] is the squared Frobenius norm of Q, and X sums
    sign_t (-1)^(P_j + P_j') Re g_f[(j - j') mod q] over the tails t, at j,
    whose partner ``bar[t]``, at j', lies on the same face (the hedgehog's
    ``same_face_pairs``); other tails add nothing to X.  Every entry is
    read off g_f: O(q log q) per face and no block.
    """
    coin.require_closed_form()
    s = scattering_matrix(hedgehog(fd.rs), coin)
    gram = s._gram(0.0)
    norm = float(s.bg.face_index[0] @ gram[s.offsets[:-1]].real)
    entry, sign = s.bg.same_face_pairs
    cross = float(sign @ gram[entry].real)

    d = coin.d.real
    island = norm / abs(coin.c) ** 2
    bridge = ((1.0 + d * d) * norm + 2.0 * d * cross) / (2.0 * abs(coin.b * coin.c) ** 2)
    return (island + bridge) / fd.rs.graph.arc_count


def limit_comfortability(fd: FacialDecomposition) -> float:
    """lim (1-a)^2 E[E] as a -> 1: (|F|/|E|) (1 - (1/|F|) sum 2 s_f / |f|)
    with s_f the number of self-intersecting edges of face f.

    A face crossing every edge of its boundary twice contributes zero, so a
    one-face embedding on an orientable surface scores 0.
    """
    n_faces = len(fd.faces)
    n_edges = fd.rs.graph.edge_count
    penalty = sum(2 * len(hits) / len(face) for face, hits in zip(fd.faces, fd.self_intersections))
    return (n_faces / n_edges) * (1.0 - penalty / n_faces)


# --------------------------------------------------------------------------
# Island energy and the partition order.
# --------------------------------------------------------------------------


def island_h(x: int, a: float) -> float:
    """h(x) = x (1 + a^x) / (1 - a^x); h(0) is the x -> 0 limit 2/log|a|.

    h(0) is negative for |a| < 1; bounds are usually quoted against its
    magnitude 2/|log a|.
    """
    if not 0.0 < abs(a) < 1.0:
        raise AssumptionError("island energy needs 0 < |a| < 1")
    if x == 0:
        return 2.0 / math.log(abs(a))
    ax = a**x
    return x * (1.0 + ax) / (1.0 - ax)


def island_energy(partition, a: float) -> float:
    """Q(lambda) = sum of h over the parts; parts are face lengths, so >= 3."""
    parts = tuple(partition)
    if any(p < 3 for p in parts):
        raise GraphError("face lengths are at least 3")
    return sum(island_h(p, a) for p in parts)


def _split_moves(parts: tuple[int, ...]):
    """Partitions reachable by one energy-increasing move: split one part, or
    spread two parts further apart at constant sum (with repeats)."""
    n = len(parts)
    for i, p in enumerate(parts):
        rest = parts[:i] + parts[i + 1 :]
        for l in range(1, p // 2 + 1):
            yield tuple(sorted(rest + (l, p - l), reverse=True))
    for i in range(n):
        for j in range(i + 1, n):
            l, m = parts[i], parts[j]
            rest = parts[:i] + parts[i + 1 : j] + parts[j + 1 :]
            total, gap = l + m, abs(l - m)
            for l2 in range(total // 2, 0, -1):
                m2 = total - l2
                if abs(l2 - m2) > gap:
                    yield tuple(sorted(rest + (l2, m2), reverse=True))


# Candidate partitions one order search may examine, repeats included: the
# number a search from (30,) examines, which reaches every partition of 30,
# so every total up to 30 (the face-length sum of K6) is decided.  Searches
# grow about fourfold per six more of the total, and a partition with many
# parts costs many candidates, so distinct partitions alone bound no work.
MAX_PARTITION_MOVES = 220_875


@lru_cache(maxsize=16)
def _reachable_upward(frm: tuple[int, ...]) -> frozenset:
    """All partitions provably of larger island energy than ``frm``."""
    seen = set()
    queue = deque([frm])
    moves = 0
    while queue:
        for nxt in _split_moves(queue.popleft()):
            moves += 1
            if moves > MAX_PARTITION_MOVES:
                raise BudgetError(
                    f"ordering partitions of {sum(frm)} examines more than "
                    f"{MAX_PARTITION_MOVES} candidates"
                )
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def compare_partitions(first, second) -> str:
    """Order two partitions of the same total by chains of the two h moves.

    Returns 'equal', 'greater', 'less' or 'incomparable'; the last means no
    chain of moves decides the pair (their numeric energies may still
    differ, e.g. [9, 3] vs [4, 4, 4]).  Raises :class:`BudgetError` when
    the search would examine more than ``MAX_PARTITION_MOVES`` candidate
    partitions, which no total up to 30 does.
    """
    p1 = tuple(sorted(first, reverse=True))
    p2 = tuple(sorted(second, reverse=True))
    if sum(p1) != sum(p2):
        raise GraphError("partitions must have the same total")
    if p1 == p2:
        return "equal"
    if p1 in _reachable_upward(p2):
        return "greater"
    if p2 in _reachable_upward(p1):
        return "less"
    return "incomparable"


# --------------------------------------------------------------------------
# Complete graphs: genera and best/worst surfaces.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KnGenera:
    """Known genus extremes of K_n and the best/worst surface classes."""

    n: int
    orientable_min: int
    nonorientable_min: int
    orientable_max: int
    nonorientable_max: int
    best: tuple[str, ...]
    worst: str
    formula_caveat: bool


def kn_best_worst(n: int) -> KnGenera:
    """Genus formulas for K_n and the best/worst embedding classes for a
    quantum walker (minimal genus is best, maximal is worst, with the
    orientability split depending on n mod 4; n = 3, 4, 7 are exceptional)."""
    if n < 3:
        raise GraphError("K_n needs n >= 3")
    gamma = math.ceil((n - 3) * (n - 4) / 12)
    gamma_tilde = 3 if n == 7 else math.ceil((n - 3) * (n - 4) / 6)
    gamma_max = (n - 1) * (n - 2) // 4
    betti = n * (n - 1) // 2 - n + 1

    if n % 4 in (1, 2):
        best = ("non-orientable",)
        worst = "orientable"
    else:
        best = ("orientable",) if n in (3, 4, 7) else ("orientable", "non-orientable")
        worst = "non-orientable"
    return KnGenera(
        n=n,
        orientable_min=gamma,
        nonorientable_min=gamma_tilde,
        orientable_max=gamma_max,
        nonorientable_max=betti,
        best=best,
        worst=worst,
        formula_caveat=n < 5,
    )

"""Acceptance suite: every releasable claim, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion; a failed criterion fails its test.
"""

import math

import numpy as np
import pytest

import dense_oracle
from conftest import (
    projective_k4,
    random_d_real_coin,
    random_rotation_system,
)
from surfwalk.comfortability import (
    average_comfortability,
    comfortability,
    island_energy,
    island_h,
    kn_best_worst,
    limit_comfortability,
    positive_coin_average,
)
from surfwalk.covering_blowup import double_cover, hedgehog
from surfwalk.enumeration import min_max_genus, rank_by_comfortability
from surfwalk.rotation_system import detect_orientability, trace_faces
from surfwalk.scattering import (
    orientability_from_scattering,
    scattering_matrix,
    stationary_closed_form,
)
from surfwalk.walk_dynamics import Coin, flip_correspondence, internal_energy, run_to_stationary

TOL_ORACLE = 1e-8
TOL_UNITARY = 1e-10


def _report(num, text):
    print(f"\n[criterion {num:02d}] PASS  {text}")


def _unit(n, tail):
    v = np.zeros(n, dtype=complex)
    v[tail] = 1.0
    return v


def test_criterion_01_k4_census(k4_classes):
    assert len(k4_classes) == 11
    assert sum(c.orbit_size for c in k4_classes) == 1024
    named = {(c.orientable, c.genus, c.face_lengths) for c in k4_classes}
    required = [
        (True, 0, (3, 3, 3, 3)),
        (False, 1, (6, 3, 3)),
        (False, 3, (12,)),
        (True, 1, (8, 4)),
        (False, 2, (8, 4)),
        (True, 1, (9, 3)),
        (False, 2, (9, 3)),
    ]
    for item in required:
        assert item in named, f"missing class {item}"
    _report(1, "K4 has 11 classes, orbit sizes sum to 1024, all named classes present")


def test_criterion_02_twisted_planar_k4():
    fd = trace_faces(projective_k4())
    assert fd.face_lengths == (6, 3, 3)
    assert not fd.orientable
    assert fd.genus == 1
    _report(2, "clockwise K4 with one twisted edge gives faces {3,3,6}, non-orientable, k=1")


def test_criterion_03_scattering_unitarity(k4_classes, rng):
    worst = 0.0
    coins = [random_d_real_coin(rng, max_a=0.95) for _ in range(10)]
    for cls in k4_classes:
        bg = hedgehog(cls.representative)
        for coin in coins:
            worst = max(worst, scattering_matrix(bg, coin).unitarity_defect())
    assert worst < TOL_UNITARY
    _report(3, f"S unitary for 11 classes x 10 random d-real coins (defect {worst:.1e})")


def test_criterion_04_oracle_equivalence(k4_classes):
    coin = Coin.hadamard_type()
    worst_out = worst_state = worst_energy = 0.0
    for cls in k4_classes:
        rs = cls.representative
        fd = cls.decomposition
        bg = hedgehog(rs)
        s = scattering_matrix(bg, coin)
        dense = s.matrix()
        # One batched run: column j is the simulation with a unit inflow at tail j.
        sim = run_to_stationary(bg, coin, np.eye(bg.size), tol=1e-11)
        energies = internal_energy(sim)
        for tail in range(bg.size):
            inflow = _unit(bg.size, tail)
            worst_out = max(worst_out, np.abs(sim.outflow[:, tail] - dense[:, tail]).max())
            closed = stationary_closed_form(bg, coin, inflow, scattering=s)
            worst_state = max(
                worst_state,
                np.abs(sim.island_in[:, tail] - closed.island_in).max(),
                np.abs(sim.island_plus[:, tail] - closed.island_plus).max(),
                np.abs(sim.bridge[:, tail] - closed.bridge).max(),
            )
            report = comfortability(fd, coin, inflow, scattering=s)
            worst_energy = max(worst_energy, abs(energies[tail] - report.energy))
    assert worst_out < TOL_ORACLE
    assert worst_state < TOL_ORACLE
    assert worst_energy < TOL_ORACLE
    _report(
        4,
        "simulator = closed forms on all 11 classes x 24 tails "
        f"(outflow {worst_out:.1e}, state {worst_state:.1e}, energy {worst_energy:.1e})",
    )


def test_criterion_05_average_formula_chain(k4_classes):
    worst = 0.0
    for cls in k4_classes:
        fd = cls.decomposition
        s = scattering_matrix(hedgehog(fd.rs), Coin.hadamard_type())
        for a in (0.3, 0.7, 0.98):
            coin = Coin.real_symmetric(a)
            s_a = scattering_matrix(hedgehog(fd.rs), coin)
            by_enum = (
                sum(
                    comfortability(fd, coin, _unit(24, t), scattering=s_a).energy
                    for t in range(24)
                )
                / 12.0
            )
            by_trace = average_comfortability(fd, coin)
            by_form = positive_coin_average(fd, a)
            worst = max(worst, abs(by_enum - by_trace), abs(by_trace - by_form))
    assert worst < TOL_ORACLE
    _report(5, f"enumeration mean = trace form = positive-coin form (dev {worst:.1e})")


def test_criterion_06_limits(k4_classes):
    worst_small = 0.0
    for cls in k4_classes:
        avg = average_comfortability(cls.decomposition, Coin.real_symmetric(1e-6))
        worst_small = max(worst_small, abs(avg - 3.0))
    assert worst_small < 1e-4

    delta = 1e-3
    worst_rel = 0.0
    for cls in k4_classes:
        lim = limit_comfortability(cls.decomposition)
        val = positive_coin_average(cls.decomposition, 1.0 - delta) * delta**2
        if lim > 0:
            worst_rel = max(worst_rel, abs(val - lim) / lim)
        else:
            assert abs(val) < 1e-4
    assert worst_rel < 0.01
    _report(
        6,
        f"a->0 average is 3 (dev {worst_small:.1e}); delta^2 E matches the a->1 "
        f"limit within {100 * worst_rel:.2f}%",
    )


def test_criterion_07_ranking_endpoints(k4_classes):
    ranked = rank_by_comfortability(k4_classes, 0.98)
    top, bottom = ranked[0].embedding, ranked[-1].embedding
    assert top.orientable and top.face_lengths == (3, 3, 3, 3)
    assert not bottom.orientable and bottom.genus == 3
    limits = {
        (r.embedding.orientable, r.embedding.face_lengths): r.limit for r in ranked
    }
    assert limits[(False, (8, 4))] > limits[(True, (8, 4))]
    assert abs(limits[(True, (3, 3, 3, 3))] - 2.0 / 3.0) < 1e-12
    _report(7, "a=0.98 ranking: sphere first, k=3 last; Klein [8,4] beats torus; sphere limit 2/3")


def test_criterion_08_orientability_three_way(k4_classes, rng):
    coin = Coin.hadamard_type()
    systems = [cls.representative for cls in k4_classes]
    systems += [random_rotation_system(rng, max_vertices=6) for _ in range(100)]
    for rs in systems:
        by_tree, _ = detect_orientability(rs)
        by_cover = double_cover(rs).components == 2
        s = scattering_matrix(hedgehog(rs), coin)
        by_signs = orientability_from_scattering(s)
        assert by_tree == by_cover == by_signs == dense_oracle.orientable_by_signs(s)
    _report(8, "spanning tree = double cover = scattering signs (balance and vertex pairs) on 11 + 100 systems")


def test_criterion_09_unitary_equivalence_invariance(rng):
    coin = Coin.hadamard_type()
    worst_e = worst_s = 0.0
    for _ in range(50):
        rs = random_rotation_system(rng, graph=projective_k4().graph)
        x = int(rng.integers(4))
        flipped, phi = flip_correspondence(rs, x)
        fd1, fd2 = trace_faces(rs), trace_faces(flipped)
        s1 = scattering_matrix(hedgehog(fd1.rs), coin)
        s2 = scattering_matrix(hedgehog(fd2.rs), coin)
        tail = int(rng.integers(24))
        e1 = comfortability(fd1, coin, _unit(24, tail), scattering=s1).energy
        e2 = comfortability(fd2, coin, _unit(24, int(phi[tail])), scattering=s2).energy
        worst_e = max(worst_e, abs(e1 - e2))
        m1, m2 = s1.matrix(), s2.matrix()
        worst_s = max(worst_s, np.abs(np.abs(m2[np.ix_(phi, phi)]) - np.abs(m1)).max())
    assert worst_e < TOL_ORACLE
    assert worst_s < TOL_ORACLE
    _report(
        9,
        f"vertex flips keep single-inflow energy (dev {worst_e:.1e}) and |S| "
        f"entrywise (dev {worst_s:.1e}) on 50 random pairs",
    )


def test_criterion_10_octagon_self_intersections(k4_classes):
    counts = {}
    for cls in k4_classes:
        if cls.face_lengths == (8, 4):
            fd = cls.decomposition
            octagon = max(range(2), key=lambda i: len(fd.faces[i]))
            counts[cls.orientable] = len(fd.self_intersections[octagon])
    assert counts[True] == 2  # torus
    assert counts[False] == 1  # Klein bottle
    _report(10, "octagon self-intersections: torus 2, Klein bottle 1")


def test_criterion_11_island_energy_suite(rng):
    for _ in range(1000):
        l = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        a = float(rng.uniform(0.3, 0.97))
        if a ** (l + m) < 1e-12:
            continue
        assert island_h(l + m, a) < island_h(l, a) + island_h(m, a)
        spread = int(rng.integers(1, 10))
        l2, m2 = l + spread, m - spread
        if m2 >= 1 and abs(l2 - m2) > abs(l - m):
            assert island_h(l, a) + island_h(m, a) < island_h(l2, a) + island_h(m2, a)

    for a in (0.9, 0.98):
        gap = abs(island_energy([9, 3], a) - island_energy([4, 4, 4], a))
        assert gap < 2.0 / abs(math.log(a))

    def partitions(total, min_part, largest=None):
        largest = total if largest is None else largest
        if total == 0:
            yield ()
            return
        for first in range(min(largest, total), min_part - 1, -1):
            for rest in partitions(total - first, min_part, first):
                yield (first,) + rest

    for a in (0.5, 0.9, 0.98):
        lo = island_energy([12], a)
        hi = island_energy([3, 3, 3, 3], a)
        for p in partitions(12, 3):
            q = island_energy(p, a)
            assert lo <= q + 1e-12 and q <= hi + 1e-12
    _report(11, "h(x) properties, the [9,3] vs [4,4,4] gap bound and partition extremes hold")


def test_criterion_12_kn_genus_harness(k4_classes):
    values = {n: kn_best_worst(n) for n in (3, 4, 5, 7, 8)}
    assert values[3].orientable_min == 0
    assert values[5].orientable_min == 1
    assert values[7].nonorientable_min == 3
    assert values[8].orientable_min == 2
    assert values[8].nonorientable_max == 21

    summary = min_max_genus(k4_classes)
    k4 = values[4]
    assert summary.orientable_min == k4.orientable_min == 0
    assert summary.orientable_max == k4.orientable_max == 1
    assert summary.nonorientable_max == k4.nonorientable_max == 3
    # informational at n = 4: the formula gives 0, the census gives 1
    assert k4.formula_caveat and summary.nonorientable_min == 1
    _report(12, "classical genus formulas line up with the K4 census (n=4 caveat noted)")


def test_criterion_13_k5_ranking_endpoints(k5_classes):
    k5 = kn_best_worst(5)
    assert k5.best == ("non-orientable",) and k5.worst == "orientable"
    for a in (0.5, 0.9, 0.98):
        ranked = rank_by_comfortability(k5_classes, a)
        # Each end is held by one class alone.
        assert ranked[0].average > ranked[1].average
        assert ranked[-1].average < ranked[-2].average
        best, worst = ranked[0].embedding, ranked[-1].embedding
        assert not best.orientable and best.genus == k5.nonorientable_min == 1
        assert best.face_lengths == (5, 3, 3, 3, 3, 3)
        assert worst.orientable and worst.genus == k5.orientable_max == 3
        assert worst.face_lengths == (20,)
    _report(13, "K5 census at a=0.5, 0.9, 0.98: projective plane first, one-face genus 3 last")

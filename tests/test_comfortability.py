import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from conftest import projective_k4, planar_k4, random_d_real_coin
from surfwalk.comfortability import (
    average_by_enumeration,
    average_comfortability,
    comfortability,
    compare_partitions,
    island_energy,
    island_h,
    kn_best_worst,
    limit_comfortability,
    positive_coin_average,
)
from surfwalk.covering_blowup import hedgehog
from surfwalk.errors import AssumptionError, BudgetError, GraphError
from surfwalk.graph_core import SymmetricDigraph, cycle_graph
from surfwalk.rotation_system import RotationSystem, flip_vertex, trace_faces
from surfwalk.scattering import scattering_matrix, stationary_closed_form
from surfwalk.walk_dynamics import Coin, internal_energy, run_to_stationary


def unit_inflow(n, tail):
    v = np.zeros(n, dtype=complex)
    v[tail] = 1.0
    return v


def simulated_average(fd, coin, tol=1e-11):
    """The single-tail average by the simulator alone: one batched run with
    an inflow column per tail, its column energies summed, divided by |A|.
    It never builds S, so it checks the closed forms for any unitary coin."""
    bg = hedgehog(fd.rs)  # every island carries a tail
    state = run_to_stationary(bg, coin, np.eye(bg.size), tol=tol)
    return float(internal_energy(state).sum()) / fd.rs.graph.arc_count


def test_zero_inflow_zero_energy():
    fd = trace_faces(projective_k4())
    report = comfortability(fd, Coin.hadamard_type(), np.zeros(24, dtype=complex))
    assert report.energy == report.island == report.bridge == 0.0


def test_energy_matches_simulator_per_inflow(rng):
    for rs in (planar_k4(), projective_k4()):
        fd = trace_faces(rs)
        bg = hedgehog(rs)
        coin = Coin.hadamard_type()
        s = scattering_matrix(hedgehog(fd.rs), coin)
        for tail in rng.choice(bg.size, size=5, replace=False):
            inflow = unit_inflow(bg.size, int(tail))
            closed = comfortability(fd, coin, inflow, scattering=s)
            sim = internal_energy(run_to_stationary(bg, coin, inflow, tol=1e-12))
            assert abs(closed.energy - sim) < 1e-8
            assert closed.island >= 0 and closed.bridge >= 0


def test_island_split_matches_simulator():
    rs = projective_k4()
    fd = trace_faces(rs)
    bg = hedgehog(rs)
    coin = Coin.hadamard_type()
    inflow = unit_inflow(bg.size, 2)
    closed = comfortability(fd, coin, inflow)
    state = run_to_stationary(bg, coin, inflow, tol=1e-12)
    sim_island = 0.5 * (
        np.vdot(state.island_in, state.island_in).real
        + np.vdot(state.island_plus, state.island_plus).real
    )
    sim_bridge = 0.5 * np.vdot(state.bridge, state.bridge).real
    assert abs(closed.island - sim_island) < 1e-8
    assert abs(closed.bridge - sim_bridge) < 1e-8


def test_average_routes_agree(rng):
    rs = projective_k4()
    fd = trace_faces(rs)
    for coin in (Coin.hadamard_type(), random_d_real_coin(rng, max_a=0.8)):
        by_faces = average_comfortability(fd, coin)
        by_enum = average_by_enumeration(fd, coin)
        assert abs(by_faces - by_enum) < 1e-10
        # matrix-trace route
        bg = hedgehog(rs)
        q = dense_oracle.q_matrix(bg, coin)
        sigma = dense_oracle.sigma_matrix(bg)
        b2 = abs(coin.b) ** 2
        bc2 = abs(coin.b * coin.c) ** 2
        tr1 = np.trace(q @ q.conj().T).real
        tr2 = np.trace(q @ q.conj().T @ sigma).real
        by_trace = ((2 + b2) / (2 * bc2) * tr1 + coin.d.real / bc2 * tr2) / 12
        assert abs(by_faces - by_trace) < 1e-10


def test_average_agrees_with_simulator_mean():
    fd = trace_faces(projective_k4())
    coin = Coin.hadamard_type()
    assert abs(
        average_comfortability(fd, coin) - simulated_average(fd, coin)
    ) < 1e-8


def test_simulator_average_never_builds_scattering(monkeypatch):
    # The simulator oracle must not call the closed forms it checks: a coin
    # with complex d, which the closed forms reject, still has a simulated
    # average.
    def refuse(*args, **kwargs):
        raise AssertionError("simulator average built S")

    # the package re-exports the function comfortability under the module's name
    for module in ("surfwalk.scattering", "surfwalk.comfortability"):
        monkeypatch.setattr(importlib.import_module(module), "scattering_matrix", refuse)
    rs = planar_k4()
    fd = trace_faces(rs)
    r = 1.0 / np.sqrt(2.0)
    coin = Coin(r, r, 1j * r, -1j * r)
    assert not coin.d_is_real
    bg = hedgehog(rs)
    per_tail = sum(
        internal_energy(run_to_stationary(bg, coin, unit_inflow(bg.size, j), tol=1e-11))
        for j in range(bg.size)
    )
    expected = per_tail / rs.graph.arc_count
    assert abs(simulated_average(fd, coin) - expected) < 1e-8 * expected


def test_positive_coin_form_matches_general():
    fd = trace_faces(projective_k4())
    for a in (0.3, 0.7, 0.98):
        coin = Coin.real_symmetric(a)
        assert abs(coin.omega - 1.0) < 1e-15
        assert abs(average_comfortability(fd, coin) - positive_coin_average(fd, a)) < 1e-12


def test_small_a_average_is_three():
    for rs in (planar_k4(), projective_k4()):
        fd = trace_faces(rs)
        assert abs(average_comfortability(fd, Coin.real_symmetric(1e-6)) - 3.0) < 1e-4


def test_single_inflow_energy_invariant_under_flip(rng):
    rs = projective_k4()
    fd = trace_faces(rs)
    coin = Coin.hadamard_type()
    from surfwalk.walk_dynamics import flip_correspondence

    for x in range(4):
        flipped, phi = flip_correspondence(rs, x)
        fd2 = trace_faces(flipped)
        tail = int(rng.integers(24))
        e1 = comfortability(fd, coin, unit_inflow(24, tail)).energy
        e2 = comfortability(fd2, coin, unit_inflow(24, int(phi[tail]))).energy
        assert abs(e1 - e2) < 1e-10


def test_limit_values():
    assert abs(limit_comfortability(trace_faces(planar_k4())) - 2.0 / 3.0) < 1e-12
    # triangle on the projective plane: one hexagonal face, no self-crossings
    g = cycle_graph(3)
    rot = [0] * 6
    for x in range(3):
        e0, e1 = g.incoming_arcs(x)
        rot[e0], rot[e1] = e1, e0
    rs = RotationSystem(g, tuple(rot), (1, 0, 0))
    fd = trace_faces(rs)
    assert fd.face_lengths == (6,)
    assert abs(limit_comfortability(fd) - 1.0 / 3.0) < 1e-12


def test_single_face_orientable_limit_is_zero():
    # Diamond graph: its one-face orientable embedding crosses every edge
    # twice, so the a -> 1 coefficient vanishes.
    from surfwalk.enumeration import enumerate_embeddings

    g = SymmetricDigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)])
    classes = enumerate_embeddings(g)
    single = [c for c in classes if c.orientable and len(c.face_lengths) == 1]
    assert len(single) == 1
    fd = single[0].decomposition
    assert limit_comfortability(fd) == 0.0
    # the scaling itself: delta^2 E[E] ~ 4 delta / |A| for the fully crossed face
    delta = 1e-4
    val = positive_coin_average(fd, 1 - delta) * delta**2
    assert abs(val - 4 * delta / 10) < 1e-6


def test_limit_matches_numeric_scaling(k4_classes):
    delta = 1e-3
    for cls in k4_classes:
        lim = limit_comfortability(cls.decomposition)
        val = positive_coin_average(cls.decomposition, 1 - delta) * delta**2
        assert lim > 0
        assert abs(val - lim) / lim < 0.01


def test_self_intersection_counts_match_figure(k4_classes):
    octagons = {}
    for cls in k4_classes:
        if cls.face_lengths == (8, 4):
            fd = cls.decomposition
            i = max(range(2), key=lambda j: len(fd.faces[j]))
            octagons[cls.orientable] = len(fd.self_intersections[i])
    assert octagons == {True: 2, False: 1}


def test_self_intersections_triangle_faces_empty():
    fd = trace_faces(planar_k4())
    for i in range(4):
        assert fd.self_intersections[i] == {}


def test_comfortability_requires_valid_coin():
    fd = trace_faces(projective_k4())
    bg = hedgehog(fd.rs)
    inflow = unit_inflow(bg.size, 0)
    complex_d = Coin(*(1j * np.array([1, 1, 1, -1]) / math.sqrt(2)))
    degenerate = Coin(1.0, 0.0, 0.0, -1.0)
    unit_a = Coin.real_symmetric(1.0 - 5e-15)
    for coin in (complex_d, degenerate, unit_a):
        assert not coin.has_closed_form
        with pytest.raises(AssumptionError):
            comfortability(fd, coin, inflow)
        with pytest.raises(AssumptionError):
            average_comfortability(fd, coin)
        with pytest.raises(AssumptionError):
            stationary_closed_form(bg, coin, inflow)


# ---------------------------------------------------------------------------
# Island energy and the partition order.
# ---------------------------------------------------------------------------


def test_island_h_basics():
    assert island_h(0, 0.5) == pytest.approx(2.0 / math.log(0.5))
    assert island_h(0, 0.5) < 0
    assert island_h(3, 0.5) == pytest.approx(3 * (1 + 0.125) / (1 - 0.125))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_island_h_subadditive_with_h0_bound(l, m, a):
    # strictness saturates below double precision once a^(l+m) underflows
    assume(a ** (l + m) > 1e-12)
    lhs = island_h(l + m, a)
    mid = island_h(l, a) + island_h(m, a)
    assert lhs < mid
    assert mid < lhs + 2.0 / abs(math.log(a))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_island_h_prefers_bias(l1, m1, spread, a):
    l2, m2 = l1 + spread, m1 - spread
    if m2 < 1 or abs(l2 - m2) <= abs(l1 - m1):
        return
    assume(a ** (l1 + m1) > 1e-12)
    assert island_h(l1, a) + island_h(m1, a) < island_h(l2, a) + island_h(m2, a)


def test_island_energy_validates_parts():
    with pytest.raises(GraphError):
        island_energy([4, 2], 0.5)
    with pytest.raises(AssumptionError):
        island_energy([4, 4], 1.5)


def test_energy_gap_bound_9_3_vs_4_4_4():
    for a in (0.9, 0.98):
        gap = abs(island_energy([9, 3], a) - island_energy([4, 4, 4], a))
        assert gap < 2.0 / abs(math.log(a))


def _partitions(total, min_part, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(largest, total), min_part - 1, -1):
        for rest in _partitions(total - first, min_part, first):
            yield (first,) + rest


def test_extremal_partitions_of_twelve():
    parts = list(_partitions(12, 3))
    assert (3, 3, 3, 3) in parts and (12,) in parts
    for a in (0.5, 0.9):
        vals = {p: island_energy(p, a) for p in parts}
        assert min(vals, key=vals.get) == (12,)
        assert max(vals, key=vals.get) == (3, 3, 3, 3)


def test_compare_partitions_decidable_chains():
    assert compare_partitions([9, 3], [12]) == "greater"
    assert compare_partitions([3, 3, 3, 3], [9, 3]) == "greater"
    assert compare_partitions([12], [6, 3, 3]) == "less"
    assert compare_partitions([6, 6], [12]) == "greater"
    assert compare_partitions([9, 3], [6, 6]) == "greater"  # bias move
    assert compare_partitions([4, 4, 4], [4, 4, 4]) == "equal"


def test_compare_partitions_incomparable_pair():
    # The known undecided pair: properties alone do not order them, yet the
    # numeric energies differ.
    assert compare_partitions([9, 3], [4, 4, 4]) == "incomparable"
    assert island_energy([9, 3], 0.9) != island_energy([4, 4, 4], 0.9)


def test_compare_partitions_rejects_mismatched_totals():
    with pytest.raises(GraphError):
        compare_partitions([3, 3], [4, 4])


def test_compare_partitions_decides_total_30_and_stops_beyond():
    # (30,) reaches every partition of 30: the largest search the budget admits.
    assert compare_partitions([30], [3] * 10) == "less"
    with pytest.raises(BudgetError):
        compare_partitions([3] * 40, [120])


# ---------------------------------------------------------------------------
# K_n genus formulas and best/worst classes.
# ---------------------------------------------------------------------------


def test_kn_formulas():
    k7 = kn_best_worst(7)
    assert k7.nonorientable_min == 3  # the exceptional surface
    k4 = kn_best_worst(4)
    assert (k4.orientable_min, k4.orientable_max) == (0, 1)
    assert k4.nonorientable_max == k4.betti == 3
    assert kn_best_worst(5).orientable_min == 1
    assert kn_best_worst(8).orientable_min == math.ceil(5 * 4 / 12)
    assert kn_best_worst(3).orientable_max == 0


def test_kn_best_worst_classification():
    assert kn_best_worst(4).best == ("orientable",)
    assert kn_best_worst(4).worst == "non-orientable"
    assert kn_best_worst(7).best == ("orientable",)
    assert kn_best_worst(5).best == ("non-orientable",)
    assert kn_best_worst(5).worst == "orientable"
    assert kn_best_worst(6).best == ("non-orientable",)
    assert kn_best_worst(8).best == ("orientable", "non-orientable")
    assert kn_best_worst(8).worst == "non-orientable"
    assert kn_best_worst(4).formula_caveat
    assert not kn_best_worst(5).formula_caveat


def test_comfortability_rejects_scattering_of_another_coin_or_system():
    # Paired with the Hadamard S, coin 0.3 would read energy 1.130 on
    # projective K4 instead of 1.601.
    rs = projective_k4()
    fd = trace_faces(rs)
    coin = Coin.real_symmetric(0.3)
    inflow = unit_inflow(24, 0)
    expected = comfortability(fd, coin, inflow).energy
    assert abs(expected - 1.601) < 1e-3
    own = scattering_matrix(hedgehog(rs), coin)
    assert comfortability(fd, coin, inflow, scattering=own).energy == expected
    for other in (
        scattering_matrix(hedgehog(rs), Coin.hadamard_type()),
        scattering_matrix(hedgehog(planar_k4()), coin),
        # the same surface, its tails labelled by a vertex flip
        scattering_matrix(hedgehog(flip_vertex(rs, 1)), coin),
    ):
        with pytest.raises(AssumptionError, match="scattering="):
            comfortability(fd, coin, inflow, scattering=other)

import collections
import time

import numpy as np
import pytest

import enum_oracle
from conftest import decomposition_fields, random_rotation_system
from surfwalk.comfortability import average_comfortability, comfortability, limit_comfortability
from surfwalk.covering_blowup import hedgehog
from surfwalk.enumeration import (
    check_budget,
    default_budget,
    enumerate_embeddings,
    graph_automorphisms,
    min_max_genus,
    rank_by_comfortability,
)
from surfwalk.errors import AssumptionError, BudgetError, GraphError
from surfwalk.graph_core import SymmetricDigraph, complete_graph, cycle_graph
from surfwalk.rotation_system import RotationSystem, flip_vertex, mirror, trace_faces
from surfwalk.scattering import scattering_matrix
from surfwalk.walk_dynamics import Coin


def test_k4_census(k4_classes):
    assert len(k4_classes) == 11
    assert sum(c.orbit_size for c in k4_classes) == 1024
    named = {(c.orientable, c.genus, c.face_lengths) for c in k4_classes}
    for expected in [
        (True, 0, (3, 3, 3, 3)),
        (False, 1, (6, 3, 3)),
        (False, 3, (12,)),
        (True, 1, (8, 4)),
        (False, 2, (8, 4)),
        (True, 1, (9, 3)),
        (False, 2, (9, 3)),
    ]:
        assert expected in named


def test_c3_census():
    classes = enumerate_embeddings(cycle_graph(3))
    assert len(classes) == 2
    labels = {(c.orientable, c.genus, c.face_lengths) for c in classes}
    assert labels == {(True, 0, (3, 3)), (False, 1, (6,))}
    assert sum(c.orbit_size for c in classes) == 8


def test_k4_automorphism_count():
    assert len(graph_automorphisms(complete_graph(4))) == 24


def test_raw_count_and_budget(monkeypatch):
    assert check_budget(6, [3] * 4) == 1024
    with pytest.raises(BudgetError):
        enumerate_embeddings(complete_graph(6))
    monkeypatch.setenv("EW_BUDGET", "100")
    with pytest.raises(BudgetError):
        enumerate_embeddings(complete_graph(4))


def test_rejects_disconnected_and_degree_one_graphs():
    # Five disjoint triangles: within budget, but with 933,120 automorphisms
    # the search would run long before faces could be traced.
    triangles = SymmetricDigraph.from_edges(
        15, [(3 * k + i, 3 * k + (i + 1) % 3) for k in range(5) for i in range(3)]
    )
    with pytest.raises(GraphError, match="connected"):
        enumerate_embeddings(triangles)
    with pytest.raises(GraphError, match="degree 1"):
        enumerate_embeddings(SymmetricDigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))


def _face_data(fd):
    return sorted((len(face), sorted(hits.values())) for face, hits in zip(fd.faces, fd.self_intersections))


def test_equivalence_moves_preserve_invariants(rng):
    # Every CSV cell of a class is read from one member's faces, so each move
    # must keep the face data, and the limit and averages to the bit.
    coins = [Coin.real_symmetric(a) for a in (0.5, 0.98, 1 - 1e-6)]
    for _ in range(200):
        rs = random_rotation_system(rng)
        g = rs.graph
        fd = trace_faces(rs)
        autos = enum_oracle.brute_force_automorphisms(g)
        perm = autos[int(rng.integers(len(autos)))]
        for other in [
            flip_vertex(rs, int(rng.integers(g.vertex_count))),
            mirror(rs),
            RotationSystem(g, *enum_oracle.apply_automorphism(g, (rs.rot, rs.twist), perm)),
        ]:
            fd2 = trace_faces(other)
            assert fd.face_lengths == fd2.face_lengths
            assert (fd.orientable, fd.genus) == (fd2.orientable, fd2.genus)
            assert _face_data(fd) == _face_data(fd2)
            assert limit_comfortability(fd) == limit_comfortability(fd2)
            for coin in coins:
                assert average_comfortability(fd, coin) == average_comfortability(fd2, coin)


def test_single_inflow_energy_constant_on_orbit(k4_classes, rng):
    # Spot check: flipping a representative keeps the multiset of
    # single-tail energies.
    coin = Coin.hadamard_type()
    cls = k4_classes[3]
    rs = cls.representative
    fd1 = trace_faces(rs)
    s1 = scattering_matrix(hedgehog(fd1.rs), coin)
    energies1 = sorted(
        comfortability(fd1, coin, _unit(24, t), scattering=s1).energy for t in range(24)
    )
    flipped = flip_vertex(rs, 2)
    fd2 = trace_faces(flipped)
    s2 = scattering_matrix(hedgehog(fd2.rs), coin)
    energies2 = sorted(
        comfortability(fd2, coin, _unit(24, t), scattering=s2).energy for t in range(24)
    )
    assert np.allclose(energies1, energies2, atol=1e-9)


def _unit(n, tail):
    v = np.zeros(n, dtype=complex)
    v[tail] = 1.0
    return v


def test_rank_endpoints(k4_classes):
    ranked = rank_by_comfortability(k4_classes, 0.98)
    assert ranked[0].embedding.face_lengths == (3, 3, 3, 3)
    assert ranked[0].embedding.orientable
    assert ranked[-1].embedding.face_lengths == (12,)
    assert not ranked[-1].embedding.orientable
    assert ranked[-1].embedding.genus == 3
    # limit ordering: Klein bottle [8,4] above torus [8,4]
    by_label = {
        (r.embedding.orientable, r.embedding.face_lengths): r.limit for r in ranked
    }
    assert by_label[(False, (8, 4))] > by_label[(True, (8, 4))]
    assert abs(by_label[(True, (3, 3, 3, 3))] - 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("a", [0.0, 1.0, -0.5, 1.5])
def test_rank_rejects_coin_parameter_outside_unit_interval(k4_classes, a):
    # A coin assumption, like every other coin-parameter check.
    with pytest.raises(AssumptionError, match="0 < a < 1"):
        rank_by_comfortability(k4_classes, a)


def test_min_max_genus_against_formulas(k4_classes):
    from surfwalk.comfortability import kn_best_worst

    summary = min_max_genus(k4_classes)
    facts = kn_best_worst(4)
    assert summary.orientable_min == facts.orientable_min == 0
    assert summary.orientable_max == facts.orientable_max == 1
    assert summary.nonorientable_max == facts.nonorientable_max == 3
    # the non-orientable minimum formula is off at n = 4; enumeration wins
    assert summary.nonorientable_min == 1
    assert facts.nonorientable_min == 0
    assert facts.formula_caveat


K4_MINUS_EDGE = SymmetricDigraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
K23 = SymmetricDigraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
# Two six-vertex, seven-edge graphs: C6 with a long chord, and two triangles
# joined by an edge.
THETA6 = SymmetricDigraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
DUMBBELL = SymmetricDigraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
PETERSEN = SymmetricDigraph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(n) for n in (3, 4, 5, 6)] + [complete_graph(4), K4_MINUS_EDGE, K23, THETA6, DUMBBELL],
    ids=["C3", "C4", "C5", "C6", "K4", "K4-e", "K23", "theta6", "dumbbell"],
)
def test_census_matches_bfs_oracle(g):
    got = [
        (
            c.representative,
            c.orbit_size,
            c.orientable,
            c.genus,
            c.face_lengths,
            c.self_intersection_profile,
        )
        for c in enumerate_embeddings(g)
    ]
    assert got == enum_oracle.census(g)


def _assert_batch_is_per_system(classes):
    # The census traces a graph's classes in one batch and keeps no trace on
    # their systems; tracing each system alone must give the same fields.
    for c in classes:
        rs = c.representative
        assert "_cover" not in vars(rs) and "_walks" not in vars(rs)
        alone = trace_faces(RotationSystem(rs.graph, rs.rot, rs.twist))
        assert decomposition_fields(c.decomposition) == decomposition_fields(alone)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(n) for n in (3, 4, 5, 6)] + [complete_graph(4), K4_MINUS_EDGE, K23, THETA6, DUMBBELL],
    ids=["C3", "C4", "C5", "C6", "K4", "K4-e", "K23", "theta6", "dumbbell"],
)
def test_census_batch_trace_is_the_per_system_trace(g):
    _assert_batch_is_per_system(enumerate_embeddings(g))


def test_k5_census_batch_trace_is_the_per_system_trace(k5_classes):
    _assert_batch_is_per_system(k5_classes)


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), K23, THETA6, DUMBBELL] + [cycle_graph(n) for n in range(3, 8)],
)
def test_automorphisms_match_brute_force(g):
    assert graph_automorphisms(g) == enum_oracle.brute_force_automorphisms(g)


def test_automorphism_counts():
    for n in range(3, 13):
        assert len(graph_automorphisms(cycle_graph(n))) == 2 * n
    assert len(graph_automorphisms(PETERSEN)) == 120


def test_c12_census_is_fast():
    start = time.perf_counter()
    classes = enumerate_embeddings(cycle_graph(12))
    assert time.perf_counter() - start < 1.0
    assert len(classes) == 2
    assert sum(c.orbit_size for c in classes) == 4096


def test_one_rotation_system_per_class(monkeypatch):
    g = complete_graph(4)
    calls = []
    original = RotationSystem.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(RotationSystem, "__post_init__", counted)
    classes = enumerate_embeddings(g)
    assert len(classes) == 11
    assert len(calls) <= 11 + 2


def _orientable_genus_distribution(classes, vertex_count):
    """Orientable embeddings per genus: sum of orbit sizes over orientable
    classes, divided by the 2^(V-1) twist assignments that flips reach."""
    dist = collections.Counter()
    for c in classes:
        if c.orientable:
            dist[c.genus] += c.orbit_size
    scale = 2 ** (vertex_count - 1)
    assert all(v % scale == 0 for v in dist.values())
    return {genus: v // scale for genus, v in sorted(dist.items())}


def test_k4_genus_distribution(k4_classes):
    assert _orientable_genus_distribution(k4_classes, 4) == {0: 2, 1: 14}


def test_k5_genus_distribution(k5_classes, monkeypatch):
    # Gross-Furst: K5 has 462 / 4974 / 2340 orientable embeddings of genus 1 / 2 / 3.
    assert _orientable_genus_distribution(k5_classes, 5) == {1: 462, 2: 4974, 3: 2340}
    monkeypatch.setenv("EW_BUDGET", str(10**7))
    assert sum(c.orbit_size for c in k5_classes) == check_budget(10, [4] * 5) == 7_962_624


def test_equal_face_data_ties_exactly_and_keeps_enumeration_order():
    # Classes with the same face lengths and self-intersection distances
    # have mathematically equal averages; summing in a canonical order makes
    # them bit-equal, so the stable sort keeps them in enumeration order.
    # Summed in face order, one group of this census differs by rounding.
    g = SymmetricDigraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    classes = enumerate_embeddings(g)
    assert len(classes) == 60
    coin = Coin.real_symmetric(0.98)
    averages = collections.defaultdict(set)
    for c in classes:
        averages[repr(_face_data(c.decomposition))].add(average_comfortability(c.decomposition, coin))
    assert len(averages) == 32
    assert all(len(values) == 1 for values in averages.values())
    position = {id(c): i for i, c in enumerate(classes)}
    ranked = rank_by_comfortability(classes, 0.98)
    for first, second in zip(ranked, ranked[1:]):
        assert first.average >= second.average
        if first.average == second.average:
            assert position[id(first.embedding)] < position[id(second.embedding)]


@pytest.mark.parametrize("raw", ["1e6", "ten", "10.5"])
def test_non_integer_budget_raises_budget_error(raw, monkeypatch):
    monkeypatch.setenv("EW_BUDGET", raw)
    with pytest.raises(BudgetError) as err:
        default_budget()
    assert err.type is BudgetError
    assert str(err.value) == f"EW_BUDGET={raw!r} is not an integer"


@pytest.mark.parametrize(
    "raw, fault",
    [
        ("1_0", "is not an integer"),
        ("\u0663", "is not an integer"),
        (" 100 ", "is not an integer"),
        ("-1", "is below 1"),
        ("0", "is below 1"),
        ("9223372036854775808", "does not fit in 64 bits"),
        ("9" * 5000, "does not fit in 64 bits"),
    ],
    ids=["separator", "arabic-indic", "spaces", "negative", "zero", "past-int64", "5000-digits"],
)
def test_budget_is_read_as_the_file_format_reads_an_integer(raw, fault, monkeypatch):
    # int() also takes digit separators, other scripts' digits and
    # surrounding spaces; a budget is ASCII digits with an optional sign,
    # within int64, and at least 1.
    monkeypatch.setenv("EW_BUDGET", raw)
    with pytest.raises(BudgetError) as err:
        default_budget()
    assert str(err.value) == f"EW_BUDGET={raw!r} {fault}"
    for raw, budget in (("+5", 5), ("007", 7), ("9223372036854775807", 2**63 - 1)):
        monkeypatch.setenv("EW_BUDGET", raw)
        assert default_budget() == budget

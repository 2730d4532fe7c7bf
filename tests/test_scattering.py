import numpy as np
import pytest

from conftest import (
    projective_k4,
    planar_k4,
    random_d_real_coin,
    random_rotation_system,
)
from surfwalk.covering_blowup import base_face_map, blow_up, double_cover, hedgehog
from surfwalk.errors import AssumptionError
from surfwalk.rotation_system import detect_orientability, flip_vertex, trace_faces
from surfwalk.scattering import (
    face_permutation,
    orientability_from_scattering,
    scattering_matrix,
    stationary_closed_form,
)
from surfwalk.walk_dynamics import (
    Coin,
    flip_correspondence,
    outflow_map,
    run_to_stationary,
)


def test_unitarity_random_coins(rng):
    bg = hedgehog(projective_k4())
    for _ in range(10):
        s = scattering_matrix(bg, random_d_real_coin(rng, max_a=0.97))
        assert s.unitarity_defect() < 1e-10


def test_block_structure_covers_all_tails():
    bg = hedgehog(planar_k4())
    s = scattering_matrix(bg, Coin.hadamard_type())
    tails = [t for block_tails, _ in s.blocks for t in block_tails]
    assert sorted(tails) == list(range(24))
    labels = base_face_map(bg, trace_faces(planar_k4()))
    assert sorted({b for b, _ in labels}) == [0, 1, 2, 3]
    assert all(len(block_tails) == 3 for block_tails, _ in s.blocks)


def test_degenerate_coin_gives_reflection_only():
    bg = hedgehog(projective_k4())
    s = scattering_matrix(bg, Coin(1.0, 0.0, 0.0, -1.0))
    assert np.abs(s.matrix() + np.eye(bg.size)).max() < 1e-14


def test_rejects_non_real_d():
    bg = hedgehog(projective_k4())
    coin = Coin.from_params(0.5, 0.3, 0.7)
    # rotating the second row keeps the coin unitary but makes d complex
    skewed = Coin(coin.a, coin.b, coin.c * np.exp(0.4j), coin.d * np.exp(0.4j))
    with pytest.raises(AssumptionError):
        scattering_matrix(bg, skewed)


def test_matches_simulated_outflow_map(rng):
    for rs in (planar_k4(), projective_k4()):
        bg = hedgehog(rs)
        for coin in (Coin.hadamard_type(), random_d_real_coin(rng, max_a=0.7)):
            s = scattering_matrix(bg, coin).matrix()
            sim = outflow_map(bg, coin, tol=1e-12)
            assert np.abs(s - sim).max() < 1e-8


def test_geometric_series_identity(rng):
    bg = hedgehog(projective_k4())
    for _ in range(5):
        coin = random_d_real_coin(rng)
        a, b, c, d = coin.a, coin.b, coin.c, coin.d
        omega = coin.omega
        s = scattering_matrix(bg, coin)
        for tails, block in s.blocks:
            q = len(tails)
            p = block * 0.0
            # reconstruct P_f(omega) from the face and expand the resolvent
            face_index = next(
                i for i, f in enumerate(bg.faces) if set(f) == set(tails)
            )
            pf = face_permutation(bg, face_index, omega)
            length = len(bg.faces[face_index])
            accum = np.zeros_like(pf)
            power = np.eye(q, dtype=complex)
            for _k in range(q):
                accum += power
                power = power @ (a * pf)
            expanded = b * c / (1.0 - a**q * omega**length) * (accum @ pf) + d * np.eye(q)
            assert np.abs(expanded - block).max() < 1e-12


def test_entrywise_formula_hedgehog(rng):
    bg = hedgehog(projective_k4())
    coin = random_d_real_coin(rng)
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    omega = coin.omega
    s = scattering_matrix(bg, coin)
    for face_index, (tails, block) in enumerate(s.blocks):
        face = bg.faces[face_index]
        q = len(face)
        twist_prefix = np.cumsum([int(bg.bridge_twist[g]) for g in face])
        for j in range(q):
            for i in range(q):
                if i == j:
                    expect = b * c * a ** (q - 1) * omega**q / (1 - a**q * omega**q) + d
                else:
                    steps = (j - i) % q
                    bowtie = (twist_prefix[j] - twist_prefix[i]) % 2
                    expect = (
                        b
                        * c
                        * a ** (steps - 1)
                        * omega**steps
                        * (-1.0) ** bowtie
                        / (1 - a**q * omega**q)
                    )
                assert abs(block[j, i] - expect) < 1e-12


def test_face_permutation_closes_to_identity(rng):
    for _ in range(8):
        rs = random_rotation_system(rng)
        bg = hedgehog(rs)
        coin = random_d_real_coin(rng)
        for i, face in enumerate(bg.faces):
            p = face_permutation(bg, i, coin.omega)
            q = len(face)
            closed = np.linalg.matrix_power(p, q)
            assert np.abs(closed - coin.omega**q * np.eye(q)).max() < 1e-10


def test_hexagon_block_has_two_sign_flips():
    # The twisted edge crosses the hexagon face twice; with omega = 1 the
    # face shift matrix picks up exactly two -1 entries there and none on
    # the triangles.
    rs = projective_k4()
    fd = trace_faces(rs)
    bg = hedgehog(rs)
    labels = base_face_map(bg, fd)
    hexagons = [i for i, f in enumerate(bg.faces) if len(f) == 6]
    assert len(hexagons) == 2  # both chiral copies
    for i in hexagons:
        p = face_permutation(bg, i, 1.0)
        negative = np.isclose(p, -1.0).sum()
        assert negative == 2
        assert len(fd.faces[labels[i][0]]) == 6
    for i in (set(range(len(bg.faces))) - set(hexagons)):
        p = face_permutation(bg, i, 1.0)
        assert np.isclose(p, -1.0).sum() == 0


def test_stationary_closed_form_matches_simulator(rng):
    for rs in (planar_k4(), projective_k4()):
        bg = hedgehog(rs)
        coin = Coin.hadamard_type()
        s = scattering_matrix(bg, coin)
        for tail in rng.choice(bg.size, size=4, replace=False):
            inflow = np.zeros(bg.size, dtype=complex)
            inflow[tail] = 1.0
            sim = run_to_stationary(bg, coin, inflow, tol=1e-12)
            closed = stationary_closed_form(bg, coin, inflow, scattering=s)
            assert np.abs(sim.island_in - closed.island_in).max() < 1e-8
            assert np.abs(sim.island_plus - closed.island_plus).max() < 1e-8
            assert np.abs(sim.bridge - closed.bridge).max() < 1e-8
            assert np.abs(sim.outflow - closed.outflow).max() < 1e-8


def test_closed_form_refuses_degenerate_coin():
    bg = hedgehog(projective_k4())
    inflow = np.zeros(bg.size, dtype=complex)
    with pytest.raises(AssumptionError):
        stationary_closed_form(bg, Coin(1.0, 0.0, 0.0, 1.0), inflow)


def test_zero_inflow_zero_state():
    bg = hedgehog(projective_k4())
    closed = stationary_closed_form(bg, Coin.hadamard_type(), np.zeros(bg.size, dtype=complex))
    assert np.abs(closed.island_in).max() == 0.0
    assert np.abs(closed.bridge).max() == 0.0


def test_transfer_relation_exact_on_closed_form():
    rs = projective_k4()
    bg = hedgehog(rs)
    coin = Coin.hadamard_type()
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[11] = 1.0
    state = stationary_closed_form(bg, coin, inflow)
    for face in bg.faces:
        for j, g in enumerate(face):
            nxt = face[(j + 1) % len(face)]
            lhs = state.island_in[nxt]
            rhs = bg.bridge_sign[nxt] * coin.omega * state.island_plus[g]
            assert abs(lhs - rhs) < 1e-12


def test_orientability_detection_sphere_and_projective():
    coin = Coin.hadamard_type()
    bg0 = hedgehog(planar_k4())
    assert orientability_from_scattering(scattering_matrix(bg0, coin), bg0)
    bg1 = hedgehog(projective_k4())
    assert not orientability_from_scattering(scattering_matrix(bg1, coin), bg1)


def test_orientability_three_way_agreement(rng):
    coin = Coin.hadamard_type()
    for _ in range(30):
        rs = random_rotation_system(rng)
        bg = hedgehog(rs)
        by_tree, _ = detect_orientability(rs)
        by_cover = double_cover(rs).components == 2
        by_signs = orientability_from_scattering(scattering_matrix(bg, coin), bg)
        assert by_tree == by_cover == by_signs


def test_detection_requires_positive_a():
    bg = hedgehog(projective_k4())
    coin = Coin.real_symmetric(-0.5)
    s = scattering_matrix(bg, coin)
    with pytest.raises(AssumptionError):
        orientability_from_scattering(s, bg)


def test_general_boundary_matches_simulator():
    # general boundary: tails on a strict subset of the islands
    rs = projective_k4()
    dc = double_cover(rs)
    coin = Coin.hadamard_type()
    for boundary in (
        [g for g in range(dc.arc_count) if g % 2 == 0],
        None,  # filled below: one tail per face
    ):
        bg = blow_up(dc, boundary=boundary or [])
        if boundary is None:
            bg = blow_up(dc, boundary=[f[0] for f in bg.faces])
        s = scattering_matrix(bg, coin)
        assert s.unitarity_defect() < 1e-10
        sim = outflow_map(bg, coin, tol=1e-12)
        assert np.abs(s.matrix() - sim).max() < 1e-8


def test_empty_face_block_without_tails():
    rs = projective_k4()
    dc = double_cover(rs)
    bg = blow_up(dc)
    # tails only on one face: the other faces contribute empty blocks
    bg = blow_up(dc, boundary=list(bg.faces[0]))
    s = scattering_matrix(bg, Coin.hadamard_type())
    sizes = sorted(len(t) for t, _ in s.blocks)
    assert sizes == [0, 0, 0, 0, 0, 6]
    assert s.unitarity_defect() < 1e-12


def test_outflow_map_three_random_coins(k4_classes, rng):
    coins = [random_d_real_coin(rng, max_a=0.7) for _ in range(3)]
    for cls in (k4_classes[0], k4_classes[5], k4_classes[10]):
        bg = hedgehog(cls.representative)
        for coin in coins:
            s = scattering_matrix(bg, coin).matrix()
            sim = outflow_map(bg, coin, tol=1e-11)
            assert np.abs(s - sim).max() < 1e-8


def test_three_way_agreement_on_k5(rng):
    from surfwalk.graph_core import complete_graph

    coin = Coin.hadamard_type()
    for _ in range(5):
        rs = random_rotation_system(rng, graph=complete_graph(5))
        bg = hedgehog(rs)
        by_tree, _ = detect_orientability(rs)
        by_cover = double_cover(rs).components == 2
        by_signs = orientability_from_scattering(scattering_matrix(bg, coin), bg)
        assert by_tree == by_cover == by_signs


def test_flip_conjugation_preserves_moduli_and_spectra(rng):
    rs = projective_k4()
    coin = Coin.hadamard_type()
    for x in range(4):
        flipped, phi = flip_correspondence(rs, x)
        s1 = scattering_matrix(hedgehog(rs), coin)
        bg2 = hedgehog(flipped)
        s2 = scattering_matrix(bg2, coin).matrix()
        m1 = s1.matrix()
        assert np.abs(np.abs(s2[np.ix_(phi, phi)]) - np.abs(m1)).max() < 1e-12
        # block spectra agree (diagonal conjugation is a unitary similarity)
        for tails, block in s1.blocks:
            idx = phi[np.array(tails)]
            other = s2[np.ix_(idx, idx)]
            ev1 = list(np.linalg.eigvals(block))
            ev2 = list(np.linalg.eigvals(other))
            for v in ev1:
                j = int(np.argmin([abs(v - w) for w in ev2]))
                assert abs(v - ev2[j]) < 1e-9
                ev2.pop(j)

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle
import exact_oracle
from conftest import (
    projective_k4,
    planar_k4,
    random_d_real_coin,
    random_rotation_system,
)
from surfwalk.covering_blowup import double_cover, hedgehog
from surfwalk.errors import AssumptionError
from surfwalk.rotation_system import detect_orientability, flip_vertex, trace_faces
from surfwalk.comfortability import average_by_enumeration, comfortability
from surfwalk.graph_core import complete_graph, cycle_graph
from surfwalk.rotation_system import RotationSystem
from surfwalk.scattering import (
    ScatteringMatrix,
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
    labels = trace_faces(planar_k4()).cover_base
    assert sorted({b for b, _ in labels}) == [0, 1, 2, 3]
    assert all(len(block_tails) == 3 for block_tails, _ in s.blocks)


def test_scattering_compares_and_hashes_by_blow_up_and_coin():
    coin = Coin.hadamard_type()
    s = scattering_matrix(hedgehog(projective_k4()), coin)
    same = scattering_matrix(hedgehog(projective_k4()), coin)
    assert s == s == same and hash(s) == hash(same)
    assert s != scattering_matrix(hedgehog(planar_k4()), coin)
    assert s != scattering_matrix(hedgehog(projective_k4()), Coin.real_symmetric(0.3))


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
            pf = dense_oracle.face_shift(bg, bg.faces[face_index])[1](omega)
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
            p = dense_oracle.face_shift(bg, bg.faces[i])[1](coin.omega)
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
    labels = fd.cover_base
    hexagons = [i for i, f in enumerate(bg.faces) if len(f) == 6]
    assert len(hexagons) == 2  # both chiral copies
    for i in hexagons:
        p = dense_oracle.face_shift(bg, bg.faces[i])[1](1.0)
        negative = np.isclose(p, -1.0).sum()
        assert negative == 2
        assert len(fd.faces[labels[i][0]]) == 6
    for i in (set(range(len(bg.faces))) - set(hexagons)):
        p = dense_oracle.face_shift(bg, bg.faces[i])[1](1.0)
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


def test_apply_q_rejects_wrong_length_inflow():
    bg = hedgehog(projective_k4())
    s = scattering_matrix(bg, Coin.hadamard_type())
    for n in (bg.size - 1, bg.size + 1):
        with pytest.raises(AssumptionError):
            s.apply_q(np.ones(n, dtype=complex))


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
    assert orientability_from_scattering(scattering_matrix(bg0, coin))
    bg1 = hedgehog(projective_k4())
    assert not orientability_from_scattering(scattering_matrix(bg1, coin))


def test_orientability_three_way_agreement(rng):
    coin = Coin.hadamard_type()
    for _ in range(30):
        rs = random_rotation_system(rng)
        bg = hedgehog(rs)
        by_tree, _ = detect_orientability(rs)
        by_cover = double_cover(rs).components == 2
        s = scattering_matrix(bg, coin)
        by_signs = orientability_from_scattering(s)
        assert by_tree == by_cover == by_signs
        # The sign test gathers one face at a time; no dense export is kept.
        assert "blocks" not in vars(s)


def test_detection_requires_positive_a():
    bg = hedgehog(projective_k4())
    coin = Coin.real_symmetric(-0.5)
    s = scattering_matrix(bg, coin)
    with pytest.raises(AssumptionError):
        orientability_from_scattering(s)


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
        by_signs = orientability_from_scattering(scattering_matrix(bg, coin))
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


def _closing_turn(bg, face, coin):
    """a^q Pi_f from the oracle's shift: P_f^q = Pi_f I."""
    tails, shift = dense_oracle.face_shift(bg, face)
    p = shift(coin.omega)
    return coin.a ** len(tails) * np.linalg.matrix_power(p, len(tails))[0, 0]


def test_conditioning_gaps(rng):
    bg = hedgehog(projective_k4())
    coin = random_d_real_coin(rng)
    s = scattering_matrix(bg, coin)
    expect = [abs(1 - _closing_turn(bg, face, coin)) for face in bg.faces]
    assert np.allclose(s.gaps, expect, atol=1e-12)
    assert s.min_gap == min(s.gaps)


def test_near_unit_a_error_names_smallest_gap():
    bg = hedgehog(projective_k4())
    coin = Coin.real_symmetric(1.0 - 5e-15)
    assert abs(coin.b) > 1e-12  # not the degenerate coin
    gaps = [abs(1 - _closing_turn(bg, face, coin)) for face in bg.faces]
    with pytest.raises(AssumptionError, match=f"gap .* is {min(gaps):.3e}"):
        scattering_matrix(bg, coin)


def _twisted_cycle(n):
    """C_n with one twisted edge: two chiral faces of 2n tails each."""
    g = cycle_graph(n)
    rot = [0] * g.arc_count
    for x in range(n):
        e0, e1 = g.incoming_arcs(x)
        rot[e0], rot[e1] = e1, e0
    return RotationSystem(g, tuple(rot), (1,) + (0,) * (n - 1))


def _assert_matches_oracle(bg, coin, rng, tol=1e-10):
    s = scattering_matrix(bg, coin)
    oracle = dense_oracle.blocks(bg, coin)
    for (tails, block), (o_tails, o_block) in zip(s.blocks, oracle):
        assert list(tails) == list(o_tails)
        assert np.abs(block - o_block).max() < tol
    tails = np.arange(bg.size)
    single = np.zeros(bg.size, dtype=complex)
    single[rng.choice(tails)] = 0.3 - 0.8j
    spread = np.zeros(bg.size, dtype=complex)
    spread[tails] = rng.normal(size=len(tails)) + 1j * rng.normal(size=len(tails))
    spread[rng.choice(tails, size=len(tails) // 3, replace=False)] = 0.0
    for v in (single, spread):
        assert np.abs(s.apply_q(v) - dense_oracle.apply_q(bg, coin, v)).max() < tol
    return s


def _coin_of_kind(kind, rng):
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if kind == "degenerate":
        return Coin(phase, 0.0, 0.0, float(rng.choice([-1.0, 1.0])))
    if kind == "zero_a":
        return Coin(0.0, 1.0, 1.0, 0.0)
    if kind == "near_one":
        s = 0.999 * rng.choice([-1.0, 1.0])
        return Coin.from_params(s, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
    return random_d_real_coin(rng, max_a=0.95)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=4, max_value=8),
    kind=st.sampled_from(["random", "degenerate", "zero_a", "near_one"]),
)
# |a| = 0.999 cases with energies of 1e4 to 2e5, where the bridge energy
# magnifies the error in Q v by 1 / |bc|^2 ~ 2.5e5: each one broke the
# 1e-10 bounds through one rounding path, in the library or in the oracle.
@example(seed=284, n=4, kind="near_one")
@example(seed=1429, n=5, kind="near_one")
@example(seed=38, n=8, kind="near_one")
@example(seed=164, n=6, kind="near_one")
@example(seed=789, n=6, kind="near_one")
@example(seed=3572, n=4, kind="near_one")
def test_explicit_scattering_matches_dense_oracle(seed, n, kind):
    rng = np.random.default_rng(seed)
    rs = random_rotation_system(rng, graph=complete_graph(n))
    coin = _coin_of_kind(kind, rng)
    bg = hedgehog(rs)
    s = _assert_matches_oracle(bg, coin, rng)
    if kind == "degenerate":
        return
    fd = trace_faces(rs)
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[rng.choice(bg.size, size=3, replace=False)] = [1.0, -0.5j, 0.25]
    report = comfortability(fd, coin, inflow, scattering=s)
    island, bridge = dense_oracle.energies(bg, coin, inflow)
    assert abs(report.island - island) < 1e-10
    assert abs(report.bridge - bridge) < 1e-10
    island, bridge = dense_oracle.energies(bg, coin, np.eye(bg.size))
    total = (island + bridge) / rs.graph.arc_count
    assert abs(average_by_enumeration(fd, coin) - total) < 1e-10 * max(1.0, total)


@pytest.mark.parametrize("magnitude", [0.05, 0.999])
def test_long_face_matches_dense_oracle(magnitude, rng):
    # 520 tails per face: 0.05^520 underflows to zero, 0.999^520 does not.
    bg = hedgehog(_twisted_cycle(260))
    assert [len(f) for f in bg.faces] == [520, 520]
    coin = Coin.from_params(magnitude, 0.4, 1.3)
    s = _assert_matches_oracle(bg, coin, rng)
    if magnitude < 0.5:
        assert s.min_gap == 1.0


def test_closed_form_pipeline_never_goes_dense(monkeypatch, rng):
    rs = random_rotation_system(rng, graph=complete_graph(16))
    fd = trace_faces(rs)
    bg = hedgehog(rs)
    coin = random_d_real_coin(rng, max_a=0.8)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense or inverse path ran")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(ScatteringMatrix, "matrix", refuse)
    monkeypatch.setattr(ScatteringMatrix, "q_matrix", refuse)
    s = scattering_matrix(bg, coin)
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[int(rng.integers(bg.size))] = 1.0
    state = stationary_closed_form(bg, coin, inflow, scattering=s)
    report = comfortability(fd, coin, inflow, scattering=s)
    average = average_by_enumeration(fd, coin)
    assert np.isfinite([report.energy, average]).all()
    assert np.abs(state.outflow).max() > 0
    # Nothing on the path needed the dense per-face export either.
    assert "blocks" not in vars(s)


def test_stationary_closed_form_rejects_scattering_of_another_coin_or_system():
    bg = hedgehog(projective_k4())
    coin = Coin.real_symmetric(0.3)
    inflow = np.zeros(bg.size, dtype=complex)
    inflow[0] = 1.0
    expected = stationary_closed_form(bg, coin, inflow)
    same = stationary_closed_form(bg, coin, inflow, scattering=scattering_matrix(hedgehog(projective_k4()), coin))
    assert np.array_equal(same.outflow, expected.outflow)
    for other in (
        scattering_matrix(bg, Coin.hadamard_type()),
        scattering_matrix(hedgehog(planar_k4()), coin),
        # the same surface, its tails labelled by a vertex flip
        scattering_matrix(hedgehog(flip_vertex(projective_k4(), 1)), coin),
    ):
        with pytest.raises(AssumptionError, match="scattering="):
            stationary_closed_form(bg, coin, inflow, scattering=other)


def _odd_parity(bg):
    """``bg`` with the bridge into its first face's first tail untwisted or
    twisted, so that face has odd twist parity, Pi_f = -omega^q.  No
    rotation system gives such a face (a face of the double cover closes on
    its sheet), but the block formula holds for any weights, and only there
    does its wrap-around sign act."""
    twist = bg.bridge_twist.copy()
    twist[bg.faces[0][0]] ^= 1
    return dataclasses.replace(bg, bridge_twist=twist, bridge_sign=1.0 - 2.0 * twist)


def _parity_flipped(s, faces):
    """``s`` with the twist parity of the last tail of each face in
    ``faces`` flipped, so those faces read as odd-P (negacyclic) blocks of
    the same table: hedgehog faces always have even P, and with the table
    left as it is the blocks are far from unitary."""
    parity = s.parity.copy()
    parity[s.offsets[1:][faces] - 1] ^= 1
    return dataclasses.replace(s, parity=parity)


def test_unitarity_defect_matches_the_dense_gram(k4_classes, rng):
    # The defect is read off each block's circulant spectrum; the dense Gram
    # of the blocks is the oracle.  The two sum in different orders, so they
    # agree to rounding, not bit for bit.
    systems = [cls.representative for cls in k4_classes]
    systems += [random_rotation_system(rng, complete_graph(n)) for n in (8, 12, 16)]
    coins = [Coin.hadamard_type(), random_d_real_coin(rng), random_d_real_coin(rng, max_a=0.99)]
    shared, worst = 0, 0.0
    for rs in systems:
        for bg in (hedgehog(rs), _odd_parity(hedgehog(rs))):
            lengths = [len(face) for face in bg.faces]
            shared += len(lengths) > len(set(lengths))
            for coin in coins:
                s = scattering_matrix(bg, coin)
                faces = np.arange(len(lengths))
                for variant in (s, _parity_flipped(s, faces[::2]), _parity_flipped(s, faces)):
                    defect = variant.unitarity_defect()
                    assert "blocks" not in vars(variant)
                    assert abs(defect - dense_oracle.unitarity_defect(variant.blocks)) <= 1e-12
                    assert variant is not s or defect < 1e-10
                    worst = max(worst, defect)
    # The flipped blocks are far from unitary, and faces of one length and
    # parity, which share one FFT, occur in most systems.
    assert worst > 0.1
    assert shared > len(systems)


def test_unitarity_defect_sees_a_scaled_table(k4_classes, rng):
    systems = [k4_classes[0].representative, random_rotation_system(rng, complete_graph(12))]
    for rs in systems:
        bg = hedgehog(rs)
        for coin in (Coin.hadamard_type(), Coin.from_params(0.7, 0.4, 1.3), Coin.real_symmetric(0.6)):
            s = scattering_matrix(bg, coin)
            scaled = dataclasses.replace(s, table=s.table * (1 + 1e-6))
            defect = scaled.unitarity_defect()
            dense = dense_oracle.unitarity_defect(scaled.blocks)
            assert abs(defect - dense) <= 1e-9 * dense
            assert defect > 1e-10


_EXACT_COINS = {f"real_symmetric(1-1e-{k})": Coin.real_symmetric(1.0 - 10.0**-k) for k in range(2, 9)}
_EXACT_COINS["from_params(0.7,0.4,1.3)"] = Coin.from_params(0.7, 0.4, 1.3)


@pytest.mark.parametrize("coin", list(_EXACT_COINS.values()), ids=list(_EXACT_COINS))
def test_blocks_match_exact_reference(coin, k4_classes):
    # Each entry is within 4e-16 of its block's largest entry, plus the
    # conditioning of the long-double gap 1 - a^q Pi_f: q roundings of a^q
    # Pi_f, divided by the gap, which near |a| = 1 shrinks to q(1 - |a|).
    eps = np.finfo(np.longdouble).eps
    for rs in [projective_k4()] + [cls.representative for cls in k4_classes]:
        for bg in (hedgehog(rs), _odd_parity(hedgehog(rs))):
            s = scattering_matrix(bg, coin)
            exact = exact_oracle.face_blocks(bg, coin)
            for i, ((tails, block), (exact_tails, exact_block)) in enumerate(zip(s.blocks, exact)):
                assert list(tails) == exact_tails
                bound = 4e-16 + len(tails) * eps / s.gaps[i]
                assert exact_oracle.relative_error(block, exact_block) <= bound


def _bits(z):
    return np.ascontiguousarray(z).view(np.int64)


def test_columns_face_blocks_and_blocks_share_one_table(k4_classes, rng):
    systems = [cls.representative for cls in k4_classes]
    systems += [random_rotation_system(rng, complete_graph(n)) for n in (7, 10)]
    for rs in systems:
        for bg in (hedgehog(rs), _odd_parity(hedgehog(rs))):
            for coin in (Coin.hadamard_type(), random_d_real_coin(rng)):
                s = scattering_matrix(bg, coin)
                for i, (tails, block) in enumerate(s.blocks):
                    q = len(tails)
                    full = s.face_q_block(i)
                    cols = rng.choice(q, size=int(rng.integers(1, q + 1)))
                    assert np.array_equal(_bits(s._columns(i, cols)), _bits(full[:, cols]))
                    assert np.array_equal(_bits(block), _bits(full + coin.d * np.eye(q)))
                    # At most 2q + 1 distinct entries: +-c_f[k] and the diagonal.
                    assert len(np.unique(_bits(block).reshape(-1, 2), axis=0)) <= 2 * q + 1
                    assert np.all(np.diag(block) == block[0, 0])

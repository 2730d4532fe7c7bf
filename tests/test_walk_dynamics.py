import numpy as np
import pytest

from conftest import (
    projective_k4,
    planar_k4,
    random_d_real_coin,
    random_rotation_system,
)
from surfwalk.covering_blowup import hedgehog
from surfwalk.errors import AssumptionError, ConvergenceError
from surfwalk.walk_dynamics import (
    Coin,
    WaveState,
    check_unitary_equivalence,
    internal_energy,
    outflow_map,
    run_to_stationary,
    step,
    step_matrix,
)


def unit_inflow(bg, tail):
    v = np.zeros(bg.size, dtype=complex)
    v[tail] = 1.0
    return v


def partial_blow_up(rs, rng):
    from surfwalk.covering_blowup import blow_up, double_cover

    dc = double_cover(rs)
    keep = rng.choice(dc.arc_count, size=dc.arc_count // 3, replace=False)
    return blow_up(dc, boundary=sorted(int(g) for g in keep))


def random_inflows(bg, k, rng):
    v = rng.normal(size=(bg.size, k)) + 1j * rng.normal(size=(bg.size, k))
    v[~bg.boundary] = 0.0
    return v


def test_coin_validates_unitarity():
    with pytest.raises(AssumptionError):
        Coin(1.0, 1.0, 0.0, 1.0)
    c = Coin.hadamard_type()
    assert abs(c.omega - 1.0) < 1e-14
    assert c.d_is_real


def test_coin_parametrization(rng):
    for _ in range(20):
        coin = random_d_real_coin(rng)
        m = coin.matrix()
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
        assert abs(complex(coin.d).imag) < 1e-14


def test_one_step_norm_balance(rng):
    bg = hedgehog(projective_k4())
    for _ in range(5):
        coin = random_d_real_coin(rng)
        inflow = rng.normal(size=bg.size) + 1j * rng.normal(size=bg.size)
        state = WaveState.zero(bg, inflow)
        for _ in range(12):
            new = step(state, bg, coin)
            before = 2 * internal_energy(state) + np.vdot(inflow, inflow).real
            after = 2 * internal_energy(new) + np.vdot(new.outflow, new.outflow).real
            assert abs(before - after) < 1e-12 * max(1.0, before)
            state = new


def test_zero_inflow_stays_zero():
    bg = hedgehog(planar_k4())
    state = WaveState.zero(bg, np.zeros(bg.size, dtype=complex))
    for _ in range(5):
        state = step(state, bg, Coin.hadamard_type())
    assert internal_energy(state) == 0.0


def test_degenerate_coin_transmits_only():
    # b = c = 0 decouples islands from bridges; with zero initial state the
    # interior stays dark and the outflow is d * inflow immediately.
    bg = hedgehog(projective_k4())
    coin = Coin(1.0, 0.0, 0.0, -1.0)
    inflow = unit_inflow(bg, 3)
    state = run_to_stationary(bg, coin, inflow, tol=1e-12, max_steps=bg.size)
    assert internal_energy(state) == 0.0
    assert np.abs(state.outflow - coin.d * inflow).max() < 1e-12


def test_degenerate_coin_one_step_law(rng):
    # With b = c = 0 and no twists, one step swaps bridge amplitudes with
    # weight d and rotates island amplitude forward with weight a.
    bg = hedgehog(planar_k4())
    coin = Coin(1j, 0.0, 0.0, 1.0)
    state = WaveState.zero(bg, np.zeros(bg.size, dtype=complex))
    bridge = rng.normal(size=bg.size) + 1j * rng.normal(size=bg.size)
    state = WaveState(
        island_in=state.island_in,
        island_plus=state.island_plus,
        bridge=bridge.astype(complex),
        inflow=state.inflow,
        outflow=state.outflow,
    )
    new = step(state, bg, coin)
    assert np.abs(new.bridge - coin.d * bridge[bg.bar]).max() < 1e-14
    assert np.abs(new.island_in).max() == 0.0  # islands see only other islands


def test_stationarity_is_a_fixed_point():
    bg = hedgehog(projective_k4())
    coin = Coin.hadamard_type()
    state = run_to_stationary(bg, coin, unit_inflow(bg, 0), tol=1e-12)
    again = step(state, bg, coin)
    assert np.abs(again.island_in - state.island_in).max() < 1e-11
    assert np.abs(again.bridge - state.bridge).max() < 1e-11


def test_nonconvergence_raises_with_residual():
    bg = hedgehog(projective_k4())
    with pytest.raises(ConvergenceError) as err:
        run_to_stationary(bg, Coin.hadamard_type(), unit_inflow(bg, 0), tol=1e-12, max_steps=1)
    assert err.value.residual > 0
    assert err.value.steps == 1


def test_face_transfer_relation_on_oracle():
    # Along every face, quay values obey value(next minus-quay) =
    # sign * omega * value(plus-quay); checked on the simulated state.
    rs = projective_k4()
    bg = hedgehog(rs)
    coin = Coin.hadamard_type()
    state = run_to_stationary(bg, coin, unit_inflow(bg, 7), tol=1e-12)
    omega = coin.omega
    for face in bg.faces:
        for j, g in enumerate(face):
            nxt = face[(j + 1) % len(face)]
            lhs = state.island_in[nxt]
            rhs = bg.bridge_sign[nxt] * omega * state.island_plus[g]
            assert abs(lhs - rhs) < 1e-8


def test_flip_vertex_preserves_single_inflow_energy(rng):
    rs = projective_k4()
    bg = hedgehog(rs)
    for x in range(4):
        inflow = unit_inflow(bg, int(rng.integers(bg.size)))
        report = check_unitary_equivalence(rs, x, Coin.hadamard_type(), inflow, tol=1e-12)
        assert report.energy_deviation < 1e-8
        assert report.max_outflow_modulus_deviation < 1e-8


def test_double_flip_roundtrip(rng):
    from surfwalk.rotation_system import flip_vertex

    rs = random_rotation_system(rng)
    assert flip_vertex(flip_vertex(rs, 1), 1) == rs


def test_inflow_must_sit_on_boundary():
    from surfwalk.covering_blowup import blow_up, double_cover

    bg = blow_up(double_cover(planar_k4()))  # no tails at all
    with pytest.raises(AssumptionError):
        WaveState.zero(bg, unit_inflow(bg, 0))


@pytest.mark.parametrize("boundary", ["hedgehog", "partial"])
def test_batched_inflow_matches_single_runs(boundary, rng):
    rs = projective_k4()
    bg = hedgehog(rs) if boundary == "hedgehog" else partial_blow_up(rs, rng)
    coin = random_d_real_coin(rng, max_a=0.7)
    inflow = random_inflows(bg, 5, rng)
    batch = run_to_stationary(bg, coin, inflow, tol=1e-12)
    assert batch.island_in.shape == batch.outflow.shape == (bg.size, 5)
    for j in range(5):
        single = run_to_stationary(bg, coin, inflow[:, j], tol=1e-12)
        for name in ("island_in", "island_plus", "bridge", "outflow"):
            diff = getattr(batch, name)[:, j] - getattr(single, name)
            assert np.abs(diff).max() < 1e-9, name
    # a one-column batch is the single run, bit for bit and step for step
    one = run_to_stationary(bg, coin, inflow[:, :1], tol=1e-12)
    single = run_to_stationary(bg, coin, inflow[:, 0], tol=1e-12)
    assert one.steps == single.steps and one.residual == single.residual
    for name in ("island_in", "island_plus", "bridge", "outflow"):
        assert np.array_equal(getattr(one, name)[:, 0], getattr(single, name))


def test_outflow_map_matches_per_tail_runs(rng):
    bg = partial_blow_up(projective_k4(), rng)
    coin = random_d_real_coin(rng, max_a=0.5)
    s = outflow_map(bg, coin, tol=1e-12)
    tails = bg.boundary_islands()
    for j in range(bg.size):
        if j in tails:
            expected = run_to_stationary(bg, coin, unit_inflow(bg, j), tol=1e-12).outflow
        else:
            expected = np.zeros(bg.size)
        assert np.abs(s[:, j] - expected).max() < 1e-9


def test_internal_energy_per_column(rng):
    bg = hedgehog(projective_k4())
    coin = Coin.hadamard_type()
    state = WaveState.zero(bg, random_inflows(bg, 4, rng))
    for _ in range(7):
        state = step(state, bg, coin)
    energies = internal_energy(state)
    assert energies.shape == (4,)
    for j in range(4):
        column = WaveState(
            island_in=state.island_in[:, j],
            island_plus=state.island_plus[:, j],
            bridge=state.bridge[:, j],
            inflow=state.inflow[:, j],
            outflow=state.outflow[:, j],
        )
        assert abs(energies[j] - internal_energy(column)) <= 1e-14 * energies[j]


def test_batched_inflow_shape_and_support_checked(rng):
    from surfwalk.covering_blowup import blow_up, double_cover

    bg = hedgehog(projective_k4())
    for shape in ((bg.size + 1, 3), (bg.size - 1, 3), (bg.size, 3, 2), ()):
        with pytest.raises(AssumptionError):
            WaveState.zero(bg, np.zeros(shape, dtype=complex))
    bare = blow_up(double_cover(projective_k4()))  # no tails at all
    inflow = np.zeros((bare.size, 2), dtype=complex)
    inflow[5, 1] = 1.0
    with pytest.raises(AssumptionError):
        WaveState.zero(bare, inflow)


def test_step_matrix_is_one_step_without_inflow(rng):
    for bg in (hedgehog(projective_k4()), partial_blow_up(projective_k4(), rng)):
        coin = random_d_real_coin(rng)
        n = bg.size
        x = rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n)
        zero = np.zeros(n, dtype=complex)
        state = WaveState(x[:n], x[n : 2 * n], x[2 * n :], inflow=zero, outflow=zero)
        new = step(state, bg, coin)
        expected = np.concatenate([new.island_in, new.island_plus, new.bridge])
        assert np.abs(step_matrix(bg, coin) @ x - expected).max() < 1e-14


def test_step_matrix_spectral_radius_sets_the_rate():
    # The simulator converges geometrically at the spectral radius of the
    # step map, which lies strictly between the island amplitude and 1.
    coin = Coin.hadamard_type()
    radius = np.abs(np.linalg.eigvals(step_matrix(hedgehog(planar_k4()), coin))).max()
    assert abs(coin.a) < radius < 1.0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    bg = hedgehog(projective_k4())
    with pytest.raises(AssumptionError, match="tolerance"):
        run_to_stationary(bg, Coin.hadamard_type(), unit_inflow(bg, 0), tol=tol)


def test_negative_max_steps_rejected():
    bg = hedgehog(projective_k4())
    with pytest.raises(AssumptionError, match="max_steps"):
        run_to_stationary(bg, Coin.hadamard_type(), unit_inflow(bg, 0), max_steps=-1)

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
    run_to_stationary,
    step,
)


def unit_inflow(bg, tail):
    v = np.zeros(bg.size, dtype=complex)
    v[tail] = 1.0
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

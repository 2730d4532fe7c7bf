import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import (
    projective_k4,
    planar_k4,
    random_d_real_coin,
    random_rotation_system,
)
from surfwalk.covering_blowup import hedgehog
from surfwalk.enumeration import enumerate_embeddings
from surfwalk.errors import AssumptionError, ConvergenceError
from surfwalk.graph_core import complete_graph
from surfwalk.scattering import stationary_closed_form
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


def random_inflows(bg, k, rng):
    return rng.normal(size=(bg.size, k)) + 1j * rng.normal(size=(bg.size, k))


def test_coin_validates_unitarity():
    with pytest.raises(AssumptionError):
        Coin(1.0, 1.0, 0.0, 1.0)
    c = Coin.hadamard_type()
    assert abs(c.omega - 1.0) < 1e-14
    assert c.d_is_real


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_coin_rejects_non_finite_entries(bad):
    with pytest.raises(AssumptionError, match="not unitary"):
        Coin(bad, 0.0, 0.0, 1.0)
    with pytest.raises(AssumptionError, match="not unitary"):
        Coin(1.0, 0.0, 0.0, bad)


def test_coin_parametrization(rng):
    for _ in range(20):
        coin = random_d_real_coin(rng)
        m = coin.matrix()
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
        assert abs(complex(coin.d).imag) < 1e-14


def _off_diagonal_reference(a: float) -> Decimal:
    """sqrt(1 - a^2) to 50 digits, with the double ``a`` taken as exact."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (1 - Decimal(a) ** 2).sqrt()


@pytest.mark.parametrize("k", range(2, 14))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_coin_off_diagonal_is_accurate_near_unit_a(k, sign):
    a = sign * (1.0 - 10.0**-k)
    ref = _off_diagonal_reference(a)
    # Both constructors hold sqrt(1 - a^2) to within two ulps; 1 - a*a
    # would lose about 3e-10 relative at k = 8.
    for b in (Coin.real_symmetric(a).b, Coin.from_params(a, 0.0, 0.0).b.real):
        assert abs(Decimal(b) - ref) <= 2 * Decimal(math.ulp(float(ref)))


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
        report = check_unitary_equivalence(rs, x, Coin.hadamard_type(), inflow)
        assert report.energy_deviation < 1e-8
        assert report.max_outflow_modulus_deviation < 1e-8


def test_double_flip_roundtrip(rng):
    from surfwalk.rotation_system import flip_vertex

    rs = random_rotation_system(rng)
    assert flip_vertex(flip_vertex(rs, 1), 1) == rs


def test_batched_inflow_matches_single_runs(rng):
    bg = hedgehog(projective_k4())
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
    bg = hedgehog(projective_k4())
    coin = random_d_real_coin(rng, max_a=0.5)
    s = outflow_map(bg, coin)
    assert s.shape == (bg.size, bg.size)
    for j in range(bg.size):
        expected = run_to_stationary(bg, coin, unit_inflow(bg, j), tol=1e-12).outflow
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
    bg = hedgehog(projective_k4())
    for shape in ((bg.size + 1, 3), (bg.size - 1, 3), (bg.size, 3, 2), ()):
        with pytest.raises(AssumptionError):
            WaveState.zero(bg, np.zeros(shape, dtype=complex))
    # Every island arc carries a tail, so every row may carry inflow.
    inflow = np.zeros((bg.size, 2), dtype=complex)
    inflow[5, 1] = 1.0
    assert np.array_equal(WaveState.zero(bg, inflow).inflow, inflow)


def test_step_matrix_is_one_step_without_inflow(rng):
    for bg in (hedgehog(projective_k4()), hedgehog(planar_k4())):
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


@pytest.mark.parametrize("index", range(11))
def test_observed_rate_is_the_dense_radius_on_every_k4_class(index):
    bg = hedgehog(enumerate_embeddings(complete_graph(4))[index].representative)
    coin = Coin.hadamard_type()
    radius = np.abs(np.linalg.eigvals(step_matrix(bg, coin))).max()
    for tail in (0, 1, 5):
        state = run_to_stationary(bg, coin, unit_inflow(bg, tail))
        assert state.steps > 0 and abs(state.rate - radius) < 0.005, (tail, state.rate, radius)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    bg = hedgehog(projective_k4())
    with pytest.raises(AssumptionError, match="tolerance"):
        run_to_stationary(bg, Coin.hadamard_type(), unit_inflow(bg, 0), tol=tol)


def test_negative_max_steps_rejected():
    bg = hedgehog(projective_k4())
    with pytest.raises(AssumptionError, match="max_steps"):
        run_to_stationary(bg, Coin.hadamard_type(), unit_inflow(bg, 0), max_steps=-1)


def _reference_step(state, bg, coin):
    """One step as first written: each array formed anew from the last."""
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    sign = bg.bridge_sign.reshape((-1,) + (1,) * (state.inflow.ndim - 1))
    feed_island = state.island_plus[bg.rot_inv]
    feed_bridge = state.bridge[bg.bar]
    return WaveState(
        island_in=a * feed_island + b * feed_bridge,
        island_plus=a * state.island_in + b * state.inflow,
        bridge=sign * (c * feed_island + d * feed_bridge),
        inflow=state.inflow,
        outflow=c * state.island_in + d * state.inflow,
        steps=state.steps + 1,
    )


def _reference_run(bg, coin, inflow, tol=1e-10, max_steps=10**6, changes=None):
    """The simulator loop as first written, one WaveState per step; the
    last state carries the last residual whether or not it fell below tol.
    A ``changes`` list gets each step's largest real or imaginary part of
    the change."""
    state = WaveState.zero(bg, inflow)
    res = math.inf
    for _ in range(max_steps):
        new = _reference_step(state, bg, coin)
        deltas = [new.island_in - state.island_in, new.island_plus - state.island_plus, new.bridge - state.bridge]
        res = max(np.abs(d).max(initial=0.0) for d in deltas)
        if changes is not None:
            changes.append(max(np.abs(part).max(initial=0.0) for d in deltas for part in (d.real, d.imag)))
        state = new
        if res < tol:
            break
    return dataclasses.replace(state, residual=res)


def _assert_same_bytes(state, reference):
    for name in ("island_in", "island_plus", "bridge", "outflow"):
        got, want = getattr(state, name), getattr(reference, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert state.steps == reference.steps
    assert state.residual == reference.residual


def _bit_identity_cases():
    projective = hedgehog(projective_k4())
    yield "projective K4 tail 5", projective, Coin.hadamard_type(), unit_inflow(projective, 5)
    k4 = enumerate_embeddings(complete_graph(4))
    for i in (0, len(k4) - 1):
        bg = hedgehog(k4[i].representative)
        yield f"K4 class {i} eye", bg, Coin.from_params(0.6, 0.3, 1.1), np.eye(bg.size)
    k8 = hedgehog(random_rotation_system(np.random.default_rng(1), complete_graph(8)))
    rng = np.random.default_rng(2024)
    inflow = rng.normal(size=k8.size) + 1j * rng.normal(size=k8.size)
    coins = {
        "hadamard": Coin.hadamard_type(),
        "real": Coin.real_symmetric(0.8),
        "complex": Coin.from_params(0.7, 0.4, 1.3),
    }
    for name, coin in coins.items():
        yield f"K8 {name}", k8, coin, inflow


@pytest.mark.parametrize("case", list(_bit_identity_cases()), ids=lambda case: case[0])
def test_run_is_bit_identical_to_the_reference_loop(case):
    _, bg, coin, inflow = case
    _assert_same_bytes(run_to_stationary(bg, coin, inflow), _reference_run(bg, coin, inflow))
    # The public step applies the same rule.
    state = WaveState.zero(bg, inflow)
    reference = state
    for _ in range(3):
        state, reference = step(state, bg, coin), _reference_step(reference, bg, coin)
    _assert_same_bytes(state, reference)


@pytest.mark.parametrize("max_steps", [0, 1])
def test_convergence_error_reports_the_reference_residual(max_steps):
    bg = hedgehog(projective_k4())
    coin = Coin.hadamard_type()
    with pytest.raises(ConvergenceError) as err:
        run_to_stationary(bg, coin, unit_inflow(bg, 0), max_steps=max_steps)
    reference = _reference_run(bg, coin, unit_inflow(bg, 0), max_steps=max_steps)
    assert (err.value.steps, err.value.residual) == (reference.steps, reference.residual)


def _tol_the_modulus_decides(bg, coin, inflow, below=1e-6):
    """A tolerance and a step s of the reference loop such that no step
    before s gets below the tolerance by either measure, and at s the
    largest real or imaginary part of the change does while the largest
    modulus does not.  A stopping test on the parts alone would stop at s;
    s is taken once the residual is below ``below``."""
    state, floor = WaveState.zero(bg, inflow), math.inf
    for s in range(1, 10**5):
        new = _reference_step(state, bg, coin)
        delta = np.stack([new.island_in - state.island_in, new.island_plus - state.island_plus,
                          new.bridge - state.bridge])
        bound = max(np.abs(delta.real).max(), np.abs(delta.imag).max())
        modulus = np.abs(delta).max()
        state = new
        if modulus < below and bound < min(modulus, floor):
            return (bound + min(modulus, floor)) / 2, s
        floor = min(floor, bound)
    raise AssertionError("no step where the parts and the modulus part")


# Two cases with complex coins.  In the projective case coin and inflow are
# real, and the parts bound the modulus exactly.
@pytest.mark.parametrize(
    "case",
    [case for case in _bit_identity_cases() if case[0] in ("K4 class 0 eye", "K8 complex")],
    ids=lambda case: case[0],
)
def test_the_exact_modulus_decides_the_stop(case):
    _, bg, coin, inflow = case
    tol, s = _tol_the_modulus_decides(bg, coin, inflow)
    reference = _reference_run(bg, coin, inflow, tol=tol)
    assert reference.steps > s
    _assert_same_bytes(run_to_stationary(bg, coin, inflow, tol=tol), reference)


def _reference_rate(changes):
    """The geometric mean of the ratios of successive ``changes`` (step 1
    first), from the largest power of two at or below half the steps on."""
    start = 2 ** int(math.log2(len(changes) / 2))
    logs = [math.log(changes[t] / changes[t - 1]) for t in range(start, len(changes))]
    return math.exp(sum(logs) / len(logs))


@pytest.mark.parametrize("case", list(_bit_identity_cases()), ids=lambda case: case[0])
def test_rate_is_the_reference_loops_decay(case):
    _, bg, coin, inflow = case
    changes = []
    _reference_run(bg, coin, inflow, changes=changes)
    state = run_to_stationary(bg, coin, inflow)
    assert state.steps == len(changes) and math.isclose(state.rate, _reference_rate(changes), rel_tol=1e-12)


@pytest.mark.parametrize("max_steps", [2, 3, 4, 50])
def test_convergence_error_carries_the_rate_of_its_run(max_steps):
    bg, coin = hedgehog(projective_k4()), Coin.hadamard_type()
    changes = []
    _reference_run(bg, coin, unit_inflow(bg, 0), max_steps=max_steps, changes=changes)
    with pytest.raises(ConvergenceError, match=r", rate 0\.\d{6}\)$") as err:
        run_to_stationary(bg, coin, unit_inflow(bg, 0), max_steps=max_steps)
    assert math.isclose(err.value.rate, _reference_rate(changes), rel_tol=1e-12)


def test_rate_is_nan_without_a_window_or_on_closed_forms():
    bg, coin = hedgehog(projective_k4()), Coin.hadamard_type()
    # No change at all: the run stops at step 1, before any window.
    state = run_to_stationary(bg, coin, np.zeros(bg.size, dtype=complex))
    assert state.steps == 1 and math.isnan(state.rate)
    for max_steps in (0, 1):
        with pytest.raises(ConvergenceError, match=r", rate nan\)$") as err:
            run_to_stationary(bg, coin, unit_inflow(bg, 0), max_steps=max_steps)
        assert math.isnan(err.value.rate)
    assert math.isnan(stationary_closed_form(bg, coin, unit_inflow(bg, 0)).rate)


def _two_tail_check():
    rs = projective_k4()
    inflow = np.zeros(hedgehog(rs).size, dtype=complex)
    inflow[[0, 5]] = 1.0
    return check_unitary_equivalence(rs, 0, Coin.hadamard_type(), inflow)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Coin.real_symmetric(1.0), "real_symmetric coin needs -1 < a < 1"),
        (lambda: Coin.from_params(-1.0, 0, 0), "from_params needs -1 < s < 1"),
        (_two_tail_check, "unitary-equivalence check expects a single-tail inflow"),
    ],
    ids=["real-symmetric-a-1", "from-params-s-minus-1", "two-tail-inflow"],
)
def test_invalid_input_raises_assumption_error(build, message):
    with pytest.raises(AssumptionError) as err:
        build()
    assert err.type is AssumptionError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "shape, match",
    [((1, 0), "inflow must have shape"), ((0, 1), "one inflow of shape"), ((0, 2), "one inflow of shape")],
    ids=["one-entry-too-many", "one-column", "two-columns"],
)
def test_unitary_equivalence_refuses_malformed_inflows(shape, match):
    # Each inflow has one nonzero entry, which the single-tail count alone passed.
    rs = projective_k4()
    extra, columns = shape
    inflow = np.zeros((hedgehog(rs).size + extra,) + ((columns,) if columns else ()), dtype=complex)
    inflow.flat[0] = 1.0
    with pytest.raises(AssumptionError, match=match):
        check_unitary_equivalence(rs, 0, Coin.hadamard_type(), inflow)

"""Time evolution of the quantum walk on the tailed blow-up graph.

One step applies, at every blow-up vertex, the 2x2 coin to the incoming
(island, bridge) amplitudes, with a sign flip on twisted bridges, and at
every boundary vertex the same coin to (quay, tail) amplitudes.  Every
island arc carries a tail, cut in at a boundary vertex that splits the
island into two quay arcs.  Tails are boundary conditions: the inbound pier
always carries the constant inflow and whatever leaves on the outbound pier
is recorded as outflow and dropped, which reproduces the free dynamics on
semi-infinite tails exactly.

State layout (arrays indexed by island/bridge/tail id ``g``):

* ``island_in[g]``  - the quay arc of island ``g`` before its tail;
* ``island_plus[g]`` - the quay arc after the tail;
* ``bridge[g]``     - the bridge arc (g, g-bar).

Every array has the inflow's shape: ``(n,)``, or ``(n, k)`` for k inflows
run at once, column j evolving exactly as a run with inflow column j alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .covering_blowup import BlowUpGraph, double_cover, hedgehog
from .errors import AssumptionError, ConvergenceError
from .rotation_system import RotationSystem, flip_vertex

__all__ = [
    "Coin",
    "WaveState",
    "step",
    "step_matrix",
    "run_to_stationary",
    "internal_energy",
    "outflow_map",
    "flip_correspondence",
    "check_unitary_equivalence",
    "UnitaryEquivalenceReport",
]

UNITARITY_TOL = 1e-12
# How far a vertex flip may move the stored energy or an outflow modulus.
FLIP_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class Coin:
    """The 2x2 unitary [[a, b], [c, d]] steering the local scattering.

    ``a`` keeps a walker on its island, ``b`` lets it hop off a bridge onto
    an island, ``c`` sends it from an island onto a bridge and ``d``
    reflects it back along the inverse bridge.

    The closed forms S_f = bc P_f(omega) (I - a P_f(omega))^-1 + d I hold
    for d real, b and c nonzero and |a| < 1 (:attr:`has_closed_form`).  An
    amplitude below ``AMPLITUDE_EPS`` counts as zero, and an |a| within
    ``UNIT_A_MARGIN`` of 1 as one.
    """

    AMPLITUDE_EPS: ClassVar[float] = 1e-12
    UNIT_A_MARGIN: ClassVar[float] = 1e-14

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        m = self.matrix()
        with np.errstate(invalid="ignore"):
            defect = np.abs(m @ m.conj().T - np.eye(2)).max()
        # A nan or inf entry makes the defect nan, which only this form rejects.
        if not defect <= UNITARITY_TOL:
            raise AssumptionError(f"coin is not unitary (defect {defect:.2e})")

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @property
    def omega(self) -> complex:
        return -(self.a * self.d - self.b * self.c)

    @property
    def d_is_real(self) -> bool:
        return abs(complex(self.d).imag) <= self.AMPLITUDE_EPS

    @property
    def degenerate(self) -> bool:
        """b = 0 or c = 0: no amplitude crosses between island and bridge,
        so S = dI and the stationary state has no closed form."""
        return min(abs(self.b), abs(self.c)) < self.AMPLITUDE_EPS

    @property
    def unit_a(self) -> bool:
        """|a| = 1: the face blocks I - a P_f(omega) may be singular."""
        return abs(self.a) >= 1.0 - self.UNIT_A_MARGIN

    @property
    def has_closed_form(self) -> bool:
        return self.d_is_real and not self.degenerate and not self.unit_a

    def require_d_real(self):
        if not self.d_is_real:
            raise AssumptionError("closed forms require a real reflection amplitude d")

    def require_closed_form(self):
        """Raise :class:`AssumptionError` unless :attr:`has_closed_form`."""
        self.require_d_real()
        if self.degenerate:
            raise AssumptionError("closed forms need b, c != 0; use the simulator")
        if self.unit_a:
            raise AssumptionError("closed forms need |a| < 1")

    @classmethod
    def hadamard_type(cls) -> "Coin":
        r = 1.0 / math.sqrt(2.0)
        return cls(r, r, r, -r)

    @classmethod
    def real_symmetric(cls, a: float) -> "Coin":
        """[[a, b], [b, -a]] with b = sqrt(1 - a^2); d real, omega = 1.
        b is taken as sqrt((1 - a)(1 + a)), which keeps full precision as
        |a| -> 1 where 1 - a*a cancels."""
        if not -1.0 < a < 1.0:
            raise AssumptionError("real_symmetric coin needs -1 < a < 1")
        b = math.sqrt((1.0 - a) * (1.0 + a))
        return cls(a, b, b, -a)

    @classmethod
    def from_params(cls, s: float, phi: float, beta: float) -> "Coin":
        """General unitary coin with d = s real: a = s e^{i phi},
        b = t e^{i beta}, c = -t e^{i (phi - beta)}, t = sqrt(1 - s^2), taken
        as sqrt((1 - s)(1 + s)) as in :meth:`real_symmetric`."""
        if not -1.0 < s < 1.0:
            raise AssumptionError("from_params needs -1 < s < 1")
        t = math.sqrt((1.0 - s) * (1.0 + s))
        return cls(
            s * cmath.exp(1j * phi),
            t * cmath.exp(1j * beta),
            -t * cmath.exp(1j * (phi - beta)),
            s,
        )


@dataclass(frozen=True)
class WaveState:
    """Internal amplitudes plus the constant inflow and the latest outflow.

    ``inflow`` and ``outflow`` are indexed by tail (= island arc id)
    along their first axis.
    """

    island_in: np.ndarray
    island_plus: np.ndarray
    bridge: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    steps: int = 0
    residual: float = math.inf

    @classmethod
    def zero(cls, bg: BlowUpGraph, inflow: np.ndarray) -> "WaveState":
        inflow = _checked_inflow(bg, inflow)
        return cls(
            island_in=np.zeros_like(inflow),
            island_plus=np.zeros_like(inflow),
            bridge=np.zeros_like(inflow),
            inflow=inflow,
            outflow=np.zeros_like(inflow),
        )


def _checked_inflow(bg: BlowUpGraph, inflow: np.ndarray) -> np.ndarray:
    n = bg.size
    inflow = np.asarray(inflow, dtype=complex)
    if inflow.ndim not in (1, 2) or inflow.shape[0] != n:
        raise AssumptionError(f"inflow must have shape ({n},) or ({n}, k), got {inflow.shape}")
    if not np.isfinite(inflow).all():
        raise AssumptionError("inflow must be finite")
    return inflow


def _stepper(bg: BlowUpGraph, coin: Coin, inflow: np.ndarray):
    """The step rule for one graph, coin and inflow, as ``advance(z, new)``:
    it writes into ``new`` the state one step after ``z``, both ``(3, n[,
    k])`` stacks ``[island_in; island_plus; bridge]``.

    Each product and sum is the scalar-by-array operation ``a * x + b * y``
    performs, in its order, so the result is bit-identical to forming each
    array anew.  The outflow is not formed here: it depends on ``z`` alone.
    """
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    # Bridge signs broadcast over any trailing inflow axis.
    sign = bg.bridge_sign.reshape((-1,) + (1,) * (inflow.ndim - 1))
    b_inflow = b * inflow
    rot_inv, bar = bg.rot_inv, bg.bar

    def advance(z: np.ndarray, new: np.ndarray):
        feed_island = z[1][rot_inv]
        feed_bridge = z[2][bar]
        island_in, island_plus, bridge = new
        # island_plus is written last; until then it holds the b and d terms.
        np.multiply(a, feed_island, out=island_in)
        np.add(island_in, np.multiply(b, feed_bridge, out=island_plus), out=island_in)
        np.multiply(c, feed_island, out=bridge)
        np.add(bridge, np.multiply(d, feed_bridge, out=island_plus), out=bridge)
        np.multiply(sign, bridge, out=bridge)
        np.add(np.multiply(a, z[0], out=island_plus), b_inflow, out=island_plus)

    return advance


def step(state: WaveState, bg: BlowUpGraph, coin: Coin) -> WaveState:
    """One application of the walk operator with the tail boundary condition."""
    z = np.array([state.island_in, state.island_plus, state.bridge], dtype=complex)
    new = np.empty_like(z)
    _stepper(bg, coin, state.inflow)(z, new)
    return WaveState(
        *new,
        inflow=state.inflow,
        outflow=coin.c * state.island_in + coin.d * state.inflow,
        steps=state.steps + 1,
    )


def step_matrix(bg: BlowUpGraph, coin: Coin) -> np.ndarray:
    """One step with zero inflow as a 3n x 3n matrix on ``[island_in;
    island_plus; bridge]``; its spectral radius is the simulator's rate."""
    n = bg.size
    basis, zero = np.eye(3 * n, dtype=complex), np.zeros((n, 3 * n), dtype=complex)
    new = step(WaveState(basis[:n], basis[n : 2 * n], basis[2 * n :], zero, zero), bg, coin)
    return np.concatenate([new.island_in, new.island_plus, new.bridge])


def internal_energy(state: WaveState):
    """Half the squared norm of the state on the internal graph (tails
    excluded): a float for one inflow, one energy per column for ``(n, k)``."""
    # vecdot sums each column in the order vdot sums a vector.
    total = (
        np.vecdot(state.island_in, state.island_in, axis=0).real
        + np.vecdot(state.island_plus, state.island_plus, axis=0).real
        + np.vecdot(state.bridge, state.bridge, axis=0).real
    )
    return 0.5 * total


def run_to_stationary(
    bg: BlowUpGraph,
    coin: Coin,
    inflow: np.ndarray,
    tol: float = 1e-10,
    max_steps: int = 10**6,
) -> WaveState:
    """Iterate from the zero internal state until the sup-norm change of one
    step falls below ``tol``.  An ``(n, k)`` inflow runs k inflows at once
    and stops when every column is stationary."""
    if not (math.isfinite(tol) and tol > 0):
        raise AssumptionError(f"tolerance must be finite and positive, got {tol}")
    if max_steps < 0:
        raise AssumptionError(f"max_steps must be non-negative, got {max_steps}")
    inflow = _checked_inflow(bg, inflow)
    advance = _stepper(bg, coin, inflow)
    # Two state buffers swap roles each step: z is the current state.
    z = np.zeros((3,) + inflow.shape, dtype=complex)
    new = np.empty_like(z)
    # The change of the last step, and a view of its real and imaginary
    # parts.  The parts are made non-negative in place, which leaves every
    # modulus as it is.
    delta = np.empty_like(z)
    parts = delta.view(np.float64)
    steps = 0
    for steps in range(1, max_steps + 1):
        advance(z, new)
        np.subtract(new, z, out=delta)
        z, new = new, z
        # |x| >= max(|Re x|, |Im x|): while a part reaches tol, so does the
        # sup-norm, and it is taken only below that bound.
        if np.abs(parts, out=parts).max(initial=0.0) < tol:
            res = np.abs(delta).max(initial=0.0)
            if res < tol:
                # The outflow of the last step leaves from the state before it.
                outflow = coin.c * new[0] + coin.d * inflow
                return WaveState(*z, inflow=inflow, outflow=outflow, steps=steps, residual=res)
    res = np.abs(delta).max(initial=0.0) if steps else math.inf
    raise ConvergenceError(
        f"no stationary state after {max_steps} steps (residual {res:.3e})",
        residual=res,
        steps=steps,
    )


def outflow_map(bg: BlowUpGraph, coin: Coin) -> np.ndarray:
    """The simulated scattering matrix: column j is the stationary outflow
    for a unit inflow at tail j (all tails in one run, at
    :func:`run_to_stationary`'s default tolerance)."""
    return run_to_stationary(bg, coin, np.eye(bg.size)).outflow


def flip_correspondence(rs: RotationSystem, x: int) -> tuple[RotationSystem, np.ndarray]:
    """The flipped system at ``x`` and the island/bridge relabelling that
    identifies the two blow-ups: for each cover arc of ``rs``, the flipped
    system's cover arc over the same base arc, with the sheet swapped where
    its terminus is ``x``."""
    flipped = flip_vertex(rs, x)
    dc = double_cover(rs)
    sheet = dc.sheet ^ (rs.graph.terminus_array[dc.proj] == x)
    return flipped, double_cover(flipped).lift[2 * dc.proj + sheet]


@dataclass(frozen=True)
class UnitaryEquivalenceReport:
    vertex: int
    energy_before: float
    energy_after: float
    max_outflow_modulus_deviation: float

    @property
    def energy_deviation(self) -> float:
        return abs(self.energy_before - self.energy_after)


def check_unitary_equivalence(
    rs: RotationSystem,
    x: int,
    coin: Coin,
    inflow: np.ndarray,
) -> UnitaryEquivalenceReport:
    """Run (G, rho, tau) and its vertex flip at ``x`` with the corresponding
    single inflow, each at :func:`run_to_stationary`'s default tolerance;
    raise unless the stored energies agree and the outflow moduli match
    entrywise within ``FLIP_CHECK_TOL``."""
    bg1 = hedgehog(rs)
    inflow = _checked_inflow(bg1, inflow)
    if inflow.ndim != 1:
        raise AssumptionError(f"unitary-equivalence check expects one inflow of shape ({bg1.size},), got {inflow.shape}")
    if np.count_nonzero(inflow) != 1:
        raise AssumptionError("unitary-equivalence check expects a single-tail inflow")
    flipped, phi = flip_correspondence(rs, x)
    bg2 = hedgehog(flipped)

    inflow2 = np.zeros_like(inflow)
    inflow2[phi] = inflow
    s1 = run_to_stationary(bg1, coin, inflow)
    s2 = run_to_stationary(bg2, coin, inflow2)

    dev = np.abs(np.abs(s2.outflow[phi]) - np.abs(s1.outflow)).max()
    report = UnitaryEquivalenceReport(
        vertex=x,
        energy_before=internal_energy(s1),
        energy_after=internal_energy(s2),
        max_outflow_modulus_deviation=float(dev),
    )
    if report.energy_deviation > FLIP_CHECK_TOL or report.max_outflow_modulus_deviation > FLIP_CHECK_TOL:
        raise AssumptionError(
            f"vertex flip at {x} changed the walk: energy dev "
            f"{report.energy_deviation:.2e}, outflow dev {dev:.2e}"
        )
    return report

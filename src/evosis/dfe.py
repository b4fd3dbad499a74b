"""Disease-free periodic orbit of the susceptible population.

With no infection the susceptible density follows the scalar logistic flow

    S_t = (d_S/rho^2) S_yy + a S - b S^2 - n (rho'/rho) S

which has exactly one positive periodic orbit. The period map is monotone,
so iterating it from a constant above the orbit produces a nonincreasing
sequence of fields converging to the orbit from above; a small positive
constant converges from below. Both runs use the same discretization as
the full coupled system (the infected field is held identically zero, which
the coupled stepper preserves exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from .engine import CoupledStepper
from .errors import ConvergenceError
from .model import ModelConfig, PeriodicOrbit, coefficient_table

FloatArray = npt.NDArray[np.floating[Any]]

DEFAULT_TOL = 1e-9
MAX_SWEEPS = 500
TWO_SIDED_FACTOR = 10.0
LOWER_START_FRACTION = 1e-3

_ERR_NO_CONVERGENCE = "period-map iteration still moving by {residual:.3e} after {sweeps} sweeps"
_ERR_SIDES_DISAGREE = (
    "upper and lower iterations settled {gap:.3e} apart, beyond {budget:.3e}; "
    "the orbit bracket did not close"
)

@dataclass(frozen=True, slots=True)
class DfeResult:
    """Converged disease-free orbit and the iteration evidence.

    residual is the final sup change between successive period maps from
    above; bracket_gap is the sup distance between the upper-start and
    lower-start fixed points at t = 0; monotone_defect is the largest
    pointwise increase any upper sweep produced (the monotone theory says
    none, so this should sit at rounding level).
    """

    orbit: PeriodicOrbit
    iterations: int
    residual: float
    bracket_gap: float
    monotone_defect: float


def _coefficient_extremes(config: ModelConfig) -> tuple[float, float, float]:
    """(sup a, inf b, sup |n rho'/rho|) over a sampling lattice."""
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 129)
    a = coefficient_table(config.a, config.rho, nodes, times)
    b = coefficient_table(config.b, config.rho, nodes, times)
    rho_t = np.asarray(config.rho.value(times), dtype=float)
    rho_dot = np.asarray(config.rho.derivative(times), dtype=float)
    dilution = config.n * rho_dot / rho_t
    return float(np.max(a)), float(np.min(b)), float(np.max(np.abs(dilution)))


def upper_start_level(config: ModelConfig) -> float:
    """Constant level guaranteed to sit above the disease-free orbit."""
    sup_a, inf_b, sup_dil = _coefficient_extremes(config)
    return 2.0 * sup_a / inf_b + sup_dil / inf_b


def _iterate_period_map(
    stepper: CoupledStepper, u0: FloatArray, tol: float, monotone: str | None
) -> tuple[FloatArray, int, float, float]:
    """Repeats the scalar period map until successive maps stop moving.

    Returns (fixed point at t=0, sweeps, final residual, worst monotonicity
    defect). The monotonicity defect is how far any sweep moved the field
    against the expected one-sided direction.
    """
    zero = np.zeros_like(u0)
    u = u0.copy()
    worst_defect = 0.0
    for sweep in range(1, MAX_SWEEPS + 1):
        v = u.copy()
        for k in range(stepper.n_steps):
            v, _ = stepper.step(v, zero, k)
        residual = float(np.max(np.abs(v - u)))
        if monotone == "nonincreasing":
            worst_defect = max(worst_defect, float(np.max(v - u)))
        elif monotone == "nondecreasing":
            worst_defect = max(worst_defect, float(np.max(u - v)))
        u = v
        if residual < tol:
            return u, sweep, residual, worst_defect
    raise ConvergenceError(_ERR_NO_CONVERGENCE.format(residual=residual, sweeps=MAX_SWEEPS))


def solve_dfe(config: ModelConfig, tol: float = DEFAULT_TOL) -> DfeResult:
    """Finds the positive disease-free periodic orbit.

    Iterates the one-period solution map from the supersolution constant
    until the sup change between sweeps drops below tol, then repeats from
    a small positive constant and checks both fixed points agree within ten
    times tol.

    Raises:
        ConvergenceError: either iteration exhausts its sweep budget, or
            the two one-sided limits disagree.
    """
    stepper = CoupledStepper(config)
    nodes = config.grid.nodes
    sup_a, inf_b, _ = _coefficient_extremes(config)
    top = upper_start_level(config)
    bottom = LOWER_START_FRACTION * sup_a / inf_b

    upper, sweeps, residual, monotone_defect = _iterate_period_map(
        stepper, np.full(nodes.size, top), tol, monotone="nonincreasing")
    lower, _, _, _ = _iterate_period_map(
        stepper, np.full(nodes.size, bottom), tol, monotone="nondecreasing")
    gap = float(np.max(np.abs(upper - lower)))
    if gap > TWO_SIDED_FACTOR * tol:
        raise ConvergenceError(_ERR_SIDES_DISAGREE.format(gap=gap, budget=TWO_SIDED_FACTOR * tol))

    zero = np.zeros_like(upper)
    path = np.empty((stepper.n_steps + 1, nodes.size))
    path[0] = upper
    state = upper.copy()
    for k in range(stepper.n_steps):
        state, _ = stepper.step(state, zero, k)
        path[k + 1] = state
    scale = max(float(np.max(np.abs(path))), 1e-300)
    orbit = PeriodicOrbit.from_samples(path, config.T, tolerance=max(10.0 * tol / scale, 1e-12))
    return DfeResult(orbit=orbit, iterations=sweeps, residual=residual, bracket_gap=gap,
                     monotone_defect=monotone_defect)


def monotone_sweep_levels(config: ModelConfig, sweeps: int) -> FloatArray:
    """Sup-norm of the iterates from the supersolution start, per sweep.

    The sequence never increases (up to rounding); exposing it lets callers
    check that property directly.
    """
    stepper = CoupledStepper(config)
    zero = np.zeros(config.grid.N + 1)
    u = np.full(config.grid.N + 1, upper_start_level(config))
    levels = [float(np.max(np.abs(u)))]
    for _ in range(sweeps):
        for k in range(stepper.n_steps):
            u, _ = stepper.step(u, zero, k)
        levels.append(float(np.max(np.abs(u))))
    return np.asarray(levels)

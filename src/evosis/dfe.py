"""Disease-free periodic orbit of the susceptible population.

With no infection the susceptible density follows the scalar logistic flow

    S_t = (d_S/rho^2) S_yy + a S - b S^2 - n (rho'/rho) S

which has exactly one positive periodic orbit. The period map is monotone,
so iterating it from a constant above the orbit produces a nonincreasing
sequence of fields converging to the orbit from above; a small positive
constant converges from below. Both runs use the same discretization as
the full coupled system: one sweep is one `CoupledStepper.period` with the
infected field held identically zero, which the coupled stepper preserves
exactly. One iterator of sweeps drives both the fixed-point iteration and
`monotone_sweep_levels`, and the orbit is recorded by one more period.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Any, Iterator

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


def _start_levels(config: ModelConfig) -> tuple[float, float]:
    """(upper, lower) constant starts from one pass over sup a, inf b and sup |n rho'/rho|."""
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 129)
    sup_a = float(np.max(coefficient_table(config.a, config.rho, nodes, times)))
    inf_b = float(np.min(coefficient_table(config.b, config.rho, nodes, times)))
    rho_t = np.asarray(config.rho.value(times), dtype=float)
    rho_dot = np.asarray(config.rho.derivative(times), dtype=float)
    sup_dil = float(np.max(np.abs(config.n * rho_dot / rho_t)))
    return 2.0 * sup_a / inf_b + sup_dil / inf_b, LOWER_START_FRACTION * sup_a / inf_b


def upper_start_level(config: ModelConfig) -> float:
    """Constant level guaranteed to sit above the disease-free orbit."""
    return _start_levels(config)[0]


def _sweeps(stepper: CoupledStepper, level: float) -> Iterator[FloatArray]:
    """The constant start field, then its successive period maps with I held at zero."""
    u = np.full_like(stepper.a[0], level)  # one value per node, like a time slice of a
    zero = np.zeros_like(u)
    while True:
        yield u
        u, _ = stepper.period(u, zero)


def _iterate_period_map(stepper: CoupledStepper, level: float) -> tuple[FloatArray, int, float, float]:
    """Repeats the scalar period map until successive maps stop moving.

    Returns (fixed point at t=0, sweeps, final residual, largest rise). The
    largest rise is the biggest pointwise increase any sweep produced,
    which from a start above the orbit is a monotonicity defect.
    """
    worst_rise = 0.0
    pairs = pairwise(islice(_sweeps(stepper, level), MAX_SWEEPS + 1))
    for sweep, (u, v) in enumerate(pairs, 1):
        change = v - u
        residual = float(np.max(np.abs(change)))
        worst_rise = max(worst_rise, float(np.max(change)))
        if residual < DEFAULT_TOL:
            return v, sweep, residual, worst_rise
    raise ConvergenceError(_ERR_NO_CONVERGENCE.format(residual=residual, sweeps=MAX_SWEEPS))


def solve_dfe(config: ModelConfig) -> DfeResult:
    """Finds the positive disease-free periodic orbit.

    Iterates the one-period solution map from the supersolution constant
    until the sup change between sweeps drops below DEFAULT_TOL, then
    repeats from a small positive constant and checks both fixed points
    agree within ten times DEFAULT_TOL.

    Raises:
        ConvergenceError: either iteration exhausts its sweep budget, or
            the two one-sided limits disagree.
    """
    stepper = CoupledStepper(config)
    top, bottom = _start_levels(config)
    upper, sweeps, residual, monotone_defect = _iterate_period_map(stepper, top)
    lower, _, _, _ = _iterate_period_map(stepper, bottom)
    gap = float(np.max(np.abs(upper - lower)))
    if gap > TWO_SIDED_FACTOR * DEFAULT_TOL:
        raise ConvergenceError(_ERR_SIDES_DISAGREE.format(gap=gap, budget=TWO_SIDED_FACTOR * DEFAULT_TOL))

    path = np.empty((stepper.n_steps + 1, upper.size))
    stepper.period(upper, np.zeros_like(upper), (path,))
    scale = max(float(np.max(np.abs(path))), 1e-300)
    orbit = PeriodicOrbit.from_samples(path, config.T, tolerance=max(10.0 * DEFAULT_TOL / scale, 1e-12))
    return DfeResult(orbit=orbit, iterations=sweeps, residual=residual, bracket_gap=gap,
                     monotone_defect=monotone_defect)


def monotone_sweep_levels(config: ModelConfig, sweeps: int) -> FloatArray:
    """Sup-norm of the iterates from the supersolution start, per sweep.

    The sequence never increases (up to rounding); exposing it lets callers
    check that property directly.
    """
    iterates = _sweeps(CoupledStepper(config), upper_start_level(config))
    return np.asarray([float(np.max(np.abs(u))) for u in islice(iterates, sweeps + 1)])

"""Disease-free periodic orbit of the susceptible population.

With no infection the susceptible density follows the scalar logistic flow

    S_t = (d_S/rho^2) S_yy + a S - b S^2 - n (rho'/rho) S

which has exactly one positive periodic orbit. The period map is monotone,
so iterating it from a constant above the orbit produces a nonincreasing
sequence of fields converging to the orbit from above; a small positive
constant converges from below. Both runs use the same discretization as
the full coupled system: one sweep is one `CoupledStepper.period` of the
stepper built with infected=False, the coupled step with the infected
field identically zero, which equals the susceptible half of the coupled
step bit for bit. The two starts advance together as two rows of one
factorization; the row that settles first retires and the other goes on
alone. The orbit is recorded by one more period, and
`monotone_sweep_levels` runs the upper start alone.
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
    none, so this should sit at rounding level). lower_iterations counts
    the sweeps of the lower start, and clamp_count the negative nodes the
    steps clamped to zero over all sweeps and the recorded period.
    """

    orbit: PeriodicOrbit
    iterations: int
    residual: float
    bracket_gap: float
    monotone_defect: float
    lower_iterations: int
    clamp_count: int


def _start_levels(config: ModelConfig) -> tuple[float, float]:
    """(upper, lower) constant starts from one pass over sup a, inf b and sup |n rho'/rho|."""
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 129)
    sup_a = float(np.max(coefficient_table(config.a, config.rho, nodes, times)))
    inf_b = float(np.min(coefficient_table(config.b, config.rho, nodes, times)))
    sup_dil = float(np.max(np.abs(config.dilution(times))))
    return 2.0 * sup_a / inf_b + sup_dil / inf_b, LOWER_START_FRACTION * sup_a / inf_b


def upper_start_level(config: ModelConfig) -> float:
    """Constant level guaranteed to sit above the disease-free orbit."""
    return _start_levels(config)[0]


def _fixed_points(stepper: CoupledStepper,
                  levels: tuple[float, ...]) -> list[tuple[FloatArray, int, float, float]]:
    """Repeats the period map from constant starts until successive maps stop moving.

    All starts advance together, one row each; a row whose sup change
    falls below DEFAULT_TOL retires and the others go on. Returns, per
    level in order, (fixed point at t=0, sweeps, final residual, largest
    rise). The largest rise is the biggest pointwise increase any sweep
    produced, which from a start above the orbit is a monotonicity defect.
    """
    starts = np.arange(len(levels))
    u = np.repeat(np.asarray(levels, dtype=float)[:, None], stepper.n_nodes, axis=1)
    worst_rise = np.zeros(len(levels))
    found: dict[int, tuple[FloatArray, int, float, float]] = {}
    for sweep in range(1, MAX_SWEEPS + 1):
        v = stepper.period(u)
        change = v - u
        residual = np.max(np.abs(change), axis=1)
        worst_rise = np.maximum(worst_rise, np.max(change, axis=1))
        done = residual < DEFAULT_TOL
        for row in np.flatnonzero(done):
            found[int(starts[row])] = (v[row], sweep, float(residual[row]), float(worst_rise[row]))
        if done.all():
            return [found[start] for start in range(len(levels))]
        going = ~done
        starts, u, worst_rise = starts[going], v[going], worst_rise[going]
    raise ConvergenceError(_ERR_NO_CONVERGENCE.format(residual=float(residual[going][0]), sweeps=MAX_SWEEPS))


def solve_dfe(config: ModelConfig) -> DfeResult:
    """Finds the positive disease-free periodic orbit.

    Iterates the one-period solution map from the supersolution constant
    and from a small positive constant, both at once, until the sup change
    between sweeps drops below DEFAULT_TOL for each, then checks both fixed
    points agree within ten times DEFAULT_TOL.

    Raises:
        ConvergenceError: either iteration exhausts its sweep budget, or
            the two one-sided limits disagree.
    """
    stepper = CoupledStepper(config, infected=False)
    (upper, sweeps, residual, monotone_defect), (lower, lower_sweeps, _, _) = _fixed_points(
        stepper, _start_levels(config))
    gap = float(np.max(np.abs(upper - lower)))
    if gap > TWO_SIDED_FACTOR * DEFAULT_TOL:
        raise ConvergenceError(_ERR_SIDES_DISAGREE.format(gap=gap, budget=TWO_SIDED_FACTOR * DEFAULT_TOL))

    path = np.empty((stepper.n_steps + 1, upper.size))
    stepper.period(upper, path)
    scale = max(float(path.max()), -float(path.min()), 1e-300)
    orbit = PeriodicOrbit.from_samples(path, config.T, tolerance=max(10.0 * DEFAULT_TOL / scale, 1e-12))
    return DfeResult(orbit=orbit, iterations=sweeps, residual=residual, bracket_gap=gap,
                     monotone_defect=monotone_defect, lower_iterations=lower_sweeps,
                     clamp_count=stepper.clamp_count)


def monotone_sweep_levels(config: ModelConfig, sweeps: int) -> FloatArray:
    """Sup-norm of the iterates from the supersolution start, per sweep.

    The sequence never increases (up to rounding); exposing it lets callers
    check that property directly.
    """
    stepper = CoupledStepper(config, infected=False)
    u = np.full(config.grid.N + 1, upper_start_level(config))
    levels = [float(np.max(np.abs(u)))]
    for _ in range(sweeps):
        u = stepper.period(u)
        levels.append(float(np.max(np.abs(u))))
    return np.asarray(levels)

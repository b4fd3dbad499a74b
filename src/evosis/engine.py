"""Time stepping on the fixed domain: linear flows and the coupled system.

All operators discretize diffusion with the ghost-node (no-flux) Laplacian

    A u | interior  = (u[j-1] - 2 u[j] + u[j+1]) / h^2
    A u | ends      = (2 u[1] - 2 u[0]) / h^2,  (2 u[N-1] - 2 u[N]) / h^2

which is self-adjoint in the trapezoid inner product: with the weights
W = diag(1/2, 1, ..., 1, 1/2), the product WA is exactly symmetric (every
off-diagonal is 1/h^2), so its trapezoid-weighted column sums vanish and
pure diffusion conserves the trapezoid mass to rounding. Linear steps are
Crank-Nicolson in both diffusion and reaction with coefficients averaged
over the step endpoints; one tridiagonal solve per step.

The coupled susceptible/infected step treats diffusion implicitly and the
reaction explicitly in a predictor (backward Euler diffusion, which stays
stable for stiff modes where fully explicit diffusion would not) and then
a trapezoidal corrector, giving second order in time. It advances the
stacked state u = [S; I] of length 2(N+1) as one tridiagonal system: the
S and I blocks sit side by side and their off-diagonal is zero at the
seam between them, so the factorization never eliminates across it and
one solve gives the two per-species solves bit for bit. The compiled
solve runs the two blocks as a pair of chains, side by side, each in the
`dptts2` order; where a seam node is zero it takes the stacked order,
since a seam term x * 0 can flip a zero's sign. (An infinity in one block
crosses the seam only in the stacked order, as NaN from 0 * inf; the step
rejects both.) The reaction
is fused: the dilution n rho'/rho is folded once into precombined tables,
the linear rate a - dil of S and the linear loss gamma + dil of I.

With I identically zero the coupled step leaves I at zero, so the
disease-free orbit steps S alone on the same stepper:
`CoupledStepper(config, infected=False)` factors the S block only and
advances one S field, or several independent ones as rows of one
state, each equal bit for bit to the S half of the coupled step that
`simulate` runs.

Both engines cross a period in a compiled C loop (`steploop.c`, built
at first use by `steploop.library`), which also runs their factor
recurrence. Each loop takes a step's operations in the order of the
numpy forms that `tests/step_reference.py` keeps and solves as LAPACK
`pttrs` does, so each state equals those forms' bit for bit. The coupled
stepper's loop reads the coefficient tables by stride and the factor
tables in place, and `CoupledStepper.period` is its one caller, as
`PeriodMapOperator.apply` is of the period map's loop. That loop steps
the rows of one C-ordered state between two buffers, the last step
landing in the array returned.

All share one solve. Each per-step system (I - theta B) x = rhs, with
B = dt (nu A + diag q), is solved in its row-scaled form

    (W - theta dt (nu WA + W diag q)) x = W rhs,

a symmetric tridiagonal matrix (one block per species, a zero
off-diagonal at each seam) with off-diagonal -theta dt nu / h^2 and row
sums w (1 - theta dt q), where w = (1/2, 1, ..., 1, 1/2) per block.
`_FactorSet` factors it as L D L^T once per step from those row sums,
with additions and multiplications of positive numbers only (while
theta dt q < 1), so the factors stay accurate to rounding however
strongly diffusion dominates. Each solve is then one in-place
forward and back substitution in the order of LAPACK's `dptts2`, on the
rhs scaled by w, which the factor set keeps; independent right-hand
sides are solved two at a time. The
factors need positive definiteness. Since -WA is positive semidefinite,
W - theta dt nu WA is definite for every nu >= 0, and subtracting
theta dt W diag q keeps it so while theta dt sup q < 1. The steppers
(q = 0) are therefore always definite; the period map needs its
potential below 1/(theta dt), and a system that is not definite raises
`StepError`. Since I + theta B = 2I - (I - theta B),
each Crank-Nicolson or trapezoidal step (I - theta B) x = (I + theta B) u + f
is taken as x = (I - theta B)^-1 (2u + f) - u: one solve, no explicit
stencil. Every rhs reaches the systems scaled by w, with the power of
two folded into its terms: the period map passes u * 2w for w(2u), and
the coupled step scales its reaction terms by dt w or theta dt w and u
by w. Scaling by a power of two is exact, so each sum rounds as the
unscaled one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, StepError
from .model import EvolutionRate, Grid1D, ModelConfig, coefficient_table, compact_coefficient_table

FloatArray = npt.NDArray[np.floating[Any]]
PotentialFn = Callable[[FloatArray, float], Any]
DENOMINATOR_GUARD = 1e-12

_ERR_NONFINITE_STEP = "non-finite state after step {index} (t = {t:.6g})"
_ERR_NOT_DEFINITE = (
    "step {index}: the tridiagonal system is not positive definite (pivot {info} of {rows}); "
    "it needs theta*dt*sup q < 1, here theta*dt*sup q = {bound:.6g}"
)
_ERR_PERIODS = "periods: must be at least 1, got {periods}"
_ERR_STATE = "state of shape {shape}: the stepper takes {want}"
_ERR_PATH = "path must be a C-contiguous, writable float64 array of shape {shape}"


@dataclass(frozen=True, slots=True)
class LinearEquationSpec:
    """One scalar linear equation u_t = (d/rho^2) u_yy + q(y, t) u.

    ``potential`` is the growth coefficient q, vectorized over the node
    array.
    """

    d: float
    rho: EvolutionRate
    potential: PotentialFn
    grid: Grid1D
    steps_per_period: int

    @property
    def dt(self) -> float:
        return self.rho.period / self.steps_per_period


def endpoint_mean(table: FloatArray) -> FloatArray:
    """Per-step values from samples at the step endpoints: rows k and k+1 averaged."""
    return 0.5 * (table[:-1] + table[1:])


class _FactorSet:
    """L D L^T factors of per-step systems W(I - theta_dt*(B + diag q)), one per step.

    B is the block Laplacian of the scale vectors nus and W the block-end
    halving, which makes each system symmetric tridiagonal with
    off-diagonal -c, c = theta_dt nu_k / h^2 on each block (zero at the seam
    between blocks), and row sums s = w(1 - theta_dt q), q of shape
    (steps, N+1) only with one block. The factors come from those row-sum
    excesses, node by node along each step's block: with t = s at the
    first node of a block,

        D_i = t + c,  L_i = -c / D_i,  t <- s_{i+1} - t L_i,  D_N = t,

    so while s > 0 every operation adds or multiplies positive numbers and
    the factors are accurate to rounding however large c is (Alfa, Xue and
    Ye, Math. Comp. 71, 2002); these are the pivots d_i - c^2 / D_{i-1} of
    `pttrf`, without the subtraction that cancels when diffusion dominates.
    The compiled loop (`evosis_factor` in `steploop.c`) runs the recurrence
    in place on the row sums, for eight steps at a time as independent
    chains. Every pivot is positive while theta_dt*sup q < 1, and always
    when q is None; a pivot that is not positive, or NaN, raises
    `StepError`. The set keeps the step-major tables d (pivots) and e
    (multipliers, zero at the end of each block), which the compiled loops
    read in place, and the row weights w of W, by which its callers scale
    every right-hand side.

    Raises:
        KernelBuildError: the compiled loop cannot be built or loaded.
    """

    __slots__ = ("d", "e", "w")

    def __init__(self, grid: Grid1D, nus: tuple[FloatArray, ...], q: FloatArray | None,
                 theta_dt: float) -> None:
        from .steploop import library  # built at the first factor set, not at import

        n, blocks, steps = grid.N + 1, len(nus), nus[0].size
        weights = trapezoid_weights(grid) / grid.h
        self.w = np.tile(weights, blocks)
        # d holds the row sums s until node i's pivot overwrites s_i; the last
        # multiplier of each block (the seam, or past the end) stays zero
        d = np.empty((steps, blocks * n))
        e = np.zeros((steps, blocks * n))
        if q is None:
            d[:] = self.w
        else:
            np.multiply(q, -theta_dt, out=d)
            d += 1.0
            d *= weights
        inv_h2 = 1.0 / grid.h**2
        c = np.stack([(theta_dt * nu) * inv_h2 for nu in nus])
        library().evosis_factor(d.ctypes.data, e.ctypes.data, c.ctypes.data, n, blocks, steps)
        if not d.min() > 0.0:
            failed = ~(d > 0.0)
            k = int(np.argmax(failed.any(axis=1)))
            bound = theta_dt * float(np.max(q[k])) if q is not None else 0.0
            raise StepError(_ERR_NOT_DEFINITE.format(index=k, info=int(np.argmax(failed[k])) + 1,
                                                     rows=d.shape[1], bound=bound))
        self.d, self.e = d, e


def _check_path(path: FloatArray | None, shape: tuple[int, ...]) -> None:
    """ValueError unless path is None or a C-contiguous, writable float64 array of the given shape."""
    if path is not None and not (path.shape == shape and path.dtype == np.float64
                                 and path.flags.c_contiguous and path.flags.writeable):
        raise ValueError(_ERR_PATH.format(shape=shape))


# ---- linear period map ----

class PeriodMapOperator:
    """Action of the linear flow over one full period, with cached factors.

    Built from per-step coefficient tables: the endpoint-averaged potential
    q_bar of shape (M, N+1) and diffusion scale nu_bar of shape (M,). The
    compiled loop (`evosis_period_map` in `steploop.c`) crosses the period:
    a step writes u * 2w into the next state buffer, solves there in place
    and takes u off.

    Raises:
        KernelBuildError: the compiled loop cannot be built or loaded.
    """

    def __init__(self, grid: Grid1D, dt: float, nu_bar: FloatArray, q_bar: FloatArray) -> None:
        from .steploop import library

        self.grid = grid
        self.n_steps = nu_bar.shape[0]
        self._factors = _FactorSet(grid, (nu_bar,), q_bar, 0.5 * dt)
        self._two_w = 2.0 * self._factors.w  # w(2u) = 2w u
        self._library = library()

    @classmethod
    def from_spec(cls, spec: LinearEquationSpec) -> "PeriodMapOperator":
        times = np.linspace(0.0, spec.rho.period, spec.steps_per_period + 1)
        nodes = spec.grid.nodes
        nu = spec.d * np.asarray(spec.rho.value(times), dtype=float) ** -2.0
        q_nodes = np.empty((times.size, nodes.size))
        for k, t in enumerate(times):
            q_nodes[k] = spec.potential(nodes, float(t))
        return cls(spec.grid, spec.dt, endpoint_mean(nu), endpoint_mean(q_nodes))

    def apply(self, u: FloatArray, path: FloatArray | None = None) -> FloatArray:
        """Maps u(., 0) to u(., T); accepts a matrix of stacked columns.

        The columns are stepped as the rows of u's transpose, so the result
        is a fresh F-ordered array; u is never written. path, a C-contiguous
        float64 table of (M+1) slices of the transpose's shape, receives
        every time slice of the state; any other path raises ValueError.
        """
        v = np.ascontiguousarray(np.transpose(u), dtype=float)
        _check_path(path, (self.n_steps + 1,) + v.shape)
        out, spare = np.empty_like(v), np.empty_like(v)
        factors, m = self._factors, v.shape[-1]
        self._library.evosis_period_map(factors.d.ctypes.data, factors.e.ctypes.data, self._two_w.ctypes.data,
                                        m, v.size // m, self.n_steps, v.ctypes.data, out.ctypes.data,
                                        None if path is None else path.ctypes.data, spare.ctypes.data)
        return out.T


# ---- coupled susceptible/infected stepper ----

@dataclass(slots=True)
class PeriodRecord:
    """Per-period diagnostics of a long simulation."""

    index: int
    sup_I: float
    l1_I: float
    s_closure_defect: float


@dataclass(slots=True)
class SimulationSummary:
    records: list[PeriodRecord]
    final_S: FloatArray
    final_I: FloatArray
    clamp_count: int
    stop_reason: str
    """'extinct' once the infected sup fell below stop_below, which ends the run; else 'horizon'."""
    last_period: tuple[FloatArray, FloatArray, FloatArray] | None = None
    """Optional (times, S, I) samples of the final simulated period."""


class CoupledStepper:
    """Precomputed one-period stepper for the full nonlinear system.

    The state is one stacked vector u = [S; I] of length 2(N+1), S in
    u[:N+1] and I in u[N+1:]. The diffusion of both species is one
    tridiagonal system of two blocks joined by a zero seam, so a step makes
    one predictor solve and one corrector solve.

    Reaction terms at the nodes, in the order they are computed:

        inc = (beta S) I / (S + I)
        R_S = (S (gain - b S) - inc) + gamma I
        R_I = inc + (-loss) I

    with the precombined tables gain = a - dil and loss = gamma + dil,
    where dil = n * rho'(t)/rho(t), and the incidence forced to zero
    wherever S + I falls below a small denominator guard (or is NaN).
    Adding (-loss) I rounds as subtracting loss I does. Both right-hand
    sides, r dt + u and (r1 + r) dt/2 + u + u, are formed scaled by w, term
    by term: scaling by powers of two is exact, so each rounds as the
    unscaled sum does. `period` is the one way to step: it crosses the
    whole period from t_0 in the compiled loop, and its path receives
    every step's state. A non-finite state raises `StepError` naming the
    step, and tiny negatives are clamped to zero and counted in
    clamp_count.

    Coefficients are periodic, so all tables and factors are built once
    and reused every period; the a table itself is not kept. The stepper
    holds the tables gain, b, beta, gamma and minus_loss = -loss, each a
    read-only (M+1, N+1) view held at the shape it varies in (gain and
    loss are combined at that shape, and dil is one value on the
    constant-one rate, where it is zero), so only the factor tables are
    always full. The compiled loop (`steploop.c`) reads every table in
    place, by its strides, so none is copied; the stepper holds each one
    once for its lifetime, in an attribute of its own or, for the factor
    tables, of its two factor sets.

    With infected=False the stepper is the I = 0 invariant subsystem, the
    disease-free flow: it holds only the gain and b tables and the S-block
    factors, and the state is S alone, with reaction R_S = S (gain - b S)
    by the same first three operations. That state is one field of N+1
    nodes, or a C-order array of shape (rows, N+1) of independent fields,
    each solved as one right-hand side. Every row equals, bit for bit, the
    S half of the coupled step on [row; 0].

    Raises:
        KernelBuildError: the compiled loop cannot be built or loaded.
    """

    def __init__(self, config: ModelConfig, infected: bool = True) -> None:
        from .steploop import Stepper, Table, library  # built at the first stepper, not at import

        grid = config.grid
        m = config.steps_per_period
        self.n_steps = m
        self.dt = config.T / m
        self._half = 0.5 * self.dt
        n = self.n_nodes = grid.N + 1
        self._infected = infected
        times = np.linspace(0.0, config.T, m + 1)
        self.times = times
        nodes = grid.nodes
        shape = (times.size, n)
        dil = config.dilution(times[:1] if config.rho.kind == "constant-one" else times)[:, None]
        self.gain = np.broadcast_to(compact_coefficient_table(config.a, config.rho, nodes, times) - dil, shape)
        self.b = coefficient_table(config.b, config.rho, nodes, times)
        inv_rho2 = np.asarray(config.rho.value(times), dtype=float) ** -2.0
        nus: tuple[FloatArray, ...] = (endpoint_mean(config.d_S * inv_rho2),)
        tables = {"b": self.b, "gain": self.gain}
        if infected:
            self.beta = coefficient_table(config.beta, config.rho, nodes, times)
            gamma = compact_coefficient_table(config.gamma, config.rho, nodes, times)
            self.gamma = np.broadcast_to(gamma, shape)
            self.minus_loss = np.broadcast_to(-(gamma + dil), shape)
            tables.update(beta=self.beta, gamma=self.gamma, minus_loss=self.minus_loss)
            nus += (endpoint_mean(config.d_I * inv_rho2),)
        # predictor: backward Euler in diffusion; corrector: trapezoidal
        self._pred = _FactorSet(grid, nus, None, self.dt)
        self._corr = _FactorSet(grid, nus, None, self._half)
        # right-hand side scales of one solve, one w per block: w, dt w and dt/2 w
        self._scales = np.stack([scale * self._pred.w for scale in (1.0, self.dt, self._half)])
        self._library = library()
        factors = (self._pred.d, self._pred.e, self._corr.d, self._corr.e)
        self._kernel = Stepper(
            n=n, system=self._scales.shape[1], infected=infected, guard=DENOMINATOR_GUARD,
            **{name: Table(table.ctypes.data, *(stride // table.itemsize for stride in table.strides))
               for name, table in tables.items()},
            **{name: table.ctypes.data for name, table in zip(("pred_d", "pred_e", "corr_d", "corr_e"), factors)},
            **{name: row.ctypes.data for name, row in zip(("w", "dt_w", "half_w"), self._scales)})

    @property
    def clamp_count(self) -> int:
        """Negative state entries clamped to zero by every step so far."""
        return self._kernel.clamps

    def _state(self, u: FloatArray) -> tuple[FloatArray, int]:
        """u as a C-contiguous float64 array, and its number of fields; ValueError for a shape the stepper cannot take."""
        u = np.ascontiguousarray(u, dtype=float)
        n = self.n_nodes
        if self._infected:
            if u.shape != (2 * n,):
                raise ValueError(_ERR_STATE.format(shape=u.shape, want=f"({2 * n},)"))
        elif u.ndim not in (1, 2) or u.shape[-1] != n:
            raise ValueError(_ERR_STATE.format(shape=u.shape, want=f"({n},) or (rows, {n})"))
        return u, 1 if u.ndim == 1 else u.shape[0]

    def period(self, u: FloatArray, path: FloatArray | None = None) -> FloatArray:
        """Steps the state across one whole period into a fresh array, by the compiled loop; never writes u.

        The stepper keeps no reference to the array returned. path, a
        C-contiguous float64 table of (M+1) rows of u's shape, receives
        every time slice of the state. A step whose state is not finite
        raises StepError; the clamps of the steps before it are counted.
        """
        u, rows = self._state(u)
        _check_path(path, (self.n_steps + 1,) + u.shape)
        out, work = np.empty_like(u), np.empty(4 * u.size)
        taken = self._library.evosis_steps(self._kernel, rows, self.n_steps, u.ctypes.data, out.ctypes.data,
                                           None if path is None else path.ctypes.data, work.ctypes.data)
        if taken < self.n_steps:
            raise StepError(_ERR_NONFINITE_STEP.format(index=taken, t=self.times[taken + 1]))
        return out


def trapezoid_weights(grid: Grid1D) -> FloatArray:
    w = np.full(grid.N + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def simulate(config: ModelConfig, periods: int, record_last_period: bool = False,
             stop_below: float | None = None) -> SimulationSummary:
    """Runs the coupled system for a whole number of periods.

    Per period the summary records the sup and L1 norms of the infected
    density at the period end and the relative change of the susceptible
    field across the period, which measures approach to a periodic orbit.
    stop_below ends the run early once the infected sup norm falls under
    the given level (the field only keeps shrinking from there), and the
    summary's stop_reason says whether it did.

    Raises:
        ConfigurationError: periods is below one.
    """
    if periods < 1:
        raise ConfigurationError([_ERR_PERIODS.format(periods=periods)])
    stepper = CoupledStepper(config)
    grid = config.grid
    n = grid.N + 1
    weights = trapezoid_weights(grid)
    u = np.concatenate((config.initial_S.evaluate(grid.nodes, config.L),
                        config.initial_I.evaluate(grid.nodes, config.L)))
    S, I = u[:n], u[n:]
    records: list[PeriodRecord] = []
    last: tuple[FloatArray, FloatArray, FloatArray] | None = None
    stop_reason = "horizon"
    for m in range(periods):
        recording = record_last_period and m == periods - 1
        path = np.empty((stepper.n_steps + 1, 2 * n)) if recording else None
        s_start = S
        u = stepper.period(u, path)
        S, I = u[:n], u[n:]
        scale = max(float(np.max(np.abs(S))), 1e-300)
        records.append(PeriodRecord(
            index=m + 1,
            sup_I=float(np.max(np.abs(I))),
            l1_I=float(weights @ np.abs(I)),
            s_closure_defect=float(np.max(np.abs(S - s_start))) / scale,
        ))
        if path is not None:
            last = (stepper.times, path[:, :n], path[:, n:])
        if stop_below is not None and records[-1].sup_I < stop_below:
            stop_reason = "extinct"
            break
    return SimulationSummary(records=records, final_S=S, final_I=I, clamp_count=stepper.clamp_count,
                             stop_reason=stop_reason, last_period=last)

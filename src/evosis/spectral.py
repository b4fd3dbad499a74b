"""Basic reproduction number via the periodic linearized infection flow.

R0 is the unique mu > 0 at which the period map of

    Phi_t = (d_I/rho^2) Phi_yy + (beta/mu - gamma - n*rho'/rho) Phi

has spectral radius one. The map is positivity preserving, its radius r(mu)
is strictly decreasing in mu, and the no-flux sandwich

    int min_y beta / int max_y gamma <= R0 <= int max_y beta / int min_y gamma

supplies the root search's first trial (its geometric mean) and the slope
of its first steps (the geometric mean of its two beta integrals, between
which d ln r/d(1/mu) lies). Widened by a factor of two, it is a safeguard
bracket, evaluated only when a step would leave it. A closed form exists
when beta is spatially constant and gamma is separable c(y)/rho^2: then
R0 = beta_hat divided by the product of the principal eigenvalue of
-d_I w'' + c w and the period average of rho^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from .engine import LinearEquationSpec, PeriodMapOperator, endpoint_mean, step_lattice
from .errors import ConvergenceError, NotApplicableError, StepError
from .model import EvolutionRate, Grid1D, ModelConfig, coefficient_table, compact_coefficient_table
from .quadrature import mean_inverse_rho_squared

FloatArray = npt.NDArray[np.floating[Any]]

RADIUS_TOL = 1e-10
RANK_TOL = 1e-12  # a Krylov column that keeps less of its norm than this after projection is rounding
DEFECT_TOL = 1e-8

LAMBDA_STAR_CONVENTIONS = ("neumann", "paper-example")

_ERR_BRACKET = (
    "the unit spectral radius is not bracketed by [0.5*lower, 2*upper] = [{lo:.3g}, {hi:.3g}]"
    " (radii {radii})"
)
_ERR_CONVENTION = "unknown lambda-star convention {value!r}, expected one of {known}"
_ERR_NOT_FINITE = "the period map left the float range: one period of the flow overflows"
_ERR_NOT_SEPARABLE = (
    "closed form needs spatially constant beta and gamma of the form c(y)/rho^2; got beta={beta!r}, gamma={gamma!r}"
)


@dataclass(frozen=True, slots=True)
class R0Result:
    """Computed reproduction number with its certificate data.

    iterations counts every radius evaluation of the root search, a
    widened bracket end included when one was taken. error_estimate is
    R0^2 |ln r| / slope, the distance from value to the unit-radius root
    of the discrete map that the last trial's ln r implies, with the slope
    of ln r in x = 1/mu measured by the secant through the last two trials
    (the sandwich slope after a single trial, or when that secant is not
    finite and positive); it leaves out the discretization error.
    eigenfunction holds the positive Floquet mode over one period, shape
    (M+1, N+1), sup-normalized on the initial slice.
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    defect: float
    error_estimate: float
    eigenfunction: FloatArray


@dataclass(frozen=True, slots=True)
class BoundsResult:
    """No-flux sandwich bounds with their four period integrals."""

    lower: float
    upper: float
    min_beta_integral: float
    max_beta_integral: float
    min_gamma_integral: float
    max_gamma_integral: float


# ---- spectral radius of the period map ----

def _cosines(n: int, first: int, stop: int) -> FloatArray:
    """Columns cos(j pi y/L) at the n nodes, first <= j < stop."""
    return np.cos(np.outer(np.arange(n), np.arange(first, stop)) * (math.pi / (n - 1)))


def _orthonormal_extension(basis: FloatArray, block: FloatArray) -> FloatArray:
    """Orthonormal columns that extend basis by what block adds to its span.

    Two passes each orthogonalize block against basis and QR-factor it, so
    the columns stay orthogonal to basis where the block's own columns
    nearly cancel. A column whose R diagonal falls below RANK_TOL times its
    norm before projection adds only rounding, and is dropped.
    """
    norms = np.linalg.norm(block, axis=0)
    r = np.eye(block.shape[1])
    for _ in range(2):
        block, step = np.linalg.qr(block - basis @ (basis.T @ block))
        r = step @ r
    return block[:, np.abs(np.diag(r)) > RANK_TOL * norms]


def _operator_radius(op: PeriodMapOperator,
                     block: FloatArray | None = None) -> tuple[float, FloatArray, FloatArray]:
    """(radius, positive sup-normalized mode, block that warm-starts the next call).

    Block Krylov Rayleigh-Ritz from block or cos(j pi y/L), j < 2. It keeps
    one orthonormal basis V with its images W = P V, and each iteration
    applies the map once, to a new block: the last block's images,
    orthogonalized against V and stripped of the columns that add only
    rounding (`_orthonormal_extension`). When a whole block deflates, the
    next unused cosines take its place. Among the eigenpairs (theta, y) of
    V^T W it picks the largest real positive theta whose Ritz vector V y is
    one-signed. The map is strongly positive, so its radius is its one
    eigenvalue with a positive eigenvector; stiff Crank-Nicolson modes of
    modulus near one are passed over by sign. With the residual
    |W y - theta V y|/|theta V y| (sup norms), it stops as soon as that
    residual is below RADIUS_TOL, which certifies the pair from one apply
    (the first, when the start block holds the eigenvector), or once theta
    moved by less than RADIUS_TOL*max(1, theta) with the residual below
    1e-7. A basis of all N+1 columns is final, since its Ritz pairs are the
    eigenpairs: there the pick stands, or ConvergenceError if it finds no
    pair. An apply that returns a non-finite entry, where the map
    overflows, raises StepError. The warm-start block holds the Perron
    Ritz vector and the Ritz vector of the next-largest real theta.
    """
    n = op.grid.N + 1
    used = 0 if block is not None else 2  # cosines taken into the basis so far
    v = w = np.empty((n, 0))
    new = _orthonormal_extension(v, _cosines(n, 0, 2) if block is None else block)
    estimate = math.inf
    while True:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or NaN below
            image = op.apply(new)
        if not np.isfinite(image).all():
            raise StepError(_ERR_NOT_FINITE)
        v, w = np.hstack((v, new)), np.hstack((w, image))
        values, vectors = np.linalg.eig(v.T @ w)
        ritz = v @ vectors.real
        signs = np.sign(ritz[np.argmax(np.abs(ritz), axis=0), np.arange(ritz.shape[1])])
        ritz *= signs
        real = values.imag == 0.0
        perron = real & (values.real > 0.0) & (ritz.min(axis=0) >= -1e-10 * ritz.max(axis=0))
        certified = False
        if perron.any():
            j = np.flatnonzero(perron)[np.argmax(values.real[perron])]
            radius = float(values[j].real)
            residual = np.max(np.abs(w @ (signs[j] * vectors[:, j].real) - radius * ritz[:, j]))
            scale = radius * np.max(ritz[:, j])
            certified = residual < RADIUS_TOL * scale or (
                abs(radius - estimate) < RADIUS_TOL * max(1.0, radius) and residual < 1e-7 * scale)
            estimate = radius
        full = v.shape[1] == n
        if not (certified or full):  # the next block, built only once the pair is not certified
            new = _orthonormal_extension(v, image)
            while new.shape[1] == 0 and used < n:  # the block deflated: go on from the next cosines
                new = _orthonormal_extension(v, _cosines(n, used, min(used + image.shape[1], n)))
                used += image.shape[1]
            full = new.shape[1] == 0  # every cosine deflated too: V spans the space up to rounding
        if certified or full:
            if not perron.any():
                raise ConvergenceError("the period map has no real positive eigenvalue with a one-signed eigenvector")
            real[j] = False
            others = np.flatnonzero(real)
            warm = [j] if others.size == 0 else [j, others[np.argmax(values.real[others])]]
            return radius, ritz[:, j] / np.max(ritz[:, j]), ritz[:, warm]


def period_map_spectral_radius(spec: LinearEquationSpec) -> float:
    """Spectral radius of the one-period flow of a linear equation.

    This is the eigenvalue with a positive eigenfunction, from the block
    Krylov Rayleigh-Ritz route of `_operator_radius`.

    Raises:
        StepError: the map is not positive definite at some step, or one
            period of it overflows the float range.
        ConvergenceError: the full basis has no such eigenpair.
    """
    return _operator_radius(PeriodMapOperator.from_spec(spec))[0]


# ---- linearized-infection period maps ----

def _phi_operators(config: ModelConfig) -> Callable[[float], PeriodMapOperator]:
    """Period map of the Phi-equation as a function of mu, from tables built once.

    beta and the mu-independent rest gamma + n*rho'/rho are sampled on the
    stepper's lattice (`step_lattice`) and averaged separately, and each
    trial's factor set forms its potential beta_bar/mu - rest_bar row by
    row in the compiled loop, with no profile evaluated and no table of
    its own. Both are held at the shape they vary in
    (`compact_coefficient_table`, and the lattice's dilution), since beta
    is constant and gamma varies in time only on most configurations, and
    take their step means by `endpoint_mean`. Elementwise, each equals the
    step mean of the full table bit for bit, and the loop reads it in place
    by its strides.
    """
    grid = config.grid
    times, inv_rho2, dil = step_lattice(config)
    beta = compact_coefficient_table(config.beta, config.rho, grid.nodes, times)
    gamma = compact_coefficient_table(config.gamma, config.rho, grid.nodes, times)
    rest_bar = endpoint_mean(gamma + dil)  # first, so that beta_bar can reuse the memory of the sum
    beta_bar = endpoint_mean(beta)
    nu_bar = endpoint_mean(config.d_I * inv_rho2)
    dt = config.T / config.steps_per_period
    return lambda mu: PeriodMapOperator(grid, dt, nu_bar, (beta_bar, rest_bar, mu))


def invasion_eigenvalue(config: ModelConfig) -> float:
    """Principal periodic eigenvalue of the unscaled infection equation.

    This is -ln r(1)/T for the potential beta - gamma - n*rho'/rho; its sign
    is opposite to the sign of R0 - 1.

    Raises:
        StepError: the period map at mu = 1 is not positive definite at some
            step (theta*dt*sup q >= 1 there), or one period of it overflows
            the float range.
        ConvergenceError: the period map has no positive one-signed eigenpair.
    """
    return -math.log(_operator_radius(_phi_operators(config)(1.0))[0]) / config.T


# ---- sandwich bounds ----

def r0_bounds(config: ModelConfig) -> BoundsResult:
    """No-flux comparison bounds from spatial extremes of beta and gamma.

    Extremes are taken over the grid nodes (the profiles in use are
    monotone in space, so nodal extremes are exact) at each of 257
    uniform time samples (256 panels), then integrated over one period by
    the trapezoid rule.
    """
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 257)
    beta = coefficient_table(config.beta, config.rho, nodes, times)
    gamma = coefficient_table(config.gamma, config.rho, nodes, times)

    def integral(values: FloatArray) -> float:
        return float(np.trapezoid(values, dx=config.T / 256))

    min_beta = integral(np.min(beta, axis=1))
    max_beta = integral(np.max(beta, axis=1))
    min_gamma = integral(np.min(gamma, axis=1))
    max_gamma = integral(np.max(gamma, axis=1))
    return BoundsResult(
        lower=min_beta / max_gamma,
        upper=max_beta / min_gamma,
        min_beta_integral=min_beta,
        max_beta_integral=max_beta,
        min_gamma_integral=min_gamma,
        max_gamma_integral=max_gamma,
    )


# ---- R0 as the unit-radius crossing ----

def compute_r0(config: ModelConfig) -> R0Result:
    """Finds R0 by driving the period-map spectral radius to one.

    The search runs in x = 1/mu, where f = ln r is increasing and close to
    affine: its slope is the period integral of an eigen-weighted mean of
    beta, so it lies between the sandwich's two beta integrals and equals
    both when beta is constant in space. The first trial is the sandwich
    mean mu = sqrt(lower*upper), which is already the root when lower ==
    upper. While only one side of the crossing is known, each step is a
    Newton step: the first with the slope
    sqrt(min_beta_integral*max_beta_integral), later ones with the slope
    the last two trials measured, kept between those two integrals. Once
    both signs have been seen, a secant step through the last two trials is
    taken if it falls strictly inside the known bracket and is no longer
    than half the step before last, else geometric bisection. The search
    stops once |r - 1| <= DEFECT_TOL, and the mode of that last radius
    evaluation seeds the eigenfunction. Each radius comes from the block
    Krylov Rayleigh-Ritz route of `_operator_radius`, warm-started from two
    Ritz vectors of the previous trial mu: the Perron one and the one of the
    next-largest real Ritz value. It stops as soon as the Perron pair's
    relative residual is below RADIUS_TOL, so a trial whose start block
    already holds the eigenvector (beta and gamma constant in space) or lies
    near the one before costs one apply.

    The sandwich widened by a factor of two on each side, [0.5*lower,
    2*upper], absorbs discretization drift and serves only as a safeguard:
    an end of it is evaluated when a Newton step would leave it or a radius
    is not finite, and if that end shows the same sign as every trial
    before it, the crossing is not bracketed. Since r(mu) is monotone with a
    unique unit crossing, any trial that sees the other sign closes the
    bracket.

    A trial mu whose period map is not positive definite, or overflows the
    float range, counts as r = +inf. The definite set is the half-line
    above a limit that lies below the root (r grows without bound as mu
    falls to it), so such a mu is on the low side of the crossing; a map
    that grows a unit field past the float range in one period is taken
    to lie there too. Likewise a trial mu whose full basis has no
    positive one-signed eigenpair counts as r = 0, the high side: a Perron
    root that the full basis misses is lost in rounding below the stiff
    modes, whose modulus is below one.

    Raises:
        ConvergenceError: the widened bracket does not straddle r = 1, or
            the root search stalls.
    """
    operator_at = _phi_operators(config)
    bounds = r0_bounds(config)
    slope = sandwich_slope = math.sqrt(bounds.min_beta_integral * bounds.max_beta_integral)
    # the widened end toward the root, in x: below a trial with r > 1, above one with r < 1
    end_toward = {1: 0.5 / bounds.upper, -1: 2.0 / bounds.lower}
    block: FloatArray | None = None
    mode: FloatArray | None = None
    op: PeriodMapOperator | None = None

    def radius_at(mu: float) -> float:
        nonlocal block, mode, op
        op = None  # release the previous factors before building the next
        try:
            op = operator_at(mu)
            r, mode, block = _operator_radius(op, block)
        except StepError:
            return math.inf
        except ConvergenceError:
            return 0.0
        return r

    radii: list[str] = []
    # x of the nearest trial on each side of the crossing, keyed by the sign of ln r
    near: dict[int, float] = {}
    last = (math.nan, math.nan)  # (x, ln r) of the trial before
    moves: list[float] = []  # |step| of every trial taken once both sides were known
    x = 1.0 / math.sqrt(bounds.lower * bounds.upper)
    defect = math.inf
    for iterations in range(1, 80 + 1):
        r = radius_at(1.0 / x)
        radii.append(f"{r:.6g} at mu = {1.0 / x:.6g}")
        defect = abs(r - 1.0)
        if defect <= DEFECT_TOL:
            break
        f = math.log(r) if r else -math.inf
        sign = 1 if f > 0.0 else -1
        near[sign] = x
        x_last, f_last = last
        last = (x, f)
        if -sign not in near:
            end = end_toward[sign]
            if x == end:
                raise ConvergenceError(_ERR_BRACKET.format(
                    lo=1.0 / end_toward[-1], hi=1.0 / end_toward[1], radii=", ".join(radii)))
            if iterations > 1:
                # the slope the last two trials measured, inside the range
                # the sandwich allows; the sandwich slope alone converges
                # only linearly when the eigenfunction sits where beta is small
                slope = min(max((f - f_last) / (x - x_last), bounds.min_beta_integral), bounds.max_beta_integral)
            x -= f / slope
            if (x - end) * sign <= 0.0:  # the step would leave the widened bracket
                x = end
        else:
            x_lo, x_hi = near[-1], near[1]
            # the secant through the last two trials; an infinite ln r makes it NaN or an end
            x_new = x - f * (x - x_last) / (f - f_last) if f != f_last else math.nan
            # a step longer than half the one before last bisects instead,
            # so secants that creep along a sharply bent ln r cannot stall
            if not x_lo < x_new < x_hi or (len(moves) > 1 and abs(x_new - x) > 0.5 * moves[-2]):
                x_new = math.sqrt(x_lo * x_hi)
            moves.append(abs(x_new - x))
            x = x_new
    else:
        raise ConvergenceError(f"unit-radius search stalled with defect {defect:.3e}")

    path = np.empty((op.n_steps + 1, mode.size))
    op.apply(np.abs(mode), path)
    path /= max(float(np.max(np.abs(path[0]))), 1e-300)
    f = math.log(r)
    secant = (f - last[1]) / (x - last[0]) if x != last[0] else math.nan  # NaN after a single trial
    return R0Result(
        value=1.0 / x,
        bracket=(bounds.lower, bounds.upper),
        iterations=iterations,
        defect=defect,
        error_estimate=abs(f) / (secant if 0.0 < secant < math.inf else sandwich_slope) / x**2,
        eigenfunction=path,
    )


# ---- closed form for separable recovery ----

def r0_closed_form(beta_hat: float, lambda_star: float, rho: EvolutionRate, panels: int = 256) -> float:
    """R0 = beta_hat / (lambda_star * period mean of rho^-2)."""
    return beta_hat / (lambda_star * mean_inverse_rho_squared(rho, panels))


def lambda_star_from_config(config: ModelConfig, convention: str = "paper-example") -> float:
    """Principal elliptic eigenvalue of the separable recovery profile.

    convention selects the endpoint condition of the comparison problem:
    'neumann' matches the no-flux model; 'paper-example' uses absorbing
    endpoints, the convention behind the worked examples. The grid has the
    config's intervals, but at least 200.

    The eigenvalue is the smallest of the symmetric tridiagonal
    discretization on that grid (LAPACK stebz). Absorbing endpoints drop
    the two end nodes. No-flux endpoints use ghost nodes, whose unsymmetric
    end rows couple each end to its neighbour with weight -2d/h^2; the
    similarity by the square root of the trapezoid weights makes the matrix
    symmetric with -sqrt(2)*d/h^2 there, and keeps its eigenvalues.

    scipy is imported here, not with the module: this is the package's one
    scipy call, only `reproduce` reaches it, and `scipy.linalg` would more
    than double the import time of every other command.
    """
    from scipy.linalg import eigh_tridiagonal

    if convention not in LAMBDA_STAR_CONVENTIONS:
        raise ValueError(_ERR_CONVENTION.format(value=convention, known=LAMBDA_STAR_CONVENTIONS))
    _require_closed_form(config)
    grid = Grid1D(L=config.L, N=max(config.grid_points, 200))
    assert config.gamma.space is not None
    c_nodes = np.asarray(config.gamma.space.evaluate_z(grid.nodes), dtype=float)
    w = config.d_I / grid.h**2
    if convention == "neumann":
        diag = 2.0 * w + c_nodes
        off = np.full(c_nodes.size - 1, -w)
        off[0] = off[-1] = -math.sqrt(2.0) * w
    else:
        diag = 2.0 * w + c_nodes[1:-1]
        off = np.full(c_nodes.size - 3, -w)
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0])


def _require_closed_form(config: ModelConfig) -> None:
    gamma = config.gamma
    separable = (
        gamma.form == "separable"
        and gamma.space is not None
        and gamma.g_mean == 0.0
        and not gamma.g_harmonics
    )
    if config.beta.form != "constant" or not separable:
        raise NotApplicableError(_ERR_NOT_SEPARABLE.format(beta=config.beta.form, gamma=gamma.form))


def closed_form_r0(config: ModelConfig, convention: str = "paper-example") -> float:
    """Closed-form R0 for spatially constant beta and separable gamma.

    Raises:
        NotApplicableError: the coefficient shapes do not admit the form.
    """
    lam = lambda_star_from_config(config, convention)
    return r0_closed_form(config.beta.c0, lam, config.rho)


# ---- eigenfunction monotonicity certificate ----

def eigenfunction_monotonicity_certificate(config: ModelConfig, result: R0Result) -> str:
    """Checks the spatial monotonicity the comparison theory predicts.

    Returns 'increasing' or 'decreasing' when every interior nodal
    difference of every time slice has the predicted strict sign,
    'violated' when some difference breaks it, and 'not-applicable' when
    the coefficient slopes do not satisfy either sign condition (recovery
    strictly decreasing with transmission nondecreasing, or the mirrored
    pair).
    """
    s_beta = config.beta.z_derivative_sign()
    s_gamma = config.gamma.z_derivative_sign()
    if s_gamma < 0 and s_beta >= 0:
        expected = 1.0
        verdict = "increasing"
    elif s_gamma > 0 and s_beta <= 0:
        expected = -1.0
        verdict = "decreasing"
    else:
        return "not-applicable"
    differences = expected * np.diff(result.eigenfunction, axis=1)
    return verdict if bool(np.all(differences > 0.0)) else "violated"

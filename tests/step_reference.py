"""Frozen plain forms of the engine's step arithmetic, for bit-for-bit checks of its step cores.

`ReferenceStepper` takes the coupled IMEX step and `reference_apply` the
period map's Crank-Nicolson step one plain numpy expression at a time,
allocating as they go, in the operation order that the engine's cores
keep. Each rounds as the engine does only if every sum and product is
grouped the same way:

    inc = ((beta S) I) / (S + I),        zero where S + I < DENOMINATOR_GUARD
    R_S = ((gain - b S) S - inc) + gamma I
    R_I = inc - loss I
    rhs = r (dt w) + u w                  (predictor, solved in place)
    x   = ((((r1 + r) (dt/2 w)) + u w) + u w)  (corrector, solved in place), less u

with gain = a - dil and loss = gamma + dil, dil = n rho'/rho, and the
S-only form R_S = (gain - b S) S. The period map step is
x = solve(u (2w)) - u. The tables are built here from the config, not
read from the stepper; the solves are LAPACK `pttrs` on the stepper's
own factor tables (`PttrsFactors`), which the engine's tests check
separately, unless others are passed in.
`assert_same_bits` compares results as raw bits, so a zero's sign counts
as it does in the `repr` of a CSV artifact.
"""

from __future__ import annotations

import numpy as np

from evosis.engine import DENOMINATOR_GUARD, CoupledStepper, PeriodMapOperator
from evosis.errors import StepError
from evosis.model import ModelConfig, coefficient_table
from tridiagonal_reference import PttrsFactors


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """got and want hold the same doubles bit for bit: -0.0 differs from 0.0, unlike under np.array_equal."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (got.shape, want.shape)
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert not differ.any(), f"{np.count_nonzero(differ)} entries differ, first at {np.argwhere(differ)[0]}"


class ReferenceStepper:
    """The coupled step (or, with infected=False, its S-only form) on the solves of `stepper`.

    solves, a (predictor, corrector) pair with `PttrsFactors.solve`'s
    signature, replaces the `pttrs` solves on the stepper's own factors.
    """

    def __init__(self, config: ModelConfig, stepper: CoupledStepper, infected: bool = True,
                 solves: tuple | None = None) -> None:
        times, nodes = stepper.times, config.grid.nodes
        dil = config.dilution(times)[:, None]
        table = {name: coefficient_table(getattr(config, name), config.rho, nodes, times)
                 for name in ("a", "b", "beta", "gamma")}
        self.gain, self.b = table["a"] - dil, table["b"]
        self.beta, self.gamma, self.loss = table["beta"], table["gamma"], table["gamma"] + dil
        self.n = self.n_nodes = nodes.size
        self.infected, self.dt, self.n_steps = infected, stepper.dt, stepper.n_steps
        self.pred, self.corr = solves or (PttrsFactors(stepper._pred), PttrsFactors(stepper._corr))
        self.w = stepper._pred.w
        self.clamp_count = 0

    def reaction(self, u: np.ndarray, k: int) -> np.ndarray:
        S = u[:self.n] if self.infected else u
        r_S = (self.gain[k] - self.b[k] * S) * S
        if not self.infected:
            return r_S
        I = u[self.n:]
        total = S + I
        inc = np.zeros_like(I)
        np.divide(self.beta[k] * S * I, total, out=inc, where=total >= DENOMINATOR_GUARD)
        return np.concatenate(((r_S - inc) + self.gamma[k] * I, inc - self.loss[k] * I))

    def step(self, u: np.ndarray, k: int) -> np.ndarray:
        r = self.reaction(u, k)
        uw = u * self.w
        rhs = r * (self.dt * self.w) + uw
        self.pred.solve(k, rhs.T)
        nxt = (((self.reaction(rhs, k + 1) + r) * ((0.5 * self.dt) * self.w)) + uw) + uw
        self.corr.solve(k, nxt.T)
        nxt = nxt - u
        if not np.all(np.isfinite(nxt)):
            raise StepError(f"non-finite state after step {k}")
        if np.any(nxt < 0.0):
            self.clamp_count += int(np.count_nonzero(nxt < 0.0))
            nxt = np.maximum(nxt, 0.0)
        return nxt

    def path(self, u: np.ndarray) -> np.ndarray:
        """Every time slice of one period from u, as an (M+1)-row table."""
        rows = [np.array(u, dtype=float)]
        for k in range(self.n_steps):
            rows.append(self.step(rows[-1], k))
        return np.array(rows)

    def period(self, u: np.ndarray) -> np.ndarray:
        return self.path(u)[-1]


def reference_apply(op: PeriodMapOperator, u: np.ndarray) -> np.ndarray:
    """The period map of u, a field or a block of columns, one Crank-Nicolson step at a time."""
    v = np.ascontiguousarray(np.transpose(u), dtype=float)  # one row per column of u
    two_w, factors = 2.0 * op._factors.w, PttrsFactors(op._factors)
    for k in range(op.n_steps):
        x = v * two_w
        factors.solve(k, x.T)
        v = x - v
    return v.T

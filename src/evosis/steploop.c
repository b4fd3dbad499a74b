/* The compiled time-stepping core of evosis.engine: the period loop of the coupled IMEX stepper
 * (CoupledStepper), the Crank-Nicolson period map (PeriodMapOperator) and the factor recurrence of
 * their tridiagonal systems (_FactorSet).
 *
 * Each coupled step takes the operations of the stepper's arithmetic in their
 * documented order, one node at a time, so every sum and product rounds as
 * the term-by-term numpy form in tests/step_reference.py does:
 *
 *     inc = ((beta S) I) / (S + I),     zero where S + I < guard (or NaN)
 *     R_S = ((gain - b S) S - inc) + gamma I
 *     R_I = inc + (-loss) I
 *     rhs = r (dt w) + u w                            predictor, solved in place
 *     x   = (((r1 + r) (dt/2 w)) + u w) + u w         corrector, solved in place
 *     x  <- x - u, then the finite check and the clamp
 *
 * The S-only form (infected == 0) steps `rows` independent S fields with
 * R_S = (gain - b S) S. A period-map step is x = u (2w), solved in place,
 * less u. The solves are LAPACK pttrs: each dependent chain keeps the
 * dptts2 order, and independent chains run in pairs in one loop, so that
 * their latencies overlap: the S and I blocks of a coupled step, and two
 * S-only rows or two period-map columns at a time. The seam multiplier
 * between S and I is zero, so the pair gives the stacked system's values;
 * where a seam node is zero, whose sign a seam term can flip, the coupled
 * solve keeps the stacked order (see solve_blocks). Built with
 * -ffp-contract=off and without fast-math, so no product is fused into a sum.
 */

#include <math.h>
#include <string.h>

/* A coefficient table read in place: element strides per time level and per node (often 0). */
struct table {
    const double *values;
    long level, node;
};

struct stepper {
    long n;          /* nodes per field, N + 1 */
    long system;     /* rows of one solve: 2n for [S; I], n for S alone */
    long infected;
    double guard;
    struct table b, gain, beta, gamma, minus_loss;
    const double *pred_d, *pred_e, *corr_d, *corr_e;  /* step-major factor tables, rows of length `system` */
    const double *w, *dt_w, *half_w;                  /* row weights of one solve, times 1, dt and dt/2 */
    long clamps;                                      /* negative entries clamped to zero so far */
};

/* The reaction terms of `rows` fields of u at t_k, into r. */
static void reaction(const struct stepper *s, long rows, long k, const double *u, double *r)
{
    const long n = s->n;
    const double *b = s->b.values + k * s->b.level, *gain = s->gain.values + k * s->gain.level;
    const long bs = s->b.node, gs = s->gain.node;
    if (!s->infected) {
        for (long row = 0; row < rows; row++, u += n, r += n)
            for (long j = 0; j < n; j++)
                r[j] = (gain[j * gs] - b[j * bs] * u[j]) * u[j];
        return;
    }
    const double *beta = s->beta.values + k * s->beta.level, *gamma = s->gamma.values + k * s->gamma.level;
    const double *minus_loss = s->minus_loss.values + k * s->minus_loss.level;
    const long es = s->beta.node, cs = s->gamma.node, ls = s->minus_loss.node;
    const double guard = s->guard;
    for (long j = 0; j < n; j++) {
        const double S = u[j], I = u[n + j], total = S + I;
        const double r_S = (gain[j * gs] - b[j * bs] * S) * S;
        double inc = (beta[j * es] * S) * I;
        inc = total >= guard ? inc / total : 0.0;
        r[j] = (r_S - inc) + gamma[j * cs] * I;
        r[n + j] = inc + minus_loss[j * ls] * I;
    }
}

/* The two sweeps of pttrs in LAPACK dptts2 order, on one right-hand side x of length m, in place. */
static void forward(const double *e, long m, double *x)
{
    for (long i = 1; i < m; i++)
        x[i] = x[i] - x[i - 1] * e[i - 1];
}

static void back(const double *d, const double *e, long m, double *x)
{
    x[m - 1] = x[m - 1] / d[m - 1];
    for (long i = m - 2; i >= 0; i--)
        x[i] = x[i] / d[i] - x[i + 1] * e[i];
}

/* The same sweeps on two independent right-hand sides x and y of length m, each with its own factors,
 * in one loop: each chain's running value stays in a local, so the two latency chains overlap, and
 * each takes the operations of `forward` and `back` in their order. */
static void forward_pair(const double *restrict ex, const double *restrict ey, long m, double *restrict x,
                         double *restrict y)
{
    double a = x[0], b = y[0];
    for (long i = 1; i < m; i++) {
        a = x[i] - a * ex[i - 1];
        b = y[i] - b * ey[i - 1];
        x[i] = a;
        y[i] = b;
    }
}

static void back_pair(const double *restrict dx, const double *restrict ex, const double *restrict dy,
                      const double *restrict ey, long m, double *restrict x, double *restrict y)
{
    double a = x[m - 1] / dx[m - 1], b = y[m - 1] / dy[m - 1];
    x[m - 1] = a;
    y[m - 1] = b;
    for (long i = m - 2; i >= 0; i--) {
        a = x[i] / dx[i] - a * ex[i];
        b = y[i] / dy[i] - b * ey[i];
        x[i] = a;
        y[i] = b;
    }
}

/* pttrs on `rows` contiguous right-hand sides of length m, in place: two at a time, an odd last one alone. */
static void solve(const double *d, const double *e, long m, long rows, double *x)
{
    for (; rows >= 2; rows -= 2, x += 2 * m) {
        forward_pair(e, e, m, x, x + m);
        back_pair(d, e, d, e, m, x, x + m);
    }
    if (rows) {
        forward(e, m, x);
        back(d, e, m, x);
    }
}

/* pttrs on the stacked [S; I] system of two blocks of n nodes (one coupled state), in place. The seam
 * multiplier e[n-1] is zero, so each seam term, x[n] - x[n-1] * 0 and x[n-1] / d[n-1] - x[n] * 0, leaves
 * its value as it is, with two exceptions: a zero, whose sign it can flip, and a block that is not
 * finite, which it carries into the other as NaN (0 * inf); then the step fails at the same index either
 * way. So the blocks are solved as a pair, and a sweep in the stacked order where its seam value is zero:
 * x[n] before the forward sweep, x[n-1] / d[n-1] before the back sweep. */
static void solve_blocks(const double *d, const double *e, long n, double *x)
{
    if (x[n] == 0.0)
        forward(e, 2 * n, x);
    else
        forward_pair(e, e + n, n, x, x + n);
    if (x[n - 1] / d[n - 1] == 0.0)
        back(d, e, 2 * n, x);
    else
        back_pair(d, e, d + n, e + n, n, x, x + n);
}

/* A step's solve with its factors d, e, in place: the [S; I] blocks of a coupled state, or `rows` S fields. */
static void solve_state(const struct stepper *s, const double *d, const double *e, long rows, double *x)
{
    if (s->infected)
        solve_blocks(d, e, s->n, x);
    else
        solve(d, e, s->system, rows, x);
}

/* One step from t_k to t_{k+1}; 0 when the new state is not finite. r, uw, rhs are scratch. */
static int step(struct stepper *s, long rows, long k, const double *u, double *x, double *r, double *uw,
                double *rhs)
{
    const long m = s->system, size = rows * m;
    reaction(s, rows, k, u, r);
    for (long i = 0; i < size; i += m)
        for (long j = 0; j < m; j++) {
            uw[i + j] = u[i + j] * s->w[j];
            rhs[i + j] = r[i + j] * s->dt_w[j] + uw[i + j];
        }
    solve_state(s, s->pred_d + k * m, s->pred_e + k * m, rows, rhs);
    reaction(s, rows, k + 1, rhs, x);
    for (long i = 0; i < size; i += m)
        for (long j = 0; j < m; j++)
            x[i + j] = (((x[i + j] + r[i + j]) * s->half_w[j]) + uw[i + j]) + uw[i + j];
    solve_state(s, s->corr_d + k * m, s->corr_e + k * m, rows, x);
    int outside = 0;
    for (long i = 0; i < size; i++) {
        x[i] = x[i] - u[i];
        outside |= !(x[i] >= 0.0 && x[i] < HUGE_VAL);
    }
    if (!outside)
        return 1;
    for (long i = 0; i < size; i++)
        if (!isfinite(x[i]))
            return 0;
    for (long i = 0; i < size; i++) {
        s->clamps += x[i] < 0.0;
        x[i] = x[i] > 0.0 ? x[i] : 0.0;  /* as numpy's maximum(x, 0.0): -0.0 becomes 0.0 */
    }
    return 1;
}

/* Steps `rows` fields of u across `steps` steps from t_0, the start of the period, into out, never writing u.
 * work holds 4 states; path, when not NULL, receives steps + 1 time slices.
 * Returns the number of steps taken: fewer than `steps` when the next one was not finite. */
long evosis_steps(struct stepper *s, long rows, long steps, const double *u, double *out, double *path,
                  double *work)
{
    const long size = rows * s->system;
    double *r = work, *uw = work + size, *rhs = work + 2 * size, *spare = work + 3 * size;
    const double *src = u;
    if (path)
        memcpy(path, u, (size_t)size * sizeof(double));
    for (long i = 0; i < steps; i++) {
        double *dst = (steps - 1 - i) % 2 == 0 ? out : spare;  /* the last step lands in out */
        if (!step(s, rows, i, src, dst, r, uw, rhs))
            return i;
        if (path)
            memcpy(path + (i + 1) * size, dst, (size_t)size * sizeof(double));
        src = dst;
    }
    return steps;
}

/* Steps `rows` fields of u across `steps` Crank-Nicolson steps of the period map into out, never
 * writing u: per step x = u (2w), solved with that step's factors (d, e: step-major, rows of length
 * m), then x - u. spare holds one state; path, when not NULL, receives steps + 1 time slices. */
void evosis_period_map(const double *d, const double *e, const double *two_w, long m, long rows, long steps,
                       const double *u, double *out, double *path, double *spare)
{
    const long size = rows * m;
    const double *src = u;
    if (path)
        memcpy(path, u, (size_t)size * sizeof(double));
    for (long k = 0; k < steps; k++) {
        double *x = (steps - 1 - k) % 2 == 0 ? out : spare;  /* the last step lands in out */
        for (long i = 0; i < size; i += m)
            for (long j = 0; j < m; j++)
                x[i + j] = src[i + j] * two_w[j];
        solve(d + k * m, e + k * m, m, rows, x);
        for (long i = 0; i < size; i++)
            x[i] = x[i] - src[i];
        if (path)
            memcpy(path + (k + 1) * size, x, (size_t)size * sizeof(double));
        src = x;
    }
}

/* The L D L^T factors of `chains` steps' blocks of n nodes from their row sums, one chain per step:
 * t = s_0, then D_i = t + c, L_i = (-c) / D_i, t = s_{i+1} - t L_i, and D_{n-1} = t. d holds the row
 * sums on entry and the pivots on return, e the multipliers; both are step-major with rows of length m. */
static inline void factor_chains(double *d, double *e, const double *c, long n, long m, long chains)
{
    double t[8];
    for (long j = 0; j < chains; j++)
        t[j] = d[j * m];
    for (long i = 0; i + 1 < n; i++)
        for (long j = 0; j < chains; j++) {
            const double pivot = t[j] + c[j], multiplier = -c[j] / pivot;
            t[j] = d[j * m + i + 1] - t[j] * multiplier;
            d[j * m + i] = pivot;
            e[j * m + i] = multiplier;
        }
    for (long j = 0; j < chains; j++)
        d[j * m + n - 1] = t[j];
}

/* The factors of `blocks` blocks of n nodes over `steps` steps in place (see factor_chains), groups of
 * 8 steps as independent chains; c holds theta dt nu / h^2 per block and step, block-major. */
void evosis_factor(double *d, double *e, const double *c, long n, long blocks, long steps)
{
    const long m = blocks * n;
    for (long b = 0; b < blocks; b++)
        for (long k = 0; k < steps; k += 8) {
            double *db = d + k * m + b * n, *eb = e + k * m + b * n;
            if (steps - k >= 8)
                factor_chains(db, eb, c + b * steps + k, n, m, 8);
            else
                factor_chains(db, eb, c + b * steps + k, n, m, steps - k);
        }
}

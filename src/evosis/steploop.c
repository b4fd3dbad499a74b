/* The compiled core of evosis: the period loop of the coupled IMEX stepper (engine.CoupledStepper),
 * the Crank-Nicolson period map (engine.PeriodMapOperator), the factor recurrence of their tridiagonal
 * systems (engine._FactorSet), which forms each step's row sums itself from the weights and a potential read
 * in place, and the writer of the space-time CSV tables (steploop.space_time_csv).
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
 * The S-only form (one block) steps `rows` independent S fields with
 * R_S = (gain - b S) S. A period-map step is x = u (2w), solved in place,
 * less u; the loops form every scale from the one weight vector w. Every
 * system is one block of n nodes, factored in twisted form (see
 * evosis_factor), so each solve runs two independent chains that meet at the
 * twist row, and `solve` takes systems in pairs, four chains in one loop: the
 * S and I blocks of a coupled step, or two S-only rows or period-map columns.
 * Built with -ffp-contract=off and without fast-math, so no product is fused
 * into a sum.
 *
 * The CSV writer formats every double as Python's repr does, with the shortest
 * digits that round-trip (Ryu: Adams, PLDI 2018), from power-of-5 tables that
 * steploop.py computes with exact integers.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A coefficient table read in place: element strides per time level and per node (often 0). */
struct table {
    const double *values;
    long level, node;
};

struct stepper {
    long n, blocks;  /* a state row is `blocks` blocks of n = N + 1 nodes: [S; I] (2), or S alone (1) */
    double dt, guard;
    struct table b, gain, beta, gamma, minus_loss;
    const double *pred_d, *pred_e, *corr_d, *corr_e;  /* step-major factor tables, rows of `blocks` n */
    const double *w;                                  /* the row weights of one solve, `blocks` n */
    long clamps;                                      /* negative entries clamped to zero so far */
};

/* The reaction terms of `rows` fields of u at t_k, into r. */
static void reaction(const struct stepper *s, long rows, long k, const double *u, double *r)
{
    const long n = s->n;
    const double *b = s->b.values + k * s->b.level, *gain = s->gain.values + k * s->gain.level;
    const long bs = s->b.node, gs = s->gain.node;
    if (s->blocks == 1) {
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

/* The twisted solves. A system of n nodes is factored about its twist row k = n/2 (see evosis_factor):
 * d holds the reciprocal pivots 1/D_i, e the multiplier of each node towards the twist (L_i for i < k,
 * U_i for i > k, 0 at k). A solve runs two independent chains on each sweep, the top one from node 0 and
 * the bottom one from node n-1, which meet at k:
 *
 *     forward   y_i = x_i - y_{i-1} L_{i-1}  (0 < i < k),    y_i = x_i - y_{i+1} U_{i+1}  (k < i < n-1)
 *     twist     y_k = (x_k - y_{k-1} L_{k-1}) - y_{k+1} U_{k+1},    x_k = y_k (1/D_k)
 *     back      x_i = y_i (1/D_i) - x_{i+1} L_i  (i < k),    x_i = y_i (1/D_i) - x_{i-1} U_i  (i > k)
 *
 * a term whose node does not exist (k = 0, or k = n-1) left out; neither sweep divides. The top half holds
 * k nodes and the bottom half n-1-k, one fewer when n is even, so each sweep runs the two chains side by
 * side and then the top chain's last node alone. Each chain's running value stays in a local, so the
 * chains' latencies overlap. */

/* The twist row's forward value from the chains' last values top (node k-1) and bottom (node k+1). */
static inline double twist_row(const double *e, long n, long k, const double *x, double top, double bottom)
{
    double y = x[k];
    if (k > 0)
        y = y - top * e[k - 1];
    if (k + 1 < n)
        y = y - bottom * e[k + 1];
    return y;
}

/* The twisted solve of one system of n nodes with factors d, e, in place. */
static void twisted(const double *restrict d, const double *restrict e, long n, double *restrict x)
{
    const long k = n / 2;
    double top = x[0], bottom = x[n - 1];
    long i = 1, j = n - 2;
    for (; j > k; i++, j--) {
        top = x[i] - top * e[i - 1];
        bottom = x[j] - bottom * e[j + 1];
        x[i] = top;
        x[j] = bottom;
    }
    for (; i < k; i++)
        x[i] = top = x[i] - top * e[i - 1];
    top = bottom = x[k] = twist_row(e, n, k, x, top, bottom) * d[k];
    for (i = k - 1, j = k + 1; j < n; i--, j++) {
        top = x[i] * d[i] - top * e[i];
        bottom = x[j] * d[j] - bottom * e[j];
        x[i] = top;
        x[j] = bottom;
    }
    for (; i >= 0; i--)
        x[i] = top = x[i] * d[i] - top * e[i];
}

/* The twisted solves of two independent systems x and y of n nodes, each with its own factors, in one
 * loop: four chains, each taking the operations of `twisted` in their order. */
static void twisted_pair(const double *restrict dx, const double *restrict ex, const double *restrict dy,
                         const double *restrict ey, long n, double *restrict x, double *restrict y)
{
    const long k = n / 2;
    double xt = x[0], xb = x[n - 1], yt = y[0], yb = y[n - 1];
    long i = 1, j = n - 2;
    for (; j > k; i++, j--) {
        xt = x[i] - xt * ex[i - 1];
        xb = x[j] - xb * ex[j + 1];
        yt = y[i] - yt * ey[i - 1];
        yb = y[j] - yb * ey[j + 1];
        x[i] = xt;
        x[j] = xb;
        y[i] = yt;
        y[j] = yb;
    }
    for (; i < k; i++) {
        x[i] = xt = x[i] - xt * ex[i - 1];
        y[i] = yt = y[i] - yt * ey[i - 1];
    }
    xt = xb = x[k] = twist_row(ex, n, k, x, xt, xb) * dx[k];
    yt = yb = y[k] = twist_row(ey, n, k, y, yt, yb) * dy[k];
    for (i = k - 1, j = k + 1; j < n; i--, j++) {
        xt = x[i] * dx[i] - xt * ex[i];
        xb = x[j] * dx[j] - xb * ex[j];
        yt = y[i] * dy[i] - yt * ey[i];
        yb = y[j] * dy[j] - yb * ey[j];
        x[i] = xt;
        x[j] = xb;
        y[i] = yt;
        y[j] = yb;
    }
    for (; i >= 0; i--) {
        x[i] = xt = x[i] * dx[i] - xt * ex[i];
        y[i] = yt = y[i] * dy[i] - yt * ey[i];
    }
}

/* `count` contiguous systems of n nodes, in place: two at a time, an odd last one alone. The second of each
 * pair reads its factors `shift` entries after d, e: n for the I block of a coupled state, else 0. */
static void solve(const double *d, const double *e, long n, long shift, long count, double *x)
{
    for (; count >= 2; count -= 2, x += 2 * n)
        twisted_pair(d, e, d + shift, e + shift, n, x, x + n);
    if (count)
        twisted(d, e, n, x);
}

/* One step from t_k to t_{k+1}; 0 when the new state is not finite, and then none of its clamps is counted.
 * r, uw, rhs are scratch. */
static int step(struct stepper *s, long rows, long k, const double *u, double *x, double *r, double *uw,
                double *rhs)
{
    const long n = s->n, m = s->blocks * n, size = rows * m;
    const double *w = s->w;
    const double dt = s->dt, half = 0.5 * dt;
    reaction(s, rows, k, u, r);
    for (long i = 0; i < size; i += m)
        for (long j = 0; j < m; j++) {
            uw[i + j] = u[i + j] * w[j];
            rhs[i + j] = r[i + j] * (dt * w[j]) + uw[i + j];
        }
    solve(s->pred_d + k * m, s->pred_e + k * m, n, m - n, rows * s->blocks, rhs);
    reaction(s, rows, k + 1, rhs, x);
    for (long i = 0; i < size; i += m)
        for (long j = 0; j < m; j++)
            x[i + j] = (((x[i + j] + r[i + j]) * (half * w[j])) + uw[i + j]) + uw[i + j];
    solve(s->corr_d + k * m, s->corr_e + k * m, n, m - n, rows * s->blocks, x);
    int outside = 0;
    for (long i = 0; i < size; i++) {
        x[i] = x[i] - u[i];
        outside |= !(x[i] >= 0.0 && x[i] < HUGE_VAL);
    }
    if (!outside)
        return 1;
    long clamps = 0;
    for (long i = 0; i < size; i++) {
        if (!isfinite(x[i]))
            return 0;
        clamps += x[i] < 0.0;
        x[i] = x[i] > 0.0 ? x[i] : 0.0;  /* as numpy's maximum(x, 0.0): -0.0 becomes 0.0 */
    }
    s->clamps += clamps;
    return 1;
}

/* Steps `rows` fields of u across `steps` steps from t_0, the start of the period, into out, never writing u.
 * work holds 4 states; path, when not NULL, receives steps + 1 time slices.
 * Returns the number of steps taken: fewer than `steps` when the next one was not finite. */
long evosis_steps(struct stepper *s, long rows, long steps, const double *u, double *out, double *path,
                  double *work)
{
    const long size = rows * s->blocks * s->n;
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

/* Steps `rows` fields of n nodes of u across `steps` Crank-Nicolson steps of the period map into out, never
 * writing u: per step x = u (2w), solved with that step's factors (d, e: step-major), then x - u. spare holds
 * 2w, formed once, and then one state; path, when not NULL, receives steps + 1 time slices. */
void evosis_period_map(const double *d, const double *e, const double *w, long n, long rows, long steps,
                       const double *u, double *out, double *path, double *spare)
{
    const long size = rows * n;
    double *two_w = spare;
    for (long j = 0; j < n; j++)
        two_w[j] = 2.0 * w[j];
    spare += n;
    const double *src = u;
    if (path)
        memcpy(path, u, (size_t)size * sizeof(double));
    for (long k = 0; k < steps; k++) {
        double *x = (steps - 1 - k) % 2 == 0 ? out : spare;  /* the last step lands in out */
        for (long i = 0; i < size; i += n)
            for (long j = 0; j < n; j++)
                x[i + j] = src[i + j] * two_w[j];
        solve(d + k * n, e + k * n, n, 0, rows, x);
        for (long i = 0; i < size; i++)
            x[i] = x[i] - src[i];
        if (path)
            memcpy(path + (k + 1) * size, x, (size_t)size * sizeof(double));
        src = x;
    }
}

/* Two doubles divided lane by lane in one instruction, as GCC and Clang provide vectors; each quotient
 * rounds as its scalar division does. */
__extension__ typedef double quotients __attribute__((vector_size(16)));

/* One node i of the row-sum excess recurrence with coupling c, from the excess t that reaches it: the pivot
 * D_i = t + c is checked before it is inverted, since the reciprocal of +0 would pass for a positive number
 * (failed keeps the lowest node whose pivot is not positive, or NaN); then 1/D_i goes into d_i and the
 * multiplier -c / D_i into e_i, both from one paired division. Returns the excess passed on towards the
 * twist row, s_next - t (-c / D_i). */
static inline double excess_node(double *d, double *e, double c, double t, long i, long next, long *failed)
{
    const double pivot = t + c;
    if (!(pivot > 0.0) && i < *failed)
        *failed = i;
    const quotients q = (quotients){-c, 1.0} / (quotients){pivot, pivot};
    const double passed = d[next] - t * q[0];
    d[i] = q[1];
    e[i] = q[0];
    return passed;
}

/* The twisted factors of `chains` steps' blocks of n nodes from their row sums s, one chain per step and
 * half: L D L^T from node 0 down to the twist row k = n/2, U D U^T from node n-1 up to it (van der Vorst,
 * Parallel Computing 5, 1987; Parlett and Dhillon, Linear Algebra Appl. 309, 2000). Each half runs the
 * row-sum excess recurrence: from t = s_0, D_i = t + c, L_i = (-c) / D_i, t <- s_{i+1} - t L_i for i < k,
 * and from u = s_{n-1}, D_i = u + c, U_i = (-c) / D_i, u <- s_{i-1} - u U_i for i > k. The top half leaves
 * its t in place of s_k, so the bottom half's last step forms the twist pivot
 * D_k = (s_k - t_{k-1} L_{k-1}) - u_{k+1} U_{k+1}, a sum of positive terms while every s > 0. d holds the row
 * sums on entry and the reciprocal pivots 1/D_i on return, so that the solves multiply where they would
 * divide; e holds the multipliers (0 at k); both are step-major with rows of length m. Returns the lowest
 * node whose pivot is not positive (or NaN) in the first such step, as step * m + node, or -1. */
static inline long factor_chains(double *d, double *e, const double *c, long n, long m, long chains)
{
    const long k = n / 2;
    double t[8];
    long failed[8];
    for (long j = 0; j < chains; j++) {
        t[j] = d[j * m];
        failed[j] = n;
    }
    for (long i = 0; i < k; i++)
        for (long j = 0; j < chains; j++)
            t[j] = excess_node(d + j * m, e + j * m, c[j], t[j], i, i + 1, &failed[j]);
    for (long j = 0; j < chains; j++) {
        d[j * m + k] = t[j];
        t[j] = d[j * m + n - 1];
    }
    for (long i = n - 1; i > k; i--)
        for (long j = 0; j < chains; j++)
            t[j] = excess_node(d + j * m, e + j * m, c[j], t[j], i, i - 1, &failed[j]);
    for (long j = 0; j < chains; j++) {
        if (!(t[j] > 0.0) && k < failed[j])
            failed[j] = k;
        d[j * m + k] = 1.0 / t[j];
        e[j * m + k] = 0.0;
    }
    for (long j = 0; j < chains; j++)
        if (failed[j] < n)
            return j * m + failed[j];
    return -1;
}

/* The row sums of `chains` steps' blocks of n nodes from step k on, into d (rows of length m): with the
 * potential q = p/mu - r, ((p/mu - r) (-theta dt) + 1) w for the one-block weight row w, each operation in the
 * order that numpy takes it on whole tables. p and r are read in place by their strides; a potential constant
 * in space (both node strides 0) forms its one value per step once. The steppers' zero potential (p = r = 0,
 * mu = 1) is such a value: (0/1 - 0) (-theta dt) + 1 = 1, so its row sums are w bit for bit. */
static void row_sums(double *d, const double *w, const struct table *p, const struct table *r, double mu,
                     double theta_dt, long n, long m, long k, long chains)
{
    const double scale = -theta_dt;
    for (long j = 0; j < chains; j++, d += m) {
        const double *pk = p->values + (k + j) * p->level, *rk = r->values + (k + j) * r->level;
        const long ps = p->node, rs = r->node;
        if (ps == 0 && rs == 0) {
            const double level = (pk[0] / mu - rk[0]) * scale + 1.0;
            for (long i = 0; i < n; i++)
                d[i] = level * w[i];
        } else
            for (long i = 0; i < n; i++)
                d[i] = ((pk[i * ps] / mu - rk[i * rs]) * scale + 1.0) * w[i];
    }
}

/* The factors of `blocks` blocks of n nodes over `steps` steps into d and e (see factor_chains), groups of
 * 8 steps as independent chains, each group's row sums formed just before it from the potential p/mu - r
 * (see row_sums); c holds theta dt nu / h^2 per block and step, block-major. Returns the first pivot that is
 * not positive, as the index step * m + node into the tables (m = blocks n): of the lowest such step, the
 * lowest such node; or -1 when every pivot is positive. */
long evosis_factor(double *d, double *e, const double *c, const double *w, const struct table *p,
                   const struct table *r, double mu, double theta_dt, long n, long blocks, long steps)
{
    const long m = blocks * n;
    long first = -1;
    for (long b = 0; b < blocks; b++)
        for (long k = 0; k < steps; k += 8) {
            const long chains = steps - k >= 8 ? 8 : steps - k;
            double *db = d + k * m + b * n, *eb = e + k * m + b * n;
            row_sums(db, w, p, r, mu, theta_dt, n, m, k, chains);
            const long failed = factor_chains(db, eb, c + b * steps + k, n, m, chains);
            if (failed >= 0 && (first < 0 || k * m + b * n + failed < first))
                first = k * m + b * n + failed;
        }
    return first;
}

/* ---- shortest round-trip float text ---- */

/* Bytes of the longest number text, "-2.2250738585072014e-308", and its separator. */
#define CELL 25
/* The bit length of each multiplier of the power-of-5 tables (Ryu's DOUBLE_POW5_BITCOUNT and
 * DOUBLE_POW5_INV_BITCOUNT); steploop.POW5_BITS. */
#define POW5_BITS 125

/* the 128-bit products of Ryu, as GCC and Clang provide them on 64-bit hosts */
__extension__ typedef unsigned __int128 uint128;

/* floor(log10(2^e)), floor(log10(5^e)) and the bit length of 5^e, exact for the exponents of a double. */
static inline int log10_pow2(int e) { return (int)(((uint32_t)e * 78913) >> 18); }
static inline int log10_pow5(int e) { return (int)(((uint32_t)e * 732923) >> 20); }
static inline int pow5_bits(int e) { return (int)((((uint32_t)e * 1217359) >> 19) + 1); }

/* The exponent of 5 in v > 0. */
static int pow5_factor(uint64_t v)
{
    int count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count;
}

/* floor(m * mul / 2^shift) for a 128-bit multiplier mul, low word first, and 64 <= shift < 192. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int shift)
{
    const uint128 low = (uint128)m * mul[0], high = (uint128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (shift - 64));
}

/* The shortest decimal, digits * 10^exponent, that reads back as the finite nonzero double with these bits
 * (Ryu's d2d): of the decimals in the double's rounding interval, its ends included when the mantissa is
 * even, those with the fewest digits, and of these the nearest, a tie going to the even one.
 * pow5 row i is 5^i and pow5_inv row q is 2^k / 5^q (rounded up), each scaled to POW5_BITS bits. */
static uint64_t shortest(uint64_t bits, const uint64_t *pow5, const uint64_t *pow5_inv, int *exponent)
{
    const uint64_t fraction = bits & ((1ull << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const int e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? fraction | 1ull << 52 : fraction;
    const int even = (m2 & 1) == 0;
    /* the interval is (mm, mp) around mv, in units of a quarter gap; at a power of two the gap below is half */
    const uint64_t mv = 4 * m2, mm_shift = fraction != 0 || biased <= 1, mm = mv - 1 - mm_shift, mp = mv + 2;
    uint64_t vr, vp, vm;
    int e10, vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        const int q = log10_pow2(e2) - (e2 > 3), shift = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        e10 = q;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if (q <= 21) {  /* whether the digits dropped from each end are all zero: at most one of mm, mv, mp is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mm) >= q;
            else
                vp -= pow5_factor(mp) >= q;  /* the upper end is excluded */
        }
    } else {
        const int q = log10_pow5(-e2) - (-e2 > 1), i = -e2 - q, shift = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        e10 = q + e2;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if (q <= 1) {
            vr_zeros = 1;  /* mv is a multiple of 4 */
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;  /* mp is even, so the upper end is exact, and excluded */
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }
    /* drop digits while the interval holds a shorter decimal, remembering the last digit dropped from vr */
    int removed = 0, last = 0;
    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros)  /* the lower end is exact and included: trailing zeros of it may go too */
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* an exact tie goes to the even neighbour */
        *exponent = e10 + removed;
        return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    }
    for (; vp / 10 > vm / 10; removed++) {
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
    }
    *exponent = e10 + removed;
    return vr + (vr == vm || last >= 5);
}

/* The decimal digits of value > 0, written to end just before `end`; returns their start. Two digits at a time,
 * and the eight below 10^8 apart from the rest, in 32-bit arithmetic. */
static char *decimal(uint64_t value, char *end)
{
    static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                "8081828384858687888990919293949596979899";
    if (value >= 100000000) {
        uint32_t low = (uint32_t)(value % 100000000);
        value /= 100000000;
        for (int i = 0; i < 4; i++, low /= 100)
            memcpy(end -= 2, pairs + 2 * (low % 100), 2);
    }
    uint32_t high = (uint32_t)value;
    for (; high >= 100; high /= 100)
        memcpy(end -= 2, pairs + 2 * (high % 100), 2);
    if (high >= 10)
        memcpy(end -= 2, pairs + 2 * high, 2);
    else
        *--end = (char)('0' + high);
    return end;
}

/* x as Python's repr writes it, from p; returns the end. Exponent form when the decimal point falls
 * before the fourth zero after it or beyond 16 digits (x < 1e-4 or x >= 1e16): 1e-05, 2.5e-300, 1e+16;
 * otherwise fixed form with a point: 0.0001, 123456789.0. */
static char *repr(double x, const uint64_t *pow5, const uint64_t *pow5_inv, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (isinf(x) || x == 0.0) {
        memcpy(p, isinf(x) ? "inf" : "0.0", 3);
        return p + 3;
    }
    int exponent;
    char text[20];
    const char *digits = decimal(shortest(bits, pow5, pow5_inv, &exponent), text + sizeof text);
    const int length = (int)(text + sizeof text - digits), point = exponent + length;  /* x = 0.digits * 10^point */
    if (point <= -4 || point > 16) {
        *p++ = digits[0];
        if (length > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, (size_t)(length - 1));
            p += length - 1;
        }
        int e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        memcpy(p, digits, (size_t)length);
        p += length;
    } else if (point < length) {
        memcpy(p, digits, (size_t)point);
        p += point;
        *p++ = '.';
        memcpy(p, digits + point, (size_t)(length - point));
        p += length - point;
    } else {
        memcpy(p, digits, (size_t)length);
        p += length;
        for (int i = length; i < point; i++)
            *p++ = '0';
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* The body of a space-time CSV table into out: a line t,y,v... for each of the n nodes y of every
 * `stride`-th of the `levels` time levels t, the values read in place from the `count` tables, every
 * number as repr writes it. Each y is formatted once, into its cell of work (n cells: a length byte, then
 * the text), and each t once per slice. out holds CELL bytes per cell of every line.
 * Returns the length of the body. */
long evosis_space_time_csv(const double *t, long levels, long stride, const double *y, long n,
                           const struct table *values, long count, const uint64_t *pow5, const uint64_t *pow5_inv,
                           char *work, char *out)
{
    for (long j = 0; j < n; j++) {
        char *cell = work + j * CELL;
        cell[0] = (char)(repr(y[j], pow5, pow5_inv, cell + 1) - (cell + 1));
    }
    char *p = out;
    for (long k = 0; k < levels; k += stride) {
        char slice[CELL];
        const size_t slice_length = (size_t)(repr(t[k], pow5, pow5_inv, slice) - slice);
        for (long j = 0; j < n; j++) {
            const char *cell = work + j * CELL;
            memcpy(p, slice, slice_length);
            p += slice_length;
            *p++ = ',';
            memcpy(p, cell + 1, (size_t)cell[0]);
            p += cell[0];
            for (long c = 0; c < count; c++) {
                *p++ = ',';
                p = repr(values[c].values[k * values[c].level + j * values[c].node], pow5, pow5_inv, p);
            }
            *p++ = '\n';
        }
    }
    return (long)(p - out);
}

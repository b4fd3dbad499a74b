/* The compiled core of evosis: the period loop of the coupled IMEX stepper (engine.CoupledStepper),
 * the Crank-Nicolson period map (engine.PeriodMapOperator), the factor recurrence of their tridiagonal
 * systems (engine._FactorSet), and the writer of the space-time CSV tables (steploop.space_time_csv).
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

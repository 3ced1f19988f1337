/* Compiled tile for the host's share of a blockstep: the same bits as
 * the numpy code.
 *
 * Three entry points, the fast tier beneath repro.core.hermite_tile:
 *
 *   hermite_predict        eqs. (6)-(7) truncated after the jerk term, all
 *                          N particles (numpy_predict_hermite);
 *   hermite_predict_j      the same bits, all N into a component-major
 *                          (6, N) j-set and the block's rows into the
 *                          (N, 3) predictions (numpy_predict_j_set);
 *   hermite_advance_block  per block particle: the Hermite corrector, the
 *                          Aarseth criterion, the block quantisation and
 *                          the scatter into the particle arrays
 *                          (numpy_advance_block = hermite_correct +
 *                          aarseth_dt + quantize_block_dt).
 *
 * Each reads the arrays that outlive a call - a system's state, the
 * predictions - through a struct the caller bound once (struct
 * predicted, struct predicted_j, struct block_state); the block and the
 * force on it are
 * copied into buffers bound with them, so a call passes the struct and
 * what changes: the block size and time.
 *
 * As for the other tiles the contract is bit identity with the numpy
 * twins, which stay the reference; the loader checks both against each
 * other before it hands this one out.  What makes that possible here:
 *
 * 1. Every expression below is the numpy expression with its Python
 *    association spelled out, one IEEE-754 operation for one ufunc
 *    call.  -ffp-contract=off keeps a * b + c two roundings and nothing
 *    is reassociated (no -ffast-math); add, multiply, divide and sqrt
 *    are correctly rounded in both tiers.
 *
 * 2. numpy evaluates h**2 as h * h and h**3 .. h**5 through pow().
 *    Block steps are powers of two, for which a product of powers is
 *    exact (or underflows to the same value), so h2 .. h5 are products
 *    here and no pow() is called.  A step that is not a positive power
 *    of two has no place in the block scheme: both tiers refuse it.  For
 *    the same reason x / h2 and x / h3 are x times their reciprocals,
 *    exact powers of two too while h is within 2^+-340: one rounding
 *    of the same product either way.
 *
 * 3. |x| of a 3-vector is numpy.linalg.norm's sqrt(add.reduce(x * x)),
 *    and over the short last axis of a contiguous (n, 3) array
 *    add.reduce adds column by column, (s0 + s1) + s2 - not the
 *    pairwise order of a long axis.  The floor to a power of two hides
 *    the criterion's last bit except at a boundary, so the loader also
 *    asks numpy directly which order it uses.
 *
 * 4. The floor to a power of two is frexp / ldexp, the calls numpy
 *    makes; for a positive normal number that is its bit pattern with
 *    the mantissa cleared, and a positive power of two (frexp's 0.5) is
 *    one whose mantissa has one bit set, the implicit one of a normal
 *    number or one stored bit of a subnormal.
 *
 * Nothing is written to the particle arrays until every block particle
 * has been computed and found good, so a refusal leaves them untouched.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* what hermite_advance_block answers, in its low three bits; the
 * position in the block of the particle concerned is in the bits above
 * (hermite_predict_j answers 0 or INDEX_OUT_OF_RANGE alone) */
enum {
    ADVANCED = 0,
    STEP_NOT_A_POWER_OF_TWO = 1, /* nor, then, positive */
    NOT_FINITE = 2,        /* a NaN criterion or a non-finite potential */
    CLAMPED_STEP_NOT_POSITIVE = 3, /* floor_power_of_two's ValueError */
    INDEX_OUT_OF_RANGE = 4,
};

#define ANSWER(code, k) (((ptrdiff_t)(k) << 3) | (code))

/* One component of eq. (6) through the jerk term, Horner:
 * x = ((j*dt/6 + a/2)*dt + v)*dt + x.  Both predictors below call this
 * and predicted_v, so they share one IEEE order by construction. */
static inline double predicted_x(double dt, double x0, double v0, double a0, double j0)
{
    double x = j0 * (dt / 6.0);
    x += 0.5 * a0;
    x *= dt;
    x += v0;
    x *= dt;
    return x + x0;
}

/* eq. (7): v = (j*dt/2 + a)*dt + v */
static inline double predicted_v(double dt, double v0, double a0, double j0)
{
    double v = j0 * (dt / 2.0);
    v += a0;
    v *= dt;
    return v + v0;
}

/* what hermite_predict reads and writes: (n,) times, (n, 3) stored
 * derivatives, (n, 3) predictions */
struct predicted {
    ptrdiff_t n;
    const double *t0, *x0, *v0, *a0, *j0;
    double *xp, *vp;
};

void hermite_predict(double t_now, const struct predicted *p)
{
    const ptrdiff_t n = p->n;
    const double *t0 = p->t0;
    const double *restrict x0 = p->x0, *restrict v0 = p->v0, *restrict a0 = p->a0,
                 *restrict j0 = p->j0;
    double *restrict xp = p->xp, *restrict vp = p->vp;
    /* each particle's dt, once per component, kept in vp until vp itself
     * is computed: the two loops below then run over 3 n contiguous
     * elements and vectorise, which a per-particle loop does not */
    for (ptrdiff_t i = 0; i < n; i++)
        vp[3 * i] = vp[3 * i + 1] = vp[3 * i + 2] = t_now - t0[i];
    for (ptrdiff_t k = 0; k < 3 * n; k++)
        xp[k] = predicted_x(vp[k], x0[k], v0[k], a0[k], j0[k]);
    for (ptrdiff_t k = 0; k < 3 * n; k++)
        vp[k] = predicted_v(vp[k], v0[k], a0[k], j0[k]);
}

/* what hermite_predict_j reads and writes: the state as for
 * hermite_predict; cj the (6, n) j-set, rows x y z vx vy vz; xp, vp the
 * (n, 3) predictions, of which only the block's rows are written; block
 * the caller's rows, staged */
struct predicted_j {
    ptrdiff_t n;
    const double *t0, *x0, *v0, *a0, *j0;
    double *cj, *xp, *vp;
    const int64_t *block;
};

/* The n particles into the (6, n) cj, each component to its own row.
 * Restrict parameters and one loop per quantity: gcc 12 vectorises
 * neither through struct fields nor one loop that writes all six rows. */
static void predict_component_major(ptrdiff_t n, double t_now, const double *restrict t0,
                                    const double *restrict x0, const double *restrict v0,
                                    const double *restrict a0, const double *restrict j0,
                                    double *restrict cj)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double dt = t_now - t0[i];
        for (int c = 0; c < 3; c++) {
            const ptrdiff_t k = 3 * i + c;
            cj[c * n + i] = predicted_x(dt, x0[k], v0[k], a0[k], j0[k]);
        }
    }
    for (ptrdiff_t i = 0; i < n; i++) {
        const double dt = t_now - t0[i];
        for (int c = 0; c < 3; c++) {
            const ptrdiff_t k = 3 * i + c;
            cj[(3 + c) * n + i] = predicted_v(dt, v0[k], a0[k], j0[k]);
        }
    }
}

/* All n particles into cj and the first n_b rows of the staged block
 * into xp, vp: 0, or INDEX_OUT_OF_RANGE, before anything is written,
 * if a block row is outside the set. */
int hermite_predict_j(double t_now, const struct predicted_j *p, ptrdiff_t n_b)
{
    const ptrdiff_t n = p->n;
    const int64_t *block = p->block;
    for (ptrdiff_t k = 0; k < n_b; k++) {
        if (block[k] < 0 || block[k] >= n)
            return INDEX_OUT_OF_RANGE;
    }
    double *cj = p->cj;
    predict_component_major(n, t_now, p->t0, p->x0, p->v0, p->a0, p->j0, cj);
    double *xp = p->xp, *vp = p->vp;
    for (ptrdiff_t k = 0; k < n_b; k++) {
        const ptrdiff_t r = (ptrdiff_t)block[k];
        for (int c = 0; c < 3; c++) {
            xp[3 * r + c] = cj[c * n + r];
            vp[3 * r + c] = cj[(3 + c) * n + r];
        }
    }
    return 0;
}

#define MANTISSA ((UINT64_C(1) << 52) - 1)

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* frexp(h) == 0.5: h a positive power of two, normal or subnormal */
static inline int positive_power_of_two(double h)
{
    const uint64_t b = bits_of(h), e = b >> 52, m = b & MANTISSA;
    return e == 0 ? m != 0 && (m & (m - 1)) == 0 : e < 0x7ff && m == 0;
}

/* ldexp(0.5, e) of frexp(q) = (m, e): the largest power of two <= q */
static inline double floor_power_of_two(double q)
{
    const uint64_t b = bits_of(q);
    if (b - (UINT64_C(1) << 52) < (UINT64_C(0x7fe) << 52)) { /* positive, normal */
        const uint64_t floor = b & ~MANTISSA;
        memcpy(&q, &floor, sizeof q);
        return q;
    }
    int exponent;
    frexp(q, &exponent);
    return ldexp(0.5, exponent);
}

static inline double norm3(const double *x)
{
    const double s0 = x[0] * x[0], s1 = x[1] * x[1], s2 = x[2] * x[2];
    return sqrt((s0 + s1) + s2);
}

/* numpy.minimum / numpy.maximum, which hand a NaN first argument on */
static inline double np_minimum(double a, double b)
{
    return (a < b || isnan(a)) ? a : b;
}

static inline double np_maximum(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

enum { POS = 0, VEL = 3, SNAP = 6, CRACKLE = 9, WORK = 12 };

/* what hermite_advance_block reads and scatters into: xp, vp the (n, 3)
 * predictions at the block time; the (n, 3) and (n,) particle arrays;
 * then the call's buffers, rows deep: block the indices into them, acc1,
 * jerk1, pot1 the force on the block, (rows, 3), (rows, 3), (rows,);
 * dt_new (rows,) the new steps, also scattered into dt; work (rows,
 * WORK) scratch; and the criterion's constants. */
struct block_state {
    ptrdiff_t n;
    const double *xp, *vp;
    double *pos, *vel, *acc, *jerk, *snap, *crackle, *pot, *t, *dt;
    const int64_t *block;
    const double *acc1, *jerk1, *pot1;
    double *dt_new, *work;
    double eta, dt_max, dt_min;
};

/* The first n_b rows of s's call buffers, advanced to t_block. */
ptrdiff_t hermite_advance_block(const struct block_state *s, ptrdiff_t n_b, double t_block)
{
    const ptrdiff_t n = s->n;
    const double *xp = s->xp, *vp = s->vp;
    double *pos = s->pos, *vel = s->vel, *acc = s->acc, *jerk = s->jerk, *snap = s->snap,
           *crackle = s->crackle, *pot = s->pot, *t = s->t, *dt = s->dt;
    const int64_t *block = s->block;
    const double *acc1 = s->acc1, *jerk1 = s->jerk1, *pot1 = s->pot1;
    const double eta = s->eta, dt_max = s->dt_max, dt_min = s->dt_min;
    double *dt_new = s->dt_new, *work = s->work;
    ptrdiff_t not_finite = -1, not_positive = -1;

    for (ptrdiff_t k = 0; k < n_b; k++) {
        if (block[k] < 0 || block[k] >= n)
            return ANSWER(INDEX_OUT_OF_RANGE, k);
    }
    for (ptrdiff_t k = 0; k < n_b; k++) {
        /* not h <= 0, NaN or inf either */
        if (!positive_power_of_two(t_block - t[block[k]]))
            return ANSWER(STEP_NOT_A_POWER_OF_TWO, k);
    }

    for (ptrdiff_t k = 0; k < n_b; k++) {
        const ptrdiff_t i = block[k];
        const double h = t_block - t[i];
        const double h2 = h * h, h3 = h2 * h, h4 = h3 * h, h5 = h4 * h;
        const double h3_6 = h3 / 6.0, h4_24 = h4 / 24.0, h5_120 = h5 / 120.0;
        const int reciprocal = h >= 0x1p-340 && h <= 0x1p340;
        const double r2 = 1.0 / h2, r3 = 1.0 / h3;
        const double *a0 = acc + 3 * i, *j0 = jerk + 3 * i;
        const double *a1 = acc1 + 3 * k, *j1 = jerk1 + 3 * k;
        double *w = work + WORK * k;

        for (int c = 0; c < 3; c++) {
            const double da = a0[c] - a1[c];
            const double n2 = -6.0 * da - h * (4.0 * j0[c] + 2.0 * j1[c]);
            const double n3 = 12.0 * da + (6.0 * h) * (j0[c] + j1[c]);
            const double a2 = reciprocal ? n2 * r2 : n2 / h2;
            const double a3 = reciprocal ? n3 * r3 : n3 / h3;
            w[VEL + c] = (vp[3 * i + c] + h3_6 * a2) + h4_24 * a3;
            w[POS + c] = (xp[3 * i + c] + h4_24 * a2) + h5_120 * a3;
            w[SNAP + c] = a2 + h * a3;
            w[CRACKLE + c] = a3;
        }

        /* Aarseth: sqrt(eta (|a||a2| + |j|^2) / (|j||a3| + |a2|^2)) */
        const double a = norm3(a1), j = norm3(j1);
        const double s = norm3(w + SNAP), c = norm3(w + CRACKLE);
        const double num = a * s + j * j, den = j * c + s * s;
        const double ideal = sqrt(eta * (num + DBL_MIN) / (den + DBL_MIN));
        if (not_finite < 0 && (isnan(ideal) || !isfinite(pot1[k])))
            not_finite = k;

        /* onto the block hierarchy: clamp, floor to a power of two, at
         * most one doubling and only on a commensurable boundary */
        double q = np_maximum(np_minimum(ideal, dt_max), dt_min);
        if (not_positive < 0 && q <= 0.0)
            not_positive = k;
        q = np_minimum(floor_power_of_two(q), 2.0 * h);
        if (q > h) {
            const double steps = t_block / q;
            if (steps != floor(steps))
                q = h;
        }
        dt_new[k] = q;
    }
    if (not_finite >= 0)
        return ANSWER(NOT_FINITE, not_finite);
    if (not_positive >= 0)
        return ANSWER(CLAMPED_STEP_NOT_POSITIVE, not_positive);

    for (ptrdiff_t k = 0; k < n_b; k++) {
        const ptrdiff_t i = block[k];
        const double *w = work + WORK * k;
        for (int c = 0; c < 3; c++) {
            pos[3 * i + c] = w[POS + c];
            vel[3 * i + c] = w[VEL + c];
            acc[3 * i + c] = acc1[3 * k + c];
            jerk[3 * i + c] = jerk1[3 * k + c];
            snap[3 * i + c] = w[SNAP + c];
            crackle[3 * i + c] = w[CRACKLE + c];
        }
        pot[i] = pot1[k];
        t[i] = t_block;
        dt[i] = dt_new[k];
    }
    return ADVANCED;
}

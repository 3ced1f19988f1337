/* Compiled GRAPE-6 pipeline tile: the same integers as the numpy tile,
 * and the host's side of its boundary in the same bits as numpy.
 *
 * This file is the fast tier beneath repro.hardware.pipeline.  Its
 * contract is identity with the numpy tier, which stays the reference:
 * the loader checks both against each other before it hands this one
 * out.  Six entry points:
 *
 *   pipeline_load        a machine-wide j-load, in place: positions
 *                        quantised and velocities word-rounded from the
 *                        bound staging rows straight into the bound
 *                        j-memory (pipeline.numpy_load_j_set);
 *   pipeline_forces      one force call from raw targets in bound
 *                        buffers: quantise and word-round them, take
 *                        their exponents from the host's (3, N) table,
 *                        stream the tile, convert the sums to acc, jerk,
 *                        pot and store the exponents back
 *                        (pipeline.numpy_forces);
 *   pipeline_tile        the j-sums as carry-save lanes
 *                        (pipeline.numpy_partial_lanes);
 *   pipeline_to_forces   the conversion of given lanes to forces;
 *   fixed_point_quantize FixedPointFormat.quantize, both branches;
 *   float_format_round   FloatFormat.round.
 *
 * Unlike the float tile (forces/pairwise_tile.c) there is no summation
 * order to reproduce.  Elementwise, a pair goes through exactly the
 * IEEE-754 operations the numpy tile applies plane by plane, in the
 * same order and with the same association - every one correctly
 * rounded in either tier, no fused multiply-add (-ffp-contract=off),
 * nothing reassociated (no -ffast-math) - then through the same bit
 * pattern rounding to the pair format, the same exact power-of-two
 * scaling and the same round-half-even to an integer.  From there on
 * the values are integers and their sum is exact in any order, so equal
 * pair terms give equal lanes whatever the block size or vector width.
 * The conversions call what numpy calls: rint, frexp, ldexp, the int64
 * to double cast and one multiply, each exact or correctly rounded.
 *
 * Like the chip it stands in for, the tile holds one i-particle while
 * the j-memory streams past in blocks of at most BLOCK pairs; the seven
 * planes of a block live on the stack and the two carry-save lanes of
 * each output in registers.  A row never sees another row.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 128

/* |x| as a bit pattern orders like |x| for finite x, and puts inf and
 * every NaN above all of them: one unsigned compare against 2^62 is the
 * saturation flag "not (finite and below 2^62)" */
#define MAGNITUDE UINT64_C(0x7fffffffffffffff)
#define TWO_62 UINT64_C(0x43d0000000000000)

/* what the tile entry points answer; pipeline_forces also answers the
 * last four, having computed nothing */
enum { FITS = 0, SATURATES = 1, TOTAL_OVERFLOWS = 2, UNCACHED = 3, NEGATIVE_INDEX = 4,
       TARGET_OUT_OF_RANGE = 5, TARGET_NOT_FINITE = 6 };

/* what fixed_point_quantize and pipeline_load answer */
enum { ON_GRID = 0, OUT_OF_RANGE = 1, NOT_FINITE = 2 };

/* The j-memory one call streams, component-major: row c of the
 * positions and velocities starts at c * stride, and the first n_j
 * columns are the j-set.  A machine's j-memory is bound once per
 * allocation, at its first load (pipeline.JSet), and rewritten in
 * place by pipeline_load, which sets n_j.  The staging rows x .. host are what
 * a load copies its inputs into, bound at the first load with the
 * formats it stores them in. */
struct j_set {
    ptrdiff_t n_j;
    ptrdiff_t stride;
    int64_t *cj_q;   /* (3, stride) grid integers */
    double *cj_v;    /* (3, stride) velocities */
    double *mj;      /* (stride,) masses */
    int64_t *host_j; /* (stride,) host indices */
    const double *x;     /* (stride, 3) positions as given */
    const double *v;     /* (stride, 3) velocities as given */
    const double *m;     /* (stride,) masses as given */
    const int64_t *host; /* (stride,) host indices as given */
    int frac_bits;       /* the position word: fraction bits, */
    int total_bits;      /* total bits */
    int word_bits;       /* the velocity word's mantissa bits */
};

/* The exponent table's entry for a particle no force was evaluated on. */
#define NO_EXPONENT INT64_MIN

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double double_of(uint64_t b)
{
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* 2^shift as ldexp gives it; far outside the float range that is 0 or
 * inf anyway, and numpy clamps an exponent beyond int the same way */
static inline double power_of_two(int64_t shift)
{
    shift = shift > 4096 ? 4096 : shift < -4096 ? -4096 : shift;
    return ldexp(1.0, (int)shift);
}

/* FloatFormat.round of one value: x = m 2^e, 0.5 <= |m| < 1, m rounded
 * to mantissa_bits bits (nearest even) and scaled back; zeros,
 * infinities and NaNs pass through.  A normal number is rounded on its
 * bit pattern, as FloatFormat.round_inplace does, which equals frexp /
 * rint / ldexp there: nearest even on the significand, a carry running
 * into the exponent (the next binade, or inf from the top one).  With
 * one bit kept, that bit is the implicit one, odd, so a tie rounds up
 * as rint(1.5) does.  Zeros and subnormals take the frexp / ldexp path
 * numpy takes. */
static inline double round_word(double x, int mantissa_bits)
{
    const int drop = 53 - mantissa_bits;
    uint64_t b = bits_of(x);
    const uint64_t biased = (b >> 52) & 0x7ff;
    if (biased == 0x7ff || drop == 0)
        return x;
    if (biased == 0) {
        int e;
        const double m = frexp(x, &e);
        return ldexp(rint(ldexp(m, mantissa_bits)), e - mantissa_bits);
    }
    b += (drop == 52 ? 1 : (b >> drop) & 1) + ((UINT64_C(1) << (drop - 1)) - 1);
    return double_of(b & ~((UINT64_C(1) << drop) - 1));
}

/* Whether FixedPointFormat.quantize (not saturating) takes every x (n,):
 * ON_GRID, else NOT_FINITE if one is NaN or infinite, else OUT_OF_RANGE.
 * On the grid, a value's grid integer is (int64_t)rint(x * 2^frac_bits). */
static int grid_check(const double *x, ptrdiff_t n, int frac_bits, int total_bits)
{
    const double scale = ldexp(1.0, frac_bits), top = ldexp(1.0, total_bits - 1);
    int outside = 0;
    for (ptrdiff_t k = 0; k < n; k++) {
        const double r = rint(x[k] * scale);
        outside |= !((r < top) & (r >= -top));
    }
    if (!outside)
        return ON_GRID;
    for (ptrdiff_t k = 0; k < n; k++) {
        if (!isfinite(x[k]))
            return NOT_FINITE;
    }
    return OUT_OF_RANGE;
}

/* BlockFloatAccumulator.to_float_lanes of one total hi 2^32 + lo: after
 * the carry out of the low lane, the total fits the signed 64-bit
 * register iff the carried high lane is in [-2^31, 2^31), the -2^63
 * edge excluded.  Returns 1, writing nothing, if it does not fit. */
static inline int to_float(int64_t hi, int64_t lo, double quantum, double *x)
{
    const int64_t half = INT64_C(1) << 31;
    const int64_t lo_rem = lo & INT64_C(0xFFFFFFFF);
    const int64_t carried = (int64_t)((uint64_t)hi + (uint64_t)(lo >> 32));
    if (carried >= half || carried < -half || (carried == -half && lo_rem == 0))
        return 1;
    *x = (double)(int64_t)(((uint64_t)carried << 32) + (uint64_t)lo_rem) * quantum;
    return 0;
}

/* Where plane q of target i lands in forces: acc (n_i, 3), jerk (n_i,
 * 3), pot (n_i,), one after the other. */
static inline ptrdiff_t force_slot(int q, ptrdiff_t i, ptrdiff_t n_i)
{
    return q < 3 ? 3 * i + q : q < 6 ? 3 * n_i + 3 * i + (q - 3) : 6 * n_i + i;
}

/* The pipelines' arithmetic, shared by every tile entry point. */
struct formats {
    int frac_bits;     /* the accumulator's fraction bits */
    double resolution; /* the position grid's quantum */
    double eps2;
    int drop;          /* low mantissa bits the pair format rounds away */
};

/* The targets: xi_q (n_i, 3) grid integers and vi (n_i, 3) velocities as
 * they enter the pipelines; or, if xi_q is NULL, raw positions xi on a
 * grid of 2^pos_frac_bits (checked by grid_check) and raw velocities
 * vi, quantised and rounded to word_bits here, one target at a time.
 * exponents (7, n_i) the declared block exponents, under which a term c
 * becomes round(c / 2^(e - frac_bits)) quanta; i_index (n_i,) host
 * indices of the targets or NULL.  All contiguous. */
struct targets {
    ptrdiff_t n_i;
    const int64_t *xi_q;
    const double *xi;
    const double *vi;
    int pos_frac_bits;
    int word_bits;
    const int64_t *exponents;
    const int64_t *i_index;
};

/* The j-sums of the targets over the j-set, `drop` low mantissa bits of
 * every term rounded away (nearest even) first.  Exactly one of lanes
 * (2, 7, n_i: the carry-save lanes hi, lo of the j-sums) and forces
 * (7 n_i: force_slot) receives the sums.  Returns SATURATES, with the
 * outputs unspecified, if a term does not fit the accumulator or is not
 * finite - tested before any conversion to an integer, so that none is
 * ever out of range - and TOTAL_OVERFLOWS if a sum does not fit it. */
static int stream(const struct j_set *j, const struct targets *in, const struct formats *f,
                  int64_t *lanes, double *forces)
{
    const ptrdiff_t n_j = j->n_j, stride = j->stride, n_i = in->n_i;
    const int64_t *restrict qx = j->cj_q, *restrict qy = j->cj_q + stride,
                  *restrict qz = j->cj_q + 2 * stride;
    const double *restrict u = j->cj_v, *restrict v = j->cj_v + stride,
                 *restrict w = j->cj_v + 2 * stride;
    const double *restrict mj = j->mj;
    const int64_t *restrict host_j = j->host_j;
    const int64_t *exponents = in->exponents;
    const int by_index = in->i_index != NULL;
    const double resolution = f->resolution, eps2 = f->eps2;
    const int drop = f->drop, frac_bits = f->frac_bits;
    const double pos_scale = ldexp(1.0, in->pos_frac_bits);
    /* drop == 0 rounds nothing: the parity bit must not be added */
    const uint64_t odd = drop ? 1 : 0;
    const uint64_t half_less_one = drop ? (UINT64_C(1) << (drop - 1)) - 1 : 0;
    const uint64_t keep = ~((UINT64_C(1) << drop) - 1);
    int overflow = 0;
    /* c / 2^(e-F) == c * 2^(F-e) bit for bit (also when the product
     * under- or overflows) as long as both powers of two are normal
     * numbers; one exponent beyond that (an all-zero-mass j-set) and
     * the whole tile divides, as the numpy tile does */
    int multiply = 1;
    for (ptrdiff_t k = 0; k < 7 * n_i; k++) {
        const int64_t shift = frac_bits - exponents[k];
        multiply &= (shift >= -1022) & (shift <= 1023);
    }

    for (ptrdiff_t i = 0; i < n_i; i++) {
        uint64_t target_q[3];
        double target_v[3];
        for (int c = 0; c < 3; c++) {
            if (in->xi_q != NULL) {
                target_q[c] = (uint64_t)in->xi_q[3 * i + c];
                target_v[c] = in->vi[3 * i + c];
            } else {
                target_q[c] = (uint64_t)(int64_t)rint(in->xi[3 * i + c] * pos_scale);
                target_v[c] = round_word(in->vi[3 * i + c], in->word_bits);
            }
        }
        const uint64_t xi = target_q[0], yi = target_q[1], zi = target_q[2];
        const double ui = target_v[0], vi_ = target_v[1], wi = target_v[2];
        const int64_t self = by_index ? in->i_index[i] : 0;
        double s[7];
        int64_t sum_hi[7] = {0};
        uint64_t sum[7] = {0};
        for (int q = 0; q < 7; q++) {
            const int64_t shift = frac_bits - exponents[q * n_i + i];
            s[q] = power_of_two(multiply ? shift : -shift);
        }

        for (ptrdiff_t j0 = 0; j0 < n_j; j0 += BLOCK) {
            const ptrdiff_t n = n_j - j0 < BLOCK ? n_j - j0 : BLOCK;
            double t[7][BLOCK];
            uint64_t largest = 0;

            for (ptrdiff_t k = 0; k < n; k++) {
                const ptrdiff_t jj = j0 + k;
                /* wrapping fixed-point subtraction, exact as a double */
                double dx = (double)(int64_t)((uint64_t)qx[jj] - xi) * resolution;
                double dy = (double)(int64_t)((uint64_t)qy[jj] - yi) * resolution;
                double dz = (double)(int64_t)((uint64_t)qz[jj] - zi) * resolution;
                double du = u[jj] - ui, dv = v[jj] - vi_, dw = w[jj] - wi;
                double r2 = (dx * dx + dy * dy) + dz * dz;
                /* the pair is cut at zero grid distance or equal host
                 * index: r = inf, so 1/r and every weight are exactly 0 */
                int cut = (r2 == 0.0) | (by_index & (host_j[jj] == self));
                r2 = cut ? (double)INFINITY : r2 + eps2;
                double rinv = 1.0 / sqrt(r2);
                double rv = (dx * du + dy * dv) + dz * dw;
                double rinv2 = rinv * rinv;
                double mrinv = rinv * mj[jj];
                double mrinv3 = mrinv * rinv2;
                double alpha = rv * 3.0;
                alpha *= rinv2;
                double mrinv3_alpha = mrinv3 * alpha;
                t[0][k] = dx * mrinv3;
                t[1][k] = dy * mrinv3;
                t[2][k] = dz * mrinv3;
                t[3][k] = du * mrinv3 - dx * mrinv3_alpha;
                t[4][k] = dv * mrinv3 - dy * mrinv3_alpha;
                t[5][k] = dw * mrinv3 - dz * mrinv3_alpha;
                t[6][k] = -mrinv;
            }
            for (int q = 0; q < 7; q++) {
                const double sq = s[q];
                double *restrict tq = t[q];
                for (ptrdiff_t k = 0; k < n; k++) {
                    /* FloatFormat.round_inplace: nearest even on the
                     * magnitude field, carrying into the exponent */
                    uint64_t b = bits_of(tq[k]);
                    b += ((b >> drop) & odd) + half_less_one;
                    b &= keep;
                    double x = double_of(b);
                    x = multiply ? x * sq : x / sq;
                    uint64_t a = bits_of(x) & MAGNITUDE;
                    largest = a > largest ? a : largest;
                    /* round-half-even, as np.rint; an integer below
                     * 2^62 iff x is below 2^62 (x is whole from 2^52) */
                    tq[k] = rint(x);
                }
            }
            if (largest >= TWO_62)
                return SATURATES;
            for (int q = 0; q < 7; q++) {
                const double *restrict tq = t[q];
                int64_t h = 0;
                uint64_t a = 0;
                for (ptrdiff_t k = 0; k < n; k++) {
                    int64_t quanta = (int64_t)tq[k];
                    h += quanta >> 32;
                    a += (uint64_t)quanta;
                }
                sum_hi[q] += h;
                sum[q] += a;
            }
        }
        for (int q = 0; q < 7; q++) {
            const int64_t lo = (int64_t)(sum[q] - ((uint64_t)sum_hi[q] << 32));
            if (lanes != NULL) {
                lanes[q * n_i + i] = sum_hi[q];
                lanes[(7 + q) * n_i + i] = lo;
            } else {
                /* the quantum, 2^(e - frac_bits), as to_float_lanes scales */
                const double quantum = power_of_two(exponents[q * n_i + i] - frac_bits);
                overflow |= to_float(sum_hi[q], lo, quantum, forces + force_slot(q, i, n_i));
            }
        }
    }
    return overflow ? TOTAL_OVERFLOWS : FITS;
}

/* The carry-save lanes (2, 7, n_i) of quantised targets xi_q and vi. */
int pipeline_tile(const struct j_set *j, const int64_t *xi_q, const double *vi,
                  const int64_t *exponents, const int64_t *i_index, ptrdiff_t n_i,
                  int frac_bits, double resolution, double eps2, int drop,
                  int64_t *lanes)
{
    const struct targets in = {n_i, xi_q, NULL, vi, 0, 53, exponents, i_index};
    const struct formats f = {frac_bits, resolution, eps2, drop};
    return stream(j, &in, &f, lanes, NULL);
}

/* A j-set of n rows from the staging rows into the bound j-memory j,
 * in place: x (n, 3) quantised to a grid of 2^frac_bits in a
 * total_bits word, v (n, 3) rounded to word_bits, the masses m (n,) as
 * given and the host indices host (n,) if by_host, else 0 .. n-1; then
 * n_j = n.  The caller has checked n <= stride.  If a position is off
 * the grid, answers as fixed_point_quantize does and writes nothing. */
int pipeline_load(struct j_set *j, ptrdiff_t n, int by_host)
{
    const double *x = j->x, *v = j->v, *m = j->m;
    const int grid = grid_check(x, 3 * n, j->frac_bits, j->total_bits);
    if (grid != ON_GRID)
        return grid;
    const double scale = ldexp(1.0, j->frac_bits);
    const ptrdiff_t stride = j->stride;
    const int word_bits = j->word_bits;
    for (ptrdiff_t k = 0; k < n; k++) {
        for (int c = 0; c < 3; c++) {
            j->cj_q[c * stride + k] = (int64_t)rint(x[3 * k + c] * scale);
            j->cj_v[c * stride + k] = round_word(v[3 * k + c], word_bits);
        }
        j->mj[k] = m[k];
        j->host_j[k] = by_host ? j->host[k] : k;
    }
    j->n_j = n;
    return ON_GRID;
}

/* A force call's buffers and constants, bound once per exponent table
 * (pipeline.numpy_forces documents the arguments): the host's table
 * cache (3, cache_n) of the last exponents (acc, jerk, pot) each
 * particle was evaluated under, NO_EXPONENT where none was; the
 * targets xi, vi (rows, 3) on a grid of 2^pos_frac_bits in a
 * pos_total_bits word and rounded to word_bits, their host indices
 * i_index (rows,), and out (14 rows) for the forces (force_slot)
 * followed by the declared exponents (7, n_i) of a call on n_i
 * targets.  A call copies its targets, and any exponents it declares,
 * into the first rows. */
struct force_call {
    int64_t *cache;
    const double *xi;
    const double *vi;
    const int64_t *i_index;
    double *out;
    ptrdiff_t cache_n;
    int frac_bits;
    double resolution;
    double eps2;
    int drop;
    int pos_frac_bits;
    int pos_total_bits;
    int word_bits;
};

/* what a force call's flags say: the exponents are the table's, not
 * given; the targets have host indices */
enum { CACHED = 1, BY_INDEX = 2 };

/* One force call on j from the raw targets in c's buffers.  If CACHED,
 * the targets' exponents (7, n_i) are read from the table - UNCACHED if
 * a target has no index, or its index is beyond the table or has no
 * entry - else they are as given.  Then the tile streams into forces
 * (force_slot), and on FITS the exponents go back to the table.
 * Answers NEGATIVE_INDEX, TARGET_NOT_FINITE or TARGET_OUT_OF_RANGE, in
 * that order of precedence, before anything else is done. */
int pipeline_forces(const struct force_call *c, const struct j_set *j, ptrdiff_t n_i,
                    int flags)
{
    /* which of the table's rows (acc, jerk, pot) plane q declares */
    static const int row_of[7] = {0, 0, 0, 1, 1, 1, 2};
    const int64_t *i_index = flags & BY_INDEX ? c->i_index : NULL;
    int64_t *cache = c->cache, *exponents = (int64_t *)(c->out + 7 * n_i);
    const ptrdiff_t cache_n = c->cache_n;
    for (ptrdiff_t i = 0; i < n_i && i_index != NULL; i++) {
        if (i_index[i] < 0)
            return NEGATIVE_INDEX;
    }
    const int grid = grid_check(c->xi, 3 * n_i, c->pos_frac_bits, c->pos_total_bits);
    if (grid != ON_GRID)
        return grid == NOT_FINITE ? TARGET_NOT_FINITE : TARGET_OUT_OF_RANGE;
    if (flags & CACHED) {
        if (i_index == NULL)
            return UNCACHED;
        for (ptrdiff_t i = 0; i < n_i; i++) {
            if (i_index[i] >= cache_n || cache[i_index[i]] == NO_EXPONENT)
                return UNCACHED;
        }
        for (int q = 0; q < 7; q++) {
            for (ptrdiff_t i = 0; i < n_i; i++)
                exponents[q * n_i + i] = cache[row_of[q] * cache_n + i_index[i]];
        }
    }
    const struct targets in = {n_i, NULL, c->xi, c->vi, c->pos_frac_bits, c->word_bits,
                               exponents, i_index};
    const struct formats f = {c->frac_bits, c->resolution, c->eps2, c->drop};
    const int answer = stream(j, &in, &f, NULL, c->out);
    for (ptrdiff_t i = 0; answer == FITS && i < n_i && i_index != NULL; i++) {
        for (int row = 0; row < 3 && i_index[i] < cache_n; row++)
            cache[row * cache_n + i_index[i]] = exponents[3 * row * n_i + i];
    }
    return answer;
}

/* lanes (2, 7, n_i) and exponents (7, n_i) -> forces (force_slot);
 * TOTAL_OVERFLOWS if a total does not fit the register. */
int pipeline_to_forces(const int64_t *lanes, const int64_t *exponents, ptrdiff_t n_i,
                       int frac_bits, double *forces)
{
    int overflow = 0;
    for (int q = 0; q < 7; q++) {
        for (ptrdiff_t i = 0; i < n_i; i++) {
            const double quantum = power_of_two(exponents[q * n_i + i] - frac_bits);
            overflow |= to_float(lanes[q * n_i + i], lanes[(7 + q) * n_i + i], quantum,
                                 forces + force_slot(q, i, n_i));
        }
    }
    return overflow ? TOTAL_OVERFLOWS : FITS;
}

/* FixedPointFormat.quantize of x (n,) into q (n,): rint(x 2^frac_bits)
 * on the grid of a total_bits two's-complement word, whose range is
 * [-2^(total_bits-1), 2^(total_bits-1)) exactly.  NOT_FINITE if an x is
 * NaN or infinite (either branch); else OUT_OF_RANGE if a value is
 * outside the range, unless `saturate`, which clamps it to the range
 * ends.  q is unspecified unless ON_GRID is answered.  The first pass
 * is branch-free (an out-of-range value is cast as 0, never out of the
 * int64 range); only a value outside the range costs a second one. */
int fixed_point_quantize(const double *x, ptrdiff_t n, int frac_bits, int total_bits,
                         int saturate, int64_t *q)
{
    const double scale = ldexp(1.0, frac_bits), top = ldexp(1.0, total_bits - 1);
    const int64_t max_int = (int64_t)((UINT64_C(1) << (total_bits - 1)) - 1);
    int outside = 0;
    for (ptrdiff_t k = 0; k < n; k++) {
        const double r = rint(x[k] * scale);
        const int fits = (r < top) & (r >= -top);
        outside |= !fits;
        q[k] = (int64_t)(fits ? r : 0.0);
    }
    if (!outside)
        return ON_GRID;
    for (ptrdiff_t k = 0; k < n; k++) {
        if (!isfinite(x[k]))
            return NOT_FINITE;
    }
    if (!saturate)
        return OUT_OF_RANGE;
    for (ptrdiff_t k = 0; k < n; k++) {
        const double r = rint(x[k] * scale);
        if (!(r < top && r >= -top))
            q[k] = r > 0.0 ? max_int : -max_int - 1;
    }
    return ON_GRID;
}

/* FloatFormat.round of x (n,) into out (n,) (round_word). */
void float_format_round(const double *x, ptrdiff_t n, int mantissa_bits, double *out)
{
    for (ptrdiff_t k = 0; k < n; k++)
        out[k] = round_word(x[k], mantissa_bits);
}

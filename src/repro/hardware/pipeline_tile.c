/* Compiled GRAPE-6 pipeline tile: the same integers as the numpy tile.
 *
 * This file is the fast tier beneath repro.hardware.pipeline
 * .partial_lanes.  Its contract is identity with the numpy tier
 * (pipeline.numpy_partial_lanes), which stays the reference: the loader
 * checks both against each other before it hands this one out.
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

/* xi_q (n_i, 3) grid integers and vi (n_i, 3) velocities of the targets;
 * cj_q, cj_v (3, n_j), mj, host_j (n_j,) the sources, component-major;
 * exponents (7, n_i) the declared block exponents, under which a term c
 * becomes round(c / 2^(e - frac_bits)) quanta; lanes (2, 7, n_i)
 * receives the carry-save lanes hi, lo of the j-sums; i_index (n_i,)
 * host indices of the targets or NULL; `drop` low mantissa bits are
 * rounded away (nearest even) first.  All contiguous.  Returns 1, with
 * lanes unspecified, if a term does not fit the accumulator or is not
 * finite - tested before any conversion to an integer, so that none is
 * ever out of range. */
int pipeline_tile(const int64_t *xi_q, const double *vi, const int64_t *cj_q,
                  const double *cj_v, const double *mj, const int64_t *host_j,
                  const int64_t *exponents, int64_t *lanes,
                  const int64_t *i_index, ptrdiff_t n_i, ptrdiff_t n_j,
                  int frac_bits, double resolution, double eps2, int drop)
{
    int64_t *hi = lanes, *lo = lanes + 7 * n_i;
    const int64_t *restrict qx = cj_q, *restrict qy = cj_q + n_j,
                  *restrict qz = cj_q + 2 * n_j;
    const double *restrict u = cj_v, *restrict v = cj_v + n_j,
                 *restrict w = cj_v + 2 * n_j;
    const int by_index = i_index != NULL;
    /* drop == 0 rounds nothing: the parity bit must not be added */
    const uint64_t odd = drop ? 1 : 0;
    const uint64_t half_less_one = drop ? (UINT64_C(1) << (drop - 1)) - 1 : 0;
    const uint64_t keep = ~((UINT64_C(1) << drop) - 1);
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
        const uint64_t xi = (uint64_t)xi_q[3 * i], yi = (uint64_t)xi_q[3 * i + 1],
                       zi = (uint64_t)xi_q[3 * i + 2];
        const double ui = vi[3 * i], vi_ = vi[3 * i + 1], wi = vi[3 * i + 2];
        const int64_t self = by_index ? i_index[i] : 0;
        double s[7];
        int64_t sum_hi[7] = {0};
        uint64_t sum[7] = {0};
        for (int q = 0; q < 7; q++) {
            /* far outside the float range ldexp gives 0 or inf anyway */
            int64_t shift = frac_bits - exponents[q * n_i + i];
            shift = shift > 4096 ? 4096 : shift < -4096 ? -4096 : shift;
            s[q] = ldexp(1.0, (int)(multiply ? shift : -shift));
        }

        for (ptrdiff_t j0 = 0; j0 < n_j; j0 += BLOCK) {
            const ptrdiff_t n = n_j - j0 < BLOCK ? n_j - j0 : BLOCK;
            double t[7][BLOCK];
            uint64_t largest = 0;

            for (ptrdiff_t k = 0; k < n; k++) {
                const ptrdiff_t j = j0 + k;
                /* wrapping fixed-point subtraction, exact as a double */
                double dx = (double)(int64_t)((uint64_t)qx[j] - xi) * resolution;
                double dy = (double)(int64_t)((uint64_t)qy[j] - yi) * resolution;
                double dz = (double)(int64_t)((uint64_t)qz[j] - zi) * resolution;
                double du = u[j] - ui, dv = v[j] - vi_, dw = w[j] - wi;
                double r2 = (dx * dx + dy * dy) + dz * dz;
                /* the pair is cut at zero grid distance or equal host
                 * index: r = inf, so 1/r and every weight are exactly 0 */
                int cut = (r2 == 0.0) | (by_index & (host_j[j] == self));
                r2 = cut ? (double)INFINITY : r2 + eps2;
                double rinv = 1.0 / sqrt(r2);
                double rv = (dx * du + dy * dv) + dz * dw;
                double rinv2 = rinv * rinv;
                double mrinv = rinv * mj[j];
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
                return 1;
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
            hi[q * n_i + i] = sum_hi[q];
            lo[q * n_i + i] = (int64_t)(sum[q] - ((uint64_t)sum_hi[q] << 32));
        }
    }
    return 0;
}

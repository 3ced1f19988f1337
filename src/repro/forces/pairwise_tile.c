/* Compiled tile for eqs. (1)-(3): the same bits as the numpy kernel.
 *
 * This file is the fast tier beneath repro.forces.kernels
 * .pairwise_acc_jerk_pot.  Its contract is not a tolerance but bit
 * identity with the numpy tier (kernels.numpy_tile_sums), which stays
 * the reference: the loader checks both against each other before it
 * hands this one out.  Two things make that possible.
 *
 * 1. Elementwise, a pair goes through exactly the IEEE-754 operations
 *    the numpy kernel applies plane by plane, in the same order and
 *    with the same association: (dx dx + dy dy) + dz dz, then + eps2,
 *    sqrt, 1/x, and so on.  Every one of them is correctly rounded in
 *    either tier, so equal inputs give equal bits - provided the
 *    compiler neither fuses a multiply into an add (-ffp-contract=off)
 *    nor reassociates (no -ffast-math).  Vector width does not matter.
 *
 * 2. The seven weighted terms are summed over j in the order numpy's
 *    add.reduce uses along a contiguous axis (pairwise summation,
 *    numpy/_core/src/umath/loops_utils.h.src): fewer than 8 elements
 *    are added left to right; up to 128 go through eight interleaved
 *    accumulators r[k] += a[8 m + k], combined as
 *    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail left to right;
 *    longer runs are halved at a multiple of 8 and the halves added.
 *    The reduction finally adds its result to the identity, 0.0.
 *
 * Like the pipeline it stands in for, the tile holds one i-particle
 * while the j-set streams past; a row never sees another row.
 */
#include <math.h>
#include <stddef.h>

#define BLOCK 128 /* numpy's PW_BLOCKSIZE */

typedef struct {
    const double *x, *y, *z, *u, *v, *w, *gm; /* j-set, component-major */
    double xi, yi, zi, ui, vi, wi;            /* the held i-particle */
    double eps2;
    int mask_self;
} stream_t;

/* numpy's pairwise sum of n <= BLOCK contiguous values */
static double block_sum(const double *restrict a, ptrdiff_t n)
{
    ptrdiff_t i;
    double r[8], res;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    for (i = 0; i < 8; i++)
        r[i] = a[i];
    for (i = 8; i < n - (n % 8); i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += a[i + k];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* the weighted terms of pairs (i, j0 .. j0+n), n <= BLOCK, and their sums:
 * out = acc(3), jerk(3), m/r */
static void block_terms(const stream_t *s, ptrdiff_t j0, ptrdiff_t n,
                        double *restrict out)
{
    double t[7][BLOCK];
    const double *restrict x = s->x + j0, *restrict y = s->y + j0,
                 *restrict z = s->z + j0, *restrict u = s->u + j0,
                 *restrict v = s->v + j0, *restrict w = s->w + j0,
                 *restrict gm = s->gm + j0;
    const double xi = s->xi, yi = s->yi, zi = s->zi;
    const double ui = s->ui, vi = s->vi, wi = s->wi;
    const double eps2 = s->eps2;
    const int mask_self = s->mask_self;

    for (ptrdiff_t k = 0; k < n; k++) {
        double dx = x[k] - xi, dy = y[k] - yi, dz = z[k] - zi;
        double du = u[k] - ui, dv = v[k] - vi, dw = w[k] - wi;
        double r2 = (dx * dx + dy * dy) + dz * dz;
        r2 += eps2;
        /* zero separation: r^2 -> inf, so 1/r and every weight are 0 */
        if (mask_self)
            r2 = (r2 <= eps2) ? (double)INFINITY : r2;
        double rinv = 1.0 / sqrt(r2);
        double rv = (dx * du + dy * dv) + dz * dw;
        double rinv2 = rinv * rinv;
        double mrinv = rinv * gm[k];
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
        t[6][k] = mrinv;
    }
    for (int q = 0; q < 7; q++)
        out[q] = block_sum(t[q], n);
}

/* numpy's halving above BLOCK */
static void pairwise_terms(const stream_t *s, ptrdiff_t j0, ptrdiff_t n,
                           double *restrict out)
{
    if (n <= BLOCK) {
        block_terms(s, j0, n, out);
        return;
    }
    double lo[7], hi[7];
    ptrdiff_t half = n / 2;
    half -= half % 8;
    pairwise_terms(s, j0, half, lo);
    pairwise_terms(s, j0 + half, n - half, hi);
    for (int q = 0; q < 7; q++)
        out[q] = lo[q] + hi[q];
}

/* ci: (6, n_i) and cj: (6, n_j) rows x y z vx vy vz; gm: (n_j,) G m_j;
 * sums: (7, n_i) j-sums of acc(3), jerk(3), m/r.  All contiguous float64. */
void pairwise_tile(const double *ci, ptrdiff_t n_i, const double *cj,
                   const double *gm, ptrdiff_t n_j, double eps2,
                   int mask_self, double *sums)
{
    stream_t s = {cj, cj + n_j, cj + 2 * n_j, cj + 3 * n_j, cj + 4 * n_j,
                  cj + 5 * n_j, gm, 0, 0, 0, 0, 0, 0, eps2, mask_self};
    for (ptrdiff_t i = 0; i < n_i; i++) {
        double out[7];
        s.xi = ci[i];
        s.yi = ci[n_i + i];
        s.zi = ci[2 * n_i + i];
        s.ui = ci[3 * n_i + i];
        s.vi = ci[4 * n_i + i];
        s.wi = ci[5 * n_i + i];
        pairwise_terms(&s, 0, n_j, out);
        for (int q = 0; q < 7; q++)
            sums[q * n_i + i] = 0.0 + out[q];
    }
}

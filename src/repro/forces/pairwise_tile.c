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
 *
 * Two entry points:
 *
 *   pairwise_tile      component-major targets and sources, the j-sums
 *                      (kernels.numpy_tile_sums);
 *   resident_forces    the tile on a resident component-major j-set
 *                      with G m beside it (written by the host's
 *                      predictor, hermite_tile.c's hermite_predict_j),
 *                      for targets given as (n_i, 3) rows or as rows of
 *                      the j-set itself, the answers written as acc and
 *                      jerk rows and the potential
 *                      (kernels.numpy_resident_forces).
 *
 * The second reads what outlives a call through a struct the caller
 * bound once (struct resident); the targets are copied into buffers
 * bound with it.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

/* the seven j-sums of the i-particle s holds, as the reduction leaves them */
static void held_sums(const stream_t *s, ptrdiff_t n_j, double out[7])
{
    pairwise_terms(s, 0, n_j, out);
    for (int q = 0; q < 7; q++)
        out[q] = 0.0 + out[q];
}

static stream_t streaming(const double *cj, const double *gm, ptrdiff_t n_j,
                          double eps2, int mask_self)
{
    stream_t s = {cj, cj + n_j, cj + 2 * n_j, cj + 3 * n_j, cj + 4 * n_j,
                  cj + 5 * n_j, gm, 0, 0, 0, 0, 0, 0, eps2, mask_self};
    return s;
}

/* ci: (6, n_i) and cj: (6, n_j) rows x y z vx vy vz; gm: (n_j,) G m_j;
 * sums: (7, n_i) j-sums of acc(3), jerk(3), m/r.  All contiguous float64. */
void pairwise_tile(const double *ci, ptrdiff_t n_i, const double *cj,
                   const double *gm, ptrdiff_t n_j, double eps2,
                   int mask_self, double *sums)
{
    stream_t s = streaming(cj, gm, n_j, eps2, mask_self);
    for (ptrdiff_t i = 0; i < n_i; i++) {
        double out[7];
        s.xi = ci[i];
        s.yi = ci[n_i + i];
        s.zi = ci[2 * n_i + i];
        s.ui = ci[3 * n_i + i];
        s.vi = ci[4 * n_i + i];
        s.wi = ci[5 * n_i + i];
        held_sums(&s, n_j, out);
        for (int q = 0; q < 7; q++)
            sums[q * n_i + i] = out[q];
    }
}

/* what resident_forces answers */
enum { DONE = 0, ROW_OUT_OF_RANGE = 1 };

/* 0 <= rows[k] < n for every k < n_rows */
static int rows_in_range(const int64_t *rows, ptrdiff_t n_rows, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n_rows; k++)
        if (rows[k] < 0 || rows[k] >= n)
            return 0;
    return 1;
}

/* the resident j-set of n particles and what a force call on it stages
 * (rows deep) and answers */
struct resident {
    ptrdiff_t n;
    const double *cj, *gm;
    const double *xi, *vi; /* (rows, 3) targets, as given */
    const int64_t *index;  /* (rows,) the targets' columns of cj, if BY_INDEX */
    double *acc, *jerk;    /* (rows, 3) answers */
    double *pot;           /* (rows,) */
    double eps2;
};

enum { MASK_SELF = 1, BY_INDEX = 2 };

int resident_forces(const struct resident *r, ptrdiff_t n_i, int flags)
{
    const ptrdiff_t n = r->n;
    const double *cj = r->cj;
    const int64_t *index = r->index;
    const int by_index = flags & BY_INDEX;
    if (by_index && !rows_in_range(index, n_i, n))
        return ROW_OUT_OF_RANGE;
    stream_t s = streaming(cj, r->gm, n, r->eps2, flags & MASK_SELF);
    double *acc = r->acc, *jerk = r->jerk, *pot = r->pot;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        double out[7];
        if (by_index) {
            /* a j-particle as its own target: its column of cj */
            const ptrdiff_t j = (ptrdiff_t)index[i];
            s.xi = cj[j];
            s.yi = cj[n + j];
            s.zi = cj[2 * n + j];
            s.ui = cj[3 * n + j];
            s.vi = cj[4 * n + j];
            s.wi = cj[5 * n + j];
        } else {
            s.xi = r->xi[3 * i];
            s.yi = r->xi[3 * i + 1];
            s.zi = r->xi[3 * i + 2];
            s.ui = r->vi[3 * i];
            s.vi = r->vi[3 * i + 1];
            s.wi = r->vi[3 * i + 2];
        }
        held_sums(&s, n, out);
        for (int c = 0; c < 3; c++) {
            acc[3 * i + c] = out[c];
            jerk[3 * i + c] = out[3 + c];
        }
        pot[i] = -out[6];
    }
    return DONE;
}

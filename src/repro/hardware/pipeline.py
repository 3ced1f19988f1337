"""Force-calculation pipeline (paper, fig. 8).

One pipeline evaluates equations (1)-(3) for one (i, j) pair per clock:
coordinate subtraction in fixed point (exact), the nonlinear
r^2 -> r^-3 path and the multiplies in reduced-precision arithmetic.

Emulation fidelity: the real pipeline chains ~30 arithmetic units, each
with its own word length (the interaction path uses an unsigned
logarithmic format).  Rounding after every gate-level operator would
model word lengths we do not know and would be prohibitively slow; we
instead compute each pairwise term in float64 and round the *result* of
each of the three outputs (acc / jerk / pot contributions) to the
pipeline's relative precision (default 24-bit mantissa, the accuracy
class of the real log format).  The properties the paper's section 3.4
relies on are preserved exactly:

* dx from fixed-point memory is exact (no cancellation error),
* every pairwise contribution is a deterministic pure function of the
  pair, independent of which pipeline/chip computes it,
* contributions are then summed in block floating point with no
  further error (:mod:`repro.hardware.blockfloat`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..forces.kernels import TILE_BYTES, plane_dot
from .blockfloat import FRAC_BITS, BlockFloatOverflow
from .fixedpoint import FixedPointFormat, carry_save_sum
from .floatformat import FloatFormat


@dataclass(frozen=True)
class PipelineFormats:
    """Arithmetic formats of the force pipeline."""

    pos: FixedPointFormat
    word: FloatFormat
    pair: FloatFormat

    @staticmethod
    def default() -> "PipelineFormats":
        return PipelineFormats(
            pos=FixedPointFormat(64, 40),
            word=FloatFormat(32),
            pair=FloatFormat(24),
        )


def partial_lanes(
    xi_q: np.ndarray,
    vi: np.ndarray,
    cj_q: np.ndarray,
    cj_v: np.ndarray,
    mj: np.ndarray,
    host_index_j: np.ndarray,
    exponents: np.ndarray,
    eps2: float,
    formats: PipelineFormats,
    i_index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact j-sums of the quantised pair terms of eqs. (1)-(3).

    Parameters
    ----------
    xi_q, vi:
        (n_i, 3) fixed-point positions (int64 grid integers) and
        word-rounded velocities of the targets.
    cj_q, cj_v, mj, host_index_j:
        The sources, component-major: (3, n_j) int64 positions, (3, n_j)
        velocities, (n_j,) masses and host indices.
    exponents:
        (7, n_i) declared block exponents, one row per output plane
        (acc x, y, z; jerk x, y, z; pot).
    i_index:
        Host indices of the targets; a pair with equal indices is the
        particle itself and contributes nothing.  So does any pair at
        exactly zero grid distance, so that an unsoftened configuration
        cannot divide by zero.

    Returns
    -------
    ``(hi, lo)``, (7, n_i) int64 carry-save lanes of the sums over j
    (:func:`repro.hardware.fixedpoint.carry_save_sum`).  Raises
    :class:`~repro.hardware.blockfloat.BlockFloatOverflow` if a single
    contribution does not fit the register (the saturation flag).

    The fixed-point twin of :func:`repro.forces.kernels.pairwise_acc_jerk_pot`:
    one buffer of 14 ``(rows, n_j)`` planes, sized by ``TILE_BYTES``
    from ``n_j`` alone and reused by every i-tile.  The seven outputs
    grow in place in its first half (dx -> acc, dv -> jerk, 1/r -> pot),
    are rounded to the pair format there, scaled to accumulator quanta
    by an exact power of two, range-checked, and ``rint``-ed into the
    second half as int64, which is reduced over the contiguous j axis.
    Rows are independent and the reduction is exact, so tile boundaries
    cannot change a bit.
    """
    n_i, n_j = xi_q.shape[0], cj_q.shape[1]
    ci_q = np.ascontiguousarray(xi_q.T)
    ci_v = np.ascontiguousarray(vi.T)
    # c / 2^(e-F) == c * 2^(F-e) bit for bit (also when the product
    # under- or overflows) as long as both powers of two are normal
    # numbers; exponents beyond that (an all-zero-mass j-set) divide
    shift = FRAC_BITS - np.asarray(exponents, dtype=np.int64)
    multiply = n_i == 0 or (shift.min() >= -1022 and shift.max() <= 1023)
    scale = np.ldexp(1.0, shift if multiply else -shift)
    hi = np.empty((7, n_i), dtype=np.int64)
    lo = np.empty((7, n_i), dtype=np.int64)

    height = max(1, min(n_i, TILE_BYTES // (8 * 14 * max(n_j, 1))))
    flat = np.empty(14 * height * n_j)  # one buffer, reused by every tile
    for start in range(0, n_i, height):
        rows = slice(start, min(start + height, n_i))
        n_rows = rows.stop - start
        buf = flat[: 14 * n_rows * n_j].reshape(14, n_rows, n_j)
        out, tmp = buf[:7], buf[7:]
        dx, dv, mrinv = out[:3], out[3:6], out[6]
        alpha, rinv2, mrinv3 = tmp[3], tmp[4], tmp[5]

        # exact fixed-point subtraction; the difference spans < 2^53
        # quanta for any pair within the supported coordinate range, so
        # its float64 value is exact too
        dq = tmp[:3].view(np.int64)
        np.subtract(cj_q[:, None, :], ci_q[:, rows, None], out=dq)
        np.multiply(dq, formats.pos.resolution, out=dx)
        np.subtract(cj_v[:, None, :], ci_v[:, rows, None], out=dv)

        r2 = plane_dot(dx, dx, tmp[:3], mrinv)
        cut = r2 == 0.0  # dx is exact: r^2 == 0 iff grid-identical
        if i_index is not None:
            cut |= i_index[rows, None] == host_index_j
        r2 += eps2
        # cut pairs get r = inf, so 1/r and every weight built on it is
        # exactly 0 and nothing is divided by zero even at eps2 = 0
        np.putmask(r2, cut, np.inf)
        np.sqrt(r2, out=r2)
        rinv = np.divide(1.0, r2, out=r2)
        plane_dot(dx, dv, tmp[:3], alpha)  # r.v
        np.multiply(rinv, rinv, out=rinv2)
        mrinv *= mj  # 1/r -> m/r
        np.multiply(mrinv, rinv2, out=mrinv3)
        alpha *= 3.0
        alpha *= rinv2  # 3 (v.r) / r^2 -- the alpha factor of the jerk (eq. 2)
        np.multiply(mrinv3, alpha, out=rinv2)
        np.multiply(dx, rinv2, out=tmp[:3])
        dv *= mrinv3
        dv -= tmp[:3]
        dx *= mrinv3
        np.negative(mrinv, out=mrinv)

        formats.pair.round_inplace(out, tmp)
        if multiply:
            out *= scale[:, rows, None]
        else:
            out /= scale[:, rows, None]
        if out.size and max(out.max(), -out.min()) >= 2.0**62:
            raise BlockFloatOverflow("pairwise contribution saturates the accumulator")
        quanta = tmp.view(np.int64)
        np.copyto(quanta, np.rint(out, out=out), casting="unsafe")
        hi[:, rows], lo[:, rows] = carry_save_sum(
            quanta, axis=2, scratch=out.view(np.int64)
        )
    return hi, lo

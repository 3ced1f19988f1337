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

from ctypes import c_double, c_int, c_ssize_t, c_void_p
from dataclasses import dataclass, replace

import numpy as np

from ..forces.compiled import TileUnavailable, address, load_tile
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


SATURATES = "pairwise contribution saturates the accumulator"


def numpy_partial_lanes(
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

    The fixed-point twin of :func:`repro.forces.kernels.pairwise_acc_jerk_pot`,
    and like it two tiers with one behaviour (:data:`partial_lanes`).
    This is the numpy tier, and the reference the compiled tier must
    match integer for integer: one buffer of 14 ``(rows, n_j)`` planes,
    sized by ``TILE_BYTES`` from ``n_j`` alone and reused by every
    i-tile.  The seven outputs grow in place in its first half (dx ->
    acc, dv -> jerk, 1/r -> pot), are rounded to the pair format there,
    scaled to accumulator quanta by an exact power of two,
    range-checked, and ``rint``-ed into the second half as int64, which
    is reduced over the contiguous j axis.  Rows are independent and the
    reduction is exact, so tile boundaries cannot change a bit.
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
        # "not below", so that a NaN term (a non-finite word in j-memory)
        # raises the flag too instead of being cast to an integer
        if out.size and not max(out.max(), -out.min()) < 2.0**62:
            raise BlockFloatOverflow(SATURATES)
        quanta = tmp.view(np.int64)
        np.copyto(quanta, np.rint(out, out=out), casting="unsafe")
        hi[:, rows], lo[:, rows] = carry_save_sum(
            quanta, axis=2, scratch=out.view(np.int64)
        )
    return hi, lo


def _bind(fn):
    """``pipeline_tile`` behind :func:`numpy_partial_lanes`' signature."""

    def compiled_partial_lanes(
        xi_q, vi, cj_q, cj_v, mj, host_index_j, exponents, eps2, formats, i_index=None
    ):
        n_i, n_j = xi_q.shape[0], cj_q.shape[1]
        lanes = np.zeros((2, 7, n_i), dtype=np.int64)
        arrays = [
            (xi_q, np.int64, (n_i, 3)), (vi, np.float64, (n_i, 3)),
            (cj_q, np.int64, (3, n_j)), (cj_v, np.float64, (3, n_j)),
            (mj, np.float64, (n_j,)), (host_index_j, np.int64, (n_j,)),
            (np.asarray(exponents, dtype=np.int64), np.int64, (7, n_i)),
            (lanes, np.int64, (2, 7, n_i)),
        ]
        if i_index is not None:
            arrays.append((i_index, np.int64, (n_i,)))
        for a, dtype, shape in arrays:
            if a.dtype != dtype or a.shape != shape:
                raise ValueError(f"pipeline tile wants {np.dtype(dtype)} {shape}")
        if n_i and n_j:  # else there is no first element to point at: the sums are 0
            held = [np.ascontiguousarray(a) for a, _, _ in arrays]  # alive for the call
            pointers = [address(a) for a in held]
            if i_index is None:
                pointers.append(None)
            drop = 53 - formats.pair.mantissa_bits
            if fn(*pointers, n_i, n_j, FRAC_BITS, formats.pos.resolution, eps2, drop):
                raise BlockFloatOverflow(SATURATES)
        return lanes[0], lanes[1]

    return compiled_partial_lanes


#: ``(n_i, n_j, pair mantissa, eps2, block exponent, mass scale)`` of the
#: load-time self-check: around the 128-pair block, both pair widths,
#: exponents that saturate, fit, and take the dividing branch.
SELF_CHECK_TILES = (
    (3, 7, 24, 2.0**-12, 12, 1.0), (2, 128, 53, 0.0, 12, 1.0), (3, 129, 24, 0.0, 8, 1.0),
    (2, 300, 24, 2.0**-12, -30, 1.0), (2, 9, 24, 2.0**-12, -990, 2.0**-1000),
)


def lanes_or_overflow(tile, *args) -> bytes | None:
    """What a tile answers, comparably: its lanes' bytes, or None if it
    raised :class:`BlockFloatOverflow`."""
    try:
        return np.stack(tile(*args)).tobytes()
    except BlockFloatOverflow:
        return None


def _self_check(tile) -> None:
    """Refuse ``tile`` unless it answers as :func:`numpy_partial_lanes`
    does on :data:`SELF_CHECK_TILES`: targets among the sources, two
    sources on one grid point, without host indices and with those of
    the next source (which only the index cuts)."""
    for n_i, n_j, bits, eps2, exponent, mass in SELF_CHECK_TILES:
        formats = replace(PipelineFormats.default(), pair=FloatFormat(bits))
        # irregular O(1) coordinates and masses (no RNG: see forces.compiled)
        wave = np.sin(np.arange(1.0, 6 * n_j + 1).reshape(6, n_j) ** 2)
        cj_q, cj_v, mj = formats.pos.quantize(wave[:3]), wave[3:], mass * (0.1 + wave[0] ** 2)
        cj_q[:, n_j // 2] = cj_q[:, 0]
        xi_q, vi = cj_q[:, :n_i].T.copy(), cj_v[:, :n_i].T.copy()
        exponents = np.full((7, n_i), exponent)
        for i_index in (None, np.arange(1, n_i + 1)):
            args = (xi_q, vi, cj_q, cj_v, mj, np.arange(n_j), exponents, eps2, formats, i_index)
            if lanes_or_overflow(tile, *args) != lanes_or_overflow(numpy_partial_lanes, *args):
                raise TileUnavailable(
                    f"self-check: compiled tile differs from the numpy tile at "
                    f"{n_i}x{n_j}, pair width {bits}, exponent {exponent}"
                )


def resolve_pipeline_tier():
    """``(tile, PIPELINE_TIER, PIPELINE_TIER_REASON)``: the compiled tile
    if it builds, loads and passes :func:`_self_check`, else the numpy
    tile and why.  As :func:`repro.forces.kernels.resolve_kernel_tier`:
    run once, at import, and nothing the loader meets may escape it."""
    try:
        fn, built = load_tile(
            "pipeline_tile",
            [c_void_p] * 9 + [c_ssize_t, c_ssize_t, c_int, c_double, c_double, c_int],
            c_int,
        )
        tile = _bind(fn)
        _self_check(tile)
    except TileUnavailable as exc:
        return numpy_partial_lanes, "numpy", str(exc)
    except Exception as exc:
        return numpy_partial_lanes, "numpy", f"loader failed: {exc!r}"
    return tile, "c", built


#: The pipeline tile serving this process - :func:`numpy_partial_lanes`,
#: or ``pipeline_tile.c`` behind the same signature: one target held
#: while the j-set streams past, the same IEEE operations per pair and
#: the terms summed as integers, so the tiers agree exactly and nothing
#: selects one - and which tier it is (``"c"`` | ``"numpy"``) and why.
partial_lanes, PIPELINE_TIER, PIPELINE_TIER_REASON = resolve_pipeline_tier()

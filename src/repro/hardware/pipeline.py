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

The tile is one library with a numpy tier and a compiled tier
(:class:`PipelineTier`), and so is the host's side of its boundary: the
storage formats the j-load, the i-block and the predictor pass are
quantised and rounded in (:func:`quantize`, :func:`round_float`, twins
of the format classes' methods), and the conversion of the tile's
carry-save lanes to forces (:func:`lanes_to_forces`, the twin of
:meth:`~repro.hardware.blockfloat.BlockFloatAccumulator.to_float_lanes`).
The batched datapath binds the machine's j-set once per write
generation (:func:`bind_j_set`) and has :func:`forces` come straight out
of the tile, row-major; the faithful datapath keeps the lanes and its
big-integer adder tree.
"""

from __future__ import annotations

from ctypes import Structure, byref, c_double, c_int, c_ssize_t, c_void_p
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ..forces.compiled import TileUnavailable, address, entry_point, resolve
from ..forces.kernels import TILE_BYTES, plane_dot
from .blockfloat import FRAC_BITS, OVERFLOWS, BlockFloatAccumulator, BlockFloatOverflow
from .fixedpoint import NOT_FINITE, FixedPointFormat, NonFiniteValue, carry_save_sum
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


def numpy_bind_j_set(cj_q, cj_v, mj, host_index_j) -> tuple:
    """The j-set of :func:`numpy_forces`: the numpy tile binds nothing."""
    return cj_q, cj_v, mj, host_index_j


def numpy_lanes_to_forces(
    hi: np.ndarray, lo: np.ndarray, exponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(acc (n_i, 3), jerk (n_i, 3), pot (n_i,))`` of the (7, n_i)
    carry-save lanes of a tile under its (7, n_i) exponents:
    :meth:`~repro.hardware.blockfloat.BlockFloatAccumulator.to_float_lanes`,
    row-major.  Raises :class:`BlockFloatOverflow` if a total does not
    fit the register."""
    out = BlockFloatAccumulator(exponents).to_float_lanes(hi, lo)
    return np.ascontiguousarray(out[:3].T), np.ascontiguousarray(out[3:6].T), out[6]


def numpy_forces(j_set, xi_q, vi, exponents, eps2, formats, i_index=None):
    """The forces of a tile on a bound j-set (:func:`bind_j_set`): the
    lanes of :func:`numpy_partial_lanes` through
    :func:`numpy_lanes_to_forces`, or None if a total overflows the
    register - the pipelines have streamed, and the host retries.
    Raises :class:`BlockFloatOverflow` if a single term saturates."""
    hi, lo = numpy_partial_lanes(xi_q, vi, *j_set, exponents, eps2, formats, i_index)
    try:
        return numpy_lanes_to_forces(hi, lo, exponents)
    except BlockFloatOverflow:
        return None


class PipelineTier(NamedTuple):
    """One tier of the pipeline library: the tile, and the host's side of
    its boundary - the j-set bound once, the forces straight out of the
    tile, and the storage formats."""

    partial_lanes: Callable
    bind_j_set: Callable
    forces: Callable
    lanes_to_forces: Callable
    quantize: Callable  # (FixedPointFormat, x, saturate=False) -> int64
    round_float: Callable  # (FloatFormat, x) -> float64


#: The numpy tier: the reference, and what runs without a compiler.  Its
#: formats are the format classes' own methods.
NUMPY_PIPELINE = PipelineTier(
    numpy_partial_lanes, numpy_bind_j_set, numpy_forces, numpy_lanes_to_forces,
    FixedPointFormat.quantize, FloatFormat.round,
)

# what pipeline_tile.c answers: its tile entry points (0 when the sums
# fit) and fixed_point_quantize (0 when every value is on the grid)
_SATURATES = 1
_ON_GRID, _NOT_FINITE = 0, 2
_F8, _I8 = np.dtype(np.float64), np.dtype(np.int64)


class _JSetStruct(Structure):
    """``struct j_set`` of ``pipeline_tile.c``."""

    _fields_ = [
        ("n_j", c_ssize_t), ("cj_q", c_void_p), ("cj_v", c_void_p), ("mj", c_void_p),
        ("host_j", c_void_p),
    ]


def _contiguous(specs) -> list[np.ndarray]:
    """The arrays of ``(array, dtype, shape)`` specs, C-contiguous (copied
    only if they are not), or ValueError for the first that has another
    dtype or shape: the compiled tile reads through bare pointers."""
    held = []
    for a, dtype, shape in specs:
        if a.dtype != dtype or a.shape != shape:
            raise ValueError(f"pipeline tile wants {dtype} {shape}")
        held.append(a if a.flags.c_contiguous else np.ascontiguousarray(a))
    return held


class BoundJSet:
    """A j-set the compiled tile streams, validated and addressed once:
    it holds the contiguous arrays its struct points into, so no pointer
    outlives them."""

    __slots__ = ("arrays", "pointer")

    def __init__(self, cj_q, cj_v, mj, host_index_j) -> None:
        n_j = cj_q.shape[-1]
        self.arrays = _contiguous((
            (cj_q, _I8, (3, n_j)), (cj_v, _F8, (3, n_j)), (mj, _F8, (n_j,)),
            (host_index_j, _I8, (n_j,)),
        ))
        self.pointer = byref(_JSetStruct(n_j, *map(address, self.arrays)))


def _float64(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x if x.flags.c_contiguous else np.ascontiguousarray(x)


def _split(out: np.ndarray, n_i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """acc (n_i, 3), jerk (n_i, 3), pot (n_i,) of one (7 n_i,) buffer."""
    return out[: 3 * n_i].reshape(n_i, 3), out[3 * n_i : 6 * n_i].reshape(n_i, 3), out[6 * n_i :]


def _bind(library) -> PipelineTier:
    """``pipeline_tile.c`` behind the numpy tier's signatures."""
    void_p, ssize_t = c_void_p, c_ssize_t
    tile_args = [void_p] * 5 + [ssize_t, c_int, c_double, c_double, c_int, void_p]
    tile_fn = entry_point(library, "pipeline_tile", tile_args, c_int)
    forces_fn = entry_point(library, "pipeline_forces", tile_args, c_int)
    to_forces_fn = entry_point(
        library, "pipeline_to_forces", [void_p, void_p, ssize_t, c_int, void_p], c_int
    )
    quantize_fn = entry_point(
        library, "fixed_point_quantize", [void_p, ssize_t, c_int, c_int, c_int, void_p], c_int
    )
    round_fn = entry_point(library, "float_format_round", [void_p, ssize_t, c_int, void_p])

    def targets(xi_q, vi, exponents, i_index) -> tuple:
        """The per-call side of a tile: ``n_i``, the addresses of the
        targets, exponents and host indices, and the arrays they are in."""
        n_i = xi_q.shape[0]
        specs = [
            (xi_q, _I8, (n_i, 3)), (vi, _F8, (n_i, 3)),
            (np.asarray(exponents, dtype=np.int64), _I8, (7, n_i)),
        ]
        if i_index is not None:
            specs.append((i_index, _I8, (n_i,)))
        held = _contiguous(specs)
        pointers = [address(a) for a in held]
        return n_i, pointers if i_index is not None else pointers + [None], held

    def compiled_partial_lanes(
        xi_q, vi, cj_q, cj_v, mj, host_index_j, exponents, eps2, formats, i_index=None
    ):
        n_i, pointers, held = targets(xi_q, vi, exponents, i_index)  # held: alive for the call
        j_set = BoundJSet(cj_q, cj_v, mj, host_index_j)
        lanes = np.empty((2, 7, n_i), dtype=np.int64)
        if n_i and tile_fn(
            j_set.pointer, *pointers, n_i, FRAC_BITS, formats.pos.resolution, eps2,
            53 - formats.pair.mantissa_bits, address(lanes),
        ):
            raise BlockFloatOverflow(SATURATES)
        return lanes[0], lanes[1]

    def compiled_forces(j_set, xi_q, vi, exponents, eps2, formats, i_index=None):
        n_i, pointers, held = targets(xi_q, vi, exponents, i_index)  # held: alive for the call
        out = np.empty(7 * n_i)
        if n_i:
            answer = forces_fn(
                j_set.pointer, *pointers, n_i, FRAC_BITS, formats.pos.resolution, eps2,
                53 - formats.pair.mantissa_bits, address(out),
            )
            if answer == _SATURATES:
                raise BlockFloatOverflow(SATURATES)
            if answer:
                return None
        return _split(out, n_i)

    def compiled_lanes_to_forces(hi, lo, exponents):
        n_i = np.shape(exponents)[-1]
        lanes = np.ascontiguousarray(np.stack((hi, lo)), dtype=np.int64)
        exponents = _contiguous([(np.asarray(exponents, dtype=np.int64), _I8, (7, n_i))])[0]
        if lanes.shape != (2, 7, n_i):
            raise ValueError(f"lanes_to_forces wants two (7, {n_i}) lanes")
        out = np.empty(7 * n_i)
        if n_i and to_forces_fn(address(lanes), address(exponents), n_i, FRAC_BITS, address(out)):
            raise BlockFloatOverflow(OVERFLOWS)
        return _split(out, n_i)

    def compiled_quantize(fmt: FixedPointFormat, x, saturate: bool = False) -> np.ndarray:
        x = _float64(x)
        q = np.empty(x.shape, dtype=np.int64)
        if x.size:
            answer = quantize_fn(
                address(x), x.size, fmt.frac_bits, fmt.total_bits, saturate, address(q)
            )
            if answer == _NOT_FINITE:
                raise NonFiniteValue(NOT_FINITE)
            if answer != _ON_GRID:
                raise fmt.out_of_range()
        return q

    def compiled_round_float(fmt: FloatFormat, x) -> np.ndarray:
        x = _float64(x)
        out = np.empty(x.shape)
        if x.size:
            round_fn(address(x), x.size, fmt.mantissa_bits, address(out))
        return out

    return PipelineTier(
        compiled_partial_lanes, BoundJSet, compiled_forces, compiled_lanes_to_forces,
        compiled_quantize, compiled_round_float,
    )


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


def _self_check_tiles():
    """``(where, arguments)`` of every self-check tile as
    :func:`numpy_partial_lanes` takes them: targets among the sources,
    two sources on one grid point, without host indices and with those
    of the next source (which only the index cuts)."""
    for n_i, n_j, bits, eps2, exponent, mass in SELF_CHECK_TILES:
        formats = replace(PipelineFormats.default(), pair=FloatFormat(bits))
        # irregular O(1) coordinates and masses (no RNG: see forces.kernels)
        wave = np.sin(np.arange(1.0, 6 * n_j + 1).reshape(6, n_j) ** 2)
        cj_q, cj_v, mj = formats.pos.quantize(wave[:3]), wave[3:], mass * (0.1 + wave[0] ** 2)
        cj_q[:, n_j // 2] = cj_q[:, 0]
        xi_q, vi = cj_q[:, :n_i].T.copy(), cj_v[:, :n_i].T.copy()
        exponents = np.full((7, n_i), exponent)
        for i_index in (None, np.arange(1, n_i + 1)):
            where = f"{n_i}x{n_j}, pair width {bits}, exponent {exponent}"
            yield where, (xi_q, vi, cj_q, cj_v, mj, np.arange(n_j), exponents, eps2, formats, i_index)


def _self_check(tier: PipelineTier) -> None:
    """Refuse ``tier`` unless its tile answers as :func:`numpy_partial_lanes`
    does on every tile of :func:`_self_check_tiles`, and its boundary
    passes :func:`_self_check_boundary`."""
    for where, args in _self_check_tiles():
        if (lanes_or_overflow(tier.partial_lanes, *args)
                != lanes_or_overflow(numpy_partial_lanes, *args)):
            raise TileUnavailable(
                f"self-check: compiled tile differs from the numpy tile at {where}"
            )
    _self_check_boundary(tier)


def _answer(fn, *args) -> bytes | str | None:
    """What a boundary function answers, comparably: the bytes of what it
    returns (None as None), or the name of the error it raises."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    if out is None:
        return None
    return b"".join(np.asarray(a).tobytes() for a in (out if isinstance(out, tuple) else (out,)))


#: Values the storage formats are checked on at load time: both zeros,
#: subnormals, ties of the grid and of short mantissas, and both range
#: ends of a 64-bit word of 40 fraction bits (2^23 - 2^-40 is 2^23 in
#: float64), with their neighbours.
FORMAT_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022 * 0.75, 2.0**-1040, 1.0, -1.0,
    0.5 * 2.0**-40, 1.5 * 2.0**-40, -2.5 * 2.0**-40, 0.3, -1.0 / 3.0,
    1.0 + 2.0**-24, 1.0 + 3 * 2.0**-24, 1.0 + 2.0**-33, -(1.0 + 2.0**-53),
    2.0**23 - 2.0**-40, 2.0**23, np.nextafter(2.0**23, 0.0), -2.0**23,
    np.nextafter(-2.0**23, -np.inf), 2.0**15, -2.0**15, 1e10, -1e10, 1.7976931348623157e308,
])
#: The formats they are checked in: the position word, a 32-bit word
#: (whose range ends are exact in float64) and every mantissa width the
#: twins are held to.
FIXED_FORMATS = (FixedPointFormat(64, 40), FixedPointFormat(32, 16))
FLOAT_WIDTHS = (1, 24, 32, 52, 53)


def _self_check_boundary(tier: PipelineTier) -> None:
    """Refuse ``tier`` unless its storage formats, its lanes-to-forces
    conversion and its forces call answer as :data:`NUMPY_PIPELINE`
    does: equal bits, or the same error.  Each value is quantised alone
    (one out-of-range value refuses a whole array) and all together;
    the lanes sit on both sides of both register ends, and exponents
    run from a quantum that underflows to one that overflows."""
    cases = []
    for fmt in FIXED_FORMATS:
        for saturate in (False, True):
            cases += [("quantize", fmt, FORMAT_VALUES, saturate)]
            cases += [("quantize", fmt, FORMAT_VALUES[k : k + 1], saturate)
                      for k in range(len(FORMAT_VALUES))]
            cases += [("quantize", fmt, np.array([0.5, bad]), saturate)
                      for bad in (np.nan, np.inf, -np.inf)]
    specials = np.concatenate([FORMAT_VALUES, [np.inf, -np.inf, np.nan]])
    cases += [("round_float", FloatFormat(bits), specials) for bits in FLOAT_WIDTHS]
    half, low = 2**31, 2**32 - 1
    for hi, lo in ((-half, 0), (-half, 1), (half - 1, low), (half, 0), (-half - 1, low),
                   (half - 2, 2 * low), (-half + 1, -(2**32))):
        lanes = np.zeros((2, 7, 3), dtype=np.int64)
        lanes[0, :, 1], lanes[1, :, 1] = hi, lo
        lanes[0, :, 2], lanes[1, :, 2] = 12345, -(2**40)
        for exponent in (-1100, -1040, 12, 990, 1100):
            exponents = np.full((7, 3), exponent)
            cases.append(("lanes_to_forces", lanes[0], lanes[1], exponents))
    for name, *args in cases:
        with np.errstate(all="ignore"):  # numpy's reference overflows to inf, as it should
            want = _answer(getattr(NUMPY_PIPELINE, name), *args)
        if _answer(getattr(tier, name), *args) != want:
            raise TileUnavailable(f"self-check: compiled {name} differs from numpy on {args}")
    for where, (xi_q, vi, *j_set, exponents, eps2, formats, i_index) in _self_check_tiles():
        # on the targets, and 64 length units away from them where no
        # term dominates: terms that saturate, totals that overflow and
        # sums that fit
        far = xi_q + 2**46
        for targets, shifts in ((xi_q, (0,)), (far, (16, 20))):
            for shift in shifts:
                answers = [
                    _answer(t.forces, t.bind_j_set(*j_set), targets, vi, exponents + shift,
                              eps2, formats, i_index)
                    for t in (tier, NUMPY_PIPELINE)
                ]
                if answers[0] != answers[1]:
                    raise TileUnavailable(
                        f"self-check: compiled forces differ from numpy at {where}, "
                        f"declared {shift} bits larger"
                    )


#: The pipeline tier serving this process - :data:`NUMPY_PIPELINE`, or
#: ``pipeline_tile.c`` behind the same signatures: one target held while
#: the j-set streams past, the same IEEE operations per pair and the
#: terms summed as integers, so the tiers agree exactly and nothing
#: selects one (``compiled.TIERS["pipeline_tile"]`` says which, and why).
_tier = resolve("pipeline_tile", _bind, _self_check, NUMPY_PIPELINE)

#: The tile (:func:`numpy_partial_lanes` documents the signature).
partial_lanes = _tier.partial_lanes
#: ``bind_j_set(cj_q, cj_v, mj, host_index_j)``: a j-set validated and
#: addressed once, for any number of :func:`forces` calls.
bind_j_set = _tier.bind_j_set
#: The tile's forces on a bound j-set (:func:`numpy_forces`).
forces = _tier.forces
#: Carry-save lanes to forces (:func:`numpy_lanes_to_forces`).
lanes_to_forces = _tier.lanes_to_forces
#: :meth:`FixedPointFormat.quantize <repro.hardware.fixedpoint.FixedPointFormat.quantize>`
#: as ``quantize(fmt, x, saturate=False)``.
quantize = _tier.quantize
#: :meth:`FloatFormat.round <repro.hardware.floatformat.FloatFormat.round>`
#: as ``round_float(fmt, x)``.
round_float = _tier.round_float

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
storage formats' twins (:func:`quantize`, :func:`round_float`), the
conversion of carry-save lanes to forces (:func:`lanes_to_forces`), and
the batched datapath's two crossings a blockstep - a j-load written in
place into a :class:`JSet` (:func:`load_j_set`), and one call from raw
targets to forces, their exponents read from the host's table and
stored back (:func:`forces`).  Each copies its inputs into buffers
bound once (:class:`~repro.forces.compiled.Bound`) - a load with the
j-memory, a force call with the exponent table and the constants - and
passes the tile the struct, the row count and a flag; the forces it
returns are a copy, the caller's.  The faithful datapath keeps the
lanes and its big-integer adder tree.
"""

from __future__ import annotations

from ctypes import Structure, c_double, c_int, c_ssize_t, c_void_p
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ..forces.compiled import Bound, TileUnavailable, address, entry_point, resolve
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

    The targets are ``xi_q`` (n_i, 3) grid integers and word-rounded
    velocities ``vi``; the sources component-major (3, n_j) positions
    ``cj_q`` and velocities ``cj_v``, (n_j,) masses and host indices;
    ``exponents`` the (7, n_i) declared block exponents, one row per
    output plane (acc x, y, z; jerk x, y, z; pot).  A pair with equal
    host indices (``i_index``, the targets') is the particle itself and
    contributes nothing, nor does a pair at exactly zero grid distance,
    so that an unsoftened configuration cannot divide by zero.  Returns
    ``(hi, lo)``, the (7, n_i) int64 carry-save lanes of the sums over j
    (:func:`~repro.hardware.fixedpoint.carry_save_sum`); raises
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


_F8, _I8 = np.dtype(np.float64), np.dtype(np.int64)

#: Exponent-table entry of a particle no force was evaluated on yet.
UNCACHED = np.iinfo(np.int64).min

#: Which of acc, jerk, pot each output plane of the pipeline tile
#: declares (acc x, y, z; jerk x, y, z; pot), as a column for indexing
#: a (3, n) exponent table into the tile's (7, n) stack.
PLANE_OUTPUTS = np.array([[0], [0], [0], [1], [1], [1], [2]])

#: What :func:`forces` answers: the sums fit; a term saturates the register;
#: a total overflows it; a target has no exponents in the table.
TILE_FITS, TILE_SATURATES, TILE_OVERFLOWS, TILE_UNCACHED = 0, 1, 2, 3


def _check(specs) -> None:
    """ValueError for the first of ``(array, dtype, shape)`` specs that has
    another dtype or shape: the compiled tile reads them, or the copies
    it makes of them, through bare pointers."""
    for a, dtype, shape in specs:
        if a.dtype != dtype or a.shape != shape:
            raise ValueError(f"pipeline tile wants {dtype} {shape}")


class JSet:
    """A j-set as the tile streams it: ``arrays`` (3, capacity) positions
    and velocities, (capacity,) masses and host indices (contiguous
    copies if they are not), ``n`` columns in use.  A load reads its
    staging rows (:meth:`stage`): ``cj`` (6, capacity) positions and
    velocities as given, component-major (rows x y z vx vy vz, as a
    :class:`~repro.forces.kernels.ResidentSet` holds them), ``m`` and
    ``host`` (capacity,) masses and host indices - its inputs copied
    there (:func:`load_j_set`), or a prediction written there in place
    (:func:`load_staged`); a force call on the set's own particles takes
    its targets from ``cj``.  On the compiled tier: its ``struct j_set``
    (``bound``), the last force ``call``, and the binding of the
    predictor that writes ``cj`` (``predicted``,
    :func:`~repro.core.hermite_tile.predict_j_set`)."""

    __slots__ = ("arrays", "n", "bound", "call", "cj", "m", "host", "predicted")

    def __init__(self, cj_q, cj_v, mj, host_j) -> None:
        self.n = n = cj_q.shape[-1]
        specs = ((cj_q, _I8, (3, n)), (cj_v, _F8, (3, n)), (mj, _F8, (n,)), (host_j, _I8, (n,)))
        _check(specs)
        self.arrays = [a if a.flags.c_contiguous else np.ascontiguousarray(a) for a, _, _ in specs]
        self.bound = self.call = self.cj = self.m = self.host = self.predicted = None

    def stage(self) -> "JSet":
        """The set, its staging rows allocated (zeros) if they were not."""
        if self.cj is None:
            rows = self.capacity
            self.cj, self.m, self.host = np.zeros((6, rows)), np.zeros(rows), np.zeros(rows, _I8)
        return self

    @property
    def capacity(self) -> int:
        return len(self.arrays[2])

    def columns(self) -> tuple:
        return tuple(a[..., : self.n] for a in self.arrays)


def _load_arrays(j_set: JSet, x, v, mass, host_index) -> int:
    """``n``, or ValueError for more rows than ``j_set`` holds or an array
    of another dtype or shape."""
    n = len(x)
    if n > j_set.capacity:
        raise ValueError(f"{n} j-particles exceed the j-set's capacity {j_set.capacity}")
    rows = (n, 3)
    if x.dtype != _F8 or x.shape != rows or v.dtype != _F8 or v.shape != rows:
        raise ValueError(f"pipeline tile wants {_F8} {rows}")
    if mass.dtype != _F8 or mass.shape != rows[:1]:
        raise ValueError(f"pipeline tile wants {_F8} {rows[:1]}")
    if host_index is not None:
        _check([(host_index, _I8, rows[:1])])
    return n


def _stage(j_set: JSet, x, v, mass, host_index) -> int:
    """Copy a load's inputs into ``j_set``'s staging rows: ``n``."""
    n = _load_arrays(j_set, x, v, mass, host_index)
    cj = j_set.stage().cj
    cj[:3, :n], cj[3:, :n], j_set.m[:n] = x.T, v.T, mass
    if host_index is not None:
        j_set.host[:n] = host_index
    return n


def _staged_rows(j_set: JSet, n: int) -> int:
    """``n``, or ValueError for more rows than ``j_set`` stages."""
    if not 0 <= n <= j_set.capacity:
        raise ValueError(f"{n} j-particles exceed the j-set's capacity {j_set.capacity}")
    j_set.stage()
    return n


def numpy_load_j_set(j_set: JSet, formats: PipelineFormats, x, v, mass, host_index=None):
    """A j-load of n rows into ``j_set`` in place (``host_index`` None for
    ``0 .. n-1``), through its staging rows; a position off the grid
    raises as :meth:`FixedPointFormat.quantize` does, and writes nothing
    but the staging rows."""
    n = _stage(j_set, x, v, mass, host_index)
    _numpy_load(j_set, formats, n, host_index is not None)


def numpy_load_staged(j_set: JSet, formats: PipelineFormats, n: int):
    """A j-load of ``j_set``'s first ``n`` staging rows as they stand
    (host indices ``0 .. n-1``), in place; refuses as
    :func:`numpy_load_j_set` does."""
    _numpy_load(j_set, formats, _staged_rows(j_set, n), False)


def _numpy_load(j_set: JSet, formats: PipelineFormats, n: int, by_host: bool):
    cj = j_set.cj
    cj_q, cj_v, mj, host_j = j_set.arrays
    cj_q[:, :n] = formats.pos.quantize(cj[:3, :n])
    cj_v[:, :n], mj[:n] = formats.word.round(cj[3:, :n]), j_set.m[:n]
    host_j[:n] = j_set.host[:n] if by_host else np.arange(n)
    j_set.n = n


def _table(cache) -> None:
    """ValueError unless ``cache`` is a (3, N) table the tile can write."""
    if not (cache.flags.c_contiguous and cache.flags.writeable):
        raise ValueError("the exponent table must be writable and contiguous")
    _check([(cache, _I8, (3, cache.shape[-1]))])


def _targets(xi, vi, i_index, exponents) -> int:
    """``n_i``, or ValueError for a target array of another dtype or shape
    (with ``xi`` None, the targets are the rows ``i_index``, which must
    be given)."""
    if xi is None:
        if i_index is None:
            raise ValueError("targets staged in the j-set need their rows")
        n_i = len(i_index)
    else:
        n_i = len(xi)
    rows = (n_i, 3)
    if xi is not None and (
            xi.dtype != _F8 or xi.shape != rows or vi.dtype != _F8 or vi.shape != rows):
        raise ValueError(f"pipeline tile wants {_F8} {rows}")
    if exponents is not None:
        _check([(exponents, _I8, (7, n_i))])
    if i_index is not None and (i_index.dtype != _I8 or i_index.shape != rows[:1]):
        raise ValueError(f"pipeline tile wants {_I8} {rows[:1]}")
    return n_i


def numpy_forces(j_set: JSet, xi, vi, i_index, cache, exponents, eps2, formats):
    """One force call from raw targets ``xi``, ``vi`` (n_i, 3) with host
    indices ``i_index`` or None - or, with ``xi`` and ``vi`` None, from
    the set's own staging rows ``i_index`` (its particles as the last
    load was given them): their (7, n_i) ``exponents`` read from
    the host's (3, N) table ``cache`` if None, :func:`numpy_partial_lanes`
    through :func:`numpy_lanes_to_forces`, the exponents back to the
    table if the sums fit.  Returns ``(answer, exponents, forces or
    None)``; raises for a negative index, then a staged row at or past
    ``j_set.n`` (IndexError), then a target off the grid."""
    _table(cache)
    _targets(xi, vi, i_index, exponents)
    if i_index is not None and i_index.size and i_index.min() < 0:
        raise ValueError(f"negative particle index {i_index.min()} in indices")
    if xi is None:
        if i_index.size and i_index.max() >= j_set.n:
            raise IndexError(f"row {i_index.max()} is not among the {j_set.n} staged")
        cj = j_set.stage().cj
        xi, vi = cj[:3, i_index].T, cj[3:, i_index].T
    xi_q, vi_w = formats.pos.quantize(xi), formats.word.round(vi)
    declared = exponents
    if exponents is None:
        if i_index is None or (i_index.size and (
                i_index.max() >= cache.shape[1] or (cache[0, i_index] == UNCACHED).any())):
            return TILE_UNCACHED, None, None
        declared = cache[PLANE_OUTPUTS, i_index]
    try:
        lanes = numpy_partial_lanes(xi_q, vi_w, *j_set.columns(), declared, eps2, formats,
                                    i_index)
    except BlockFloatOverflow:
        return TILE_SATURATES, declared, None
    try:
        out = numpy_lanes_to_forces(*lanes, declared)
    except BlockFloatOverflow:
        return TILE_OVERFLOWS, declared, None
    if i_index is not None:
        covered = i_index < cache.shape[1]
        cache[:, i_index[covered]] = declared[::3, covered]
    return TILE_FITS, declared, out


class PipelineTier(NamedTuple):
    """One tier of the pipeline library: the tile, and the host's side of
    its boundary (module docstring)."""

    partial_lanes: Callable
    load_j_set: Callable
    load_staged: Callable
    forces: Callable
    lanes_to_forces: Callable
    quantize: Callable  # (FixedPointFormat, x, saturate=False) -> int64
    round_float: Callable  # (FloatFormat, x) -> float64


#: The numpy tier: the reference, and what runs without a compiler.  Its
#: formats are the format classes' own methods.
NUMPY_PIPELINE = PipelineTier(
    numpy_partial_lanes, numpy_load_j_set, numpy_load_staged, numpy_forces,
    numpy_lanes_to_forces, FixedPointFormat.quantize, FloatFormat.round,
)

# pipeline_tile.c's other answers: pipeline_forces' refusals, and
# fixed_point_quantize's and pipeline_load's; pipeline_forces' flags
_NEGATIVE_INDEX, _TARGET_NOT_FINITE, _ROW_NOT_STAGED, _ON_GRID, _NOT_FINITE = 4, 6, 7, 0, 2
_CACHED, _BY_INDEX, _STAGED = 1, 2, 4


class _JSetStruct(Structure):
    """``struct j_set`` of ``pipeline_tile.c``."""

    _fields_ = [("n_j", c_ssize_t), ("stride", c_ssize_t)] + [
        (name, c_void_p) for name in ("cj_q", "cj_v", "mj", "host_j", "x", "v", "m", "host")
    ] + [(name, c_int) for name in ("frac_bits", "total_bits", "word_bits")]


class _ForceCallStruct(Structure):
    """``struct force_call`` of ``pipeline_tile.c``."""

    _fields_ = [(name, c_void_p) for name in ("cache", "xi", "vi", "i_index", "out")] + [
        ("cache_n", c_ssize_t), ("frac_bits", c_int), ("resolution", c_double),
        ("eps2", c_double), ("drop", c_int), ("pos_frac_bits", c_int),
        ("pos_total_bits", c_int), ("word_bits", c_int)]


def _force_call(cache, eps2, formats: PipelineFormats, rows: int) -> Bound:
    """Force calls on the exponent table ``cache``: targets, host indices
    and the (rows, 14) answers (forces, then exponents)."""
    pos = formats.pos
    return Bound(
        _ForceCallStruct, (cache,), 1,
        (np.empty((rows, 3)), np.empty((rows, 3)), np.empty(rows, _I8), np.empty((rows, 14))),
        tail=(cache.shape[1], FRAC_BITS, pos.resolution, eps2,
              53 - formats.pair.mantissa_bits, pos.frac_bits, pos.total_bits,
              formats.word.mantissa_bits), key=(eps2, formats))


def _float64(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x if x.flags.c_contiguous else np.ascontiguousarray(x)


def _split(out: np.ndarray, n_i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """acc (n_i, 3), jerk (n_i, 3), pot (n_i,) of one buffer's first 7 n_i."""
    return (out[: 3 * n_i].reshape(n_i, 3), out[3 * n_i : 6 * n_i].reshape(n_i, 3),
            out[6 * n_i : 7 * n_i])


def _bind(library) -> PipelineTier:
    """``pipeline_tile.c`` behind the numpy tier's signatures."""
    p, n, i, d = c_void_p, c_ssize_t, c_int, c_double
    tile_fn = entry_point(library, "pipeline_tile", [p] * 5 + [n, i, d, d, i, p], i)
    load_fn = entry_point(library, "pipeline_load", [p, n, i], i)
    forces_fn = entry_point(library, "pipeline_forces", [p, p, n, i], i)
    to_forces_fn = entry_point(library, "pipeline_to_forces", [p, p, n, i, p], i)
    quantize_fn = entry_point(library, "fixed_point_quantize", [p, n, i, i, i, p], i)
    round_fn = entry_point(library, "float_format_round", [p, n, i, p])
    last_call = None  # a j-set without a force call of its own may take it

    def j_set_struct(j_set: JSet) -> Bound:
        """``j_set``'s ``struct j_set``: its load's, else one bound now
        (a j-set is bound at its first load, or at its first use
        without one)."""
        if j_set.bound is None:
            j_set.bound = Bound(_JSetStruct, tuple(j_set.arrays), head=(j_set.n, j_set.n))
        return j_set.bound

    def compiled_partial_lanes(
        xi_q, vi, cj_q, cj_v, mj, host_index_j, exponents, eps2, formats, i_index=None
    ):
        n_i = xi_q.shape[0]
        exponents = np.asarray(exponents, dtype=np.int64)
        _check([(xi_q, _I8, (n_i, 3)), (vi, _F8, (n_i, 3)), (exponents, _I8, (7, n_i))]
               + ([] if i_index is None else [(i_index, _I8, (n_i,))]))
        held = [np.ascontiguousarray(a) for a in (xi_q, vi, exponents, i_index)
                if a is not None]  # alive for the call
        j_set = JSet(cj_q, cj_v, mj, host_index_j)
        lanes = np.empty((2, 7, n_i), dtype=np.int64)
        if n_i and tile_fn(
            j_set_struct(j_set).pointer, *map(address, held), *[None][: 4 - len(held)], n_i, FRAC_BITS,
            formats.pos.resolution, eps2, 53 - formats.pair.mantissa_bits, address(lanes),
        ):
            raise BlockFloatOverflow(SATURATES)
        return lanes[0], lanes[1]

    def staged_struct(j_set: JSet, formats) -> Bound:
        """``j_set``'s ``struct j_set`` with its staging rows and
        ``formats``: bound at its first load (or first force call on
        its own particles), and again only for other formats."""
        bound = j_set.bound
        if bound is None or bound.key is not formats:
            pos, cj = formats.pos, j_set.stage().cj
            bound = j_set.bound = Bound(
                _JSetStruct, (*j_set.arrays, cj, cj[3:], j_set.m, j_set.host),
                head=(j_set.n, j_set.capacity),
                tail=(pos.frac_bits, pos.total_bits, formats.word.mantissa_bits), key=formats)
        return bound

    def load(j_set, formats, n, by_host):
        bound = j_set.bound
        if bound is None or bound.key is not formats:
            bound = staged_struct(j_set, formats)
        answer = load_fn(bound.pointer, n, by_host)
        if answer != _ON_GRID:
            pos = formats.pos
            raise NonFiniteValue(NOT_FINITE) if answer == _NOT_FINITE else pos.out_of_range()
        j_set.n = n

    def compiled_load_j_set(j_set, formats, x, v, mass, host_index=None):
        load(j_set, formats, _stage(j_set, x, v, mass, host_index), host_index is not None)

    def compiled_load_staged(j_set, formats, n):
        if j_set.m is None or not 0 <= n <= len(j_set.m):  # else staged, and n fits
            _staged_rows(j_set, n)
        load(j_set, formats, n, False)

    def compiled_forces(j_set, xi, vi, i_index, cache, exponents, eps2, formats):
        nonlocal last_call
        n_i = _targets(xi, vi, i_index, exponents)
        call = j_set.call or last_call
        if call is None or not call.holds((cache,), (eps2, formats), n_i):
            _table(cache)
            if call is j_set.call and call is not None and call.fits((eps2, formats), n_i):
                # only this j-set's table moved (grown after an uncached
                # first call, or swapped): its call points at the new one;
                # another j-set's call is left to it
                call.repoint((cache,), cache_n=cache.shape[1])
            else:
                call = _force_call(cache, eps2, formats, max(n_i, call.rows if call else 0))
        j_set.call = last_call = call
        staged_xi, staged_vi, staged_index, out = call.cut(n_i)
        flags = _CACHED if exponents is None else 0
        if xi is None:  # the set's own staging rows: pipeline_forces copies them in
            flags |= _STAGED
            j_struct = j_set.bound
            if j_struct is None or j_struct.key is not formats:
                j_struct = staged_struct(j_set, formats)
        else:
            staged_xi[...], staged_vi[...] = xi, vi
            j_struct = j_set.bound or j_set_struct(j_set)
        if exponents is not None:
            out.reshape(-1)[7 * n_i :].view(_I8)[:] = exponents.reshape(-1)
        if i_index is not None:
            staged_index[...], flags = i_index, flags | _BY_INDEX
        answer = forces_fn(call.pointer, j_struct.pointer, n_i, flags)
        if answer <= TILE_OVERFLOWS:
            out = out.copy().reshape(-1)  # the caller's: no later call writes it
            if exponents is None:
                exponents = out[7 * n_i :].view(_I8).reshape(7, n_i)
            return answer, exponents, _split(out, n_i) if answer == TILE_FITS else None
        if answer == TILE_UNCACHED:
            return answer, None, None
        if answer == _NEGATIVE_INDEX:
            raise ValueError(f"negative particle index {i_index.min()} in indices")
        if answer == _ROW_NOT_STAGED:
            raise IndexError(f"row {i_index.max()} is not among the {j_set.n} staged")
        pos = formats.pos
        raise NonFiniteValue(NOT_FINITE) if answer == _TARGET_NOT_FINITE else pos.out_of_range()

    def compiled_lanes_to_forces(hi, lo, exponents):
        n_i = np.shape(exponents)[-1]
        lanes = np.ascontiguousarray(np.stack((hi, lo)), dtype=np.int64)
        exponents = np.ascontiguousarray(exponents, dtype=np.int64)
        _check([(exponents, _I8, (7, n_i))])
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
            if answer != _ON_GRID:
                raise NonFiniteValue(NOT_FINITE) if answer == _NOT_FINITE else fmt.out_of_range()
        return q

    def compiled_round_float(fmt: FloatFormat, x) -> np.ndarray:
        x = _float64(x)
        out = np.empty(x.shape)
        if x.size:
            round_fn(address(x), x.size, fmt.mantissa_bits, address(out))
        return out

    return PipelineTier(
        compiled_partial_lanes, compiled_load_j_set, compiled_load_staged, compiled_forces,
        compiled_lanes_to_forces, compiled_quantize, compiled_round_float,
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
    """Refuse ``tier`` unless it answers as :data:`NUMPY_PIPELINE` does:
    its storage formats and lanes-to-forces conversion
    (:func:`_self_check_boundary`), and its tile, j-load and force call
    on every tile of :func:`_self_check_tiles` (:func:`_entry_session`)."""
    _self_check_boundary(tier)
    for where, args in _self_check_tiles():
        if _entry_session(tier, *args) != _entry_session(NUMPY_PIPELINE, *args):
            raise TileUnavailable(f"self-check: compiled tile differs from numpy at {where}")


def _flat(out) -> bytes:
    """What a boundary function returns as bytes: tuples flattened."""
    if isinstance(out, tuple):
        return b"|".join(map(_flat, out))
    return b"-" if out is None else np.asarray(out).tobytes()


def _answer(fn, *args) -> bytes | str:
    """What a boundary function answers, comparably: the bytes of what it
    returns (:func:`_flat`), or the name of the error it raises."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError, IndexError) as exc:
        return type(exc).__name__
    return _flat(out)


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
    """Refuse ``tier`` unless its storage formats and its lanes-to-forces
    conversion answer as :data:`NUMPY_PIPELINE` does: equal bits, or
    the same error.  Each value is quantised alone
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
            same = _answer(getattr(tier, name), *args) == _answer(getattr(NUMPY_PIPELINE, name),
                                                                  *args)
        if not same:
            raise TileUnavailable(f"self-check: compiled {name} differs from numpy on {args}")


def _entry_session(t: PipelineTier, xi_q, vi, cj_q, cj_v, mj, host_j, exponents, eps2,
                   formats, i_index) -> list:
    """What tier ``t``'s tile, j-load and force call answer, in order, on
    one self-check tile, with the exponent table after each call.  Loads
    into a j-memory with two spare columns: a NaN, then an out-of-range
    position (2^23 is past the word's top; neither may write), then the
    sources.  Force calls: from the empty table; under the declared
    exponents on the targets and 64 length units away (terms that
    saturate, totals that overflow, sums that fit); from the filled
    table; with indices beyond it, a negative index, a NaN and an
    out-of-range target.  Then the staging rows written in place (the
    sources reversed) and loaded as they stand (:func:`_staged_session`)."""
    spare = cj_q.shape[1] + 2
    j_set = JSet(np.zeros((3, spare), _I8), np.zeros((3, spare)), np.zeros(spare),
                 np.zeros(spare, _I8))
    x, near, far = (formats.pos.dequantize(q) for q in (cj_q.T, xi_q, xi_q + 2**46))
    said = [lanes_or_overflow(t.partial_lanes, xi_q, vi, cj_q, cj_v, mj, host_j, exponents,
                              eps2, formats, i_index)]
    cache = np.full((3, len(xi_q) + 3), UNCACHED)

    def poisoned(a, bad):
        a = a.copy()
        a[-1, 1] = bad
        return a

    for x_load in (poisoned(x, np.nan), poisoned(x, 2.0**23), x):
        said += [_answer(t.load_j_set, j_set, formats, x_load, cj_v.T, mj,
                         None if i_index is None else host_j), j_set.n, _flat(tuple(j_set.arrays))]
    calls = [(near, i_index, None), (near, i_index, exponents), (far, i_index, exponents + 16),
             (far, i_index, exponents + 20), (near, i_index, None)]
    calls += [(poisoned(near, bad), i_index, exponents) for bad in (np.nan, 2.0**23)]
    if i_index is not None:
        beyond = i_index + cache.shape[1]
        calls += [(near, beyond, None), (near, beyond, exponents),
                  (near, np.concatenate(([-1], i_index[1:])), None)]
    for xi, index, declared in calls:
        said += [_answer(t.forces, j_set, xi, vi, index, cache, declared, eps2, formats),
                 _flat(cache)]
    return said + _staged_session(t, j_set, len(xi_q), i_index, cache, exponents, eps2, formats)


def _staged_session(t: PipelineTier, j_set: JSet, n_i, i_index, cache, exponents, eps2,
                    formats) -> list:
    """What tier ``t``'s load of the staging rows as they stand and its
    force calls on the set's own rows answer, continuing
    :func:`_entry_session` on its loaded ``j_set``: the rows reversed in
    place (as a predictor writes them), then loads of them with a NaN
    and an out-of-range position (neither may write), of more rows than
    the set holds, of all but the last and of all; force calls on the
    set's rows from the table, under declared exponents and 16 above
    them, on a row past the set and a negative one; then a refused load
    and a call on the row it poisoned."""
    n, cj = j_set.n, j_set.cj
    cj[:, :n] = cj[:, n - 1 :: -1].copy()
    said = []
    for rows, bad in ((n, np.nan), (n, 2.0**23), (j_set.capacity + 1, None), (n - 1, None),
                      (n, None)):
        kept = cj[1, n - 1]
        if bad is not None:
            cj[1, n - 1] = bad
        said += [_answer(t.load_staged, j_set, formats, rows), j_set.n, _flat(tuple(j_set.arrays))]
        cj[1, n - 1] = kept
    own = np.arange(n_i) if i_index is None else i_index
    calls = [(own, None), (own, exponents), (own[::-1].copy(), exponents + 16),
             (np.concatenate(([n], own[1:])), None), (np.concatenate(([-1], own[1:])), None)]
    cj[1, n - 1] = np.nan
    said.append(_answer(t.load_staged, j_set, formats, n))
    calls += [(np.array([n - 1]), exponents[:, :1]), (own, None)]
    for index, declared in calls:
        said += [_answer(t.forces, j_set, None, None, index, cache, declared, eps2, formats),
                 _flat(cache)]
    return said


#: The pipeline tier serving this process - :data:`NUMPY_PIPELINE`, or
#: ``pipeline_tile.c`` behind the same signatures: one target held while
#: the j-set streams past, the same IEEE operations per pair and the
#: terms summed as integers, so the tiers agree exactly and nothing
#: selects one (``compiled.TIERS["pipeline_tile"]`` says which, and why).
_tier = resolve("pipeline_tile", _bind, _self_check, NUMPY_PIPELINE)

#: The tile (:func:`numpy_partial_lanes` documents the signature).
partial_lanes = _tier.partial_lanes
#: A machine-wide j-load in place (:func:`numpy_load_j_set`).
load_j_set = _tier.load_j_set
#: A machine-wide j-load of the staging rows as they stand
#: (:func:`numpy_load_staged`).
load_staged = _tier.load_staged
#: One force call from raw targets (:func:`numpy_forces`).
forces = _tier.forces
#: Carry-save lanes to forces (:func:`numpy_lanes_to_forces`).
lanes_to_forces = _tier.lanes_to_forces
#: :meth:`FixedPointFormat.quantize <repro.hardware.fixedpoint.FixedPointFormat.quantize>`
#: as ``quantize(fmt, x, saturate=False)``.
quantize = _tier.quantize
#: :meth:`FloatFormat.round <repro.hardware.floatformat.FloatFormat.round>`
#: as ``round_float(fmt, x)``.
round_float = _tier.round_float

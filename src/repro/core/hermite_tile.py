"""The host's share of a blockstep, in two calls and two tiers.

On GRAPE-6 the host's work per blockstep is O(n_b): the chips predict
the j-particles (eqs. 6-7) and the host corrects the block it got
forces for and picks its next steps - the ``t_host`` term of the
paper's eq. 10.  Here that share is two functions,

* :func:`predict_hermite` - all N particles to the block time, the
  Hermite truncation of eqs. (6)-(7) (or :func:`predict_j_set`, the
  same bits into a force backend's component-major j-set, where the
  backend keeps one: the chip's predictor pipelines, and the host
  writes only the block's rows);
* :func:`advance_block` - per block particle the Hermite corrector
  (:func:`~repro.core.corrector.hermite_correct`), the Aarseth criterion
  (:func:`~repro.core.timestep.aarseth_dt`), the block quantisation
  (:func:`~repro.core.timestep.quantize_block_dt`) and the scatter into
  the particle arrays,

and like the two force tiles (:mod:`repro.forces.kernels`,
:mod:`repro.hardware.pipeline`) each is two tiers with one behaviour.
Both predictors are one Horner evaluation in the C file, so they cannot
drift apart.
The numpy tier (:data:`NUMPY_TILE`) is the reference and what runs
without a compiler; ``hermite_tile.c`` computes the same bits in one
call each, where numpy dispatches some forty small-array operations
(about 100 us a blockstep at every N, for 1 us of arithmetic).  Why the
bits agree is argued at the top of the C file; that they agree is
checked when the tile is loaded (:func:`_self_check`), and
``compiled.TIERS["hermite_tile"]`` says which tier serves this process.
Nothing selects one.

The compiled tier points into the caller's arrays, so both tiers refuse
what it could not point into - anything but C-contiguous float64 of the
right shape, writeable where it is written, a block that is not int64
or indexes outside the system.  Each entry point is bound once
(:class:`~repro.forces.compiled.Bound`) to the arrays that outlive a
call - the system's state, the predictions buffers - and
:func:`advance_block` also to its constants and to buffers as deep as
the system, which a call copies the block and the force on it into and
takes the new steps from (a copy is returned).  A swapped, reshaped or
read-only array, or other constants, bind anew or are refused.  A
refusal, like a step that is not a positive power of two or a
:class:`~repro.core.timestep.NonFiniteForce`, leaves the system
untouched.
"""

from __future__ import annotations

from ctypes import Structure, c_double, c_int, c_ssize_t, c_void_p
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ..forces.compiled import Bound, TileUnavailable, entry_point, resolve, unpointable
from .corrector import hermite_correct
from .timestep import NonFiniteForce, aarseth_dt, quantize_block_dt

_F8, _I8 = np.dtype(np.float64), np.dtype(np.int64)

#: The (N, 3) and (N,) arrays of a particle system a block is scattered into.
STATE_VECTORS = ("pos", "vel", "acc", "jerk", "snap", "crackle")
STATE_SCALARS = ("pot", "t", "dt")


def numpy_predict_hermite(
    t_now: float,
    t0: np.ndarray,
    x0: np.ndarray,
    v0: np.ndarray,
    a0: np.ndarray,
    j0: np.ndarray,
    out_x: np.ndarray | None = None,
    out_v: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Standard Hermite predictor: Taylor series through the jerk term.

    Parameters
    ----------
    t_now:
        System time to predict to.
    t0:
        (N,) per-particle times of the stored derivatives.
    x0, v0, a0, j0:
        (N, 3) stored position, velocity, acceleration, jerk.
    out_x, out_v:
        Optional output buffers (avoids allocation in the hot loop);
        they must not overlap the inputs.

    Returns
    -------
    Predicted positions and velocities, shape (N, 3).
    """
    dt = (t_now - t0)[:, None]
    if out_x is None:
        out_x = np.empty_like(x0)
    if out_v is None:
        out_v = np.empty_like(v0)
    # Horner evaluation: x = ((j*dt/6 + a/2)*dt + v)*dt + x
    np.multiply(j0, dt / 6.0, out=out_x)
    out_x += 0.5 * a0
    out_x *= dt
    out_x += v0
    out_x *= dt
    out_x += x0

    np.multiply(j0, dt / 2.0, out=out_v)
    out_v += a0
    out_v *= dt
    out_v += v0
    return out_x, out_v


def numpy_predict_j_set(
    t_now: float,
    t0: np.ndarray,
    x0: np.ndarray,
    v0: np.ndarray,
    a0: np.ndarray,
    j0: np.ndarray,
    cj: np.ndarray,
    xp: np.ndarray,
    vp: np.ndarray,
    block: np.ndarray,
) -> None:
    """:func:`numpy_predict_hermite` of all N particles into the (6, N)
    component-major j-set ``cj`` (rows x y z vx vy vz), and the rows
    ``block`` of the predictions into the (N, 3) ``xp``, ``vp``, whose
    other rows are left as they were."""
    xs, vs = numpy_predict_hermite(t_now, t0, x0, v0, a0, j0)
    cj[:3], cj[3:] = xs.T, vs.T
    xp[block], vp[block] = xs[block], vs[block]


def _per_call(block, acc1, jerk1, pot1) -> int:
    """``n_b``, or ValueError if ``block`` (int64) or the force on it
    (float64) is not what the compiled tile can point into."""
    if (
        type(block) is not np.ndarray or block.dtype != _I8 or block.ndim != 1
        or not block.flags.c_contiguous
    ):
        raise ValueError("advance_block wants a contiguous 1-D int64 block")
    n_b = len(block)
    rows = (n_b, 3)
    for a, shape in ((acc1, rows), (jerk1, rows), (pot1, rows[:1])):
        if (
            type(a) is not np.ndarray or a.dtype != _F8 or a.shape != shape
            or not a.flags.c_contiguous
        ):
            raise ValueError(f"advance_block wants contiguous float64 {shape}")
    return n_b


def _block_state(system, xp, vp) -> tuple:
    """The eleven arrays of :func:`advance_block` that outlive a call:
    the predictions, then the state it scatters into, in the tile's
    order (:func:`_block_shapes` gives the shapes it reads them as)."""
    s = system
    return xp, vp, s.pos, s.vel, s.acc, s.jerk, s.snap, s.crackle, s.pot, s.t, s.dt


def _block_shapes(n: int) -> list:
    return [(n, 3)] * 8 + [(n,)] * 3


def _pointable(system, block, xp, vp, acc1, jerk1, pot1) -> None:
    """ValueError unless the compiled tile could point into every array
    of one :func:`advance_block` call, and write the ones it writes."""
    _per_call(block, acc1, jerk1, pot1)
    wanted = unpointable(
        _block_state(system, xp, vp), _block_shapes(system.n),
        written=len(STATE_VECTORS + STATE_SCALARS),
    )
    if wanted is not None:
        raise ValueError(f"advance_block wants {wanted}")


def _not_finite(block, k, t_block, blockstep) -> NonFiniteForce:
    where = "a blockstep" if blockstep is None else f"blockstep {blockstep}"
    particle = int(block[k])
    return NonFiniteForce(
        f"non-finite force on particle {particle} in {where} at t = {t_block!r}",
        particle=particle, blockstep=blockstep,
    )


def numpy_advance_block(
    system,
    block: np.ndarray,
    t_block: float,
    xp: np.ndarray,
    vp: np.ndarray,
    acc1: np.ndarray,
    jerk1: np.ndarray,
    pot1: np.ndarray,
    eta: float,
    dt_max: float,
    dt_min: float,
    blockstep: int | None = None,
) -> np.ndarray:
    """Correct ``block`` to ``t_block`` and choose its next steps.

    Parameters
    ----------
    system:
        The :class:`~repro.core.particles.ParticleSystem`; its ``pos vel
        acc jerk snap crackle pot t dt`` rows of ``block`` are replaced.
    block:
        (n_b,) int64 indices of the particles whose time has come.
    t_block:
        The block time; each particle's step is ``t_block - system.t``.
    xp, vp:
        (N, 3) predictions of all particles at ``t_block``.
    acc1, jerk1, pot1:
        (n_b, 3), (n_b, 3), (n_b,) force on the block at the predicted
        state.
    eta, dt_max, dt_min:
        The Aarseth accuracy parameter and the block-hierarchy bounds.
    blockstep:
        The blockstep's ordinal, for the error message only.

    Returns
    -------
    (n_b,) the new, quantised steps (also written to ``system.dt``).

    Raises ValueError for arrays the compiled tier could not point into
    and for a step that is not a positive power of two (every step of
    the block scheme is one, and the tile's ``h**3 .. h**5`` are exact
    for nothing else), IndexError for a block index outside the system,
    and :class:`~repro.core.timestep.NonFiniteForce` when a
    particle's criterion is NaN (a non-finite ``acc1`` or ``jerk1``
    always makes it so) or its potential is not finite - all before
    anything is written.
    """
    s = system
    _pointable(s, block, xp, vp, acc1, jerk1, pot1)
    if block.size and not 0 <= block.min() <= block.max() < s.n:
        raise IndexError(f"block index outside the {s.n}-particle system")
    dt_block = t_block - s.t[block]
    if not np.all(np.frexp(dt_block)[0] == 0.5):
        raise ValueError("block steps must be positive powers of two")
    corr = hermite_correct(
        dt_block, xp[block], vp[block], s.acc[block], s.jerk[block], acc1, jerk1
    )
    dt_ideal = aarseth_dt(acc1, jerk1, corr.snap_end, corr.crackle, eta)
    bad = np.isnan(dt_ideal) | ~np.isfinite(pot1)
    if bad.any():
        raise _not_finite(block, int(np.argmax(bad)), t_block, blockstep)
    dt_new = quantize_block_dt(
        dt_ideal, t_block, dt_old=dt_block, dt_max=dt_max, dt_min=dt_min
    )
    s.pos[block] = corr.pos
    s.vel[block] = corr.vel
    s.acc[block] = acc1
    s.jerk[block] = jerk1
    s.snap[block] = corr.snap_end
    s.crackle[block] = corr.crackle
    s.pot[block] = pot1
    s.t[block] = t_block
    s.dt[block] = dt_new
    return dt_new


class HermiteTile(NamedTuple):
    """One tier of the tile: :func:`predict_hermite`,
    :func:`advance_block`, :func:`predict_j_set`."""

    predict: Callable
    advance: Callable
    predict_j_set: Callable


#: The numpy tier: the reference, and what runs without a compiler.
NUMPY_TILE = HermiteTile(numpy_predict_hermite, numpy_advance_block, numpy_predict_j_set)

# hermite_advance_block's answers (the enum in hermite_tile.c)
_STEP_NOT_A_POWER_OF_TWO, _NOT_FINITE = 1, 2
_CLAMPED_STEP_NOT_POSITIVE, _INDEX_OUT_OF_RANGE = 3, 4
_WORK = 12  # doubles of scratch per block particle


class _Predicted(Structure):
    """``struct predicted`` of ``hermite_tile.c``."""

    _fields_ = [("n", c_ssize_t)] + [
        (name, c_void_p) for name in ("t0", "x0", "v0", "a0", "j0", "xp", "vp")
    ]


class _PredictedJ(Structure):
    """``struct predicted_j`` of ``hermite_tile.c``."""

    _fields_ = [("n", c_ssize_t)] + [
        (name, c_void_p) for name in ("t0", "x0", "v0", "a0", "j0", "cj", "xp", "vp", "block")
    ]


class _BlockState(Structure):
    """``struct block_state`` of ``hermite_tile.c``."""

    _fields_ = [("n", c_ssize_t)] + [
        (name, c_void_p) for name in (
            "xp", "vp", *STATE_VECTORS, *STATE_SCALARS, "block", "acc1", "jerk1", "pot1",
            "dt_new", "work")
    ] + [(name, c_double) for name in ("eta", "dt_max", "dt_min")]


def _bind(library) -> HermiteTile:
    """``hermite_tile.c`` behind the numpy tier's three signatures, each
    bound to what it was last called on (module docstring)."""
    predict_fn = entry_point(library, "hermite_predict", [c_double, c_void_p])
    advance_fn = entry_point(
        library, "hermite_advance_block", [c_void_p, c_ssize_t, c_double], c_ssize_t)
    predict_j_fn = entry_point(library, "hermite_predict_j", [c_double, c_void_p, c_ssize_t], c_int)
    predicted = block_state = predicted_j = None

    def predict_hermite(t_now, t0, x0, v0, a0, j0, out_x=None, out_v=None):
        nonlocal predicted
        if out_x is None:
            out_x = np.empty_like(x0)
        if out_v is None:
            out_v = np.empty_like(v0)
        arrays = (t0, x0, v0, a0, j0, out_x, out_v)
        bound = predicted
        if bound is None or not bound.holds(arrays):
            rows = out_x.shape
            n = rows[0] if len(rows) == 2 and rows[1] == 3 else -1  # -1: no array matches
            if unpointable(arrays, [(n,), *[rows] * 6], written=2) is not None:
                # numpy broadcasts, casts, strides and refuses a read-only
                # buffer: its tier serves
                return numpy_predict_hermite(t_now, *arrays)
            bound = predicted = Bound(_Predicted, arrays, 2, head=(n,))
        predict_fn(t_now, bound.pointer)
        return out_x, out_v

    def advance_block(
        system, block, t_block, xp, vp, acc1, jerk1, pot1, eta, dt_max, dt_min,
        blockstep=None,
    ):
        nonlocal block_state
        n_b = _per_call(block, acc1, jerk1, pot1)
        arrays, constants = _block_state(system, xp, vp), (eta, dt_max, dt_min)
        bound = block_state
        if bound is None or not bound.holds(arrays, constants, n_b):
            written = len(STATE_VECTORS + STATE_SCALARS)
            wanted = unpointable(arrays, _block_shapes(system.n), written)
            if wanted is not None:
                raise ValueError(f"advance_block wants {wanted}")
            rows = max(n_b, system.n)  # any block of the system fits
            bound = block_state = Bound(_BlockState, arrays, written, (
                np.empty(rows, _I8), np.empty((rows, 3)), np.empty((rows, 3)), np.empty(rows),
                np.empty(rows), np.empty((rows, _WORK))), (system.n,), constants, constants)
        if n_b == 0:  # no first element to point at
            return np.empty(0)
        staged_block, staged_acc, staged_jerk, staged_pot, dt_new, _ = bound.cut(n_b)
        staged_block[...], staged_acc[...], staged_jerk[...], staged_pot[...] = (
            block, acc1, jerk1, pot1)
        answer = advance_fn(bound.pointer, n_b, t_block)
        if answer == 0:
            return dt_new.copy()  # the caller's: no later call writes it
        code, k = answer & 7, answer >> 3
        if code == _NOT_FINITE:
            raise _not_finite(block, k, t_block, blockstep)
        if code == _INDEX_OUT_OF_RANGE:
            raise IndexError(f"block index outside the {system.n}-particle system")
        if code == _STEP_NOT_A_POWER_OF_TWO:
            raise ValueError("block steps must be positive powers of two")
        if code == _CLAMPED_STEP_NOT_POSITIVE:
            raise ValueError("timesteps must be positive")
        raise RuntimeError(f"hermite_advance_block answered {answer}")

    def predict_j_set(t_now, t0, x0, v0, a0, j0, cj, xp, vp, block):
        nonlocal predicted_j
        arrays = (t0, x0, v0, a0, j0, cj, xp, vp)
        if type(block) is not np.ndarray or block.dtype != _I8 or block.ndim != 1:
            return numpy_predict_j_set(t_now, *arrays, block)  # numpy's indexing serves
        n_b, bound = len(block), predicted_j
        if bound is None or not bound.holds(arrays, rows=n_b):
            rows = xp.shape
            n = rows[0] if len(rows) == 2 and rows[1] == 3 else -1  # -1: no array matches
            if unpointable(arrays, [(n,), *[rows] * 4, (6, n), rows, rows], 3) is not None:
                # numpy broadcasts, casts, strides and refuses a read-only
                # buffer: its tier serves
                return numpy_predict_j_set(t_now, *arrays, block)
            bound = predicted_j = Bound(
                _PredictedJ, arrays, 3, (np.empty(max(n_b, n, 1), _I8),), (n,))
        bound.buffers[0][:n_b] = block
        if predict_j_fn(t_now, bound.pointer, n_b) == _INDEX_OUT_OF_RANGE:
            # found before anything was written: numpy's answer (a
            # negative row wraps, one past the end raises)
            numpy_predict_j_set(t_now, *arrays, block)

    return HermiteTile(predict_hermite, advance_block, predict_j_set)


#: ``(n, n_b, t_block, poison)`` of the load-time self-check: block sizes
#: around numpy's 8-wide unroll; block times that grant a doubling (a
#: multiple of every step) and refuse one (3/8 is none of 1/4); one
#: block with a NaN force.
SELF_CHECK_BLOCKS = (
    (12, 1, 1.0, False), (12, 7, 1.0, False), (12, 8, 0.375, False),
    (12, 9, 1.0, False), (12, 9, 1.0, True), (5, 5, 0.375, False),
)


def _self_check_system(n: int, n_b: int, t_block: float):
    """A system with a block due at ``t_block`` and the force on it:
    steps 2^-3 .. 2^-40 inside one block, and force changes that put the
    criterion from far below the old step to far above it."""
    # irregular O(1) values (no RNG: see forces.kernels)
    wave = np.sin(np.arange(1.0, 24 * n + 1).reshape(8, n, 3) ** 2)
    s = SimpleNamespace(n=n, **dict(zip(STATE_VECTORS, wave[:6].copy())))
    s.pot, s.t, s.dt = wave[6, :, 0].copy(), np.zeros(n), np.full(n, 2.0**-3)
    block = np.arange(0, n, max(n // n_b, 1))[:n_b]
    h = 2.0 ** -np.array([3, 40, 5, 17, 3, 9, 4, 3, 28])[:n_b]
    s.t[block], s.dt[block] = t_block - h, h
    size = (10.0 ** np.arange(-4, 5))[:n_b, None]  # of the unpredicted change
    jerk1 = s.jerk[block] + h[:, None] * size * wave[7, block]
    acc1 = s.acc[block] + h[:, None] * s.jerk[block] + h[:, None] ** 2 * size * wave[6, block]
    if n_b > 4:  # a constant force: zero snap and crackle, the `tiny` floor
        s.jerk[block[4]] = jerk1[4] = 0.0
        acc1[4] = s.acc[block[4]]
    return s, block, acc1, jerk1, wave[7, block, 0].copy()


#: ``(n, block)`` of the load-time self-check of :func:`predict_j_set`:
#: one particle, and all of it; sets around numpy's 8-wide unroll, its
#: 128 block and a halving; blocks in and out of order and empty.
SELF_CHECK_SETS = (
    (1, [0]), (7, [6, 0, 3]), (9, []), (129, list(range(0, 129, 5))), (300, [299, 0, 150, 7]),
)


def predicted_j_bytes(tile: HermiteTile, n: int, block: list) -> bytes:
    """What :func:`predict_j_set` of ``tile`` leaves - the j-set and the
    predictions, their rows outside the block still zero - for ``n``
    particles whose steps to the block time 1.0 are no powers of two
    and one in three zero."""
    # irregular O(1) values (no RNG: see forces.kernels)
    wave = np.sin(np.arange(1.0, 12 * n + 1).reshape(4, n, 3) ** 2)
    t0 = 1.0 - np.cos(np.arange(n)) ** 2
    t0[::3] = 1.0
    cj, xp, vp = np.zeros((6, n)), np.zeros((n, 3)), np.zeros((n, 3))
    tile.predict_j_set(1.0, t0, *wave.copy(), cj, xp, vp, np.array(block, dtype=np.int64))
    return cj.tobytes() + xp.tobytes() + vp.tobytes()


def state_bytes(system, *more) -> bytes:
    """The nine state arrays of ``system``, then ``more``, as bytes: what
    the tiers are compared on."""
    arrays = [getattr(system, name) for name in STATE_VECTORS + STATE_SCALARS]
    return b"".join(a.tobytes() for a in (*arrays, *more))


def _self_check(tile: HermiteTile) -> None:
    """Refuse ``tile`` unless it leaves every array as :data:`NUMPY_TILE`
    does, byte for byte, on :data:`SELF_CHECK_BLOCKS` - and, given a NaN
    force, raises as it does with nothing written - and on
    :data:`SELF_CHECK_SETS`.

    The new step is a floor to a power of two, which shows the last bit
    of the criterion only when it lies within an ulp of one; so the one
    thing the criterion's last bit hangs on that is numpy's choice and
    not IEEE's, the order in which ``norm`` adds three squares, is asked
    of numpy itself."""
    sq = np.sin(np.arange(1.0, 97.0).reshape(32, 3) ** 2) ** 2  # the orders differ in 5 rows
    if np.add.reduce(sq, axis=-1).tobytes() != ((sq[:, 0] + sq[:, 1]) + sq[:, 2]).tobytes():
        raise TileUnavailable(
            "self-check: numpy adds the squares of a 3-vector in another order "
            "than hermite_tile.c"
        )
    for n, n_b, t_block, poison in SELF_CHECK_BLOCKS:
        answers = []
        for predict, advance, _ in (tile, NUMPY_TILE):
            s, block, acc1, jerk1, pot1 = _self_check_system(n, n_b, t_block)
            if poison:
                acc1[-1, 1] = np.nan
            xp, vp = predict(t_block, s.t, s.pos, s.vel, s.acc, s.jerk)
            try:
                dt_new = advance(
                    s, block, t_block, xp, vp, acc1, jerk1, pot1, 0.02, 0.25, 2.0**-40
                )
            except NonFiniteForce as exc:
                dt_new = np.array([exc.particle], dtype=np.float64)
            answers.append(state_bytes(s, xp, vp, dt_new))
        if answers[0] != answers[1]:
            raise TileUnavailable(
                f"self-check: compiled tile differs from the numpy code at "
                f"block {n_b} of {n}, t = {t_block}, NaN force: {poison}"
            )
    for n, block in SELF_CHECK_SETS:
        if predicted_j_bytes(tile, n, block) != predicted_j_bytes(NUMPY_TILE, n, block):
            raise TileUnavailable(
                f"self-check: compiled j-set prediction differs from the numpy code "
                f"at {n} particles, a block of {len(block)}"
            )


#: The pair serving this process - :data:`NUMPY_TILE`, or ``hermite_tile.c``
#: behind the same signatures - resolved once, at import; the tiers
#: differ in speed only (``compiled.TIERS["hermite_tile"]`` says which).
_tile = resolve("hermite_tile", _bind, _self_check, NUMPY_TILE)

#: Eqs. (6)-(7) through the jerk term for all N particles
#: (:func:`numpy_predict_hermite` documents the signature).
predict_hermite = _tile.predict

#: Corrector, timestep criterion, quantisation and scatter for one block
#: (:func:`numpy_advance_block` documents the signature).
advance_block = _tile.advance

#: :func:`predict_hermite` into a component-major j-set and the block's
#: rows (:func:`numpy_predict_j_set` documents the signature).
predict_j_set = _tile.predict_j_set

"""Vectorised pairwise force / jerk / potential kernels.

Implements equations (1)-(3) of the paper::

    a_i    = sum_j G m_j r_ij / (r_ij^2 + eps^2)^{3/2}
    adot_i = sum_j G m_j [ v_ij / (r_ij^2 + eps^2)^{3/2}
                           - 3 (v_ij . r_ij) r_ij / (r_ij^2 + eps^2)^{5/2} ]
    phi_i  = - sum_j G m_j / (r_ij^2 + eps^2)^{1/2}

with ``r_ij = x_j - x_i`` and ``v_ij = v_j - v_i``.

Layout.  The kernel is component-major, like the GRAPE-6 datapath it
stands in for: a fixed set of i-particles is held while the whole j-set
streams past once.  Particle arrays are transposed to ``(3k, n)`` blocks
(x, y, z, vx, vy, vz rows), one broadcast subtract builds the
``(3k, n_i, n_j)`` difference block, the scalars of a pair (``r^2``,
``r.v``, ``1/r``, ``m/r^3``, ``alpha``) are ``(n_i, n_j)`` planes of one
tile buffer updated with ``out=``, and the weighted planes are reduced by
a single ``sum(axis=2)`` over the contiguous j axis.  Every numpy call
handles all components at once: tiny tiles are bound by the number of
calls, big ones by bytes moved.

Working set.  The i-particles are cut into tiles whose whole buffer
(``planes x 8 B x n_j x rows``) fits :data:`TILE_BYTES`, so the ~25
passes over a tile hit cache instead of DRAM.  The tile height is derived
from ``n_j`` alone; there is no knob.

Why no BLAS.  Results are bit-identical across any partition of the
i-particles (rank decompositions, tile heights, execution backends),
because each output row is elementwise IEEE arithmetic on that row
followed by numpy's pairwise summation along a contiguous axis of length
``n_j`` - both independent of how many other rows share the tile.
``dot``/``matmul``/``einsum`` pick their blocking from the operand
shapes and would break that.

Two tiers, one behaviour.  The tile above is the numpy tier
(:func:`numpy_tile_sums`): the reference, and what runs where there is
no C compiler.  Beneath :func:`pairwise_acc_jerk_pot` sits a compiled
tier (``pairwise_tile.c``, built and loaded by :mod:`.compiled`) that
holds one i-particle in registers while the j-set streams past, like the
hardwired pipeline, and is **bitwise identical** to the numpy tier: the
same IEEE operations in the same order per pair, no fused multiply-add,
and the j-sum in numpy's pairwise-summation order.  It is checked against
the numpy tier when it is loaded (:func:`_self_check`) and refused on any
difference, so every bit-identity pin holds on either tier and nothing
selects one: ``compiled.TIERS["pairwise_tile"]`` says which tier serves
this process and why.

A resident j-set.  A backend that keeps its sources between calls holds
them in the tile's own layout (:class:`ResidentSet`: component-major
positions and velocities, ``G m`` beside them; the host's predictor
writes into it, :func:`~repro.core.hermite_tile.predict_j_set`), and the
tier has one more call on it: ``forces`` runs the tile on the set for
targets given as rows or as the set's own particles.  Its numpy tier is
the composition it replaces (:func:`numpy_resident_forces`); the
compiled tier binds it once (:class:`~repro.forces.compiled.Bound`) and
copies in only the targets.

Flop accounting follows the paper's convention of 38 ops per force and
19 per jerk (57 total).
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable, Iterator
from ctypes import Structure, c_double, c_int, c_ssize_t, c_void_p
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..constants import FLOPS_PER_INTERACTION, G_NBODY
from .compiled import Bound, TileUnavailable, address, entry_point, resolve

#: Bytes of pairwise intermediates one i-tile may occupy.  Measured on
#: the claim workloads' tile shapes (EXPERIMENTS.md, "Pairwise kernel"):
#: 256 KiB and 2 MiB are 10-25 % slower, un-tiled 1.5-2x slower.
TILE_BYTES: int = 1 << 20


@dataclass
class ForceJerkResult:
    """Result of a force evaluation on a set of target (i-) particles.

    Attributes
    ----------
    acc:
        (n, 3) accelerations.
    jerk:
        (n, 3) time derivatives of the acceleration.
    pot:
        (n,) potentials (negative, excluding self-interaction).
    interactions:
        Number of pairwise interactions evaluated (for flop accounting).
    """

    acc: np.ndarray
    jerk: np.ndarray
    pot: np.ndarray
    interactions: int

    @property
    def flops(self) -> int:
        """Flops at the paper's 57-op convention (eq. 9)."""
        return self.interactions * FLOPS_PER_INTERACTION


def component_major(*arrays: np.ndarray) -> np.ndarray:
    """Stack ``(n, 3)`` arrays into one contiguous ``(3k, n)`` float64 block."""
    out = np.empty((3 * len(arrays), len(arrays[0])))
    for k, a in enumerate(arrays):
        out[3 * k : 3 * k + 3] = np.asarray(a).T
    return out


def difference_tiles(
    ci: np.ndarray, cj: np.ndarray, scratch: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Cut the i-particles into cache-sized tiles of pairwise differences.

    ``ci`` and ``cj`` are component-major ``(k, n_i)`` / ``(k, n_j)``
    blocks.  Yields ``(rows, buf)`` with ``buf`` a contiguous
    ``(k + scratch, n_rows, n_j)`` buffer whose first ``k`` planes hold
    ``cj - ci[:, rows]`` and whose last ``scratch`` planes are work
    space; reduce planes with ``sum(axis=2)``.  The buffer is local to
    the call and overwritten by the next tile.
    """
    k, n_i = ci.shape
    n_j = cj.shape[1]
    planes = k + scratch
    height = max(1, min(n_i, TILE_BYTES // (8 * planes * max(n_j, 1))))
    flat = np.empty(planes * height * n_j)  # one buffer, reused by every tile
    for lo in range(0, n_i, height):
        rows = slice(lo, min(lo + height, n_i))
        n_rows = rows.stop - lo
        buf = flat[: planes * n_rows * n_j].reshape(planes, n_rows, n_j)
        np.subtract(cj[:, None, :], ci[:, rows, None], out=buf[:k])
        yield rows, buf


def plane_dot(
    a: np.ndarray, b: np.ndarray, tmp: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``a[0] b[0] + a[1] b[1] + a[2] b[2]`` of two 3-plane blocks into the
    plane ``out``; ``tmp`` is a 3-plane scratch block."""
    np.multiply(a, b, out=tmp)
    np.add(tmp[0], tmp[1], out=out)
    out += tmp[2]
    return out


def softened_rinv(
    dx: np.ndarray, tmp: np.ndarray, eps2: float, out: np.ndarray, mask_self: bool
) -> np.ndarray:
    """``1 / sqrt(dx.dx + eps2)`` into the plane ``out`` (``tmp``: 3-plane
    scratch).

    With ``mask_self`` the result is exactly 0 where ``r^2 <= eps2``
    (zero separation): ``r^2`` is set to inf there before the root, so
    nothing is divided by zero, and every weight derived from the result
    (``m/r``, ``m/r^3``, ``alpha``) is exactly 0 for the self pair -
    ``0 * inf`` cannot appear even at ``eps2 = 0``.
    """
    plane_dot(dx, dx, tmp, out)
    out += eps2
    if mask_self:
        np.putmask(out, out <= eps2, np.inf)
    np.sqrt(out, out=out)
    return np.divide(1.0, out, out=out)


def numpy_tile_sums(
    ci: np.ndarray,
    cj: np.ndarray,
    gm: np.ndarray,
    eps2: float,
    mask_self: bool,
    sums: np.ndarray,
) -> None:
    """The numpy tier, and the reference the compiled tier must match bit
    for bit: j-sums of acc(3), jerk(3) and ``m/r`` into ``sums`` ``(7, n_i)``
    from component-major targets ``ci`` ``(6, n_i)``, sources ``cj``
    ``(6, n_j)`` and ``gm = G m_j``."""
    for rows, buf in difference_tiles(ci, cj, scratch=7):
        dx, dv, mrinv, tmp = buf[:3], buf[3:6], buf[6], buf[7:10]
        alpha, rinv2, mrinv3 = buf[10], buf[11], buf[12]
        rinv = softened_rinv(dx, tmp, eps2, mrinv, mask_self)
        plane_dot(dx, dv, tmp, alpha)  # r.v
        np.multiply(rinv, rinv, out=rinv2)
        mrinv *= gm  # rinv -> m/r, the potential plane
        np.multiply(mrinv, rinv2, out=mrinv3)
        alpha *= 3.0
        alpha *= rinv2  # 3 (v.r) / r^2 -- the alpha factor of the jerk (eq. 2)
        np.multiply(mrinv3, alpha, out=rinv2)
        np.multiply(dx, rinv2, out=tmp)
        dv *= mrinv3
        dv -= tmp
        dx *= mrinv3
        sums[:, rows] = buf[:7].sum(axis=2)


TileSums = Callable[[np.ndarray, np.ndarray, np.ndarray, float, bool, np.ndarray], None]


def _answers(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """acc (n_i, 3), jerk (n_i, 3), pot (n_i,) of a tile's (7, n_i) sums."""
    return np.ascontiguousarray(sums[:3].T), np.ascontiguousarray(sums[3:6].T), -sums[6]


class ResidentSet:
    """A j-set held for the tile by the backend that owns it: ``cj``
    (6, n) positions and velocities, component-major, and ``gm`` (n,)
    ``G m``; on the compiled tier the binding of its force call.

    Given ``cj`` and ``gm`` (contiguous float64 of those shapes), the set
    is over arrays it does not own: its owner keeps them alive, and sets
    over the same arrays share the j-set but not a binding, so each may
    serve one thread's calls (the execution backends' one set a worker).
    """

    __slots__ = ("n", "cj", "gm", "call")

    def __init__(self, n: int, cj: np.ndarray | None = None,
                 gm: np.ndarray | None = None) -> None:
        self.n = n
        self.cj = np.empty((6, n)) if cj is None else cj
        self.gm = np.empty(n) if gm is None else gm
        self.call = None

    def load(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Copy (n, 3) ``x``, ``v`` and the ``G m`` of (n,) ``m`` in."""
        self.cj[:3], self.cj[3:] = x.T, v.T
        np.multiply(G_NBODY, m, out=self.gm)


def numpy_resident_forces(j_set: ResidentSet, xi, vi, rows, eps2: float, mask_self: bool):
    """The numpy tier of a force call on a resident set, and its
    compiled tier's reference: the tile on targets ``xi``, ``vi``
    (n_i, 3), or, if ``xi`` is None, on the set's own particles ``rows``;
    acc (n_i, 3), jerk (n_i, 3), pot (n_i,) as :func:`pairwise_acc_jerk_pot`
    gives them."""
    ci = j_set.cj[:, rows] if xi is None else component_major(xi, vi)
    sums = np.empty((7, ci.shape[1]))
    numpy_tile_sums(ci, j_set.cj, j_set.gm, eps2, mask_self, sums)
    return _answers(sums)


class PairwiseTier(NamedTuple):
    """One tier of ``pairwise_tile``: the tile's j-sums and a resident
    set's force call."""

    sums: TileSums
    forces: Callable


#: The numpy tier: the reference, and what runs without a compiler.
NUMPY_PAIRWISE = PairwiseTier(numpy_tile_sums, numpy_resident_forces)

_I8 = np.dtype(np.int64)
# resident_forces' flags and what it answers (pairwise_tile.c)
_MASK_SELF, _BY_INDEX, _DONE = 1, 2, 0


class _Resident(Structure):
    """``struct resident`` of ``pairwise_tile.c``."""

    _fields_ = [("n", c_ssize_t)] + [
        (name, c_void_p) for name in ("cj", "gm", "xi", "vi", "index", "acc", "jerk", "pot")
    ] + [("eps2", c_double)]


def _bind(library) -> PairwiseTier:
    """``pairwise_tile.c`` behind the numpy tier's signatures; a resident
    set's force call bound to it (module docstring)."""
    tile_fn = entry_point(
        library, "pairwise_tile",
        [c_void_p, c_ssize_t, c_void_p, c_void_p, c_ssize_t, c_double, c_int, c_void_p],
    )
    forces_fn = entry_point(library, "resident_forces", [c_void_p, c_ssize_t, c_int], c_int)
    # its four arrays are made by the caller, float64 and writable, and a
    # one-row tile is 9 us: no call to, and no test in, compiled.address
    pointer_to, first = ctypes.byref, ctypes.c_double.from_buffer

    def tile_sums(ci, cj, gm, eps2, mask_self, sums) -> None:
        n_i, n_j = ci.shape[1], cj.shape[1]
        for a, shape in ((ci, (6, n_i)), (cj, (6, n_j)), (gm, (n_j,)), (sums, (7, n_i))):
            if a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError(f"pairwise tile wants contiguous float64 {shape}")
        if n_i == 0 or n_j == 0:  # no first element to point at
            sums.fill(0.0)
            return
        tile_fn(pointer_to(first(ci)), n_i, pointer_to(first(cj)), pointer_to(first(gm)),
                n_j, eps2, mask_self, pointer_to(first(sums)))

    def forces(j_set, xi, vi, rows, eps2, mask_self):
        flags = _MASK_SELF if mask_self else 0
        if xi is None:
            if type(rows) is not np.ndarray or rows.dtype != _I8 or rows.ndim != 1:
                return numpy_resident_forces(j_set, xi, vi, rows, eps2, mask_self)
            n_i, flags = len(rows), flags | _BY_INDEX
        else:
            n_i = len(xi)
            if (type(xi) is not np.ndarray or type(vi) is not np.ndarray
                    or xi.shape != (n_i, 3) or vi.shape != (n_i, 3)):
                return numpy_resident_forces(j_set, xi, vi, rows, eps2, mask_self)
        call = j_set.call
        if call is None or n_i > call.rows or call.key != eps2:
            depth = max(n_i, call.rows if call else 1)
            call = j_set.call = Bound(
                _Resident, (), 0, (np.empty((depth, 3)), np.empty((depth, 3)),
                                   np.empty(depth, _I8), np.empty((depth, 3)),
                                   np.empty((depth, 3)), np.empty(depth)),
                (j_set.n, address(j_set.cj), address(j_set.gm)), (eps2,), eps2)
        staged_xi, staged_vi, staged_rows, acc, jerk, pot = call.cut(n_i)
        if xi is None:
            staged_rows[...] = rows
        else:
            staged_xi[...], staged_vi[...] = xi, vi
        if forces_fn(call.pointer, n_i, flags) != _DONE:  # a row outside the set
            return numpy_resident_forces(j_set, xi, vi, rows, eps2, mask_self)
        return acc.copy(), jerk.copy(), pot.copy()  # the caller's: no later call writes them

    return PairwiseTier(tile_sums, forces)


#: ``(n_i, n_j)`` of the load-time self-check: around numpy's 8-wide
#: unroll, its 128 block, and a halving whose halves halve again.
SELF_CHECK_TILES = ((3, 7), (2, 9), (2, 128), (3, 129), (2, 300))


#: ``(n, block)`` of the load-time self-check of a resident set's force
#: call: one particle, and all of it; sets around numpy's 8-wide unroll,
#: its 128 block and a halving; blocks in and out of order and empty.
#: (The j-sums are :data:`SELF_CHECK_TILES`' business: few rows suffice.)
SELF_CHECK_SETS = (
    (1, [0]), (7, [6, 0, 3]), (9, []), (129, list(range(0, 129, 5))), (300, [299, 0, 150, 7]),
)


def _resident_bytes(tier: PairwiseTier, n: int, block: list) -> bytes:
    """What a resident set's force calls answer with ``tier`` serving:
    forces on the block as rows of the set and as given rows, both
    masks."""
    # irregular O(1) values (no RNG: see _self_check_tiles)
    wave = np.sin(np.arange(1.0, 9 * n + 1).reshape(3, n, 3) ** 2)
    j_set, block = ResidentSet(n), np.array(block, dtype=np.int64)
    j_set.load(wave[0], wave[1], 0.1 + wave[2, :, 0] ** 2)
    xi, vi = wave[0, block], wave[1, block]
    out = [*tier.forces(j_set, None, None, block, 2.0**-12, True)]
    for mask_self in (False, True):
        out += tier.forces(j_set, xi, vi, block, 2.0**-12, mask_self)
    return b"".join(a.tobytes() for a in out)


def _self_check_tiles(tile: TileSums) -> None:
    """Refuse the tile sums ``tile`` unless they reproduce
    :func:`numpy_tile_sums` bit for bit on :data:`SELF_CHECK_TILES`,
    targets among the sources, both masks."""
    for n_i, n_j in SELF_CHECK_TILES:
        # irregular O(1) coordinates and masses (no RNG: importing
        # numpy.random costs this import 7 MiB)
        cj = np.sin(np.arange(1.0, 6 * n_j + 1).reshape(6, n_j) ** 2)
        ci = np.ascontiguousarray(cj[:, :n_i])
        gm = 0.1 + np.cos(np.arange(n_j)) ** 2
        for mask_self in (False, True):
            got, want = np.empty((7, n_i)), np.empty((7, n_i))
            tile(ci, cj, gm, 2.0**-12, mask_self, got)
            numpy_tile_sums(ci, cj, gm, 2.0**-12, mask_self, want)
            if got.tobytes() != want.tobytes():
                raise TileUnavailable(
                    f"self-check: compiled tile differs from the numpy tile "
                    f"at {n_i}x{n_j}, mask_self={mask_self}"
                )


def _self_check(tier: PairwiseTier) -> None:
    """Refuse ``tier`` unless its tile sums pass :func:`_self_check_tiles`
    and a resident set's force calls answer what :data:`NUMPY_PAIRWISE`'s
    do, byte for byte, on :data:`SELF_CHECK_SETS`."""
    _self_check_tiles(tier.sums)
    for n, block in SELF_CHECK_SETS:
        if _resident_bytes(tier, n, block) != _resident_bytes(NUMPY_PAIRWISE, n, block):
            raise TileUnavailable(
                f"self-check: compiled resident force call differs from the numpy tier "
                f"at {n} particles, a block of {len(block)}"
            )


#: The tier serving this process: ``pairwise_tile.c`` or
#: :data:`NUMPY_PAIRWISE` (``compiled.TIERS["pairwise_tile"]``).
_tier = resolve("pairwise_tile", _bind, _self_check, NUMPY_PAIRWISE)

#: The tile serving :func:`pairwise_acc_jerk_pot`.
_tile_sums = _tier.sums


def pairwise_acc_jerk_pot(
    xi: np.ndarray,
    vi: np.ndarray,
    xj: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    eps2: float,
    exclude_self: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation of eqs. (1)-(3) on targets i from sources j.

    Parameters
    ----------
    xi, vi:
        (n_i, 3) positions and velocities of the particles receiving the
        force.
    xj, vj, mj:
        (n_j, 3) positions, velocities and (n_j,) masses of the sources.
    eps2:
        Square of the softening length (eps^2 in the equations).
    exclude_self:
        If True, zero-distance pairs are excluded from the sums, which
        implements self-interaction removal when the i-set is a subset
        of the j-set.  With softening, a zero-distance pair would not be
        singular but would still contribute a spurious self-potential.

    Returns
    -------
    acc (n_i, 3), jerk (n_i, 3), pot (n_i,).  Each row depends only on
    that target and on the j-set: any row subset or partition of the
    targets gives bitwise the same rows.
    """
    ci = component_major(xi, vi)
    cj = component_major(xj, vj)
    gm = G_NBODY * np.asarray(mj, dtype=np.float64)
    if gm.shape != (cj.shape[1],):
        raise ValueError(f"mj has shape {gm.shape}, want ({cj.shape[1]},)")
    sums = np.empty((7, ci.shape[1]))  # j-sums of acc(3), jerk(3), m/r
    _tile_sums(ci, cj, gm, float(eps2), bool(exclude_self), sums)
    return _answers(sums)


def resident_forces(
    j_set: ResidentSet,
    xi: np.ndarray | None,
    vi: np.ndarray | None,
    rows: np.ndarray | None,
    eps2: float,
    exclude_self: bool,
) -> ForceJerkResult:
    """Forces on targets ``xi``, ``vi`` (n_i, 3), or, with ``xi`` None, on
    the set's own particles ``rows``, from the resident set ``j_set``,
    with the interaction count: the tier's force call on the set."""
    acc, jerk, pot = _tier.forces(j_set, xi, vi, rows, eps2, exclude_self)
    n_i = len(pot)
    return ForceJerkResult(acc, jerk, pot, n_i * j_set.n - (n_i if exclude_self else 0))


def acc_jerk_pot_on_targets(
    xi: np.ndarray,
    vi: np.ndarray,
    xj: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    eps2: float,
    exclude_self: bool = False,
) -> ForceJerkResult:
    """Forces on arbitrary targets from arbitrary sources, with the
    interaction count the flop accounting needs.

    The kernel holds a cache-sized tile of i-particles while all
    j-particles stream past, which mirrors the GRAPE-6 execution model:
    the hardware processes i-particles 48-at-a-time while streaming all
    j-particles from the on-board memories.
    """
    acc, jerk, pot = pairwise_acc_jerk_pot(
        xi, vi, xj, vj, mj, eps2, exclude_self=exclude_self
    )
    n_i = acc.shape[0]
    interactions = n_i * len(mj) - (n_i if exclude_self else 0)
    return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)


def potential_energy(x: np.ndarray, m: np.ndarray, eps2: float) -> float:
    """Total (softened) potential energy ``U = 1/2 sum_i m_i phi_i``.

    Uses the same pairwise softening as the force kernel so that the
    energy-conservation diagnostics are consistent with the dynamics.
    """
    cx = component_major(x)
    m = np.asarray(m, dtype=np.float64)
    gm = G_NBODY * m
    u = 0.0
    for rows, buf in difference_tiles(cx, cx, scratch=4):
        mrinv = softened_rinv(buf[:3], buf[3:6], eps2, buf[6], mask_self=True)
        mrinv *= gm
        u -= 0.5 * float(np.sum(m[rows] * mrinv.sum(axis=1)))
    return u


def kinetic_energy(v: np.ndarray, m: np.ndarray) -> float:
    """Total kinetic energy ``T = 1/2 sum_i m_i v_i^2``."""
    return float(0.5 * np.sum(m * np.einsum("ij,ij->i", v, v)))

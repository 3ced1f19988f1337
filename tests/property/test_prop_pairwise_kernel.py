"""Property: the pairwise kernel's rows are independent, accurate, unbiased.

:func:`repro.forces.kernels.pairwise_acc_jerk_pot` holds a cache-sized
tile of i-particles and reduces over the contiguous j axis.  Everything
that is bit-identical across rank partitions, tile heights and execution
backends (copy == serial, inline == process, the claim benchmark's
baselines) rests on one property of it: **a row of the result depends
only on that target and on the j-set** - never on which or how many other
rows were evaluated with it, nor on the memory layout the caller passed.

(a) hypothesis draws tile shapes, row subsets, permutations, partitions
    and input layouts (C/F order, strided slices, read-only) and demands
    bitwise equality, on shapes that straddle the tile-height boundary;
(b) accuracy is pinned as a distribution against an ``np.longdouble``
    reference, in the spirit of the GRAPE-3 accuracy study
    (astro-ph/9709246), not as a single-seed tolerance;
(c) Newton's third law and ``potential_energy == 1/2 sum m pot``;
(d) the kernel has two tiers, compiled C and numpy, whose contract is
    **bit identity**, not a tolerance: hypothesis draws shapes around
    the boundaries of numpy's pairwise summation (8, 128, the halving),
    masks, degenerate inputs and input layouts/dtypes and demands equal
    bits.  (a)-(c) run on whichever tier this process resolved; CI runs
    this file once per tier, the second time with no compiler on PATH.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forces import kernels
from repro.forces.kernels import (
    acc_jerk_pot_on_targets,
    pairwise_acc_jerk_pot,
    potential_energy,
)
from repro.models import plummer_model
from tests.conftest import needs_compiled

pytestmark = pytest.mark.tiers

EPS2 = (1.0 / 64.0) ** 2


def tile_height(n_j: int) -> int:
    """Rows per i-tile of the force kernel (13 planes) for this j-count."""
    return max(1, kernels.TILE_BYTES // (8 * 13 * max(n_j, 1)))


def particles(seed: int, n_i: int, n_j: int, subset: bool):
    """Sources, and targets that are either the first rows of the sources
    (the block-timestep case, self pairs present) or external points."""
    rng = np.random.default_rng(seed)
    xj = rng.normal(size=(n_j, 3))
    vj = rng.normal(size=(n_j, 3))
    mj = rng.uniform(0.1, 2.0, n_j)
    if subset:
        take = rng.permutation(n_j)[: min(n_i, n_j)]
        return xj[take], vj[take], xj, vj, mj
    return rng.normal(size=(n_i, 3)), rng.normal(size=(n_i, 3)), xj, vj, mj


def relayout(a: np.ndarray, how: str) -> np.ndarray:
    """The same values in a different memory layout."""
    if how == "fortran":
        return np.asfortranarray(a)
    if how == "strided":
        wide = np.zeros((2 * a.shape[0],) + a.shape[1:])
        wide[::2] = a
        return wide[::2]
    if how == "readonly":
        a = a.copy()
        a.setflags(write=False)
    return a


def assert_rows_equal(got, want, rows):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w[rows])


@contextmanager
def numpy_tier():
    """Serve the kernel from the numpy tier, as when no compiled tile
    could be built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_tile_sums", kernels.numpy_tile_sums)
        yield




class TestRowIndependence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_i=st.integers(1, 300),
        n_j=st.integers(1, 1500),
        subset=st.booleans(),
        layout=st.sampled_from(["c", "fortran", "strided", "readonly"]),
        data=st.data(),
    )
    def test_any_rows_in_any_layout(self, seed, n_i, n_j, subset, layout, data):
        xi, vi, xj, vj, mj = particles(seed, n_i, n_j, subset)
        n_i = xi.shape[0]
        whole = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self=subset)

        # a drawn subset with repeats, in drawn order
        rows = np.array(
            data.draw(st.lists(st.integers(0, n_i - 1), min_size=1, max_size=n_i))
        )
        part = pairwise_acc_jerk_pot(
            relayout(xi[rows], layout),
            relayout(vi[rows], layout),
            relayout(xj, layout),
            relayout(vj, layout),
            relayout(mj, layout),
            EPS2,
            exclude_self=subset,
        )
        assert_rows_equal(part, whole, rows)

        # a partition into consecutive pieces at drawn cuts
        cuts = sorted(data.draw(st.lists(st.integers(0, n_i), max_size=4)))
        for lo, hi in zip([0] + cuts, cuts + [n_i]):
            piece = pairwise_acc_jerk_pot(
                xi[lo:hi], vi[lo:hi], xj, vj, mj, EPS2, exclude_self=subset
            )
            assert_rows_equal(piece, whole, slice(lo, hi))

    @pytest.mark.parametrize("n_j", [128, 1024, 1500, 2048])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_across_the_tile_boundary(self, n_j, exclude_self):
        """One row short of a tile, exactly a tile, one over, and several
        tiles with a ragged last one, against rows evaluated alone."""
        h = tile_height(n_j)
        n_i = min(3 * h + 1, n_j)
        xi, vi, xj, vj, mj = particles(n_j, n_i, n_j, subset=True)
        whole = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self)
        for k in {max(h - 1, 1), h, min(h + 1, n_i), n_i}:
            part = pairwise_acc_jerk_pot(xi[:k], vi[:k], xj, vj, mj, EPS2, exclude_self)
            assert_rows_equal(part, whole, slice(0, k))
        for r in (0, h - 1, h % n_i, n_i - 1):
            alone = pairwise_acc_jerk_pot(
                xi[r : r + 1], vi[r : r + 1], xj, vj, mj, EPS2, exclude_self
            )
            assert_rows_equal(alone, whole, slice(r, r + 1))

    @pytest.mark.parametrize("n_i, n_j", [(200, 700), (7, 20000)])
    def test_tile_height_itself_does_not_matter(self, n_i, n_j, monkeypatch):
        """1 row, 3 rows and un-tiled, also with rows longer than numpy's
        8192-element iterator buffer."""
        xi, vi, xj, vj, mj = particles(7, n_i, n_j, subset=True)
        whole = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self=True)
        for budget in (1, 8 * 13 * n_j * 3, 1 << 30):
            monkeypatch.setattr(kernels, "TILE_BYTES", budget)
            again = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self=True)
            assert_rows_equal(again, whole, slice(None))


# -- (b) accuracy as a distribution -----------------------------------------

#: (n_i, n_j) of a typical force call on each claim workload of
#: ``benchmarks/e2e``: serial_direct, serial_grape, cluster_latency,
#: cluster_exec (one of 8 ranks' share of the block), service_resume.
CLAIM_TILES = [(98, 1024), (31, 256), (15, 128), (25, 2048), (16, 128)]
SEEDS = range(1000, 1020)

#: (median, p99) relative error of the kernel this one replaced (AoS
#: cubes reduced by ``einsum``, sequential j-summation), measured by this
#: very procedure at the parent commit, n = 3700 rows.
PARENT_ERROR = {
    "acc": (5.72e-16, 2.20e-15),
    "jerk": (1.45e-15, 1.31e-14),
    "pot": (5.24e-17, 1.95e-16),
}


def row_norm(a):
    return np.sqrt((a * a).sum(-1)).astype(np.float64)


def longdouble_reference(xi, vi, xj, vj, mj, eps2):
    """Eqs. (1)-(3) in extended precision, self pairs excluded."""
    ld = np.longdouble
    xi, vi, xj, vj, mj = (a.astype(ld) for a in (xi, vi, xj, vj, mj))
    dx = xj[None] - xi[:, None]
    dv = vj[None] - vi[:, None]
    r2 = (dx * dx).sum(-1)
    self_pair = r2 == 0
    r2[self_pair] = 1
    rinv = 1 / np.sqrt(r2 + ld(eps2))
    rinv[self_pair] = 0
    mrinv = mj[None] * rinv
    mrinv3 = mrinv * rinv * rinv
    alpha = 3 * (dx * dv).sum(-1) * rinv * rinv
    acc = (mrinv3[..., None] * dx).sum(1)
    jerk = (mrinv3[..., None] * dv - (mrinv3 * alpha)[..., None] * dx).sum(1)
    return acc, jerk, -mrinv.sum(1)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="needs a longdouble wider than float64 for the reference",
)
def test_error_distribution_no_worse_than_parent_and_unbiased():
    """Relative error per target row against the longdouble reference,
    20 Plummer realisations x the five claim-workload tiles (3700 rows).

    ============  =====================  =====================
    (median,p99)  parent kernel          this kernel
    ============  =====================  =====================
    acc           5.72e-16, 2.20e-15     8.40e-17, 4.67e-16
    jerk          1.45e-15, 1.31e-14     2.89e-16, 1.57e-15
    pot           5.24e-17, 1.95e-16     5.32e-17, 1.99e-16
    ============  =====================  =====================

    acc and jerk gain a factor ~5 from pairwise instead of sequential
    j-summation; pot was already a pairwise ``np.sum`` in the parent and
    both are at the half-ulp floor of a correctly rounded float64
    (~5.5e-17 median), hence the 10 % allowance below.  Signs of the
    potential error and of the acceleration error along the true
    acceleration must be a fair coin (|z| < 4).
    """
    err = {"acc": [], "jerk": [], "pot": []}
    signed = {"acc": [], "pot": []}
    for seed in SEEDS:
        for n_i, n_j in CLAIM_TILES:
            s = plummer_model(n_j, seed=seed)
            args = (s.pos[:n_i], s.vel[:n_i], s.pos, s.vel, s.mass, EPS2)
            acc, jerk, pot = pairwise_acc_jerk_pot(*args, exclude_self=True)
            acc_ref, jerk_ref, pot_ref = longdouble_reference(*args)
            err["acc"].append(row_norm(acc - acc_ref) / row_norm(acc_ref))
            err["jerk"].append(row_norm(jerk - jerk_ref) / row_norm(jerk_ref))
            err["pot"].append(np.abs((pot - pot_ref) / pot_ref).astype(np.float64))
            signed["acc"].append((((acc - acc_ref) * acc_ref).sum(-1)).astype(np.float64))
            signed["pot"].append((pot - pot_ref).astype(np.float64))

    for name, (parent_median, parent_p99) in PARENT_ERROR.items():
        e = np.concatenate(err[name])
        assert e.size == len(SEEDS) * sum(n_i for n_i, _ in CLAIM_TILES)
        assert np.median(e) <= 1.1 * parent_median, name
        assert np.percentile(e, 99) <= 1.1 * parent_p99, name
    for name, parts in signed.items():
        d = np.concatenate(parts)
        d = d[d != 0]
        z = ((d > 0).sum() - d.size / 2) / np.sqrt(d.size / 4)
        assert abs(z) < 4.0, (name, z)


# -- (c) conservation identities --------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400))
def test_third_law_and_potential_energy(seed, n):
    """sum m a = sum m adot = 0 and U = 1/2 sum m pot, to 1e-13 of the
    summed magnitudes."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    v = rng.normal(size=(n, 3))
    m = rng.uniform(0.1, 2.0, n)
    res = acc_jerk_pot_on_targets(x, v, x, v, m, EPS2, exclude_self=True)
    for f in (res.acc, res.jerk):
        scale = np.abs(m[:, None] * f).sum()
        assert np.abs(m @ f).max() <= 1e-13 * scale
    u = potential_energy(x, m, EPS2)
    assert u == pytest.approx(0.5 * np.sum(m * res.pot), rel=1e-13)


# -- (d) compiled tier == numpy tier, bit for bit -----------------------------

#: n_j around numpy's pairwise-summation boundaries: the 8-wide unroll,
#: the 128 block, the first halving (257 -> 128 + 129, so a second one)
#: and a deep tree with a ragged tail.
BOUNDARY_N_J = [0, 1, 7, 8, 9, 127, 128, 129, 255, 257, 2049]


def same_bits(got, want):
    """Equal bit patterns; where a result is NaN (only eps2 = 0 on an
    unmasked coincident pair makes one) both tiers must say NaN."""
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64
        nan = np.isnan(w)
        np.testing.assert_array_equal(np.isnan(g), nan)
        np.testing.assert_array_equal(
            g[~nan].view(np.uint64), w[~nan].view(np.uint64)
        )


def as_dtype(a: np.ndarray, how: str) -> np.ndarray:
    """Inputs the kernel must convert itself: float32, and integers
    (which makes coincident particles common)."""
    if how == "float32":
        return a.astype(np.float32)
    if how == "int":
        return np.rint(3 * a).astype(np.int64)
    return a


@needs_compiled("pairwise_tile")
class TestCompiledTierIsTheNumpyTier:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_i=st.sampled_from([0, 1, 2, 5, 17]),
        n_j=st.sampled_from(BOUNDARY_N_J) | st.integers(0, 2100),
        subset=st.booleans(),
        exclude_self=st.booleans(),
        eps2=st.sampled_from([EPS2, 0.0, 1.0]),
        massless=st.booleans(),
        layout=st.sampled_from(["c", "fortran", "strided", "readonly"]),
        dtype=st.sampled_from(["float64", "float32", "int"]),
    )
    def test_bitwise(
        self, seed, n_i, n_j, subset, exclude_self, eps2, massless, layout, dtype
    ):
        xi, vi, xj, vj, mj = particles(seed, n_i, n_j, subset)
        if massless:
            mj[:: 2] = 0.0
        if n_j > 1:
            xj[-1], vj[-1] = xj[0], vj[0]  # a coincident pair that is not (i, i)
        args = [relayout(as_dtype(a, dtype), layout) for a in (xi, vi, xj, vj)]
        args += [relayout(mj, layout), eps2, exclude_self]
        with warnings.catch_warnings():
            # eps2 = 0 without the mask divides by zero on both tiers
            warnings.simplefilter("ignore", RuntimeWarning)
            got = pairwise_acc_jerk_pot(*args)
            with numpy_tier():
                want = pairwise_acc_jerk_pot(*args)
        same_bits(got, want)

    @pytest.mark.parametrize("n_j", BOUNDARY_N_J + [20000])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_every_boundary(self, n_j, exclude_self):
        xi, vi, xj, vj, mj = particles(n_j, 3, n_j, subset=True)
        got = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self)
        with numpy_tier():
            want = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, EPS2, exclude_self)
        same_bits(got, want)

    @pytest.mark.parametrize("n_i, n_j", CLAIM_TILES)
    def test_claim_tiles(self, n_i, n_j):
        s = plummer_model(n_j, seed=n_j)
        args = (s.pos[:n_i], s.vel[:n_i], s.pos, s.vel, s.mass, EPS2, True)
        got = pairwise_acc_jerk_pot(*args)
        with numpy_tier():
            want = pairwise_acc_jerk_pot(*args)
        same_bits(got, want)


def test_mismatched_masses_are_refused_on_either_tier():
    """The compiled tile reads ``n_j`` masses through a bare pointer, so
    a wrong count is refused before either tier sees it."""
    xi, vi, xj, vj, mj = particles(1, 2, 10, subset=False)
    for bad in (mj[:9], np.ones(1), 1.0):
        with pytest.raises(ValueError):
            pairwise_acc_jerk_pot(xi, vi, xj, vj, bad, EPS2)
        with numpy_tier(), pytest.raises(ValueError):
            pairwise_acc_jerk_pot(xi, vi, xj, vj, bad, EPS2)

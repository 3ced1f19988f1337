"""Property: the pipeline tile is the GRAPE-6 arithmetic, bit for bit.

Both emulation modes evaluate eqs. (1)-(3) through one function,
:func:`repro.hardware.pipeline.partial_lanes`, so batched-vs-faithful
identity (``test_prop_emulation_modes.py``) no longer pins the pairwise
arithmetic itself - the two would drift together.  This file does:

(a) a deliberately slow row-major oracle kept here - per-pair float64,
    ``FloatFormat.round``, ``BlockFloatAccumulator.quantize``,
    ``exact_int_sum``, the form the emulator had before the tile - is
    compared bitwise with the emulator over hypothesis-drawn shapes,
    machine sizes, self-exclusion on/off, ``eps2 = 0`` with coincident
    particles, predictor mode, and under-declared exponents (same
    ``BlockFloatOverflow``, same retry count);
(b) blake2b digests of forces recorded at the commit before the tile
    existed (that of a short block-timestep trajectory is a golden cell
    of ``test_prop_invariants.py``);
(c) the compiled tier (``pipeline_tile.c``) against the numpy tier it
    must equal integer for integer, raise for raise;
(d) the emulator's two crossings a blockstep - the j-load in place and
    the force call from raw targets - on the served tier against the
    numpy composition, through the whole emulator: uncached rows, a
    saturating guess and an overflowing total with their retries,
    targets off the grid, a negative index, no targets, and a direct
    bank load or the faithful mode meeting an in-place reload.
(a), (b) and (d) run on whichever tier the process resolved; CI runs
this file once more with no compiler on PATH.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forces import compiled
from repro.hardware import Grape6Emulator, pipeline
from repro.hardware.blockfloat import BlockFloatAccumulator, BlockFloatOverflow
from repro.hardware.chip import BlockExponents
from repro.hardware.fixedpoint import exact_int_sum
from repro.hardware.floatformat import FloatFormat
from repro.hardware.pipeline import (
    NUMPY_PIPELINE,
    TILE_FITS,
    TILE_OVERFLOWS,
    TILE_SATURATES,
    UNCACHED,
    PipelineFormats,
    lanes_or_overflow,
    numpy_partial_lanes,
    partial_lanes,
)
from repro.models import plummer_model
from tests.conftest import needs_compiled, tiers, use_pipeline_tier

pytestmark = pytest.mark.tiers

EPS2 = 1.0 / 4096.0


# -- (a) the oracle ---------------------------------------------------------


def oracle_contributions(xi_q, vi, xj_q, vj, mj, eps2, formats, self_mask):
    """Row-major ``(n_i, n_j, 3)`` pair terms, each rounded to the pair
    format; self pairs (by host index) and grid-identical pairs are 0."""
    dq = xj_q[None, :, :] - xi_q[:, None, :]
    dx = dq.astype(np.float64) * formats.pos.resolution
    dv = vj[None, :, :] - vi[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", dx, dx) + eps2
    cut = np.all(dq == 0, axis=2)
    if self_mask is not None:
        cut = cut | self_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        rinv = 1.0 / np.sqrt(r2)
        rinv2 = rinv * rinv
        mrinv = mj[None, :] * rinv
        mrinv3 = mrinv * rinv2
        alpha = 3.0 * np.einsum("ijk,ijk->ij", dx, dv) * rinv2
    mrinv = np.where(cut, 0.0, mrinv)
    mrinv3 = np.where(cut, 0.0, mrinv3)
    alpha = np.where(cut, 0.0, alpha)
    acc = mrinv3[:, :, None] * dx
    jerk = mrinv3[:, :, None] * dv - (mrinv3 * alpha)[:, :, None] * dx
    pair = formats.pair
    return pair.round(acc), pair.round(jerk), pair.round(-mrinv)


def oracle_attempt(xi_q, vi, xj_q, vj, mj, host_j, exponents, eps2, formats, i_index):
    """One evaluation under declared exponents: quantise every pair term,
    sum in exact Python integers, range-check, convert."""
    mask = i_index[:, None] == host_j[None, :] if i_index is not None else None
    acc_c, jerk_c, pot_c = oracle_contributions(
        xi_q, vi, xj_q, vj, mj, eps2, formats, mask
    )
    out = []
    for c, e in ((acc_c, exponents.acc), (jerk_c, exponents.jerk), (pot_c, exponents.pot)):
        e_pair = e[:, None, None] if c.ndim == 3 else e[:, None]
        q = BlockFloatAccumulator(np.broadcast_to(e_pair, c.shape)).quantize(c)
        e_out = e[:, None] if c.ndim == 3 else e
        out.append(BlockFloatAccumulator(e_out).to_float(exact_int_sum(q, axis=1)))
    return out


def oracle_forces(emu, xi, vi, indices, t):
    """The emulator's host loop around :func:`oracle_attempt`: same first
    exponent guess, same bump on overflow.  Returns forces and retries."""
    fmt = emu.formats
    chips = emu._all_chips
    predicted = [chip.predicted_j(t) for chip in chips]
    xj_q = np.concatenate([p[0] for p in predicted])
    vj = np.concatenate([p[1] for p in predicted])
    mj = np.concatenate([chip.memory.mass for chip in chips])
    host_j = np.concatenate([chip.memory.host_index for chip in chips])
    i_index = np.asarray(indices, dtype=np.int64) if indices is not None else None
    exponents = emu._initial_exponents(xi, vi, indices)
    xi_q, vi_w = fmt.pos.quantize(xi), fmt.word.round(vi)
    for retries in range(16):
        try:
            return oracle_attempt(
                xi_q, vi_w, xj_q, vj, mj, host_j, exponents, emu.eps2, fmt, i_index
            ), retries
        except BlockFloatOverflow:
            exponents = exponents.bump(8)
    raise AssertionError("oracle retry loop did not converge")


def system(n, seed, coincident=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 3))
    v = rng.normal(0, 0.5, (n, 3))
    m = rng.uniform(0.1, 1.0, n) / n
    if coincident and n > 1:
        x[n // 2 :] = x[: n - n // 2]  # distinct particles on one grid point
    return x, v, m


class TestAgainstOracle:
    # a lone j-particle with a target on top of it: the host's first
    # exponent guess divides by ~0 (and the retry loop repairs it)
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    @settings(max_examples=40, deadline=None)
    @given(
        n_j=st.integers(1, 90),
        n_i=st.integers(0, 120),
        seed=st.integers(0, 2**32 - 1),
        boards=st.integers(1, 3),
        mode=st.sampled_from(["batched", "faithful"]),
        subset=st.booleans(),
        softened=st.booleans(),
        t=st.sampled_from([None, 0.03125]),
        guard=st.sampled_from([2, 2, -12, -30]),
    )
    def test_emulator_equals_oracle(
        self, n_j, n_i, seed, boards, mode, subset, softened, t, guard
    ):
        """Targets are either j-particles addressed by host index (self
        pairs cut by index, coincident others by the grid test) or
        external points, some of them sitting exactly on a j-particle."""
        eps2 = EPS2 if softened else 0.0
        x, v, m = system(n_j, seed, coincident=not softened)
        emu = Grape6Emulator(
            eps2, boards=boards, emulation_mode=mode, exponent_guard=guard
        )
        emu.set_j_particles(x, v, m)
        rng = np.random.default_rng(seed + 1)
        if subset:
            indices = rng.permutation(n_j)[: min(n_i, n_j)]
            xi, vi = x[indices], v[indices]
        else:
            indices = None
            xi, vi = rng.normal(0, 1, (n_i, 3)), rng.normal(0, 0.5, (n_i, 3))
            xi[::3] = x[rng.integers(0, n_j, len(xi[::3]))]
        (acc, jerk, pot), retries = oracle_forces(emu, xi, vi, indices, t)
        got = emu.forces_on(xi, vi, indices, t=t)
        assert emu.stats.exponent_retries == retries
        np.testing.assert_array_equal(got.acc, acc)
        np.testing.assert_array_equal(got.jerk, jerk)
        np.testing.assert_array_equal(got.pot, pot)

    def test_under_declared_exponent_retries_like_the_oracle(self):
        """The drawn cases reach the retry loop only sometimes; this one
        always does, through per-contribution saturation."""
        x, v, m = system(40, 5)
        idx = np.arange(40)
        emu = Grape6Emulator(EPS2, exponent_guard=-30)
        emu.set_j_particles(x, v, m)
        (acc, jerk, pot), retries = oracle_forces(emu, x, v, idx, None)
        got = emu.forces_on(x, v, idx)
        assert retries > 0 and emu.stats.exponent_retries == retries
        np.testing.assert_array_equal(got.acc, acc)
        np.testing.assert_array_equal(got.jerk, jerk)
        np.testing.assert_array_equal(got.pot, pot)

    def test_massless_jset_scales_by_exact_division(self):
        """Zero mass declares the smallest exponents there are, whose
        quantum's reciprocal is no float64: the tile then divides by the
        quantum as the oracle does, instead of multiplying."""
        x, v, m = system(20, 7)
        emu = Grape6Emulator(EPS2)
        emu.set_j_particles(x, v, 0.0 * m)
        assert emu._initial_exponents(x, v, None).acc.max() < -968
        (acc, jerk, pot), retries = oracle_forces(emu, x, v, None, None)
        got = emu.forces_on(x, v)
        assert retries == emu.stats.exponent_retries == 0
        for g, w in ((got.acc, acc), (got.jerk, jerk), (got.pot, pot)):
            np.testing.assert_array_equal(g, w)
            assert not g.any()

    def test_oracle_raises_where_the_tile_raises(self):
        """One attempt under exponents declared 40 bits too small."""
        self.raise_alike(None)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_term_saturates_oracle_and_tile(self, poison):
        """A target velocity that makes some jerk terms NaN or infinite:
        the register saturates on "not (finite and below 2^62)", in the
        tile and in the oracle's quantisation of that one term."""
        self.raise_alike(poison)

    def raise_alike(self, poison):
        x, v, m = system(12, 6)
        emu = Grape6Emulator(EPS2)
        emu.set_j_particles(x, v, m)
        fmt = emu.formats
        gather = emu._gathered()
        xi_q, vi_w = fmt.pos.quantize(x), fmt.word.round(v)
        good = emu._initial_exponents(x, v, None)
        if poison is None:
            bad = BlockExponents(acc=good.acc - 40, jerk=good.jerk, pot=good.pot)
        else:
            bad, vi_w[3, 1] = good, poison

        def oracle(exponents, vi):
            oracle_attempt(
                xi_q, vi, gather.pos_q, gather.vel, gather.mass,
                gather.host_index, exponents, EPS2, fmt, None,
            )

        def tile(exponents, vi):
            partial_lanes(
                xi_q, vi, gather.pos_q.T, gather.vel.T, gather.mass,
                gather.host_index, exponents.stacked(), EPS2, fmt,
            )

        def term(exponents, vi):  # the oracle's quantisation of the bad term
            BlockFloatAccumulator(exponents.jerk[:1]).quantize(vi[3, 1:2])

        for attempt in (oracle, tile) + ((term,) if poison is not None else ()):
            attempt(good, fmt.word.round(v))
            with pytest.raises(BlockFloatOverflow), np.errstate(invalid="ignore"):
                attempt(bad, vi_w)


# -- (b) golden digests -------------------------------------------------------


def digest(*arrays):
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: (boards, n, targets, eps2 = 0, predictor time) -> digest of acc, jerk,
#: pot, recorded at the parent commit (de92a6d, row-major pipeline, both
#: emulation modes agreeing there).
GOLDEN_FORCES = {
    (1, 1, "all", True, None): "30180882691b1a7f",
    (1, 1, "block", True, None): "e4a6a0577479b2b4",
    (1, 1, "external", False, None): "c850ebd84437d63b",
    (1, 1, "external", True, 0.0625): "f9f5853b026d8295",
    (1, 31, "all", True, 0.0625): "c3729b21ab9c1270",
    (1, 97, "all", True, 0.0625): "49cd1866b47c39ee",
    (1, 97, "all", True, None): "e151f9a94f65ae68",
    (1, 97, "block", False, None): "db756cb3993f061d",
    (1, 97, "block", True, None): "5915add6aa9c070f",
    (2, 1, "all", True, 0.0625): "30180882691b1a7f",
    (2, 1, "external", False, 0.0625): "fdbda349df07e137",
    (2, 1, "external", True, 0.0625): "f9f5853b026d8295",
    (2, 1, "external", True, None): "054b7a33acace64a",
    (2, 31, "all", True, None): "0499cb3df0bf213a",
    (2, 31, "block", False, None): "314614776a7b1ed3",
    (2, 31, "external", True, None): "7cc94424bd0bae89",
    (2, 97, "all", False, 0.0625): "58cf160134cedfd6",
    (2, 97, "all", True, 0.0625): "49cd1866b47c39ee",
    (2, 97, "all", True, None): "e151f9a94f65ae68",
    (2, 97, "block", False, None): "db756cb3993f061d",
    (2, 97, "block", True, None): "5915add6aa9c070f",
    (2, 97, "external", False, 0.0625): "779cec76e53abf34",
    (2, 97, "external", False, None): "87c3a382dda494f9",
    (2, 97, "external", True, None): "da5ca20d1b2721dc",
}

def golden_forces(boards, n, targets, unsoftened, t):
    x, v, m = system(n, 1000 + n, coincident=unsoftened)
    emu = Grape6Emulator(0.0 if unsoftened else EPS2, boards=boards)
    emu.set_j_particles(x, v, m)
    if targets == "all":
        res = emu.forces_on(x, v, np.arange(n), t=t)
    elif targets == "block":
        idx = np.arange(1, n, 3)
        res = emu.forces_on(x[idx], v[idx], idx, t=t)
    else:  # external points, no self exclusion
        res = emu.forces_on(x[::2] + 0.125, v[::2], t=t)
    return digest(res.acc, res.jerk, res.pot)


@pytest.mark.parametrize("case", sorted(GOLDEN_FORCES, key=repr))
def test_force_digests_match_the_parent_commit(case):
    assert golden_forces(*case) == GOLDEN_FORCES[case]



# -- (c) compiled tier == numpy tier ------------------------------------------


#: block exponents at which some pair terms of :func:`tile_arguments`
#: saturate the register and most do not (measured: see
#: ``test_both_outcomes_occur``)
NOMINAL = 0


def relayout(a, how):
    """The same values, strided or read-only."""
    if how == "strided":
        wide = np.zeros((2 * a.shape[0],) + a.shape[1:], dtype=a.dtype)
        wide[::2] = a
        return wide[::2]
    if how == "readonly":
        a = a.copy()
        a.setflags(write=False)
    return a


def tile_arguments(
    seed, n_i, n_j, bits=24, eps2=EPS2, index=True, masses="all", offset=3, layout="c"
):
    """Arguments of the tile: targets drawn from the sources (so every
    one meets itself) with a source coincident with source 0; ``masses``
    "some" zeroes every other one, "none" all of them, "tiny" scales
    them by 2^-1000 - the last two with exponents so small that the tile
    divides by the quantum instead of multiplying."""
    fmt = replace(PipelineFormats.default(), pair=FloatFormat(bits))
    rng = np.random.default_rng(seed)
    x, v = rng.normal(0, 1, (n_j, 3)), rng.normal(0, 0.5, (n_j, 3))
    m = rng.uniform(0.1, 1.0, n_j) / max(n_j, 1)
    if n_j > 1:
        x[-1] = x[0]
    if masses == "some":
        m[::2] = 0.0
    m *= {"none": 0.0, "tiny": 2.0**-1000}.get(masses, 1.0)
    rows = rng.integers(0, n_j, n_i if n_j else 0)
    base = -1000 if masses in ("none", "tiny") else NOMINAL
    exponents = base + offset + rng.integers(0, 3, (7, len(rows)))
    pos_q, vel = fmt.pos.quantize(x), fmt.word.round(v)
    arrays = [
        pos_q[rows], vel[rows], np.ascontiguousarray(pos_q.T),
        np.ascontiguousarray(vel.T), fmt.word.round(m), np.arange(n_j), exponents,
    ]
    arrays = [relayout(a, layout) for a in arrays]
    return (*arrays, eps2, fmt, relayout(rows, layout) if index else None)


@needs_compiled("pipeline_tile")
class TestCompiledTierIsTheNumpyTier:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_i=st.sampled_from([0, 1, 2, 31, 49]),
        n_j=st.sampled_from([0, 1, 127, 128, 129, 257]) | st.integers(0, 700),
        bits=st.sampled_from([24, 53]),
        eps2=st.sampled_from([EPS2, 0.0]),
        index=st.booleans(),
        masses=st.sampled_from(["all", "all", "some", "none", "tiny"]),
        offset=st.integers(-14, 3),
        layout=st.sampled_from(["c", "strided", "readonly"]),
    )
    def test_same_lanes_or_same_overflow(self, **drawn):
        args = tile_arguments(**drawn)
        got = lanes_or_overflow(partial_lanes, *args)
        assert got == lanes_or_overflow(numpy_partial_lanes, *args)
        if got is not None:
            assert len(got) == 2 * 7 * 8 * len(args[0])

    @pytest.mark.parametrize("masses", ["all", "tiny"])
    def test_both_outcomes_occur(self, masses):
        """Across the drawn exponent offsets the tile goes from
        saturating to fitting, on the multiplying and the dividing
        branch, and the tiers change over at the same offset."""
        outcomes = []
        for offset in range(-14, 4):
            args = tile_arguments(3, 31, 257, masses=masses, offset=offset)
            outcomes.append(lanes_or_overflow(partial_lanes, *args))
            assert outcomes[-1] == lanes_or_overflow(numpy_partial_lanes, *args)
        assert outcomes[0] is None and outcomes[-1] is not None

    def test_a_tile_from_the_workload(self):
        s = plummer_model(256, seed=2003)
        emu = Grape6Emulator(1.0 / 4096.0, boards=2)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        gather, fmt = emu._gathered(), emu.formats
        idx = np.arange(31)
        args = (
            fmt.pos.quantize(s.pos[idx]), fmt.word.round(s.vel[idx]), gather.pos_q.T,
            gather.vel.T, gather.mass, gather.host_index,
            emu._initial_exponents(s.pos[idx], s.vel[idx], idx).stacked(), emu.eps2, fmt, idx,
        )
        got = lanes_or_overflow(partial_lanes, *args)
        assert got is not None and got == lanes_or_overflow(numpy_partial_lanes, *args)


@pytest.mark.parametrize("tile", [partial_lanes, numpy_partial_lanes])
@pytest.mark.parametrize("bad", ["dtype", "n_j", "n_i"])
def test_mismatched_arrays_are_refused(tile, bad):
    """The compiled tile reads through bare pointers, so a wrong type or
    count is refused before it - also exponents or host indices that the
    numpy tile would broadcast over the targets."""
    args = list(tile_arguments(1, 2, 10))
    if bad == "dtype":
        args[0] = args[0].astype(np.float64)
    elif bad == "n_j":
        args[4] = args[4][:9]
    else:
        args[6], args[9] = args[6][:, :1], args[9][:1]
    served_numpy = compiled.TIERS["pipeline_tile"][0] != "c"
    if bad == "n_i" and (tile is numpy_partial_lanes or served_numpy):
        tile(*args)
    else:
        with pytest.raises((ValueError, TypeError)):
            tile(*args)


# -- (d) the two crossings == the numpy composition ---------------------------


def far_cluster(n=300, seed=9):
    """A j-set clustered at the origin and targets 64 length units away,
    where every pair term of an output has one sign: their totals are
    ~n times a term, so a declared exponent can hold every term and not
    the total."""
    x, v, m = system(n, seed)
    targets = x[:5] + 64.0
    return x, v, m, targets, v[:5]


def session(monkeypatch, tier, calls, **emulator) -> list:
    """What an emulator served by ``tier`` answers to ``calls(emu)``, a
    list of calls, in order (forces' bytes, None, or the error's name),
    then its counters, exponent table and cycle counters."""
    said = []
    with monkeypatch.context() as patch:
        use_pipeline_tier(patch, tier)
        emu = Grape6Emulator(EPS2, boards=2, **emulator)
        for call in calls(emu):
            try:
                out = call()
            except (ValueError, ArithmeticError) as exc:
                said.append(type(exc).__name__)
                continue
            said.append(None if out is None else b"|".join(
                np.ascontiguousarray(a).tobytes() for a in (out.acc, out.jerk, out.pot)))
        st = emu.stats
        said += [(st.force_evaluations, st.interactions, st.exponent_retries, st.jmem_loads,
                  st.jmem_loads_elided), emu._exp.tobytes(), emu.jmem.cycles.tobytes()]
    return said


def uncached_rows(emu):
    x, v, m = system(40, 3)
    far = np.array([[3.0, -2.0, 1.0]])
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(x[:5], v[:5], np.arange(5)),
        lambda: emu.forces_on(x[:12], v[:12], np.arange(12)),  # 7 rows uncached
        lambda: emu.forces_on(x[:12], v[:12], np.arange(12)),  # none
        lambda: emu.forces_on(x[3:9], v[3:9]),  # no indices: never cached
        lambda: emu.forces_on(far, v[:1], np.array([1000])),  # beyond the table
    ]


def retries(emu):
    """guard -30 saturates the first guess; at guard -9 the far targets'
    totals overflow it while no term saturates."""
    x, v, m, xi, vi = far_cluster()
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(x[:20], v[:20], np.arange(20)),
        lambda: emu.forces_on(xi, vi),
    ]


def off_grid(emu):
    x, v, m = system(30, 4)
    calls = [lambda: emu.set_j_particles(x, v, m),
             lambda: emu.forces_on(x[:6], v[:6], np.arange(6))]
    for bad in (np.nan, np.inf, -np.inf, 2.0**23, -(2.0**23) - 1.0):
        xi = x[:6].copy()
        xi[4, 1] = bad
        calls.append(lambda xi=xi: emu.forces_on(xi, v[:6], np.arange(6)))
        calls.append(lambda xi=xi: emu.set_j_particles(np.concatenate([x, xi]),
                                                       np.concatenate([v, v[:6]]),
                                                       np.concatenate([m, m[:6]])))
    calls.append(lambda: emu.forces_on(x[:6], v[:6], np.arange(6)))  # the j-set unchanged
    return calls


def negative_index(emu):
    x, v, m = system(30, 5)
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(x[:6], v[:6], np.arange(6)),
        lambda: emu.forces_on(x[:6], v[:6], np.array([0, 1, 2, -3, 4, 5])),
        lambda: emu.forces_on(x[:1], v[:1] * np.nan, np.array([-1])),  # before anything
        lambda: emu.forces_on(x[:6], v[:6], np.arange(6)),
    ]


def no_targets(emu):
    x, v, m = system(30, 6)
    empty = np.zeros((0, 3))
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(empty, empty, np.zeros(0, dtype=np.int64)),
        lambda: emu.forces_on(empty, empty),
    ]


def reload_in_place(emu):
    """A direct bank load, then machine-wide reloads into the same
    buffers (same size, then fewer rows) and a larger one that grows
    them, each meeting a force call."""
    x, v, m = system(64, 7)
    idx = np.arange(10)
    chip = emu._all_chips[3]
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(x[idx], v[idx], idx),
        lambda: chip.load_j_particles(np.arange(100, 105), x[:5] + 0.25, v[:5], m[:5]),
        lambda: emu.forces_on(x[idx], v[idx], idx),
        lambda: emu.set_j_particles(x + 0.5, v, m),
        lambda: emu.forces_on(x[idx], v[idx], idx),
        lambda: emu.set_j_particles(x[:50], v[:50], m[:50]),
        lambda: emu.forces_on(x[idx], v[idx], idx),
        lambda: emu.forces_on(x[idx], v[idx], idx, t=0.0625),
        lambda: emu.set_j_particles(np.concatenate([x, x + 1.0]), np.concatenate([v, v]),
                                    np.concatenate([m, m])),
        lambda: emu.forces_on(x[idx], v[idx], idx),
    ]


def beyond_the_table(emu):
    """Force calls bound to the exponent table, then one on a host index
    beyond it, which grows the table - a new array, so the next call
    binds anew - then calls on the grown table."""
    x, v, m = system(40, 8)
    idx, beyond = np.arange(12), np.array([7, 300])
    return [
        lambda: emu.set_j_particles(x, v, m),
        lambda: emu.forces_on(x[idx], v[idx], idx),
        lambda: emu.forces_on(x[idx], v[idx], idx),  # from the table it is bound to
        lambda: emu.forces_on(x[3:5], v[3:5], beyond),  # 300: beyond the table
        lambda: emu.forces_on(x[3:5], v[3:5], beyond),  # from the grown table
        lambda: emu.forces_on(x[idx], v[idx], idx),
    ]


CASES = {
    "uncached rows": (uncached_rows, {}),
    "saturating guess": (retries, {"exponent_guard": -30}),
    "overflowing total": (retries, {"exponent_guard": -9}),
    "off the grid": (off_grid, {}),
    "negative index": (negative_index, {}),
    "no targets": (no_targets, {}),
    "reload in place": (reload_in_place, {}),
    "faithful reload in place": (reload_in_place, {"emulation_mode": "faithful"}),
    "beyond the table after binding": (beyond_the_table, {}),
}


@pytest.mark.parametrize("case", CASES)
def test_the_crossings_are_the_numpy_composition(monkeypatch, case):
    """The served tier's j-load and force call, through the whole
    emulator, answer as the numpy tier's do: the same forces bit for
    bit, the same errors at the same calls, the same counters,
    exponent table and cycles."""
    calls, emulator = CASES[case]
    got = session(monkeypatch, pipeline._tier, calls, **emulator)
    assert got == session(monkeypatch, NUMPY_PIPELINE, calls, **emulator)
    evaluations, _, retried, _, _ = got[-3]
    if case == "saturating guess":
        assert retried > 0
    if case == "overflowing total":
        # one overflowing attempt each, charged like one that fits
        assert retried == evaluations == 2
    if case == "off the grid":
        assert got[2:12] == ["NonFiniteValue"] * 6 + ["FixedPointOverflow"] * 4
        assert got[12] == got[1]
    if case == "negative index":
        assert got[2:4] == ["ValueError"] * 2 and got[4] == got[1]
    if case == "no targets":
        assert got[1] == got[2] == b"||"
    if case.endswith("reload in place"):
        assert all(isinstance(got[k], bytes) for k in (1, 3, 5, 7, 8, 10))
    if case == "beyond the table after binding":
        assert all(isinstance(got[k], bytes) for k in range(1, 6))
        table = np.frombuffer(got[-2], dtype=np.int64).reshape(3, -1)
        assert table.shape[1] == 301 and (table[:, 300] != UNCACHED).all()


@pytest.mark.parametrize("mode", ["batched", "faithful"])
def test_a_reload_in_place_is_a_fresh_load(mode):
    """Buffers rewritten in place, with fewer rows, and grown hold what a
    fresh machine's first load holds, also beside a bank loaded
    directly: each force call after a load gives a fresh emulator's bits
    (without host indices, so that both guess their exponents)."""
    x, v, m = system(64, 7)
    xi, vi = x[:10] + 0.125, v[:10]
    bank = (np.arange(100, 105), x[:5] + 0.25, v[:5], m[:5])
    loads = [((x, v, m), None), ((x, v, m), bank), ((x + 0.5, v, m), None),
             ((x[:50], v[:50], m[:50]), None), ((x, v, m), bank),
             ((np.concatenate([x, x + 1.0]), np.concatenate([v, v]), np.concatenate([m, m])),
              None)]
    emu = Grape6Emulator(EPS2, boards=2, emulation_mode=mode)
    for j_set, direct in loads:
        fresh = Grape6Emulator(EPS2, boards=2, emulation_mode=mode)
        for machine in (emu, fresh):
            machine.set_j_particles(*j_set)
            if direct is not None:
                machine._all_chips[3].load_j_particles(*direct)
        got, want = emu.forces_on(xi, vi), fresh.forces_on(xi, vi)
        for a, b in ((got.acc, want.acc), (got.jerk, want.jerk), (got.pot, want.pot)):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("tier", tiers("pipeline_tile", NUMPY_PIPELINE, pipeline._tier))
def test_an_overflowing_total_is_answered_apart_from_a_saturating_term(tier):
    """The force call answers each outcome of the tile for what it is,
    from a table it fills only when the sums fit: across declared
    exponents the far targets go from saturating terms, through totals
    that overflow, to sums that fit, and the tiers agree on every
    answer, exponent, force and table entry."""
    x, v, m, xi, vi = far_cluster()
    fmt = PipelineFormats.default()
    j_set = pipeline.JSet(np.empty((3, 300), np.int64), np.empty((3, 300)), np.empty(300),
                          np.empty(300, np.int64))
    tier.load_j_set(j_set, fmt, x, v, fmt.word.round(m))
    answers = []
    for offset in range(-40, 4):
        cache = np.full((3, 8), UNCACHED)
        exponents = np.full((7, 5), offset)
        answer, used, forces = tier.forces(j_set, xi, vi, np.arange(5), cache, exponents,
                                           EPS2, fmt)
        want = NUMPY_PIPELINE.forces(*(pipeline.JSet(*j_set.columns()), xi, vi,
                                       np.arange(5), np.full((3, 8), UNCACHED), exponents,
                                       EPS2, fmt))
        assert (answer, used.tobytes()) == (want[0], want[1].tobytes())
        assert pipeline._flat(forces) == pipeline._flat(want[2])
        assert (cache[:, :5] != UNCACHED).all() == (answer == TILE_FITS)
        answers.append(answer)
    assert answers[0] == TILE_SATURATES and answers[-1] == TILE_FITS
    assert TILE_OVERFLOWS in answers
    assert answers == sorted(answers, key=[TILE_SATURATES, TILE_OVERFLOWS, TILE_FITS].index)

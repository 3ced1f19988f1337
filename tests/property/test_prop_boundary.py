"""Property: the host-tile boundary, bound once and formatted in C.

The compiled tiles are called through a boundary that costs what the C
costs (:mod:`repro.core.hermite_tile`, :mod:`repro.hardware.pipeline`).
Pinned here, beside the tiles' own bit-identity files:

(a) the Hermite pair binds the arrays it points into once and keeps
    that binding only while it still holds: after a first successful
    call, a state array flipped to read-only or reshaped in place is
    refused with nothing written, and an equal copy swapped in is
    followed, nothing written to the array it replaced;
(b) the storage formats' twins (``pipeline.quantize``,
    ``pipeline.round_float``) equal the format classes' methods over
    drawn arrays - both zeros, subnormals, infinities, NaN, both range
    ends, both branches, mantissas of 1 to 53 bits: equal bits, or the
    same exception;
(c) ``pipeline.lanes_to_forces`` equals ``to_float_lanes`` (as
    ``numpy_lanes_to_forces``) on lanes at and around the -2^63 edge and
    both overflow sides, under exponents whose quantum underflows;
(d) one ``forces_on`` and one emulated blockstep cost a fixed number of
    Python calls on the compiled tiers, whatever the block size.  At the
    parent commit, before the boundary was bound: ``forces_on`` at
    n_i = 1 made 124 calls and ``step()`` 315 (Plummer N = 64, one
    board).

(a)-(c) run on whichever tiers the process resolved; CI runs this file
once more with no compiler on PATH, where the twins are the methods.
"""

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockTimestepIntegrator, ParticleSystem, hermite_tile
from repro.core.hermite_tile import NUMPY_TILE, STATE_SCALARS, STATE_VECTORS, state_bytes
from repro.hardware import Grape6Emulator, pipeline
from repro.hardware.fixedpoint import FixedPointFormat
from repro.hardware.floatformat import FloatFormat
from repro.models import plummer_model

pytestmark = pytest.mark.tiers

SERVING = hermite_tile.HermiteTile(hermite_tile.predict_hermite, hermite_tile.advance_block)
TIERS = [pytest.param(NUMPY_TILE, id="numpy")] + (
    [pytest.param(SERVING, id="c")] if hermite_tile.HERMITE_TIER == "c" else []
)
STATE = STATE_VECTORS + STATE_SCALARS


# -- (a) a bound context under mutation ----------------------------------------


class TwoBlocks:
    """A system with two disjoint blocks due at t = 1, the predictions
    buffers an integrator keeps, and the force on each block."""

    N = 16
    FIRST, SECOND = np.arange(0, 16, 2), np.arange(1, 16, 2)

    def __init__(self, seed=3):
        rng = np.random.default_rng(seed)
        n = self.N
        s = ParticleSystem(rng.uniform(0.1, 1, n), rng.normal(size=(n, 3)),
                           rng.normal(size=(n, 3)))
        s.acc[...], s.jerk[...] = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        s.t[...], s.dt[...] = 1.0 - 2.0**-4, 2.0**-4
        self.system, self.xp, self.vp = s, np.empty((n, 3)), np.empty((n, 3))
        self.force = {
            id(block): (s.acc[block] + 1e-3 * rng.normal(size=(block.size, 3)),
                        s.jerk[block] + 1e-2 * rng.normal(size=(block.size, 3)),
                        -rng.uniform(1, 2, block.size))
            for block in (self.FIRST, self.SECOND)
        }

    def predict(self, tile):
        s = self.system
        tile.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk, self.xp, self.vp)

    def correct(self, tile, block):
        acc1, jerk1, pot1 = self.force[id(block)]
        return tile.advance(self.system, block, 1.0, self.xp, self.vp, acc1, jerk1, pot1,
                            0.02, 0.125, 2.0**-40)

    def advance(self, tile, block):
        self.predict(tile)
        return self.correct(tile, block)

    def written(self) -> bytes:
        return state_bytes(self.system, self.xp, self.vp)


@pytest.mark.parametrize("tile", TIERS)
class TestABoundContextUnderMutation:
    @pytest.mark.parametrize("name", STATE)
    def test_a_state_array_flipped_read_only_is_refused(self, tile, name):
        case = TwoBlocks()
        case.advance(tile, case.FIRST)
        case.predict(tile)
        getattr(case.system, name).flags.writeable = False
        before = case.written()
        with pytest.raises(ValueError, match="writeable"):
            case.correct(tile, case.SECOND)
        assert case.written() == before

    @pytest.mark.parametrize("name", STATE + ("xp", "vp"))
    def test_an_array_reshaped_in_place_is_refused(self, tile, name):
        case = TwoBlocks()
        case.advance(tile, case.FIRST)
        case.predict(tile)
        a = getattr(case if name in ("xp", "vp") else case.system, name)
        before = case.written()
        a.shape = (3, -1) if a.ndim == 2 else (2, -1)
        with pytest.raises(ValueError):
            case.correct(tile, case.SECOND)
        assert case.written() == before

    @pytest.mark.parametrize("name", STATE)
    def test_an_equal_copy_swapped_in_is_followed(self, tile, name):
        case, reference = TwoBlocks(), TwoBlocks()
        case.advance(tile, case.FIRST)
        reference.advance(NUMPY_TILE, reference.FIRST)
        old = getattr(case.system, name)
        setattr(case.system, name, old.copy())
        kept = old.copy()
        dt_new = case.advance(tile, case.SECOND)
        want = reference.advance(NUMPY_TILE, reference.SECOND)
        assert case.written() + dt_new.tobytes() == reference.written() + want.tobytes()
        assert old.tobytes() == kept.tobytes()  # nothing wrote to the array it replaced

    def test_a_predictions_buffer_flipped_read_only_is_refused(self, tile):
        """As numpy refuses it: the out buffer of the predictor."""
        case = TwoBlocks()
        case.advance(tile, case.FIRST)
        case.xp.flags.writeable = False
        before = case.written()
        s = case.system
        with pytest.raises(ValueError, match="read-only"):
            tile.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk, case.xp, case.vp)
        assert case.written() == before


# -- (b) the storage formats' twins --------------------------------------------


def answer(fn, *args):
    """Bytes of what ``fn`` returns, or the type of what it raises."""
    try:
        with np.errstate(all="ignore"):  # numpy warns where it overflows to inf
            return fn(*args).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 0.75 * 2.0**-1022, 1.0, -0.5,
    0.5 * 2.0**-40, 1.5 * 2.0**-40, -2.5 * 2.0**-40, 2.0**23, -(2.0**23),
    np.nextafter(2.0**23, 0.0), np.nextafter(-(2.0**23), -np.inf), 2.0**15, -(2.0**15),
    2.0**15 - 2.0**-17, 1e10, -1e10, np.finfo(float).max, np.inf, -np.inf, np.nan,
]
VALUES = st.sampled_from(EDGES) | st.floats(width=64) | st.floats(-(2.0**24), 2.0**24)


@st.composite
def fixed_formats(draw):
    total = draw(st.sampled_from([64, 32]) | st.integers(1, 64))
    return FixedPointFormat(total, draw(st.sampled_from([40, 16, 0]).filter(
        lambda f: f < total) | st.integers(0, total - 1)))


@settings(max_examples=300, deadline=None)
@given(fmt=fixed_formats(), values=st.lists(VALUES, max_size=24), saturate=st.booleans())
def test_quantize_twin_is_the_method(fmt, values, saturate):
    x = np.array(values, dtype=np.float64)
    want = answer(fmt.quantize, x, saturate)
    assert answer(pipeline.quantize, fmt, x, saturate) == want
    for value in values[:4]:  # alone, where a neighbour out of range refuses the array
        one = np.array([value])
        assert answer(pipeline.quantize, fmt, one, saturate) == answer(
            fmt.quantize, one, saturate)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.sampled_from([1, 24, 32, 52, 53]) | st.integers(1, 53),
    values=st.lists(VALUES, max_size=24),
)
def test_round_twin_is_the_method(bits, values):
    fmt, x = FloatFormat(bits), np.array(values, dtype=np.float64)
    assert answer(pipeline.round_float, fmt, x) == answer(fmt.round, x)


def test_twins_keep_the_shape_of_what_they_are_given():
    pos, word = FixedPointFormat(64, 40), FloatFormat(32)
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 4, 3)
    for got, want in ((pipeline.quantize(pos, x), pos.quantize(x)),
                      (pipeline.round_float(word, x), word.round(x)),
                      (pipeline.quantize(pos, x[..., ::2]), pos.quantize(x[..., ::2])),
                      (pipeline.round_float(word, 2.5), word.round(2.5))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# -- (c) carry-save lanes to forces ---------------------------------------------

HALF = 2**31
HI = st.sampled_from([-HALF - 1, -HALF, -HALF + 1, HALF - 2, HALF - 1, HALF, 0, -1]) | st.integers(
    -(2**63), 2**63 - 1) | st.integers(-HALF - 2, HALF + 1)
LO = st.sampled_from([0, 1, 2**32 - 1, 2**32, -1, -(2**32), -(2**63), 2**63 - 1]) | st.integers(
    -(2**63), 2**63 - 1)
EXPONENT = st.integers(-1200, -1000) | st.integers(-60, 60) | st.integers(990, 1200)


@settings(max_examples=300, deadline=None)
@given(n_i=st.integers(0, 5), data=st.data())
def test_lanes_to_forces_is_to_float_lanes(n_i, data):
    def draw(values):
        return np.array(data.draw(st.lists(values, min_size=7 * n_i, max_size=7 * n_i)),
                        dtype=np.int64).reshape(7, n_i)

    hi, lo, exponents = draw(HI), draw(LO), draw(EXPONENT)
    want = answer(lambda *a: np.concatenate(
        [f.ravel() for f in pipeline.numpy_lanes_to_forces(*a)]), hi, lo, exponents)
    got = answer(lambda *a: np.concatenate(
        [f.ravel() for f in pipeline.lanes_to_forces(*a)]), hi, lo, exponents)
    assert got == want


@pytest.mark.parametrize("hi, lo, fits", [
    (-HALF, 0, False),  # -2^63 exactly: the register holds it, the hardware flags it
    (-HALF, 1, True), (-HALF - 1, 2**32 - 1, False), (HALF - 1, 2**32 - 1, True),
    (HALF, 0, False), (HALF - 1, 2**32, False), (0, -(2**63), False), (-1, 2**63 - 1, True),
])
def test_the_register_edges(hi, lo, fits):
    lanes = np.full((7, 2), 3, dtype=np.int64), np.full((7, 2), 5, dtype=np.int64)
    lanes[0][4, 1], lanes[1][4, 1] = hi, lo
    exponents = np.full((7, 2), -1070)  # the quantum 2^-1125 underflows to 0
    exponents[4] = 12
    for convert in (pipeline.numpy_lanes_to_forces, pipeline.lanes_to_forces):
        if fits:
            acc, jerk, pot = convert(*lanes, exponents)
            assert jerk[1, 1] == float((hi * 2**32 + lo)) * 2.0**-43
            assert not acc.any() and not pot.any()
        else:
            with pytest.raises(ArithmeticError, match="overflows"):
                convert(*lanes, exponents)


# -- (d) a fixed number of Python calls ----------------------------------------

needs_compiled_tiers = pytest.mark.skipif(
    hermite_tile.HERMITE_TIER != "c" or pipeline.PIPELINE_TIER != "c",
    reason="the pins count the compiled tiers' boundary",
)


def calls(fn) -> int:
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


def emulated_run():
    s = plummer_model(64, seed=2003)
    integ = BlockTimestepIntegrator(s, 1.0 / 4096.0, backend=Grape6Emulator(1.0 / 4096.0))
    integ.run(1.0 / 16.0)  # every particle's exponents cached
    return s, integ


@needs_compiled_tiers
def test_a_force_call_makes_a_fixed_number_of_python_calls():
    s, integ = emulated_run()
    emu, counts = integ.backend, []
    for n_i in (1, 31):
        idx = np.arange(n_i)
        emu.forces_on(s.pos[idx], s.vel[idx], idx)
        counts.append(calls(lambda: emu.forces_on(s.pos[idx], s.vel[idx], idx)))
    assert counts[0] == counts[1] <= 90  # 124 at the parent commit


@needs_compiled_tiers
def test_an_emulated_blockstep_makes_a_fixed_number_of_python_calls():
    _, integ = emulated_run()
    counts = {}
    while len(counts) < 3:
        _, block = integ.scheduler.next_block()
        counts[block.size] = calls(integ.step)
    assert len(set(counts.values())) == 1, counts
    assert counts.popitem()[1] <= 245  # 315 at the parent commit

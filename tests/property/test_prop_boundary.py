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
    Python calls on the compiled tiers, whatever the block size, counted
    in ``repro``'s own frames (Plummer N = 64, one board): 22 and 69
    before a call's i-side buffers were bound with its tile, 15 and 55
    since; and after the first, an emulated blockstep addresses no array
    and builds no ``ctypes.Structure``.  A fresh emulator's first j-load
    and first force call build one struct each; a direct blockstep, on
    the backend's resident j-set, makes a fixed number of calls too (N =
    1024).

(e) the pipeline's force call keeps its binding to the exponent table
    only while it holds: a table swapped for a copy is followed and the
    old one left alone, one flipped to read-only or reshaped in place is
    refused with nothing written, and more targets than the bound rows
    bind deeper buffers - all as the numpy tier answers;
(f) what a call hands back is the caller's: a later call on other
    targets rewrites no held ``forces_on`` result and no held
    ``advance_block`` step.

(a)-(c), (e) and (f) run on whichever tiers the process resolved; CI
runs this file once more with no compiler on PATH, where the twins are
the methods.
"""

import cProfile
import ctypes
import gc
import pstats
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import BlockTimestepIntegrator, ParticleSystem, hermite_tile
from repro.core.hermite_tile import NUMPY_TILE, STATE_SCALARS, STATE_VECTORS, state_bytes
from repro.forces import compiled, kernels
from repro.hardware import Grape6Emulator, pipeline
from repro.hardware.fixedpoint import FixedPointFormat
from repro.hardware.floatformat import FloatFormat
from repro.hardware.pipeline import NUMPY_PIPELINE, TILE_FITS, UNCACHED, PipelineFormats
from repro.models import plummer_model
from repro.parallel import CopyAlgorithm, ParallelBlockIntegrator, SimNetwork
from tests.conftest import needs_compiled, tiers, use_pipeline_tier

pytestmark = pytest.mark.tiers

SERVING = hermite_tile.HermiteTile(
    hermite_tile.predict_hermite, hermite_tile.advance_block, hermite_tile.predict_j_set)
TIERS = tiers("hermite_tile", NUMPY_TILE, SERVING)
PIPELINE_TIERS = tiers("pipeline_tile", NUMPY_PIPELINE, pipeline._tier)
STATE = STATE_VECTORS + STATE_SCALARS
EPS2 = (1.0 / 64.0) ** 2


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

REPRO = str(Path(repro.__file__).parent)


def calls(fn) -> int:
    """Calls of functions under ``src/repro`` while ``fn`` runs: the
    interpreter's and the standard library's own calls differ between
    Python versions, and a garbage collection would run some other
    test's finalizers inside the count, so none runs during it."""
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        fn()
        profile.disable()
    finally:
        gc.enable()
    return sum(nc for (file, _, _), (_, nc, *_) in pstats.Stats(profile).stats.items()
               if file.startswith(REPRO))


def emulated_run():
    s = plummer_model(64, seed=2003)
    integ = BlockTimestepIntegrator(s, 1.0 / 4096.0, backend=Grape6Emulator(1.0 / 4096.0))
    integ.run(1.0 / 16.0)  # every particle's exponents cached
    return s, integ


@needs_compiled("hermite_tile", "pipeline_tile")
def test_a_force_call_makes_a_fixed_number_of_python_calls():
    s, integ = emulated_run()
    emu, counts = integ.backend, []
    for n_i in (1, 31):
        idx = np.arange(n_i)
        emu.forces_on(s.pos[idx], s.vel[idx], idx)
        counts.append(calls(lambda: emu.forces_on(s.pos[idx], s.vel[idx], idx)))
    assert counts[0] == counts[1] <= 15  # 22 before the i-side was bound


@needs_compiled("hermite_tile", "pipeline_tile")
def test_an_emulated_blockstep_makes_a_fixed_number_of_python_calls():
    _, integ = emulated_run()
    counts = {}
    while len(counts) < 3:
        _, block = integ.scheduler.next_block()
        counts[block.size] = calls(integ.step)
    assert len(set(counts.values())) == 1, counts
    assert counts.popitem()[1] <= 55  # 69 before the i-side was bound


def counting(struct, made: list):
    """``struct`` that notes its name in ``made`` whenever one is built."""

    class Counted(struct):
        def __init__(self, *args):
            made.append(struct.__name__)
            super().__init__(*args)

    return Counted


@needs_compiled("hermite_tile", "pipeline_tile")
def test_a_bound_blockstep_addresses_nothing_and_builds_no_struct(monkeypatch):
    """After its first, an emulated blockstep of the ``serial_grape``
    shape (Plummer N = 256, two boards) takes no array's address and
    builds no ``ctypes.Structure``: both names are wrapped in each
    binder module's own namespace (a binder imports ``address`` by
    name).  A state array swapped in then shows that the wrappers
    count."""
    s = plummer_model(256, seed=2003)
    integ = BlockTimestepIntegrator(s, EPS2, backend=Grape6Emulator(EPS2, boards=2))
    integ.step()
    made = []
    for module in (compiled, pipeline, hermite_tile):
        if hasattr(module, "address"):
            monkeypatch.setattr(module, "address", lambda a, address=module.address: (
                made.append("address"), address(a))[1])
        for name, value in list(vars(module).items()):
            if isinstance(value, type) and issubclass(value, ctypes.Structure):
                monkeypatch.setattr(module, name, counting(value, made))
    for _ in range(8):
        integ.step()
    assert made == [] and integ.backend.stats.jmem_loads_elided == 0
    s.pos = s.pos.copy()
    integ.step()
    assert made.count("_Predicted") == made.count("_BlockState") == 1 and "address" in made


def count_structs(monkeypatch, made: list) -> None:
    """Note in ``made`` every ``ctypes.Structure`` a binder module builds."""
    for module in (compiled, pipeline, hermite_tile, kernels):
        for name, value in list(vars(module).items()):
            if isinstance(value, type) and issubclass(value, ctypes.Structure):
                monkeypatch.setattr(module, name, counting(value, made))


@needs_compiled("pipeline_tile")
def test_a_fresh_emulator_binds_its_load_and_its_force_call_once(monkeypatch):
    """A fresh emulator's first j-load builds one ``struct j_set`` (its
    staging rows and formats with it) and its first force call one
    ``struct force_call``: the call that finds the exponent table empty
    and the one on the grown table share it.  Two each before."""
    library, _ = compiled.load_library("pipeline_tile")
    use_pipeline_tier(monkeypatch, pipeline._bind(library))  # no call bound before
    s = plummer_model(256, seed=2003)
    emu = Grape6Emulator(EPS2, boards=2)
    made, idx = [], np.arange(0, 256, 8)
    count_structs(monkeypatch, made)
    emu.set_j_particles(s.pos, s.vel, s.mass)
    assert made == ["_JSetStruct"]
    made.clear()
    emu.forces_on(s.pos[idx], s.vel[idx], idx)
    assert made == ["_ForceCallStruct"] and emu.exp_cache_entries == idx.size


@needs_compiled("pairwise_tile", "hermite_tile")
def test_a_direct_blockstep_makes_a_fixed_number_of_python_calls():
    """The ``serial_direct`` shape (Plummer N = 1024): the backend
    predicts its resident j-set and the block's rows, and the force call
    runs on it; 35 calls a blockstep when the host predicted all N and
    uploaded them."""
    s = plummer_model(1024, seed=2003)
    integ = BlockTimestepIntegrator(s, (1.0 / 1024.0) ** 2)
    integ.run(1.0 / 256.0)
    counts = {}
    while len(counts) < 3:
        _, block = integ.scheduler.next_block()
        counts[block.size] = calls(integ.step)
    assert len(set(counts.values())) == 1, counts
    assert counts.popitem()[1] <= 33


@needs_compiled("pairwise_tile", "hermite_tile")
def test_a_copy_blockstep_makes_a_fixed_number_of_python_calls():
    """The ``cluster_latency`` shape (Plummer N = 128 on 16 simulated
    hosts, inline, unobserved), at blocksteps of block sizes seen before
    and with the ledger's round log folded first, so that no fold lands
    in a count: the algorithm predicts its resident j-set and the
    block's rows, and its shares are the set's force call; 88 calls a
    blockstep, 97 (at block sizes 2, 4 and 14) when the host predicted
    all N and uploaded them."""
    s = plummer_model(128, seed=2003)
    integ = ParallelBlockIntegrator(s, EPS2, CopyAlgorithm(SimNetwork(16), EPS2))
    integ.run(1.0 / 16.0)
    seen, counts = set(integ.stats.block_sizes), {}
    while len(counts) < 3:
        _, block = integ.scheduler.next_block()
        if block.size in seen:
            integ.algorithm.network.ledger.summary()  # folds the round log
            counts[block.size] = calls(integ.step)
        else:
            seen.add(block.size)
            integ.step()
    assert len(set(counts.values())) == 1, counts
    assert counts.popitem()[1] <= 88


# -- (e) a bound force call under mutation ---------------------------------------


class BoundTable:
    """A loaded j-set and a force call on nine of its particles under
    declared exponents, which fills the exponent table and binds the
    call to it."""

    def __init__(self, tier):
        s = plummer_model(64, seed=11)
        self.tier, self.fmt, self.s = tier, PipelineFormats.default(), s
        self.j_set = pipeline.JSet(np.empty((3, 64), np.int64), np.empty((3, 64)),
                                   np.empty(64), np.empty(64, np.int64))
        tier.load_j_set(self.j_set, self.fmt, s.pos, s.vel, self.fmt.word.round(s.mass))
        self.table = np.full((3, 64), UNCACHED)
        assert self.call(self.table, np.arange(9), 12)[0] == TILE_FITS

    def call(self, table, idx, exponent=None):
        """The answer, declared exponents and forces as bytes."""
        declared = None if exponent is None else np.full((7, len(idx)), exponent)
        answer = self.tier.forces(self.j_set, self.s.pos[idx], self.s.vel[idx], idx, table,
                                  declared, EPS2, self.fmt)
        return answer[0], pipeline._flat(answer[1:])


@pytest.mark.parametrize("tier", PIPELINE_TIERS)
class TestABoundForceCallUnderMutation:
    def test_a_table_swapped_for_a_copy_is_followed(self, tier):
        case, reference = BoundTable(tier), BoundTable(NUMPY_PIPELINE)
        old = case.table
        kept = old.copy()
        case.table, reference.table = old.copy(), reference.table.copy()
        for idx, exponent in ((np.arange(9), 14), (np.arange(9), None)):
            got = case.call(case.table, idx, exponent)
            assert got == reference.call(reference.table, idx, exponent)
        assert case.table.tobytes() == reference.table.tobytes() != kept.tobytes()
        assert old.tobytes() == kept.tobytes()  # nothing wrote to the table it replaced

    def test_a_table_flipped_read_only_is_refused(self, tier):
        case = BoundTable(tier)
        case.table.flags.writeable = False
        kept = case.table.tobytes()
        with pytest.raises(ValueError, match="writable"):
            case.call(case.table, np.arange(9), 14)
        assert case.table.tobytes() == kept

    def test_a_table_reshaped_in_place_is_refused(self, tier):
        case = BoundTable(tier)
        kept = case.table.tobytes()
        case.table.shape = (64, 3)
        with pytest.raises(ValueError):
            case.call(case.table, np.arange(9), 14)
        assert case.table.tobytes() == kept

    def test_more_targets_than_rows_bind_deeper_buffers(self, tier):
        case, reference = BoundTable(tier), BoundTable(NUMPY_PIPELINE)
        for idx in (np.arange(64), np.arange(3)):
            for exponent in (13, None):
                got = case.call(case.table, idx, exponent)
                assert got == reference.call(reference.table, idx, exponent)
        assert case.table.tobytes() == reference.table.tobytes()


# -- (f) what a call hands back is the caller's ----------------------------------


@pytest.mark.parametrize("tier", PIPELINE_TIERS)
def test_a_held_force_result_is_not_rewritten(monkeypatch, tier):
    use_pipeline_tier(monkeypatch, tier)
    s = plummer_model(256, seed=2003)
    emu = Grape6Emulator(EPS2, boards=2)
    emu.set_j_particles(s.pos, s.vel, s.mass)
    emu.forces_on(s.pos, s.vel, np.arange(256))  # every exponent cached: one binding serves
    first, other = np.arange(0, 256, 8), np.arange(3, 256, 8)
    held = emu.forces_on(s.pos[first], s.vel[first], first)
    kept = [a.tobytes() for a in (held.acc, held.jerk, held.pot)]
    again = emu.forces_on(s.pos[other], s.vel[other], other)
    assert [a.tobytes() for a in (held.acc, held.jerk, held.pot)] == kept
    assert again.acc.tobytes() != kept[0] and not np.shares_memory(held.acc, again.acc)


@pytest.mark.parametrize("tile", TIERS)
def test_a_held_dt_new_is_not_rewritten(tile):
    case = TwoBlocks()
    case.force[id(case.SECOND)][1][...] *= 1e3  # other steps for the second block
    held = case.advance(tile, case.FIRST)
    kept = held.tobytes()
    again = case.advance(tile, case.SECOND)
    assert held.tobytes() == kept
    assert again.tobytes() != kept and not np.shares_memory(held, again)

"""Property: the Hermite tile is the numpy blockstep, bit for bit.

The host's share of a blockstep is two calls into
:mod:`repro.core.hermite_tile` - ``predict_hermite`` and
``advance_block`` - each served by ``hermite_tile.c`` or by the numpy
code it must equal.  Pinned here (the digest of a whole run recorded
before the tile existed, "the same bits as before", is a golden cell of
``test_prop_invariants.py``, which CI runs once more with no compiler on
PATH):

(b) the compiled tier against the numpy tier on the bytes of all nine
    state arrays plus the new steps: block sizes around the reduce's
    unroll, steps 2^-3 .. 2^-40 inside one block, a doubling granted
    and refused, both clamps, the ``tiny`` floor, criteria one ulp
    either side of a power of two;
(c) refusals - a step that is not a positive power of two, a non-finite
    force, a block index outside the system, arrays the tile could not
    point into or may not write - raise the same error on both tiers
    and leave the system untouched;
(d) ``predict_hermite`` with and without ``out`` buffers, for inputs
    only numpy can walk and for buffers nobody may write.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockTimestepIntegrator, ParticleSystem, hermite_tile
from repro.core.hermite_tile import NUMPY_TILE, STATE_SCALARS, STATE_VECTORS, state_bytes
from repro.core.timestep import NonFiniteForce, aarseth_dt
from repro.forces import DirectSummation, compiled
from repro.hardware import Grape6Emulator
from repro.models import plummer_model
from tests.conftest import needs_compiled, tiers

pytestmark = pytest.mark.tiers

EPS2 = (1.0 / 64.0) ** 2
STATE = STATE_VECTORS + STATE_SCALARS
SERVING = hermite_tile.HermiteTile(hermite_tile.predict_hermite, hermite_tile.advance_block)

#: the tier(s) a refusal is asked of: the numpy one, and the process's if
#: that is another
TIERS = tiers("hermite_tile", NUMPY_TILE, SERVING)


# -- (b) compiled tier == numpy tier ------------------------------------------


class Case:
    """A system with a block due at ``t_block`` and the force on it.

    ``exponents`` are the block particles' steps, ``2**-e``; ``change``
    scales the part of the new force the predictor did not foresee, per
    block particle: small makes the criterion ask for a long step, large
    for a short one."""

    def __init__(self, seed, n, block, exponents, t_block=1.0, change=1.0):
        rng = np.random.default_rng(seed)
        s = ParticleSystem(rng.uniform(0.1, 1, n), rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        for name in ("acc", "jerk", "snap", "crackle"):
            getattr(s, name)[...] = rng.normal(size=(n, 3))
        s.pot[...] = -rng.uniform(1, 2, n)
        s.dt[...] = 2.0**-3
        s.t[...] = t_block - rng.choice([0.0, 2.0**-4, 2.0**-9], n)  # others mid-step
        self.block = np.asarray(block, dtype=np.int64)
        h = 2.0 ** -np.resize(np.asarray(exponents, dtype=np.float64), self.block.size)
        s.t[self.block], s.dt[self.block] = t_block - h, h
        change = np.resize(np.asarray(change, dtype=np.float64), self.block.size)[:, None]
        n_b, col = self.block.size, h[:, None]
        self.jerk1 = s.jerk[self.block] + col * change * rng.normal(size=(n_b, 3))
        self.acc1 = (
            s.acc[self.block] + col * s.jerk[self.block]
            + col**2 * change * rng.normal(size=(n_b, 3))
        )
        self.pot1 = -rng.uniform(1, 2, n_b)
        self.system, self.t_block, self.h = s, t_block, h

    def advance(self, tile, eta=0.02, dt_max=0.125, dt_min=2.0**-40):
        """``(bytes of everything the tile wrote, dt_new)`` on a copy."""
        s = self.system.copy()
        xp, vp = tile.predict(self.t_block, s.t, s.pos, s.vel, s.acc, s.jerk)
        dt_new = tile.advance(
            s, self.block, self.t_block, xp, vp, self.acc1.copy(), self.jerk1.copy(),
            self.pot1.copy(), eta, dt_max, dt_min,
        )
        assert np.array_equal(s.dt[self.block], dt_new) and np.all(s.t[self.block] == self.t_block)
        return state_bytes(s, xp, vp, dt_new), dt_new


MIXED = (3, 40, 5, 17, 3, 9, 4, 28, 11, 33, 6)  # 2^-3 .. 2^-40 inside one block
WIDE = 10.0 ** np.arange(-4, 5)  # the criterion from far above the step to far below


def agree(case, **bounds):
    got, dt_c = case.advance(SERVING, **bounds)
    want, dt_np = case.advance(NUMPY_TILE, **bounds)
    assert got == want
    return dt_np


@needs_compiled("hermite_tile")
class TestCompiledTierIsTheNumpyTier:
    @pytest.mark.parametrize("n_b", [1, 2, 7, 8, 9, 48, 64])
    def test_block_sizes_with_mixed_steps(self, n_b):
        block = np.sort(np.random.default_rng(n_b).permutation(64)[:n_b])
        dt_new = agree(Case(n_b, 64, block, MIXED, change=WIDE))
        assert np.all(np.log2(dt_new) == np.round(np.log2(dt_new)))

    def test_doubling_is_granted_on_a_commensurable_time(self):
        # t = 1 is a multiple of every step: all quiet particles double
        case = Case(1, 16, np.arange(8), [4, 5, 9, 20], t_block=1.0, change=1e-6)
        assert np.array_equal(agree(case), 2.0 * case.h)

    def test_doubling_is_refused_on_an_odd_multiple(self):
        # t = 3/16: of the steps 2^-4 .. 2^-20 only 2^-4 may not double
        case = Case(2, 16, np.arange(8), [4, 5, 9, 20], t_block=0.1875, change=1e-6)
        dt_new = agree(case)
        assert np.array_equal(dt_new, np.where(case.h == 2.0**-4, case.h, 2.0 * case.h))

    def test_both_clamps(self):
        quiet = Case(3, 16, np.arange(6), [5], change=1e-9)
        assert np.all(agree(quiet, dt_max=2.0**-5) == 2.0**-5)  # wants 2^-4, may not
        violent = Case(4, 16, np.arange(6), [5], change=1e9)
        assert np.all(agree(violent, dt_min=2.0**-7) == 2.0**-7)
        assert np.all(agree(violent) < 2.0**-7)

    def test_the_tiny_floor(self):
        """A constant force: snap and crackle vanish, the criterion is
        sqrt(eta tiny / tiny)."""
        case = Case(5, 12, np.arange(5), [4])
        case.system.jerk[case.block] = case.jerk1[...] = 0.0
        case.acc1[...] = case.system.acc[case.block]
        assert np.all(agree(case) == 0.125)  # floor(sqrt(0.02)), one doubling
        case.system.acc[case.block] = case.acc1[...] = 0.0  # and no force at all
        assert np.all(agree(case) == 0.125)

    def test_criteria_an_ulp_from_a_power_of_two(self):
        """The floor shows the criterion's last bit only there: per
        particle, the eta that puts it on 2^-6, and its neighbours."""
        flips = 0
        for seed in range(60):
            case = Case(seed, 8, [3], [5], change=0.3)
            s = case.system.copy()
            xp, vp = NUMPY_TILE.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)
            NUMPY_TILE.advance(s, case.block, 1.0, xp, vp, case.acc1, case.jerk1, case.pot1,
                               0.02, 0.125, 2.0**-40)
            ideal = aarseth_dt(case.acc1, case.jerk1, s.snap[case.block],
                               s.crackle[case.block], 1.0)[0]
            eta = (2.0**-6 / ideal) ** 2
            steps = {
                float(agree(case, eta=e)[0])
                for e in (np.nextafter(eta, 0), eta, np.nextafter(eta, 1), eta * (1 + 1e-15))
            }
            assert steps <= {2.0**-7, 2.0**-6}
            flips += len(steps) == 2
        assert flips > 20  # the boundary was really straddled

    def test_duplicate_block_indices_scatter_like_numpy(self):
        agree(Case(7, 12, [1, 4, 4, 9], [4, 5, 5, 6]))

    def test_an_empty_block(self):
        case = Case(8, 12, [], [4])
        assert agree(case).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 70),
        data=st.data(),
    )
    def test_drawn_blocks(self, seed, n, data):
        n_b = data.draw(st.integers(1, n))
        block = np.sort(np.random.default_rng(seed).permutation(n)[:n_b])
        exponents = data.draw(st.lists(st.integers(3, 40), min_size=1, max_size=n_b))
        change = data.draw(st.lists(st.sampled_from(list(WIDE)), min_size=1, max_size=n_b))
        t_block = data.draw(st.sampled_from([1.0, 0.375, 5.0 + 2.0**-3, 2.0**-3]))
        agree(Case(seed, n, block, exponents, t_block, change), eta=data.draw(
            st.sampled_from([0.02, 0.01, 0.3])))


# -- (c) refusals -------------------------------------------------------------


def refused(tile, case, error, system=None, **replaced):
    """``tile.advance`` raises ``error`` and writes nothing."""
    s = system if system is not None else case.system.copy()
    before = state_bytes(s)
    good = case.system
    xp, vp = NUMPY_TILE.predict(case.t_block, good.t, good.pos, good.vel, good.acc, good.jerk)
    args = dict(block=case.block, xp=xp, vp=vp, acc1=case.acc1.copy(),
                jerk1=case.jerk1.copy(), pot1=case.pot1.copy())
    args.update(replaced)
    with pytest.raises(error) as raised:
        tile.advance(s, args["block"], case.t_block, args["xp"], args["vp"], args["acc1"],
                     args["jerk1"], args["pot1"], 0.02, 0.125, 2.0**-40, blockstep=7)
    assert state_bytes(s) == before
    return raised.value


def strided(a):
    wide = np.zeros((2 * a.shape[0],) + a.shape[1:], dtype=a.dtype)
    wide[::2] = a
    return wide[::2]


@pytest.mark.parametrize("tile", TIERS)
class TestRefusalsLeaveTheSystemUntouched:
    def case(self):
        return Case(11, 20, [2, 5, 11, 17], [4, 6, 9, 30])

    def test_non_positive_step(self, tile):
        case = self.case()
        case.system.t[5] = case.t_block  # h = 0
        refused(tile, case, ValueError)
        case.system.t[5] = case.t_block + 2.0**-5
        refused(tile, case, ValueError)

    def test_a_step_that_is_no_power_of_two(self, tile):
        """No caller makes one (startup is at t = 0 and every new step
        is a floor to a power of two); the tile's h^3 .. h^5 are exact
        for nothing else."""
        for h in (2.0**-4 + 2.0**-7, 3 * 2.0**-6, np.nan, np.inf):
            case = self.case()
            case.system.t[11] = case.t_block - h
            exc = refused(tile, case, ValueError)
            assert "powers of two" in str(exc)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # numpy on inf - inf
    @pytest.mark.parametrize("what", ["acc1", "jerk1", "pot1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_force(self, tile, what, value):
        case = self.case()
        poisoned = getattr(case, what).copy()
        poisoned[2, ...] = value
        exc = refused(tile, case, NonFiniteForce, **{what: poisoned})
        assert exc.particle == 11 and exc.blockstep == 7
        assert "particle 11" in str(exc) and "blockstep 7" in str(exc)

    def test_non_finite_stored_force(self, tile):
        case = self.case()
        case.system.jerk[17, 1] = np.nan
        assert refused(tile, case, NonFiniteForce).particle == 17

    def test_the_first_bad_particle_is_named(self, tile):
        case = self.case()
        case.acc1[1:, 0] = np.nan
        assert refused(tile, case, NonFiniteForce).particle == 5

    @pytest.mark.parametrize("bad", [[2, 5, 11, 20], [2, -1, 11, 17]])
    def test_block_index_outside_the_system(self, tile, bad):
        refused(tile, self.case(), IndexError, block=np.array(bad))

    def test_block_that_is_not_contiguous_int64(self, tile):
        case = self.case()
        for block in (case.block.astype(np.int32), case.block.astype(np.float64),
                      strided(case.block), case.block.reshape(2, 2), list(case.block)):
            refused(tile, case, ValueError, block=block)

    @pytest.mark.parametrize("what", ["xp", "vp", "acc1", "jerk1", "pot1"])
    def test_arguments_it_cannot_point_into(self, tile, what):
        case = self.case()
        xp, _ = NUMPY_TILE.predict(1.0, *(getattr(case.system, n) for n in
                                          ("t", "pos", "vel", "acc", "jerk")))
        good = {"xp": xp, "vp": xp}.get(what, getattr(case, what, None))
        for bad in (strided(good), good.astype(np.float32), good[:-1], good.tolist()):
            refused(tile, case, ValueError, **{what: bad})

    @pytest.mark.parametrize("name", STATE)
    def test_a_rebound_state_array_it_cannot_point_into(self, tile, name):
        case = self.case()
        for rebind in (strided, lambda a: a.astype(np.float32), lambda a: a[:-1]):
            s = case.system.copy()
            setattr(s, name, rebind(getattr(s, name)))
            refused(tile, case, ValueError, system=s)

    @pytest.mark.parametrize("name", STATE)
    def test_a_state_array_it_may_not_write(self, tile, name):
        """numpy refuses to assign into a read-only array; a pointer
        would not ask."""
        case = self.case()
        s = case.system.copy()
        getattr(s, name).flags.writeable = False
        exc = refused(tile, case, ValueError, system=s)
        assert "writeable" in str(exc)
        frozen = np.frombuffer(getattr(s, name).tobytes()).reshape(getattr(s, name).shape)
        setattr(s, name, frozen)  # immutable bytes underneath
        refused(tile, case, ValueError, system=s)

    def test_arguments_it_only_reads_may_be_read_only(self, tile):
        case = self.case()
        want, _ = case.advance(NUMPY_TILE)
        s = case.system.copy()
        xp, vp = NUMPY_TILE.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)
        for a in (xp, vp, case.acc1, case.jerk1, case.pot1, case.block):
            a.flags.writeable = False
        dt_new = tile.advance(s, case.block, 1.0, xp, vp, case.acc1, case.jerk1, case.pot1,
                              0.02, 0.125, 2.0**-40)
        assert state_bytes(s, xp, vp, dt_new) == want

    def test_a_rebound_state_array_it_can_point_into_is_followed(self, tile):
        """Addresses are taken per call: nothing remembers the old array."""
        case = self.case()
        s = case.system.copy()
        old = s.pos
        want, _ = case.advance(NUMPY_TILE)
        s.pos = old.copy()
        xp, vp = tile.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)
        dt_new = tile.advance(s, case.block, 1.0, xp, vp, case.acc1, case.jerk1, case.pot1,
                              0.02, 0.125, 2.0**-40)
        assert state_bytes(s, xp, vp, dt_new) == want
        assert np.array_equal(old, case.system.pos)  # and nothing wrote to the old one


# -- a non-finite force under the integrator ----------------------------------


class Poisoned:
    """A force backend whose answer for one target is not finite."""

    def __init__(self, backend, what, value):
        self.backend, self.what, self.value, self.armed = backend, what, value, False

    def set_j_particles(self, x, v, m):
        self.backend.set_j_particles(x, v, m)

    def forces_on(self, xi, vi, indices):
        res = self.backend.forces_on(xi, vi, indices)
        if self.armed:
            getattr(res, self.what)[-1, ...] = self.value
        return res


BACKENDS = {
    "direct": lambda: DirectSummation(EPS2),
    "emulator": lambda: Grape6Emulator(EPS2),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestNonFiniteForceStopsTheRun:
    """Before: NaN criterion -> the longest legal step, and on it went."""

    @pytest.mark.parametrize("what", ["acc", "jerk", "pot"])
    def test_a_garbage_force_is_a_named_error(self, backend, what):
        s = plummer_model(24, seed=3)
        force = Poisoned(BACKENDS[backend](), what, np.nan)
        integ = BlockTimestepIntegrator(s, EPS2, backend=force)
        integ.run(1.0, max_blocksteps=5)
        _, block = integ.scheduler.next_block()
        before, t_next = state_bytes(s), integ.scheduler.t_next.copy()
        force.armed = True
        with pytest.raises(NonFiniteForce, match=f"particle {block[-1]} in blockstep 5") as exc:
            integ.step()
        assert (exc.value.particle, exc.value.blockstep) == (block[-1], 5)
        assert state_bytes(s) == before and np.array_equal(integ.scheduler.t_next, t_next)
        assert integ.stats.blocksteps == 5
        force.armed = False  # the state is whole: the run can go on
        integ.step()
        assert integ.stats.blocksteps == 6

    def test_it_is_a_value_error(self, backend):
        assert issubclass(NonFiniteForce, ValueError)


def test_a_nan_velocity_reaches_the_criterion_under_direct_summation():
    s = plummer_model(24, seed=3)
    integ = BlockTimestepIntegrator(s, EPS2)
    integ.run(1.0, max_blocksteps=5)
    _, block = integ.scheduler.next_block()
    outsider = np.setdiff1d(np.arange(s.n), block)[0]
    s.vel[outsider, 0] = np.nan  # every target's jerk is NaN
    before = state_bytes(s)
    with pytest.raises(NonFiniteForce) as exc:
        integ.step()
    assert exc.value.particle == block[0] and state_bytes(s) == before


# -- (d) predict_hermite ------------------------------------------------------


def predictor_inputs(seed, n):
    rng = np.random.default_rng(seed)
    t0 = 1.0 - rng.choice(2.0 ** -np.arange(3.0, 41.0), n)
    return [t0] + [rng.normal(size=(n, 3)) for _ in range(4)]


class TestPredictHermite:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 129])
    def test_tiers_agree_with_and_without_out_buffers(self, n):
        args = predictor_inputs(n, n)
        want = b"".join(a.tobytes() for a in NUMPY_TILE.predict(1.0, *args))
        xp, vp = hermite_tile.predict_hermite(1.0, *args)
        assert xp.tobytes() + vp.tobytes() == want
        out_x, out_v = np.full((n, 3), np.nan), np.full((n, 3), np.nan)
        xp, vp = hermite_tile.predict_hermite(1.0, *args, out_x, out_v)
        assert xp is out_x and vp is out_v and xp.tobytes() + vp.tobytes() == want
        xp, vp = hermite_tile.predict_hermite(1.0, *args, out_v=out_v)  # one buffer
        assert vp is out_v and xp.tobytes() + vp.tobytes() == want

    @pytest.mark.parametrize("which", range(5))
    def test_inputs_only_numpy_can_walk(self, which):
        args = predictor_inputs(9, 33)
        contiguous = b"".join(a.tobytes() for a in NUMPY_TILE.predict(1.0, *args))
        for relayout in (strided, np.asfortranarray, lambda a: a.astype(np.float32)):
            moved = list(args)
            moved[which] = relayout(args[which])
            want = b"".join(a.tobytes() for a in NUMPY_TILE.predict(1.0, *moved))
            got = b"".join(a.tobytes() for a in hermite_tile.predict_hermite(1.0, *moved))
            assert got == want
            assert got == contiguous or moved[which].dtype == np.float32

    def test_strided_out_buffers(self):
        args = predictor_inputs(10, 20)
        want = b"".join(a.tobytes() for a in NUMPY_TILE.predict(1.0, *args))
        out_x, out_v = strided(np.empty((20, 3))), strided(np.empty((20, 3)))
        xp, vp = hermite_tile.predict_hermite(1.0, *args, out_x, out_v)
        assert xp is out_x and vp is out_v and xp.tobytes() + vp.tobytes() == want

    @pytest.mark.parametrize("which", ["out_x", "out_v"])
    def test_a_read_only_out_buffer_is_refused_as_numpy_refuses_it(self, which):
        args = predictor_inputs(12, 20)
        out = {"out_x": np.full((20, 3), 7.0), "out_v": np.full((20, 3), 7.0)}
        out[which].flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            hermite_tile.predict_hermite(1.0, *args, **out)
        assert np.all(out[which] == 7.0)

    def test_read_only_inputs_are_served(self):
        args = predictor_inputs(13, 20)
        want = b"".join(a.tobytes() for a in NUMPY_TILE.predict(1.0, *args))
        for a in args:
            a.flags.writeable = False
        xp, vp = hermite_tile.predict_hermite(1.0, *args)
        assert xp.tobytes() + vp.tobytes() == want

    def test_a_scalar_time_still_broadcasts(self):
        """The shared-step integrators predict from one common time."""
        args = predictor_inputs(11, 6)
        xp, vp = hermite_tile.predict_hermite(1.0, np.full(6, 0.75), *args[1:])
        one, _ = hermite_tile.predict_hermite(1.0, np.array([0.75]), *args[1:])
        assert np.array_equal(one, xp)

    def test_the_predictor_module_exports_the_served_function(self):
        from repro.core import predictor

        assert predictor.predict_hermite is hermite_tile.predict_hermite
        assert (hermite_tile.predict_hermite is NUMPY_TILE.predict) == (
            compiled.TIERS["hermite_tile"][0] == "numpy")

"""Property: the striped j-memory store is the per-chip memories.

The emulator keeps a machine's j-memory as one store in host order, and
chip ``c`` of ``k`` reads rows ``c::k`` of it
(:class:`repro.hardware.memory.StripedStore`).  These tests pin that
every chip then holds exactly what a per-chip ``load()`` of its stripe
would hold, before and after direct chip loads; that one batched load
and force call cost the same number of Python calls whatever the chip
count, and cross into the compiled pipeline tile twice, binding
nothing; and that a negative host index is refused before it can reach
the exponent cache.
"""

import cProfile
import ctypes
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plummer_model
from repro.forces import compiled
from repro.hardware import EMULATION_MODES, Grape6Emulator, JParticleMemory, memory, pipeline
from tests.conftest import needs_compiled, use_pipeline_tier

pytestmark = pytest.mark.tiers

EPS2 = 1.0 / 4096.0
FIELDS = ("pos_q", "vel", "mass", "host_index", "acc", "jerk", "snap", "t0")


def jset(n, seed):
    rng = np.random.default_rng(seed)
    host_index = np.sort(rng.choice(10 * n + 1, n, replace=False))
    x, v = rng.normal(0, 1, (n, 3)), rng.normal(0, 0.5, (n, 3))
    m = rng.uniform(0.1, 1.0, n) / max(n, 1)
    derivs = dict(
        a=rng.normal(0, 0.3, (n, 3)), jdot=rng.normal(0, 0.1, (n, 3)),
        snap=rng.normal(0, 0.01, (n, 3)), t0=rng.uniform(-0.1, 0.0, n),
    )
    return host_index, x, v, m, derivs


def assert_chips_hold_their_stripes(emu, host_index, x, v, m, derivs):
    chips, k = emu._all_chips, emu.n_chips
    for c, chip in enumerate(chips):
        ref = JParticleMemory(chip.memory.capacity, emu.formats.pos, emu.formats.word)
        ref.load(
            host_index[c::k], x[c::k], v[c::k], m[c::k],
            **{name: d[c::k] for name, d in derivs.items()},
        )
        assert chip.memory.n == ref.n
        for name in FIELDS:
            got, want = getattr(chip.memory, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (c, name)
            np.testing.assert_array_equal(got, want, err_msg=f"chip {c} {name}")
    assert emu.jmem_used == len(host_index)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 200),
    boards=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    with_derivs=st.booleans(),
)
def test_striped_load_equals_per_chip_loads(n, boards, seed, with_derivs):
    """Also below the chip count (chips holding nothing), and again after
    a direct chip load: the next machine load re-stripes every chip."""
    host_index, x, v, m, derivs = jset(n, seed)
    if not with_derivs:
        derivs, host_index = {}, np.arange(n)
    emu = Grape6Emulator(EPS2, boards=boards)

    def machine_load():
        if with_derivs:
            emu.load_j_particles(host_index, x, v, m, **derivs)
        else:
            emu.set_j_particles(x, v, m)

    machine_load()
    assert_chips_hold_their_stripes(emu, host_index, x, v, m, derivs)

    rng = np.random.default_rng(seed)
    chip = emu._all_chips[rng.integers(emu.n_chips)]
    x2, v2, m2 = x[: n // 2] + 0.5, v[: n // 2], m[: n // 2]
    generation = emu.jmem.generation
    chip.load_j_particles(host_index[: n // 2], x2, v2, m2)
    assert emu.jmem.generation > generation  # the gather is invalidated
    assert chip.memory.n == n // 2
    np.testing.assert_array_equal(chip.memory.pos_q, emu.formats.pos.quantize(x2))

    machine_load()
    assert_chips_hold_their_stripes(emu, host_index, x, v, m, derivs)


def call_count(fn) -> int:
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_batched_call_costs_the_same_python_calls_at_any_chip_count():
    """No Python loop over chips on the batched path: one j-load plus
    one force call makes as many calls on 32 chips as on 128."""
    s = plummer_model(256, seed=2003)
    idx = np.arange(8)
    counts = {}
    for boards in (1, 4):
        emu = Grape6Emulator(EPS2, boards=boards)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        emu.forces_on(s.pos[idx], s.vel[idx], idx)  # exponents cached
        x = s.pos + 1.0e-6

        def blockstep():
            emu.set_j_particles(x, s.vel, s.mass)
            emu.forces_on(x[idx], s.vel[idx], idx)

        counts[boards] = call_count(blockstep)
        assert emu.stats.jmem_loads_elided == 0
    assert counts[1] == counts[4]


@needs_compiled("pipeline_tile")
@pytest.mark.parametrize("boards", [1, 2, 4])
def test_a_blockstep_crosses_into_the_tile_twice(monkeypatch, boards):
    """One blockstep of the ``serial_grape`` workload's shape (N = 256, a
    reload that is not elided, then a force call on 31 targets whose
    exponents are cached) makes two calls into ``pipeline_tile.c`` - the
    load and the forces - and allocates no new j-memory (``JSet``): the
    reload writes the buffers bound at the first load.  Counted on the library
    itself (``errcheck`` sees every call of an entry point), with a
    tier bound to it serving the whole emulator."""
    library, _ = compiled.load_library("pipeline_tile")
    tier = pipeline._bind(library)
    calls, binds = [], []

    def count(result, func, args):
        calls.append(func.__name__)
        return result

    for entry in vars(library).values():
        if isinstance(entry, ctypes._CFuncPtr):
            entry.errcheck = count

    class CountedJSet(pipeline.JSet):
        __slots__ = ()

        def __init__(self, *arrays):
            binds.append(arrays[0].shape)
            super().__init__(*arrays)

    use_pipeline_tier(monkeypatch, tier)
    monkeypatch.setattr(memory, "JSet", CountedJSet)
    s = plummer_model(256, seed=2003)
    idx = np.arange(0, 256, 8)[:31]
    emu = Grape6Emulator(EPS2, boards=boards)
    emu.set_j_particles(s.pos, s.vel, s.mass)
    emu.forces_on(s.pos[idx], s.vel[idx], idx)  # exponents cached
    assert binds == [(3, 256)] and "pipeline_load" in calls  # the first load binds
    calls.clear(), binds.clear()
    j_set = emu.jmem.j_set
    x = s.pos + 1.0e-6
    emu.set_j_particles(x, s.vel, s.mass)
    emu.forces_on(x[idx], s.vel[idx], idx)
    assert calls == ["pipeline_load", "pipeline_forces"]
    assert binds == [] and emu.jmem.j_set is j_set
    assert emu.stats.jmem_loads_elided == emu.stats.exponent_retries == 0


@pytest.mark.parametrize("mode", EMULATION_MODES)
def test_negative_index_is_refused_before_the_exponent_cache(mode):
    """numpy would wrap index -1 onto the last cache slot: a close, fast
    target labelled -1 once raised particle 63's cached jerk exponent,
    and particle 63's next force changed bits."""
    s = plummer_model(64, seed=5)
    xi = s.pos[63:64] + 1.0e-3
    vi = s.vel[63:64] * 1000.0  # wrapped onto slot 63, this changes its bits
    idx = np.arange(64)
    emus = []
    for label in (-1, 1000):
        emu = Grape6Emulator(EPS2, emulation_mode=mode)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        emu.forces_on(s.pos, s.vel, idx)
        if label < 0:
            with pytest.raises(ValueError, match="-1"):
                emu.forces_on(xi, vi, np.array([label]))
        else:
            emu.forces_on(xi, vi, np.array([label]))
        emus.append(emu)
    assert emus[0].exp_cache_entries == 64
    last = idx[63:]
    refused, labelled = (e.forces_on(s.pos[last], s.vel[last], last) for e in emus)
    for a, b in ((refused.acc, labelled.acc), (refused.jerk, labelled.jerk),
                 (refused.pot, labelled.pot)):
        np.testing.assert_array_equal(a, b)

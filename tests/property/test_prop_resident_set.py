"""Property: the direct backend's resident j-set is the composition it replaced.

A blockstep on :class:`~repro.forces.direct.DirectSummation` no longer
predicts all N on the host and uploads them: the backend has the host's
predictor write straight into its own component-major j-set
(``DirectSummation.predict_j`` -> ``hermite_tile.predict_j_set``, eqs.
6-7) and the block's rows only into the host's predictions, and the
force call runs the tile on that set.  Pinned here:

(a) on both tiers (``hermite_tile``'s prediction, ``pairwise_tile``'s
    force call), the prediction and the force
    calls equal the composition they replace - ``numpy_predict_hermite``
    of all N, ``component_major``, ``G m``, and the tile on the block's
    predicted rows (``acc_jerk_pot_on_targets`` on the numpy tile) - bit
    for bit, over N in {1, 7, 128, 129, 300}, empty, single, drawn and
    full blocks, rows already at the block time (a zero step), targets
    as rows of the set and as given rows, both masks; the rows of the
    predictions outside the block are not written, a row outside the
    set is answered as numpy's indexing answers it, and what a force
    call hands back is the caller's;
(b) a whole run on the resident path equals the run that uploads every
    blockstep (a backend offering only ``set_j_particles`` and
    ``forces_on``), bit for bit, on both tiers;
(c) a direct blockstep writes only the block's rows of the integrator's
    prediction buffers, and after its first it crosses into the compiled
    tiles three times - the prediction, the force call, the corrector -
    and builds no ``ctypes.Structure``, counted on the libraries
    themselves as ``test_prop_striped_store.py`` counts the emulator's
    crossings.

(a) and (b) run on both tiers in one process; CI runs this file once
more with no compiler on PATH.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import G_NBODY
from repro.core import BlockTimestepIntegrator, hermite_tile
from repro.core.hermite_tile import NUMPY_TILE, numpy_predict_hermite, state_bytes
from repro.forces import DirectSummation, compiled, direct, kernels
from repro.forces.kernels import NUMPY_PAIRWISE, component_major
from repro.models import plummer_model
from tests.conftest import needs_compiled

pytestmark = pytest.mark.tiers

#: (the Hermite tile, the pairwise tile): both numpy, and both compiled
#: if this process serves them so
TIERS = [pytest.param((NUMPY_TILE, NUMPY_PAIRWISE), id="numpy")] + (
    [pytest.param((hermite_tile._tile, kernels._tier), id="c")]
    if compiled.TIERS["hermite_tile"][0] == compiled.TIERS["pairwise_tile"][0] == "c" else [])
EPS2 = (1.0 / 64.0) ** 2
SIZES = (1, 7, 128, 129, 300)
SENTINEL = -7.25


def state(n: int, seed: int, at_block_time: float):
    """A particle system's arrays at their own times, a fraction
    ``at_block_time`` of them already at the block time 1.0."""
    rng = np.random.default_rng(seed)
    s = plummer_model(n, seed=seed)
    s.acc[...], s.jerk[...] = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    s.t[...] = 1.0 - rng.uniform(0.0, 0.25, n)
    s.t[rng.uniform(size=n) < at_block_time] = 1.0
    return s


def the_blocks(n: int, data) -> np.ndarray:
    kind = data.draw(st.sampled_from(["empty", "single", "drawn", "full"]))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "single":
        return np.array([data.draw(st.integers(0, n - 1))], dtype=np.int64)
    if kind == "full":
        return np.arange(n, dtype=np.int64)
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return np.array(rows, dtype=np.int64)


def serve(patch, tier) -> None:
    """The direct backend's prediction and force call on ``tier``."""
    predictor, pairwise = tier
    patch.setattr(direct, "predict_j_set", predictor.predict_j_set)
    patch.setattr(kernels, "_tier", pairwise)


def reference_forces(xi, vi, xs, vs, m, exclude_self):
    """The tile on targets from the uploaded set, on the numpy tile."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_tile_sums", kernels.numpy_tile_sums)
        res = kernels.acc_jerk_pot_on_targets(xi, vi, xs, vs, m, EPS2, exclude_self)
    return res


def as_bytes(res) -> bytes:
    return b"|".join(a.tobytes() for a in (res.acc, res.jerk, res.pot)) + bytes(
        str(res.interactions), "ascii")


# -- (a) the prediction and the force calls ------------------------------------


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**16),
       at_block_time=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
def test_the_resident_set_is_the_composition(tier, n, seed, at_block_time, data):
    with pytest.MonkeyPatch.context() as patch:
        serve(patch, tier)
        check_the_composition(n, seed, at_block_time, the_blocks(n, data))


def check_the_composition(n, seed, at_block_time, block):
    s = state(n, seed, at_block_time)
    xs, vs = numpy_predict_hermite(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)

    direct = DirectSummation(EPS2)
    xp, vp = np.full((n, 3), SENTINEL), np.full((n, 3), SENTINEL)
    direct.predict_j(1.0, s, xp, vp, block)
    j_set = direct._j
    assert j_set.cj.tobytes() == component_major(xs, vs).tobytes()
    assert j_set.gm.tobytes() == (G_NBODY * s.mass).tobytes()
    outside = np.setdiff1d(np.arange(n), block)
    assert xp[block].tobytes() == xs[block].tobytes()
    assert vp[block].tobytes() == vs[block].tobytes()
    assert (xp[outside] == SENTINEL).all() and (vp[outside] == SENTINEL).all()

    among = reference_forces(xs[block], vs[block], xs, vs, s.mass, True)
    assert as_bytes(direct.forces_on(None, None, block)) == as_bytes(among)
    assert as_bytes(direct.forces_on(xs[block], vs[block], block)) == as_bytes(among)
    away = xs[block] + 0.125  # targets that are no j-particle: no mask
    assert as_bytes(direct.forces_on(away, vs[block])) == as_bytes(
        reference_forces(away, vs[block], xs, vs, s.mass, False))


@pytest.mark.parametrize("tier", TIERS)
def test_a_row_outside_the_set_is_answered_as_numpy_answers_it(monkeypatch, tier):
    """Before anything is written: a negative row wraps and a row past
    the end raises ``IndexError``, as numpy's indexing does."""
    serve(monkeypatch, tier)
    s = state(7, 5, 0.3)
    xs, vs = numpy_predict_hermite(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)
    direct = DirectSummation(EPS2)
    xp, vp = np.full((7, 3), SENTINEL), np.full((7, 3), SENTINEL)
    direct.predict_j(1.0, s, xp, vp, np.array([-1, 2]))
    assert xp[[6, 2]].tobytes() == xs[[6, 2]].tobytes()
    with pytest.raises(IndexError):
        direct.predict_j(1.0, s, xp, vp, np.array([7]))
    with pytest.raises(IndexError):
        direct.forces_on(None, None, np.array([0, 7]))
    wrapped = direct.forces_on(None, None, np.array([-1]))
    assert as_bytes(wrapped) == as_bytes(direct.forces_on(None, None, np.array([6])))


@pytest.mark.parametrize("tier", TIERS)
def test_a_held_result_is_not_rewritten(monkeypatch, tier):
    """What a force call hands back is the caller's: a later call on
    other targets rewrites none of it."""
    serve(monkeypatch, tier)
    s = state(129, 11, 0.3)
    direct = DirectSummation(EPS2)
    xp, vp = np.empty((129, 3)), np.empty((129, 3))
    direct.predict_j(1.0, s, xp, vp, np.arange(129))
    held = direct.forces_on(None, None, np.arange(0, 129, 2))
    kept = as_bytes(held)
    again = direct.forces_on(None, None, np.arange(1, 129, 2))
    assert as_bytes(held) == kept and not np.shares_memory(held.acc, again.acc)


# -- (b) a whole run ----------------------------------------------------------


class Uploaded:
    """A direct backend offering only ``set_j_particles`` and
    ``forces_on``: the integrator predicts all N and uploads them."""

    def __init__(self):
        self.direct = DirectSummation(EPS2)

    def set_j_particles(self, x, v, m):
        self.direct.set_j_particles(x, v, m)

    def forces_on(self, xi, vi, indices=None):
        return self.direct.forces_on(xi, vi, indices)


@pytest.mark.parametrize("tier", TIERS)
def test_a_run_on_the_resident_set_is_the_uploaded_run(monkeypatch, tier):
    serve(monkeypatch, tier)
    runs = []
    for backend in (DirectSummation(EPS2), Uploaded()):
        s = plummer_model(129, seed=2003)
        integ = BlockTimestepIntegrator(s, EPS2, backend=backend)
        integ.run(1.0 / 32.0)
        runs.append((state_bytes(s), integ.stats.block_sizes, integ.stats.interactions))
    assert runs[0] == runs[1]
    assert integ._j_side(DirectSummation(EPS2)) == integ._resident_j
    assert integ._j_side(Uploaded()) == integ._uploaded_j


# -- (c) one blockstep --------------------------------------------------------


def test_a_direct_blockstep_writes_only_the_blocks_predictions():
    s = plummer_model(256, seed=2003)
    integ = BlockTimestepIntegrator(s, EPS2)
    integ.run(1.0 / 64.0)
    t_block, block = integ.scheduler.next_block()
    want = numpy_predict_hermite(t_block, s.t, s.pos, s.vel, s.acc, s.jerk)
    integ._xp[...], integ._vp[...] = SENTINEL, SENTINEL
    integ.step()
    outside = np.setdiff1d(np.arange(s.n), block)
    for got, predicted in zip((integ._xp, integ._vp), want):
        assert got[block].tobytes() == predicted[block].tobytes()
        assert (got[outside] == SENTINEL).all()


def counting(struct, made: list):
    """``struct`` that notes its name in ``made`` whenever one is built."""

    class Counted(struct):
        def __init__(self, *args):
            made.append(struct.__name__)
            super().__init__(*args)

    return Counted


@needs_compiled("pairwise_tile", "hermite_tile")
def test_a_direct_blockstep_crosses_into_the_tiles_three_times(monkeypatch):
    """The ``serial_direct`` shape (Plummer N = 1024): after its first,
    a blockstep makes one call into ``hermite_tile.c`` to predict, one
    into ``pairwise_tile.c`` to evaluate the forces and one into
    ``hermite_tile.c`` to correct, and builds no ``ctypes.Structure``.  Counted on the libraries
    (``errcheck`` sees every call of an entry point), with tiers bound
    to them serving the integrator."""
    calls, made = [], []

    def count(result, func, args):
        calls.append(func.__name__)
        return result

    served = {}
    for name, binder in (("pairwise_tile", kernels._bind), ("hermite_tile", hermite_tile._bind)):
        library, _ = compiled.load_library(name)
        served[name] = binder(library)
        for entry in vars(library).values():
            if isinstance(entry, ctypes._CFuncPtr):
                entry.errcheck = count
    serve(monkeypatch, (served["hermite_tile"], served["pairwise_tile"]))
    monkeypatch.setattr("repro.core.individual.advance_block", served["hermite_tile"].advance)
    s = plummer_model(1024, seed=2003)
    integ = BlockTimestepIntegrator(s, (1.0 / 1024.0) ** 2)
    integ.step()
    for module in (kernels, hermite_tile):
        for name, value in list(vars(module).items()):
            if isinstance(value, type) and issubclass(value, ctypes.Structure):
                monkeypatch.setattr(module, name, counting(value, made))
    for _ in range(4):
        calls.clear()
        integ.step()
        assert calls == ["hermite_predict_j", "resident_forces", "hermite_advance_block"]
    assert made == []

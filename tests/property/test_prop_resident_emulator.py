"""Property: the emulator's own j-side is the uploaded sequence it replaced.

A blockstep on :class:`~repro.hardware.system.Grape6Emulator` no longer
has the host predict all N and upload them: ``predict_j`` writes the
host predictor's bits (``hermite_tile.predict_j_set``, eqs. 6-7) into
the staging rows of the machine's j-memory and loads them in place, and
``forces_on(None, None, block)`` takes its targets from those rows.
Pinned here, on both tiers of the pipeline and Hermite tiles:

(a) a run on that path equals the run that uploads every blockstep
    (a backend offering only ``set_j_particles`` and ``forces_on``:
    ``set_j_particles(xp, vp, m)``, then ``forces_on(xp[block],
    vp[block], block)``) bit for bit - the forces of every blockstep,
    the trajectory, the exponent table and the counts
    (``force_evaluations``, ``jmem_loads``, ``exponent_retries``) - on
    one and two boards, the batched and the faithful datapath, also
    killed and resumed through ``restore_integrator`` on a fresh
    emulator (which takes the exponent table back from the checkpoint:
    the killed run ends on the uninterrupted run's bits);
(b) a ``set_j_particles`` of the bytes loaded before a ``predict_j`` is
    a reload, not an elision, and its forces are the uploaded ones;
(c) a bank loaded directly (one chip's DMA) is re-attached by the next
    ``predict_j``: every chip reads its stripe of the prediction again;
(d) the staged targets are refused as the given ones are: a negative
    row, a row past the set, and no rows at all.

CI runs this file once more with no compiler on PATH.
"""

import numpy as np
import pytest

from repro.core import BlockTimestepIntegrator, hermite_tile
from repro.core.hermite_tile import NUMPY_TILE, state_bytes
from repro.forces import compiled
from repro.hardware import Grape6Emulator, pipeline, system
from repro.hardware.pipeline import NUMPY_PIPELINE
from repro.io.checkpoint import read_checkpoint, restore_integrator, write_checkpoint
from repro.models import plummer_model
from tests.conftest import use_pipeline_tier

pytestmark = pytest.mark.tiers

EPS2 = (1.0 / 64.0) ** 2

#: (the Hermite tile, the pipeline tile): both numpy, and both compiled
#: if this process serves them so
TIERS = [pytest.param((NUMPY_TILE, NUMPY_PIPELINE), id="numpy")] + (
    [pytest.param((hermite_tile._tile, pipeline._tier), id="c")]
    if compiled.TIERS["hermite_tile"][0] == compiled.TIERS["pipeline_tile"][0] == "c" else [])


@pytest.fixture(params=TIERS)
def tier(request, monkeypatch):
    """The emulator's prediction and every pipeline entry on one tier."""
    predictor, pipeline_tier = request.param
    monkeypatch.setattr(system, "predict_j_set", predictor.predict_j_set)
    use_pipeline_tier(monkeypatch, pipeline_tier)


class Uploaded:
    """The emulator without ``predict_j``: the integrator predicts all N
    and uploads them every blockstep."""

    def __init__(self, emu: Grape6Emulator) -> None:
        self.emu = emu

    def set_j_particles(self, x, v, m):
        self.emu.set_j_particles(x, v, m)

    def forces_on(self, xi, vi, indices=None):
        return self.emu.forces_on(xi, vi, indices)

    def checkpoint_arrays(self):
        return self.emu.checkpoint_arrays()

    def restore_arrays(self, arrays):
        self.emu.restore_arrays(arrays)


def emulator(boards, mode):
    return Grape6Emulator(EPS2, boards=boards, emulation_mode=mode)


def counts(emu):
    st = emu.stats
    return (st.force_evaluations, st.jmem_loads, st.jmem_loads_elided, st.exponent_retries,
            st.interactions)


def run(uploaded: bool, boards: int, mode: str, n: int, seed: int, t_end: float,
        kill: int | None, tmp_path):
    """Every blockstep's forces and state, then the exponent table and
    the counts of the emulator that finished the run; killed at blockstep
    ``kill`` and resumed on a fresh emulator from a checkpoint."""
    s = plummer_model(n, seed=seed)
    emu = emulator(boards, mode)
    integ = BlockTimestepIntegrator(s, EPS2, backend=Uploaded(emu) if uploaded else emu)
    steps = []
    while integ.scheduler.next_time() <= t_end:
        if integ.stats.blocksteps == kill:
            path = write_checkpoint(tmp_path / f"kill-{uploaded}.npz", integ)
            emu = emulator(boards, mode)
            integ = restore_integrator(read_checkpoint(path),
                                       backend=Uploaded(emu) if uploaded else emu)
        _, block = integ.scheduler.next_block()
        block = block.copy()
        integ.step()
        s = integ.system
        steps.append(b"".join(a[block].tobytes() for a in (s.acc, s.jerk, s.pot)))
    return steps, state_bytes(integ.system), emu._exp.tobytes(), counts(emu)


@pytest.mark.parametrize("boards", [1, 2])
@pytest.mark.parametrize("mode, n, seed, kill", [
    ("batched", 48, 2003, None), ("batched", 48, 2003, 7), ("batched", 32, 5, 3),
    ("faithful", 16, 7, None), ("faithful", 16, 7, 4),
])
def test_the_resident_path_is_the_uploaded_sequence(tier, boards, mode, n, seed, kill,
                                                    tmp_path):
    t_end = 1.0 / 16.0
    resident = run(False, boards, mode, n, seed, t_end, kill, tmp_path)
    uploaded = run(True, boards, mode, n, seed, t_end, kill, tmp_path)
    assert len(resident[0]) > (kill or 0) + 5
    for k, (a, b) in enumerate(zip(resident[0], uploaded[0])):
        assert a == b, f"forces differ at blockstep {k}"
    assert resident[1:] == uploaded[1:]
    assert resident[3][2] == 0  # nothing elided: a blockstep loads
    if kill:
        assert resident[1] == run(False, boards, mode, n, seed, t_end, None, tmp_path)[1]


def developed(n=40, seed=11):
    """A system mid-run, the block due next, and its predictions."""
    s = plummer_model(n, seed=seed)
    integ = BlockTimestepIntegrator(s, EPS2)
    integ.run(1.0 / 32.0)
    t, block = integ.scheduler.next_block()
    return s, t, block.copy()


def the_force(res):
    return res.acc.tobytes() + res.jerk.tobytes() + res.pot.tobytes()


def test_stale_bytes_after_a_prediction_reload(tier):
    s, t, block = developed()
    emu = emulator(2, "batched")
    xp, vp = np.zeros((s.n, 3)), np.zeros((s.n, 3))
    x, v = s.pos.copy(), s.vel.copy()
    emu.set_j_particles(x, v, s.mass)
    reference = the_force(emu.forces_on(x[block], v[block], block))
    emu.predict_j(t, s, xp, vp, block)
    predicted = emu.forces_on(None, None, block)
    emu.set_j_particles(x, v, s.mass)  # the bytes resident before the prediction
    assert emu.stats.jmem_loads == 3 and emu.stats.jmem_loads_elided == 0
    assert the_force(emu.forces_on(x[block], v[block], block)) == reference
    assert the_force(emu.forces_on(None, None, block)) == reference
    # and the prediction's own forces are the uploaded prediction's
    xs, vs = hermite_tile.numpy_predict_hermite(t, s.t, s.pos, s.vel, s.acc, s.jerk)
    np.testing.assert_array_equal(xp[block], xs[block])
    np.testing.assert_array_equal(vp[block], vs[block])
    emu.set_j_particles(xs, vs, s.mass)
    assert the_force(emu.forces_on(xs[block], vs[block], block)) == the_force(predicted)


@pytest.mark.parametrize("mode", ["batched", "faithful"])
def test_a_first_force_guesses_from_the_prediction(tier, mode):
    """With no exponent cached, the guess's barycentre is the predicted
    set's, as it is the uploaded set's (the cluster moved off the origin,
    so that the guess depends on it)."""
    s, t, block = developed()
    s.pos += 6.0
    xs, vs = hermite_tile.numpy_predict_hermite(t, s.t, s.pos, s.vel, s.acc, s.jerk)
    uploaded, resident = emulator(2, mode), emulator(2, mode)
    uploaded.set_j_particles(xs, vs, s.mass)
    want = uploaded.forces_on(xs[block], vs[block], block)
    resident.predict_j(t, s, np.zeros((s.n, 3)), np.zeros((s.n, 3)), block)
    got = resident.forces_on(None, None, block)
    assert the_force(got) == the_force(want)
    assert resident._exp.tobytes() == uploaded._exp.tobytes()
    assert counts(resident) == counts(uploaded)


@pytest.mark.parametrize("mode", ["batched", "faithful"])
def test_a_directly_loaded_bank_is_reattached(tier, mode):
    s, t, block = developed()
    emu, fresh = emulator(1, mode), emulator(1, mode)
    xp, vp = np.zeros((s.n, 3)), np.zeros((s.n, 3))
    emu.predict_j(t, s, xp, vp, block)
    chip = emu._all_chips[3]
    chip.memory.load(np.arange(3), s.pos[:3] + 0.5, s.vel[:3], s.mass[:3])
    assert emu.jmem.detached and emu.jmem_used != s.n
    detached = emu.forces_on(None, None, block)  # the chips as they are, targets staged
    emu.predict_j(t, s, xp, vp, block)
    assert not emu.jmem.detached and emu.jmem_used == s.n
    fresh.predict_j(t, s, np.zeros((s.n, 3)), np.zeros((s.n, 3)), block)
    for e in (emu, fresh):
        e._exp[...] = pipeline.UNCACHED  # both guess their exponents afresh
    assert the_force(emu.forces_on(None, None, block)) == the_force(
        fresh.forces_on(None, None, block)) != the_force(detached)
    for c, stripe in enumerate(emu._all_chips):
        np.testing.assert_array_equal(stripe.memory.pos_q, fresh._all_chips[c].memory.pos_q)


@pytest.mark.parametrize("mode", ["batched", "faithful"])
def test_staged_targets_are_refused_as_given_ones_are(tier, mode):
    s, t, block = developed()
    emu = emulator(1, mode)
    emu.predict_j(t, s, np.zeros((s.n, 3)), np.zeros((s.n, 3)), block)
    with pytest.raises(ValueError, match="-1"):
        emu.forces_on(None, None, np.array([0, -1]))
    with pytest.raises(IndexError):
        emu.forces_on(None, None, np.array([0, s.n]))
    with pytest.raises(ValueError, match="indices"):
        emu.forces_on(None, None)
    assert emu.stats.force_evaluations == 0

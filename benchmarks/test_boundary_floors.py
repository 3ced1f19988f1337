"""B1 — what the host-tile boundary costs, crossing by crossing.

The compiled tiles are called from Python: the emulator's j-load and
force call (``set_j_particles``, ``forces_on``) and the host's Hermite
pair (``predict_hermite``, ``advance_block``).  This file reports the
*floor* of each crossing - the minimum over calls, what it costs when
nothing else has the core - on the ``serial_grape`` workload's shape:
Plummer N = 256 on two emulated boards, blocks of 31 targets, every
exponent cached.  ``forces_on`` at n_i = 1 is the force call's fixed
cost.  A blockstep of that workload pays the j-load and the first force
call on the new j-set back to back; that pair is floored too, outside
the budget, and so are the emulator's predict and force phases as the
integrator runs them - the emulator predicting and loading its own
j-memory, then the force call on the block's rows of it - with the
uploaded sequence they replaced beside them (the host predicts all N,
then that pair).  Outside the budget too, the direct backend's two crossings
a blockstep on the ``serial_direct`` workload's shape (Plummer N = 1024,
blocks of 16): its predict phase and its force phase.  Beside them,
outside the budget, it floors the copy algorithm's blockstep on the
``cluster_latency`` workload's shape (N = 128 on 16 simulated hosts,
inline, blocks of 15): its predict phase and its force phase as the
integrator runs them, with the direct backend's two phases on the same
problem beside them, its coherence exchange ``exchange_updated``, and
the ledger's fold of one full round log of that workload's messages,
printed in reference-box units.  Also outside the budget, the two
halves of a checkpoint on the ``service_resume`` workload's shape
(Plummer N = 128, every particle stepped): the encode and the durable
write (open, write, fsync, close, rename), both on the thread that
steps a job.  The per-part tables of
EXPERIMENTS.md are this file's output::

    PYTHONPATH=src python benchmarks/test_boundary_floors.py

Point ``PYTHONPATH`` at another checkout's ``src`` to read that commit
with the same script (only public names are used).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import BlockTimestepIntegrator
from repro.core.hermite_tile import advance_block, predict_hermite
from repro.hardware import Grape6Emulator
from repro.io import format_table
from repro.models import plummer_model
from repro.config import NIC_NS83820
from repro.parallel import CopyAlgorithm, SimNetwork
from repro.parallel.barrier import message_time_us
from repro.parallel.ledger import ROUND_LOG_CAP, LinkStore

try:
    from benchmarks.test_sink_budget import YARDSTICK_REF_S, yardstick
except ModuleNotFoundError:  # run as a script: this directory is on the path
    from test_sink_budget import YARDSTICK_REF_S, yardstick

EPS2 = (1.0 / 64.0) ** 2
N, BOARDS, N_B = 256, 2, 31

#: The ``cluster_latency`` shape of the copy crossings.
COPY_N, COPY_P, COPY_N_B = 128, 16, 15

#: The ``service_resume`` shape of the checkpoint halves.
CKPT_N = 128

#: The ``serial_direct`` shape of the direct backend's crossings.
DIRECT_N, DIRECT_N_B = 1024, 16

#: Calls per round, and rounds interleaved across the crossings (3 000
#: calls of each in all, spread so that one round meets a quiet moment).
CALLS, ROUNDS = 200, 15

#: Bound on the four fixed costs together - forces_on at n_i = 1,
#: set_j_particles, advance_block and predict_hermite [us] - on the
#: reference box, undisturbed: 13.6-15.2 in its units on a 2-vCPU x86-64
#: box since a bound call tests its arrays in one expression (15.0-16.3
#: the same day before), so the budget is 1.5x the highest; 13.4-15.9
#: since each call's i-side is bound with its tile (buffers, constants
#: and the exponent table in one struct); 19-23 since the emulator's
#: blockstep crosses into its tile twice, 32-33 before; 40 measured on
#: the reference box before that, 89 before the crossings were bound.
BUDGET_US = 23.0


def crossings() -> dict:
    """Each crossing as a ``(call, reset)`` pair: ``reset`` runs before
    every call, outside its timing."""
    s = plummer_model(N, seed=2003)
    emu = Grape6Emulator(EPS2, boards=BOARDS, emulation_mode="batched")
    integ = BlockTimestepIntegrator(s, EPS2, backend=emu)
    integ.run(1.0 / 32.0)  # every exponent cached
    xp, vp = np.empty((N, 3)), np.empty((N, 3))
    predict_hermite(1.0, s.t, s.pos, s.vel, s.acc, s.jerk, xp, vp)
    emu.set_j_particles(xp, vp, s.mass)
    rows = np.arange(0, N, N // N_B)[:N_B]
    shifted = xp.copy()
    shifted[0, 0] += 1.0e-9  # a j-set that differs: no load is elided

    def load():
        loads.reverse()
        emu.set_j_particles(loads[0], vp, s.mass)

    loads = [xp, shifted]
    res = emu.forces_on(xp[rows], vp[rows], rows)
    acc1, jerk1, pot1 = res.acc.copy(), res.jerk.copy(), res.pot.copy()
    s.t[...], h = 0.0, 2.0**-8

    def due():
        s.t[rows] = 1.0 - h

    targets = {n_i: (xp[rows[:n_i]], vp[rows[:n_i]], rows[:n_i]) for n_i in (1, N_B)}

    def blockstep():
        load()
        emu.forces_on(*targets[N_B])

    return {
        "forces_on n_i = 1": (lambda: emu.forces_on(*targets[1]), None),
        f"forces_on n_i = {N_B}": (lambda: emu.forces_on(*targets[N_B]), None),
        f"set_j_particles N = {N}": (load, None),
        f"set_j_particles + forces_on n_i = {N_B}": (blockstep, None),
        f"advance_block n_b = {N_B}": (
            lambda: advance_block(s, rows, 1.0, xp, vp, acc1, jerk1, pot1, 0.02, 0.125,
                                  2.0**-40), due),
        f"predict_hermite N = {N}": (
            lambda: predict_hermite(1.0, s.t, s.pos, s.vel, s.acc, s.jerk, xp, vp), None),
    }


def j_side(backend, s, t: float, block: np.ndarray, uploaded: bool = False) -> tuple:
    """A blockstep's predict phase and force phase on ``backend`` as the
    integrator runs them, for the system ``s`` at ``t``: a backend with
    ``predict_j`` predicts its resident j-set and the block's rows, then
    takes the forces on the set's own particles; on a commit without it,
    or if ``uploaded``, the host predicts all N, then uploads them and
    takes the forces on the block's rows."""
    xp, vp = np.empty((s.n, 3)), np.empty((s.n, 3))
    if hasattr(backend, "predict_j") and not uploaded:
        def predict():
            backend.predict_j(t, s, xp, vp, block)

        def force():
            backend.forces_on(None, None, block)
    else:
        def predict():
            predict_hermite(t, s.t, s.pos, s.vel, s.acc, s.jerk, xp, vp)

        def force():
            backend.set_j_particles(xp, vp, s.mass)
            backend.forces_on(xp[block], vp[block], block)
    predict()
    return predict, force


def emulator_crossings() -> dict:
    """The emulator's predict and force phases a blockstep on the
    ``serial_grape`` shape (Plummer N = 256, two boards, blocks of 31,
    every exponent cached) as the integrator runs them, and the uploaded
    sequence's beside them, in the ``(call, reset)`` form of
    :func:`crossings`."""
    s = plummer_model(N, seed=2003)
    emu = Grape6Emulator(EPS2, boards=BOARDS, emulation_mode="batched")
    integ = BlockTimestepIntegrator(s, EPS2, backend=emu)
    integ.run(1.0 / 32.0)  # every exponent cached
    block = np.arange(0, N, N // N_B)[:N_B]
    t = float(s.t.max())
    shape = f"N = {N}, n_b = {N_B}"
    phases = {}
    for name, uploaded in (("emulator", False), ("emulator uploaded", True)):
        predict, force = j_side(emu, s, t, block, uploaded)
        force()  # the block's exponents cached under this sequence
        phases[f"{name} predict {shape}"] = (predict, None)
        phases[f"{name} force {shape}"] = (force, None)
    return phases


def copy_crossings() -> dict:
    """The copy algorithm's predict and force phases, the direct
    backend's on the same problem, and the copy's coherence exchange, in
    the ``(call, reset)`` form of :func:`crossings`.  The exchange's floor
    leaves out the ledger's fold, which runs once every ~13 calls."""
    s = plummer_model(COPY_N, seed=2003)
    copy = CopyAlgorithm(SimNetwork(COPY_P), EPS2)
    integ = BlockTimestepIntegrator(s, EPS2)
    integ.run(1.0 / 64.0)
    t = float(s.t.max())
    block = np.arange(0, COPY_N, COPY_N // COPY_N_B)[:COPY_N_B]
    copy_predict, copy_force = j_side(copy, s, t, block)
    direct_predict, direct_force = j_side(integ.backend, s, t, block)
    shape = f"N = {COPY_N}, n_b = {COPY_N_B}"
    return {
        f"copy predict {shape}": (copy_predict, None),
        f"copy force {shape}": (copy_force, None),
        f"direct predict {shape}": (direct_predict, None),
        f"direct force {shape}": (direct_force, None),
        f"copy exchange_updated n_b = {COPY_N_B}": (
            lambda: copy.exchange_updated(block), None),
    }


def direct_crossings() -> dict:
    """The direct backend's two crossings a blockstep on the
    ``serial_direct`` shape (Plummer N = 1024, blocks of 16), in the
    ``(call, reset)`` form of :func:`crossings`: its predict phase and its
    force phase as the integrator runs them (:func:`j_side`)."""
    s = plummer_model(DIRECT_N, seed=2003)
    integ = BlockTimestepIntegrator(s, EPS2)
    integ.run(1.0 / 256.0)
    block = np.arange(0, DIRECT_N, DIRECT_N // DIRECT_N_B)[:DIRECT_N_B]
    predict, force = j_side(integ.backend, s, float(s.t.max()), block)
    return {
        f"direct predict N = {DIRECT_N}, n_b = {DIRECT_N_B}": (predict, None),
        f"direct force n_b = {DIRECT_N_B}": (force, None),
    }


def fold_crossing() -> dict:
    """The ledger's fold of one full round log of ``cluster_latency``
    blocksteps - each a ring allgather of the 15-block's shares and a
    butterfly barrier - into link rows that exist, in the ``(call,
    reset)`` form of :func:`crossings`: ``reset`` logs the messages."""
    ranks = np.arange(COPY_P)
    shares = (COPY_N_B - ranks + COPY_P - 1) // COPY_P * 128
    rounds = [(1, shares[(ranks - s) % COPY_P], False) for s in range(COPY_P - 1)]
    rounds += [(1 << k, np.full(COPY_P, 16), True) for k in range(4)]
    columns = [np.concatenate(c) for c in zip(*(
        (ranks, (ranks + shift) % COPY_P, nbytes, np.full(COPY_P, collective))
        for shift, nbytes, collective in rounds))]
    src, dst, nbytes, collective = (np.resize(c, ROUND_LOG_CAP) for c in columns)
    flight = message_time_us(NIC_NS83820, 0.0, nbytes)
    store = LinkStore(COPY_P)
    store.record(src, dst, nbytes, flight, collective)
    store.fold()  # every link has its row
    return {
        f"ledger fold of {ROUND_LOG_CAP} messages": (
            store.fold, lambda: store.record(src, dst, nbytes, flight, collective)),
    }


def checkpoint_crossings(tmp: Path) -> dict:
    """A checkpoint's encode and its durable write, in the ``(call,
    reset)`` form of :func:`crossings`; none on a commit that writes in
    one call."""
    try:
        from repro.io.checkpoint import encode_checkpoint, write_durable
    except ImportError:
        return {}
    integ = BlockTimestepIntegrator(plummer_model(CKPT_N, seed=2003), EPS2)
    while integ.system.t.min() == 0.0:  # a developed state
        integ.step()
    data, path = encode_checkpoint(integ), tmp / "ckpt.npz"
    return {
        f"checkpoint encode N = {CKPT_N}": (lambda: encode_checkpoint(integ), None),
        f"checkpoint durable write N = {CKPT_N}": (
            lambda: write_durable(path, data), None),
    }


def floors(rounds: int = ROUNDS) -> tuple[dict, float]:
    """Floor of every crossing [us] and the machine's speed index over
    the same rounds (1.0 = the undisturbed reference box)."""
    with tempfile.TemporaryDirectory() as tmp:
        return _floors(rounds, {**crossings(), **emulator_crossings(), **direct_crossings(),
                                **copy_crossings(), **fold_crossing(),
                                **checkpoint_crossings(Path(tmp))})


def _floors(rounds: int, parts: dict) -> tuple[dict, float]:
    best = dict.fromkeys(parts, float("inf"))
    fastest_yardstick = float("inf")
    clock = time.perf_counter
    for _ in range(rounds):
        fastest_yardstick = min(fastest_yardstick, yardstick())
        for name, (call, reset) in parts.items():
            for _ in range(CALLS):
                if reset is not None:
                    reset()
                t0 = clock()
                call()
                best[name] = min(best[name], clock() - t0)
    return {k: v * 1.0e6 for k, v in best.items()}, fastest_yardstick / YARDSTICK_REF_S


def fixed_cost(us: dict) -> float:
    """The four fixed costs together [us]."""
    return sum(v for k, v in us.items()
               if not k.startswith((f"forces_on n_i = {N_B}", "set_j_particles + ", "emulator ",
                                    "direct ", "copy ", "ledger ", "checkpoint ")))


def table(us: dict, speed_index: float) -> str:
    return format_table(
        ["crossing", "floor [us]", "reference box [us]"],
        [(k, f"{v:.1f}", f"{v / speed_index:.1f}") for k, v in us.items()])


def test_the_boundary_costs_what_its_budget_allows():
    us, speed_index = floors()
    print(f"\n=== Host-tile boundary floors, N = {N}, {BOARDS} boards ===")
    print(table(us, speed_index))
    print(f"machine speed index {speed_index:.2f}")
    cost = fixed_cost(us) / max(speed_index, 1.0)
    assert cost <= BUDGET_US, (
        f"the boundary's fixed costs sum to {fixed_cost(us):.1f} us at speed index "
        f"{speed_index:.2f} (budget {BUDGET_US:g})")


if __name__ == "__main__":
    us, speed_index = floors()
    print(table(us, speed_index))
    print(f"fixed costs {fixed_cost(us):.1f} us, machine speed index {speed_index:.2f}")

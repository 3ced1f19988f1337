"""Property: the network tile is the numpy network, bit for bit.

Every schedule of shift rounds - a ring allgather, a barrier's stages, a
caller's :meth:`SimNetwork.shift_rounds` - and every fold of the
ledger's round log is served by :mod:`repro.parallel.network_tile`:
``network_tile.c``, or the numpy code it must equal.  Pinned here:

(a) the compiled tier against the numpy tier over whole programs: p in
    2..17, schedules of 1..p-1 rounds, zero and equal sizes, equal clocks
    and zero-latency flights (ties in the recurrence), a tiny
    ``ROUND_LOG_CAP`` so that folds land between calls and links and bin
    columns first appear between folds; every returned history, the
    clocks, ``ledger.summary()``, the full export and ``stats`` are equal
    byte for byte;
(b) the load-time self-check refuses a tile one ulp off, in the
    schedule or in the fold;
(c) message sizes that cannot be real - negative, not whole, not finite
    - are refused with :class:`MessageSizeError` on both tiers and on
    every posting path, with nothing recorded.

The same runs end to end - the ledger and clock digests of all four
algorithms - are the golden cells of ``test_prop_invariants.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NIC_NS83820, NICConfig
from repro.forces.compiled import TileUnavailable
from repro.parallel import MessageSizeError, SimNetwork, network_tile
from repro.parallel import ledger as ledger_module
from repro.parallel.network_tile import NUMPY_TILE, NetworkTile
from tests.conftest import needs_compiled, tiers

pytestmark = pytest.mark.tiers

SERVING = network_tile._tile

#: the tier(s) a refusal is asked of: the numpy one, and the process's if
#: that is another
TIERS = tiers("network_tile", NUMPY_TILE, SERVING)

#: a NIC whose zero-byte flight is zero: an arrival then ties its clock
INSTANT = NICConfig(name="instant", rtt_latency_us=0.0, bandwidth_mbs=105.0)


# -- (a) compiled tier == numpy tier ------------------------------------------


@st.composite
def size_rows(draw, p):
    """One row of p sizes: all zero, all equal, or anything."""
    kind = draw(st.sampled_from(["zero", "equal", "any"]))
    if kind == "zero":
        return [0] * p
    if kind == "equal":
        return [draw(st.integers(0, 10**6))] * p
    return draw(st.lists(st.integers(0, 2**40), min_size=p, max_size=p))


@st.composite
def programs(draw):
    p = draw(st.integers(2, 17))
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["allgather", "barrier", "schedule", "advance", "sync"]))
        if kind == "allgather":
            steps.append((kind, draw(st.one_of(st.integers(0, 10**5), size_rows(p))),
                          draw(st.sampled_from([-200, 1000]))))
        elif kind == "schedule":
            r = draw(st.integers(1, p - 1))
            shifts = draw(st.lists(st.integers(1, p - 1), min_size=r, max_size=r))
            tags = draw(st.lists(st.sampled_from([-7, 0, 1000]), min_size=r, max_size=r))
            steps.append((kind, shifts, [draw(size_rows(p)) for _ in range(r)], tags))
        elif kind == "advance":
            steps.append((kind, draw(st.integers(0, p - 1)), draw(st.floats(0.0, 500.0))))
        else:
            steps.append((kind,))
    nic, overhead = draw(st.sampled_from([(NIC_NS83820, 1.7), (INSTANT, 0.0)]))
    return p, steps, nic, overhead, draw(st.sampled_from([1, 3, 16, 64, 4096]))


def run(tile, program) -> str:
    """Everything a program leaves with ``tile`` serving, as one string:
    floats by ``repr``, which tells every bit of a non-NaN apart."""
    p, steps, nic, overhead, log_cap = program
    out = []
    with mock.patch.object(network_tile, "_tile", tile), \
            mock.patch.object(ledger_module, "ROUND_LOG_CAP", log_cap):
        net = SimNetwork(p, nic, per_message_overhead_us=overhead)
        for step in steps:
            if step[0] == "allgather":
                net.allgather(np.array(step[1]), tag=step[2])
            elif step[0] == "barrier":
                net.barrier()
            elif step[0] == "schedule":
                out.append(net.shift_rounds(step[1], np.array(step[2]), step[3]).tobytes())
            elif step[0] == "advance":
                net.clock.advance(step[1], step[2])
            else:
                net.clock.synchronize()
            out.append(net.clock.snapshot().tobytes())
        summary = net.ledger.summary()
        out += [summary, net.ledger.as_dict(), net.stats, net.clock.elapsed]
    return repr(out)


@needs_compiled("network_tile")
@settings(max_examples=120, deadline=None)
@given(programs())
def test_compiled_tier_is_the_numpy_tier(program):
    assert run(SERVING, program) == run(NUMPY_TILE, program)


@needs_compiled("network_tile")
def test_the_cluster_latency_shape_folds_alike():
    """16 ranks, blocks of 15: an exchange and a barrier a blockstep,
    folded every ~13 blocksteps, as the benchmark workload runs it."""
    steps = []
    for k in range(40):
        share = (15 - np.arange(16) + 15) // 16 * 128
        steps += [("allgather", share.tolist(), 1000), ("barrier",), ("advance", k % 16, 3.25)]
    program = (16, steps, NIC_NS83820, 0.0, 4096)
    assert run(SERVING, program) == run(NUMPY_TILE, program)


# -- (b) the self-check --------------------------------------------------------


def test_the_self_check_refuses_a_schedule_one_ulp_off():
    def nudged(schedule, clock, store, nic, overhead_us):
        NUMPY_TILE.shift_rounds(schedule, clock, store, nic, overhead_us)
        clock._t[-1] = np.nextafter(clock._t[-1], np.inf)
        clock._elapsed = None

    network_tile._self_check(NUMPY_TILE)
    with pytest.raises(TileUnavailable, match="self-check: compiled tile differs"):
        network_tile._self_check(NetworkTile(nudged, NUMPY_TILE.fold))


def test_the_self_check_refuses_a_fold_one_ulp_off():
    def nudged(store, rows, nbytes, flight_us):
        NUMPY_TILE.fold(store, rows, nbytes, flight_us)
        store.flight.sq_total[rows[-1]] = np.nextafter(store.flight.sq_total[rows[-1]], 0)

    with pytest.raises(TileUnavailable, match="self-check: compiled fold differs"):
        network_tile._self_check(NetworkTile(NUMPY_TILE.shift_rounds, nudged))


# -- (c) sizes that cannot be real ---------------------------------------------


def posts():
    """Every posting path, each with a size that cannot be real."""
    return {
        "round, negative": lambda net: net.message_round([0, 1], [1, 2], [8, -5_000_000]),
        "round, fraction": lambda net: net.message_round([0], [1], [16.7]),
        "round, infinite": lambda net: net.message_round([0], [1], [np.inf]),
        "schedule, negative": lambda net: net.shift_rounds(
            [1, 2], [[0, 1, 2, 3], [4, 5, -6, 7]], [0, -1]),
        "schedule, fraction": lambda net: net.shift_rounds([1], [[16.7, 0, 0, 0]], [0]),
        "schedule, too large": lambda net: net.shift_rounds([1], [[1e300, 0, 0, 0]], [0]),
        "allgather, negative": lambda net: net.allgather(np.array([0, 128, -1, 0])),
        "allgather, NaN": lambda net: net.allgather([np.nan, 128.0, 0.0, 0.0]),
        "allgather, scalar": lambda net: net.allgather(-640),
    }


@pytest.mark.parametrize("tile", TIERS)
@pytest.mark.parametrize("path", list(posts()))
def test_a_size_that_cannot_be_real_is_refused(tile, path):
    with mock.patch.object(network_tile, "_tile", tile):
        net = SimNetwork(4, NIC_NS83820)
        net.allgather(64)  # a schedule already bound and logged
        before = (net.clock.snapshot().tobytes(), repr(net.ledger.as_dict()), repr(net.stats))
        with pytest.raises(MessageSizeError, match="size"):
            posts()[path](net)
        after = (net.clock.snapshot().tobytes(), repr(net.ledger.as_dict()), repr(net.stats))
    assert after == before


@pytest.mark.parametrize("tile", TIERS)
def test_the_refusal_names_the_message(tile):
    with mock.patch.object(network_tile, "_tile", tile):
        net = SimNetwork(4, NIC_NS83820)
        with pytest.raises(MessageSizeError, match=r"^message 6 has a negative size \(-6 bytes\)$"):
            net.shift_rounds([1, 2], [[0, 1, 2, 3], [4, 5, -6, 7]], [0, -1])
        with pytest.raises(MessageSizeError, match="16.7 is not a finite whole number"):
            net.shift_rounds([1], [[16.7, 0, 0, 0]], [0])


@pytest.mark.parametrize("tile", TIERS)
def test_whole_float_sizes_are_taken(tile):
    with mock.patch.object(network_tile, "_tile", tile):
        net, twin = SimNetwork(4), SimNetwork(4)
        net.shift_rounds([1], np.array([[16.0, 0.0, 2.0**40, 3.0]]), [0])
        twin.shift_rounds([1], [[16, 0, 2**40, 3]], [0])
        net.allgather(np.array([128.0, 0.0, 256.0, 1.0]))
        twin.allgather([128, 0, 256, 1])
        assert repr(net.ledger.as_dict()) == repr(twin.ledger.as_dict())
        assert net.clock.snapshot().tobytes() == twin.clock.snapshot().tobytes()

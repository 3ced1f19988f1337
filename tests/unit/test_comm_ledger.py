"""The per-link communication ledger (section 4.4 measurement substrate)."""

import numpy as np
import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.parallel import (
    COMM_LEDGER_SCHEMA,
    CommLedger,
    LedgerError,
    SimNetwork,
    merge_comm_summaries,
    validate_comm_ledger,
)
from repro.parallel.barrier import butterfly_rounds
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import KIND_COLLECTIVE, KIND_P2P, LinkStats, LinkStore
from repro.telemetry.timeline import validate_timeline


class TestLinkLedger:
    def test_send_records_per_link(self):
        net = SimNetwork(3, NIC_NS83820)
        net.message_round([0, 0, 1], [1, 1, 2], [600, 1200, 60])
        links = {(l.src, l.dst, l.kind): l for l in net.ledger.links}
        l01 = links[(0, 1, KIND_P2P)]
        assert l01.messages == 2
        assert l01.bytes == 1800
        assert l01.mean_bytes == pytest.approx(900.0)
        # NS 83820: 100us one-way + bytes/60MBps
        assert l01.mean_flight_us == pytest.approx((110.0 + 120.0) / 2)
        assert (1, 2, KIND_P2P) in links

    def test_negative_tag_traffic_is_collective(self):
        net = SimNetwork(2, NIC_NS83820)
        net.message_round([0], [1], [16], tag=-1)
        (link,) = net.ledger.links
        assert link.kind == KIND_COLLECTIVE
        assert link.messages == 1

    def test_ledger_totals_match_message_stats(self):
        net = SimNetwork(4, NIC_INTEL82540EM)
        net.allgather(nbytes_each=640)
        assert net.ledger.messages == net.stats.messages
        assert net.ledger.bytes == net.stats.bytes


class TestFold:
    def test_fold_equals_one_observe_per_message(self, monkeypatch):
        """Counts by ``bincount``, float sums by ``ufunc.at`` in message
        order: over folds of a tiny log, with links and bin columns that
        first appear between folds, every link equals a
        :class:`LinkStats` fed one ``Histogram.observe`` per message."""
        monkeypatch.setattr(ledger_module, "ROUND_LOG_CAP", 4)
        folds = []
        fold = LinkStore._fold
        monkeypatch.setattr(LinkStore, "_fold", lambda store, src, *rest: (
            folds.append(len(src)), fold(store, src, *rest))[1])
        ledger = CommLedger(4)
        reference = {}
        rng = np.random.default_rng(17)
        links = []
        for new_links, top in (([(0, 1, False)], 2.0 ** 4),
                               ([(2, 0, False), (1, 3, True)], 2.0 ** 12),
                               ([(3, 2, True), (0, 1, True)], 2.0 ** 40)):
            first = np.arange(len(links), len(links) + len(new_links))
            links += new_links
            for pick in [first] + [rng.integers(0, len(links), int(rng.integers(1, 7)))
                                   for _ in range(3)]:
                src, dst, collective = (np.array(column) for column in
                                        zip(*(links[i] for i in pick)))
                nbytes = rng.integers(0, int(top), pick.size)
                flight = rng.uniform(0.0, top / 100.0, pick.size)
                ledger.record_round(src, dst, nbytes, flight, collective)
                for s, d, c, nb, fl in zip(src.tolist(), dst.tolist(), collective.tolist(),
                                           nbytes.tolist(), flight.tolist()):
                    kind = KIND_COLLECTIVE if c else KIND_P2P
                    link = reference.setdefault(
                        (s, d, kind), LinkStats(src=s, dst=d, kind=kind))
                    link.messages += 1
                    link.bytes += nb
                    link.size_hist.observe(nb)
                    link.flight_hist.observe(fl)
        got = ledger.links
        assert len(folds) >= 3
        want = [reference[key] for key in sorted(reference)]
        assert [l.as_dict() for l in got] == [l.as_dict() for l in want]
        for a, b in zip(got, want):
            for hist in ("size_hist", "flight_hist"):
                ha, hb = getattr(a, hist), getattr(b, hist)
                assert (ha.count, ha.total, ha.sq_total, ha.min, ha.max, ha.bins) == (
                    hb.count, hb.total, hb.sq_total, hb.min, hb.max, hb.bins)


class TestBarrierAttribution:
    def test_straggler_and_waits(self):
        net = SimNetwork(4, NIC_NS83820)
        net.clock.advance(2, 500.0)
        net.barrier()
        (rec,) = net.ledger.barrier_records
        assert rec.straggler == 2
        assert rec.skew_us == pytest.approx(500.0)
        assert rec.rounds == butterfly_rounds(4)
        # the straggler waits least; early arrivers pay its skew on top
        assert rec.wait_us[2] == min(rec.wait_us)
        assert rec.wait_us[0] == pytest.approx(rec.wait_us[2] + 500.0)
        # sync cost is the pure rounds x flight term
        # 16-byte flight on NS 83820: 100us one-way + 16 bytes / 60 MB/s
        assert rec.sync_us == pytest.approx(rec.rounds * (100.0 + 16.0 / 60.0))
        assert len(rec.round_skew_us) == rec.rounds

    def test_straggler_counts_accumulate(self):
        net = SimNetwork(4, NIC_NS83820)
        net.clock.advance(1, 100.0)
        net.barrier()
        net.clock.advance(1, 100.0)
        net.barrier()
        net.clock.advance(3, 100.0)
        net.barrier()
        counts = net.ledger.straggler_counts()
        assert counts[1] == 2
        assert counts[3] == 1

    def test_rollup_properties(self):
        net = SimNetwork(2, NIC_NS83820)
        net.barrier()
        net.barrier()
        led = net.ledger
        assert led.barrier_rounds == 2
        assert led.barrier_sync_us == pytest.approx(
            sum(b.sync_us for b in led.barrier_records))
        assert led.barrier_wait_us >= led.barrier_sync_us


class TestExchangeRecords:
    def test_exchange_phase_brackets_traffic(self):
        net = SimNetwork(2, NIC_NS83820)
        with net.exchange_phase("test_xchg", n_particles=7):
            net.message_round([0], [1], [6000])
        (rec,) = net.ledger.exchange_records
        assert rec.kind == "test_xchg"
        assert rec.messages == 1
        assert rec.bytes == 6000
        assert rec.n_particles == 7
        assert rec.dur_us > 0.0
        totals = net.ledger.exchange_totals()
        assert totals["test_xchg"]["count"] == 1
        assert totals["test_xchg"]["bytes"] == 6000


class TestReset:
    def test_ledger_reset(self):
        net = SimNetwork(2, NIC_NS83820)
        net.message_round([0], [1], [100])
        net.barrier()
        net.reset_stats()
        assert net.ledger.messages == 0
        assert net.ledger.barrier_records == []
        assert net.ledger.exchange_records == []

    def test_message_stats_reset(self):
        net = SimNetwork(2, NIC_NS83820)
        net.message_round([0], [1], [100])
        net.barrier()
        net.reset_stats()
        assert net.stats.messages == 0
        assert net.stats.bytes == 0
        assert net.stats.barriers == 0


class TestExportAndValidation:
    def _run(self):
        net = SimNetwork(4, NIC_INTEL82540EM)
        with net.exchange_phase("ring", n_particles=3):
            net.allgather(nbytes_each=180)
        net.clock.advance(0, 50.0)
        net.barrier()
        return net

    def test_as_dict_validates(self):
        net = self._run()
        doc = net.ledger.as_dict()
        assert validate_comm_ledger(doc) is doc
        assert doc["schema"] == COMM_LEDGER_SCHEMA
        assert doc["nic"] == NIC_INTEL82540EM.name
        assert doc["barriers"] == 1
        assert doc["barrier_records"][0]["straggler"] == 0

    def test_validation_failures(self):
        with pytest.raises(LedgerError):
            validate_comm_ledger([])
        with pytest.raises(LedgerError):
            validate_comm_ledger({"schema": "bogus/9"})
        doc = self._run().ledger.as_dict()
        del doc["links"]
        with pytest.raises(LedgerError):
            validate_comm_ledger(doc)
        doc = self._run().ledger.as_dict()
        doc["links"] = [{"src": 0}]
        with pytest.raises(LedgerError):
            validate_comm_ledger(doc)

    def test_trace_events_pass_timeline_validation(self):
        net = self._run()
        events = net.ledger.trace_events()
        validate_timeline({"traceEvents": events})
        names = {e["name"] for e in events}
        assert "net.barrier.wait" in names
        assert "net.exchange.ring" in names
        # one wait lane per rank, metadata row first
        assert events[0]["ph"] == "M"
        waits = [e for e in events if e["name"] == "net.barrier.wait"]
        assert {e["tid"] for e in waits} == {0, 1, 2, 3}

    def test_merge_comm_summaries(self):
        a, b = self._run(), self._run()
        merged = merge_comm_summaries(
            [a.ledger.summary(), b.ledger.summary()])
        assert merged["schema"] == COMM_LEDGER_SCHEMA
        assert len(merged["networks"]) == 2
        assert merged["messages"] == a.ledger.messages + b.ledger.messages
        assert merged["bytes"] == a.ledger.bytes + b.ledger.bytes
        assert merged["barriers"] == 2
        assert merged["barrier_sync_us"] == pytest.approx(
            a.ledger.barrier_sync_us + b.ledger.barrier_sync_us)

"""The headline registry (``repro.telemetry.HEADLINE``): every
observatory states its headline numbers once, as columns read out of
its summary document, and every consumer projects that table.

Three things are pinned here: (a) under the supervisor the bus record,
the ``state.json`` written beside it and the ``service metrics`` gauges
agree ``==`` on every column they share, at every checkpoint; (c) every
column reads a finite value from a real summary and ``None`` from an
empty one, and every gauge name is a legal, round-tripping OpenMetrics
name; and the table in ``docs/observability.md`` lists exactly the
registry's columns.  The denormal-span rank ledger and the strict JSON
writer close the one way a non-finite number used to reach the disk.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro.bench.history import BENCH, RULES
from repro.core import BlockTimestepIntegrator
from repro.io import write_json_atomic
from repro.models import plummer_model
from repro.parallel import CopyAlgorithm, ParallelBlockIntegrator, SimNetwork
from repro.service import supervisor as supervisor_mod
from repro.service.bus import SnapshotBus
from repro.service.consumers import read_archive
from repro.service.jobs import JobPaths, JobSpec, write_state
from repro.service.records import RECORD_KINDS
from repro.service.supervisor import Supervisor, publish_headlines
from repro.telemetry import (
    HEADLINE,
    FlopsLedger,
    RankLedger,
    RegimeTracker,
    SignatureRecorder,
    SpanFold,
    Tracer,
    job_metrics,
    parse_openmetrics,
    render_openmetrics,
)
from repro.telemetry.openmetrics import metric_name

EPS2 = (1.0 / 64.0) ** 2

#: The job of ISSUE 18's first disagreement: short, so the time outside
#: any blockstep (startup force pass) is a visible share of the span.
SERIAL = {"model": "plummer", "n": 64, "seed": 13, "t_end": 0.25,
          "backend": "direct"}
PARALLEL = {"model": "plummer", "n": 24, "seed": 17, "t_end": 0.125,
            "eta": 0.02, "backend": "direct", "algorithm": "copy", "ranks": 3}


def strict_loads(text):
    def refuse(constant):
        raise AssertionError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=refuse)


# -- (a) one answer under the supervisor --------------------------------------


@pytest.mark.parametrize("params, sections", [
    (SERIAL, {"signatures", "efficiency"}),
    (PARALLEL, {"signatures", "efficiency", "rank"}),
], ids=["serial", "parallel"])
def test_bus_state_and_gauges_agree_at_every_checkpoint(
    tmp_path, monkeypatch, params, sections
):
    spec = JobSpec.from_dict({
        "schema": "repro.job/1", "kind": "run", "name": "agree",
        "params": params, "checkpoint_every": 8, "sample_every": 8,
    })
    sup = Supervisor.submit(spec, tmp_path / "agree")
    real_write_state = supervisor_mod.write_state
    checked: list[str] = []

    def checking_write_state(paths, status, **fields):
        state = real_write_state(paths, status, **fields)
        if "last_checkpoint" not in fields:
            return state
        # the synchronous bus has archived this checkpoint's records
        on_bus = {r.kind: r.payload for r in read_archive(paths.archive)}
        on_disk = strict_loads(paths.state.read_text())
        gauges = {name: value
                  for name, _, value in job_metrics("agree", sup.status())}
        for section in HEADLINE.values():
            payload = on_bus.get(section.kind)
            if payload is None:
                continue
            in_state = section.collect("state", on_disk)
            shared = [c for c in section.columns if c.bus and c.name in in_state]
            assert shared, section.name
            for column in shared:
                assert in_state[column.name] == payload[column.name], column
                if column.job_gauge:
                    assert gauges[column.job_gauge] == payload[column.name]
            checked.append(section.name)
        return state

    monkeypatch.setattr(supervisor_mod, "write_state", checking_write_state)
    assert sup.execute() == "completed"
    n_checkpoints = sum(
        r.kind == "checkpoint" for r in read_archive(sup.paths.archive))
    assert n_checkpoints >= 3
    assert set(checked) == sections
    # every checkpoint, plus the terminal state that re-states the last
    assert len(checked) == len(sections) * (n_checkpoints + 1)


# -- (c) one walk over the registry -------------------------------------------


@pytest.fixture(scope="module")
def summaries():
    """A real ``summary()`` per section: a direct N = 64 run for the
    signature and efficiency observatories, ``CopyAlgorithm`` on
    ``SimNetwork(4)`` under ``thread:2`` for the rank observatory."""
    regimes = RegimeTracker()
    ledger = FlopsLedger(keep=False)
    fold = SpanFold([SignatureRecorder(callback=regimes.update, keep=False),
                     ledger])
    integ = BlockTimestepIntegrator(
        plummer_model(64, seed=13), eps2=EPS2,
        tracer=Tracer(enabled=True, sinks=[fold]))
    while integ.scheduler.next_block()[0] <= 0.0625:
        integ.step()

    ranks = RankLedger()  # kept records: the placement block needs them
    network = SimNetwork(4)
    algorithm = CopyAlgorithm(network, EPS2, executor="thread:2")
    try:
        parallel = ParallelBlockIntegrator(
            plummer_model(32, seed=13), EPS2, algorithm).observe_ranks(ranks)
        for _ in range(6):
            parallel.step()
    finally:
        algorithm.executor.close()
    return {
        "signatures": regimes.summary(),
        "efficiency": ledger.summary(),
        "rank": ranks.summary(comm=network.ledger),
    }


def all_finite(value):
    if isinstance(value, dict):
        return bool(value) and all(all_finite(v) for v in value.values())
    if isinstance(value, str):
        return bool(value)
    return isinstance(value, (int, float)) and math.isfinite(value)


COLUMNS = [(section, column)
           for section in HEADLINE.values() for column in section.columns]


@pytest.mark.parametrize(
    "section, column", COLUMNS,
    ids=[f"{s.name}.{c.name}" for s, c in COLUMNS])
class TestEveryColumn:
    def test_reads_a_finite_value_from_a_real_summary(
        self, summaries, section, column
    ):
        value = column.value(summaries[section.name])
        assert all_finite(value), value
        # shown through the column's one display format
        assert column.show(value) and column.show(None) == "-"

    def test_reads_none_from_an_empty_section(self, section, column):
        for empty in ({}, None, [], {"real_skew_us": None, "placement": 3}):
            assert column.value(empty) is None

    def test_gauge_names_are_legal_and_round_trip(self, section, column):
        for name in filter(None, (column.gauge, column.job_gauge)):
            assert metric_name(name) == name
            sample = (name, {"job": "x"}, 1.5)
            assert parse_openmetrics(render_openmetrics([sample])) == [sample]


def test_registry_shape():
    assert list(HEADLINE) == ["signatures", "efficiency", "rank"]
    # the bus kinds are pinned (archives name them), and the bus knows them
    kinds = [section.kind for section in HEADLINE.values()]
    assert kinds == ["signature", "efficiency", "rank"]
    assert set(kinds) < set(RECORD_KINDS)
    for name, section in HEADLINE.items():
        assert section.name == name
        names = [c.name for c in section.columns]
        assert len(names) == len(set(names))
        # the status and report sentences only name columns of the section
        for sentence in (section.status, section.report):
            assert set(re.findall(r"{(\w+)}", sentence)) <= set(names)
    # history columns, and the gauges, are unique across the registry
    for face in ("history", "gauge", "job_gauge"):
        keys = [c.name if face == "history" else c.key(face)
                for s in (BENCH, *HEADLINE.values())
                for c in s.columns if c.key(face)]
        assert len(keys) == len(set(keys)), face


def test_every_rule_watches_a_history_column():
    history = {c.name for s in (BENCH, *HEADLINE.values())
               for c in s.columns if c.history}
    assert {rule.column for rule in RULES} <= history


def test_bus_payload_and_state_keys_are_the_pinned_ones(summaries):
    """What must not move: the keys consumers already read."""
    bus = {name: set(section.project("bus", section.read(summaries[name])))
           for name, section in HEADLINE.items()}
    assert bus == {
        "signatures": {"regime", "n_regimes", "dominant_regime",
                       "dominant_share", "blocksteps", "changes", "lane"},
        "efficiency": {"fraction_of_peak", "real_gflops", "blocksteps",
                       "clock", "top_loss"},
        "rank": {"blocksteps", "tasks", "n_ranks", "utilisation",
                 "real_skew_us_mean", "real_skew_us_max",
                 "publish_bytes_per_step"},
    }
    state: dict = {}
    for name, section in HEADLINE.items():
        state.update(section.project("state", section.read(summaries[name])))
    assert set(state) == {
        "regime", "n_regimes", "dominant_regime", "dominant_share",
        "regime_lane", "fraction_of_peak", "real_gflops", "rank"}
    assert set(state["rank"]) == {
        "n_ranks", "real_skew_us_mean", "utilisation",
        "publish_bytes_per_step"}


# -- the way out is as strict as the way in -----------------------------------


def denormal_span_ledger():
    """One dispatch whose span is too short for its tasks' own clock
    readings: busy / span overflows to inf."""
    ledger = RankLedger(keep=False)
    ledger.observe({
        "backend": "thread", "span_wall_us": 5e-324, "t_start_us": 1.0,
        "publish_bytes": 64,
        "samples": [{"rank": 0, "wall_us": 10.0, "cpu_us": 1.0},
                    {"rank": 1, "wall_us": 20.0, "cpu_us": 1.0}],
    })
    ledger.advance()
    return ledger


class _Collect:
    name = "collect"

    def __init__(self):
        self.records = []

    def accept(self, record):
        self.records.append(record)

    def close(self):
        pass


def test_denormal_span_writes_strict_json_with_zero_utilisation(tmp_path):
    consumer = _Collect()
    bus = SnapshotBus([consumer])
    fields = publish_headlines(bus, 0.0, {"rank": denormal_span_ledger()})
    bus.close()
    paths = JobPaths(tmp_path / "job")
    write_state(paths, "running", **fields)
    state = strict_loads(paths.state.read_text())
    assert state["rank"]["utilisation"] == 0.0
    (record,) = consumer.records
    assert record.kind == "rank" and record.payload["utilisation"] == 0.0
    gauges = {n: v for n, _, v in job_metrics("job", state)}
    assert gauges["repro_job_rank_utilisation"] == 0.0


def test_atomic_writer_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "doc.json"
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="doc.json"):
            write_json_atomic({"fine": 1.0, "nested": {"bad": bad}}, path)
    assert not path.exists()
    write_json_atomic({"fine": 1.0}, path)
    assert strict_loads(path.read_text()) == {"fine": 1.0}


def test_spec_is_written_atomically_with_the_same_bytes(tmp_path):
    spec = JobSpec.from_dict({
        "schema": "repro.job/1", "kind": "run", "name": "bytes",
        "params": SERIAL,
    })
    sup = Supervisor.submit(spec, tmp_path / "bytes")
    assert sup.paths.spec.read_text() == (
        json.dumps(spec.as_dict(), indent=2, sort_keys=True) + "\n")
    assert not list(sup.paths.root.glob("*.tmp"))


# -- the doc table cannot rot ---------------------------------------------------


def test_doc_table_lists_exactly_the_registry_columns():
    doc = (Path(__file__).parents[2] / "docs" / "observability.md").read_text()
    body = doc.split("## One headline table", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) > 2 and re.fullmatch(r"`\w+`", cells[0]):
            listed.add((cells[1].strip("`"), cells[0].strip("`")))
    registry = {(section.name, column.name)
                for section in HEADLINE.values() for column in section.columns}
    registry |= {("benchmark", column.name) for column in BENCH.columns}
    assert listed == registry

"""Every ``validate_*`` is a spec table read by one checker
(:mod:`repro.schema`).  One parametrised walk over the table: each spec
accepts a document its own producer wrote, and rejects — with its own
exception class — a non-object, a wrong schema tag, each missing
required key and a NaN in each finite field, at every depth of the
spec."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.artifact import ARTIFACT_SPEC, ArtifactError, validate_artifact
from repro.bench.sampling import (
    SAMPLE_ARTIFACT_SPEC,
    SAMPLE_KIND,
    validate_sample_artifact,
)
from repro.parallel import SimNetwork
from repro.parallel.ledger import (
    COMM_LEDGER_SPEC,
    LedgerError,
    validate_comm_ledger,
)
from repro.schema import check
from repro.telemetry import (
    SIGNATURE_SCHEMA,
    EfficiencyError,
    FlopsLedger,
    RankError,
    RankLedger,
    RegimeTracker,
    SignatureError,
    SpanEvent,
    build_timeline,
    schedule_signature,
    validate_efficiency,
    validate_rank_record,
    validate_rank_section,
    validate_signature_summary,
    validate_timeline,
)
from repro.telemetry.efficiency import EFFICIENCY_SPEC
from repro.telemetry.ranks import RANK_RECORD_SPEC, RANK_SECTION_SPEC
from repro.telemetry.signatures import SIGNATURE_SUMMARY_SPEC
from repro.telemetry.timeline import TIMELINE_SPEC

BASELINE = Path(__file__).parents[2] / "benchmarks" / "baseline.json"


def efficiency_doc():
    ledger = FlopsLedger()
    ledger.emit(SpanEvent(
        name="blockstep", span_id=1, parent_id=None, depth=0, t_start_us=0.0,
        dur_us=100.0, phase="host", attrs={"n_block": 8, "n": 64}))
    return ledger.summary()


def summary_doc():
    tracker = RegimeTracker()
    for i, size in enumerate([1, 1, 32, 32]):
        tracker.update(schedule_signature(i, size, 64))
    return tracker.summary()


def rank_ledger():
    ledger = RankLedger()
    ledger.observe({
        "backend": "thread", "t_start_us": 10.0, "span_wall_us": 100.0,
        "publish_bytes": 64,
        "samples": [{"rank": r, "pid": 1, "t_start_us": 10.0,
                     "wall_us": 60.0 - 20.0 * r, "cpu_us": 30.0}
                    for r in (0, 1)],
    })
    ledger.advance(t=0.5, n_block=2)
    return ledger


def comm_doc():
    network = SimNetwork(2)
    network.barrier()
    return network.ledger.as_dict()


def sample_doc():
    regime = {"regime": 0, "n_observed": 2, "n_projected": 2,
              "mean_wall_us": 5.0, "ci_low_us": 4.0, "ci_high_us": 6.0}
    return {
        "schema": SIGNATURE_SCHEMA, "kind": SAMPLE_KIND, "params": {},
        "scout_blocksteps": 4, "prefix_blocksteps": 2,
        "projected_blocksteps": 2, "simulated_fraction": 0.5,
        "estimated_total_us": 20.0, "ci_low_us": 18.0, "ci_high_us": 22.0,
        "regimes": [regime], "signatures": summary_doc(),
    }


#: name -> (validator, its exception class, its spec, a valid document)
TABLE = {
    "artifact": (validate_artifact, ArtifactError, ARTIFACT_SPEC,
                 lambda: json.loads(BASELINE.read_text())),
    "efficiency": (validate_efficiency, EfficiencyError, EFFICIENCY_SPEC,
                   efficiency_doc),
    "signature_summary": (validate_signature_summary, SignatureError,
                          SIGNATURE_SUMMARY_SPEC, summary_doc),
    "rank_record": (validate_rank_record, RankError, RANK_RECORD_SPEC,
                    lambda: rank_ledger().records[0].as_record()),
    "rank_section": (
        validate_rank_section, RankError, RANK_SECTION_SPEC,
        lambda: rank_ledger().summary(comm={"mean_barrier_skew_us": 1.0})),
    "comm_ledger": (validate_comm_ledger, LedgerError, COMM_LEDGER_SPEC,
                    comm_doc),
    "sample_artifact": (validate_sample_artifact, SignatureError,
                        SAMPLE_ARTIFACT_SPEC, sample_doc),
    "timeline": (
        validate_timeline, ValueError, TIMELINE_SPEC,
        lambda: build_timeline([SpanEvent(
            name="force", span_id=1, parent_id=None, depth=0,
            t_start_us=0.0, dur_us=5.0)])),
}


def breakages(spec, doc, path=()):
    """(label, path, edit) for every way this walk knows to break
    ``doc`` against ``spec``; ``edit`` mutates the object at ``path``."""
    where = ".".join(map(str, path)) or "root"
    yield f"{where} not an object", path, None
    if "schema" in spec:
        yield f"{where} wrong schema", path, lambda obj: obj.update(schema="bogus/0")
    for key, rule in spec.get("fields", {}).items():
        if isinstance(rule, tuple) and rule[0] == "opt":
            if doc.get(key) is None:
                continue
            rule = rule[1]
        else:
            yield f"{where} missing {key}", path, lambda obj, k=key: obj.pop(k)
        if isinstance(rule, tuple) and rule[0] == "number":
            yield (f"{where} NaN {key}", path,
                   lambda obj, k=key: obj.__setitem__(k, float("nan")))
        elif isinstance(rule, dict):
            yield from breakages(rule, doc[key], path + (key,))
        elif isinstance(rule, tuple) and rule[0] == "list" and doc[key] \
                and isinstance(rule[1], dict):
            yield from breakages(rule[1], doc[key][0], path + (key, 0))


def broken(doc, path, edit):
    doc = copy.deepcopy(doc)
    if not path:
        if edit is None:
            return []
        edit(doc)
        return doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if edit is None:
        parent[path[-1]] = []
    else:
        edit(parent[path[-1]])
    return doc


@pytest.mark.parametrize("name", sorted(TABLE))
def test_spec_accepts_its_producer_and_rejects_every_breakage(name):
    validate, error, spec, make = TABLE[name]
    doc = make()
    assert validate(doc) is doc
    cases = list(breakages(spec, doc))
    assert len(cases) >= 3
    for label, path, edit in cases:
        with pytest.raises(error):
            validate(broken(doc, path, edit))
            pytest.fail(f"{name}: accepted a document with {label}")


def test_messages_name_the_source_and_the_place():
    with pytest.raises(EfficiencyError, match=r"^here: buckets\.host\.flops "
                                              "must be a finite number$"):
        doc = efficiency_doc()
        doc["buckets"]["host"]["flops"] = float("inf")
        validate_efficiency(doc, source="here")
    with pytest.raises(KeyError, match="x: schema 'b' not supported"):
        check({"schema": "b"}, {"schema": "a"}, "x", KeyError)


def test_nested_sections_fail_under_the_outer_class():
    """An artifact's observatory sections are checked in place: a bad
    one is an ArtifactError that names the benchmark it sits in."""
    doc = json.loads(BASELINE.read_text())
    entry = next(b for b in doc["benchmarks"] if "efficiency" in b)
    entry["efficiency"]["peak_flops"] = float("nan")
    with pytest.raises(
            ArtifactError, match=r"benchmarks\[\d+\]\.efficiency\.peak_flops"):
        validate_artifact(doc)

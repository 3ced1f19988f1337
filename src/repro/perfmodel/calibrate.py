"""Data-driven calibration: fit the perfmodel to measured artifacts.

The model constants of this package are the *paper's* 2003 hardware
(Athlon hosts, NS 83820 NICs, 90 MHz pipelines).  The ROADMAP's open
item is to close the loop: fit the free constants from measured
``BENCH_*.json`` artifacts instead, keyed by environment fingerprint,
so ``model_over_measured`` can be held to a few percent on a machine
the model has actually seen.

Three fits, all ordinary least squares on ledger-fed measurements:

* **barrier flight time** per butterfly round, per NIC: the comm
  ledger reports total barrier synchronisation time and total rounds
  per network; the through-origin LSQ slope of sync-vs-rounds is the
  per-round flight — the constant
  :func:`repro.parallel.barrier.butterfly_barrier_us` predicts as
  ``rtt/2 + 16/bandwidth``;
* **NIC latency/bandwidth**: each (src, dst, kind) link reports mean
  message size and mean flight time; the linear NIC cost model says
  ``flight = latency + bytes/bandwidth``, so a degree-1 polyfit over a
  NIC's link points recovers its one-way latency [us] and bandwidth
  [MB/s] — separating the 16-byte collective regime from the payload
  regime (the two ends of the fitted line);
* **host scale**: benchmarks publishing both ``model_us_per_step`` and
  a measured per-step time give (model, measured) pairs; the
  through-origin LSQ scale maps the analytic prediction onto this
  environment, and the per-benchmark ``model_over_measured`` anchors
  are stored so the regression gate can hold future runs against them.

The result persists to ``benchmarks/calibration.json``
(:data:`CALIBRATION_SCHEMA`), one entry per environment key; the bench
comparator (:mod:`repro.bench.compare`) tightens its drift threshold
from 50% to 10% when the current artifact's environment is calibrated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from ..io.runlog import write_json_atomic
from ..schema import check

#: Bump on breaking layout changes of the calibration file.
CALIBRATION_SCHEMA = "repro.perfmodel.calibration/1"

#: The calibration file: one fit per environment key.
CALIBRATION_SPEC = {
    "what": "root",
    "schema": CALIBRATION_SCHEMA,
    "fields": {"environments": {
        "values": {"fields": {"nics": None, "model_anchors": None}},
    }},
}

#: Where the fitted constants live, next to baseline.json.
DEFAULT_CALIBRATION_PATH = Path("benchmarks") / "calibration.json"

#: Derived keys accepted as "the measured per-step time" of an entry,
#: in preference order (virtual-clock first: deterministic).
_MEASURED_KEYS = (
    "virtual_us_per_step",
    "hybrid_us_per_step",
    "measured_us_per_step",
)


class CalibrationError(ValueError):
    """Raised for schema violations and unusable calibration inputs."""


def _lsq_through_origin(xs: list[float], ys: list[float]) -> float | None:
    """Slope of y = s*x minimising sum (y - s*x)^2; None if degenerate."""
    sxx = sum(x * x for x in xs)
    if sxx <= 0.0:
        return None
    return sum(x * y for x, y in zip(xs, ys)) / sxx


def _lsq_line(xs: list[float], ys: list[float]) -> tuple[float, float] | None:
    """(slope, intercept) of y = a*x + b; None when x has no spread."""
    n = len(xs)
    if n < 2:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx <= 0.0:
        return None
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def _comm_networks(entry: dict[str, Any]) -> list[dict[str, Any]]:
    comm = entry.get("comm")
    if not isinstance(comm, dict):
        return []
    networks = comm.get("networks")
    return [n for n in networks if isinstance(n, dict)] if isinstance(
        networks, list) else []


def _measured_us(entry: dict[str, Any]) -> float | None:
    derived = entry.get("derived", {})
    for key in _MEASURED_KEYS:
        value = derived.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and value > 0:
            return float(value)
    return None


def fit_environment(artifacts: list[dict[str, Any]]) -> dict[str, Any]:
    """Fit one environment's constants from its artifacts.

    All artifacts must share one environment fingerprint (the caller
    groups; :func:`calibrate_artifacts` does this).  Returns the
    environment entry of the calibration file.
    """
    # deferred: bench imports perfmodel
    from ..bench.history import env_key, model_ratio

    if not artifacts:
        raise CalibrationError("no artifacts to calibrate from")
    keys = {env_key(a["environment"]) for a in artifacts}
    if len(keys) != 1:
        raise CalibrationError(
            f"artifacts span {len(keys)} environments; calibrate one at a time"
        )

    # per NIC: barrier sync-vs-rounds points and link (bytes, flight) points
    barrier_points: dict[str, tuple[list[float], list[float]]] = {}
    link_points: dict[str, tuple[list[float], list[float]]] = {}
    model_pairs: list[tuple[float, float]] = []
    anchors: dict[str, float] = {}
    sources: list[str] = []

    for artifact in artifacts:
        sources.append(str(artifact.get("label", artifact.get("suite", "?"))))
        for entry in artifact["benchmarks"]:
            for net in _comm_networks(entry):
                nic = str(net.get("nic", "?"))
                rounds = float(net.get("barrier_rounds", 0))
                sync = float(net.get("barrier_sync_us", 0.0))
                if rounds > 0:
                    xs, ys = barrier_points.setdefault(nic, ([], []))
                    xs.append(rounds)
                    ys.append(sync)
                for link in net.get("links", []):
                    mean_bytes = float(link.get("mean_bytes", 0.0))
                    mean_flight = float(link.get("mean_flight_us", 0.0))
                    if link.get("messages", 0) and mean_flight > 0.0:
                        xs, ys = link_points.setdefault(nic, ([], []))
                        xs.append(mean_bytes)
                        ys.append(mean_flight)
            derived = entry.get("derived", {})
            model_us = derived.get("model_us_per_step")
            measured_us = _measured_us(entry)
            ratio = model_ratio(entry)
            if isinstance(model_us, (int, float)) and measured_us:
                model_pairs.append((float(model_us), measured_us))
            if ratio is not None:
                anchors[entry["name"]] = ratio

    nics: dict[str, dict[str, Any]] = {}
    for nic in sorted(set(barrier_points) | set(link_points)):
        fit: dict[str, Any] = {}
        if nic in barrier_points:
            xs, ys = barrier_points[nic]
            slope = _lsq_through_origin(xs, ys)
            if slope is not None:
                fit["barrier_flight_us"] = slope
                fit["barrier_rounds_seen"] = int(sum(xs))
        if nic in link_points:
            xs, ys = link_points[nic]
            line = _lsq_line(xs, ys)
            if line is not None and line[0] > 0.0 and line[1] > 0.0:
                slope, intercept = line
                fit["latency_us"] = intercept          # one-way
                fit["rtt_latency_us"] = 2.0 * intercept
                fit["bandwidth_mbs"] = 1.0 / slope     # MB/s == bytes/us
                fit["link_points"] = len(xs)
        if fit:
            nics[nic] = fit

    host_scale = None
    if model_pairs:
        host_scale = _lsq_through_origin(
            [m for m, _ in model_pairs], [d for _, d in model_pairs]
        )

    return {
        "env_key": keys.pop(),
        "sources": sources,
        "n_artifacts": len(artifacts),
        "nics": nics,
        "host_scale": host_scale,
        "model_anchors": anchors,
    }


def calibrate_artifacts(
    artifacts: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Group artifacts by environment and fit each group.

    Returns a full calibration document (merge it into an existing file
    with :func:`merge_calibration`).
    """
    from ..bench.history import env_key  # deferred: bench imports perfmodel

    groups: dict[str, list[dict[str, Any]]] = {}
    for artifact in artifacts:
        groups.setdefault(env_key(artifact["environment"]), []).append(artifact)
    if not groups:
        raise CalibrationError("no artifacts to calibrate from")
    return {
        "schema": CALIBRATION_SCHEMA,
        "environments": {
            key: fit_environment(group) for key, group in groups.items()
        },
    }


def validate_calibration(obj: Any, source: str = "calibration") -> dict[str, Any]:
    """Check a calibration document; returns it on success."""
    return check(obj, CALIBRATION_SPEC, source, CalibrationError)


def load_calibration(path: str | Path) -> dict[str, Any]:
    """Read and validate; a missing file is an empty calibration."""
    path = Path(path)
    if not path.exists():
        return {"schema": CALIBRATION_SCHEMA, "environments": {}}
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"{path}: not valid JSON: {exc}") from exc
    return validate_calibration(obj, source=str(path))


def merge_calibration(
    base: dict[str, Any], update: dict[str, Any]
) -> dict[str, Any]:
    """New document with ``update``'s environments replacing ``base``'s
    (recalibrating a machine overwrites its old fit; other machines'
    fits are kept)."""
    validate_calibration(base, source="base")
    validate_calibration(update, source="update")
    merged = {
        "schema": CALIBRATION_SCHEMA,
        "environments": {**base["environments"], **update["environments"]},
    }
    return merged


def save_calibration(calibration: dict[str, Any], path: str | Path) -> Path:
    """Validate and write (atomic rename, stable key order)."""
    validate_calibration(calibration, source=str(path))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_json_atomic(calibration, path)


def calibrated_environment(
    calibration: dict[str, Any] | None, environment: dict[str, Any]
) -> dict[str, Any] | None:
    """The calibration entry covering ``environment``, or None."""
    if not calibration:
        return None
    from ..bench.history import env_key  # deferred: bench imports perfmodel

    return calibration.get("environments", {}).get(env_key(environment))

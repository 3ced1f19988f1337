"""Recover a simulated network's NIC constants from its comm ledgers.

The simulated network charges every message the section-4.4 cost
model: a flight of half the NIC's round trip plus the payload over its
bandwidth.  Its comm ledger reports what it charged, so ordinary least
squares over the ledger gets the constants back:

* **barrier flight** per butterfly round: total barrier
  synchronisation time against total rounds, through the origin — the
  constant :func:`repro.parallel.barrier.butterfly_barrier_us`
  charges as ``rtt/2 + 16/bandwidth``;
* **latency and bandwidth**: each (src, dst, kind) link reports its
  mean message size and mean flight, and ``flight = rtt/2 +
  bytes/bandwidth`` is a line through those points — the 16-byte
  collectives at one end, the payload exchanges at the other.

A run that recovers the constants it was given closes the loop the
paper's section 4.4 tuning relied on; ``benchmarks/test_virtual_runs.py``
holds the fig. 19 survey's ledgers to it.
"""

from __future__ import annotations

from typing import Any, Iterable


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


def fit_nics(networks: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Fit each NIC's constants from per-network ledger summaries.

    ``networks`` are :meth:`repro.parallel.ledger.CommLedger.summary`
    documents (an artifact's ``comm["networks"]``); networks sharing a
    NIC name are pooled.  Returns, per NIC name, whichever of
    ``barrier_flight_us``, ``rtt_latency_us`` and ``bandwidth_mbs``
    (MB/s == bytes/us) its ledgers determine.
    """
    barrier: dict[str, tuple[list[float], list[float]]] = {}
    links: dict[str, tuple[list[float], list[float]]] = {}
    for net in networks:
        nic = str(net["nic"])
        if net.get("barrier_rounds", 0) > 0:
            xs, ys = barrier.setdefault(nic, ([], []))
            xs.append(float(net["barrier_rounds"]))
            ys.append(float(net["barrier_sync_us"]))
        for link in net.get("links", []):
            if link["messages"] and link["mean_flight_us"] > 0.0:
                xs, ys = links.setdefault(nic, ([], []))
                xs.append(float(link["mean_bytes"]))
                ys.append(float(link["mean_flight_us"]))

    fits: dict[str, dict[str, float]] = {}
    for nic in sorted(set(barrier) | set(links)):
        fit: dict[str, float] = {}
        flight = _lsq_through_origin(*barrier[nic]) if nic in barrier else None
        if flight is not None:
            fit["barrier_flight_us"] = flight
        line = _lsq_line(*links[nic]) if nic in links else None
        if line is not None and line[0] > 0.0 and line[1] > 0.0:
            fit["rtt_latency_us"] = 2.0 * line[1]
            fit["bandwidth_mbs"] = 1.0 / line[0]
        if fit:
            fits[nic] = fit
    return fits

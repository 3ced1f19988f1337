"""End-to-end claim benchmark: five blockstep workloads, end-to-end and
per-layer metrics, every output checked.  See README.md beside this
file for the workload table, the metric glossary and the protocol.

Whole suite (both passes on every workload, human table, JSON artifact)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 2003 --out BENCH_e2e.json

One workload, one pass, result as the last stdout line (the form
``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload serial_direct --seed 7 --seconds 20 --trace 0

Exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.bench.env import environment_fingerprint  # noqa: E402
from repro.perfmodel.report import all_anchors_hold, build_report  # noqa: E402

import tracing  # noqa: E402
from workloads import BASE_SEED, WORKLOADS  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SCHEMA = "repro.bench_e2e/1"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Share of ``--seconds`` the repeats get when the traced pass runs too;
#: the rest is left for baseline passes and probes.
TRACED_SHARE = 0.8
MIN_REPEATS = 3
BASELINE_REPEATS = 3


def cpu_seconds() -> float:
    """CPU seconds consumed so far by this process and its live
    children (the pool workers), from the scheduler's ns counters."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/schedstat") as fh:
            total += int(fh.read().split()[0]) * 1e-9
    return total


def peak_rss_mb() -> float:
    """High-water RSS of the driver plus that of its largest reaped
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_pids() -> list[int]:
    """Every process whose parent is this one, zombies included, from
    ``/proc``: unlike ``multiprocessing.active_children()`` this sees
    helpers multiprocessing starts for itself."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone between listdir and open
        if ppid == me:
            out.append(int(entry))
    return out


def stop_children() -> list:
    """Stop and reap everything this process started; returns the pool
    workers a workload's teardown had failed to stop (a failed check).

    The program's shared-memory arena makes multiprocessing launch a
    ``resource_tracker`` helper, which only exits once every holder of
    its pipe is gone and so would outlive this process; with the workers
    joined and every segment unlinked it has nothing left to track, so
    its pipe is closed and it is waited for here.
    """
    gc.collect()  # a backend dropped unclosed closes itself now, not later
    stray = multiprocessing.active_children()
    for child in stray:
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    return stray


class Region:
    """The timed region of one repeat.

    The workload brackets each stretch of it with ``timed(name,
    stamps)``; ``stamps`` is a list of perf_counter readings taken
    inside the stretch at points that are the same in every repeat (one
    per blockstep, or one per archived record), which the workload may
    fill in after the stretch has ended.  :meth:`segments` cuts the
    region at those stamps.
    """

    def __init__(self, rec: tracing.SpanRecorder) -> None:
        self.rec = rec
        self.wall = 0.0
        self.cpu = 0.0
        self._stretches: list[tuple[float, float, list[float]]] = []

    @contextmanager
    def __call__(self, name: str, stamps: list[float]):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        index = self.rec.begin(name)
        try:
            yield
        finally:
            self.rec.end(index)
            t1 = time.perf_counter()
            self.wall += t1 - t0
            self.cpu += cpu_seconds() - cpu0
            self._stretches.append((t0, t1, stamps))

    def segments(self) -> np.ndarray:
        return np.concatenate([
            np.diff(np.clip([t0, *stamps, t1], t0, t1))
            for t0, t1, stamps in self._stretches])


def floor_of(rows: list[np.ndarray]) -> np.ndarray:
    """Fastest observation of every segment over identical repeats.

    The reference box's CPU speed wanders by 30 % and more for seconds
    to minutes at a time (README, "Noise"), so whole-repeat times, and
    even their minimum, swing with it.  Every repeat does bit-identical
    work, so segment k costs the same in each; its minimum over the
    repeats is the cost with the least interference, and the sum of
    those minima is the region's time on an undisturbed machine.
    """
    return np.min(np.stack(rows), axis=0)


class Session:
    """One workload's repeats, checks and metrics within one run."""

    def __init__(self, cls, seed: int, quick: bool, tmp: Path, expected: dict,
                 yard: Yardstick):
        self.w = cls(seed, quick, tmp)
        self.yard = yard
        self.rec = tracing.SpanRecorder()
        self.expected = expected.get(self.w.name) if seed == BASE_SEED else None
        self.checks: list[tuple[str, bool, str]] = []
        self.samples: dict[bool, list[dict]] = {False: [], True: []}
        self.first: dict | None = None
        self.spent = 0.0
        self.repeats = 0
        self.energy_error: float | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED [{self.w.name}] {name}: {detail}", file=sys.stderr)

    # -- one repeat ---------------------------------------------------------

    def repeat(self, traced: bool, keep: bool = True) -> None:
        """Fresh set-up, one timed region, checks; a crash is a failed
        check, not an abort."""
        t_start = time.perf_counter()
        self.repeats += 1
        self.rec.tag = f"{self.w.name}#{self.repeats}"
        self.rec.spans = []
        try:
            sample = self._repeat(traced)
        except Exception as exc:  # boundary: report and keep measuring
            traceback.print_exc()
            self.check("repeat ran", False, f"{type(exc).__name__}: {exc}")
            sample = None
        if sample is not None and keep:
            self.samples[traced].append(sample)
        self.yard.sample()
        self.spent += time.perf_counter() - t_start

    def _repeat(self, traced: bool) -> dict:
        w, rec = self.w, self.rec
        gc.collect()
        t0 = time.perf_counter()
        ctx = w.setup(rec)
        setup_s = time.perf_counter() - t0
        try:
            region = Region(rec)
            with w.traced(ctx, rec) if traced else nullcontext():
                w.run(ctx, region)
            sample = {
                "setup_s": setup_s,
                "wall_s": region.wall,
                "cpu_s": region.cpu,
                "segments": region.segments(),
                "counts": w.counts(ctx),
                "spans": rec.spans,
            }
            self.check("reached t_end", w.reached(ctx))
            view = {"counts": sample["counts"],
                    "segments": len(sample["segments"]),
                    **w.baseline_view(ctx)}
            if self.first is None:
                self._first_repeat(ctx, view)
            else:
                self.check("repeat identical to the first",
                           view == self.first, _diff(self.first, view))
            if traced:
                sample["interactions"] = w.region_interactions(ctx)
                sample["layer_counts"] = w.layer_counts(ctx)
                sample["task_busy_s"] = getattr(ctx, "task_busy_s", 0.0)
                sample["task_calls"] = getattr(ctx, "task_calls", 0)
                problems = tracing.tree_problems(rec.spans)
                self.check("span tree well-formed", not problems,
                           "; ".join(problems[:3]))
            return sample
        finally:
            w.teardown(ctx)

    def _first_repeat(self, ctx, view: dict) -> None:
        """Checks made once per run, on the first repeat's outputs (every
        later repeat is compared with it bit for bit)."""
        self.first = view
        if self.expected is not None:
            self.check("counts equal expected_counts.json",
                       view["counts"] == self.expected,
                       _diff(self.expected, view["counts"]))
        err = self.w.energy_error(ctx)
        self.energy_error = err
        self.check("energy error within 10x reference",
                   err <= 10 * self.w.energy_error_ref,
                   f"{err:.3e} vs reference {self.w.energy_error_ref:.3e}")

    # -- the plain layer beneath --------------------------------------------

    def baseline(self, repeats: int) -> float | None:
        walls = []
        for _ in range(repeats):
            gc.collect()
            base = self.w.baseline()
            if base is None:
                return None
            walls.append(base.pop("wall_s"))
            mine = {k: self.first[k] for k in base} if self.first else None
            self.check("baseline pass bit-identical", base == mine,
                       _diff(base, mine or {}))
        return min(walls)

    # -- metrics ------------------------------------------------------------

    def wall_floor(self, traced: bool) -> float:
        rows = [s["segments"] for s in self.samples[traced]]
        # a repeat cut differently already failed its identity check
        return float(floor_of(
            [r for r in rows if len(r) == len(rows[0])]).sum())

    def end_to_end(self, rss_mb: float) -> dict:
        untraced = self.samples[False]
        wall = self.wall_floor(False)
        # CPU per wall second is common-mode to the machine's speed, so
        # the floor's CPU cost is that ratio times the floor
        busy = statistics.median(s["cpu_s"] / s["wall_s"] for s in untraced)
        return {
            "setup_s": min(s["setup_s"] for s in untraced),
            "wall_s": wall,
            "particle_steps_per_s":
                untraced[0]["counts"]["particle_steps"] / wall,
            "cpu_s": busy * wall,
            "peak_rss_mb": rss_mb,
        }

    def spread(self) -> dict:
        """What whole repeats read, machine noise included: median, q1,
        q3 and n of the per-repeat values behind each timing."""
        out = {}
        for key in ("setup_s", "wall_s", "cpu_s"):
            values = [s[key] for s in self.samples[False]]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
                out[key] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        return out

    def per_layer(self, baseline_wall: float | None) -> dict:
        w, traced = self.w, self.samples[True]
        spans = traced[0]["spans"]
        names = [s[tracing.NAME] for s in spans]
        same = all([s[tracing.NAME] for s in t["spans"]] == names for t in traced)
        self.check("span sequence identical across traced repeats", same)
        if not same:
            traced = traced[:1]
        # the floor again, now with every span's own time as a segment
        own = floor_of([np.array(tracing.own_times(t["spans"])) for t in traced])
        self_s = tracing.by_name(spans, own)
        span_s = tracing.subtree_times(spans, own)
        total_s = tracing.by_name(spans, span_s)
        # set-up spans are roots of their own; the timed region is the rest
        region_s = [0.0 if sp[tracing.NAME] in ("models.sample", "core.init")
                    else t for sp, t in zip(spans, span_s)]
        calls = Counter(names)
        self_of = lambda *keys: sum(self_s.get(k, 0.0) for k in keys)
        dur = lambda *keys: sum(total_s.get(k, 0.0) for k in keys)
        last = traced[-1]
        counts, inter = last["counts"], last["interactions"]
        steps = np.array([
            tracing.duration(s) for t in traced for s in t["spans"]
            if s[tracing.NAME] == "core.step"]) * 1e6
        wall, traced_wall = self.wall_floor(False), self.wall_floor(True)
        m = {d["name"]: 0.0 for d in DECLARED["per_layer"]}
        m.update({
            "models.sample_s": dur("models.sample"),
            "core.init_s": dur("core.init"),
            "core.step_self_s": self_of("core.step"),
            "core.run_loop_self_s": self_of("core.run"),
            "core.step_p50_us": float(np.percentile(steps, 50)),
            "core.step_p98_us": float(np.percentile(steps, 98)),
            "core.step_samples": steps.size,
            "core.blocksteps": counts["blocksteps"],
            "core.particle_steps": counts["particle_steps"],
            "core.mean_block_size":
                counts["particle_steps"] / counts["blocksteps"],
            "forces.interactions": inter,
            "trace.overhead_ratio": traced_wall / wall,
            "trace.accounted_ratio": sum(
                t for sp, t in zip(spans, region_s) if sp[tracing.PARENT] < 0
            ) / traced_wall,
        })
        # kernel time seen in this process, plus the per-task walls the
        # executor's observer reported from wherever the tasks ran
        busy = dur("forces.set_j", "forces.forces_on") + min(
            t["task_busy_s"] for t in traced)
        if busy:
            m.update({
                "forces.busy_s": busy,
                "forces.calls": calls["forces.forces_on"] + last["task_calls"],
                "forces.ns_per_interaction": busy / inter * 1e9,
                "forces.tile_gflops": 57e-9 * inter / busy,
            })
        if "hardware.forces_on" in calls:
            m.update({
                "hardware.set_j_busy_s": dur("hardware.set_j"),
                "hardware.forces_on_busy_s": dur("hardware.forces_on"),
                "hardware.us_per_interaction":
                    dur("hardware.set_j", "hardware.forces_on") / inter * 1e6,
            })
        if "parallel.forces_on" in calls:
            book = self_of("parallel.set_j", "parallel.forces_on",
                           "parallel.exchange")
            m.update({
                "parallel.bookkeeping_self_s": book,
                "parallel.exchange_s": dur("parallel.exchange"),
                "parallel.host_us_per_message": book / counts["messages"] * 1e6,
                "parallel.execution.publish_s":
                    dur("parallel.execution.publish"),
                "parallel.execution.run_tasks_s":
                    dur("parallel.execution.run_tasks"),
                "parallel.execution.dispatch_self_s": self_of(
                    "parallel.execution.publish",
                    "parallel.execution.run_tasks"),
                "parallel.execution.tasks": last["task_calls"],
            })
            if w.executor != "inline":
                speedup = baseline_wall / wall
                m.update({
                    "parallel.execution.inline_wall_s": baseline_wall,
                    "parallel.execution.exec_speedup": speedup,
                    "parallel.execution.efficiency":
                        speedup / int(w.executor.partition(":")[2]),
                })
        if "service.execute" in calls:
            m.update({
                "service.execute_s": dur("service.execute"),
                "service.resume_segment_s": dur("service.resume_segment"),
                "service.self_s": self_of(
                    "service.execute", "service.resume_segment",
                    "service.emit", "service.write_state"),
                "service.overhead_ratio": wall / baseline_wall,
                "io.busy_s": dur("io.checkpoint_write", "io.checkpoint_read",
                                 "io.restore", "io.snapshot_write"),
            })
        m.update(last["layer_counts"])
        m.update(w.probes(m["core.mean_block_size"]))
        return m


def _diff(a: dict, b: dict) -> str:
    return ", ".join(
        f"{k}: {a.get(k)!r} != {b.get(k)!r}"
        for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))


# -- protocol ---------------------------------------------------------------


def measure(sessions: list[Session], modes: tuple[bool, ...], seconds: float,
            one_repeat: bool) -> None:
    """Repeats interleaved round-robin across workloads, and untraced
    with traced ones, so machine drift hits all alike, until each
    workload has used its seconds."""
    for s in sessions:
        s.spent = 0.0
    pending = list(sessions)
    rounds = 0
    while pending:
        for s in pending:
            for traced in modes:
                s.repeat(traced)
        rounds += 1
        pending = [] if one_repeat else [
            s for s in pending if s.spent < seconds or rounds < MIN_REPEATS]


def run(names: list[str], seed: int, seconds: float, traced: bool,
        quick: bool, expected: dict, tmp: Path) -> dict:
    by_name = {cls.name: cls for cls in WORKLOADS}
    yard = Yardstick()
    sessions = [Session(by_name[n], seed, quick, tmp, expected, yard)
                for n in names]
    shm_before = set(os.listdir("/dev/shm"))
    baselines = {}
    try:
        for s in sessions:
            s.repeat(traced=False, keep=False)  # warm-up, checked but untimed
        if traced:
            measure(sessions, (False, True), seconds * TRACED_SHARE, quick)
        else:
            measure(sessions, (False,), seconds, quick)
        rss_mb = peak_rss_mb()  # before the baseline passes add to it
        for s in sessions:
            many = traced and not quick
            baselines[s.w.name] = s.baseline(BASELINE_REPEATS if many else 1)
    finally:
        stray = stop_children()
    left = child_pids()
    anchors = all_anchors_hold(build_report())
    speed = yard.speed_index()
    leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    out = {}
    for s in sessions:
        s.check("every pool closed by its teardown", not stray, str(stray))
        s.check("no child process left", not left, str(left))
        s.check("no /dev/shm segment left", not leaked, str(leaked))
        s.check("perfmodel anchors hold", anchors)
        end_to_end = s.end_to_end(rss_mb) if s.samples[False] else {}
        per_layer = (s.per_layer(baselines[s.w.name])
                     if s.samples[False] and s.samples[True] else {})
        if per_layer:
            per_layer["machine.speed_index"] = speed
        failed = sum(not ok for _, ok, _ in s.checks)
        out[s.w.name] = {
            "why": s.w.why,
            "n": s.w.n,
            "t_end": s.w.t_end,
            "counts": s.first["counts"] if s.first else None,
            "energy_error": s.energy_error,
            "repeats": {"untraced": len(s.samples[False]),
                        "traced": len(s.samples[True])},
            "speed_index": speed,
            "end_to_end": at_reference_speed(end_to_end, "end_to_end", speed),
            "spread": s.spread(),
            "per_layer": at_reference_speed(per_layer, "per_layer", speed),
            "attempted": len(s.checks),
            "failed": failed,
            "fail_ratio": failed / len(s.checks),
            "failed_checks": [
                {"check": n, "detail": d} for n, ok, d in s.checks if not ok],
            "spans": [t["spans"] for t in s.samples[True]],
        }
    return out


#: Simulated GRAPE-6 time: deterministic, so never rescaled.
SIMULATED = {"parallel.virtual_us", "parallel.virtual_us_per_step",
             "parallel.sim_gflops"}


def at_reference_speed(values: dict, section: str, speed: float) -> dict:
    """Host times divided, host rates multiplied, by the run's speed
    index (see yardstick.py); counts, ratios and simulated time as is."""
    power = {"s": -1, "ms": -1, "us": -1, "ns": -1, "1/s": 1, "Gflop/s": 1}
    units = {d["name"]: d["unit"] for d in DECLARED[section]}
    return {
        name: value * speed ** power.get(units[name], 0)
        if name not in SIMULATED else value
        for name, value in values.items()}


# -- output -----------------------------------------------------------------


def with_units(values: dict, declared: list[dict]) -> dict:
    """``{name: {value, unit}}`` for every declared metric; a missing
    one is an error, not a silent gap."""
    return {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
            for d in declared}


def print_table(results: dict) -> None:
    for name, r in results.items():
        print(f"\n== {name}  (N={r['n']}, t_end={r['t_end']:g}, "
              f"repeats {r['repeats']}, speed index {r['speed_index']:.3f}, "
              f"energy error {r['energy_error']:.2e}, "
              f"checks {r['attempted']}, failed {r['failed']})")
        for section in ("end_to_end", "per_layer"):
            units = {d["name"]: d["unit"] for d in DECLARED[section]}
            for metric, value in r[section].items():
                if section == "per_layer" and not value:
                    continue  # not a layer of this workload
                extra = r["spread"].get(metric)
                tail = (f"   median {extra['median']:.6g} "
                        f"[{extra['q1']:.6g}, {extra['q3']:.6g}] n={extra['n']}"
                        if extra else "")
                print(f"  {metric:45s} {value:>14.6g} {units[metric]}{tail}")


def write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [cls.name for cls in WORKLOADS]
    ap.add_argument("--workload", choices=names,
                    help="run one workload and print the result line")
    ap.add_argument("--seed", type=int, default=BASE_SEED)
    ap.add_argument("--seconds", type=float, default=DECLARED["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end pass only; 1: traced pass too")
    ap.add_argument("--quick", action="store_true",
                    help="tiny t_end, one repeat per pass, all checks on")
    ap.add_argument("--out", type=Path, help="write the JSON artifact here")
    ap.add_argument("--expected", type=Path,
                    default=HERE / "expected_counts.json")
    args = ap.parse_args(argv)

    expected = json.loads(args.expected.read_text())["quick" if args.quick else "full"]
    selected = [args.workload] if args.workload else names
    with tempfile.TemporaryDirectory(prefix=".bench_e2e_", dir=os.getcwd()) as tmp:
        results = run(selected, args.seed, args.seconds, args.trace != 0,
                      args.quick, expected, Path(tmp))

    spans = [g for r in results.values() for g in r.pop("spans")]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print_table(results)
    if args.out:
        doc = {
            "schema": SCHEMA,
            "seed": args.seed,
            "quick": args.quick,
            "seconds": args.seconds,
            "timing_statistic": "sum over segments of the fastest observation "
                                "among n identical repeats; spread gives what "
                                "whole repeats read",
            "environment": environment_fingerprint(),
            "units": {d["name"]: d["unit"] for section in
                      ("end_to_end", "per_layer") for d in DECLARED[section]},
            "workloads": results,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
        }
        write_atomic(args.out, json.dumps(doc, indent=1) + "\n")
        tracing.dump_spans(spans, args.out.with_suffix(".spans.jsonl"))
    if args.workload:
        r = results[args.workload]
        section = "per_layer" if args.trace == 1 else "end_to_end"
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": with_units(r[section], DECLARED[section]),
        }))
        return 0  # the verdict is the line's "correct" field
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

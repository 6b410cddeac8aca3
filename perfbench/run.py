"""edgesim's benchmark: both engines, end to end and layer by layer.

    python3 perfbench/run.py --workload contrast --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke          # every workload, tiny sizes, seconds
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json
    python3 perfbench/run.py --workload wide --pin 0:40   # pin output digests

Each engine of a workload runs in a fresh ``worker.py`` process, one
process at a time, over every leg of the workload (see workloads.py).
``--trace 0`` keeps starting such processes for ``--seconds``, each
repeating its pass over the legs for a few seconds, gives each engine an
equal share of the time, and prints the median of each end-to-end metric
over the passes; ``setup_s`` adds the engines' medians. Timings are
scaled to a reference host speed (see CALIBRATION_REF_S).
``--trace 1`` runs each engine once untraced and once traced and prints
the per-layer split. The last stdout line is ``{"correct", "attempted",
"failed", "metrics"}``.

An operation is one simulation run. It fails if it raises, breaks a
post-drain conservation law, differs from the other engine's matched
run (``canonical()`` without ``peak_queue_size``), from the same run in
an earlier process, or from the digest pinned in digests.json for
(workload, engine, seed). Tasks failing inside the model are simulated
outcomes, reported as ``completed_pct``.

Layers are edgesim's modules: kernel, engine, rng, mobility, load,
network, compute, registry and metrics. config, harness, stats and cli
run once per campaign and cost milliseconds, so they are not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import BASELINE, BOTH, RENOVATED, WORKLOADS, Leg, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 40
DEADLINE_S = 170  # the whole invocation, workers included

# Host seconds are scaled to a reference host speed: the seconds the run
# would have taken on a host where worker.calibration_s() takes
# CALIBRATION_REF_S. On a shared host the speed drifts by up to half over
# minutes, both engines and the probe alike; scaled timings stay within
# a few percent where raw ones do not.
CALIBRATION_REF_S = 0.008

# (name, unit, better, bound): medians over one invocation's passes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("baseline_run_s", "s", "lower", 0.25),
    ("renovated_run_s", "s", "lower", 0.25),
    ("baseline_mem_mb", "MB", "lower", 0.1),
    ("renovated_mem_mb", "MB", "lower", 0.1),
    ("completed_pct", "%", "higher", 0.02),
]

_ALL_KINDS = ("TASK_ARRIVAL", "UPLOAD_DONE", "EXEC_DONE", "DOWNLOAD_DONE")
_LAZY_KINDS = ("DEVICE_MOVE", "ACTIVE_PERIOD_START")

# (name, unit, engines that have it). LOCATION_SNAPSHOT never fires:
# no workload asks for snapshots.
PER_LAYER = [
    ("kernel.events_dispatched", "count", BOTH),
    ("kernel.events_scheduled", "count", BOTH),
    ("kernel.events_dropped", "count", BOTH),
    ("kernel.peak_queue", "count", BOTH),
    ("kernel.loop_s", "s", BOTH),
    ("kernel.self_s", "s", BOTH),
    ("kernel.schedule_calls", "count", BOTH),
    ("kernel.schedule_s", "s", BOTH),
    ("kernel.events_per_s", "1/s", BOTH),
    *((f"kernel.dispatched.{k}", "count", BOTH) for k in _ALL_KINDS),
    *((f"kernel.dispatched.{k}", "count", (RENOVATED,)) for k in _LAZY_KINDS),
    ("engine.handle_self_s", "s", BOTH),
    ("rng.substreams", "count", BOTH),
    ("rng.substream_s", "s", BOTH),
    ("mobility.trajectory_points", "count", (BASELINE,)),
    ("mobility.build_s", "s", BOTH),
    ("mobility.count_at_calls", "count", BOTH),
    ("mobility.count_at_s", "s", BOTH),
    ("mobility.location_of_calls", "count", BOTH),
    ("mobility.location_of_s", "s", BOTH),
    ("mobility.moves", "count", (RENOVATED,)),
    ("mobility.move_s", "s", (RENOVATED,)),
    ("load.generate_all_s", "s", (BASELINE,)),
    ("load.eager_arrivals", "count", (BASELINE,)),
    ("load.schedule_lazy_calls", "count", (RENOVATED,)),
    ("load.schedule_lazy_s", "s", (RENOVATED,)),
    ("network.wlan_calls", "count", BOTH),
    ("network.wlan_s", "s", BOTH),
    ("network.wan_calls", "count", BOTH),
    ("network.wlan_congestion", "count", BOTH),
    ("network.wan_congestion", "count", BOTH),
    ("compute.select_target_calls", "count", BOTH),
    ("compute.select_target_s", "s", BOTH),
    ("compute.vm_rejects", "count", BOTH),
    ("compute.lifecycle_self_s", "s", BOTH),
    ("registry.probes", "count", BOTH),
    ("registry.peak_size", "count", BOTH),
    ("registry.probes_per_lookup", "probe/lookup", BOTH),
    ("registry.lookups", "count", BOTH),
    ("registry.lookup_s", "s", BOTH),
    ("registry.register_s", "s", BOTH),
    ("registry.retire_s", "s", BOTH),
    ("metrics.on_terminal_s", "s", BOTH),
    ("gc.pause_s", "s", BOTH),
    ("gc.collections.gen0", "count", BOTH),
    ("gc.collections.gen1", "count", BOTH),
    ("gc.collections.gen2", "count", BOTH),
    ("trace.overhead_s", "s", BOTH),
]

# traced span name -> (calls metric or None, self-time metric or None)
SPAN_METRICS = {
    "kernel.schedule": ("kernel.schedule_calls", "kernel.schedule_s"),
    "engine.handle": (None, "engine.handle_self_s"),
    "rng.substream": ("rng.substreams", "rng.substream_s"),
    "mobility.build": (None, "mobility.build_s"),
    "mobility.count_at": ("mobility.count_at_calls", "mobility.count_at_s"),
    "mobility.location_of": ("mobility.location_of_calls", "mobility.location_of_s"),
    "mobility.move": ("mobility.moves", "mobility.move_s"),
    "load.generate_all": (None, "load.generate_all_s"),
    "load.schedule_lazy": ("load.schedule_lazy_calls", "load.schedule_lazy_s"),
    "network.wlan": ("network.wlan_calls", "network.wlan_s"),
    "network.wan": ("network.wan_calls", None),
    "compute.select_target": ("compute.select_target_calls", "compute.select_target_s"),
    "compute.lifecycle": (None, "compute.lifecycle_self_s"),
    "registry.lookup": ("registry.lookups", "registry.lookup_s"),
    "registry.register": (None, "registry.register_s"),
    "registry.retire": (None, "registry.retire_s"),
    "metrics.on_terminal": (None, "metrics.on_terminal_s"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result; nothing is printed as JSON."""


def per_layer_names() -> list[tuple[str, str]]:
    return [
        (f"{engine}.{name}", unit)
        for engine in BOTH
        for name, unit, engines in PER_LAYER
        if engine in engines
    ]


def spec() -> dict:
    return {
        "command": COMMAND,
        "paths": [os.path.basename(HERE)],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower" if u == "s" else "higher"}
            for n, u in per_layer_names()
        ],
    }


# ---------------------------------------------------------------- workers


def run_worker(engine: str, legs: list[Leg], trace: bool, seconds: float,
               deadline: float) -> dict:
    """One engine over its legs in a fresh process, repeated for `seconds`.

    Returns the worker's report, or {} if the process failed.
    """
    job = {
        "engine": engine,
        "trace": trace,
        "seconds": seconds,
        "legs": [
            {"name": leg.name, "scenario": leg.scenario, "seed": leg.seed}
            for leg in legs
            if engine in leg.engines
        ],
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{engine} worker exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {}
    return json.loads(proc.stdout)


# ----------------------------------------------------------------- checks


def without_peak(canonical: str) -> str:
    return canonical.rsplit(";peak_queue_size=", 1)[0]


def engine_digest(result: dict) -> str:
    text = "\n".join(f"{r['leg']}:{r.get('canonical')}" for r in result.get("runs", []))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Counts operations (simulation runs) and the ones that failed.

    An operation is keyed (engine, leg, worker, pass), so one run that
    fails several checks is counted once.
    """

    def __init__(self, workload: str, seed: int, pinned: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.attempted = 0
        self.failures: list[str] = []
        self._failed: set = set()
        self._first_digest: dict[str, str] = {}

    def _fail(self, op: tuple, reason: str) -> None:
        if op not in self._failed:
            self._failed.add(op)
            self.failures.append(f"{self.workload} seed {self.seed} {op[0]} {op[1]}: {reason}")

    def check(self, engine: str, legs: list[Leg], result: dict) -> None:
        """One worker's runs: errors, conservation laws, pinned and repeat digests."""
        worker = result["worker"] = self.attempted
        runs = {r["leg"]: r for r in result.get("runs", [])}
        expected = [leg.name for leg in legs if engine in leg.engines]
        passes = max(1, len(result.get("reps", [])))
        self.attempted += len(expected) * passes
        for bad in result.get("rep_failures", []):
            self._fail((engine, bad["leg"], worker, bad["pass"]), bad["reason"])
        for name in expected:
            run = runs.get(name)
            if run is None:
                self._fail((engine, name, worker, 0), "worker process failed")
            elif "error" in run:
                self._fail((engine, name, worker, 0), run["error"])
            elif run["violations"]:
                self._fail((engine, name, worker, 0), "; ".join(run["violations"]))
        digest = engine_digest(result)
        pin = self.pinned.get(engine, {}).get(str(self.seed))
        first = self._first_digest.setdefault(engine, digest)
        if pin is not None and digest != pin:
            reason = f"digest {digest} != pinned {pin}"
        elif digest != first:
            reason = "output differs from an earlier worker's"
        else:
            return
        for name in expected:
            for p in range(passes):
                self._fail((engine, name, worker, p), reason)

    def check_matched(self, legs: list[Leg], results: dict) -> None:
        """Matched-seed legs must agree across engines, peak queue aside."""
        for leg in legs:
            if len(leg.engines) < 2:
                continue
            outs = [_run(results.get(e, {}), leg.name).get("canonical") for e in leg.engines]
            if None not in outs and len({without_peak(c) for c in outs}) > 1:
                for e in leg.engines:
                    self._fail((e, leg.name, results[e]["worker"], 0), f"engines disagree: {outs}")

    def check_traced(self, untraced: dict, traced: dict) -> None:
        """The traced run must reproduce the untraced one exactly."""
        for engine, result in traced.items():
            for run in result.get("runs", []):
                other = _run(untraced.get(engine, {}), run["leg"])
                if run.get("canonical") != other.get("canonical") or _counts(run) != _counts(other):
                    self._fail((engine, run["leg"], result["worker"], 0),
                               "traced run differs from untraced")


def _run(result: dict, leg: str) -> dict:
    return next((r for r in result.get("runs", []) if r["leg"] == leg), {})


def _counts(run: dict) -> dict:
    return {k: v for k, v in run.get("counts", {}).items() if not k.endswith("_s")}


def completed_pct(results: dict) -> float:
    legs = {}
    for result in results.values():
        for run in result.get("runs", []):
            if "canonical" in run:
                legs.setdefault(run["leg"], run)
    generated = sum(r["generated"] for r in legs.values())
    if not generated:
        raise BenchmarkError("no run completed, so the completion share is undefined")
    return 100.0 * sum(r["completed"] for r in legs.values()) / generated


def guard_validity(workload: Workload, pct: float) -> None:
    if pct < workload.completed_floor_pct:
        raise BenchmarkError(
            f"{workload.name}: only {pct:.2f}% of tasks completed, below the "
            f"workload's floor of {workload.completed_floor_pct}%; its timings would "
            "measure the rejection path, not the task lifecycle"
        )


# ---------------------------------------------------------------- metrics


def host_speed(results: list[dict]) -> float:
    """Factor from host seconds to reference seconds, over every pass given."""
    probes = [c for r in results for rep in r.get("reps", []) for c in rep["cal_s"]]
    return CALIBRATION_REF_S / statistics.median(probes)


def end_to_end(samples: dict[str, list[dict]]) -> dict[str, list[float]]:
    """Per metric, its values over the run: one per pass, or per process for
    memory. Timings are in reference seconds; setup_s adds the engines'
    medians."""
    speed = host_speed([r for rs in samples.values() for r in rs])
    reps = {e: [rep for r in rs for rep in r["reps"]] for e, rs in samples.items()}
    values = {"setup_s": [speed * sum(statistics.median(p["setup_s"] for p in ps)
                                      for ps in reps.values())]}
    for engine in BOTH:
        if engine in samples:
            values[f"{engine}_run_s"] = [speed * p["run_s"] for p in reps[engine]]
            values[f"{engine}_mem_mb"] = [r["mem_mb"] for r in samples[engine]]
    values["completed_pct"] = [completed_pct({e: rs[0] for e, rs in samples.items()})]
    return values


def per_layer(untraced: dict, traced: dict) -> dict:
    """Counts as read, times in reference seconds (see CALIBRATION_REF_S)."""
    speed = host_speed([*untraced.values(), *traced.values()])
    scale = {"s": speed, "1/s": 1 / speed}
    out = {}
    for engine in BOTH:
        plain, tr = untraced.get(engine), traced.get(engine)
        if not plain or not tr:
            continue
        runs = [r["counts"] for r in plain["runs"] if "counts" in r]
        t = tr["trace"]
        v = {
            "kernel.events_dispatched": sum(c["kernel.events_dispatched"] for c in runs),
            "kernel.events_scheduled": sum(c["kernel.events_scheduled"] for c in runs),
            "kernel.events_dropped": sum(c["kernel.events_dropped"] for c in runs),
            "kernel.peak_queue": max(c["kernel.peak_queue"] for c in runs),
            "registry.probes": sum(c["registry.probes"] for c in runs),
            "registry.peak_size": max(c["registry.peak_size"] for c in runs),
            "mobility.trajectory_points": sum(c.get("mobility.trajectory_points", 0) for c in runs),
            "kernel.loop_s": t["total_s"].get("kernel.loop", 0.0),
            "kernel.self_s": t["self_s"].get("kernel.loop", 0.0),
            "gc.pause_s": t["gc_pause_s"],
            "trace.overhead_s": tr["reps"][0]["run_s"] - plain["reps"][0]["run_s"],
        }
        v["kernel.events_per_s"] = v["kernel.events_dispatched"] / sum(
            c["kernel.wall_s"] for c in runs
        )
        for gen, n in enumerate(t["gc_collections"]):
            v[f"gc.collections.gen{gen}"] = n
        for span, (calls, self_s) in SPAN_METRICS.items():
            if calls:
                v[calls] = t["calls"].get(span, 0)
            if self_s:
                v[self_s] = t["self_s"].get(span, 0.0)
        for key, n in t["counts"].items():
            v[key] = n
        lookups = v["registry.lookups"]
        v["registry.probes_per_lookup"] = v["registry.probes"] / lookups if lookups else 0.0
        for name, unit, engines in PER_LAYER:
            if engine in engines:
                out[f"{engine}.{name}"] = v.get(name, 0) * scale.get(unit, 1)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------------- runs


def load_pins() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


SLICE_S = 4.0  # longest a worker repeats its passes before the other engine's turn


def execute(workload: Workload, legs: list[Leg], trace: bool, checker: "Checker",
            seconds: float, deadline: float) -> dict[str, list[dict]]:
    """Workers for each engine in turn for `seconds`, checked, then matched.

    Every engine runs once; after that the engine that has used the least
    time goes next, for at most SLICE_S, so the engines share the time
    evenly and their passes interleave over the whole run, and a slow
    spell of the host falls on both alike. Stops when the next engine's
    pass would no longer fit, or at the first failure.
    """
    stop = time.monotonic() + seconds
    engines = workload.engines(legs)
    results: dict[str, list[dict]] = {e: [] for e in engines}
    spent = dict.fromkeys(engines, 0.0)
    per_pass = dict.fromkeys(engines, 0.0)

    def one(engine: str, slice_s: float) -> None:
        t0 = time.monotonic()
        result = run_worker(engine, legs, trace, slice_s, deadline)
        took = time.monotonic() - t0
        checker.check(engine, legs, result)
        results[engine].append(result)
        spent[engine] += took
        per_pass[engine] = took / max(1, len(result.get("reps", [])))

    for engine in engines:
        one(engine, min(SLICE_S, seconds / len(engines)))
    while not checker.failures:
        engine = min(spent, key=spent.get)
        left = stop - time.monotonic()
        if left < per_pass[engine]:
            break
        one(engine, min(SLICE_S, left - per_pass[engine]))
    checker.check_matched(legs, {e: rs[0] for e, rs in results.items()})
    return results


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One invocation; returns the result object and prints the report lines."""
    deadline = time.monotonic() + DEADLINE_S
    legs = workload.legs(seed, smoke)
    pinned = {} if smoke else load_pins().get(workload.name, {})
    checker = Checker(workload.name, seed, pinned)
    units = dict((n, u) for n, u, _, _ in END_TO_END) | dict(per_layer_names())
    metrics = {}

    if trace:
        untraced = {e: rs[0] for e, rs in execute(workload, legs, False, checker, 0, deadline).items()}
        traced = {e: rs[0] for e, rs in execute(workload, legs, True, checker, 0, deadline).items()}
        checker.check_traced(untraced, traced)
        if not checker.failures:
            guard_validity(workload, completed_pct(untraced))
            metrics = per_layer(untraced, traced)
        for name, value in metrics.items():
            print(f"{workload.name:9s} {name:45s} {value:>16.6g} {units[name]}")
    else:
        samples = execute(workload, legs, False, checker, 0 if smoke else seconds, deadline)
        if not checker.failures:
            values = end_to_end(samples)
            guard_validity(workload, values["completed_pct"][0])
            counts = ", ".join(
                f"{sum(len(r['reps']) for r in rs)} {e}" for e, rs in samples.items()
            )
            speed = host_speed([r for rs in samples.values() for r in rs])
            print(f"{workload.name}: seed {seed}, passes: {counts}; median [q1, q3]; "
                  f"timings x{speed:.4f} to reference seconds")
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                metrics[name] = med
                print(f"  {name:18s} {med:12.6g} {units[name]:3s} [{q1:.6g}, {q3:.6g}]")
            b, r = metrics["baseline_run_s"], metrics["renovated_run_s"]
            print(f"  speedup_x          {b / r:12.4g} x   "
                  f"(baseline_run_s {b:.4g} s / renovated_run_s {r:.4g} s)")
    share = len(checker.failures) / max(checker.attempted, 1)
    print(f"  failure share      {share:12.4g}     "
          f"({len(checker.failures)} failed of {checker.attempted} runs)")
    for line in checker.failures[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    return {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def pin(workload: Workload, seeds: range) -> None:
    """Check each seed once and record its digests in digests.json.

    A seed that fails its checks is reported and left unpinned.
    """
    pins = load_pins()
    table = pins.setdefault(workload.name, {})
    for seed in seeds:
        legs = workload.legs(seed, False)
        checker = Checker(workload.name, seed, {})
        results = execute(workload, legs, False, checker, 0, time.monotonic() + 600)
        if checker.failures:
            print("\n".join(checker.failures), flush=True)
            continue
        guard_validity(workload, completed_pct({e: rs[0] for e, rs in results.items()}))
        for engine, (result,) in results.items():
            table.setdefault(engine, {})[str(seed)] = engine_digest(result)
        print(f"pinned {workload.name} seed {seed}", flush=True)
        with open(DIGESTS + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(DIGESTS + ".tmp", DIGESTS)


def smoke() -> bool:
    """Every workload at tiny size, both modes, checked against the spec."""
    ok = True
    with open(SPEC, encoding="utf-8") as fh:
        committed = json.load(fh)
    if committed != spec():
        print("BENCHMARK.json is stale: run perfbench/run.py --write-spec", file=sys.stderr)
        ok = False
    wanted = {
        False: {m["name"] for m in committed["end_to_end"]},
        True: {m["name"] for m in committed["per_layer"]},
    }
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = json.loads(json.dumps(benchmark(workload, 1, 1, trace, smoke=True)))
            missing = wanted[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - wanted[trace]
            if not result["correct"] or missing or extra:
                print(f"smoke {workload.name} trace={int(trace)}: correct={result['correct']} "
                      f"missing={sorted(missing)} extra={sorted(extra)}", file=sys.stderr)
                ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return ok


def parse_range(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one execution each")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    p.add_argument("--pin", type=parse_range, metavar="START:STOP",
                   help="record output digests for these seeds of --workload")
    args = p.parse_args(argv)

    if args.write_spec:
        with open(SPEC, "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "edgesim")):
        print(f"no edgesim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            p.error("--workload is required")
        workload = WORKLOADS[args.workload]
        if args.pin is not None:
            pin(workload, args.pin)
            return 0
        result = benchmark(workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

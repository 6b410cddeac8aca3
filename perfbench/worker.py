"""One engine's share of a workload execution, in a process of its own.

Reads a job from stdin, ``{"engine", "trace", "seconds", "legs":
[{"name", "scenario", "seed"}]}``, runs every leg back to back through
``edgesim.engine.prepare_run`` and ``RunContext.execute``, repeating the
pass for ``seconds``, and prints one JSON object on stdout: set-up and
run seconds of each pass summed over its legs with the host-speed
probes taken before it (see run.py), the peak RSS grown during
the first pass, and per leg of that pass the canonical metrics, the
conservation-law violations and the counters read after the run.
With ``"trace": true`` the edgesim callables are wrapped (see tracer.py)
and the span table is added.

A leg that raises is reported with its error; the remaining legs still
run. Run ``run.py``, not this file.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from typing import Callable

from edgesim.config import parse_scenario_dict
from edgesim.engine import BASELINE, prepare_run

from tracer import Tracer, edgesim_patches

CALIBRATION_ITERATIONS = 40_000
CALIBRATIONS_PER_PASS = 3


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop, a probe of the host's current speed."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        d[i % 997] = d.get(i % 997, 0) + i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def conservation_violations(ctx, summary) -> list[str]:
    """Post-drain laws every run must satisfy, whatever its outcome."""
    out = []
    failed = summary.failed_network + summary.failed_mobility + summary.failed_vm
    if summary.tasks_generated != summary.completed + failed:
        out.append("generated != completed + failures")
    if ctx.network.active_wan_transfers != 0:
        out.append(f"active_wan_transfers={ctx.network.active_wan_transfers}")
    busy = [vm.id for vm in ctx.compute.all_vms() if vm.util_centipct != 0]
    if busy:
        out.append(f"VMs with residual utilization: {busy[:5]}")
    k = ctx.kernel
    if len(k) != 0 or k.scheduled_count != k.dispatched_count + k.dropped_count:
        out.append("kernel queue not drained")
    expected_records = summary.tasks_generated if ctx.engine == BASELINE else 0
    if len(ctx.registry) != expected_records:
        out.append(f"registry holds {len(ctx.registry)} records, expected {expected_records}")
    return out


def run_counts(ctx, stats) -> dict:
    k, reg = ctx.kernel, ctx.registry
    counts = {
        "kernel.events_dispatched": k.dispatched_count,
        "kernel.events_scheduled": k.scheduled_count,
        "kernel.events_dropped": k.dropped_count,
        "kernel.peak_queue": k.peak_size,
        "kernel.wall_s": stats.wall_time,
        "registry.probes": reg.probes,
        "registry.peak_size": reg.peak_size,
    }
    if ctx.engine == BASELINE:
        counts["mobility.trajectory_points"] = sum(
            len(t.times) for t in ctx.mobility.trajectories
        )
    return counts


def run_once(engine: str, legs: list, collect: Callable[[], None]) -> dict:
    """Every leg once; set-up and run seconds summed over the legs.

    The host-speed probe runs before the pass, outside its timing.
    """
    cal_s = [calibration_s() for _ in range(CALIBRATIONS_PER_PASS)]
    setup_s = run_s = 0.0
    runs = []
    for name, cfg, seed in legs:
        collect()
        try:
            t0 = time.perf_counter()
            ctx = prepare_run(cfg, engine, seed)
            t1 = time.perf_counter()
            summary, stats = ctx.execute()
            t2 = time.perf_counter()
        except Exception as err:  # one failed operation; the other legs still run
            runs.append({"leg": name, "error": f"{type(err).__name__}: {err}"})
            continue
        setup_s += t1 - t0
        run_s += t2 - t0
        runs.append(
            {
                "leg": name,
                "canonical": summary.canonical(),
                "generated": summary.tasks_generated,
                "completed": summary.completed,
                "violations": conservation_violations(ctx, summary),
                "counts": run_counts(ctx, stats),
            }
        )
        del ctx
    return {"setup_s": setup_s, "run_s": run_s, "cal_s": cal_s, "runs": runs}


def run_job(job: dict, collect: Callable[[], None] = gc.collect) -> dict:
    """Repeat the legs for job["seconds"], at least once.

    Memory is read after the first repetition, so it is one pass's
    footprint. Later repetitions must reproduce the first exactly; any
    that do not are listed in rep_failures.
    """
    engine = job["engine"]
    legs = [(leg["name"], parse_scenario_dict(leg["scenario"]), leg["seed"]) for leg in job["legs"]]
    rss_after_imports = peak_rss_mb()
    end = time.perf_counter() + job["seconds"]
    t0 = time.perf_counter()
    first = run_once(engine, legs, collect)
    last = time.perf_counter() - t0
    result = {
        "engine": engine,
        "mem_mb": peak_rss_mb() - rss_after_imports,
        "runs": first["runs"],
        "reps": [{k: first[k] for k in ("setup_s", "run_s", "cal_s")}],
        "rep_failures": [],
    }
    expected = {r["leg"]: r.get("canonical") for r in first["runs"]}
    while time.perf_counter() + last < end:
        t0 = time.perf_counter()
        rep = run_once(engine, legs, collect)
        last = time.perf_counter() - t0
        result["reps"].append({k: rep[k] for k in ("setup_s", "run_s", "cal_s")})
        for run in rep["runs"]:
            reason = run.get("error") or "; ".join(run.get("violations", []))
            if not reason and run["canonical"] != expected[run["leg"]]:
                reason = "repetition differs from the first pass"
            if reason:
                result["rep_failures"].append(
                    {"leg": run["leg"], "pass": len(result["reps"]) - 1, "reason": reason}
                )
    return result


def main() -> int:
    job = json.load(sys.stdin)
    if not job["trace"]:
        result = run_job(job)
    else:
        tracer = Tracer()
        with tracer.installed(edgesim_patches(tracer)):
            result = run_job(job, tracer.collect)
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counts": dict(tracer.counts),
            "gc_pause_s": tracer.gc_pause_s,
            "gc_collections": tracer.gc_collections,
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run orchestration: build a scenario's world, drive it to completion.

Two engines share every model rule and differ only in strategy wiring:

  baseline   precomputed trajectories, all task arrivals enqueued before
             t=0, append-only task registry
  renovated  event-driven movement, per-period lazy task generation,
             pruned task registry

The matched per-device substreams make the two produce the same movement
and arrival history for the same (scenario, seed), which is the basis of
every equivalence test in the suite.

Each event kind has one handler, a bound method called as
handler(payload, time). prepare_run builds the table once per run: the
four LifecycleDriver.on_* methods and RunContext.on_location_snapshot on
both engines, plus EventDrivenMobility.on_device_move and
RunContext.on_active_period_start on the renovated one. RunContext.handle,
the kernel's single dispatch entry, is one lookup and one call; a kind
missing from the table raises ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from edgesim.compute import ComputeState, LifecycleDriver, TaskRecord
from edgesim.config import ScenarioConfig
from edgesim.kernel import Event, EventKind, Kernel, RunStats
from edgesim.load import (
    TaskProperties,
    TaskTypeProfile,
    generate_all,
    schedule_lazy,
)
from edgesim.metrics import MetricsCollector, MetricsSummary, SnapshotLog
from edgesim.mobility import EventDrivenMobility, PrecomputedMobility
from edgesim.network import NetworkState
from edgesim.registry import make_registry
from edgesim.rng import LOAD, PROFILE_ASSIGN, DeviceStreams, block_source

BASELINE = "baseline"
RENOVATED = "renovated"
ENGINES = (BASELINE, RENOVATED)

_DEFAULT_REGISTRY = {BASELINE: "append-only", RENOVATED: "pruned"}


def assign_profiles(
    cfg: ScenarioConfig, streams: list[DeviceStreams]
) -> list[TaskTypeProfile]:
    """Weighted profile choice, one draw from each device's own stream."""
    cumulative: list[float] = []
    total = 0.0
    for wp in cfg.profiles:
        total += wp.weight
        cumulative.append(total)
    out = []
    for d in range(cfg.device_count):
        u = streams[d].get(PROFILE_ASSIGN).random() * total
        for i, edge in enumerate(cumulative):
            if u < edge:
                out.append(cfg.profiles[i].profile)
                break
        else:
            out.append(cfg.profiles[-1].profile)
    return out


@dataclass
class RunContext:
    """Everything a single run owns. Built by prepare_run."""

    cfg: ScenarioConfig
    engine: str
    seed: int
    kernel: Kernel
    streams: list[DeviceStreams]
    profiles: list[TaskTypeProfile]
    mobility: object
    network: NetworkState
    compute: ComputeState
    registry: object
    driver: LifecycleDriver
    metrics: MetricsCollector
    snapshot_log: Optional[SnapshotLog] = None
    summary: Optional[MetricsSummary] = None
    stats: Optional[RunStats] = None
    _task_ids: itertools.count = field(default_factory=itertools.count)
    #: Event kind -> handler(payload, time); prepare_run fills it.
    handlers: dict[int, Callable[[Any, float], None]] = field(init=False)

    def handle(self, ev: Event) -> None:
        try:
            handler = self.handlers[ev.kind]
        except KeyError:
            raise ValueError(f"unhandled event kind: {ev.kind!r}") from None
        handler(ev.payload, ev.time)

    def on_active_period_start(self, device: int, now: float) -> None:
        schedule_lazy(
            device,
            self.profiles[device],
            now,
            self.cfg.horizon_s,
            self.streams[device].get(LOAD),
            self.kernel,
            self._task_ids.__next__,
        )

    def on_location_snapshot(self, _payload: None, now: float) -> None:
        self.snapshot_log.append(now, self.mobility.counts_all(now))
        self.kernel.schedule(
            now + self.cfg.snapshot_period_s, EventKind.LOCATION_SNAPSHOT
        )

    def execute(
        self, observer: Optional[Callable[["RunContext", Event], None]] = None
    ) -> tuple[MetricsSummary, RunStats]:
        """Drive the run to completion. A context runs once; a second call raises."""
        if self.stats is not None:
            raise RuntimeError("RunContext already executed; prepare a new run")
        if observer is None:
            handler = self.handle
        else:

            def handler(ev: Event) -> None:
                self.handle(ev)
                observer(self, ev)

        stats = self.kernel.run(self.cfg.horizon_s, handler)
        self.stats = stats
        self.summary = self.metrics.build_summary(stats)
        return self.summary, stats


def prepare_run(
    cfg: ScenarioConfig,
    engine: str,
    seed: int,
    *,
    registry_strategy: Optional[str] = None,
    snapshots: bool = False,
    record_sink: Optional[list[TaskRecord]] = None,
) -> RunContext:
    """Build the world for one run without starting the clock."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine: {engine!r}")
    horizon = cfg.horizon_s
    kernel = Kernel()
    source = block_source()
    streams = [DeviceStreams(seed, d, source) for d in range(cfg.device_count)]
    profiles = assign_profiles(cfg, streams)

    if engine == BASELINE:
        mobility = PrecomputedMobility(
            cfg.device_count, cfg.access_points, horizon, streams
        )
    else:
        mobility = EventDrivenMobility(
            cfg.device_count, cfg.access_points, streams, kernel
        )

    network = NetworkState(
        mobility,
        wan_bandwidth_mbps=cfg.network.wan_bandwidth_mbps,
        wan_propagation_s=cfg.network.wan_propagation_s,
        wlan_device_capacity=cfg.network.wlan_device_capacity,
        wan_transfer_capacity=cfg.network.wan_transfer_capacity,
    )
    compute = ComputeState(
        n_aps=len(cfg.access_points),
        vms_per_ap=cfg.edge.vms_per_ap,
        edge_mips=cfg.edge.mips,
        cloud_vm_count=cfg.cloud.vm_count,
        cloud_mips=cfg.cloud.mips,
    )
    registry = make_registry(registry_strategy or _DEFAULT_REGISTRY[engine])
    metrics = MetricsCollector(record_sink=record_sink)
    driver = LifecycleDriver(
        kernel, mobility, network, compute, registry, cfg.policy, streams, metrics
    )

    ctx = RunContext(
        cfg=cfg,
        engine=engine,
        seed=seed,
        kernel=kernel,
        streams=streams,
        profiles=profiles,
        mobility=mobility,
        network=network,
        compute=compute,
        registry=registry,
        driver=driver,
        metrics=metrics,
    )
    ctx.handlers = {
        EventKind.TASK_ARRIVAL: driver.on_task_arrival,
        EventKind.UPLOAD_DONE: driver.on_upload_done,
        EventKind.EXEC_DONE: driver.on_exec_done,
        EventKind.DOWNLOAD_DONE: driver.on_download_done,
        EventKind.LOCATION_SNAPSHOT: ctx.on_location_snapshot,
    }
    if engine == RENOVATED:
        ctx.handlers[EventKind.DEVICE_MOVE] = mobility.on_device_move
        ctx.handlers[EventKind.ACTIVE_PERIOD_START] = ctx.on_active_period_start

    ids = ctx._task_ids
    if engine == BASELINE:
        for d in range(cfg.device_count):
            gen = streams[d].get(LOAD)
            for arrival in generate_all(profiles[d], horizon, gen):
                props = TaskProperties(next(ids), d, profiles[d], arrival)
                kernel.schedule(arrival, EventKind.TASK_ARRIVAL, props)
    else:
        for d in range(cfg.device_count):
            schedule_lazy(
                d,
                profiles[d],
                0.0,
                horizon,
                streams[d].get(LOAD),
                kernel,
                ids.__next__,
            )

    if snapshots:
        if cfg.snapshot_period_s is None:
            raise ValueError("snapshots requested but snapshot_period_s is null")
        ctx.snapshot_log = SnapshotLog()
        kernel.schedule(cfg.snapshot_period_s, EventKind.LOCATION_SNAPSHOT)
    return ctx


def run_scenario(
    cfg: ScenarioConfig,
    engine: str,
    seed: int,
    *,
    registry_strategy: Optional[str] = None,
    snapshots: bool = False,
    record_sink: Optional[list[TaskRecord]] = None,
    observer: Optional[Callable[[RunContext, Event], None]] = None,
) -> tuple[MetricsSummary, RunStats]:
    """One full simulation; deterministic given (cfg, engine, seed)."""
    ctx = prepare_run(
        cfg,
        engine,
        seed,
        registry_strategy=registry_strategy,
        snapshots=snapshots,
        record_sink=record_sink,
    )
    return ctx.execute(observer)

"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload meta-10m --seed 0 --units 1 \
        --trace 0 --out result.json --ship-dir spans/

An untraced run sets up ``SETUP_REPEATS`` times, then measures ``--units``
whole units of work: passes over a fixed trace for the pipeline workloads,
calls of ``fig13_speedup`` for the sweep.  It writes the raw units and
set-up times; ``run.py`` pools them over the processes of one benchmark run
and computes the end-to-end metrics.  Every unit is checked: against the
committed digest of its seed when one exists (``digests.json``), against
the first unit of the run (each unit starts from the same state), and
against workload invariants (the sequential reference model, for
training).  A failed check fails every operation of the run.

With ``--trace 1`` the workload alternates untraced and traced units, each
after its own set-up, with the span wrappers of ``spans.py`` installed only
around the traced ones.  It reports the last traced unit's per-layer
metrics plus ``trace.overhead``, the median over the pairs of traced wall /
untraced wall.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Set-ups per workload process; ``setup_s`` is the median over a run's
#: processes.
SETUP_REPEATS = 1
#: Warm-up batches excluded from simulated statistics (the figures' value).
WARMUP = 8
#: Batches of the training pass checked against the sequential reference.
REFERENCE_BATCHES = 16
#: Learning rate of the training workload.
LEARNING_RATE = 0.02
#: Untraced/traced unit pairs of a traced run.
TRACE_PAIRS = 3
#: Tail percentile rule: the highest percentile with this many samples
#: beyond it.
TAIL_BEYOND = 10

#: End-to-end metrics (untraced runs) and their units.
E2E_UNITS = {
    "throughput_bps": "batches/s",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
    "figure_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.
LAYER_UNITS = {
    "data.trace_gen_s": "s",
    "data.unique_ids_s": "s",
    "data.unique_ids_calls": "count",
    "plan.table_s": "s",
    "plan.table_calls": "count",
    "plan.self_s": "s",
    "hitmap.query_s": "s",
    "hitmap.slots_raw_s": "s",
    "hitmap.assign_s": "s",
    "hitmap.reset_s": "s",
    "replacement.select_s": "s",
    "replacement.record_use_s": "s",
    "holdmask.hold_s": "s",
    "plan.unique_ids": "count",
    "plan.hits": "count",
    "plan.misses": "count",
    "plan.evictions": "count",
    "plan.hit_rate": "ratio",
    "plan.floor_s": "s",
    "plan.floor_ratio": "ratio",
    "hazard.on_plan_s": "s",
    "hazard.violations": "count",
    "stage.collect_s": "s",
    "stage.insert_s": "s",
    "executor.wait_s": "s",
    "executor.wait_share": "ratio",
    "train.step_s": "s",
    "model.dense_s": "s",
    "model.coalesce_s": "s",
    "model.init_s": "s",
    "systems.run_trace_s.hybrid": "s",
    "systems.run_trace_s.static_cache": "s",
    "systems.run_trace_s.strawman": "s",
    "systems.run_trace_s.scratchpipe": "s",
    "strawman.run_batch_s": "s",
    "systems.price_s": "s",
    "sweep.points": "count",
    "sweep.point_failures": "count",
    "sweep.busy_s": "s",
    "sweep.parent_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class Geometry:
    """Inputs of one workload; ``tiny()`` shrinks it for the self-tests."""

    kind: str
    num_tables: int = 8
    rows: int = 1_000_000
    batch_size: int = 512
    lookups: int = 20
    fraction: float = 0.10
    batches: int = 200
    executor: str = "serial"
    dim: int = 32
    mlp: int = 64
    fractions: Tuple[float, ...] = ()
    #: Units each workload process runs.
    units: int = 1

    def tiny(self) -> "Geometry":
        return replace(
            self, num_tables=2, rows=100_000, batch_size=64, lookups=4,
            batches=12 if self.kind == "figure" else 24, dim=8, mlp=16,
        )


WORKLOADS: Dict[str, Geometry] = {
    # Two passes per process: one process's pass is ~5 s, shorter than the
    # slow and fast phases of a shared box.
    "meta-10m": Geometry(kind="meta", rows=10_000_000, fraction=0.02, units=2),
    # Three passes per process: passes of one run differed by up to 50%
    # (two busy processes on two cores), far more than on the serial one.
    "train-200k": Geometry(
        kind="train", rows=200_000, batch_size=256, fraction=0.20,
        batches=48, executor="overlapped", mlp=128, units=3,
    ),
    # ModelConfig() is the paper geometry: 8 x 10M rows, batch 2048 x 20.
    # Two calls per process: the tree's peak memory depends on which pool
    # worker happens to build which system, and the run reports the
    # largest of its six calls.
    "fig13-sweep": Geometry(
        kind="figure", rows=10_000_000, batch_size=2048, batches=14,
        fractions=(0.02, 0.10), units=2,
    ),
}


def workload_env(name: str, nproc: int) -> Dict[str, str]:
    """The only ``REPRO_*`` variables a workload runs with."""
    if WORKLOADS[name].executor == "overlapped":
        # Parent + planners fit the box's cores: one planner per spare core,
        # and a single-threaded BLAS for the parent's Train stage.
        return {
            "REPRO_EXECUTOR_WORKERS": str(max(1, nproc - 1)),
            "OPENBLAS_NUM_THREADS": "1",
        }
    return {}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Outcome of a run
# ----------------------------------------------------------------------
@dataclass
class Unit:
    """One timed unit of work: a pass over the trace, or one figure."""

    wall: float
    batches: int
    ops: int
    digest: str
    intervals: List[float] = field(default_factory=list)


@dataclass
class Outcome:
    units: List[Unit] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    digest: Dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.errors.append(message)


def sha(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def committed_digest(name: str, seed: int, tiny: bool) -> Optional[Dict[str, str]]:
    if tiny or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def wait_children(timeout: float = 60.0) -> None:
    """Join every child process this process started (pool and planner
    workers exit on their own once their work is done)."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.1, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join(5.0)


def timed_stream(stream) -> Tuple[list, List[float], float]:
    """Drain a pipeline stream; returns (stats, retirement intervals, wall).

    Batch i's interval ends when it retires and starts when batch i - 1
    did (the first batch's, when the stream was started)."""
    stats = []
    intervals = []
    start = last = time.perf_counter()
    for item in stream:
        now = time.perf_counter()
        intervals.append(now - last)
        last = now
        stats.append(item)
    return stats, intervals, time.perf_counter() - start


# ----------------------------------------------------------------------
# Pipeline workloads: meta-10m (metadata) and train-200k
# ----------------------------------------------------------------------
def model_config(g: Geometry):
    from repro.model.config import ModelConfig

    if g.kind == "figure" and g.num_tables == 8:
        return ModelConfig()
    return ModelConfig(
        num_tables=g.num_tables,
        rows_per_table=g.rows,
        embedding_dim=g.dim,
        lookups_per_table=g.lookups,
        batch_size=g.batch_size,
        bottom_mlp=(g.mlp, g.dim),
        top_mlp=(g.mlp, 1),
    )


def system_spec(g: Geometry, fraction: Optional[float] = None):
    from repro.api import CacheSpec, PipelineSpec, SystemSpec

    return SystemSpec(
        system="scratchpipe",
        cache=CacheSpec(fraction=g.fraction if fraction is None else fraction),
        pipeline=PipelineSpec(executor=g.executor),
    )


def stats_key(stats) -> List[tuple]:
    """Per-batch per-table hits/misses/unique and the batch's write-backs."""
    return [
        (s.batch_index, s.per_table_hits, s.per_table_misses,
         s.per_table_unique, s.writebacks)
        for s in stats
    ]


def check_stats(stats, cfg, num_batches: int) -> Optional[str]:
    """Invariants every pass's statistics must satisfy."""
    if [s.batch_index for s in stats] != list(range(num_batches)):
        return "batches retired out of order or missing"
    for s in stats:
        if s.total_lookups != cfg.lookups_per_batch:
            return f"batch {s.batch_index}: total_lookups {s.total_lookups}"
        for hits, misses, unique in zip(s.per_table_hits, s.per_table_misses,
                                        s.per_table_unique):
            if hits + misses != unique or unique > cfg.lookups_per_table * cfg.batch_size:
                return f"batch {s.batch_index}: hits+misses != unique IDs"
        if (s.hits, s.misses, s.unique_ids) != (
            sum(s.per_table_hits), sum(s.per_table_misses), sum(s.per_table_unique)
        ) or s.writebacks > s.misses:
            return f"batch {s.batch_index}: totals disagree with per-table counts"
    return None


def steady_hit_rate(stats) -> float:
    steady = stats[WARMUP:]
    return sum(s.hits for s in steady) / sum(s.unique_ids for s in steady)


def steady_iter_ms(system, stats) -> float:
    """Modelled steady-state iteration time, priced by the system's own
    cost model and pipelined cycle-time rule."""
    from repro.systems.scratchpipe_system import _pipelined_cycle_times
    from repro.systems.stages import cache_stage_times

    stage_times = [
        {k: v.seconds for k, v in
         cache_stage_times(system.cost, s, system.future_window).items()}
        for s in stats
    ]
    cycles = _pipelined_cycle_times(stage_times, system.hardware.stage_sync_s)
    return statistics.fmean(cycles[WARMUP:]) * 1e3


class MetaWorkload:
    """Metadata-only ScratchPipe cache simulation under a strict monitor."""

    def __init__(self, g: Geometry, seed: int) -> None:
        self.g, self.seed = g, seed
        self.cfg = model_config(g)

    def setup(self):
        from repro.api import build_system
        from repro.core.pipeline import HazardMonitor
        from repro.data.trace import MaterialisedDataset, make_dataset
        from repro.hardware.spec import DEFAULT_HARDWARE

        self.trace = MaterialisedDataset(make_dataset(
            self.cfg, "medium", seed=self.seed, num_batches=self.g.batches))
        self.system = build_system(system_spec(self.g), self.cfg, DEFAULT_HARDWARE)
        # Building the stream allocates the scratchpads (the Hit-Map index).
        self.monitor = HazardMonitor(strict=True)
        self._stream = self.system.stream_cache_stats(self.trace, monitor=self.monitor)

    def run_unit(self, outcome: Outcome) -> Unit:
        from repro.core.pipeline import HazardMonitor

        if self._stream is None:
            self.monitor = HazardMonitor(strict=True)
            self._stream = self.system.stream_cache_stats(
                self.trace, monitor=self.monitor)
        stream, self._stream = self._stream, None
        stats, intervals, wall = timed_stream(stream)
        problem = check_stats(stats, self.cfg, self.g.batches)
        if problem:
            outcome.fail(problem)
        if self.monitor.violations:
            outcome.fail(f"hazard violations: {self.monitor.violations[:3]}")
        self.last_stats = stats
        return Unit(wall=wall, batches=len(stats), ops=len(stats),
                    digest=sha(stats_key(stats)), intervals=intervals)

    def notes(self) -> Dict[str, object]:
        return {
            "sim_hit_rate": steady_hit_rate(self.last_stats),
            "sim_iter_ms": steady_iter_ms(self.system, self.last_stats),
        }

    def digest(self, unit: Unit) -> Dict[str, str]:
        return {"stats": unit.digest}


class TrainWorkload:
    """Functional DLRM training through storage-backed scratchpads."""

    def __init__(self, g: Geometry, seed: int) -> None:
        self.g, self.seed = g, seed
        self.cfg = model_config(g)
        #: Check the first unit against the sequential reference model.
        self.check_reference = True

    def setup(self):
        from repro.data.trace import MaterialisedDataset, make_dataset
        from repro.model.dlrm import DLRMModel
        from repro.model.optimizer import SGD

        self.trace = MaterialisedDataset(make_dataset(
            self.cfg, "medium", seed=self.seed, num_batches=self.g.batches,
            with_dense=True))
        self.init = DLRMModel.initialise(
            self.cfg, seed=self.seed + 1, optimizer=SGD(lr=LEARNING_RATE))
        self.run = self._fresh_run()

    def _fresh_run(self):
        from repro.core.pipeline import HazardMonitor
        from repro.model.optimizer import SGD
        from repro.systems import ScratchPipeTrainingRun

        return ScratchPipeTrainingRun.from_spec(
            system_spec(self.g), self.cfg,
            cpu_tables=[t.weights.copy() for t in self.init.tables],
            dense_network=copy.deepcopy(self.init.dense_network),
            optimizer=SGD(lr=LEARNING_RATE),
            monitor=HazardMonitor(strict=True),
        )

    def run_unit(self, outcome: Outcome) -> Unit:
        from repro.core.pipeline import ScratchPipePipeline

        run = self.run if self.run is not None else self._fresh_run()
        self.run = None
        self.monitor = run.monitor
        pipeline = ScratchPipePipeline(
            config=self.cfg, scratchpads=run.scratchpads,
            dataset_batches=self.trace, cpu_tables=run.cpu_tables,
            trainer=run.trainer, future_window=run.future_window,
            monitor=run.monitor, executor=run.executor,
        )
        losses: List[float] = []
        stats, intervals, wall = timed_stream(pipeline.stream(losses=losses))
        problem = check_stats(stats, self.cfg, self.g.batches)
        if problem:
            outcome.fail(problem)
        if run.monitor.violations:
            outcome.fail(f"hazard violations: {run.monitor.violations[:3]}")
        if len(losses) != len(stats):
            outcome.fail(f"{len(losses)} losses for {len(stats)} batches")
        tables = sha(*(table.tobytes() for table in run.final_tables()))
        if self.check_reference:
            self.check_reference = False
            self._check_reference(losses, outcome)
        self.last_stats = stats
        self.last = {"stats": sha(stats_key(stats)), "losses": sha(losses),
                     "tables": tables}
        return Unit(wall=wall, batches=len(stats), ops=len(stats),
                    digest=sha(self.last), intervals=intervals)

    def _check_reference(self, losses: List[float], outcome: Outcome) -> None:
        """ScratchPipe training must match sequential training bit for bit."""
        reference = copy.deepcopy(self.init)
        count = min(REFERENCE_BATCHES, len(losses))
        expected = [reference.train_step(self.trace.batch(i)) for i in range(count)]
        if expected != losses[:count]:
            outcome.fail("losses differ from the sequential reference model")

    def notes(self) -> Dict[str, object]:
        return {"sim_hit_rate": steady_hit_rate(self.last_stats)}

    def digest(self, unit: Unit) -> Dict[str, str]:
        return dict(self.last)


class FigureWorkload:
    """``fig13_speedup`` at paper geometry through ``run_grid``."""

    def __init__(self, g: Geometry, seed: int) -> None:
        self.g, self.seed = g, seed
        self.cfg = model_config(g)
        self.workers = nproc()

    @property
    def points(self) -> int:
        from repro.data.datasets import LOCALITY_CLASSES

        return len(LOCALITY_CLASSES) * (1 + 3 * len(self.g.fractions))

    def setup(self):
        from repro.analysis.experiments import ExperimentSetup
        from repro.api import build_system
        from repro.data.datasets import LOCALITY_CLASSES

        # The figure's own inputs: its traces and a ScratchPipe system with
        # its Hit-Map index allocated.  fig13_speedup builds these again
        # inside each timed call.
        self.experiment = ExperimentSetup(
            config=self.cfg, num_batches=self.g.batches, seed=self.seed)
        traces = [self.experiment.trace(loc) for loc in LOCALITY_CLASSES]
        system = build_system(
            system_spec(self.g, min(self.g.fractions)), self.cfg,
            self.experiment.hardware)
        system.stream_cache_stats(traces[0])
        del traces, system

    def run_unit(self, outcome: Outcome) -> Unit:
        from repro.analysis import sweep
        from repro.analysis.experiments import fig13_speedup
        from repro.data.datasets import LOCALITY_CLASSES

        # Every call starts cold, as a user's figure run does.
        sweep._cached_trace.cache_clear()
        sweep._cached_system.cache_clear()
        gc.collect()
        start = time.perf_counter()
        result = fig13_speedup(
            self.experiment, cache_fractions=self.g.fractions, workers=self.workers)
        wall = time.perf_counter() - start
        wait_children()
        if len(result) != len(LOCALITY_CLASSES) * len(self.g.fractions) or not all(
            0 < value < float("inf")
            for p in result
            for value in (p.hybrid_s, p.static_s, p.strawman_s, p.scratchpipe_s)
        ):
            outcome.fail("speedup table has missing or non-finite entries")
        self.last_points = result
        batches = self.points * self.g.batches
        return Unit(wall=wall, batches=batches, ops=self.points,
                    digest=sha(result))

    def notes(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "sim_scratchpipe_iter_ms": statistics.fmean(
                p.scratchpipe_s for p in self.last_points) * 1e3,
        }

    def digest(self, unit: Unit) -> Dict[str, str]:
        return {"speedups": unit.digest}


KINDS = {"meta": MetaWorkload, "train": TrainWorkload, "figure": FigureWorkload}


# ----------------------------------------------------------------------
# Untraced and traced runs
# ----------------------------------------------------------------------
def run_setup(workload) -> float:
    # Drop the previous set-up's inputs first, so only one copy is alive.
    for key in ("trace", "system", "_stream", "init", "run", "experiment"):
        workload.__dict__.pop(key, None)
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def verify(name: str, seed: int, tiny: bool, workload, outcome: Outcome) -> None:
    """Every unit equals the first; the first equals the committed digest."""
    first = outcome.units[0]
    for index, unit in enumerate(outcome.units[1:], start=1):
        if unit.digest != first.digest:
            outcome.fail(f"unit {index} output differs from unit 0")
    outcome.digest = workload.digest(first)
    expected = committed_digest(name, seed, tiny)
    outcome.notes["digest_checked"] = expected is not None
    if expected is not None and expected != outcome.digest:
        outcome.fail(f"output digest {outcome.digest} != committed {expected}")


def untraced(name: str, workload, seed: int, units: int, tiny: bool,
             outcome: Outcome) -> None:
    for _ in range(SETUP_REPEATS):
        outcome.setup_times.append(run_setup(workload))
    for _ in range(units):
        outcome.units.append(workload.run_unit(outcome))
    verify(name, seed, tiny, workload, outcome)
    outcome.notes.update(workload.notes())


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def e2e_metrics(units: List[Unit], setup_times: List[float],
                notes: Dict[str, object]) -> Dict[str, float]:
    """End-to-end metrics of one run from the units of all its processes.

    Throughput, ``figure_s`` and ``batch_ms_p50`` pool every unit: batches
    over timed wall, and the median of all the run's batch intervals (a
    figure call is one sample of wall / batches).  The median of the pooled
    intervals spread 15-40% less from run to run than the median of the
    units' medians did.  The tail is taken per unit, over its own
    intervals, and the run reports its median over the units: one unit
    slowed by the rest of the box then moves it little, and the percentile
    stands on the samples of one pass whatever the number of units.
    """
    per_unit = [u.intervals or [u.wall / u.batches] for u in units]
    pooled = [x for samples in per_unit for x in samples]
    tails = [tail(samples) for samples in per_unit]
    wall = sum(u.wall for u in units)
    notes.update({
        "batch_ms_tail_percentile": tails[0][1],
        "batch_ms_tail_beyond": tails[0][2],
        "batch_ms_tail_samples": len(per_unit[0]),
        "units": len(units),
        "unit_walls": [u.wall for u in units],
    })
    return {
        "throughput_bps": sum(u.batches for u in units) / wall,
        "batch_ms_p50": statistics.median(pooled) * 1e3,
        "batch_ms_tail": statistics.median(t[0] for t in tails) * 1e3,
        "figure_s": wall / len(units),
        "setup_s": statistics.median(setup_times),
    }


def plan_floor_s(plan_sizes: List[tuple], samples: int = 64, repeats: int = 3) -> float:
    """Seconds the bare gathers and scatters of the recorded table-plans take.

    Per table-plan: gather the Hit-Map index at the unique IDs; gather the
    victims' old keys; scatter EMPTY over the evicted keys, then the fill
    slots over the missed IDs; scatter the missed IDs into the slot->key
    map; scatter a use stamp over every planned slot.  Timed (best of
    ``repeats``) on an evenly spaced sample of the recorded sizes, scaled
    to all of them.
    """
    import numpy as np

    if not plan_sizes:
        return 0.0
    rng = np.random.default_rng(0)
    step = max(1, len(plan_sizes) // samples)
    picked = plan_sizes[::step][:samples]
    arrays = {}
    seconds = []
    for rows, slots, unique, misses in picked:
        if (rows, slots) not in arrays:
            arrays[(rows, slots)] = (
                np.full(rows, -1, dtype=np.int32),
                rng.integers(0, rows, slots).astype(np.int32),
                np.zeros(slots, dtype=np.int64),
            )
        index, key_of_slot, stamps = arrays[(rows, slots)]
        ids = np.sort(rng.choice(rows, unique, replace=False))
        miss = np.sort(rng.choice(ids, misses, replace=False)).astype(np.int32)
        fill = rng.choice(slots, misses, replace=False).astype(np.int32)
        used = rng.integers(0, slots, unique)
        best = float("inf")
        for cycle in range(repeats):
            start = time.perf_counter()
            index[ids]
            evicted = key_of_slot[fill]
            index[evicted] = -1
            index[miss] = fill
            key_of_slot[fill] = miss
            stamps[used] = cycle
            best = min(best, time.perf_counter() - start)
        seconds.append(best)
    return statistics.fmean(seconds) * len(plan_sizes)


def layer_metrics(rec, traced_wall: float, untraced_wall: float, overhead: float,
                  violations: int, workers: int) -> Dict[str, float]:
    T, S, C, N, NC = rec.total, rec.self_time, rec.calls, rec.nested, rec.nested_calls
    floor = plan_floor_s(rec.plan_sizes)
    unique = rec.counts["plan.unique_ids"]
    busy = T["sweep.point"]
    return {
        "data.trace_gen_s": T["data.trace_gen"],
        "data.unique_ids_s": T["data.unique_ids"] - N["data.trace_gen>data.unique_ids"],
        "data.unique_ids_calls": C["data.unique_ids"] - NC["data.trace_gen>data.unique_ids"],
        "plan.table_s": T["plan.table"],
        "plan.table_calls": C["plan.table"],
        "plan.self_s": S["plan.table"],
        "hitmap.query_s": T["hitmap.query"],
        "hitmap.slots_raw_s": T["hitmap.slots_raw"],
        "hitmap.assign_s": T["hitmap.assign"],
        "hitmap.reset_s": T["hitmap.reset"],
        "replacement.select_s": T["replacement.select"],
        "replacement.record_use_s": T["replacement.record_use"],
        "holdmask.hold_s": T["holdmask.hold"],
        "plan.unique_ids": unique,
        "plan.hits": rec.counts["plan.hits"],
        "plan.misses": rec.counts["plan.misses"],
        "plan.evictions": rec.counts["plan.evictions"],
        "plan.hit_rate": rec.counts["plan.hits"] / unique if unique else 0.0,
        "plan.floor_s": floor,
        "plan.floor_ratio": T["plan.table"] / floor if floor else 0.0,
        "hazard.on_plan_s": T["hazard.on_plan"],
        "hazard.violations": violations + rec.errors["hazard.on_plan"],
        "stage.collect_s": T["stage.collect"],
        "stage.insert_s": T["stage.insert"],
        "executor.wait_s": T["executor.wait"],
        "executor.wait_share": T["executor.wait"] / traced_wall,
        "train.step_s": T["train.step"],
        "model.dense_s": T["model.dense"],
        "model.coalesce_s": T["model.coalesce"],
        "model.init_s": T["model.init"],
        "systems.run_trace_s.hybrid": T["systems.run_trace.hybrid"],
        "systems.run_trace_s.static_cache": T["systems.run_trace.static_cache"],
        "systems.run_trace_s.strawman": T["systems.run_trace.strawman"],
        "systems.run_trace_s.scratchpipe": T["systems.run_trace.scratchpipe"],
        "strawman.run_batch_s": T["strawman.run_batch"],
        "systems.price_s": T["systems.price"],
        "sweep.points": C["sweep.point"],
        "sweep.point_failures": rec.errors["sweep.point"],
        "sweep.busy_s": busy,
        "sweep.parent_s": max(0.0, traced_wall - busy / workers) if busy else 0.0,
        "sweep.parallel_efficiency": busy / (workers * untraced_wall) if busy else 0.0,
        "trace.overhead": overhead,
    }


def traced(name: str, workload, seed: int, tiny: bool, ship_dir: Path,
           outcome: Outcome) -> Dict[str, float]:
    """``TRACE_PAIRS`` pairs of an untraced and a traced unit, each unit
    after its own set-up, so the two of a pair differ only in the span
    wrappers.  ``trace.overhead`` is the median of the pairs' wall ratios;
    the per-layer metrics are the last traced unit's (with its set-up)."""
    import spans

    recorder = spans.Recorder(ship_dir=ship_dir, ship_after=spans.SHIP_AFTER)
    ratios = []
    for _ in range(TRACE_PAIRS):
        outcome.setup_times.append(run_setup(workload))
        plain = workload.run_unit(outcome)
        wait_children()
        recorder.clear()
        uninstall = spans.install(recorder)
        try:
            outcome.setup_times.append(run_setup(workload))
            unit = workload.run_unit(outcome)
        finally:
            uninstall()
        wait_children()
        recorder.merge_shipped()
        outcome.units += [plain, unit]
        ratios.append(unit.wall / plain.wall)
    # Tracing must not change an output byte.
    verify(name, seed, tiny, workload, outcome)
    monitor = getattr(workload, "monitor", None)
    violations = len(monitor.violations) if monitor is not None else 0
    return layer_metrics(recorder, unit.wall, plain.wall, statistics.median(ratios),
                         violations, getattr(workload, "workers", 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--ship-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="check training against the sequential model")
    args = parser.parse_args(argv)

    import proctree
    import repro

    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy

    g = WORKLOADS[args.workload]
    g = g.tiny() if args.tiny else g
    workload = KINDS[g.kind](g, args.seed)
    if g.kind == "train":
        workload.check_reference = args.reference
    result = {"metrics": {}, "numpy": numpy.__version__}
    outcome = Outcome()
    try:
        if args.trace:
            metrics = traced(args.workload, workload, args.seed, args.tiny,
                             args.ship_dir, outcome)
            if metrics["hazard.violations"]:
                outcome.fail("hazard violations under tracing")
        else:
            untraced(args.workload, workload, args.seed, args.units,
                     args.tiny, outcome)
            metrics = {}
        result["metrics"] = metrics
    except Exception:
        # An exception fails every operation of the run, done or not.
        outcome.fail(traceback.format_exc())
    attempted = sum(u.ops for u in outcome.units)
    result["attempted"] = max(1, attempted)
    result["failed"] = result["attempted"] if outcome.errors else 0
    result["errors"] = outcome.errors
    result["notes"] = outcome.notes
    result["digest"] = outcome.digest
    result["units"] = [asdict(unit) for unit in outcome.units]
    result["setup_times"] = outcome.setup_times
    result["high_water_kb"] = proctree.high_water_kb()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

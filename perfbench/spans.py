"""Span recorder for the traced benchmark run.

The benchmark measures each layer from its own files: it wraps the calls
into each layer's functions, patching every name where its caller looks it
up, and only inside the traced workload process.  Untraced runs never
import this module's patches, so end-to-end metrics carry no tracing cost.

A span's self time is its duration minus the time covered by its child
spans.  A call that re-enters a span already open on the stack (a subclass
method calling its base, say) is not counted twice.

Forked worker processes (the overlapped executor's planners, the sweep's
pool workers) inherit the patches.  Each ships its totals back as a JSON
file in ``ship_dir``: after every ``ship_after`` span it closes, and from a
``multiprocessing`` finaliser at exit.  The parent merges the files with
:meth:`Recorder.merge_shipped` once its children have ended.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional, Tuple


class Recorder:
    """Per-process span totals: seconds, self seconds, calls, errors,
    counts, and seconds per parent->child edge."""

    def __init__(self, ship_dir: Optional[Path] = None,
                 ship_after: Iterable[str] = ()) -> None:
        self.ship_dir = ship_dir
        self.ship_after = frozenset(ship_after)
        self._owner = os.getpid()
        self.clear()
        if ship_dir is not None:
            multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def clear(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        #: ``"parent>child"`` seconds and calls: time each span spent
        #: directly under each parent span.
        self.nested = defaultdict(float)
        self.nested_calls = defaultdict(int)
        #: Per table-plan ``(num_rows, num_slots, unique, misses)`` sizes,
        #: the input of the random-access floor.
        self.plan_sizes = []
        self._stack = []

    # -- forked children ------------------------------------------------
    def _after_fork(self) -> None:
        self.clear()
        multiprocessing.util.Finalize(self, self.ship, exitpriority=100)

    def _in_child(self) -> bool:
        return os.getpid() != self._owner

    def ship(self) -> None:
        """Write this (child) process's totals to its file in ``ship_dir``."""
        if self.ship_dir is None or not self._in_child():
            return
        path = self.ship_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "total": self.total, "self_time": self.self_time,
            "calls": self.calls, "errors": self.errors,
            "counts": self.counts, "nested": self.nested,
            "nested_calls": self.nested_calls, "plan_sizes": self.plan_sizes,
        }))
        os.replace(tmp, path)

    def merge_shipped(self) -> int:
        """Fold every shipped child file into this recorder; returns how many."""
        if self.ship_dir is None:
            return 0
        files = sorted(self.ship_dir.glob("spans-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for field in ("total", "self_time", "calls", "errors", "counts",
                          "nested", "nested_calls"):
                mine = getattr(self, field)
                for name, value in data[field].items():
                    mine[name] += value
            self.plan_sizes.extend(tuple(s) for s in data["plan_sizes"])
            path.unlink()
        return len(files)

    # -- spans ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(recorder, result, args)``
        runs on each successful call."""
        ship = name in self.ship_after

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = f"{parent[0]}>{name}"
                    self.nested[edge] += elapsed
                    self.nested_calls[edge] += 1
            if after is not None:
                after(self, result, args)
            if ship and self._in_child():
                self.ship()
            return result

        return spanned


def _count_plan(recorder: Recorder, plan, args) -> None:
    scratchpad = args[0]
    recorder.counts["plan.unique_ids"] += plan.num_unique
    recorder.counts["plan.hits"] += plan.num_hits
    recorder.counts["plan.misses"] += plan.num_misses
    recorder.counts["plan.evictions"] += plan.num_writebacks
    recorder.plan_sizes.append(
        (scratchpad.num_rows, scratchpad.num_slots,
         plan.num_unique, plan.num_misses)
    )


def _targets() -> Tuple[tuple, ...]:
    """``(owner, attribute, span name, after-hook)`` for every wrapped call.

    The owner is where the caller looks the name up: a class for methods,
    the calling module for functions imported by name.
    """
    import repro.analysis.sweep as sweep
    import repro.systems.scratchpipe_system as scratchpipe_system
    import repro.systems.strawman_system as strawman_system
    from repro.core.executor import _PlanReceiver
    from repro.core.hitmap import HitMap
    from repro.core.holdmask import HoldMask
    from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
    from repro.core.replacement import ReplacementPolicy, policy_class, registered_policies
    from repro.core.scratchpad import GpuScratchpad
    from repro.core.strawman import StrawmanCache
    from repro.data.trace import MaterialisedDataset, MiniBatch
    from repro.model.dlrm import DenseNetwork, DLRMModel
    from repro.systems.hybrid import HybridSystem
    from repro.systems.static_cache import StaticCacheSystem

    policies = {ReplacementPolicy} | {policy_class(n) for n in registered_policies()}
    targets = [
        (MaterialisedDataset, "__init__", "data.trace_gen", None),
        (MiniBatch, "unique_table_ids", "data.unique_ids", None),
        (GpuScratchpad, "plan_batch", "plan.table", _count_plan),
        (HitMap, "query", "hitmap.query", None),
        (HitMap, "slots_raw", "hitmap.slots_raw", None),
        (HitMap, "assign_many", "hitmap.assign", None),
        (HitMap, "__post_init__", "hitmap.reset", None),
        (HitMap, "reset", "hitmap.reset", None),
        (HitMap, "export_state", "executor.export_state", None),
        (HoldMask, "hold", "holdmask.hold", None),
        (HoldMask, "hold_trusted", "holdmask.hold", None),
        (HazardMonitor, "on_plan", "hazard.on_plan", None),
        (ScratchPipePipeline, "_do_collect", "stage.collect", None),
        (ScratchPipePipeline, "_do_insert", "stage.insert", None),
        (_PlanReceiver, "receive", "executor.wait", None),
        (scratchpipe_system.ScratchPipeTrainer, "train", "train.step", None),
        (DenseNetwork, "forward", "model.dense", None),
        (DenseNetwork, "backward", "model.dense", None),
        (DenseNetwork, "step", "model.dense", None),
        (scratchpipe_system, "coalesce_gradients", "model.coalesce", None),
        (DLRMModel, "initialise", "model.init", None),
        (HybridSystem, "run_trace", "systems.run_trace.hybrid", None),
        (StaticCacheSystem, "run_trace", "systems.run_trace.static_cache", None),
        (strawman_system.StrawmanSystem, "run_trace",
         "systems.run_trace.strawman", None),
        (scratchpipe_system.ScratchPipeSystem, "run_trace",
         "systems.run_trace.scratchpipe", None),
        (StrawmanCache, "run_batch", "strawman.run_batch", None),
        (scratchpipe_system, "cache_stage_times", "systems.price", None),
        (scratchpipe_system, "_pipelined_cycle_times", "systems.price", None),
        (strawman_system, "cache_stage_times", "systems.price", None),
        (HybridSystem, "iteration_breakdown", "systems.price", None),
        (StaticCacheSystem, "iteration_breakdown", "systems.price", None),
        (sweep, "run_point", "sweep.point", None),
    ]
    for cls in sorted(policies, key=lambda c: c.__qualname__):
        for attr, name in (("select_eligible", "replacement.select"),
                           ("record_use", "replacement.record_use")):
            if attr in vars(cls):
                targets.append((cls, attr, name, None))
    return tuple(targets)


#: Spans after which a forked child ships its totals: the sweep's unit of
#: work, and the planner's last act before it reports ``done``.
SHIP_AFTER = ("sweep.point", "executor.export_state")


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target with a span of ``recorder``; returns the undo."""
    undo = []
    for owner, attr, name, after in _targets():
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(recorder.wrap(name, raw.__func__, after))
        else:
            patched = recorder.wrap(name, raw, after)
        setattr(owner, attr, patched)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall

"""Pluggable stage executors for the ScratchPipe pipeline.

The pipeline's cycle loop — which stage of which in-flight batch runs
when — is an execution *strategy*, separable from the stage
implementations themselves (``ScratchPipePipeline._do_plan`` and
friends).  This module turns that strategy into a registry of named
executors so systems, sweeps, the CLI and the live-replay harness can
pick one per run:

* ``serial`` (the default everywhere) runs every stage of every cycle in
  the calling process, in the exact order the seed implementation used.
  It is the bit-identical oracle the others are tested against.
* ``overlapped`` realises the paper's premise — Plan for batch
  ``N + future`` runs *ahead*, concurrently with Collect/Insert/Train of
  earlier batches — by sharding the per-table Plan work across dedicated
  worker processes (ScratchPipe instantiates one cache-manager per
  table, Section VI-G, so per-table Plan streams are independent by
  construction).  Plan results travel back by message passing — an
  ownership handoff of each batch's plan rows, never shared memory, so
  there is no segment to leak — and the parent retires
  Collect/Exchange/Insert/Train in the serial cycle order.  Bounded
  queues are the plan-ahead window: a planner at most
  ``_PLAN_AHEAD_DEPTH`` batches ahead blocks until the parent catches
  up.

Determinism contract: for a given pipeline, ``overlapped`` yields
bit-identical per-batch statistics, plans, losses, hazard-violation
lists and final table/scratchpad contents to ``serial``, for any worker
count.  This holds because each table's Plan stream is a pure function
of that table's initial scratchpad state and the batch sequence, and
tables never share Plan state.

The registry mirrors ``repro.core.replacement``'s policy registry:
``@register_executor`` to add one, ``make_executor(name)`` to
instantiate.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from queue import Empty
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple, Type

from repro._env import read_env
from repro.errors import (
    ExecutorConfigError,
    ExecutorUnavailableError,
    ExecutorWorkerError,
)
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pipeline import BatchCacheStats, ScratchPipePipeline


class Executor(Protocol):
    """One execution strategy for a :class:`ScratchPipePipeline`."""

    name: str

    def stream(
        self,
        pipeline: "ScratchPipePipeline",
        num_batches: int,
        losses: Optional[List[float]],
    ) -> Iterator["BatchCacheStats"]:
        """Run ``num_batches`` batches, yielding stats as batches retire.

        Called by ``ScratchPipePipeline.stream`` *after* argument
        validation; implementations may assume ``num_batches`` is in
        range.
        """
        ...


# repro-lint: disable=worker-capture -- import-time registry, rebuilt
# identically in every process on module import.
_EXECUTORS: Dict[str, Type] = {}


def register_executor(name: str):
    """Class decorator registering an :class:`Executor` under ``name``."""

    def decorate(cls: Type) -> Type:
        if name in _EXECUTORS:
            raise ExecutorConfigError(
                f"executor {name!r} is already registered "
                f"({_EXECUTORS[name].__qualname__})"
            )
        cls.name = name
        _EXECUTORS[name] = cls
        return cls

    return decorate


def registered_executors() -> Tuple[str, ...]:
    """Registered executor names, sorted."""
    return tuple(sorted(_EXECUTORS))


def make_executor(name: str) -> Executor:
    """Instantiate the executor registered under ``name``."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ExecutorConfigError(
            f"unknown executor {name!r}; registered: "
            f"{', '.join(registered_executors())}"
        ) from None
    return cls()


@register_executor("serial")
class SerialExecutor:
    """Every stage in the calling process, in seed cycle order."""

    name = "serial"

    def stream(self, pipeline, num_batches, losses):
        return pipeline._stream_cycles(num_batches, losses)


# ----------------------------------------------------------------------
# The overlapped executor
# ----------------------------------------------------------------------

#: How many batches a planner may run ahead of the parent's retirement
#: (the per-shard queue bound).  Matches the spirit of the paper's
#: bounded look-ahead: deep enough to hide retirement stalls, shallow
#: enough that a planner never races the whole trace ahead.
_PLAN_AHEAD_DEPTH = 8

#: Parent-side queue poll interval while waiting on a planner.
_POLL_S = 0.05

#: Default liveness bound: if a planner delivers nothing for this long
#: the run fails with :class:`ExecutorWorkerError` instead of hanging.
_DEFAULT_TIMEOUT_S = 300.0


def _worker_count(num_tables: int) -> int:
    """Planner-process count: ``REPRO_EXECUTOR_WORKERS`` or a CPU-bound
    default, clamped to one worker per table."""
    raw = read_env("REPRO_EXECUTOR_WORKERS")
    if raw is None:
        count = min(4, os.cpu_count() or 1)
    else:
        try:
            count = int(raw)
        except ValueError:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be an integer, got {raw!r}"
            ) from None
        if count < 1:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be >= 1, got {count}"
            )
    return max(1, min(count, num_tables))


def _liveness_timeout() -> float:
    """Seconds of planner silence tolerated before declaring a hang."""
    raw = read_env("REPRO_EXECUTOR_TIMEOUT_S")
    if raw is None:
        return _DEFAULT_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise ExecutorConfigError(
            f"REPRO_EXECUTOR_TIMEOUT_S must be a number, got {raw!r}"
        ) from None
    if value <= 0:
        raise ExecutorConfigError(
            f"REPRO_EXECUTOR_TIMEOUT_S must be > 0, got {value}"
        )
    return value


def _shard_tables(num_tables: int, workers: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-equal table shards — ascending across shards so
    concatenating per-shard results in shard order preserves table
    order."""
    base, extra = divmod(num_tables, workers)
    shards: List[Tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        if size:
            shards.append(tuple(range(start, start + size)))
            start += size
    return shards


def _shippable(error: BaseException):
    """The exception itself if it pickles, else a descriptive string.

    ``Queue.put`` pickles lazily on its feeder thread; an unpicklable
    exception would be dropped there and the parent would only see a
    silent worker death.  Probing up front keeps the failure named.
    """
    try:
        pickle.dumps(error)
    except Exception:
        return f"{type(error).__name__}: {error}"
    return error


def _encode_plan(plan) -> tuple:
    return (
        plan.unique_ids,
        plan.slots,
        plan.hit_mask,
        plan.miss_ids,
        plan.fill_slots,
        plan.evicted_ids,
    )


def _planner_worker(pipeline, shard_index: int, tables, num_batches: int, queue) -> None:
    """Plan-ahead worker: plans its table shard for every batch, in order.

    Runs in a forked child, so ``pipeline`` (scratchpads, monitor, batch
    cache) is a private copy-on-write snapshot of the parent's
    construction-time state — exactly the state a serial run would plan
    against, since Plan is the only stage that touches it.
    """
    from repro.core.pipeline import HazardError

    try:
        monitor = pipeline.monitor
        functional = pipeline._functional
        for index in range(num_batches):
            fault_point("pipeline.executor", detail=f"plan:{index}:shard:{shard_index}")
            fault_point("pipeline.stage", detail=f"plan:{index}")
            batch = pipeline._get_batch(index)
            future_batches = pipeline._future_batches(index)
            payload = []
            flagged: List[Tuple[int, str]] = []
            for table in tables:
                before = len(monitor.violations) if monitor is not None else 0
                try:
                    plan = pipeline._plan_table(table, batch, future_batches)
                    if monitor is not None:
                        monitor.on_plan(index + 1, table, plan)
                except HazardError as error:
                    queue.put(("hazard", index, table, str(error)))
                    return
                if monitor is not None:
                    flagged.extend(
                        (table, message)
                        for message in monitor.violations[before:]
                    )
                if functional:
                    payload.append(_encode_plan(plan))
                else:
                    payload.append(
                        (plan.num_unique, plan.num_hits,
                         plan.num_misses, plan.num_writebacks)
                    )
            queue.put(("plan", index, payload, flagged))
            pipeline._evict_batches_before(index + 1)
        queue.put(
            (
                "done",
                [
                    (table, pipeline.scratchpads[table].hit_map.export_state())
                    for table in tables
                ],
            )
        )
    except BaseException as error:
        queue.put(("error", _shippable(error)))


class _PlanReceiver:
    """Parent-side demux of the per-shard planner queues."""

    def __init__(self, workers, queues, shards, timeout_s: float) -> None:
        self._workers = workers
        self._queues = queues
        self._shards = shards
        self._timeout_s = timeout_s

    def _next(self, shard_index: int):
        queue = self._queues[shard_index]
        worker = self._workers[shard_index]
        waited = 0.0
        item = None
        while item is None:
            try:
                item = queue.get(timeout=_POLL_S)
            except Empty:
                if not worker.is_alive():
                    # One last drain: the feeder thread may have flushed
                    # a final message between our poll and the death.
                    try:
                        item = queue.get(timeout=_POLL_S)
                    except Empty:
                        tables = self._shards[shard_index]
                        raise ExecutorWorkerError(
                            f"plan-ahead worker {shard_index} (tables "
                            f"{tables[0]}..{tables[-1]}) died with exit "
                            f"code {worker.exitcode} before delivering "
                            f"its next plan"
                        ) from None
                else:
                    waited += _POLL_S
                    if waited >= self._timeout_s:
                        raise ExecutorWorkerError(
                            f"plan-ahead worker {shard_index} produced no "
                            f"message for ~{self._timeout_s:.0f}s "
                            f"(REPRO_EXECUTOR_TIMEOUT_S); treating the "
                            f"run as hung"
                        )
        if item[0] == "error":
            payload = item[1]
            if isinstance(payload, BaseException):
                raise payload
            raise ExecutorWorkerError(
                f"plan-ahead worker {shard_index} failed: {payload}"
            )
        return item

    def receive(self, batch_index: int):
        """Collect batch ``batch_index``'s per-table results from every
        shard.

        Returns ``(payloads, flagged, hazard)`` — payloads and
        non-strict violation messages concatenated in table order, and
        the strict-mode hazard message (lowest table wins, matching the
        serial table-scan order) or ``None``.
        """
        payloads: List[tuple] = []
        flagged: List[Tuple[int, str]] = []
        hazards: List[Tuple[int, str]] = []
        for shard_index in range(len(self._workers)):
            item = self._next(shard_index)
            kind = item[0]
            if kind == "hazard":
                if item[1] != batch_index:
                    raise ExecutorWorkerError(
                        f"plan-ahead worker {shard_index} broke protocol: "
                        f"hazard for batch {item[1]} while the parent is "
                        f"at batch {batch_index}"
                    )
                hazards.append((item[2], item[3]))
                continue
            if kind != "plan" or item[1] != batch_index:
                raise ExecutorWorkerError(
                    f"plan-ahead worker {shard_index} broke protocol: "
                    f"expected plan for batch {batch_index}, got "
                    f"{kind!r} for {item[1]!r}"
                )
            payloads.extend(item[2])
            flagged.extend(item[3])
        if hazards:
            _, message = min(hazards)
            return [], [], message
        return payloads, flagged, None

    def finish(self) -> List[Tuple[int, object]]:
        """Collect every shard's final ``("done", states)`` message."""
        states: List[Tuple[int, object]] = []
        for shard_index in range(len(self._workers)):
            item = self._next(shard_index)
            if item[0] != "done":
                raise ExecutorWorkerError(
                    f"plan-ahead worker {shard_index} broke protocol: "
                    f"expected done, got {item[0]!r}"
                )
            states.extend(item[1])
        return states

    def shutdown(self) -> None:
        """Terminate planners and release queue resources (idempotent)."""
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        for queue in self._queues:
            queue.close()
            queue.cancel_join_thread()


@register_executor("overlapped")
class OverlappedExecutor:
    """Plan N+future on dedicated worker processes, retire on the parent.

    Requires the ``fork`` start method (workers inherit the pipeline's
    construction-time state copy-on-write; nothing is pickled on the way
    in) and a non-daemonic calling process.  Plan results come back as
    messages — full plan-row ownership handoff in functional mode,
    compact per-table counters in metadata mode — so no shared-memory
    segments exist to leak.  After the run the parent adopts each
    worker's final Hit-Map contents, keeping post-run scratchpad
    observations (occupancy, cached keys) identical to a serial run's.
    """

    name = "overlapped"

    def stream(self, pipeline, num_batches, losses):
        from repro.core.pipeline import STAGES, HazardError, _InFlight

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutorUnavailableError(
                "the overlapped executor needs the 'fork' start method, "
                "which this platform does not offer"
            )
        if multiprocessing.current_process().daemon:
            raise ExecutorUnavailableError(
                "the overlapped executor cannot spawn plan-ahead workers "
                "from a daemonic process"
            )
        context = multiprocessing.get_context("fork")
        shards = _shard_tables(
            pipeline.config.num_tables,
            _worker_count(pipeline.config.num_tables),
        )
        timeout_s = _liveness_timeout()
        queues = [context.Queue(maxsize=_PLAN_AHEAD_DEPTH) for _ in shards]
        workers = [
            context.Process(
                target=_planner_worker,
                args=(pipeline, shard_index, tables, num_batches, queue),
                daemon=True,
                name=f"repro-planner-{shard_index}",
            )
            for shard_index, (tables, queue) in enumerate(zip(shards, queues))
        ]
        receiver = _PlanReceiver(workers, queues, shards, timeout_s)
        monitor = pipeline.monitor
        functional = pipeline._functional
        try:
            for worker in workers:
                worker.start()
            in_flight: Dict[int, _InFlight] = {}
            stats_by_batch: Dict[int, "BatchCacheStats"] = {}
            last_cycle = num_batches - 1 + len(STAGES) - 1
            for cycle in range(last_cycle + 1):
                retired = None
                train_idx = cycle - 5
                if 0 <= train_idx < num_batches:
                    if functional:
                        record = in_flight.pop(train_idx)
                        loss = pipeline._do_train(record)
                        if loss is not None and losses is not None:
                            losses.append(loss)
                        retired = pipeline._stats_for(record)
                    else:
                        retired = stats_by_batch.pop(train_idx)
                insert_idx = cycle - 4
                if functional and 0 <= insert_idx < num_batches:
                    pipeline._do_insert(in_flight[insert_idx])
                collect_idx = cycle - 2
                if functional and 0 <= collect_idx < num_batches:
                    pipeline._do_collect(in_flight[collect_idx])
                plan_idx = cycle - 1
                if 0 <= plan_idx < num_batches:
                    payloads, flagged, hazard = receiver.receive(plan_idx)
                    if monitor is not None:
                        monitor.violations.extend(
                            message for _, message in flagged
                        )
                    if hazard is not None:
                        if monitor is not None:
                            monitor.violations.append(hazard)
                        raise HazardError(hazard)
                    if functional:
                        in_flight[plan_idx].plans.extend(
                            _decode_plan(fields) for fields in payloads
                        )
                    else:
                        stats_by_batch[plan_idx] = _stats_from_counters(
                            pipeline, plan_idx, payloads
                        )
                if functional:
                    if cycle < num_batches:
                        in_flight[cycle] = _InFlight(
                            batch=pipeline._get_batch(cycle)
                        )
                    oldest = min(in_flight) if in_flight else num_batches
                    pipeline._evict_batches_before(oldest)
                if retired is not None:
                    yield retired
            for table, key_of_slot in receiver.finish():
                pipeline.scratchpads[table].hit_map.adopt_state(key_of_slot)
        finally:
            receiver.shutdown()


def _decode_plan(fields: tuple):
    from repro.core.scratchpad import TablePlan

    return TablePlan(*fields)


def _stats_from_counters(
    pipeline, batch_index: int, counters: Sequence[Tuple[int, int, int, int]]
):
    from repro.core.pipeline import BatchCacheStats

    unique = tuple(c[0] for c in counters)
    hits = tuple(c[1] for c in counters)
    misses = tuple(c[2] for c in counters)
    return BatchCacheStats(
        batch_index=batch_index,
        total_lookups=pipeline.config.lookups_per_batch,
        unique_ids=sum(unique),
        hits=sum(hits),
        misses=sum(misses),
        writebacks=sum(c[3] for c in counters),
        per_table_misses=misses,
        per_table_hits=hits,
        per_table_unique=unique,
    )

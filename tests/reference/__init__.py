"""Test-side reference implementations of the Plan stage.

``src/`` ships one implementation of each Plan-stage component.  The
slower, simpler implementations they replaced live here and serve as
oracles for the equivalence tests and as the seed path the pipeline perf
gate in ``benchmarks/test_perf_pipeline.py`` times:

* :class:`ScanLruPolicy`/:class:`ScanLfuPolicy`/:class:`ScanRandomPolicy`
  — victim selection as an O(num_slots) scan over the eligibility mask
  (``release_stamps <= clock`` minus the transient future-window slots);
* :class:`DictHazardMonitor` — per-element dict bookkeeping of pending
  slot writes and CPU write-backs;
* :class:`PerCycleUniquePipeline` — re-runs ``np.unique`` on every
  table's raw lookup IDs in every cycle instead of reusing each batch's
  cached sorted-unique set.

Each one realises the same semantics as its ``src/`` counterpart; the
tests assert bit-identical victims, violations and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.hitmap import EMPTY
from repro.core.pipeline import (
    PLAN_TO_COLLECT,
    PLAN_TO_INSERT,
    PLAN_TO_TRAIN,
    HazardMonitor,
    ScratchPipePipeline,
)
from repro.core.replacement import (
    CachePressureError,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
)
from repro.systems.scratchpipe_system import make_scratchpads

__all__ = [
    "DictHazardMonitor",
    "PerCycleUniquePipeline",
    "ScanLfuPolicy",
    "ScanLruPolicy",
    "ScanRandomPolicy",
    "scan_policy",
    "scan_scratchpads",
]

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Full-scan victim selection
# ----------------------------------------------------------------------
class _ScanSelection:
    """``select_eligible`` as a scan over the whole eligibility mask."""

    def select_eligible(self, count: int, transient=None) -> np.ndarray:
        eligible = self._hold_mask.eligible_mask()
        if transient is not None:
            parts = transient if isinstance(transient, (list, tuple)) else [transient]
            for part in parts:
                part = np.asarray(part, dtype=np.int64)
                # -1 marks an uncached future ID: it protects no slot.
                eligible[part[part >= 0]] = False
        return self.select(eligible, count)

    def _candidates(self, eligible: np.ndarray, count: int) -> np.ndarray:
        candidates = np.flatnonzero(eligible)
        if candidates.size < count:
            raise CachePressureError(
                f"need {count} victims but only {candidates.size} of "
                f"{self.num_slots} slots are eligible; enlarge the scratchpad "
                "(see repro.core.scratchpad.required_slots)"
            )
        return candidates

    def select(self, eligible: np.ndarray, count: int) -> np.ndarray:
        """The ``count`` eligible slots smallest under (score, slot index).

        ``flatnonzero`` yields ascending candidates, so a stable argsort
        on the scores realises the lexicographic order.
        """
        candidates = self._candidates(eligible, count)
        if count == 0:
            return _EMPTY_SLOTS
        order = np.argsort(self._scores()[candidates], kind="stable")
        return candidates[order[:count]]


@dataclass
class ScanLruPolicy(_ScanSelection, LruPolicy):
    """LRU with full-scan selection."""


@dataclass
class ScanLfuPolicy(_ScanSelection, LfuPolicy):
    """LFU with full-scan selection."""


@dataclass
class ScanRandomPolicy(_ScanSelection, RandomPolicy):
    """Random replacement with full-scan selection."""

    def select(self, eligible: np.ndarray, count: int) -> np.ndarray:
        candidates = self._candidates(eligible, count)
        if count == 0:
            return _EMPTY_SLOTS
        # Vacant slots first, in ascending slot order; then uniform draws
        # among the used eligible slots.
        vacant = candidates[self._last_use[candidates] < 0]
        if vacant.size >= count:
            return vacant[:count]
        used = candidates[self._last_use[candidates] >= 0]
        extra = self._rng.choice(used, size=count - vacant.size, replace=False)
        return np.concatenate([vacant, extra])


_SCAN_POLICIES = {
    "lru": ScanLruPolicy,
    "lfu": ScanLfuPolicy,
    "random": ScanRandomPolicy,
}


def scan_policy(name: str, num_slots: int):
    """Build the full-scan twin of builtin policy ``name``."""
    return _SCAN_POLICIES[name.lower()](num_slots=num_slots)


def scan_scratchpads(config, num_slots, policy_name="lru", **kwargs):
    """:func:`make_scratchpads` with every policy swapped for its scan
    twin (bound to the scratchpad's hold mask)."""
    pads = make_scratchpads(config, num_slots, policy_name=policy_name, **kwargs)
    for pad in pads:
        pad.policy = scan_policy(pad.policy_name, pad.num_slots)
        pad.policy.bind_hold_mask(pad.hold_mask)
    return pads


# ----------------------------------------------------------------------
# Dict hazard monitor
# ----------------------------------------------------------------------
@dataclass
class DictHazardMonitor(HazardMonitor):
    """:class:`HazardMonitor` with per-element dict bookkeeping.

    ``(table, slot)`` maps to the cycle of the last scheduled write and
    ``(table, row)`` to the cycle its write-back lands.  The first
    ``on_plan`` of a new cycle prunes entries that have already landed;
    a pruned entry is in the past of every later read, so it could never
    flag, and pruning changes no reported violation.
    """

    _pending_slot_writes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _pending_writebacks: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _cycle: int = -1

    def on_plan(self, cycle: int, table: int, plan) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._pending_slot_writes = {
                k: v for k, v in self._pending_slot_writes.items() if v >= cycle
            }
            self._pending_writebacks = {
                k: v for k, v in self._pending_writebacks.items() if v >= cycle
            }
        collect_cycle = cycle + PLAN_TO_COLLECT
        insert_cycle = cycle + PLAN_TO_INSERT
        train_cycle = cycle + PLAN_TO_TRAIN

        for slot in plan.fill_slots:
            pending = self._pending_slot_writes.get((table, int(slot)))
            if pending is not None and pending >= collect_cycle:
                self._flag(
                    f"RAW-2/3: slot {int(slot)} of table {table} chosen as "
                    f"victim (read at cycle {collect_cycle}) while an "
                    f"in-flight batch writes it at cycle {pending}"
                )

        for row in plan.miss_ids:
            pending = self._pending_writebacks.get((table, int(row)))
            if pending is not None and pending >= collect_cycle:
                self._flag(
                    f"RAW-4: row {int(row)} of table {table} read from the "
                    f"CPU table at cycle {collect_cycle} while its "
                    f"write-back lands at cycle {pending}"
                )

        for slot in plan.fill_slots:
            self._pending_slot_writes[(table, int(slot))] = insert_cycle
        for slot in plan.slots:
            existing = self._pending_slot_writes.get((table, int(slot)), -1)
            self._pending_slot_writes[(table, int(slot))] = max(
                existing, train_cycle
            )
        for evicted in plan.evicted_ids:
            if int(evicted) != EMPTY:
                self._pending_writebacks[(table, int(evicted))] = insert_cycle


# ----------------------------------------------------------------------
# Per-cycle np.unique planning
# ----------------------------------------------------------------------
@dataclass
class PerCycleUniquePipeline(ScratchPipePipeline):
    """:class:`ScratchPipePipeline` whose Plan re-runs ``np.unique`` on the
    raw lookup IDs of the batch and of its future window every cycle."""

    def _plan_table(self, table, batch, future_batches):
        future_ids = None
        if future_batches:
            future_ids = np.concatenate(
                [b.table_ids(table) for b in future_batches]
            )
        return self.scratchpads[table].plan_batch(
            batch.sparse_ids[table], future_ids
        )

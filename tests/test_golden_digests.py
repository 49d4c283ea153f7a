"""Golden behaviour digests: committed SHA-256 pins of small-scale outputs.

Each case renders one deterministic output as text and compares its
SHA-256 with ``tests/golden/digests.json``:

* per-batch cache statistics for every builtin policy under both stage
  executors (victim choice, hit/miss/write-back counts per table);
* the fig12a and fig13 figure dumps at a tiny geometry;
* one rendered ``serve`` report.

A refactor that claims byte-identical output must leave every digest
unchanged.  A change that alters behaviour on purpose regenerates them::

    PYTHONPATH=src python -m pytest tests/test_golden_digests.py --regen-digests

and the diff of ``digests.json`` is reviewed like code.

Every ScratchPipe pipeline these cases build runs under a strict
:class:`HazardMonitor` (attached by the ``strict_monitors`` fixture when
the caller passes none), and each case asserts it flagged nothing.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ExperimentSetup,
    fig12a_baseline_latency,
    fig13_speedup,
    serve_latency_grid,
)
from repro.api import CacheSpec, PipelineSpec, SystemSpec, build_system
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config
from repro.serve import ArrivalSpec, format_serve_report

DIGESTS_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"

POLICIES = ("lru", "lfu", "random")
EXECUTORS = ("serial", "overlapped")


@pytest.fixture(autouse=True)
def two_planners(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")


@pytest.fixture
def strict_monitors(monkeypatch):
    """Attach a strict monitor to every ScratchPipe pipeline built during
    the test; yields the list of monitors seen."""
    seen = []
    original = ScratchPipePipeline.__post_init__

    def post_init(self):
        if self.monitor is None:
            self.monitor = HazardMonitor(strict=True)
        seen.append(self.monitor)
        original(self)

    monkeypatch.setattr(ScratchPipePipeline, "__post_init__", post_init)
    yield seen
    assert all(monitor.strict for monitor in seen)
    assert [monitor.violations for monitor in seen] == [[]] * len(seen)


def _stats_text(policy: str, executor: str) -> str:
    cfg = tiny_config(
        rows_per_table=2_000, batch_size=8, lookups_per_table=3, num_tables=2
    )
    trace = MaterialisedDataset(
        make_dataset(cfg, "medium", seed=5, num_batches=40)
    )
    system = build_system(
        SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.08, policy=policy),
            pipeline=PipelineSpec(executor=executor),
        ),
        cfg, DEFAULT_HARDWARE,
    )
    stats = system.simulate_cache(trace, monitor=HazardMonitor(strict=True))
    # The digest must pin real replacement decisions, not a warm-up.
    assert sum(s.writebacks for s in stats) > 0
    return repr(stats)


def _figure_setup() -> ExperimentSetup:
    cfg = tiny_config(
        rows_per_table=20_000, batch_size=8, lookups_per_table=2, num_tables=2
    )
    return ExperimentSetup(config=cfg, num_batches=10, seed=2)


def _fig12a_text() -> str:
    out = fig12a_baseline_latency(_figure_setup(), cache_fractions=(0.02,))
    return json.dumps(out, sort_keys=True)


def _fig13_text() -> str:
    points = fig13_speedup(
        _figure_setup(),
        cache_fractions=(0.02, 0.05),
        localities=("random", "high"),
    )
    return repr(points)


def _serve_text() -> str:
    reports = serve_latency_grid(
        ArrivalSpec(rate=16.0), _figure_setup(), cache_fractions=(0.05,)
    )
    (report,) = reports.values()
    return format_serve_report(report)


#: Case name -> (text renderer, whether it runs a ScratchPipe pipeline).
CASES = {
    **{
        f"stats-{policy}-{executor}": (
            functools.partial(_stats_text, policy, executor), True
        )
        for policy in POLICIES
        for executor in EXECUTORS
    },
    "fig12a": (_fig12a_text, False),
    "fig13": (_fig13_text, True),
    "serve": (_serve_text, True),
}


def _load_digests() -> dict:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, request, strict_monitors):
    render, runs_scratchpipe = CASES[case]
    digest = hashlib.sha256(render().encode()).hexdigest()
    assert bool(strict_monitors) == runs_scratchpipe
    if request.config.getoption("--regen-digests"):
        digests = _load_digests()
        digests[case] = digest
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    expected = _load_digests().get(case)
    assert expected is not None, (
        f"no committed digest for {case!r}; run with --regen-digests"
    )
    assert digest == expected, (
        f"{case}: output changed (sha256 {digest}, committed {expected})"
    )

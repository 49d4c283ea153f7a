"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload meta-10m --seed 0 --seconds 35 --trace 0

Runs each workload in fresh Python processes with every inherited
``REPRO_*`` variable cleared (the workload sets only its own), samples the
memory of each process tree, reaps it, and prints the metrics by name and
unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 600, "failed": 0,
     "metrics": {"throughput_bps": {"value": 44.1, "unit": "batches/s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  ``--workload all`` runs every workload
in turn (its last line prefixes each metric with ``<workload>/``).
``--record-digest`` stores the run's output digest as the expected one for
its seed in ``perfbench/digests.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import proctree  # noqa: E402
from workloads import (  # noqa: E402
    E2E_UNITS, LAYER_UNITS, WORKLOADS, Unit, e2e_metrics, nproc, workload_env,
)

#: Fresh workload processes per untraced run.
PROCESSES = 3
#: Wall budget of one workload's run; a process still running when it is
#: spent is killed, and the run fails.
RUN_TIMEOUT_S = 140.0


def box_fingerprint() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
    }


def child_env(name: str, environ) -> Dict[str, str]:
    """``environ`` without any ``REPRO_*`` variable, plus the workload's own
    and this checkout's sources first on ``PYTHONPATH``."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update(workload_env(name, nproc()))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_process(name: str, args, scratch: Path, index: int,
                timeout_s: float) -> Dict[str, object]:
    """One workload process; returns its result record and ``peak_kb``."""
    out = scratch / f"{name}-{index}.json"
    ship_dir = scratch / f"{name}-{index}-spans"
    ship_dir.mkdir()
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--units", str(WORKLOADS[name].units),
        "--trace", str(args.trace), "--out", str(out),
        "--ship-dir", str(ship_dir),
    ] + (["--tiny"] if args.tiny else []) + (["--reference"] if index == 0 else [])
    result: Dict[str, object] = {"attempted": 1, "failed": 1, "metrics": {},
                                 "errors": []}
    with proctree.TreeMemory() as memory:
        proc = subprocess.Popen(cmd, env=child_env(name, os.environ), cwd=ROOT,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
            result["errors"].append(f"timed out after {timeout_s:.0f}s")
    killed = proctree.reap(memory.seen, grace_s=15.0)
    if code == 0 and out.is_file():
        result = json.loads(out.read_text())
    elif code != 0:
        result["errors"].append(f"workload process exited with code {code}")
    if killed:
        result["errors"].append(f"killed leftover processes {killed}")
    # The sampler can miss a short peak of the workload process itself;
    # its own high-water mark cannot.
    result["peak_kb"] = max(memory.peak_kb, result.get("high_water_kb", 0))
    return result


def run_workload(name: str, args, scratch: Path) -> Dict[str, object]:
    """One benchmark run of a workload.

    An untraced run is ``PROCESSES`` fresh processes, each running the
    workload's ``units``; their units and set-ups are pooled
    (``e2e_metrics``).  Speed differences that come with a process (its
    memory layout) then stay inside a run.  A traced run is one process.
    """
    count = 1 if args.trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for index in range(count):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        parts.append(run_process(name, args, scratch, index, remaining))
    first = parts[0]
    errors = [e for part in parts for e in part["errors"]]
    if len(parts) < count:
        errors.append(f"ran {len(parts)} of {count} processes within "
                      f"{RUN_TIMEOUT_S:.0f}s")
    digests = {json.dumps(part.get("digest"), sort_keys=True) for part in parts}
    if not errors and len(digests) > 1:
        errors.append("workload processes of one run produced different outputs")
    attempted = sum(part["attempted"] for part in parts)
    notes = dict(first.get("notes", {}))
    metrics = dict(first["metrics"])
    if not args.trace and not errors:
        units = [Unit(**unit) for part in parts for unit in part["units"]]
        setups = [t for part in parts for t in part["setup_times"]]
        metrics = e2e_metrics(units, setups, notes)
        metrics["peak_rss_mb"] = max(part["peak_kb"] for part in parts) / 1024
    return {
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "errors": errors,
        "metrics": metrics,
        "notes": notes,
        "digest": first.get("digest"),
        "numpy": first.get("numpy"),
    }


def report(name: str, result: Dict[str, object], units: Dict[str, str]) -> Dict[str, dict]:
    """Print one workload's metrics; returns them in the output format."""
    metrics = {
        key: {"value": result["metrics"][key], "unit": unit}
        for key, unit in units.items() if key in result["metrics"]
    }
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / result['attempted']:.4g}, "
          f"numpy {result.get('numpy', '?')}")
    for key, metric in metrics.items():
        print(f"   {key:34s} {metric['value']:.6g} {metric['unit']}")
    notes = result.get("notes", {})
    if "batch_ms_tail_percentile" in notes:
        print(f"   batch_ms_tail is p{notes['batch_ms_tail_percentile']:.2f} of "
              f"{notes['batch_ms_tail_samples']} samples "
              f"({notes['batch_ms_tail_beyond']} beyond) of a unit, median "
              f"over {notes['units']} units")
    if "unit_walls" in notes:
        walls = ", ".join(f"{w:.3f}" for w in notes["unit_walls"])
        print(f"   timed units (s): {walls}")
    for key in ("sim_hit_rate", "sim_iter_ms", "sim_scratchpipe_iter_ms"):
        if key in notes:
            unit = "ratio" if key == "sim_hit_rate" else "ms"
            print(f"   {key:34s} {notes[key]:.6g} {unit} (simulated)")
    if "digest_checked" in notes:
        print(f"   output digest {'checked against digests.json' if notes['digest_checked'] else 'not committed for this seed; runs checked against each other'}")
    for error in result.get("errors", []):
        print(f"   ERROR: {error}")
    return metrics


def record_digest(name: str, seed: int, digest: Dict[str, str]) -> None:
    path = HERE / "digests.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault(name, {})[str(seed)] = digest
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=35.0,
        help="nominal run length; a run's work is fixed (PROCESSES processes "
             "of the workload's units), so that a faster commit does the same "
             "work in less time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every geometry (self-tests)")
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    proctree.become_subreaper()
    box = box_fingerprint()
    print(f"box: {json.dumps(box)}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = LAYER_UNITS if args.trace else E2E_UNITS
    work = ROOT / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        results = {name: run_workload(name, args, scratch) for name in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    printed = {}
    for name, result in results.items():
        metrics = report(name, result, units)
        prefix = f"{name}/" if len(names) > 1 else ""
        printed.update({prefix + key: value for key, value in metrics.items()})
        if args.record_digest and not args.tiny and not result["failed"]:
            record_digest(name, args.seed, result["digest"])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = all(set(units) <= set(r["metrics"]) for r in results.values())
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

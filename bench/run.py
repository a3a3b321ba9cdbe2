"""Benchmark of sheafgauge: verified reports, from scenario text to table.

    python3 bench/run.py --workload demos-n24 --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout, importing the library from ``src/``.  With ``--trace 0``,
``WORKERS`` fresh interpreters run one after another; each times its
set-up and then runs a single-threaded closed loop of reports for its
share of ``--seconds`` (``worker.py``).  Their samples are pooled: the
speed of one process on this kind of shared virtual machine differs from
the next by more than the speed of one process drifts over time, so
several short processes give steadier medians than one long one.  Every
report is checked against the status table the workload expects.

Durations are CPU seconds of the worker process.  The client is
single-threaded, does no I/O after start-up and runs numpy with one
thread, so on an unshared machine CPU time is its wall time; on a
virtual machine the wall clock also counts time the hypervisor gives to
other guests, which varies from minute to minute.  Wall-clock figures
are printed as information.

With ``--trace 1`` one worker runs the loop for ``--seconds``,
alternating untraced and traced reports, and the last line carries
per-layer metrics, including the tracing overhead.  Spans of a traced
run are written to ``.bench_out/``.  The line before the last one,
``info``, records the environment, the inputs and the worst
residual/tolerance ratio per report key.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import merge_ratios

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKERS = 5
BUDGET_S = 170.0          # every run, set-up included, ends well within 180 s
WORKER_ENV = {
    # One thread for the single-threaded client; a fixed hash seed so set
    # iteration order, and with it the work done, is the same every run.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, **WORKER_ENV}, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def git_commit() -> str:
    """HEAD of the checkout, read without running git (absent outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "worker_env": WORKER_ENV,
    }


def pool(runs: list[dict]) -> dict:
    """The workers' samples and findings, concatenated in run order."""
    out = {"plain": [], "traced": [], "failed": 0, "errors": [],
           "setup_cpu_s": [], "setup_wall_s": [], "peak_rss_kb": [],
           "ratios": {"pass": {}, "fail": {}}}
    for run in runs:
        for key in ("plain", "traced", "errors"):
            out[key] += run[key]
        out["failed"] += run["failed"]
        if run["warmup_error"]:
            out["errors"].append(f"warm-up: {run['warmup_error']}")
        out["setup_cpu_s"].append(run["setup_s"][0])
        out["setup_wall_s"].append(run["setup_s"][1])
        out["peak_rss_kb"].append(run["peak_rss_kb"])
        merge_ratios(out["ratios"], run["ratios"])
    return out


def end_to_end(loop: dict, rotation: int) -> dict:
    """Times are CPU seconds of the worker processes (see the module docstring)."""
    cpu = [c for c, _ in loop["plain"]]
    blocks = [cpu[k:k + rotation] for k in range(0, len(cpu), rotation)]
    return {
        "setup_s": (statistics.median(loop["setup_cpu_s"]), "s"),
        "reports_per_s": (statistics.median(rotation / sum(b) for b in blocks), "1/s"),
        "report_s.p50": (statistics.median(cpu), "s"),
        "report_s.p90": (statistics.quantiles(cpu, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (statistics.median(loop["peak_rss_kb"]) / 1024.0, "MB"),
    }


def wall_clock(loop: dict) -> dict:
    """The same loop by the wall clock, hypervisor steal and all (information)."""
    wall = [w for _, w in loop["plain"]]
    return {"reports_per_s": len(wall) / sum(wall),
            "report_s.p50": statistics.median(wall),
            "setup_s": statistics.median(loop["setup_wall_s"]),
            "cpu_share": sum(c for c, _ in loop["plain"]) / sum(wall)}


def per_layer(loop: dict) -> dict:
    out = {}
    for name, value in loop["layers"].items():
        unit = "s" if name.endswith("self_s") else "count"
        out[name] = (value, unit)
    traced = statistics.median(c for c, _ in loop["traced"])
    plain = statistics.median(c for c, _ in loop["plain"])
    out["trace.overhead_frac"] = (traced / plain - 1, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "sheafgauge" / "__init__.py").is_file():
        print(f"error: no sheafgauge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    items = workloads.make_inputs(args.workload, args.seed)
    job = {"src": str(SRC), "inputs": items, "seconds": args.seconds,
           "trace": bool(args.trace)}

    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            job["spans_out"] = str(OUT / f"spans-{args.workload}-s{args.seed}.json")
            runs = [run_worker(job, deadline)]
        else:
            job["seconds"] = args.seconds / WORKERS
            runs = [run_worker(job, deadline) for _ in range(WORKERS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    loop = pool(runs)

    errors = loop["errors"]
    attempted = len(loop["plain"]) + len(loop["traced"])
    failed = loop["failed"]
    if args.trace:
        metrics = per_layer(runs[0])
    else:
        metrics = end_to_end(loop, len(items))

    print(f"workload {args.workload}  seed {args.seed}  points {spec['n_points']}  "
          f"suite {spec['suite']}  trace {args.trace}")
    print(f"reports: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}), "
          f"{len(loop['plain'])} untraced samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for err in errors[:5]:
        print(f"  FAILED {err}")
    info = {
        "workload": args.workload, "seed": args.seed,
        "n_points": spec["n_points"], "suite": spec["suite"],
        "scenarios": [item["name"] for item in items],
        "setup_samples_s": loop["setup_cpu_s"],
        "workers": len(runs),
        "wall_clock": wall_clock(loop),
        "worst_pass_ratio": loop["ratios"]["pass"],
        "least_fail_ratio": loop["ratios"]["fail"],
        "env": environment(),
    }
    if args.trace:
        info.update(spans=runs[0]["n_spans"], span_coverage_min=runs[0]["coverage_min"])
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter of the benchmark.

Reads a job as JSON on stdin and writes its measurements as one JSON
object on stdout.  Every duration is taken twice, as CPU time of this
process and as wall time.  The clocks for set-up start before ``import
sheafgauge`` and stop when the first, untimed report is rendered.  A
single-threaded closed loop follows: the next report starts once the
previous one is rendered, rotating through the job's scenarios for about
``seconds``.  The loop ends on a whole rotation, so every scenario is
reported equally often and quantiles do not shift with the mix.  With
``trace`` set, reports alternate untraced and traced, each scenario once
each way per rotation.

A report is ``parse_scenario(text)`` -> ``run_checks(scenario, suite)``
-> ``Report.table()``, what ``sheafgauge check`` does without the
process start and the command-line layer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

COVERAGE_FLOOR = 0.9      # share of a traced report's wall time spans must cover


def render(sg, item: dict):
    scn = sg.parse_scenario(item["text"])
    report = sg.run_checks(scn, item["suite"])
    return report, report.table()


def verdict(report, table: str, expected: dict) -> str | None:
    """None when the report shows the expected statuses, else what differs."""
    got = {r.name: r.status for r in report.results()}
    if got != expected:
        wrong = sorted(k for k in got.keys() | expected.keys()
                       if got.get(k) != expected.get(k))
        return "status differs on " + ", ".join(
            f"{k}: {got.get(k, 'missing')} != {expected.get(k, 'absent')}"
            for k in wrong)
    n = len(expected)
    good = sum(1 for s in expected.values() if s == "pass")
    summary = f"{n} checks, {good} passed, {n - good} failed"
    if table.splitlines()[-1] != summary:
        return f"table summary {table.splitlines()[-1]!r} != {summary!r}"
    return None


def merge_ratios(into: dict, new: dict) -> None:
    """Keep the worst residual/tolerance per key of expected-pass checks
    and the smallest, the narrowest margin, of expected-fail ones."""
    for want, better in (("pass", max), ("fail", min)):
        for name, ratio in new.get(want, {}).items():
            seen = into[want].get(name)
            into[want][name] = ratio if seen is None else better(seen, ratio)


def run_loop(sg, items: list[dict], seconds: float, tracer) -> dict:
    """Closed loop for about ``seconds`` of wall time; per report (cpu_s, wall_s)."""
    plain, traced, errors = [], [], []
    failed = 0
    ratios: dict[str, dict[str, float]] = {"pass": {}, "fail": {}}
    n = len(items)
    rotation = 2 * n if tracer else n
    i = 0
    start = time.perf_counter()
    while True:
        item = items[(i // 2 if tracer else i) % n]
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.install(len(traced))
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            report, table = render(sg, item)
        except Exception:
            report, table = None, traceback.format_exc(limit=3)
        c1, w1 = time.process_time(), time.perf_counter()
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else plain).append((c1 - c0, w1 - w0))
        problem = table if report is None else verdict(report, table, item["expected"])
        if problem is not None:
            failed += 1
            errors.append(f"{item['name']}: {problem}")
        else:
            found = {"pass": {}, "fail": {}}
            for r in report.results():
                found[item["expected"][r.name]][r.name] = r.residual / r.tolerance
            merge_ratios(ratios, found)
        i += 1
        if i % rotation == 0:
            # Stop at the rotation boundary nearest to the time budget.
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / (i // rotation)) >= seconds:
                break
    out = {"plain": plain, "traced": traced, "failed": failed, "errors": errors,
           "ratios": ratios}
    if tracer is not None:
        top = tracer.top_level_seconds()
        coverage = min(top.get(r, 0.0) / wall for r, (_, wall) in enumerate(traced))
        if coverage < COVERAGE_FLOOR:
            errors.append(f"spans cover only {coverage:.1%} of a traced report")
        out["coverage_min"] = coverage
        out["layers"] = tracer.layer_metrics(len(traced))
        out["n_spans"] = len(tracer.spans)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    c0, w0 = time.process_time(), time.perf_counter()
    sys.path.insert(0, job["src"])
    import sheafgauge as sg
    if not os.path.abspath(sg.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        print(f"sheafgauge imported from {sg.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    items = job["inputs"]
    report, table = render(sg, items[0])
    result = {"setup_s": (time.process_time() - c0, time.perf_counter() - w0),
              "warmup_error": verdict(report, table, items[0]["expected"])}
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    result.update(run_loop(sg, items, job["seconds"], tracer))
    if tracer is not None:
        tracer.write(job["spans_out"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

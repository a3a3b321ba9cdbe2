"""Span tracing of sheafgauge's public functions, from outside the library.

``Tracer.install`` rebinds each traced function to a recording wrapper in
every ``sheafgauge`` module that holds it: ``from .x import f`` copies
the name, so ``check_connection`` has to be replaced in ``principal``,
``checks``, ``vconn`` and the package namespace alike.  ``uninstall``
puts the originals back.  A span is (name, start, end, parent span,
report id); spans stay in memory until ``write``.

``expr.eval_expr`` is left alone inside ``expr`` itself, where its only
callers are its own recursion, so its spans are top-level calls only.
``checks.run_checks`` is traced as well: its self time is the ``checks``
layer, the battery's own work outside the traced functions.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    "expr.eval_expr", "expr.parse_expr",
    "scenario.parse_scenario", "scenario.build_principal", "scenario.build_seed",
    "cover.circle_cover", "cover.transport_field", "cover.transport_form",
    "catalog.eval_matrix", "catalog.catalog_elements",
    "catalog.random_element", "catalog.random_section",
    "jets.mat_mul", "jets.mat_inv", "jets.field_residual",
    "groups.mc", "groups.rho_matrix", "groups.group_mul",
    "principal.check_cocycle", "principal.complete_connection",
    "principal.check_connection",
    "associated.push_cocycle", "associated.check_representation",
    "associated.check_lie_type", "associated.check_components",
    "associated.evaluate_tensorial",
    "vconn.induce_connection", "vconn.nabla_apply",
    "vconn.pull_back_connection", "vconn.check_frame_roundtrip",
    "report.Report.table",
)
ENCLOSING = "checks.run_checks"
COUNTED = ("jets.Jet", "jets.JetMatrix")
MODULES = ("scenario", "expr", "cover", "catalog", "jets", "groups",
           "principal", "associated", "vconn", "report", "checks")
# Functions whose defining module calls them only recursively.
TOP_LEVEL_ONLY = {"expr.eval_expr"}


def _resolve(dotted: str):
    """(owner, attribute, module) for a ``module.function`` or ``module.Class.method`` name."""
    parts = dotted.split(".")
    module = sys.modules[f"sheafgauge.{parts[0]}"]
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], module


class Tracer:
    """Records spans and constructor counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.report = -1
        self.constructed = {name: 0 for name in COUNTED}
        self._stack: list[int] = []
        self._bindings = []          # (owner, attribute, original, wrapper)
        for name in TRACED + (ENCLOSING,):
            self._bind(name)
        for name in COUNTED:
            cls, attr, _ = _resolve(f"{name}.__init__")
            self._bindings.append((cls, attr, cls.__init__,
                                   self._counter(name, cls.__init__)))

    def _bind(self, name: str) -> None:
        owner, attr, home = _resolve(name)
        original = getattr(owner, attr)
        wrapper = self._span(name, original)
        if owner is not home:            # a method: one binding on its class
            self._bindings.append((owner, attr, original, wrapper))
            return
        holders = [m for key, m in sorted(sys.modules.items())
                   if key == "sheafgauge" or key.startswith("sheafgauge.")]
        for module in holders:
            if name in TOP_LEVEL_ONLY and module is home:
                continue
            for key, value in vars(module).items():
                if value is original:
                    self._bindings.append((module, key, original, wrapper))

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.report)
        return traced

    def _counter(self, name: str, init):
        counts = self.constructed

        @functools.wraps(init)
        def counting(*args, **kwargs):
            counts[name] += 1
            init(*args, **kwargs)
        return counting

    def install(self, report: int) -> None:
        self.report = report
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def top_level_seconds(self) -> dict[int, float]:
        """Per report, the summed duration of spans without a parent."""
        out: dict[int, float] = {}
        for _, start, end, parent, report in self.spans:
            if parent < 0:
                out[report] = out.get(report, 0.0) + end - start
        return out

    def layer_metrics(self, n_reports: int) -> dict[str, float]:
        """Calls and self time per traced function and module, per report.

        Self time is a span's duration minus the durations of its child
        spans; single-threaded calls nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {name: 0 for name in TRACED + (ENCLOSING,)}
        self_s = dict.fromkeys(calls, 0.0)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / n_reports
            out[f"{name}.self_s"] = self_s[name] / n_reports
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                s for name, s in self_s.items()
                if name.split(".")[0] == module) / n_reports
        for name in COUNTED:
            out[f"{name}.constructed"] = self.constructed[name] / n_reports
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent", "report"],
                       "spans": [[index[n], s, e, p, r]
                                 for n, s, e, p, r in self.spans]},
                      fh, separators=(",", ":"))

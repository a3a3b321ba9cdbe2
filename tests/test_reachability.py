"""Every function of the library is reached by the job, or listed with
the reason it stays.

The job is what ``src/`` is for:

- every demo under every suite, through the command line's ``demo``;
- each demo's text through ``check FILE --out PATH --strict``, and
  ``list-demos``;
- one rotation of each benchmark workload's inputs, through the
  benchmark's own ``render`` and ``verdict`` (``bench/`` is only read);
- every scenario of the corpus in ``tests/scenarios/``;
- the pinned inputs that end in exit 2.

It runs in-process under a standard-library profile hook, which records
the code object of every Python function called.  A ``def`` in
``src/sheafgauge/*.py``, nested ones included and lambdas not, is
reached when a recorded code object has its file, its name and its
``def`` line or one of its decorator lines (``co_firstlineno`` of a
decorated function is its first decorator's line).

``LEDGER`` names every function the job never calls, with the reason it
stays.  The test fails on an unreached function that is not listed (it
is reached, moved to ``tests/``, deleted or listed) and on a listed one
that the job now reaches (a stale entry).
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sheafgauge
from sheafgauge import SUITES
from sheafgauge.cli import main
from sheafgauge.scenario import DEMO_MOBIUS, DEMO_SO2, DEMOS
from test_corpus import CORPUS
from test_exit_codes import APART

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(sheafgauge.__file__).resolve().parent

_SO2_ROW = "row = cos(t); -sin(t)"

# Unusable input, by the file name it is checked under: each ends in exit 2.
EXIT_2 = {
    "bad-cocycle.scn": DEMO_SO2.replace(_SO2_ROW, "row = 1 / sin(t); -sin(t)"),
    "syntax-error.scn": DEMO_SO2.replace(_SO2_ROW, "row = cos(t; -sin(t)"),
    "latin1.scn": ("# café\n" + DEMO_SO2).encode("latin-1"),
    "overflow.scn": DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)",
                                        "gl1_diag_powers(1, 100000)"),
    "apart.scn": APART,
}

_ORACLE = ("per-point jet arithmetic: the reference that tests check the stack "
           "kernels against, which ROADMAP item 12 moves to tests/")
_GUARD = "refuses assignment: an immutability guard, which no valid path calls"

# Every function the job never calls, by qualified name, with the reason it stays.
LEDGER: dict[str, str] = {
    **dict.fromkeys([
        "jets.Jet.gradient", "jets.Jet._coerce", "jets.Jet.__add__", "jets.Jet.__sub__",
        "jets.Jet.__rsub__", "jets.Jet.__neg__", "jets.Jet.__mul__", "jets.Jet.__truediv__",
        "jets.Jet.__rtruediv__", "jets.Jet.sin", "jets.Jet.cos", "jets.Jet.exp",
        "jets.Jet.max_abs_diff", "jets.Jet.__repr__", "jets.jet_mul",
        "jets.JetMatrix.rows", "jets.JetMatrix.cols", "jets.JetMatrix.dim",
        "jets.JetMatrix.matmul", "jets.JetMatrix.scale", "jets.JetMatrix.inv",
        "jets.JetMatrix.max_abs_diff", "jets.JetMatrix.__repr__", "jets.max_diff",
    ], _ORACLE),
    **dict.fromkeys([
        "jets.Jet.__setattr__", "jets.JetMatrix.__setattr__", "jets._StackedField.__setattr__",
    ], _GUARD),
    "jets._float_tuple": "converts a jet gradient that is not a tuple of exact floats; "
                         "reports hand over only such tuples, tests hand over lists, "
                         "arrays and ints",
    "errors.OverlapMismatchError.__init__": "glue's error for pieces that disagree on a "
                                            "shared point; a bundle built from a scenario "
                                            "never has such pieces, tests build them",
    "groups._singular": "names the first point without an inverse in rho_matrix and mc; "
                        "a scenario's cocycle entries are checked invertible when built, "
                        "tests pass singular elements",
    "groups.ad_action": "the gauge action on algebra-valued fields; the gauge suite of "
                        "ROADMAP item 6 transforms with it",
    "associated.quotient_reduce": "the paper's E = P x F^n / G; ROADMAP item 3 routes "
                                  "thm3.roundtrip through it",
    "vconn.check_nabla_agreement": "the induced covariant derivative glues across charts; "
                                   "ROADMAP item 3 makes it the induced.nabla key",
    "report.Report.__len__": "bench/test_bench.py and tests/test_golden.py count a "
                             "report's rows with len()",
}


def _bench_module(name: str):
    """``bench/<name>.py``, loaded from its file without touching ``sys.path``."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job(tmp: Path) -> None:
    runner = CliRunner()

    def cli(*args, code: int = 0) -> None:
        r = runner.invoke(main, [str(a) for a in args])
        assert r.exit_code == code, (args, r.output)

    cli("list-demos")
    for demo, text in DEMOS.items():
        for suite in SUITES:
            cli("demo", demo, "--suite", suite)
        path = tmp / f"{demo}.scn"
        path.write_text(text, encoding="utf-8")
        cli("check", path, "--out", tmp / f"{demo}.kv", "--strict")
    workloads, worker = _bench_module("workloads"), _bench_module("worker")
    for workload in workloads.WORKLOADS:
        for item in workloads.make_inputs(workload, seed=0):
            report, table = worker.render(sheafgauge, item)
            assert worker.verdict(report, table, item["expected"]) is None, item["name"]
    for path in CORPUS:
        cli("check", path)
    for name, text in EXIT_2.items():
        path = tmp / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        cli("check", path, code=2)
    cli("check", tmp / "missing.scn", code=2)
    cli("demo", "no-such-demo", code=2)


def called(run) -> set:
    """The code objects of the Python functions called while ``run()`` runs."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def library_defs() -> list[tuple[str, set]]:
    """(qualified name, its (file, line, name) keys) of every ``def`` in the
    library: one key for its ``def`` line and one for each decorator line."""
    out = []

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                out.append((qual, {(str(path), line, child.name) for line in lines}))
                visit(child, path, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set:
    tmp = tmp_path_factory.mktemp("job")
    keys = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
            for c in called(lambda: job(tmp))}
    return {qual for qual, own in library_defs() if not own & keys}


class TestLedger:
    def test_every_unreached_function_is_listed(self, unreached):
        unlisted = sorted(unreached - LEDGER.keys())
        assert not unlisted, f"the job never calls {unlisted}: reach, move, delete or list each"

    def test_no_listed_function_is_reached(self, unreached):
        stale = sorted(LEDGER.keys() - unreached)
        assert not stale, f"the job now calls {stale}: take each out of LEDGER"

"""The report-keyed tolerance table and the worst-point reducer."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import sheafgauge
from helpers import by_key
from sheafgauge import (
    LAWS,
    SUITES,
    TOLERANCES,
    PreconditionError,
    ScenarioError,
    SheafGaugeError,
    parse_scenario,
    run_checks,
)
from sheafgauge.cli import main
from sheafgauge.report import CheckResult, worst
from sheafgauge.scenario import DEMOS
from test_reachability import LEDGER


def with_tolerances(demo: str, *lines: str) -> str:
    return DEMOS[demo] + "\n[tolerances]\n" + "\n".join(lines) + "\n"


class TestToleranceTable:
    def test_keys_are_the_report_keys_in_report_order(self):
        assert tuple(TOLERANCES) == SUITES["all"]
        assert len(TOLERANCES) == 17
        for suite, keys in SUITES.items():
            assert keys and set(keys) <= set(TOLERANCES), suite

    def test_report_key_override_sets_only_that_threshold(self):
        default = by_key(run_checks(parse_scenario(DEMOS["shear-frame"])))
        tight = run_checks(parse_scenario(
            with_tolerances("shear-frame", "connection.eq7 = 1e-20")))
        eq7 = by_key(tight)["connection.eq7"]
        assert eq7.tolerance == 1e-20
        assert eq7.residual == default["connection.eq7"].residual > 1e-20
        assert eq7.status == "fail"
        for r in tight.results():
            if r.name != "connection.eq7":
                assert r == default[r.name]

    def test_override_of_a_shared_input_key_leaves_its_siblings(self):
        report = by_key(run_checks(parse_scenario(
            with_tolerances("so2", "cocycle.inverse = 0"))))
        assert report["cocycle.inverse"].status == "fail"
        assert report["cocycle.unit"].tolerance == TOLERANCES["cocycle.unit"]
        assert report["cocycle.triple"].tolerance == TOLERANCES["cocycle.triple"]

    @pytest.mark.parametrize("key", ["glue", "cocycle", "lie_type", "roundtrip",
                                     "connection"])
    def test_non_report_key_is_rejected_before_any_check(self, key):
        scn = parse_scenario(with_tolerances("so2", f"{key} = 1e-6"))
        with pytest.raises(ScenarioError, match=repr(key)):
            run_checks(scn, "cocycle")

    def test_cli_rejects_short_key_with_exit_2(self, tmp_path):
        f = tmp_path / "so2.scn"
        f.write_text(with_tolerances("so2", "glue = 1e-6"))
        r = CliRunner().invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "'glue'" in r.stderr
        assert "Traceback" not in r.output
        assert r.stdout == ""


def unit_tolerance(value: str) -> tuple[str, int]:
    """The so2 demo with a cocycle.unit threshold, and that line's number."""
    line = f"cocycle.unit = {value}"
    text = with_tolerances("so2", line)
    return text, text.splitlines().index(line) + 1


class TestToleranceValues:
    """A threshold that cannot fail (inf) or cannot pass (NaN, negative)
    is unusable input, rejected with the line and the key."""

    @pytest.mark.parametrize("value", ["nan", "-1", "-1e-300", "inf", "-inf", "1e400"])
    def test_unusable_value_is_rejected(self, value):
        text, line = unit_tolerance(value)
        with pytest.raises(ScenarioError,
                           match=rf"^line {line}: tolerance 'cocycle.unit' must be "
                                 rf"finite and non-negative, got '{re.escape(value)}'$"):
            parse_scenario(text)

    def test_negative_zero_is_stored_and_printed_as_zero(self):
        text, _ = unit_tolerance("-0.0")
        scn = parse_scenario(text)
        assert math.copysign(1.0, scn.tolerances["cocycle.unit"]) == 1.0
        report = run_checks(scn, "cocycle")
        (row,) = [r for r in report.table().splitlines() if r.startswith("cocycle.unit ")]
        assert row.split()[2] == "0.0e+00"
        assert "cocycle.unit.tolerance = 0.0" in report.kv_lines()

    def test_cli_rejects_nan_with_exit_2(self, tmp_path):
        f = tmp_path / "so2.scn"
        text, line = unit_tolerance("nan")
        f.write_text(text)
        r = CliRunner().invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert f"line {line}: tolerance 'cocycle.unit'" in r.stderr
        assert "Traceback" not in r.output
        assert r.stdout == ""


def threshold_knob(name: str) -> bool:
    return (name == "tol" or name.endswith("_tol") or "floor" in name
            or name == "structure_constants")


def package_callables() -> dict:
    """Qualified name -> callable for every function, class and method the
    package defines or exports, private ones included, each object once."""
    found = {}

    def add(name, obj):
        if all(obj is not seen for seen in found.values()):
            found[name] = obj

    for m in pkgutil.iter_modules(sheafgauge.__path__):
        mod = importlib.import_module(f"sheafgauge.{m.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__:
                add(f"{mod.__name__}.{obj.__qualname__}", obj)
    for name in sheafgauge.__all__:
        if callable(getattr(sheafgauge, name)):
            add(f"sheafgauge.{name}", getattr(sheafgauge, name))
    for cls in [obj for obj in found.values() if inspect.isclass(obj)]:
        for klass in cls.__mro__:
            if not klass.__module__.startswith("sheafgauge"):
                continue
            for attr, member in vars(klass).items():
                member = getattr(member, "__func__", member)   # static, class
                if inspect.isfunction(member):
                    add(f"{klass.__module__}.{klass.__qualname__}.{attr}", member)
    return found


class TestNoThresholdKnobs:
    """Each threshold is a module constant; only report keys take an
    override, through a scenario's [tolerances] section."""

    def test_no_function_takes_a_tolerance_or_floor(self):
        found = package_callables()
        # the scan reaches methods, private helpers and the one exemption
        for name in ["sheafgauge.report.worst", "sheafgauge.jets.JetMatrix.inv",
                     "sheafgauge.groups._left_inverse", "sheafgauge.groups.GroupModel.__init__",
                     "sheafgauge.cover.SampledCover._validate_jacobians"]:
            assert name in found, name
        knobs = []
        for qual, obj in sorted(found.items()):
            if obj is worst:
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            knobs += [f"{qual}({p})" for p in params if threshold_knob(p)]
        assert knobs == []

    def test_no_function_takes_a_boolean_switch(self):
        found = package_callables()
        assert "sheafgauge.vconn.induce_connection" in found
        switches = []
        for qual, obj in sorted(found.items()):
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            switches += [f"{qual}({p.name})" for p in params if type(p.default) is bool]
        assert switches == []


class TestWorst:
    def test_first_of_tied_points_wins(self):
        r = worst("k", 1.0, [(0, 0.5), (1, 2.0), (2, 2.0), (3, 1.0)])
        assert (r.name, r.residual, r.tolerance, r.worst_point) == ("k", 2.0, 1.0, 1)
        assert r.status == "fail"

    def test_all_zero_has_no_worst_point(self):
        r = worst("k", 1e-9, [(0, 0.0), (1, 0.0)])
        assert r.residual == 0.0 and r.worst_point is None and r.passed

    def test_empty_input_has_no_worst_point(self):
        r = worst("k", 1e-9, iter(()))
        assert r.residual == 0.0 and r.worst_point is None and r.passed


class TestRequire:
    def test_a_pass_returns_the_result_itself(self):
        r = worst("k", 1e-9, [(0, 1e-10)])
        assert r.require(PreconditionError, "law") is r

    def test_a_failure_raises_with_point_and_residual(self):
        r = worst("k", 1e-9, [(3, 1e-10), (7, 2e-6)])
        with pytest.raises(PreconditionError,
                           match=re.escape("law fails (residual 2.000e-06 at 7)")) as exc:
            r.require(PreconditionError, "law fails")
        assert (exc.value.point, exc.value.residual) == (7, 2e-6)

    def test_an_error_row_does_not_pass(self):
        r = CheckResult("k", 0.0, 1.0, error="SpanError: x")
        with pytest.raises(PreconditionError):
            r.require(PreconditionError, "law")


def error_classes() -> list:
    return [obj for obj in vars(sheafgauge.errors).values()
            if inspect.isclass(obj) and issubclass(obj, SheafGaugeError)]


class TestFailureRecord:
    def test_every_error_carries_point_and_residual(self):
        made = [cls("message", 0) if cls is sheafgauge.errors.ParseError else cls("message")
                for cls in error_classes()]
        assert len(made) >= 20
        for exc in made:
            assert (exc.point, exc.residual) == (None, None), type(exc).__name__


SOURCES = sorted(Path(sheafgauge.__file__).parent.glob("*.py"))


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class TestNamedThresholds:
    """A threshold is a named module constant, never a bare literal."""

    def test_small_float_literals_sit_in_module_constants(self):
        bare = []
        for path in SOURCES:
            tree = parsed(path)
            named = {id(node) for stmt in tree.body
                     if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                     for node in ast.walk(stmt)}
            bare += [f"{path.name}:{node.lineno}: {node.value!r}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and type(node.value) is float
                     and 0.0 < abs(node.value) < 1e-3 and id(node) not in named]
        assert bare == []

    def test_no_comparison_hides_numpys_default_tolerances(self):
        # allclose and isclose compare within rtol 1e-5 and atol 1e-8 unless
        # told otherwise, thresholds that no module constant names
        hidden = {"allclose", "isclose"}
        calls = [f"{path.name}:{node.lineno}" for path in SOURCES
                 for node in ast.walk(parsed(path))
                 if isinstance(node, ast.Attribute) and node.attr in hidden
                 or isinstance(node, ast.Name) and node.id in hidden
                 or isinstance(node, ast.alias) and node.name in hidden]
        assert calls == []

    def test_every_default_tolerance_is_a_name(self):
        (table,) = [stmt.value for stmt in parsed(Path(sheafgauge.checks.__file__)).body
                    if isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets] == ["LAWS"]]
        laws = [e for e in table.elts
                if isinstance(e, ast.Call) and getattr(e.func, "id", None) == "Law"]
        assert len(laws) == len(table.elts) == len(TOLERANCES) == 17
        tolerances = [law.args[3] if len(law.args) > 3 else
                      {k.arg: k.value for k in law.keywords}["tolerance"] for law in laws]
        assert all(isinstance(t, ast.Name) for t in tolerances)


# Bound here only so that bench/tracing.py can rebind it in this module.
UNUSED_IMPORT_EXEMPT = {("catalog.py", "eval_expr")}


def string_constants(path: Path) -> list[str]:
    """The string constants of a source file, docstrings left out."""
    tree = parsed(path)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs]


def docstring_suites() -> dict[str, tuple[str, ...]]:
    """The suite table of ``checks``' module docstring: a row starts with
    the suite name after a four-space indent; its continuation lines are
    indented further."""
    doc = sheafgauge.checks.__doc__
    table = doc.split("Suites select subsets:\n\n")[1].split("\n\n")[0]
    rows: dict[str, tuple[str, ...]] = {}
    for line in table.splitlines():
        words = tuple(line.split())
        if line[4] != " ":
            suite, words = words[0], words[1:]
            rows[suite] = ()
        rows[suite] += words
    return rows


def without_section(demo: str, name: str) -> str:
    """A demo's text with every section whose header starts with ``[name`` removed."""
    kept, skip = [], False
    for line in DEMOS[demo].splitlines():
        if line.startswith("["):
            skip = line[1:].split()[0].rstrip("]") == name
        if not skip:
            kept.append(line)
    return "\n".join(kept) + "\n"


class TestLawTable:
    """Each report key is declared once, in ``checks.LAWS``."""

    def test_each_key_is_one_string_constant_in_the_library(self):
        counts = Counter(s for path in SOURCES for s in string_constants(path))
        assert {key: counts[key] for key in TOLERANCES} == dict.fromkeys(TOLERANCES, 1)

    def test_docstring_table_lists_the_suites(self):
        rows = docstring_suites()
        assert rows.pop("all") == ("everything", "above")
        assert list(rows.items()) == [(s, k) for s, k in SUITES.items() if s != "all"]

    @pytest.mark.parametrize("section,need", [("connection", "seed"),
                                              ("representation", "representation")])
    def test_report_omits_exactly_the_laws_that_need_a_missing_input(self, section, need):
        text = without_section("so2", section)
        assert f"[{section}" not in text and text != DEMOS["so2"]
        report = run_checks(parse_scenario(text))
        assert [r.name for r in report.results()] == [
            law.key for law in LAWS if need not in law.needs]
        assert report.passed


class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        unused = []
        for path in SOURCES:
            if path.name == "__init__.py":
                continue
            tree = parsed(path)
            imported = [alias.asname or alias.name.split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names]
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}: {name}" for name in imported
                       if name not in used and (path.name, name) not in UNUSED_IMPORT_EXEMPT]
        assert unused == []


ROOT = Path(__file__).resolve().parent.parent

def references(path: Path) -> set:
    """The names a file reads, each outside the top-level statement that
    defines it.  A string constant is no reference: the dotted names that
    ``bench/tracing.py`` rebinds need a caller of their own."""
    found = set()
    for stmt in parsed(path).body:
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(stmt)}
        found |= names - {getattr(stmt, "name", None)}
    return found


class TestNoTestOnlyApi:
    def test_every_export_has_a_caller_outside_the_tests(self):
        used = set().union(*(references(path) for path in SOURCES
                             if path.name != "__init__.py"))
        used |= set().union(*(references(path) for path in (ROOT / "bench").glob("*.py")
                              if not path.name.startswith("test_")))
        uncalled = [name for name in sheafgauge.__all__
                    if not inspect.ismodule(getattr(sheafgauge, name)) and name not in used]
        # each stays only with its reason in the reachability ledger
        unlisted = [name for name in uncalled
                    if f"{getattr(sheafgauge, name).__module__.rpartition('.')[2]}.{name}"
                    not in LEDGER]
        assert unlisted == []


class TestOneHomePerRule:
    """The failure record, the Lie-span test, the gauge action of eq7,
    the pairing of sample points with residuals and the rank test and
    left inverse of a basis are each written in one place."""

    def test_only_errors_with_fields_of_their_own_define_init(self):
        tree = parsed(Path(sheafgauge.errors.__file__))
        with_init = [cls.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                     and any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                             for f in cls.body)]
        assert with_init == ["SheafGaugeError", "OverlapMismatchError", "ParseError",
                             "ExprDomainError"]

    def test_each_field_kind_is_built_from_its_stack(self):
        # from_stack is the one public constructor of every field kind: no
        # class derived from jets._StackedField defines __init__
        classes = {cls.name: cls for path in SOURCES for cls in parsed(path).body
                   if isinstance(cls, ast.ClassDef)}
        kinds, grew = {"_StackedField"}, True
        while grew:
            more = {name for name, cls in classes.items()
                    if any(getattr(b, "id", None) in kinds for b in cls.bases)}
            grew, kinds = not more <= kinds, kinds | more
        assert {"ScalarField", "MatrixField", "OneForm", "MatrixOneForm",
                "LieValuedOneForm"} <= kinds
        with_init = sorted(name for name in kinds if any(
            isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in classes[name].body))
        assert with_init == []

    def test_one_span_failure_message(self):
        assert sum(path.read_text().count("leaves span(lie_basis)") for path in SOURCES) == 1

    def test_rho_dot_form_is_called_only_by_gauge_form(self):
        calls = [(path.name, node.lineno) for path in SOURCES
                 for node in ast.walk(parsed(path)) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "rho_dot_form"]
        (home,) = [fn for fn in parsed(Path(sheafgauge.groups.__file__)).body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "gauge_form"]
        assert len(calls) == 1
        assert calls[0][0] == "groups.py" and home.lineno <= calls[0][1] <= home.end_lineno

    def test_left_inverse_runs_only_in_the_model_constructors(self):
        # a basis is solved once, when its model is built; every later use
        # reads the stored left inverse
        def calls(node):
            return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and getattr(n.func, "id", getattr(n.func, "attr", None)) == "_left_inverse"]

        trees = [parsed(path) for path in SOURCES]
        in_init = [cls.name for tree in trees for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                   for _ in calls(fn)]
        assert sorted(in_init) == ["GroupModel", "RepresentationModel"]
        assert sum(len(calls(tree)) for tree in trees) == 2

    def test_points_meet_residuals_only_in_jets(self):
        # each law takes its (point, residual) pairs from jets.residuals or
        # jets.diff_rows instead of zipping points with rows by hand
        paths = [Path(m.__file__) for m in
                 (sheafgauge.principal, sheafgauge.associated, sheafgauge.vconn)]
        zips = [(path.name, node.lineno) for path in paths
                for node in ast.walk(parsed(path)) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "zip"]
        assert zips == []

    def test_no_library_code_reaches_an_svd(self):
        # every rank test and left inverse of a basis is groups._left_inverse,
        # which works on the Gram system
        svd = {"svd", "pinv", "matrix_rank", "lstsq"}
        reads = [(path.name, node.lineno) for path in SOURCES
                 for node in ast.walk(parsed(path))
                 if isinstance(node, ast.Attribute) and node.attr in svd
                 or isinstance(node, ast.alias) and node.name in svd]
        assert reads == []

    def test_one_invertibility_rule(self):
        # which values have an inverse is MatrixField._inverses' decision;
        # JetMatrix.inv keeps its own test as the reference the fields are
        # held to, and no zero-pivot pass second-guesses the floor
        homes, slogdets = [], []
        for path in SOURCES:
            tree = parsed(path)
            spans = [(f"{cls.name}.{fn.name}", fn.lineno, fn.end_lineno)
                     for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef)]
            spans += [(fn.name, fn.lineno, fn.end_lineno)
                      for fn in tree.body if isinstance(fn, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Compare) and any(
                        getattr(n, "id", getattr(n, "attr", None)) == "DET_FLOOR"
                        for n in ast.walk(node)):
                    homes += [name for name, lo, hi in spans if lo <= node.lineno <= hi] \
                        or [f"{path.name}:{node.lineno}"]
                if (isinstance(node, ast.Attribute) and node.attr == "slogdet"
                        or isinstance(node, ast.alias) and node.name == "slogdet"):
                    slogdets.append((path.name, node.lineno))
        assert sorted(homes) == ["JetMatrix.inv", "MatrixField._inverses"]
        assert slogdets == []
        imported = {alias.name for node in ast.walk(parsed(Path(sheafgauge.groups.__file__)))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "DET_FLOOR" not in imported


class TestEveryJetIsValidated:
    """A ``Jet`` is made only by its validating constructor: the slot
    setters are read only inside ``Jet.__init__``, taken from the slots
    once, and nothing calls ``__new__`` on ``Jet``."""

    SETTERS = {"_set_jet_value": "value", "_set_jet_grad_tuple": "grad_tuple"}

    def test_slot_setters_are_used_only_in_the_constructor(self):
        (jet,) = [cls for cls in parsed(Path(sheafgauge.jets.__file__)).body
                  if isinstance(cls, ast.ClassDef) and cls.name == "Jet"]
        (init,) = [fn for fn in jet.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        reads = [(path.name, node.lineno) for path in SOURCES
                 for node in ast.walk(parsed(path)) if isinstance(node, ast.Name)
                 and node.id in self.SETTERS and isinstance(node.ctx, ast.Load)]
        assert len(reads) == len(self.SETTERS)
        assert all(name == "jets.py" and init.lineno <= line <= init.end_lineno
                   for name, line in reads), reads

    def test_slot_setters_are_taken_once(self):
        taken = [node.value.attr for path in SOURCES for node in ast.walk(parsed(path))
                 if isinstance(node, ast.Attribute) and node.attr == "__set__"
                 and isinstance(node.value, ast.Attribute)
                 and getattr(node.value.value, "id", None) == "Jet"]
        assert sorted(taken) == sorted(["_gradient", *self.SETTERS.values()])

    def test_nothing_calls_new_on_jet(self):
        calls = [(path.name, node.lineno) for path in SOURCES
                 for node in ast.walk(parsed(path)) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "__new__"
                 and any(isinstance(n, ast.Name) and n.id == "Jet"
                         for part in (node.func, *node.args) for n in ast.walk(part))]
        assert calls == []

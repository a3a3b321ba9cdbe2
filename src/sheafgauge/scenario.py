"""Scenario files: a line-oriented description of a checkable bundle.

Format
------
Blank lines and ``#`` comments are ignored.  Top-level ``name = ...``
names the scenario.  Sections begin with a bracketed header:

    [space]                 points = N (1 .. MAX_POINTS) and one
                            ``region id = a .. b`` per region
                            (inclusive circular index range, wrapping
                            when b < a; both bounds lie in 0 .. N-1)
    [group]                 kind = gl(n) | so(2) | gl1+ | torus(n),
                            n at most ``groups.MAX_AMBIENT``
    [cocycle a b]           the transition element from chart b to
                            chart a, one ``row = e1; e2; ...`` line per
                            matrix row, entries in the expression
                            language
    [representation]        name = trivial(n) | so2_in_gl2
                                 | gl1_diag_powers(p1, ..., pn)
    [connection a]          seed form on chart a: either
                            ``coeffs = e1; ...; em`` (Lie basis
                            coefficients) or ``row = ...`` matrix rows
                            to be expanded in the Lie basis
    [tolerances]            optional ``report.key = float`` pass
                            thresholds, each finite and non-negative;
                            ``run_checks`` rejects any key that is not
                            a report key

Only ``region`` and ``row`` lines repeat; a key given twice is an error.

The base space is the circle sampled at N equally spaced angles; all
charts share the angle coordinate, so overlap Jacobians are identity.
Expressions are functions of the global angle and are evaluated on
every sample point, not just a chart: the extra values feed connection
propagation and section transport beyond the overlaps.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .associated import RepresentationModel, rep_by_name
from .catalog import eval_matrix, sample_values
from .cover import SampledCover, arc_range, circle_cover
from .errors import ExprDomainError, ParseError, ScenarioError
from .expr import eval_expr, parse_expr
from .groups import GroupModel, LieValuedOneForm, model_by_name
from .jets import point_order
from .principal import PrincipalSheafData

DEFAULT_POINTS = 24
# Largest sample count.  A report costs about 1 ms of CPU and 10 kB of
# memory per point (the three demos at 4800 points on a 2-vCPU VM), so
# this keeps one within about a minute and half a gigabyte.
MAX_POINTS = 50_000


@dataclass
class Scenario:
    name: str = "unnamed"
    n_points: int = DEFAULT_POINTS
    regions: dict[str, tuple[int, int]] = dc_field(default_factory=dict)
    group_kind: str | None = None
    cocycle_rows: dict[tuple[str, str], list[list]] = dc_field(default_factory=dict)
    representation: str | None = None
    seed_chart: str | None = None
    seed_coeffs: list | None = None
    seed_rows: list[list] | None = None
    tolerances: dict[str, float] = dc_field(default_factory=dict)

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))


def _split_exprs(line_no: int, text: str) -> list:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ScenarioError(f"line {line_no}: empty expression entry")
        try:
            out.append(parse_expr(chunk))
        except ParseError as exc:
            raise ScenarioError(f"line {line_no}: bad expression {chunk!r}: {exc}") from exc
    return out


def parse_scenario(text: str) -> Scenario:
    s = Scenario()
    section: tuple | None = None
    seen_cocycle_rows: list[list] | None = None
    region_lines: dict[str, int] = {}
    seen_keys: set[tuple] = set()
    representation_line = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {line_no}: unterminated section header")
            head = line[1:-1].split()
            if not head:
                raise ScenarioError(f"line {line_no}: empty section header")
            kind = head[0]
            if kind == "space" and len(head) == 1:
                section = ("space",)
            elif kind == "group" and len(head) == 1:
                section = ("group",)
            elif kind == "cocycle" and len(head) == 3:
                pair = (head[1], head[2])
                if pair in s.cocycle_rows or (pair[1], pair[0]) in s.cocycle_rows:
                    raise ScenarioError(
                        f"line {line_no}: duplicate cocycle section for {pair}")
                seen_cocycle_rows = []
                s.cocycle_rows[pair] = seen_cocycle_rows
                section = ("cocycle", pair)
            elif kind == "representation" and len(head) == 1:
                representation_line = line_no
                section = ("representation",)
            elif kind == "connection" and len(head) == 2:
                if s.seed_chart is not None:
                    raise ScenarioError(f"line {line_no}: second connection section")
                s.seed_chart = head[1]
                section = ("connection",)
            elif kind == "tolerances" and len(head) == 1:
                section = ("tolerances",)
            else:
                raise ScenarioError(f"line {line_no}: unknown section {line!r}")
            continue

        if "=" not in line:
            raise ScenarioError(f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        # one value per key; region lines check their own ids, and the
        # cocycle and connection sections their rows and coeffs
        where = section[0] if section else None
        if where in (None, "space", "group", "representation", "tolerances") \
                and not key.startswith("region "):
            if (where, key) in seen_keys:
                raise ScenarioError(f"line {line_no}: repeated key {key!r}")
            seen_keys.add((where, key))

        if section is None:
            if key == "name":
                s.name = value
            else:
                raise ScenarioError(f"line {line_no}: key {key!r} outside any section")
        elif section[0] == "space":
            if key == "points":
                try:
                    s.n_points = int(value)
                except ValueError:
                    raise ScenarioError(f"line {line_no}: points wants an integer") from None
                if s.n_points < 1:
                    raise ScenarioError(f"line {line_no}: points must be positive")
                if s.n_points > MAX_POINTS:
                    raise ScenarioError(
                        f"line {line_no}: points = {s.n_points} exceeds the "
                        f"size limit {MAX_POINTS}")
            elif key.startswith("region "):
                rid = key[len("region "):].strip()
                if not rid or rid in s.regions:
                    raise ScenarioError(f"line {line_no}: bad or repeated region id")
                m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", value)
                if not m:
                    raise ScenarioError(
                        f"line {line_no}: region wants a range like 0 .. 9")
                s.regions[rid] = (int(m.group(1)), int(m.group(2)))
                region_lines[rid] = line_no
            else:
                raise ScenarioError(f"line {line_no}: unknown space key {key!r}")
        elif section[0] == "group":
            if key != "kind":
                raise ScenarioError(f"line {line_no}: unknown group key {key!r}")
            s.group_kind = value
        elif section[0] == "cocycle":
            if key != "row":
                raise ScenarioError(f"line {line_no}: cocycle sections use row = ...")
            seen_cocycle_rows.append(_split_exprs(line_no, value))
        elif section[0] == "representation":
            if key != "name":
                raise ScenarioError(f"line {line_no}: representation wants name = ...")
            s.representation = value
        elif section[0] == "connection":
            if key == "coeffs":
                if s.seed_coeffs is not None or s.seed_rows is not None:
                    raise ScenarioError(f"line {line_no}: connection already seeded")
                s.seed_coeffs = _split_exprs(line_no, value)
            elif key == "row":
                if s.seed_coeffs is not None:
                    raise ScenarioError(f"line {line_no}: connection already seeded")
                if s.seed_rows is None:
                    s.seed_rows = []
                s.seed_rows.append(_split_exprs(line_no, value))
            else:
                raise ScenarioError(f"line {line_no}: unknown connection key {key!r}")
        elif section[0] == "tolerances":
            try:
                threshold = float(value)
            except ValueError:
                raise ScenarioError(f"line {line_no}: tolerance wants a float") from None
            # NaN fails every residual, inf passes every one, and a
            # negative threshold fails even an exact zero
            if not 0.0 <= threshold < math.inf:
                raise ScenarioError(
                    f"line {line_no}: tolerance {key!r} must be finite and "
                    f"non-negative, got {value!r}")
            # abs: a -0.0 threshold would print its sign in the report
            s.tolerances[key] = abs(threshold)

    for rid, bounds in s.regions.items():
        for b in bounds:
            if not 0 <= b < s.n_points:
                raise ScenarioError(
                    f"line {region_lines[rid]}: region {rid!r} bound {b} is outside "
                    f"0 .. {s.n_points - 1}")
    if representation_line is not None and s.representation is None:
        raise ScenarioError(f"line {representation_line}: representation section has no name")
    _validate(s)
    return s


def _validate(s: Scenario) -> None:
    if not s.regions:
        raise ScenarioError("scenario has no regions")
    if s.group_kind is None:
        raise ScenarioError("scenario has no [group] section")
    for pair in s.cocycle_rows:
        for rid in pair:
            if rid not in s.regions:
                raise ScenarioError(f"cocycle names unknown region {rid!r}")
        rows = s.cocycle_rows[pair]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ScenarioError(f"cocycle {pair} is not a square matrix")
    if s.seed_chart is not None and s.seed_chart not in s.regions:
        raise ScenarioError(f"connection names unknown region {s.seed_chart!r}")
    if s.seed_chart is not None and s.seed_coeffs is None and s.seed_rows is None:
        raise ScenarioError("connection section has no coeffs or rows")


def load_scenario(path) -> Scenario:
    """Parse the scenario file at ``path``: UTF-8 text, a leading BOM
    skipped."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what follows a skipped BOM; the offset is the file's
        offset = len(data) - len(exc.object) + exc.start
        raise ScenarioError(f"cannot read scenario {p}: not UTF-8 text "
                            f"(byte 0x{exc.object[exc.start]:02x} at offset {offset})") from None
    return parse_scenario(text)


# -- builders -----------------------------------------------------------------

def build_cover(s: Scenario) -> SampledCover:
    arcs = {}
    for rid, (a, b) in s.regions.items():
        arcs[rid] = arc_range(a, b, s.n_points)
    return circle_cover(s.n_points, arcs)


def build_group(s: Scenario) -> GroupModel:
    return model_by_name(s.group_kind)


def global_coords(cover: SampledCover) -> dict:
    """Angle coordinate of every sample point of a circle cover."""
    out = {}
    for (rid, p), c in cover.coords.items():
        out.setdefault(p, c)
    return out


def build_principal(s: Scenario, cover: SampledCover,
                    group: GroupModel) -> PrincipalSheafData:
    """Evaluate the cocycle expressions into a principal object.

    Each named pair is evaluated on all sample points; the overlap
    restriction becomes the cocycle entry and the full field is kept as
    its extension.  Every overlapping region pair must be named, and
    every named pair must overlap.  An entry that fails raises
    ExprDomainError, its message prefixed with
    ``cocycle (a, b): row r, entry c: ``; a subexpression shared by
    several entries belongs to the first of them in row-major order.
    """
    k = group.ambient
    coords = global_coords(cover)
    entries = {}
    ext = {}
    for (a, b), rows in s.cocycle_rows.items():
        if len(rows) != k:
            raise ScenarioError(
                f"cocycle ({a}, {b}) is {len(rows)}x{len(rows[0])}, ambient is {k}")
        overlap = cover.overlap_points(a, b)
        if not overlap:
            raise ScenarioError(
                f"cocycle ({a}, {b}): regions {a!r} and {b!r} do not overlap")
        try:
            full = eval_matrix(rows, a, coords)
        except ExprDomainError as e:
            raise _at_entry(f"cocycle ({a}, {b})", e, e.entry, len(rows[0])) from None
        ext[(a, b)] = full
        entries[(a, b)] = full.restrict(overlap)
    named = {frozenset(pair) for pair in s.cocycle_rows}
    for a, b in cover.overlap_pairs():
        if frozenset((a, b)) not in named:
            raise ScenarioError(
                f"regions {a!r} and {b!r} overlap but no cocycle entry is given")
    return PrincipalSheafData.from_pairs(cover, group, entries, ext)


def _at_entry(section: str, e: ExprDomainError, index: int,
              cols: int | None) -> ExprDomainError:
    """``e`` under its section and entry, counted from 1: ``row r, entry
    c`` of a matrix with ``cols`` columns, or ``entry k`` of a list
    (``cols`` None).  The offset is kept."""
    where = (f"entry {index + 1}" if cols is None
             else f"row {index // cols + 1}, entry {index % cols + 1}")
    return ExprDomainError(f"{section}: {where}: {e}", e.offset, index)


def build_representation(s: Scenario, group: GroupModel) -> RepresentationModel:
    if s.representation is None:
        raise ScenarioError("scenario has no [representation] section")
    return rep_by_name(s.representation, group)


def build_seed(s: Scenario, cover: SampledCover,
               group: GroupModel) -> tuple[str, LieValuedOneForm] | None:
    """Evaluate the seed connection form on every sample point.

    Every entry is evaluated at every point first, in ``point_order``,
    so a failure names the point a cocycle entry would.  Coefficient seeds
    fill the (dim, m) arrays directly; matrix seeds are then expanded in
    the Lie basis and must lie in its span.  An entry that fails raises
    ExprDomainError, its message prefixed with ``connection <chart>: ``
    and ``entry k: `` for coefficients or ``row r, entry c: `` for a
    matrix.
    """
    if s.seed_chart is None:
        return None
    k, m = group.ambient, group.rank
    if s.seed_coeffs is not None:
        if len(s.seed_coeffs) != m:
            raise ScenarioError(
                f"connection coeffs: {len(s.seed_coeffs)} entries, algebra rank {m}")
        entries, cols = s.seed_coeffs, None
    else:
        if len(s.seed_rows) != k or any(len(r) != k for r in s.seed_rows):
            raise ScenarioError("connection rows must form an ambient-size matrix")
        entries, cols = [e for row in s.seed_rows for e in row], k
    coords = global_coords(cover)
    pts = point_order(coords)
    values = np.empty((len(pts), len(entries)))
    for i, t in enumerate(sample_values(coords, pts)):
        for j, e in enumerate(entries):
            try:
                values[i, j] = eval_expr(e, t).value
            except ExprDomainError as err:
                raise _at_entry(f"connection {s.seed_chart}", err, j, cols) from None
    if s.seed_coeffs is not None:
        coeffs = values[:, None]
    else:
        coeffs = group.span_coeffs(values.reshape(len(pts), 1, k, k), pts, "seed matrix")
    return s.seed_chart, LieValuedOneForm.from_stack(s.seed_chart, pts, coeffs)


# -- built-in demos -----------------------------------------------------------

DEMO_MOBIUS = """\
# Rank-1 sign-flip bundle over the 24-point circle, pushed to rank 2
# through a -> diag(a, a^2).  Triple overlaps are empty, so the lone
# -1 entry is a consistent twist.
name = mobius

[space]
points = 24
region alpha = 0 .. 9
region beta  = 8 .. 17
region gamma = 16 .. 1

[group]
kind = gl(1)

[cocycle alpha beta]
row = 1

[cocycle beta gamma]
row = 1

[cocycle gamma alpha]
row = -1

[representation]
name = gl1_diag_powers(1, 2)

[connection alpha]
coeffs = (2 + cos(t)) / 4
"""

DEMO_SO2 = """\
# Rotation-valued transition over two arcs; the transition angle is the
# base angle itself, so the logarithmic differential is the constant
# quarter-turn coefficient.
name = so2

[space]
points = 24
region alpha = 0 .. 13
region beta  = 12 .. 1

[group]
kind = so(2)

[cocycle alpha beta]
row = cos(t); -sin(t)
row = sin(t); cos(t)

[representation]
name = so2_in_gl2

[connection alpha]
coeffs = (2 + sin(t)) / 4
"""

DEMO_SHEAR_FRAME = """\
# Rank-2 frame-style data: a unipotent shear cocycle with the identity
# representation, so the associated object is the bundle itself.
name = shear-frame

[space]
points = 24
region alpha = 0 .. 13
region beta  = 12 .. 1

[group]
kind = gl(2)

[cocycle alpha beta]
row = 1; t
row = 0; 1

[representation]
name = trivial(2)

[connection alpha]
row = sin(t) / 2; (1 + cos(t)) / 4
row = 0; 1 / (2 + sin(t))
"""

DEMOS = {
    "mobius": DEMO_MOBIUS,
    "so2": DEMO_SO2,
    "shear-frame": DEMO_SHEAR_FRAME,
}


def demo_names() -> list[str]:
    return sorted(DEMOS)


def load_demo(name: str) -> Scenario:
    try:
        text = DEMOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown demo {name!r}; available: {', '.join(demo_names())}") from None
    return parse_scenario(text)

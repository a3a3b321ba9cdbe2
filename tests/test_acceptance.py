"""Acceptance gate: the numbered claims the library is sold on.

Each test covers one criterion and prints a single pass/fail line;
tolerances are pinned here and nowhere weakened.  The whole module is
expected to run well under the five-second budget.
"""

import math
import random

import numpy as np
import pytest

from conftest import DEMO_NAMES, demo_pipeline
from helpers import map_entries, stacked
from sheafgauge import (
    ExprDomainError,
    JetMatrix,
    ParseError,
    PrincipalSectionLocal,
    PrincipalSheafData,
    ScalarField,
    catalog_elements,
    catalog_rows,
    check_cocycle,
    check_connection,
    check_frame_roundtrip,
    check_leibniz_koszul,
    check_lie_type,
    check_logarithmic_rule,
    d_field,
    eval_expr,
    evaluate_tensorial,
    gl1_positive_model,
    gl_model,
    group_mul,
    induce_connection,
    jet_mul,
    load_demo,
    mat_inv,
    mat_mul,
    parse_expr,
    pull_back_connection,
    random_element,
    random_principal_section,
    random_scalar_field,
    random_section,
    run_checks,
    section_to_tensorial,
    so2_model,
    tensorial_to_section,
)

RNG_SEED = 20240811


def announce(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


class TestAcceptance:
    def test_criterion_01_jet_leibniz(self):
        tol = 1e-14
        worst = 0.0
        rng = random.Random(RNG_SEED)
        for name in DEMO_NAMES:
            cover = demo_pipeline(name).cover
            for _ in range(100):
                s = random_scalar_field("base", cover.points, 1, rng)
                t = random_scalar_field("base", cover.points, 1, rng)
                dst = d_field(stacked(ScalarField, "base", {
                    p: jet_mul(s.data[p], t.data[p]) for p in cover.points}))
                for p in cover.points:
                    want = s.data[p].value * d_field(t).data[p] \
                        + t.data[p].value * d_field(s).data[p]
                    worst = max(worst, float(np.max(np.abs(dst.data[p] - want))))
        announce(1, "jet Leibniz over 100 random field pairs per scenario",
                 worst <= tol, f"residual {worst:.3e} <= {tol:.0e}")

    def test_criterion_02_logarithmic_rule(self):
        tol = 1e-9
        worst = 0.0
        cover = demo_pipeline("so2").cover
        for model in (gl1_positive_model(), so2_model(), gl_model(2)):
            elems = catalog_elements(model, cover, "alpha")
            for g in elems:
                for h in elems:
                    r = check_logarithmic_rule(model, g, h)
                    worst = max(worst, r.residual)
        announce(2, "crossed-homomorphism rule on all catalog pairs",
                 worst <= tol, f"residual {worst:.3e} <= {tol:.0e}")

    def test_criterion_03_cocycle_identities(self):
        tol = 1e-12
        worst = 0.0
        for name in DEMO_NAMES:
            P = demo_pipeline(name).P
            worst = max(worst, *(r.residual for r in check_cocycle(P).values()))
        P = demo_pipeline("so2").P
        bad_point = sorted(P.cover.overlap_points("alpha", "beta"))[0]
        bumped = dict(P.cocycle)
        bumped[("alpha", "beta")] = map_entries(
            bumped[("alpha", "beta")],
            lambda p, m: JetMatrix(
                m.value + (1e-3 if p == bad_point else 0.0), m.grad))
        verdicts = check_cocycle(
            PrincipalSheafData(P.cover, P.group, bumped, P.ext))
        hit = verdicts["inverse"]
        ok = worst <= tol and hit.residual >= 5e-4 and hit.worst_point == bad_point
        announce(3, "cocycle identities pass and a 1e-3 corruption is caught",
                 ok, f"residual {worst:.3e} <= {tol:.0e}, "
                     f"corruption {hit.residual:.3e} at {hit.worst_point}")

    def test_criterion_04_pushed_cocycles(self):
        tol = 1e-10
        worst = 0.0
        for name in DEMO_NAMES:
            E = demo_pipeline(name).E
            worst = max(worst,
                        *(r.residual for r in check_cocycle(E).values()))
        announce(4, "pushed cocycles keep the identities for all three "
                    "representations", worst <= tol,
                 f"residual {worst:.3e} <= {tol:.0e}")

    def test_criterion_05_lie_type_conditions(self):
        tol = 1e-9
        worst_mc = worst_rho = 0.0
        for name in DEMO_NAMES:
            pipe = demo_pipeline(name)
            elems = catalog_elements(pipe.R.source, pipe.cover, "alpha")
            elems += [f for (a, b), f in sorted(pipe.P.cocycle.items())
                      if a != b and f.points]
            parts = check_lie_type(pipe.R, elems)
            worst_mc = max(worst_mc, parts["mc"].residual)
            worst_rho = max(worst_rho, parts["rho"].residual)
        ok = worst_mc <= tol and worst_rho <= tol
        announce(5, "both Lie-type conditions for the shipped representations",
                 ok, f"mc {worst_mc:.3e}, rho {worst_rho:.3e} <= {tol:.0e}")

    def test_criterion_06_tensorial_correspondence(self):
        tol_round, tol_tens = 1e-12, 1e-10
        worst_round = worst_tens = 0.0
        rng = random.Random(RNG_SEED + 6)
        for name in DEMO_NAMES:
            pipe = demo_pipeline(name)
            E, P, R = pipe.E, pipe.P, pipe.R
            s = random_section(E, rng)
            f = section_to_tensorial(E, s)
            back = tensorial_to_section(E, f)
            for a in s.components:
                for p in s.components[a].points:
                    worst_round = max(worst_round, s.components[a].data[p]
                                      .max_abs_diff(back.components[a].data[p]))
            chart = "alpha"
            for _ in range(20):
                sec = random_principal_section(P, chart, rng)
                g = random_element(P.group, P.cover, chart, rng)
                moved = PrincipalSectionLocal(chart, group_mul(sec.factor, g))
                lhs = evaluate_tensorial(P, R, f, moved)
                rhs = mat_mul(R.phi(mat_inv(g)), evaluate_tensorial(P, R, f, sec))
                for p in lhs.points:
                    worst_tens = max(worst_tens,
                                     lhs.data[p].max_abs_diff(rhs.data[p]))
        ok = worst_round <= tol_round and worst_tens <= tol_tens
        announce(6, "tensorial morphisms and sections correspond",
                 ok, f"roundtrip {worst_round:.3e} <= {tol_round:.0e}, "
                     f"tensoriality {worst_tens:.3e} <= {tol_tens:.0e}")

    def test_criterion_07_induced_connections(self):
        tol = 1e-9
        worst = 0.0
        for name in DEMO_NAMES:
            pipe = demo_pipeline(name)
            worst = max(worst,
                        check_connection(pipe.E, pipe.nab).residual)
        announce(7, "completed and pushed connections obey the matrix law",
                 worst <= tol, f"residual {worst:.3e} <= {tol:.0e}")

    def test_criterion_08_leibniz_koszul(self):
        tol = 1e-12
        worst = 0.0
        rng = random.Random(RNG_SEED + 8)
        for name in DEMO_NAMES:
            pipe = demo_pipeline(name)
            for _ in range(100):
                a = random_scalar_field("base", pipe.cover.points, 1, rng)
                s = random_section(pipe.E, rng)
                r = check_leibniz_koszul(pipe.E, pipe.nab, a, s)
                worst = max(worst, r.residual)
        announce(8, "Leibniz-Koszul rule over 100 random pairs per scenario",
                 worst <= tol, f"residual {worst:.3e} <= {tol:.0e}")

    def test_criterion_09_connection_correspondence(self):
        tol = 1e-12
        pipe = demo_pipeline("so2")
        back = pull_back_connection(pipe.E, pipe.R, pipe.nab)
        worst_pull = max(
            float(np.max(np.abs(back.form(c).data[p] - pipe.D.form(c).data[p])))
            for c in pipe.D.forms for p in pipe.D.form(c).data)
        again = induce_connection(pipe.P, pipe.R, back)
        worst_ind = max(
            float(np.max(np.abs(again.form(c).data[p] - pipe.nab.form(c).data[p])))
            for c in pipe.nab.forms for p in pipe.nab.form(c).data)
        ok = worst_pull <= tol and worst_ind <= tol
        announce(9, "pull-back and induction invert each other for the "
                    "injective representation", ok,
                 f"pull {worst_pull:.3e}, induce {worst_ind:.3e} <= {tol:.0e}")

    def test_criterion_10_frame_roundtrip(self):
        tol = 1e-12
        pipe = demo_pipeline("shear-frame")
        r = check_frame_roundtrip(pipe.E, pipe.nab)
        announce(10, "frame-sheaf round trip reproduces the connection",
                 r.residual <= tol, f"residual {r.residual:.3e} <= {tol:.0e}")

    def test_criterion_11_frontend(self):
        step, tol = 1e-6, 1e-6
        worst = 0.0
        angles = [2 * math.pi * k / 24 for k in range(24)]
        for model in (gl1_positive_model(), so2_model(), gl_model(2)):
            for rows in catalog_rows(model):
                for row in rows:
                    for src in row:
                        e = parse_expr(src)
                        for t in angles:
                            try:
                                j = eval_expr(e, t)
                                hi = eval_expr(e, t + step).value
                                lo = eval_expr(e, t - step).value
                            except ExprDomainError:
                                continue
                            fd = (hi - lo) / (2 * step)
                            gap = abs(j.gradient[0] - fd) / max(1.0, abs(fd))
                            worst = max(worst, gap)
        positioned = True
        for src, offset in (("cos(", 4), (")", 0), ("2 +", 3), ("t t", 2)):
            try:
                parse_expr(src)
                positioned = False
            except ParseError as exc:
                positioned = positioned and exc.offset == offset
        reports = [run_checks(load_demo("so2")) for _ in range(2)]
        deterministic = reports[0].kv_lines() == reports[1].kv_lines() \
            and reports[0].table() == reports[1].table()
        ok = worst <= tol and positioned and deterministic
        announce(11, "parser derivatives, positioned errors, deterministic "
                     "reports", ok,
                 f"fd gap {worst:.3e} <= {tol:.0e}, positioned={positioned}, "
                 f"deterministic={deterministic}")

"""Acceptance gate: one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  The two strict-xfail entries under criterion 2 assert the
published fiber-normal values for example 5.3 verbatim; those printed
values contradict the metric (the computed values satisfy the umbilic
identity and every cross-check), so the asserts are expected to fail
and the catalog reports them through the paper-divergent channel.
"""

import json
import math

import numpy as np
import pytest

from confsub import catalog
from confsub import geometry as geo
from confsub import report
from confsub import soliton as sol
from confsub import submersion as sub
from confsub.expr import eval_expr, parse_expression, to_text
from confsub.geometry import Point
from confsub.identities import IdentityContext, run_check
from confsub.jets import JetSpace, primal
from confsub.manifest import parse_manifest
from conftest import all_rows, chart, context, flat_chart, oneill, sample
from support import constant_field
from test_geometry import fd_ricci
import jet_reference as jr

HYPERBOLIC = chart("x1 x2", ["x2^-2, 0", "0, x2^-2"], "x2 > 0")
FUNDAMENTAL = ("G2.12", "G2.13", "G2.14", "G2.15")


def unit(i, m):
    return tuple(1.0 if j == i else 0.0 for j in range(m))


# -- criterion 1: example 5.1 transcription fidelity --------------------

def test_criterion_1_example_51_transcription():
    setup = catalog.load_job("5.1").setup
    points = sample([(-1.5, 1.5), (-1.0, 1.0)], 20, seed=101)
    e1, e2 = unit(0, 2), unit(1, 2)
    ctx = context(setup, points)
    for i, p in enumerate(points):
        x2 = p.coords[1]
        expected = np.zeros((2, 2, 2))
        expected[1, 0, 0] = math.exp(-2 * x2)   # Gamma^2_11
        expected[0, 0, 1] = expected[0, 1, 0] = -1.0
        assert np.max(np.abs(ctx.gamma[i] - expected)) <= 1e-9

        alone = IdentityContext(setup, [p])
        assert alone.lam_sq[0] == pytest.approx(math.exp(2 * x2), abs=1e-9)
        assert alone.anisotropy[0] <= 1e-10

        axx = oneill(ctx.a_tensor[i], e1, e1)
        assert axx == pytest.approx((0.0, math.exp(-2 * x2)), abs=1e-9)

        for u, v in ((e2, e2), (e2, e1)):
            t = oneill(ctx.t_tensor[i], u, v)
            assert np.max(np.abs(t)) <= 1e-9


# -- criterion 2: examples 5.3/5.4 structure claims ----------------------

def test_criterion_2_examples_53_54_structure():
    job53 = catalog.load_job("5.3")
    points53 = job53.points[:10]
    ctx53 = context(job53.setup, points53)
    for x in (unit(1, 3), unit(2, 3)):
        axx = oneill(ctx53.a_tensor, x, x)
        assert np.max(np.abs(axx)) <= 1e-9
    flags53 = sub.structure_flags(ctx53)
    assert flags53["horizontal_integrable"].holds
    assert flags53["horizontal_totally_geodesic"].holds

    job54 = catalog.load_job("5.4")
    points54 = job54.points[:10]
    ctx54 = context(job54.setup, points54)
    assert np.max(np.abs(ctx54.gamma)) <= 1e-9
    for p in points54:
        alone = IdentityContext(job54.setup, [p])
        assert math.sqrt(alone.lam_sq[0]) == pytest.approx(0.5, abs=1e-9)
        assert alone.anisotropy[0] <= 1e-10
    flags54 = sub.structure_flags(ctx54)
    assert flags54["map_totally_geodesic"].holds


@pytest.mark.xfail(strict=True, reason=(
    "published claim T_U U = e3 contradicts the metric: the computed "
    "value is x3^-1 e3, which satisfies the umbilic identity "
    "T_U U = g(U,U) H; reported as paper-divergent by the catalog"))
def test_criterion_2_printed_T_UU_value_53():
    job = catalog.load_job("5.3")
    e1 = unit(0, 3)
    for t in oneill(context(job.setup, job.points[:10]).t_tensor, e1, e1):
        assert t == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "published claim g(U,U)H = x3^-2 e3 contradicts the metric: the "
    "computed product is x3^-1 e3 (= the computed T_U U, as the "
    "umbilic identity requires); reported as paper-divergent"))
def test_criterion_2_printed_umbilic_product_53():
    job = catalog.load_job("5.3")
    u = np.asarray(unit(0, 3))
    ctx = context(job.setup, job.points[:10])
    for i, p in enumerate(ctx.points):
        guu = float(u @ ctx.g[i] @ u)
        h = ctx.h_vec[i]
        x3 = p.coords[2]
        assert guu * h == pytest.approx((0.0, 0.0, x3 ** -2), abs=1e-9)


# -- criterion 3: fundamental-equation closure at unit dilation ----------

def test_criterion_3_fundamental_closure(riemannian_setups,
                                         conformal_setups):
    assert len(riemannian_setups) >= 5
    for name, setup, box in riemannian_setups:
        for p in sample(box, 20, seed=103):
            ctx = IdentityContext(setup, [p])
            for check_id in FUNDAMENTAL:
                for rep in run_check(check_id, setup, [p], ctx=ctx).rows():
                    assert rep["abs_residual"] <= 1e-6, (name, check_id,
                                                         rep["label"])
    # the Gauss-type curvature relation additionally closes on every
    # genuinely conformal catalog setup
    for name, setup, points in conformal_setups:
        for p in points[:3]:
            for rep in run_check("G2.12", setup, [p]).rows():
                assert rep["abs_residual"] <= 1e-6, (name, rep["label"])


# -- criterion 4: space-form oracles with finite-difference cross-check --

def test_criterion_4_spaceform_oracles():
    cases = [
        (HYPERBOLIC, sample([(-2.0, 2.0), (0.3, 3.0)], 20, seed=104),
         -1.0, -2.0),
        (catalog.load_job("5.3").setup.total,
         sample([(-1.0, 1.0), (1.2, 3.0), (1.2, 3.0)], 20, seed=105),
         -2.0, -6.0),
    ]
    for chart_, points, einstein, scalar in cases:
        for p in points:
            g = jr.metric_matrix(chart_, p)
            mat = jr.ricci_matrix_at(chart_, list(p.coords))
            ric = np.array([[primal(v) for v in row] for row in mat])
            assert np.allclose(ric, einstein * g, rtol=1e-6, atol=1e-9)
            assert jr.scalar_curvature(chart_, p) == pytest.approx(
                scalar, rel=1e-6)
            # independent cross-check: curvature from metric floats only
            assert np.allclose(ric, fd_ricci(chart_, list(p.coords)),
                               rtol=1e-6, atol=1e-6)


# -- criterion 5: discrepancy detection on the published Ricci prints ----

def test_criterion_5_discrepancy_detection(example_reports):
    rep51 = example_reports["5.1"]
    assert {r["name"] for r in rep51.discrepancies} == {
        "Ric(e1,e1) printed", "Ric(e2,e2) printed"}
    origin = catalog.run_example("5.1", points=[Point((0.0, 0.0))])
    row = {r["name"]: r for r in origin.rows}["Ric(e2,e2) printed"]
    assert row["computed"] == pytest.approx(-1.0, abs=1e-9)
    assert row["expected"] == pytest.approx(-3.0, abs=1e-9)
    assert row["verdict"] == "paper-divergent"

    rep52 = example_reports["5.2"]
    assert {r["name"] for r in rep52.discrepancies} == {"Ric(e1,e1) printed"}
    row52 = {r["name"]: r for r in rep52.rows}["Ric(e1,e1) printed"]
    assert row52["computed"] == pytest.approx(0.0, abs=1e-12)  # flat
    assert row52["expected"] != 0.0

    for rep in (rep51, rep52):
        assert rep.counts["fail"] == 0
        for row in rep.rows:
            if row not in rep.discrepancies:
                assert row["verdict"] == "pass", row["name"]


# -- criterion 6: soliton constant fitting and classification ------------

def test_criterion_6_soliton_machinery():
    zero2 = constant_field((0.0, 0.0))
    zero3 = constant_field((0.0, 0.0, 0.0))
    hyp_pts = sample([(-1.0, 1.0), (0.3, 2.5)], 8, seed=106)
    fit = sol.fit_mu(HYPERBOLIC, zero2, hyp_pts)
    assert abs(fit.mu - 1.0) <= 1e-6 and fit.max_residual <= 1e-6
    assert fit.classification == "expanding"

    h3 = catalog.load_job("5.3").setup.total
    fit3 = sol.fit_mu(h3, zero3,
                      sample([(-1.0, 1.0), (1.2, 3.0), (1.2, 3.0)], 8,
                             seed=107))
    assert abs(fit3.mu - 2.0) <= 1e-6 and fit3.max_residual <= 1e-6
    assert fit3.classification == "expanding"

    flat = flat_chart(2)
    flat_pts = sample([(-2.0, 2.0), (-2.0, 2.0)], 8, seed=108)
    flat_fit = sol.fit_mu(flat, zero2, flat_pts)
    assert abs(flat_fit.mu) <= 1e-6 and flat_fit.max_residual <= 1e-6
    assert flat_fit.classification == "steady"

    xi = flat.field("x1/2", "x2/2")
    gauss = sol.fit_mu(flat, xi, flat_pts)
    assert gauss.mu == pytest.approx(-0.5, abs=1e-10)
    assert gauss.classification == "shrinking"
    # (1/2) L_xi g + Ric + mu g vanishes over every frame pair at each point
    assert all(res <= 1e-10 for _, res in gauss.per_point)


# -- criterion 7: theorem instances on example 5.4 ------------------------

def test_criterion_7_theorem_instances(conformal_setups):
    job = catalog.load_job("5.4")
    pts = job.points[:6]
    fit = sol.fit_mu(job.setup.total, job.xi, pts)
    assert abs(fit.mu) <= 1e-9
    ctx = context(job.setup, pts)
    scals = all_rows(sol.scalar_mu_consistency, ctx, 0.0)
    assert len(scals) == len(pts)
    for scal in scals:
        assert scal["verdict"] == "pass"
        # s = 0 = -mu * (m - n) with m - n offset 3 total dims and mu = 0
        assert scal["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert scal["rhs"] == pytest.approx(-fit.mu * 3, abs=1e-9)

    harms = all_rows(sol.harmonicity_report, ctx, 0.0)
    assert len(harms) == len(pts)
    for harm in harms:
        assert harm["verdict"] == "pass"
        assert "harmonic=True" in harm["note"]
        # with both sides holding, the residual is the larger of the
        # tension and the scalar gap at the point
        assert harm["abs_residual"] <= 1e-9

    # mixed-derivative symmetry across every catalog setup's scalar data
    for name, setup, points in conformal_setups:
        for rep in run_check("L2.2", setup, points[:1]).rows():
            if rep["verdict"] != "hypothesis-not-met":
                assert rep["abs_residual"] <= 1e-9, (name, rep["label"])

    flat = flat_chart(2)
    flat_pts = sample([(-2.0, 2.0), (-2.0, 2.0)], 6, seed=109)
    rot = sol.conformal_field_fit(flat, flat.field("-x2", "x1"), flat_pts)
    assert rot.is_killing and rot.max_residual <= 1e-10
    dil = sol.conformal_field_fit(flat, flat.field("x1", "x2"), flat_pts)
    assert dil.max_residual <= 1e-10 and not dil.is_killing
    for _, f in dil.f_values:
        assert f == pytest.approx(1.0, abs=1e-10)


# -- criterion 8: property suites -----------------------------------------

EXPR_CORPUS = [
    "exp(-2*x2)", "x3^-2 + x1*x2", "(x1 + x2)*(x1 - x2)",
    "-x1*sin(x2)/3", "x1^(3/2) + sqrt(2 + cos(x3))", "log(1 + x1^2)",
    "x1/(x2 + 2)", "2 + sin(x3)*cos(x1)",
]


def _jet_eval(text, xs):
    node = parse_expression(text, {"x1", "x2", "x3"})
    space = JetSpace(3, order=2)
    jets = space.seed(list(xs), [unit(i, 3) for i in range(3)])
    return eval_expr(node, dict(zip(("x1", "x2", "x3"), jets)))


def _float_eval(text, xs):
    node = parse_expression(text, {"x1", "x2", "x3"})
    return primal(eval_expr(node, dict(zip(("x1", "x2", "x3"), xs))))


def test_criterion_8_property_suites(riemannian_setups, conformal_setups,
                                     example_reports):
    # automatic differentiation versus central finite differences
    xs = (0.7, 0.4, 1.3)
    h1, h2 = 1e-6, 1e-4
    for text in EXPR_CORPUS:
        jet = _jet_eval(text, xs)
        for i in range(3):
            up = list(xs); up[i] += h1
            dn = list(xs); dn[i] -= h1
            fd = (_float_eval(text, up) - _float_eval(text, dn)) / (2 * h1)
            assert jet.grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
            up2 = list(xs); up2[i] += h2
            dn2 = list(xs); dn2[i] -= h2
            fd2 = (_float_eval(text, up2) - 2 * _float_eval(text, xs)
                   + _float_eval(text, dn2)) / h2 ** 2
            assert jet.hess[i][i] == pytest.approx(fd2, rel=1e-4, abs=1e-4)

    # connection and curvature invariants
    from test_geometry import fd_metric
    for chart_, pts in ((HYPERBOLIC, sample([(-1.0, 1.0), (0.3, 2.0)], 3,
                                            seed=110)),
                        (catalog.load_job("5.3").setup.total,
                         catalog.load_job("5.3").points[:3])):
        m = chart_.dim
        for p in pts:
            gamma = jr.christoffel_symbols(chart_, p)
            assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-8
            g = jr.metric_matrix(chart_, p)
            xs_p = list(p.coords)
            for k in range(m):
                step = [0.0] * m
                step[k] = 1e-6
                dg = (fd_metric(chart_, np.add(xs_p, step))
                      - fd_metric(chart_, np.subtract(xs_p, step))) / 2e-6
                pred = np.einsum("li,lj->ij", gamma[:, k, :], g) \
                    + np.einsum("lj,il->ij", gamma[:, k, :], g)
                assert np.max(np.abs(dg - pred)) <= 1e-6
            riem = jr.curvature_tensor_at(chart_, xs_p)
            r = np.array([[[[primal(riem[l][k][i][j]) for j in range(m)]
                            for i in range(m)] for k in range(m)]
                          for l in range(m)])
            low = np.einsum("wl,lkij->wkij", g, r)
            assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) <= 1e-8
            assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) <= 1e-8
            bianchi = r + r.transpose(0, 3, 1, 2) + r.transpose(0, 2, 3, 1)
            assert np.max(np.abs(bianchi)) <= 1e-8

    # projectors and O'Neill tensor structure on the conformal corpus
    for name, setup, points in conformal_setups:
        p = points[0]
        ctx = IdentityContext(setup, [p])
        pv, ph, g = ctx.pv[0], ctx.ph[0], ctx.g[0]
        assert np.max(np.abs(ph @ ph - ph)) <= 1e-10
        assert np.max(np.abs(pv @ pv - pv)) <= 1e-10
        v, x = ctx.vframe[0, 0], ctx.hframe[0, 0]
        t_vv = oneill(ctx.t_tensor[0], v, v)
        assert np.max(np.abs(pv @ t_vv)) <= 1e-9, name   # reversal
        t_vx = oneill(ctx.t_tensor[0], v, x)
        assert np.max(np.abs(ph @ t_vx)) <= 1e-9, name
        # skew-symmetry g(T_V W, X) = -g(W, T_V X)
        assert float(t_vv @ g @ x) == pytest.approx(
            -float(v @ g @ t_vx), abs=1e-9), name
        for rep in run_check("E3.3", setup, [p]).rows():
            if rep["verdict"] != "hypothesis-not-met":
                assert rep["abs_residual"] <= 1e-8, (name, rep["label"])

    # expression round-trip is a fixed point
    for text in EXPR_CORPUS:
        node = parse_expression(text, {"x1", "x2", "x3"})
        rendered = to_text(node)
        assert to_text(parse_expression(rendered, {"x1", "x2", "x3"})) \
            == rendered

    # byte-identical json across two full report runs
    job_text = catalog._manifest_text("5.4")
    first = report.to_json(report.run_job(parse_manifest(job_text)))
    second = report.to_json(report.run_job(parse_manifest(job_text)))
    assert first == second
    json.loads(first)  # well-formed


# -- criterion 9: general-dilation identities, itemized -------------------

def test_criterion_9_general_dilation_identities(riemannian_setups,
                                                 conformal_setups):
    # unit-dilation reduction closes
    for name, setup, box in riemannian_setups:
        for p in sample(box, 3, seed=111):
            ctx = IdentityContext(setup, [p])
            for check_id in ("G2.16", "R3.13"):
                for rep in run_check(check_id, setup, [p], ctx=ctx).rows():
                    if rep["verdict"] != "hypothesis-not-met":
                        assert rep["abs_residual"] <= 1e-6, (
                            name, check_id, rep["label"])

    # general case: residuals itemized per term, convention flag raised
    for name, setup, points in conformal_setups:
        p = points[0]
        ctx = IdentityContext(setup, [p])
        for check_id in ("G2.16", "R3.13"):
            reports = run_check(check_id, setup, [p], ctx=ctx).rows()
            assert reports, (name, check_id)
            for rep in reports:
                assert rep["convention_sensitive"]
                if rep["verdict"] == "hypothesis-not-met":
                    continue
                if "no distinct" in rep["note"]:
                    continue  # degenerate frame: nothing to itemize
                assert rep["terms"], (name, check_id, rep["label"])

    # regression anchor: vertically varying dilation exhibits the
    # divergence; closure there is a reported finding, not a gate
    name, cone, points = conformal_setups[-1]
    assert name == "cone"
    worst = max(run_check("R3.13", cone, points[:1]).rows(),
                key=lambda r: r["abs_residual"])
    assert worst["verdict"] == "fail"
    assert worst["convention_sensitive"] and worst["terms"]

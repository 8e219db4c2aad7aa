"""Soliton fitting, classification, and the structural reports."""

import numpy as np
import pytest

from confsub import catalog
from confsub import soliton as sol
from confsub.geometry import ChartManifold, Point
from conftest import all_rows, chart, context, flat_chart, one_row, sample
from support import constant_field

HYPERBOLIC = chart("x1 x2", ["x2^-2, 0", "0, x2^-2"], "x2 > 0")
H3 = chart("x1 x2 x3",
           ["x3^-2, 0, 0", "0, x3^-2, 0", "0, 0, x3^-2"], "x3 > 0")
FLAT2 = flat_chart(2)

HYP_POINTS = sample([(-1.0, 1.0), (0.3, 2.5)], 6, seed=31)
H3_POINTS = sample([(-1.0, 1.0), (-1.0, 1.0), (0.5, 2.5)], 6, seed=32)
FLAT_POINTS = sample([(-2.0, 2.0), (-2.0, 2.0)], 6, seed=33)

ZERO2 = constant_field((0.0, 0.0))
ZERO3 = constant_field((0.0, 0.0, 0.0))


def test_fit_mu_einstein_cases():
    fit = sol.fit_mu(HYPERBOLIC, ZERO2, HYP_POINTS)
    assert fit.mu == pytest.approx(1.0, abs=1e-9)
    assert fit.max_residual <= 1e-9
    assert fit.classification == "expanding"

    fit3 = sol.fit_mu(H3, ZERO3, H3_POINTS)
    assert fit3.mu == pytest.approx(2.0, abs=1e-9)
    assert fit3.classification == "expanding"

    flat = sol.fit_mu(FLAT2, ZERO2, FLAT_POINTS)
    assert flat.mu == pytest.approx(0.0, abs=1e-12)
    assert flat.classification == "steady"


def test_gaussian_shrinker():
    xi = FLAT2.field("x1/2", "x2/2")
    fit = sol.fit_mu(FLAT2, xi, FLAT_POINTS)
    assert fit.mu == pytest.approx(-0.5, abs=1e-12)
    assert fit.classification == "shrinking"
    # (1/2) L_xi g + Ric + mu g vanishes over every frame pair at each point
    assert all(res <= 1e-10 for _, res in fit.per_point)


def test_scaling_equivariance():
    # g -> c g leaves Ric unchanged, so the Einstein constant scales as 1/c
    c = 4.0
    scaled = chart("x1 x2", [f"{c}*x2^-2, 0", f"0, {c}*x2^-2"], "x2 > 0")
    fit = sol.fit_mu(scaled, ZERO2, HYP_POINTS)
    assert fit.mu == pytest.approx(1.0 / c, abs=1e-9)


def test_killing_and_conformal_fields():
    rot = FLAT2.field("-x2", "x1")
    conf = sol.conformal_field_fit(FLAT2, rot, FLAT_POINTS)
    assert conf.is_killing
    assert conf.max_residual <= 1e-10

    dil = FLAT2.field("x1", "x2")
    conf = sol.conformal_field_fit(FLAT2, dil, FLAT_POINTS)
    assert not conf.is_killing
    assert conf.max_residual <= 1e-10
    for _, f in conf.f_values:
        assert f == pytest.approx(1.0, abs=1e-10)


def test_fiber_soliton_on_53():
    job = catalog.load_job("5.3")
    points = job.points[:4]
    recs = all_rows(sol.fiber_soliton_report, context(job.setup, points),
                    job.xi, mu=2.0)
    assert [r["point"] for r in recs] == [list(p.coords) for p in points]
    for rec in recs:
        assert rec["id"] == "fiber-soliton" and rec["label"] == "fibers"
        assert rec["verdict"] == "pass"
        # one-dimensional fibers carry no intrinsic curvature, so the
        # fitted constant comes entirely from the mean-curvature terms; on
        # them the residual is |fitted - formula| at the point
        assert rec["abs_residual"] <= 1e-9
        assert rec["terms"]["fit_vs_formula"] == rec["abs_residual"]


def test_base_and_scalar_on_54():
    job = catalog.load_job("5.4")
    points = job.points[:4]
    ctx = context(job.setup, points)
    bases = all_rows(sol.base_soliton_report, ctx, job.xi, 0.0)
    assert len(bases) == len(points)
    for base in bases:
        assert base["verdict"] == "pass"
    scal = all_rows(sol.scalar_mu_consistency, ctx, 0.0)
    assert len(scal) == len(points)
    for rec in scal:
        assert rec["id"] == "T4.7" and rec["verdict"] == "pass"
        assert rec["lhs"] == pytest.approx(0.0, abs=1e-12)
    harm = all_rows(sol.harmonicity_report, ctx, 0.0)
    assert len(harm) == len(points)
    for rec in harm:
        assert rec["verdict"] == "pass"
        assert "harmonic=True" in rec["note"]


def test_scalar_mu_gated_when_map_not_tg():
    job = catalog.load_job("5.3")
    points = job.points[:4]
    recs = all_rows(sol.scalar_mu_consistency, context(job.setup, points),
                    2.0)
    assert len(recs) == len(points)
    for rep in recs:
        assert rep["verdict"] == "hypothesis-not-met"
        # the scalar curvature itself is still reported at each point
        assert rep["lhs"] == pytest.approx(-6.0, abs=1e-9)
        assert rep["rhs"] == -6.0
        # its record holds s and -m mu, whatever the number of points
        assert rep["terms"] == {}


@pytest.mark.parametrize("tension,mu", [(0.0, 0.0), (0.0, 1.0),
                                         (1.0, 0.0), (1.0, 1.0)])
def test_harmonicity_verdict_is_the_equivalence(monkeypatch, tension, mu):
    # 5.4 meets the hypotheses, is harmonic and has s^Ker = 0: a tension
    # offset breaks harmonicity and mu != 0 the scalar side, and the
    # verdict at each point passes exactly when both hold or both fail
    real = sol.sub.tension_field
    monkeypatch.setattr(sol.sub, "tension_field",
                        lambda *args: real(*args) + tension)
    job = catalog.load_job("5.4")
    points = job.points[:2]
    recs = all_rows(sol.harmonicity_report, context(job.setup, points), mu)
    assert len(recs) == len(points)
    harmonic, scalar_side = tension == 0.0, mu == 0.0
    for rec in recs:
        assert f"harmonic={harmonic} scalar-side={scalar_side}" in rec["note"]
        assert rec["verdict"] == ("pass" if harmonic == scalar_side
                                  else "fail")


def test_harmonicity_equivalence_detected_off_hypotheses():
    # 5.3 is not homothetic: the report must gate rather than claim a
    # verdict, but the itemized trace identity still closes
    job = catalog.load_job("5.3")
    points = job.points[:4]
    recs = all_rows(sol.harmonicity_report, context(job.setup, points), 2.0)
    assert len(recs) == len(points)
    for rec, p in zip(recs, points):
        assert rec["verdict"] == "hypothesis-not-met"
        assert rec["terms"]["trace_identity_residual"] <= 1e-9
        alone = one_row(sol.harmonicity_report, context(job.setup, [p]), 2.0)
        assert alone["terms"]["trace_identity_residual"] <= 1e-9


def test_fit_mu_reports_worst_point():
    fit = sol.fit_mu(HYPERBOLIC, ZERO2, HYP_POINTS)
    assert len(fit.per_point) == len(HYP_POINTS)
    assert max(r for _, r in fit.per_point) == fit.max_residual


def test_classification_sign_convention():
    assert sol._classify(-1.0) == "shrinking"
    assert sol._classify(0.0) == "steady"
    assert sol._classify(2.0) == "expanding"
    assert sol._classify(0.5 * sol.FIT_TOL) == "steady"


@pytest.mark.parametrize("eid", ["5.3", "5.4"])
def test_fits_read_the_context_like_the_chart(eid):
    # with the run's context, fit_mu and conformal_field_fit read g, Gamma
    # and Ric from it instead of seeding the chart again; the values
    # agree with the (chart, xi, points) form to rounding
    job = catalog.load_job(eid)
    points = job.points[:4]
    ctx = context(job.setup, points)
    total = job.setup.total
    fit = sol.fit_mu(total, job.xi, points)
    fit_ctx = sol.fit_mu(total, job.xi, points, ctx=ctx)
    assert fit_ctx.mu == pytest.approx(fit.mu, rel=1e-12, abs=1e-12)
    assert [r for _, r in fit_ctx.per_point] == pytest.approx(
        [r for _, r in fit.per_point], rel=1e-12, abs=1e-12)
    conf = sol.conformal_field_fit(total, job.xi, points)
    conf_ctx = sol.conformal_field_fit(total, job.xi, points, ctx=ctx)
    assert [f for _, f in conf_ctx.f_values] == pytest.approx(
        [f for _, f in conf.f_values], rel=1e-12, abs=1e-12)
    assert conf_ctx.max_residual == pytest.approx(conf.max_residual,
                                                  rel=1e-12, abs=1e-12)

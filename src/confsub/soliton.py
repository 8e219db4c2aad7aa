"""Ricci-soliton, Einstein, conformal-vector-field, scalar-curvature
and harmonicity checks for charts and conformal submersions.

The soliton equation is (1/2)(L_xi g) + Ric + mu*g = 0 with mu constant;
mu < 0 shrinking, mu = 0 steady, mu > 0 expanding.  Almost-soliton
variants replace mu by a function, which is fitted per point and
compared against its closed-form expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .identities import Hypothesis, IdentityContext, ResidualReport, _finish
from .jets import primal


@dataclass
class MuFit:
    mu: float
    max_residual: float
    classification: str  # shrinking | steady | expanding
    per_point: list  # (Point, residual)


@dataclass
class ConformalFit:
    f_values: list  # (Point, f)
    max_residual: float
    is_killing: bool


@dataclass
class SolitonReport:
    target: str  # fibers | base | total
    hypotheses: list
    per_point: list  # dicts with point, fitted, formula, residual, ...
    max_residual: float
    fitted_constant: float = None
    verdict: str = ""
    note: str = ""


def _classify(mu, tol):
    if mu < -tol:
        return "shrinking"
    if mu > tol:
        return "expanding"
    return "steady"


def _chart_frame(chart, p):
    g = [[primal(v) for v in row] for row in chart.metric_at(list(p.coords))]
    basis = [[1.0 if j == i else 0.0 for j in range(chart.dim)]
             for i in range(chart.dim)]
    vecs = geo.orthonormalize_components(g, basis)
    return np.array(g), [np.asarray(v) for v in vecs]


def _soliton_form(chart, xi_fn, p, frame=None):
    """Matrix of (1/2)(L_xi g) + Ric over an orthonormal frame, plus the
    frame Gram matrix (identity) for the fit."""
    xs = list(p.coords)
    gmat, vecs = _chart_frame(chart, p) if frame is None else frame
    ric = geo.ricci_matrix_at(chart, xs)
    ric = np.array([[primal(v) for v in row] for row in ric])
    k = len(vecs)
    out = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            lie = primal(geo.lie_derivative_metric_at(
                chart, xi_fn, list(vecs[a]), list(vecs[b]), xs))
            val = 0.5 * lie + float(vecs[a] @ ric.T @ vecs[b])
            out[a, b] = out[b, a] = val
    return out


def soliton_residual(chart, xi, mu, p, x, y):
    """(1/2)(L_xi g)(X,Y) + Ric(X,Y) + mu g(X,Y) at p."""
    xs = list(p.coords)
    xi_fn = xi if callable(xi) else geo.field_fn(chart, xi)
    xc = list(x.components) if isinstance(x, geo.TangentVector) else list(x)
    yc = list(y.components) if isinstance(y, geo.TangentVector) else list(y)
    lie = primal(geo.lie_derivative_metric_at(chart, xi_fn, xc, yc, xs))
    ric = primal(geo.ricci_at(chart, xs, xc, yc))
    g = chart.metric_at(xs)
    gxy = primal(sum(g[i][j] * xc[i] * yc[j]
                     for i in range(chart.dim) for j in range(chart.dim)))
    return 0.5 * lie + ric + mu * gxy


def fit_mu(chart, xi, points, tol=1e-9):
    """Least-squares mu over all orthonormal frame pairs and points."""
    if not points:
        raise ValueError("fit_mu needs at least one point")
    xi_fn = xi if callable(xi) else geo.field_fn(chart, xi)
    forms = [_soliton_form(chart, xi_fn, p) for p in points]
    # minimizing sum (l_ab + mu*delta_ab)^2 gives mu = -mean of traces
    num = sum(np.trace(f) for f in forms)
    den = chart.dim * len(points)
    mu = -num / den
    per_point = []
    worst = 0.0
    for p, f in zip(points, forms):
        res = float(np.max(np.abs(f + mu * np.eye(chart.dim))))
        per_point.append((p, res))
        worst = max(worst, res)
    return MuFit(mu=float(mu), max_residual=worst,
                 classification=_classify(mu, tol), per_point=per_point)


def conformal_field_fit(chart, xi, points, tol=1e-9):
    """Fit (L_xi g) = 2 f g pointwise; f from the trace."""
    xi_fn = xi if callable(xi) else geo.field_fn(chart, xi)
    f_values = []
    worst = 0.0
    for p in points:
        xs = list(p.coords)
        gmat, vecs = _chart_frame(chart, p)
        k = len(vecs)
        lie = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                lie[a, b] = lie[b, a] = primal(geo.lie_derivative_metric_at(
                    chart, xi_fn, list(vecs[a]), list(vecs[b]), xs))
        f = float(np.trace(lie)) / (2.0 * k)
        worst = max(worst, float(np.max(np.abs(lie - 2.0 * f * np.eye(k)))))
        f_values.append((p, f))
    is_killing = worst <= tol and all(abs(f) <= tol for _, f in f_values)
    return ConformalFit(f_values=f_values, max_residual=worst,
                        is_killing=is_killing)


# ---------------------------------------------------------------------
# submersion-aware helpers
# ---------------------------------------------------------------------

def _horizontal_div_h(ctx):
    """div(H) as the horizontal trace sum_j g(nabla_{X_j} H, X_j)."""
    return sum(ctx.inner(ctx.grad_h(x), x) for x in ctx.hframe)


def _norm_sq_h(ctx):
    return ctx.inner(ctx.h_vec, ctx.h_vec)


def _fiber_formula_value(ctx, xi_h, mu):
    """f = div(H) - (m-n)|H|^2 + mu - g(H, horizontal part of xi):
    reduces to f1 for vertical xi and to f2 for horizontal xi."""
    base = _horizontal_div_h(ctx) - (ctx.m - ctx.n) * _norm_sq_h(ctx) + mu
    return base - ctx.inner(ctx.h_vec, xi_h)


def fiber_soliton_report(setup, xi, points, mu=0.0, tol=1e-6,
                         contexts=None):
    """Fibers as (almost) Ricci solitons: residual of
    (1/2){g(nabla_U xi_v, V) + g(nabla_V xi_v, U)} + Ric^v(U,V) + f g(U,V)
    with f evaluated from its closed form per point.  ``contexts`` are
    the points' IdentityContexts when the caller already built them."""
    xi_fn = xi if callable(xi) else geo.field_fn(setup.total, xi)
    xi_v_fn = setup.vertical_project_fn(xi_fn)
    per_point = []
    worst = 0.0
    hyp_sets = []
    for p, ctx in zip(points, _contexts(setup, points, contexts)):
        hyp_sets.append([ctx.hyp_conformal(),
                         _umbilical_hyp(ctx),
                         ctx.hyp_horizontal_tg()])
        k = ctx.m - ctx.n
        lform = np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                u, v = ctx.vframe[i], ctx.vframe[j]
                lie = (ctx.inner(ctx.cov_deriv_along(u, xi_v_fn), v)
                       + ctx.inner(ctx.cov_deriv_along(v, xi_v_fn), u))
                lform[i, j] = lform[j, i] = (
                    0.5 * lie + ctx.fiber_ricci_intrinsic(u, v))
        fitted = -float(np.trace(lform)) / k
        xi_vals = np.array([primal(c) for c in xi_fn(ctx.xs)])
        xi_h = ctx.ph @ xi_vals
        formula = _fiber_formula_value(ctx, xi_h, mu)
        res = float(np.max(np.abs(lform + formula * np.eye(k))))
        worst = max(worst, res)
        per_point.append({"point": p, "fitted": fitted, "formula": formula,
                          "residual": res,
                          "fit_vs_formula": abs(fitted - formula)})
    hyps = _merge_hypotheses(hyp_sets)
    report = SolitonReport(target="fibers", hypotheses=hyps,
                           per_point=per_point, max_residual=worst)
    return _verdict(report, tol)


def base_soliton_report(setup, xi, mu, points, xi_base=None, tol=1e-6,
                        contexts=None):
    """Base as an (almost) Ricci soliton: residual of
    (1/2)(L h)(Xt,Yt) + Ric^N(Xt,Yt) + f h(Xt,Yt) with f from f3/f4.

    ``xi_base`` is the pushforward field expressed on the base chart; it
    defaults to zero.  A per-point projection residual compares it with
    the actual pushforward of the horizontal part of ``xi``.
    """
    xi_fn = xi if callable(xi) else geo.field_fn(setup.total, xi)
    if xi_base is None:
        xi_base = geo.VectorFieldSpec.constant([0.0] * setup.n)
    xi_base_fn = (xi_base if callable(xi_base)
                  else geo.field_fn(setup.base, xi_base))
    per_point = []
    worst = 0.0
    hyp_sets = []
    for p, ctx in zip(points, _contexts(setup, points, contexts)):
        hyp_sets.append([ctx.hyp_conformal(), ctx.hyp_homothetic(),
                         ctx.hyp_fibers_tg(), ctx.hyp_horizontal_integrable()])
        lform = _soliton_form(setup.base, xi_base_fn, ctx.base_point)
        fitted = -float(np.trace(lform)) / setup.n
        formula = _base_formula_value(ctx, xi_fn, mu)
        res = float(np.max(np.abs(lform + formula * np.eye(setup.n))))
        # projection residual: pushforward of the horizontal part of xi
        # against the declared base field
        xi_vals = np.array([primal(c) for c in xi_fn(ctx.xs)])
        push = ctx.push(ctx.ph @ xi_vals)
        declared = np.array([primal(c) for c in
                             xi_base_fn(list(ctx.base_point.coords))])
        dproj = push - declared
        proj_res = math.sqrt(max(0.0, ctx.base_inner(dproj, dproj)))
        worst = max(worst, res)
        per_point.append({"point": p, "fitted": fitted, "formula": formula,
                          "residual": res, "mu": mu,
                          "projection_residual": proj_res,
                          "fit_vs_formula": abs(fitted - formula)})
    hyps = _merge_hypotheses(hyp_sets)
    report = SolitonReport(target="base", hypotheses=hyps,
                           per_point=per_point, max_residual=worst)
    return _verdict(report, tol)


def _base_formula_value(ctx, xi_fn, mu):
    """f3 = mu + div(H') - (1/4) lam^4 |grad_v(1/lam^2)|^2
    + (n lam^2 / 2) H'(1/lam^2), plus the f4 correction
    (lam^2/2) g(grad_v(1/lam^2), xi_v) when xi has a vertical part."""
    lam_sq = ctx.lam_sq
    vnorm = ctx.inner(ctx.vgrad_f, ctx.vgrad_f)
    hp_f = float(np.asarray(ctx.hp_vec) @ ctx.g @ ctx.grad_f)
    f3 = (mu + ctx.div_hprime() - 0.25 * lam_sq ** 2 * vnorm
          + (ctx.n * lam_sq / 2.0) * hp_f)
    xi_vals = np.array([primal(c) for c in xi_fn(ctx.xs)])
    xi_v = ctx.pv @ xi_vals
    return f3 + (lam_sq / 2.0) * ctx.inner(ctx.vgrad_f, xi_v)


def scalar_mu_consistency(setup, xi, mu, points, tol=1e-6, contexts=None):
    """s(p) = -mu*m for a totally geodesic map; also reports the spread
    of s over the points (constancy check)."""
    values = [geo.scalar_curvature(setup.total, p) for p in points]
    m = setup.m
    worst_idx = max(range(len(points)), key=lambda i: abs(values[i] + mu * m))
    lhs = values[worst_idx]
    rhs = -mu * m
    terms = {f"s@{i}": v for i, v in enumerate(values)}
    terms["spread"] = max(values) - min(values)
    ctx = (contexts[worst_idx] if contexts is not None
           else IdentityContext(setup, points[worst_idx]))
    hyps = [ctx.hyp_conformal(), ctx.hyp_map_tg()]
    abs_res = abs(lhs - rhs)
    scale = 1.0 + max(abs(lhs), abs(rhs))
    rep = ResidualReport(
        identity_id="T4.7", point=points[worst_idx], lhs=lhs, rhs=rhs,
        abs_residual=abs_res, rel_residual=abs_res / scale,
        hypotheses=hyps, verdict="", terms=terms,
        note="worst point shown; per-point s values itemized")
    return _finish(rep, tol)


def harmonicity_report(setup, xi, mu, points, tol=1e-6, contexts=None):
    """F harmonic iff s^{KerF*} = -mu(m-n): both sides evaluated
    independently, with the trace identity
    s^{Ker} + (m-n)mu - (m-n)^2 |H|^2 + (m-n) div(H) = 0 itemized."""
    m, n = setup.m, setup.n
    per_point = []
    worst_tension = 0.0
    worst_scalar = 0.0
    worst_trace = 0.0
    hyp_sets = []
    for p, ctx in zip(points, _contexts(setup, points, contexts)):
        hyp_sets.append([ctx.hyp_conformal(), ctx.hyp_homothetic(),
                         _umbilical_hyp(ctx), ctx.hyp_horizontal_tg()])
        tau = sub.tension_field(setup, p)
        tau_norm = math.sqrt(max(0.0, ctx.base_inner(
            np.asarray(tau.components), np.asarray(tau.components))))
        s_fiber = ctx.fiber_scalar_intrinsic()
        scalar_gap = abs(s_fiber + mu * (m - n))
        trace_terms = {
            "s_fiber": s_fiber,
            "(m-n)mu": (m - n) * mu,
            "-(m-n)^2|H|^2": -(m - n) ** 2 * _norm_sq_h(ctx),
            "(m-n)div(H)": (m - n) * _horizontal_div_h(ctx),
        }
        trace_res = abs(sum(trace_terms.values()))
        worst_tension = max(worst_tension, tau_norm)
        worst_scalar = max(worst_scalar, scalar_gap)
        worst_trace = max(worst_trace, trace_res)
        per_point.append({"point": p, "tension_norm": tau_norm,
                          "scalar_gap": scalar_gap,
                          "trace_identity_residual": trace_res,
                          "trace_terms": trace_terms})
    harmonic = worst_tension <= tol
    scalar_matches = worst_scalar <= tol
    hyps = _merge_hypotheses(hyp_sets)
    report = SolitonReport(
        target="total", hypotheses=hyps, per_point=per_point,
        max_residual=max(worst_tension if scalar_matches else 0.0,
                         worst_scalar if harmonic else 0.0),
        note=(f"harmonic={harmonic} scalar-side={scalar_matches}; "
              "equivalence " + ("holds" if harmonic == scalar_matches
                                else "VIOLATED")))
    if not all(h.satisfied for h in report.hypotheses):
        report.verdict = "hypothesis-not-met"
    else:
        report.verdict = "pass" if harmonic == scalar_matches else "fail"
    return report


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _umbilical_hyp(ctx):
    """sup |T(U,V) - g(U,V)H| over the orthonormal vertical frame."""
    worst = 0.0
    for i, u in enumerate(ctx.vframe):
        for v in ctx.vframe[i:]:
            d = ctx.T(u, v) - ctx.inner(u, v) * ctx.h_vec
            worst = max(worst, math.sqrt(max(0.0, ctx.inner(d, d))))
    return Hypothesis("umbilical-fibers", worst <= ctx.hyp_tol, worst)


def _contexts(setup, points, contexts):
    """The caller's per-point contexts, or new ones built one at a time."""
    if contexts is not None:
        return contexts
    return (IdentityContext(setup, p) for p in points)


def _merge_hypotheses(hyp_sets):
    """Worst violation of each named hypothesis across the points."""
    merged = {}
    for hyps in hyp_sets:
        for h in hyps:
            cur = merged.get(h.name)
            if cur is None or h.violation > cur.violation:
                merged[h.name] = h
    return list(merged.values())


def _verdict(report, tol):
    if not all(h.satisfied for h in report.hypotheses):
        report.verdict = "hypothesis-not-met"
    elif report.max_residual <= tol:
        report.verdict = "pass"
    else:
        report.verdict = "fail"
    return report

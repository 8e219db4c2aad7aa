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
from .identities import record, verdict_of, worst_of
from .jets import primal, primal_array


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
    tol: float
    note: str = ""
    # the per-point entry whose largest value sets max_residual; the
    # point with that value is the report's worst point
    worst_key: str = "residual"

    @property
    def verdict(self):
        return verdict_of(self.hypotheses, self.max_residual, self.tol)


def _classify(mu, tol):
    if mu < -tol:
        return "shrinking"
    if mu > tol:
        return "expanding"
    return "steady"


def _frame(g):
    """Orthonormal frame from the coordinate basis, one vector per row."""
    return np.array(geo.orthonormalize_components(g, np.eye(len(g))))


def _chart_curvature(chart, xs):
    """(g, Gamma, Ric) of a chart at xs as float arrays, Gamma and Ric
    from one order-2 seeding of the metric."""
    gamma, dgamma = geo.christoffel_partials_at(chart, xs)
    ric = np.einsum("ikij->jk", geo.riemann_from_christoffels(gamma, dgamma))
    return primal_array(chart.metric_at(xs)), gamma, ric


def _lie_matrix(g, gamma, xi_fn, xs):
    """L_xi g at xs from one seeding of xi."""
    return geo.lie_derivative_matrix(g, gamma, *geo.vector_partials(xi_fn, xs))


def _soliton_form(g, lie, ric):
    """Matrix of (1/2)(L_xi g) + Ric over the orthonormal frame of g
    (whose Gram matrix is the identity, for the fit)."""
    frame = _frame(g)
    return frame @ (0.5 * lie + ric.T) @ frame.T


def _field_fn(chart, xi):
    return xi if callable(xi) else geo.field_fn(chart, xi)


def fit_mu(chart, xi, points, tol=1e-9, contexts=None):
    """Least-squares mu over all orthonormal frame pairs and points.
    ``contexts`` are the points' IdentityContexts of a submersion whose
    total chart is ``chart``, when the caller holds them; g, Ric and
    L_xi g are then read from them."""
    if not points:
        raise ValueError("fit_mu needs at least one point")
    if contexts is None:
        xi_fn = _field_fn(chart, xi)
        forms = []
        for p in points:
            xs = list(p.coords)
            g, gamma, ric = _chart_curvature(chart, xs)
            forms.append(_soliton_form(g, _lie_matrix(g, gamma, xi_fn, xs),
                                       ric))
    else:
        forms = [_soliton_form(ctx.g, ctx.vector_field(xi)[2], ctx.ric_matrix)
                 for ctx in contexts]
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


def conformal_field_fit(chart, xi, points, tol=1e-9, contexts=None):
    """Fit (L_xi g) = 2 f g pointwise; f from the trace.  ``contexts`` as
    for ``fit_mu``: g and L_xi g are then read from them."""
    if contexts is None:
        xi_fn = _field_fn(chart, xi)
        metrics = []
        for p in points:
            xs = list(p.coords)
            g = primal_array(chart.metric_at(xs))
            gamma = primal_array(geo.christoffels_at(chart, xs))
            metrics.append((g, _lie_matrix(g, gamma, xi_fn, xs)))
    else:
        metrics = [(ctx.g, ctx.vector_field(xi)[2]) for ctx in contexts]
    f_values = []
    worst = 0.0
    for p, (g, lie) in zip(points, metrics):
        frame = _frame(g)
        lie = frame @ lie @ frame.T
        k = len(frame)
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
    nv = ctx.m - ctx.n
    return float(np.trace(ctx.dh_e[nv:, nv:]))


def _norm_sq_h(ctx):
    return float(ctx.h_e @ ctx.h_e)


def _fiber_formula_value(ctx, xi_h, mu):
    """f = div(H) - (m-n)|H|^2 + mu - g(H, horizontal part of xi):
    reduces to f1 for vertical xi and to f2 for horizontal xi."""
    base = _horizontal_div_h(ctx) - (ctx.m - ctx.n) * _norm_sq_h(ctx) + mu
    return base - float(ctx.h_vec @ ctx.g @ xi_h)


def fiber_soliton_report(setup, xi, points, contexts, mu=0.0, tol=1e-6):
    """Fibers as (almost) Ricci solitons: residual of
    (1/2){g(nabla_U xi_v, V) + g(nabla_V xi_v, U)} + Ric^v(U,V) + f g(U,V)
    with f evaluated from its closed form per point, read off
    ``contexts``, the points' IdentityContexts."""
    per_point = []
    worst = 0.0
    hyp_sets = []
    for p, ctx in zip(points, contexts):
        hyp_sets.append([ctx.hyp_conformal(), ctx.hyp_umbilical(),
                         ctx.hyp_horizontal_tg()])
        k = ctx.m - ctx.n
        vframe = ctx.vframe
        # xi_v = P_v xi with d_l xi_v = d_l P_v xi + P_v d_l xi
        xi_vals, dxi, _ = ctx.vector_field(xi)
        pv, dpv, _ = ctx.partials("pv")
        lie = geo.lie_derivative_matrix(ctx.g, ctx.gamma, pv @ xi_vals,
                                        dpv @ xi_vals + dxi @ pv.T)
        lform = 0.5 * (vframe @ lie @ vframe.T) + ctx.fiber_ric_e
        fitted = -float(np.trace(lform)) / k
        xi_h = ctx.ph @ xi_vals
        formula = _fiber_formula_value(ctx, xi_h, mu)
        res = float(np.max(np.abs(lform + formula * np.eye(k))))
        worst = max(worst, res)
        per_point.append({"point": p, "fitted": fitted, "formula": formula,
                          "residual": res,
                          "fit_vs_formula": abs(fitted - formula)})
    return SolitonReport(target="fibers",
                         hypotheses=_merge_hypotheses(hyp_sets),
                         per_point=per_point, max_residual=worst, tol=tol)


def base_soliton_report(setup, xi, mu, points, contexts, xi_base=None,
                        tol=1e-6):
    """Base as an (almost) Ricci soliton: residual of
    (1/2)(L h)(Xt,Yt) + Ric^N(Xt,Yt) + f h(Xt,Yt) with f from f3/f4.

    ``xi_base`` is the pushforward field expressed on the base chart; it
    defaults to zero.  A per-point projection residual compares it with
    the actual pushforward of the horizontal part of ``xi``.
    """
    xi_fn = _field_fn(setup.total, xi)
    if xi_base is None:
        xi_base = geo.VectorFieldSpec.constant([0.0] * setup.n)
    xi_base_fn = _field_fn(setup.base, xi_base)
    per_point = []
    worst = 0.0
    hyp_sets = []
    for p, ctx in zip(points, contexts):
        hyp_sets.append([ctx.hyp_conformal(), ctx.hyp_homothetic(),
                         ctx.hyp_fibers_tg(), ctx.hyp_horizontal_integrable()])
        base_gamma, _, base_ric = ctx.base_curvature
        lform = _soliton_form(
            ctx.h_base, _lie_matrix(ctx.h_base, base_gamma, xi_base_fn,
                                    list(ctx.base_point.coords)), base_ric)
        fitted = -float(np.trace(lform)) / setup.n
        formula = _base_formula_value(ctx, xi_fn, mu)
        res = float(np.max(np.abs(lform + formula * np.eye(setup.n))))
        # projection residual: pushforward of the horizontal part of xi
        # against the declared base field
        xi_vals = np.array([primal(c) for c in xi_fn(ctx.xs)])
        push = ctx.jac @ (ctx.ph @ xi_vals)
        declared = np.array([primal(c) for c in
                             xi_base_fn(list(ctx.base_point.coords))])
        dproj = push - declared
        proj_res = math.sqrt(max(0.0, float(dproj @ ctx.h_base @ dproj)))
        worst = max(worst, res)
        per_point.append({"point": p, "fitted": fitted, "formula": formula,
                          "residual": res, "mu": mu,
                          "projection_residual": proj_res,
                          "fit_vs_formula": abs(fitted - formula)})
    return SolitonReport(target="base",
                         hypotheses=_merge_hypotheses(hyp_sets),
                         per_point=per_point, max_residual=worst, tol=tol)


def _base_formula_value(ctx, xi_fn, mu):
    """f3 = mu + div(H') - (1/4) lam^4 |grad_v(1/lam^2)|^2
    + (n lam^2 / 2) H'(1/lam^2), plus the f4 correction
    (lam^2/2) g(grad_v(1/lam^2), xi_v) when xi has a vertical part."""
    lam_sq = ctx.lam_sq
    f3 = (mu + ctx.div_hprime - 0.25 * lam_sq ** 2 * ctx.vgrad_f_sq
          + (ctx.n * lam_sq / 2.0) * ctx.hp_f)
    xi_vals = np.array([primal(c) for c in xi_fn(ctx.xs)])
    xi_v = ctx.pv @ xi_vals
    return f3 + (lam_sq / 2.0) * float(ctx.vgrad_f @ ctx.g @ xi_v)


def scalar_mu_consistency(setup, xi, mu, points, contexts, tol=1e-6):
    """s(p) = -mu*m for a totally geodesic map, as a ``record`` at the
    worst point; also reports the spread of s over the points
    (constancy check)."""
    values = [ctx.scalar_curvature for ctx in contexts]
    m = setup.m
    worst_idx = worst_of(range(len(points)),
                         lambda i: abs(values[i] + mu * m))
    lhs = values[worst_idx]
    rhs = -mu * m
    terms = {f"s@{i}": v for i, v in enumerate(values)}
    terms["spread"] = max(values) - min(values)
    ctx = contexts[worst_idx]
    return record("T4.7", points[worst_idx].coords, lhs, rhs,
                  [ctx.hyp_conformal(), ctx.hyp_map_tg()], tol, terms=terms,
                  note="worst point shown; per-point s values itemized",
                  scale=1.0 + max(abs(lhs), abs(rhs)))


def harmonicity_report(setup, xi, mu, points, contexts, tol=1e-6):
    """F harmonic iff s^{KerF*} = -mu(m-n): both sides evaluated
    independently, with the trace identity
    s^{Ker} + (m-n)mu - (m-n)^2 |H|^2 + (m-n) div(H) = 0 itemized."""
    m, n = setup.m, setup.n
    per_point = []
    worst_tension = 0.0
    worst_scalar = 0.0
    worst_trace = 0.0
    hyp_sets = []
    for p, ctx in zip(points, contexts):
        hyp_sets.append([ctx.hyp_conformal(), ctx.hyp_homothetic(),
                         ctx.hyp_umbilical(), ctx.hyp_horizontal_tg()])
        tau = sub.tension_field(setup, ctx.h_vec, ctx.hgrad_f, ctx.jac,
                                ctx.lam_sq)
        tau_norm = math.sqrt(max(0.0, float(tau @ ctx.h_base @ tau)))
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
    # one side's worst value counts only when the other side holds, so the
    # residual is within tol exactly when harmonic == scalar_matches
    return SolitonReport(
        target="total", hypotheses=_merge_hypotheses(hyp_sets),
        per_point=per_point,
        max_residual=max(worst_tension if scalar_matches else 0.0,
                         worst_scalar if harmonic else 0.0),
        tol=tol,
        worst_key=("scalar_gap" if harmonic and not scalar_matches
                   else "tension_norm"),
        note=(f"harmonic={harmonic} scalar-side={scalar_matches}; "
              "equivalence " + ("holds" if harmonic == scalar_matches
                                else "VIOLATED")))


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _merge_hypotheses(hyp_sets):
    """Worst violation of each named hypothesis across the points."""
    merged = {}
    for hyps in hyp_sets:
        for h in hyps:
            cur = merged.get(h.name)
            if cur is None or h.violation > cur.violation:
                merged[h.name] = h
    return list(merged.values())

"""Ricci-soliton, Einstein, conformal-vector-field, scalar-curvature
and harmonicity checks for charts and conformal submersions.

The soliton equation is (1/2)(L_xi g) + Ric + mu*g = 0 with mu constant;
mu < 0 shrinking, mu = 0 steady, mu > 0 expanding.  Almost-soliton
variants replace mu by a function, which is fitted per point and
compared against its closed-form expression.  The fits read all the
points at once; each report on a run's IdentityContext writes a record
per point, as the identities do, with the hypotheses at that point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .identities import _records
from .linalg import mat_vec, quad_form, vec_dot


class MuFit(NamedTuple):
    mu: float
    max_residual: float
    classification: str  # shrinking | steady | expanding
    per_point: list  # (Point, residual)


class ConformalFit(NamedTuple):
    f_values: list  # (Point, f)
    max_residual: float
    is_killing: bool


# |mu| and |f| up to which a fit reads as steady or Killing
FIT_TOL = 1e-9


def _classify(mu):
    if mu < -FIT_TOL:
        return "shrinking"
    if mu > FIT_TOL:
        return "expanding"
    return "steady"


def _chart_fields(chart, xi, points):
    """(g, Ric, L_xi g) of a bare chart at the points, each (P, m, m):
    Gamma and Ric from one order-2 seeding of the metric over all the
    points, L_xi g from one seeding of xi."""
    rows = [p.coords for p in points]
    g, dg, ddg = geo.point_partials(chart.metric_at, rows)
    gamma, dgamma = geo.christoffels_from_metric(g, dg, ddg)
    ric = np.einsum("...ikij->...jk",
                    geo.riemann_from_christoffels(gamma, dgamma))
    xi_vals, dxi = geo.point_partials(geo.field_fn(chart, xi), rows, order=1)
    return g, ric, geo.lie_derivative_matrix(g, gamma, xi_vals, dxi)


def _soliton_form(frame, lie, ric):
    """Matrix of (1/2)(L_xi g) + Ric over ``frame``, orthonormal (its Gram
    matrix is the identity, for the fit), at every point."""
    return frame @ (0.5 * lie + ric.swapaxes(1, 2)) @ frame.swapaxes(1, 2)


def _traces(a):
    return np.trace(a, axis1=1, axis2=2)


def fit_mu(chart, xi, points, ctx=None):
    """Least-squares mu over all orthonormal frame pairs and points.
    ``ctx`` is the points' IdentityContext of a submersion whose total
    chart is ``chart``, when the caller holds it; the frame of g, Ric and
    L_xi g are then read from it."""
    if not points:
        raise ValueError("fit_mu needs at least one point")
    if ctx is None:
        g, ric, lie = _chart_fields(chart, xi, points)
        frame = geo.coordinate_frames(g)
    else:
        frame, ric, lie = (ctx.coordinate_frame, ctx.ric_matrix,
                           ctx.vector_field(xi)[2])
    forms = _soliton_form(frame, lie, ric)
    # minimizing sum (l_ab + mu*delta_ab)^2 gives mu = -mean of traces
    mu = -sum(_traces(forms).tolist()) / (chart.dim * len(points))
    residuals = np.abs(forms + mu * np.eye(chart.dim)).max(axis=(1, 2))
    return MuFit(mu=float(mu), max_residual=float(residuals.max(initial=0.0)),
                 classification=_classify(mu),
                 per_point=list(zip(points, residuals.tolist())))


def conformal_field_fit(chart, xi, points, ctx=None):
    """Fit (L_xi g) = 2 f g pointwise; f from the trace.  ``ctx`` as for
    ``fit_mu``: the frame of g and L_xi g are then read from it."""
    if ctx is None:
        g, _, lie = _chart_fields(chart, xi, points)
        frame = geo.coordinate_frames(g)
    else:
        frame, lie = ctx.coordinate_frame, ctx.vector_field(xi)[2]
    lie = frame @ lie @ frame.swapaxes(1, 2)
    k = chart.dim
    f = _traces(lie) / (2.0 * k)
    worst = float(np.abs(lie - (2.0 * f)[:, None, None] * np.eye(k)).max(
        initial=0.0))
    f_values = list(zip(points, f.tolist()))
    is_killing = worst <= FIT_TOL and all(abs(f) <= FIT_TOL
                                          for _, f in f_values)
    return ConformalFit(f_values=f_values, max_residual=worst,
                        is_killing=is_killing)


# ---------------------------------------------------------------------
# submersion-aware helpers
# ---------------------------------------------------------------------

def _horizontal_div_h(ctx):
    """div(H) as the horizontal trace sum_j g(nabla_{X_j} H, X_j)."""
    nv = ctx.m - ctx.n
    return _traces(ctx.dh_e[:, nv:, nv:])


def _norm_sq_h(ctx):
    return vec_dot(ctx.h_e, ctx.h_e)


def _fiber_formula_value(ctx, xi_h, mu):
    """f = div(H) - (m-n)|H|^2 + mu - g(H, horizontal part of xi):
    reduces to f1 for vertical xi and to f2 for horizontal xi."""
    base = _horizontal_div_h(ctx) - (ctx.m - ctx.n) * _norm_sq_h(ctx) + mu
    return base - quad_form(ctx.h_vec, ctx.g, xi_h)


def fiber_soliton_report(records, ctx, xi, mu=0.0, tol=1e-6):
    """Fibers as (almost) Ricci solitons: residual of
    (1/2){g(nabla_U xi_v, V) + g(nabla_V xi_v, U)} + Ric^v(U,V) + f g(U,V)
    with f evaluated from its closed form, a record in ``records`` at
    each point of ``ctx``, the run's IdentityContext."""
    k = ctx.m - ctx.n
    vframe = ctx.vframe
    # xi_v = P_v xi with d_l xi_v = d_l P_v xi + P_v d_l xi
    xi_vals, dxi, _ = ctx.vector_field(xi)
    pv, dpv, _ = ctx.partials.pv
    lie = geo.lie_derivative_matrix(
        ctx.g, ctx.gamma, mat_vec(pv, xi_vals),
        mat_vec(dpv, xi_vals) + dxi @ pv.swapaxes(1, 2))
    lform = 0.5 * (vframe @ lie @ vframe.swapaxes(1, 2)) + ctx.fiber_ric_e
    fitted = -_traces(lform) / k
    formula = _fiber_formula_value(ctx, mat_vec(ctx.ph, xi_vals), mu)
    res = np.abs(lform + formula[:, None, None] * np.eye(k)).max(axis=(1, 2))
    _soliton_records(records, "fiber-soliton", "fibers", ctx, tol,
                     [ctx.hyp_conformal, ctx.hyp_umbilical,
                      ctx.hyp_horizontal_tg], fitted, formula, res)


def base_soliton_report(records, ctx, xi, mu, xi_base=None, tol=1e-6):
    """Base as an (almost) Ricci soliton: residual of
    (1/2)(L h)(Xt,Yt) + Ric^N(Xt,Yt) + f h(Xt,Yt) with f from f3/f4, a
    record in ``records`` at each point of ``ctx``, the run's
    IdentityContext.

    ``xi_base`` is the pushforward field expressed on the base chart; it
    defaults to zero.  A per-point projection residual compares it with
    the actual pushforward of the horizontal part of ``xi``.
    """
    setup, n, count = ctx.setup, ctx.n, len(ctx.points)
    base_gamma, _, base_ric = ctx.base_curvature
    if xi_base is None:  # zero, with zero partials, seeded by no one
        declared, dxi_base = np.zeros((count, n)), np.zeros((count, n, n))
    else:
        declared, dxi_base = geo.point_partials(
            geo.field_fn(setup.base, xi_base), ctx.base_coords, order=1)
    lform = _soliton_form(ctx.h_base, geo.lie_derivative_matrix(
        ctx.h_base, base_gamma, declared, dxi_base), base_ric)
    fitted = -_traces(lform) / n
    xi_vals = ctx.vector_field(xi)[0]
    formula = _base_formula_value(ctx, xi_vals, mu)
    res = np.abs(lform + formula[:, None, None] * np.eye(n)).max(axis=(1, 2))
    # projection residual: pushforward of the horizontal part of xi
    # against the declared base field
    dproj = mat_vec(ctx.jac, mat_vec(ctx.ph, xi_vals)) - declared
    _soliton_records(records, "base-soliton", "base", ctx, tol,
                     [ctx.hyp_conformal, ctx.hyp_homothetic,
                      ctx.hyp_fibers_tg, ctx.hyp_horizontal_integrable],
                     fitted, formula, res, ("mu", np.full(count, mu)),
                     ("projection_residual", np.sqrt(np.maximum(
                         0.0, quad_form(dproj, ctx.h_base, dproj)))))


def _soliton_records(records, check_id, label, ctx, tol, hyps, fitted,
                     formula, res, *terms):
    """A soliton criterion's record per point in ``records``: ``fitted``
    against ``formula``, with the largest entry ``res`` of the fitted form
    as the residual over scale 1, and ``terms`` beside them."""
    _records(check_id, ctx, tol, hyps, label, [()], fitted, formula,
             [("fitted", fitted), ("formula", formula), ("residual", res),
              *terms, ("fit_vs_formula", np.abs(fitted - formula))],
             residual=res, scale=np.ones(len(res)), table=records)


def _base_formula_value(ctx, xi_vals, mu):
    """f3 = mu + div(H') - (1/4) lam^4 |grad_v(1/lam^2)|^2
    + (n lam^2 / 2) H'(1/lam^2), plus the f4 correction
    (lam^2/2) g(grad_v(1/lam^2), xi_v) when xi has a vertical part, from
    the values ``xi_vals`` of xi at the points."""
    lam_sq = ctx.lam_sq
    f3 = (mu + ctx.div_hprime - 0.25 * lam_sq ** 2 * ctx.vgrad_f_sq
          + (ctx.n * lam_sq / 2.0) * ctx.hp_f)
    xi_v = mat_vec(ctx.pv, xi_vals)
    return f3 + (lam_sq / 2.0) * quad_form(ctx.vgrad_f, ctx.g, xi_v)


def scalar_mu_consistency(records, ctx, mu, tol=1e-6):
    """s(p) = -mu*m for a totally geodesic map, a ``T4.7`` record in
    ``records`` at each point of ``ctx``, the run's IdentityContext: s
    holding that value at every point is also its constancy."""
    s = ctx.scalar_curvature
    _records("T4.7", ctx, tol, [ctx.hyp_conformal, ctx.hyp_map_tg], "", [()],
             s, np.full(len(s), -mu * ctx.m), table=records,
             note="scalar curvature s against -m*mu")


def harmonicity_report(records, ctx, mu, tol=1e-6):
    """F harmonic iff s^{KerF*} = -mu(m-n): both sides evaluated
    independently, and the equivalence judged, at each point of ``ctx``,
    the run's IdentityContext, a record per point in ``records`` with the
    trace identity
    s^{Ker} + (m-n)mu - (m-n)^2 |H|^2 + (m-n) div(H) = 0 itemized."""
    m, n = ctx.m, ctx.n
    tau = sub.tension_field(ctx.setup, ctx.h_vec, ctx.hgrad_f, ctx.jac,
                            ctx.lam_sq)
    tension = np.sqrt(np.maximum(0.0, quad_form(tau, ctx.h_base, tau)))
    s_fiber = ctx.fiber_scalar_intrinsic
    scalar_gap = np.abs(s_fiber + mu * (m - n))
    trace_terms = [
        ("s_fiber", s_fiber),
        ("(m-n)mu", np.full(len(ctx.points), (m - n) * mu)),
        ("-(m-n)^2|H|^2", -(m - n) ** 2 * _norm_sq_h(ctx)),
        ("(m-n)div(H)", (m - n) * _horizontal_div_h(ctx))]
    harmonic, scalar_matches = tension <= tol, scalar_gap <= tol
    undecided = np.isnan(tension + scalar_gap)
    zero = np.zeros(len(ctx.points))
    # one side's value counts only where the other holds, so the residual
    # is within tol exactly when harmonic == scalar_matches, NaN on a NaN side
    residual = np.where(undecided, np.nan, np.maximum(
        np.where(scalar_matches, tension, 0.0),
        np.where(harmonic, scalar_gap, 0.0)))
    notes = [f"harmonic={h} scalar-side={s}; equivalence "
             + ("undecided" if u else "holds" if h == s else "VIOLATED")
             for h, s, u in zip(harmonic.tolist(), scalar_matches.tolist(),
                                undecided.tolist())]
    _records("harmonicity", ctx, tol,
             [ctx.hyp_conformal, ctx.hyp_homothetic, ctx.hyp_umbilical,
              ctx.hyp_horizontal_tg], "total", [()], zero, zero,
             [("tension_norm", tension), ("scalar_gap", scalar_gap),
              ("trace_identity_residual",
               np.abs(sum(v for _, v in trace_terms))), *trace_terms],
             residual=residual, scale=np.ones_like(zero), note=notes,
             table=records)

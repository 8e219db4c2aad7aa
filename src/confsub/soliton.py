"""Ricci-soliton, Einstein, conformal-vector-field, scalar-curvature
and harmonicity checks for charts and conformal submersions.

The soliton equation is (1/2)(L_xi g) + Ric + mu*g = 0 with mu constant;
mu < 0 shrinking, mu = 0 steady, mu > 0 expanding.  Almost-soliton
variants replace mu by a function, which is fitted per point and
compared against its closed-form expression.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .identities import Hypothesis, record, worst_of
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


def _frames(g):
    """Orthonormal frames from the coordinate basis at every point of the
    (P, m, m) metrics ``g``, one vector per row."""
    return geo.orthonormal_frames(g, np.broadcast_to(np.eye(g.shape[-1]),
                                                     g.shape))


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


def _soliton_form(g, lie, ric):
    """Matrix of (1/2)(L_xi g) + Ric over the orthonormal frame of g
    (whose Gram matrix is the identity, for the fit) at every point."""
    frame = _frames(g)
    return frame @ (0.5 * lie + ric.swapaxes(1, 2)) @ frame.swapaxes(1, 2)


def _traces(a):
    return np.trace(a, axis1=1, axis2=2)


def fit_mu(chart, xi, points, ctx=None):
    """Least-squares mu over all orthonormal frame pairs and points.
    ``ctx`` is the points' IdentityContext of a submersion whose total
    chart is ``chart``, when the caller holds it; g, Ric and L_xi g are
    then read from it."""
    if not points:
        raise ValueError("fit_mu needs at least one point")
    if ctx is None:
        g, ric, lie = _chart_fields(chart, xi, points)
    else:
        g, ric, lie = ctx.g, ctx.ric_matrix, ctx.vector_field(xi)[2]
    forms = _soliton_form(g, lie, ric)
    # minimizing sum (l_ab + mu*delta_ab)^2 gives mu = -mean of traces
    mu = -sum(_traces(forms).tolist()) / (chart.dim * len(points))
    residuals = np.abs(forms + mu * np.eye(chart.dim)).max(axis=(1, 2))
    return MuFit(mu=float(mu), max_residual=float(residuals.max(initial=0.0)),
                 classification=_classify(mu),
                 per_point=list(zip(points, residuals.tolist())))


def conformal_field_fit(chart, xi, points, ctx=None):
    """Fit (L_xi g) = 2 f g pointwise; f from the trace.  ``ctx`` as for
    ``fit_mu``: g and L_xi g are then read from it."""
    if ctx is None:
        g, _, lie = _chart_fields(chart, xi, points)
    else:
        g, lie = ctx.g, ctx.vector_field(xi)[2]
    frame = _frames(g)
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
    with f evaluated from its closed form at each point of ``ctx``, the
    run's IdentityContext, as the record at its worst point in ``records``."""
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
    _worst_point_record(
        records, "fiber-soliton", "fibers", ctx, tol,
        [ctx.hyp_conformal, ctx.hyp_umbilical, ctx.hyp_horizontal_tg],
        {"fitted": fitted, "formula": formula, "residual": res,
         "fit_vs_formula": np.abs(fitted - formula)})


def base_soliton_report(records, ctx, xi, mu, xi_base=None, tol=1e-6):
    """Base as an (almost) Ricci soliton: residual of
    (1/2)(L h)(Xt,Yt) + Ric^N(Xt,Yt) + f h(Xt,Yt) with f from f3/f4, at
    each point of ``ctx``, the run's IdentityContext, as the record at its
    worst point in ``records``.

    ``xi_base`` is the pushforward field expressed on the base chart; it
    defaults to zero.  A per-point projection residual compares it with
    the actual pushforward of the horizontal part of ``xi``.
    """
    setup, n = ctx.setup, ctx.n
    if xi_base is None:
        xi_base = geo.VectorFieldSpec.constant([0.0] * n)
    base_gamma, _, base_ric = ctx.base_curvature
    declared, dxi_base = geo.point_partials(geo.field_fn(setup.base, xi_base),
                                            ctx.base_coords, order=1)
    lform = _soliton_form(ctx.h_base, geo.lie_derivative_matrix(
        ctx.h_base, base_gamma, declared, dxi_base), base_ric)
    fitted = -_traces(lform) / n
    xi_vals = ctx.vector_field(xi)[0]
    formula = _base_formula_value(ctx, xi_vals, mu)
    res = np.abs(lform + formula[:, None, None] * np.eye(n)).max(axis=(1, 2))
    # projection residual: pushforward of the horizontal part of xi
    # against the declared base field
    dproj = mat_vec(ctx.jac, mat_vec(ctx.ph, xi_vals)) - declared
    _worst_point_record(
        records, "base-soliton", "base", ctx, tol,
        [ctx.hyp_conformal, ctx.hyp_homothetic, ctx.hyp_fibers_tg,
         ctx.hyp_horizontal_integrable],
        {"fitted": fitted, "formula": formula, "residual": res,
         "mu": np.full(len(ctx.points), mu),
         "projection_residual": np.sqrt(np.maximum(
             0.0, quad_form(dproj, ctx.h_base, dproj))),
         "fit_vs_formula": np.abs(fitted - formula)})


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
    """s(p) = -mu*m for a totally geodesic map, as a ``record`` in
    ``records`` at the worst point of ``ctx``, the run's IdentityContext;
    also reports the spread of s over the points (constancy check)."""
    values = ctx.scalar_curvature.tolist()
    m = ctx.m
    worst_idx = worst_of(range(len(values)),
                         lambda i: abs(values[i] + mu * m))
    lhs = values[worst_idx]
    rhs = -mu * m
    terms = {f"s@{i}": v for i, v in enumerate(values)}
    terms["spread"] = max(values) - min(values)
    hyps = [Hypothesis(h.name, bool(h.satisfied[worst_idx]),
                       float(h.violation[worst_idx]))
            for h in (ctx.hyp_conformal, ctx.hyp_map_tg)]
    record(records, "T4.7", ctx.points[worst_idx].coords, lhs, rhs, hyps,
           tol, terms=terms,
           note="worst point shown; per-point s values itemized",
           scale=1.0 + max(abs(lhs), abs(rhs)))


def harmonicity_report(records, ctx, mu, tol=1e-6):
    """F harmonic iff s^{KerF*} = -mu(m-n): both sides evaluated
    independently at each point of ``ctx``, the run's IdentityContext,
    with the trace identity
    s^{Ker} + (m-n)mu - (m-n)^2 |H|^2 + (m-n) div(H) = 0 itemized, as the
    record at its worst point in ``records``."""
    m, n = ctx.m, ctx.n
    tau = sub.tension_field(ctx.setup, ctx.h_vec, ctx.hgrad_f, ctx.jac,
                            ctx.lam_sq)
    tension = np.sqrt(np.maximum(0.0, quad_form(tau, ctx.h_base, tau)))
    s_fiber = ctx.fiber_scalar_intrinsic
    scalar_gap = np.abs(s_fiber + mu * (m - n))
    trace_terms = {
        "s_fiber": s_fiber,
        "(m-n)mu": np.full(len(ctx.points), (m - n) * mu),
        "-(m-n)^2|H|^2": -(m - n) ** 2 * _norm_sq_h(ctx),
        "(m-n)div(H)": (m - n) * _horizontal_div_h(ctx)}
    worst_tension = float(tension.max(initial=0.0))
    worst_scalar = float(scalar_gap.max(initial=0.0))
    harmonic = worst_tension <= tol
    scalar_matches = worst_scalar <= tol
    # one side's worst value counts only when the other holds, so the residual
    # is within tol exactly when harmonic == scalar_matches, NaN on a NaN side
    equivalence = ("undecided" if np.isnan(worst_tension + worst_scalar)
                   else "holds" if harmonic == scalar_matches else "VIOLATED")
    _worst_point_record(
        records, "harmonicity", "total", ctx, tol,
        [ctx.hyp_conformal, ctx.hyp_homothetic, ctx.hyp_umbilical,
         ctx.hyp_horizontal_tg],
        {"tension_norm": tension, "scalar_gap": scalar_gap,
         "trace_identity_residual": np.abs(sum(trace_terms.values())),
         **trace_terms},
        worst=("scalar_gap" if harmonic and not scalar_matches
               else "tension_norm"),
        residual=np.nan if equivalence == "undecided" else max(
            worst_tension if scalar_matches else 0.0,
            worst_scalar if harmonic else 0.0),
        note=(f"harmonic={harmonic} scalar-side={scalar_matches}; "
              f"equivalence {equivalence}"))


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _worst_point_record(records, check_id, label, ctx, tol, hyps, columns,
                        worst="residual", residual=None, note=""):
    """A report's record in ``records`` at the point of ``ctx`` whose
    ``worst`` column is largest (``worst_of``): each (P,) array of
    ``columns`` there is a term, ``fitted`` and ``formula`` (0.0 without
    them) are lhs and rhs, and ``residual`` defaults to max(0.0, the
    ``worst`` column), NaN if any."""
    values = {key: v.tolist() for key, v in columns.items()}
    i = worst_of(range(len(ctx.points)), values[worst].__getitem__)
    terms = {key: v[i] for key, v in values.items()}
    record(records, check_id, ctx.points[i].coords, terms.get("fitted", 0.0),
           terms.get("formula", 0.0), _merge_hypotheses(hyps), tol,
           terms=terms, label=label, note=note, scale=1.0,
           residual=float(columns[worst].max(initial=0.0))
           if residual is None else residual)


def _merge_hypotheses(hyps):
    """Each run-level hypothesis of ``hyps`` at the first point of its
    worst violation."""
    merged = []
    for h in hyps:
        violation = h.violation.tolist()
        i = max(range(len(violation)), key=violation.__getitem__)
        merged.append(Hypothesis(h.name, bool(h.satisfied[i]), violation[i]))
    return merged

"""Residual verification of the curvature identities, Ricci
decompositions and their corollaries for a conformal submersion.

Structural rule: the left-hand side of every identity comes from the
ambient chart geometry alone (curvature of the total metric), while the
right-hand side is assembled from the submersion machinery (projectors,
T, A, dilation calculus).  The two sides share no intermediate values
but the one seeding of the total metric with its first and second
partials: the left side reads only the Christoffel symbols and their
partials derived from it, which the right side's covariant derivatives
also read and contract in different ways, and the right side also
inverts the metric for its projectors, so a closed residual is
evidence, not bookkeeping.  In terms of the arrays an
``IdentityContext`` holds for its point:

- left side: ``riem`` (Riemann tensor of the total metric), its
  contraction ``ric_matrix`` and, for T3.4, ``scalar_curvature``;
- right side: the O'Neill tensors ``t_tensor`` and ``a_tensor``, their
  covariant derivatives (``dT``, ``dA``), f = 1/lambda^2 with
  ``grad_f`` and ``hess_f``, the mean curvatures ``h_vec`` and
  ``hp_vec`` with their covariant derivatives (``grad_h``,
  ``grad_hprime``), the lifts X_a of the base coordinate fields with
  every nabla_{X_a} X_b (``basic_fields``), and curvature computed on
  other charts: the fiber's own slice chart (``fiber_curvature_intrinsic``,
  ``fiber_ricci_intrinsic``, ``fiber_scalar_intrinsic``) and the base
  chart (``base_curvature``: Gamma^N, Riem^N, Ric^N; with
  ``base_scalar_curvature``).

The constructor holds only the float core every check reads: ``g``,
``ginv``, ``jac``, the frames ``vframe`` and ``hframe``, the projectors
``pv`` and ``ph``, ``lam_sq``, ``base_point`` and the base metric
``h_base``.  Every other array is built on first read, once per context.

Every partial of the total side comes from the point's
``submersion.CorePartials``, which seeds three leaves at order 2 on first
read: the total metric g, the Jacobian J (two jet levels, through
``jacobian_at``) and h o F.  From the metric seeding alone come Gamma
and dGamma (``geometry.christoffels_from_metric``), so Riem and Hess f
read no projector; from the three leaves the matrix product rule on
float triples (X, dX, d2X) (``linalg.taylor_mul``,
``linalg.taylor_inverse``) gives K = J g^{-1} J^T, the lift matrix
g^{-1} J^T K^{-1} with its first partials, P_v with dP_v and d2P_v, and
f = 1 / lambda^2 with df and d2f.  The base curvature and the fiber
chart's curvature each take one order-2 metric seeding on their own
chart, and a soliton field xi one order-1 seeding (``vector_field``).
The rest is float arithmetic on these arrays.
``submersion.oneill_contraction`` gives T and A from (P_v, dP_v, Gamma);
H = trace_v(T) / (m - n), the trace taken against W = P_v g^{-1};
H' = -(lambda^2 / 2) P_v grad f.  The covariant derivatives follow by
the product rule (``IdentityContext._nabla``), with dW from the triples
of P_v and g^{-1}, d P_h = -d P_v and d lambda^2 = -lambda^4 df, plus
the Gamma terms that make a partial derivative covariant.  Scalar
curvatures are traces tr(g^{-1} Ric).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .jets import primal_array
from .linalg import mat_inverse, taylor_mul

CURVATURE_CHECKS = ("G2.12", "G2.13", "G2.14", "G2.15", "G2.16")
LEMMA31_CHECKS = tuple(f"L3.1.{k}" for k in ("i", "ii", "iii", "iv", "v", "vi"))
RICCI_CHECKS = ("R3.11", "R3.12", "R3.13")
COROLLARY_CHECKS = ("C3.1", "C3.2", "C3.3")
ALL_CHECK_IDS = (CURVATURE_CHECKS + ("P3.1", "E3.3") + LEMMA31_CHECKS
                 + RICCI_CHECKS + COROLLARY_CHECKS + ("T3.4", "L2.1", "L2.2"))

# identities whose general-dilation closure depends on sign conventions
# the source statements leave implicit: their lambda == 1 reductions close
# on the corpus while some general-dilation forms do not, so failing
# records carry a flag instead of hard-failing a run
CONVENTION_SENSITIVE_IDS = ("G2.16", "L3.1.i", "L3.1.v", "R3.13",
                            "C3.1", "C3.2")


@dataclass(frozen=True)
class Hypothesis:
    name: str
    satisfied: bool
    violation: float


@dataclass
class ResidualReport:
    identity_id: str
    point: geo.Point
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    hypotheses: list
    verdict: str  # pass | fail | hypothesis-not-met | paper-divergent
    terms: dict = field(default_factory=dict)
    label: str = ""
    convention_sensitive: bool = False
    note: str = ""


def _finish(report, tol):
    if not all(h.satisfied for h in report.hypotheses):
        report.verdict = "hypothesis-not-met"
    elif report.rel_residual <= tol:
        report.verdict = "pass"
    else:
        report.verdict = "fail"
    return report


def make_report(identity_id, point, lhs, rhs, hypotheses, tol,
                terms=None, label="", note=""):
    terms = terms or {}
    abs_res = abs(lhs - rhs)
    scale = 1.0 + max([abs(lhs), abs(rhs)] + [abs(v) for v in terms.values()])
    report = ResidualReport(
        identity_id=identity_id, point=point, lhs=lhs, rhs=rhs,
        abs_residual=abs_res, rel_residual=abs_res / scale,
        hypotheses=list(hypotheses), verdict="", terms=dict(terms),
        label=label, note=note,
        convention_sensitive=identity_id in CONVENTION_SENSITIVE_IDS)
    return _finish(report, tol)


# ---------------------------------------------------------------------
# per-point evaluation context
# ---------------------------------------------------------------------

def _trace(ginv, ric):
    """Scalar curvature tr(g^{-1} Ric) from an inverse metric and its
    Ricci matrix."""
    return float(np.einsum("jk,jk->", ginv, ric))


def _once(method):
    """Memoize a no-argument context method: a hypothesis is measured
    once per point however many checks list it."""
    key = "_once_" + method.__name__

    @functools.wraps(method)
    def wrapper(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]
    return wrapper


class IdentityContext:
    """The frame, curvature, O'Neill tensors and dilation calculus at one
    point, shared by every check there.  Arrays are over the coordinate
    basis: ``riem[l, k, i, j]`` is component l of R(e_i, e_j) e_k,
    ``t_tensor[k, a, b]`` component k of T_{e_a} e_b (likewise
    ``a_tensor``), and the covariant derivatives carry the differentiating
    direction first.

    The constructor holds only the float core, ``core`` when the caller
    holds it (from ``setup.float_cores`` over a run's points) and
    ``setup.float_core(p)`` otherwise: ``g``, ``ginv``, ``jac``,
    ``vframe``, ``hframe``, ``pv``, ``ph``, ``lam_sq``, ``base_point``
    and ``h_base``.  Every other array is a cached property
    built on first read, so a check pays only for what it reads, and an
    ingredient that cannot be evaluated at the point fails only the checks
    that read it."""

    def __init__(self, setup, p, hyp_tol=1e-8, core=None):
        self.setup = setup
        self.p = p
        self.hyp_tol = hyp_tol
        self.xs = list(p.coords)
        self.m = setup.m
        self.n = setup.n
        if core is None:
            core = setup.float_core(p)
        self.core = core
        self.g, self.ginv, self.jac = core.g, core.ginv, core.jac
        self.vframe, self.hframe = core.vframe, core.hframe  # m-n, n vectors
        self.pv, self.ph = core.pv, core.ph
        self.lam_sq = core.lam_sq
        self.base_point, self.h_base = core.base_point, core.h_base
        self._fields = {}  # of ``vector_field``

    # -- ingredients built on first read ----------------------------------

    @functools.cached_property
    def partials(self):
        """The point's ``sub.CorePartials``: every partial below comes from
        its three seedings, each made on first read.  Riem, ``gamma`` and
        Hess f read its Gamma, from the metric seeding alone."""
        return sub.CorePartials(self.setup, self.xs)

    @functools.cached_property
    def gamma(self):
        return self.partials.christoffels[0]

    @functools.cached_property
    def riem(self):
        return geo.riemann_from_christoffels(*self.partials.christoffels)

    @functools.cached_property
    def ric_matrix(self):
        return np.einsum("ikij->jk", self.riem)

    @functools.cached_property
    def grad_f(self):
        """grad f of the dilation function f = 1 / lambda^2."""
        return np.array(geo.raise_index(self.ginv,
                                        self.partials.inv_lambda_sq[1]))

    @functools.cached_property
    def vgrad_f(self):
        return self.pv @ self.grad_f

    @functools.cached_property
    def hgrad_f(self):
        return self.ph @ self.grad_f

    @functools.cached_property
    def hess_f(self):
        return np.array(geo.covariant_hessian(
            self.gamma, *self.partials.inv_lambda_sq[1:]))

    @functools.cached_property
    def hp_vec(self):
        # H' = -(lambda^2 / 2) v grad f
        return -0.5 * self.lam_sq * self.vgrad_f

    @functools.cached_property
    def t_tensor(self):
        return self.partials.oneill[0]

    @functools.cached_property
    def a_tensor(self):
        return self.partials.oneill[1]

    @functools.cached_property
    def _vtrace_form(self):
        """(W, dW) with W = P_v g^{-1}, which is sum_i U_i U_i^T over an
        orthonormal vertical frame, and dW[l] = d_l W, by the product
        rule on the triples of P_v and g^{-1}."""
        partials = self.partials
        return taylor_mul(partials.pv, partials.ginv)[:2]

    @functools.cached_property
    def h_vec(self):
        return sub.mean_curvature_from(self.t_tensor, self._vtrace_form[0],
                                       self.m - self.n)

    @functools.cached_property
    def _nabla(self):
        """(nabla T, nabla A, nabla H, nabla H') indexed [l, k, a, b] and
        [l, k] with l the differentiating direction.  The partials follow
        from (P_v, dP_v, d2P_v), (Gamma, dGamma), (df, d2f) and g by the
        product rule, with dP_h = -dP_v:
        dN = d2P_v + dGamma P_v + Gamma dP_v,
        dM = dP_v (Gamma - 2 N) + P_h dN + P_v (dGamma - dN),
        dT = dP_v M + P_v dM, dA = -dP_v M + P_h dM,
        dH = (dT W + T dW) / (m - n) and, with d lambda^2 = -lambda^4 df,
        dH' = -(d lambda^2 W df + lambda^2 (dW df + W d2f)) / 2;
        the Gamma terms then make them covariant.  T and A are tensors,
        so these equal the per-field cov_deriv_T_at / cov_deriv_A_at."""
        m, gam = self.m, self.gamma
        dgam = self.partials.christoffels[1]
        pv, dpv, d2pv = self.partials.pv
        ph = self.ph
        t, a, nv, mix = self.partials.oneill
        dnv = (d2pv.transpose(0, 2, 1, 3)
               + np.einsum("lkij,jb->lkib", dgam, pv)
               + np.einsum("kij,ljb->lkib", gam, dpv))
        dmix = (np.einsum("lkq,qib->lkib", dpv, gam - 2.0 * nv)
                + np.einsum("kq,lqib->lkib", ph, dnv)
                + np.einsum("kq,lqib->lkib", pv, dgam - dnv))
        dm_term = np.einsum("lia,kib->lkab", dpv, mix)
        dt = dm_term + np.einsum("ia,lkib->lkab", pv, dmix)
        da = -dm_term + np.einsum("ia,lkib->lkab", ph, dmix)
        w, dw = self._vtrace_form
        dh = (np.einsum("lkab,ab->lk", dt, w)
              + np.einsum("kab,lab->lk", t, dw)) / (m - self.n)
        _, df, d2f = self.partials.inv_lambda_sq
        dlam_sq = -self.lam_sq ** 2 * df
        dhp = -0.5 * (np.outer(dlam_sq, w @ df)
                      + self.lam_sq * (dw @ df + d2f @ w.T))

        def tensor(partial, x):
            return (partial
                    + np.einsum("klj,jab->lkab", gam, x)
                    - np.einsum("jla,kjb->lkab", gam, x)
                    - np.einsum("jlb,kaj->lkab", gam, x))

        def vector(partial, x):
            return partial + np.einsum("klj,j->lk", gam, x)

        return (tensor(dt, t), tensor(da, a),
                vector(dh, self.h_vec), vector(dhp, self.hp_vec))

    # -- inner products -------------------------------------------------

    def inner(self, u, v):
        return float(np.asarray(u) @ self.g @ np.asarray(v))

    def norm(self, v):
        return math.sqrt(max(0.0, self.inner(v, v)))

    def base_inner(self, w, z):
        return float(np.asarray(w) @ self.h_base @ np.asarray(z))

    def push(self, v):
        return self.jac @ np.asarray(v)

    def direction_f(self, v):
        """v(1/lambda^2) = df(v)."""
        return float(np.asarray(v) @ self.g @ self.grad_f)

    # -- tensors as float vectors ----------------------------------------

    def T(self, u, v):
        return self.t_tensor @ np.asarray(v) @ np.asarray(u)

    def A(self, x, y):
        return self.a_tensor @ np.asarray(y) @ np.asarray(x)

    def nu_bracket(self, x, y):
        """v[X, Y] for horizontal fields through A_X Y - A_Y X (the
        bracket is tensorial when restricted to the horizontal
        distribution)."""
        return self.A(x, y) - self.A(y, x)

    def dT(self, e, u, v):
        """(nabla_E T)_U V."""
        return np.asarray(e) @ (self._nabla[0] @ np.asarray(v) @ np.asarray(u))

    def dA(self, e, x, y):
        """(nabla_E A)_X Y."""
        return np.asarray(e) @ (self._nabla[1] @ np.asarray(y) @ np.asarray(x))

    def grad_h(self, v):
        """nabla_v H with H differentiated as a field."""
        return np.asarray(v) @ self._nabla[2]

    def R(self, x, y, z):
        return self.riem @ np.asarray(y) @ np.asarray(x) @ np.asarray(z)

    def ric(self, x, y):
        return float(np.asarray(x) @ self.ric_matrix.T @ np.asarray(y))

    @functools.cached_property
    def scalar_curvature(self):
        """s = tr(g^{-1} Ric) of the total metric."""
        return _trace(self.ginv, self.ric_matrix)

    @functools.cached_property
    def basic_fields(self):
        """(X, D, nabla) of ``sub.basic_field_derivatives``: the lifts X_a
        of the base coordinate fields and every nabla_{X_a} X_b."""
        return sub.basic_field_derivatives(*self.partials.lift[:2],
                                           self.gamma)

    def vector_field(self, xi):
        """(xi, dxi, L_xi g) of a total-chart field at p as float arrays,
        dxi[i, k] = d_i xi^k, from one seeding per field, kept for every
        soliton fit and report that reads the field.  ``xi`` is a
        ``VectorFieldSpec`` or a component function."""
        if xi not in self._fields:
            fn = xi if callable(xi) else geo.field_fn(self.setup.total, xi)
            v, dv = geo.vector_partials(fn, self.xs)
            self._fields[xi] = (v, dv, geo.lie_derivative_matrix(
                self.g, self.gamma, v, dv))
        return self._fields[xi]

    # -- base curvature ---------------------------------------------------

    @functools.cached_property
    def base_curvature(self):
        """(Gamma^N, Riem^N, Ric^N) of the base metric at F(p), indexed
        like ``gamma``, ``riem`` and ``ric_matrix``, from one seeding of
        (Gamma^N, dGamma^N)."""
        gamma, dgamma = geo.christoffel_partials_at(
            self.setup.base, list(self.base_point.coords))
        riem = geo.riemann_from_christoffels(gamma, dgamma)
        return gamma, riem, np.einsum("ikij->jk", riem)

    @functools.cached_property
    def base_scalar_curvature(self):
        """s^N = tr(h^{-1} Ric^N) at F(p)."""
        return _trace(np.array(mat_inverse(self.h_base.tolist())),
                      self.base_curvature[2])

    def base_R(self, wx, wy, wz):
        return (self.base_curvature[1] @ np.asarray(wy) @ np.asarray(wx)
                @ np.asarray(wz))

    def base_ric(self, wx, wy):
        ric = self.base_curvature[2]
        return float(np.asarray(wx) @ ric.T @ np.asarray(wy))

    # -- fiber intrinsic curvature ----------------------------------------

    @functools.cached_property
    def fiber_chart(self):
        """The fiber's slice chart through p, or None."""
        return sub.fiber_slice_chart(self.setup, self.p)

    @functools.cached_property
    def _fiber_curvature(self):
        """(vertical indices, fiber metric, fiber Riem, fiber Ric) on the
        fiber chart."""
        chart = self.fiber_chart
        if chart is None:
            raise sub.NotASubmersionError("fiber chart unavailable")
        fcoords = chart.fiber_coords(self.p)
        riem = geo.curvature_tensor_at(chart, fcoords)
        return (chart.vertical_indices, primal_array(chart.metric_at(fcoords)),
                riem, np.einsum("ikij->jk", riem))

    def fiber_ricci_intrinsic(self, u, v):
        """Ric^v(U, V) from the fiber's own chart (independent of the
        ambient curvature); 0 for 1-dimensional fibers."""
        if self.m - self.n == 1:
            return 0.0
        idx, _, _, ric = self._fiber_curvature
        return float(np.asarray(u)[idx] @ ric @ np.asarray(v)[idx])

    def fiber_curvature_intrinsic(self, u, v, w, s):
        """g(R^v(U, V)W, S) on the fiber chart."""
        if self.m - self.n == 1:
            return 0.0
        idx, gf, riem, _ = self._fiber_curvature
        u, v, w, s = (np.asarray(c)[idx] for c in (u, v, w, s))
        return float((riem @ v @ u @ w) @ gf @ s)

    @_once
    def fiber_scalar_intrinsic(self):
        """s^v = tr(g_v^{-1} Ric^v) on the fiber chart; 0 for
        1-dimensional fibers."""
        if self.m - self.n == 1:
            return 0.0
        _, gf, _, ric = self._fiber_curvature
        return _trace(np.array(mat_inverse(gf.tolist())), ric)

    # -- structural hypotheses at this point ------------------------------

    @_once
    def hyp_conformal(self):
        aniso = sub.conformal_anisotropy(self.jac, self.h_base, self.hframe,
                                         self.lam_sq)
        return Hypothesis("conformal", aniso <= max(self.hyp_tol, 1e-8), aniso)

    @_once
    def hyp_fiber_chart(self):
        ok = self.m - self.n == 1 or self.fiber_chart is not None
        return Hypothesis("fiber-chart-available", ok, 0.0 if ok else 1.0)

    @_once
    def hyp_fibers_tg(self):
        v = max((self.norm(self.T(ui, uj))
                 for i, ui in enumerate(self.vframe)
                 for uj in self.vframe[i:]), default=0.0)
        return Hypothesis("fibers-totally-geodesic", v <= self.hyp_tol, v)

    @_once
    def hyp_horizontal_tg(self):
        v = max((self.norm(self.A(xi, xj))
                 for xi in self.hframe for xj in self.hframe), default=0.0)
        return Hypothesis("horizontal-totally-geodesic", v <= self.hyp_tol, v)

    @_once
    def hyp_horizontal_integrable(self):
        worst = max((self.norm(self.nu_bracket(xi, xj))
                     for i, xi in enumerate(self.hframe)
                     for xj in self.hframe[i + 1:]), default=0.0)
        return Hypothesis("horizontal-integrable", worst <= self.hyp_tol, worst)

    @_once
    def hyp_homothetic(self):
        v = self.norm(self.hgrad_f)
        return Hypothesis("homothetic", v <= self.hyp_tol, v)

    @_once
    def hyp_map_tg(self):
        v = max(self.hyp_fibers_tg().violation,
                self.hyp_horizontal_tg().violation,
                self.hyp_homothetic().violation)
        return Hypothesis("map-totally-geodesic", v <= self.hyp_tol, v)

    # -- derived field derivatives ----------------------------------------

    def grad_hprime(self, v):
        """nabla_v H' with H' differentiated as a field."""
        return np.asarray(v) @ self._nabla[3]

    def div_hprime(self):
        """Divergence of H' along the fiber, sum_i g(nabla_{U_i} H', U_i).

        H' is a vertical field; the closed forms that mention div(H')
        close numerically only under the fiber reading, not the full
        m-dimensional divergence.
        """
        return sum(self.inner(self.grad_hprime(u), u) for u in self.vframe)

    def horizontal_laplacian_f(self):
        return sum(float(np.asarray(xj) @ self.hess_f @ np.asarray(xj))
                   for xj in self.hframe)

    def hess_f_pair(self, x, y):
        return float(np.asarray(x) @ self.hess_f @ np.asarray(y))


# ---------------------------------------------------------------------
# curvature identities (2.12)-(2.16)
# ---------------------------------------------------------------------

def _trivial(identity_id, p, hyps, tol, note):
    return make_report(identity_id, p, 0.0, 0.0, hyps, tol, note=note)


def verify_curvature_identity(identity_id, setup, p, frame=None, tol=1e-6,
                              ctx=None):
    ctx = ctx or IdentityContext(setup, p)
    dispatch = {"G2.12": _g212, "G2.13": _g213, "G2.14": _g214,
                "G2.15": _g215, "G2.16": _g216}
    if identity_id not in dispatch:
        raise ValueError(f"unknown curvature identity {identity_id!r}")
    return dispatch[identity_id](ctx, tol)


def _g212(ctx, tol):
    hyps = [ctx.hyp_conformal(), ctx.hyp_fiber_chart()]
    out = []
    nv = len(ctx.vframe)
    if nv < 2:
        return [_trivial("G2.12", ctx.p, hyps, tol, "no distinct vertical pair")]
    for i in range(nv):
        for j in range(i + 1, nv):
            for k in range(nv):
                for l in range(k + 1, nv):
                    u, v, w, s = (ctx.vframe[i], ctx.vframe[j],
                                  ctx.vframe[k], ctx.vframe[l])
                    lhs = ctx.inner(ctx.R(u, v, w), s)
                    rnu = ctx.fiber_curvature_intrinsic(u, v, w, s)
                    t1 = ctx.inner(ctx.T(u, w), ctx.T(v, s))
                    t2 = ctx.inner(ctx.T(v, w), ctx.T(u, s))
                    rhs = rnu + t1 - t2
                    out.append(make_report(
                        "G2.12", ctx.p, lhs, rhs, hyps, tol,
                        terms={"R_nu": rnu, "g(T_UW,T_VS)": t1,
                               "-g(T_VW,T_US)": -t2},
                        label=f"U{i+1} V{j+1} W{k+1} S{l+1}"))
    return out


def _g213(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    nv = len(ctx.vframe)
    if nv < 2:
        return [_trivial("G2.13", ctx.p, hyps, tol, "no distinct vertical pair")]
    for i in range(nv):
        for j in range(i + 1, nv):
            for k in range(nv):
                for a, x in enumerate(ctx.hframe):
                    u, v, w = ctx.vframe[i], ctx.vframe[j], ctx.vframe[k]
                    lhs = ctx.inner(ctx.R(u, v, w), x)
                    t1 = ctx.inner(ctx.dT(u, v, w), x)
                    t2 = ctx.inner(ctx.dT(v, u, w), x)
                    out.append(make_report(
                        "G2.13", ctx.p, lhs, t1 - t2, hyps, tol,
                        terms={"(nabla_U T)_V W": t1, "-(nabla_V T)_U W": -t2},
                        label=f"U{i+1} V{j+1} W{k+1} X{a+1}"))
    return out


def _g214(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    for i, u in enumerate(ctx.vframe):
        for a, x in enumerate(ctx.hframe):
            for b, y in enumerate(ctx.hframe):
                for j, v in enumerate(ctx.vframe):
                    lhs = ctx.inner(ctx.R(u, x, y), v)
                    t1 = ctx.inner(ctx.dA(u, x, y), v)
                    t2 = ctx.inner(ctx.A(x, u), ctx.A(y, v))
                    t3 = ctx.inner(ctx.dT(x, u, y), v)
                    t4 = ctx.inner(ctx.T(v, y), ctx.T(u, x))
                    t5 = (ctx.lam_sq * ctx.inner(ctx.A(x, y), u)
                          * ctx.inner(v, ctx.vgrad_f))
                    rhs = t1 + t2 - t3 - t4 + t5
                    out.append(make_report(
                        "G2.14", ctx.p, lhs, rhs, hyps, tol,
                        terms={"(nabla_U A)_X Y": t1, "g(A_XU,A_YV)": t2,
                               "-(nabla_X T)_U Y": -t3, "-g(T_VY,T_UX)": -t4,
                               "lam^2 g(A_XY,U)g(V,grad_v f)": t5},
                        label=f"U{i+1} X{a+1} Y{b+1} V{j+1}"))
    return out


def _g215(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    nh = len(ctx.hframe)
    if nh < 2:
        return [_trivial("G2.15", ctx.p, hyps, tol, "no distinct horizontal pair")]
    for a in range(nh):
        for b in range(a + 1, nh):
            for c in range(nh):
                for i, u in enumerate(ctx.vframe):
                    x, y, z = ctx.hframe[a], ctx.hframe[b], ctx.hframe[c]
                    lhs = ctx.inner(ctx.R(x, y, z), u)
                    t1 = ctx.inner(ctx.dA(x, y, z), u)
                    t2 = ctx.inner(ctx.dA(y, x, z), u)
                    t3 = ctx.inner(ctx.T(u, z), ctx.nu_bracket(x, y))
                    rhs = t1 - t2 - t3
                    out.append(make_report(
                        "G2.15", ctx.p, lhs, rhs, hyps, tol,
                        terms={"(nabla_X A)_Y Z": t1, "-(nabla_Y A)_X Z": -t2,
                               "-g(T_UZ, v[X,Y])": -t3},
                        label=f"X{a+1} Y{b+1} Z{c+1} U{i+1}"))
    return out


def _g216(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    nh = len(ctx.hframe)
    if nh < 2:
        return [_trivial("G2.16", ctx.p, hyps, tol, "no distinct horizontal pair")]
    lam_sq = ctx.lam_sq
    gf_norm_sq = ctx.inner(ctx.grad_f, ctx.grad_f)
    for a in range(nh):
        for b in range(a + 1, nh):
            for c in range(nh):
                for d in range(nh):
                    x, y = ctx.hframe[a], ctx.hframe[b]
                    z, l = ctx.hframe[c], ctx.hframe[d]
                    lhs = ctx.inner(ctx.R(x, y, z), l)
                    base = ctx.base_inner(
                        ctx.base_R(ctx.push(x), ctx.push(y), ctx.push(z)),
                        ctx.push(l)) / lam_sq
                    brackets = 0.25 * (
                        ctx.inner(ctx.nu_bracket(x, z), ctx.nu_bracket(y, l))
                        - ctx.inner(ctx.nu_bracket(y, z), ctx.nu_bracket(x, l))
                        + 2.0 * ctx.inner(ctx.nu_bracket(x, y), ctx.nu_bracket(z, l)))
                    hess = 0.5 * lam_sq * (
                        ctx.inner(x, z) * ctx.hess_f_pair(y, l)
                        - ctx.inner(y, z) * ctx.hess_f_pair(x, l)
                        + ctx.inner(y, l) * ctx.hess_f_pair(x, z)
                        - ctx.inner(x, l) * ctx.hess_f_pair(y, z))
                    xf, yf = ctx.direction_f(x), ctx.direction_f(y)
                    zf, lf = ctx.direction_f(z), ctx.direction_f(l)
                    vec1 = xf * np.asarray(y) - yf * np.asarray(x)
                    vec2 = lf * np.asarray(z) - zf * np.asarray(l)
                    quartic = 0.25 * lam_sq ** 2 * (
                        (ctx.inner(x, l) * ctx.inner(y, z)
                         - ctx.inner(y, l) * ctx.inner(x, z)) * gf_norm_sq
                        + ctx.inner(vec1, vec2))
                    rhs = base + brackets + hess + quartic
                    out.append(make_report(
                        "G2.16", ctx.p, lhs, rhs, hyps, tol,
                        terms={"base-curvature/lam^2": base,
                               "bracket-terms": brackets,
                               "hessian-terms": hess,
                               "gradient-terms": quartic},
                        label=f"X{a+1} Y{b+1} Z{c+1} L{d+1}"))
    return out


# ---------------------------------------------------------------------
# Prop 3.1, Eq. (3.3), Lemma 3.1
# ---------------------------------------------------------------------

def verify_A_formula(identity_id, setup, p, tol=1e-6, ctx=None):
    """P3.1: A_X Y = (1/2){v[X,Y] - lam^2 g(X,Y) grad_v f}; E3.3: the
    derived relation A_Y X + A_X Y + lam^2 g(X,Y) grad_v f = 0."""
    ctx = ctx or IdentityContext(setup, p)
    hyps = [ctx.hyp_conformal()]
    out = []
    for a, x in enumerate(ctx.hframe):
        for b, y in enumerate(ctx.hframe):
            axy = ctx.A(x, y)
            scale = 1.0 + ctx.norm(axy)
            grad_term = ctx.lam_sq * ctx.inner(x, y) * ctx.vgrad_f
            if identity_id == "P3.1":
                closed = 0.5 * (ctx.nu_bracket(x, y) - grad_term)
                res = ctx.norm(axy - closed)
                lhs, rhs = ctx.norm(axy), ctx.norm(closed)
            else:
                res = ctx.norm(ctx.A(y, x) + axy + grad_term)
                lhs, rhs = res, 0.0
            rep = ResidualReport(
                identity_id=identity_id, point=ctx.p, lhs=lhs, rhs=rhs,
                abs_residual=res, rel_residual=res / scale,
                hypotheses=list(hyps), verdict="",
                label=f"X{a+1} Y{b+1}")
            out.append(_finish(rep, tol))
    return out


def verify_lemma_3_1(item, setup, p, tol=1e-6, ctx=None):
    ctx = ctx or IdentityContext(setup, p)
    hyps = [ctx.hyp_conformal(), ctx.hyp_horizontal_integrable()]
    n = ctx.n
    lam4 = ctx.lam_sq ** 2
    out = []
    if item == "i":
        for i, u in enumerate(ctx.vframe):
            for j, v in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.A(x, u), ctx.A(x, v))
                          for x in ctx.hframe)
                rhs = (n ** 2 * lam4 / 4.0 * ctx.inner(ctx.vgrad_f, u)
                       * ctx.inner(ctx.vgrad_f, v))
                out.append(make_report("L3.1.i", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"U{i+1} V{j+1}"))
    elif item == "ii":
        for i, u in enumerate(ctx.vframe):
            for j, v in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(u, x, x), v) for x in ctx.hframe)
                rhs = n * ctx.inner(ctx.grad_hprime(u), v)
                out.append(make_report("L3.1.ii", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"U{i+1} V{j+1}"))
    elif item == "iii":
        for a, x in enumerate(ctx.hframe):
            for i, u in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(x, xj, xj), u) for xj in ctx.hframe)
                rhs = n * ctx.inner(ctx.grad_hprime(x), u)
                out.append(make_report("L3.1.iii", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"X{a+1} U{i+1}"))
    elif item == "iv":
        for a, x in enumerate(ctx.hframe):
            for i, u in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(xj, x, xj), u) for xj in ctx.hframe)
                rhs = sum(ctx.inner(x, xj) * ctx.inner(ctx.grad_hprime(xj), u)
                          for xj in ctx.hframe)
                out.append(make_report("L3.1.iv", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"X{a+1} U{i+1}"))
    elif item == "v":
        div_hp = ctx.div_hprime()
        for a, x in enumerate(ctx.hframe):
            for b, y in enumerate(ctx.hframe):
                lhs = sum(ctx.inner(ctx.dA(u, x, y), u) for u in ctx.vframe)
                rhs = ctx.inner(x, y) * div_hp
                out.append(make_report("L3.1.v", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"X{a+1} Y{b+1}"))
    elif item == "vi":
        vnorm = ctx.inner(ctx.vgrad_f, ctx.vgrad_f)
        for a, x in enumerate(ctx.hframe):
            for b, y in enumerate(ctx.hframe):
                lhs = sum(ctx.inner(ctx.A(x, u), ctx.A(y, u))
                          for u in ctx.vframe)
                rhs = ctx.inner(x, y) * ctx.lam_sq ** 2 / 4.0 * vnorm
                out.append(make_report("L3.1.vi", ctx.p, lhs, rhs, hyps, tol,
                                       label=f"X{a+1} Y{b+1}"))
    else:
        raise ValueError(f"unknown lemma item {item!r}")
    return out


# ---------------------------------------------------------------------
# Ricci decompositions (3.11)-(3.13) and corollaries
# ---------------------------------------------------------------------

def _ric_vertical_rhs(ctx, u, v):
    m, n = ctx.m, ctx.n
    rnu = ctx.fiber_ricci_intrinsic(u, v)
    terms = {
        "Ric_nu": rnu,
        "-(m-n)g(T_UV,H)": -(m - n) * ctx.inner(ctx.T(u, v), ctx.h_vec),
        "sum (nabla_U A)_Xj Xj . V": sum(
            ctx.inner(ctx.dA(u, x, x), v) for x in ctx.hframe),
        "sum g(A_Xj U, A_Xj V)": sum(
            ctx.inner(ctx.A(x, u), ctx.A(x, v)) for x in ctx.hframe),
        "-sum (nabla_Xj T)_U Xj . V": -sum(
            ctx.inner(ctx.dT(x, u, x), v) for x in ctx.hframe),
        "-(lam^4/2) n (Uf)(Vf)": -(ctx.lam_sq ** 2 / 2.0) * n
            * ctx.inner(u, ctx.vgrad_f) * ctx.inner(v, ctx.vgrad_f),
    }
    return sum(terms.values()), terms


def _ric_mixed_rhs(ctx, u, x):
    m, n = ctx.m, ctx.n
    terms = {
        "(m-n) g(nabla_U H, X)": (m - n) * ctx.inner(ctx.grad_h(u), x),
        "-sum (nabla_Ui T)_U Ui . X": -sum(
            ctx.inner(ctx.dT(ui, u, ui), x) for ui in ctx.vframe),
        "sum (nabla_X A)_Xj Xj . U": sum(
            ctx.inner(ctx.dA(x, xj, xj), u) for xj in ctx.hframe),
        "-sum (nabla_Xj A)_X Xj . U": -sum(
            ctx.inner(ctx.dA(xj, x, xj), u) for xj in ctx.hframe),
        "-sum g(T_U Xj, v[X,Xj])": -sum(
            ctx.inner(ctx.T(u, xj), ctx.nu_bracket(x, xj))
            for xj in ctx.hframe),
    }
    return sum(terms.values()), terms


def _ric_horizontal_rhs(ctx, x, y):
    n = ctx.n
    lam_sq = ctx.lam_sq
    lam4 = lam_sq ** 2
    xf, yf = ctx.direction_f(x), ctx.direction_f(y)
    hp_f = float(np.asarray(ctx.hp_vec) @ ctx.g @ ctx.grad_f)  # H'(f)
    terms = {
        "sum (nabla_Ui A)_X Y . Ui": sum(
            ctx.inner(ctx.dA(u, x, y), u) for u in ctx.vframe),
        "sum g(A_X Ui, A_Y Ui)": sum(
            ctx.inner(ctx.A(x, u), ctx.A(y, u)) for u in ctx.vframe),
        "-sum (nabla_X T)_Ui Y . Ui": -sum(
            ctx.inner(ctx.dT(x, u, y), u) for u in ctx.vframe),
        "-sum g(T_Ui X, T_Ui Y)": -sum(
            ctx.inner(ctx.T(u, x), ctx.T(u, y)) for u in ctx.vframe),
        "lam^2 g(A_XY, grad_v f)": lam_sq * ctx.inner(ctx.A(x, y), ctx.vgrad_f),
        "Ric_N/lam^2": ctx.base_ric(ctx.push(x), ctx.push(y)) / lam_sq,
        "(3/4) sum g(v[X,Xj], v[Xj,Y])": 0.75 * sum(
            ctx.inner(ctx.nu_bracket(x, xj), ctx.nu_bracket(xj, y))
            for xj in ctx.hframe),
        "-((n-2)/2) lam^2 Hess f(X,Y)": -((n - 2) / 2.0) * lam_sq
            * ctx.hess_f_pair(x, y),
        "-(lam^2/2) g(X,Y){lap_H f - n H'(f)}": -(lam_sq / 2.0)
            * ctx.inner(x, y) * (ctx.horizontal_laplacian_f() - n * hp_f),
        "(n lam^4/4) g(X,Y)|grad f|^2": (n * lam4 / 4.0) * ctx.inner(x, y)
            * ctx.inner(ctx.grad_f, ctx.grad_f),
        "(lam^4/4)(n-2)(Xf)(Yf)": (lam4 / 4.0) * (n - 2) * xf * yf,
    }
    return sum(terms.values()), terms


def verify_ricci_decomposition(identity_id, setup, p, tol=1e-6, ctx=None):
    ctx = ctx or IdentityContext(setup, p)
    out = []
    if identity_id == "R3.11":
        hyps = [ctx.hyp_conformal(), ctx.hyp_fiber_chart()]
        for i, u in enumerate(ctx.vframe):
            for j in range(i, len(ctx.vframe)):
                v = ctx.vframe[j]
                rhs, terms = _ric_vertical_rhs(ctx, u, v)
                out.append(make_report("R3.11", ctx.p, ctx.ric(u, v), rhs,
                                       hyps, tol, terms=terms,
                                       label=f"U{i+1} V{j+1}"))
    elif identity_id == "R3.12":
        hyps = [ctx.hyp_conformal()]
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                rhs, terms = _ric_mixed_rhs(ctx, u, x)
                out.append(make_report("R3.12", ctx.p, ctx.ric(u, x), rhs,
                                       hyps, tol, terms=terms,
                                       label=f"U{i+1} X{a+1}"))
    elif identity_id == "R3.13":
        hyps = [ctx.hyp_conformal()]
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                rhs, terms = _ric_horizontal_rhs(ctx, x, y)
                out.append(make_report("R3.13", ctx.p, ctx.ric(x, y), rhs,
                                       hyps, tol, terms=terms,
                                       label=f"X{a+1} Y{b+1}"))
    else:
        raise ValueError(f"unknown decomposition {identity_id!r}")
    return out


def verify_corollary(identity_id, setup, p, tol=1e-6, ctx=None):
    ctx = ctx or IdentityContext(setup, p)
    n = ctx.n
    lam_sq = ctx.lam_sq
    lam4 = lam_sq ** 2
    out = []
    if identity_id == "C3.1":
        hyps = [ctx.hyp_conformal(), ctx.hyp_fibers_tg(),
                ctx.hyp_horizontal_integrable(), ctx.hyp_fiber_chart()]
        for i, u in enumerate(ctx.vframe):
            for j in range(i, len(ctx.vframe)):
                v = ctx.vframe[j]
                rnu = ctx.fiber_ricci_intrinsic(u, v)
                rhs = (rnu + n * ctx.inner(ctx.grad_hprime(u), v)
                       + (n * n / 4.0 - n / 2.0) * lam4
                       * ctx.inner(u, ctx.vgrad_f) * ctx.inner(v, ctx.vgrad_f))
                out.append(make_report("C3.1", ctx.p, ctx.ric(u, v), rhs,
                                       hyps, tol, label=f"(U{i+1},V{j+1})"))
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                rhs = (n * ctx.inner(ctx.grad_hprime(x), u)
                       - sum(ctx.inner(x, xj) * ctx.inner(ctx.grad_hprime(xj), u)
                             for xj in ctx.hframe))
                out.append(make_report("C3.1", ctx.p, ctx.ric(u, x), rhs,
                                       hyps, tol, label=f"(U{i+1},X{a+1})"))
        div_hp = ctx.div_hprime()
        vnorm = ctx.inner(ctx.vgrad_f, ctx.vgrad_f)
        hp_f = float(np.asarray(ctx.hp_vec) @ ctx.g @ ctx.grad_f)
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                xf, yf = ctx.direction_f(x), ctx.direction_f(y)
                rhs = (ctx.inner(x, y) * div_hp
                       + ctx.base_ric(ctx.push(x), ctx.push(y)) / lam_sq
                       - 0.75 * lam4 * ctx.inner(x, y) * vnorm
                       - ((n - 2) / 2.0) * lam_sq * ctx.hess_f_pair(x, y)
                       - (lam_sq / 2.0) * ctx.inner(x, y)
                       * (ctx.horizontal_laplacian_f() - n * hp_f)
                       + (n * lam4 / 4.0) * ctx.inner(x, y)
                       * ctx.inner(ctx.grad_f, ctx.grad_f)
                       + (lam4 / 4.0) * (n - 2) * xf * yf)
                out.append(make_report("C3.1", ctx.p, ctx.ric(x, y), rhs,
                                       hyps, tol, label=f"(X{a+1},Y{b+1})"))
    elif identity_id == "C3.2":
        hyps = [ctx.hyp_conformal(), ctx.hyp_fibers_tg(),
                ctx.hyp_horizontal_integrable(), ctx.hyp_homothetic()]
        div_hp = ctx.div_hprime()
        vnorm = ctx.inner(ctx.vgrad_f, ctx.vgrad_f)
        hp_f = float(np.asarray(ctx.hp_vec) @ ctx.g @ ctx.grad_f)
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                rhs = (ctx.inner(x, y) * div_hp
                       + ctx.base_ric(ctx.push(x), ctx.push(y)) / lam_sq
                       - 0.25 * lam4 * ctx.inner(x, y) * vnorm
                       + (n * lam_sq / 2.0) * ctx.inner(x, y) * hp_f)
                out.append(make_report("C3.2", ctx.p, ctx.ric(x, y), rhs,
                                       hyps, tol, label=f"(X{a+1},Y{b+1})"))
    elif identity_id == "C3.3":
        hyps = [ctx.hyp_conformal(), ctx.hyp_map_tg(), ctx.hyp_fiber_chart()]
        for i, u in enumerate(ctx.vframe):
            for j in range(i, len(ctx.vframe)):
                v = ctx.vframe[j]
                out.append(make_report(
                    "C3.3", ctx.p, ctx.ric(u, v),
                    ctx.fiber_ricci_intrinsic(u, v), hyps, tol,
                    label=f"(U{i+1},V{j+1})"))
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                out.append(make_report("C3.3", ctx.p, ctx.ric(u, x), 0.0,
                                       hyps, tol, label=f"(U{i+1},X{a+1})"))
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                out.append(make_report(
                    "C3.3", ctx.p, ctx.ric(x, y),
                    ctx.base_ric(ctx.push(x), ctx.push(y)) / lam_sq,
                    hyps, tol, label=f"(X{a+1},Y{b+1})"))
    else:
        raise ValueError(f"unknown corollary {identity_id!r}")
    return out


def verify_scalar_split(setup, p, tol=1e-6, ctx=None):
    """s = s^{KerF_*} + s^N / lam^2 for a totally geodesic map."""
    ctx = ctx or IdentityContext(setup, p)
    hyps = [ctx.hyp_conformal(), ctx.hyp_map_tg(), ctx.hyp_fiber_chart()]
    s_fiber = ctx.fiber_scalar_intrinsic()
    s_base = ctx.base_scalar_curvature
    rhs = s_fiber + s_base / ctx.lam_sq
    return make_report("T3.4", p, ctx.scalar_curvature, rhs, hyps, tol,
                       terms={"s_fiber": s_fiber, "s_base/lam^2": s_base / ctx.lam_sq})


# ---------------------------------------------------------------------
# Lemma 2.1 and Lemma 2.2
# ---------------------------------------------------------------------

def verify_lemma_2_1(setup, p, tol=1e-6, ctx=None):
    """L2.1 for every pair of lifts X_a, X_b of the base coordinate
    fields e_a, e_b: F_*(h nabla_{X_a} X_b) = nabla^N_{e_a} e_b
    + (lam^2/2){X_a(f) F_*X_b + X_b(f) F_*X_a - g(X_a, X_b) F_*(h grad f)},
    with nabla^N_{e_a} e_b = Gamma^N_ab."""
    ctx = ctx or IdentityContext(setup, p)
    hyps = [ctx.hyp_conformal()]
    lift, _, nabla = ctx.basic_fields
    lhs = np.einsum("ik,kab->iab", ctx.jac @ ctx.ph, nabla)
    push = ctx.jac @ lift
    xf = lift.T @ ctx.g @ ctx.grad_f
    gxy = lift.T @ ctx.g @ lift
    correction = 0.5 * ctx.lam_sq * (
        np.einsum("a,ib->iab", xf, push) + np.einsum("b,ia->iab", xf, push)
        - np.einsum("ab,i->iab", gxy, ctx.push(ctx.hgrad_f)))
    rhs = ctx.base_curvature[0] + correction
    lhs_n, rhs_n, res = (sub.pair_norms(ctx.h_base, w)
                         for w in (lhs, rhs, lhs - rhs))
    return [_finish(ResidualReport(
        identity_id="L2.1", point=p, lhs=lhs_n[a, b], rhs=rhs_n[a, b],
        abs_residual=res[a, b],
        rel_residual=res[a, b] / (1.0 + max(lhs_n[a, b], rhs_n[a, b])),
        hypotheses=list(hyps), verdict=""), tol)
        for a in range(ctx.n) for b in range(ctx.n)]


def verify_hessian_symmetry(setup, p, tol=1e-9, ctx=None):
    """L2.2: the Hessian of f = 1/lambda^2 is symmetric."""
    ctx = ctx or IdentityContext(setup, p)
    worst = float(np.max(np.abs(ctx.hess_f - ctx.hess_f.T)))
    rep = ResidualReport(
        identity_id="L2.2", point=p, lhs=worst, rhs=0.0,
        abs_residual=worst, rel_residual=worst, hypotheses=[], verdict="")
    return _finish(rep, tol)


# ---------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------

def run_check(check_id, setup, p, tol=1e-6, ctx=None):
    """Run one check id at one point; returns a list of ResidualReport."""
    ctx = ctx or IdentityContext(setup, p)
    if check_id in CURVATURE_CHECKS:
        return verify_curvature_identity(check_id, setup, p, tol=tol, ctx=ctx)
    if check_id in ("P3.1", "E3.3"):
        return verify_A_formula(check_id, setup, p, tol=tol, ctx=ctx)
    if check_id in LEMMA31_CHECKS:
        return verify_lemma_3_1(check_id.split(".")[-1], setup, p, tol=tol, ctx=ctx)
    if check_id in RICCI_CHECKS:
        return verify_ricci_decomposition(check_id, setup, p, tol=tol, ctx=ctx)
    if check_id in COROLLARY_CHECKS:
        return verify_corollary(check_id, setup, p, tol=tol, ctx=ctx)
    if check_id == "T3.4":
        return [verify_scalar_split(setup, p, tol=tol, ctx=ctx)]
    if check_id == "L2.1":
        return verify_lemma_2_1(setup, p, tol=tol, ctx=ctx)
    if check_id == "L2.2":
        return [verify_hessian_symmetry(setup, p, tol=max(tol, 1e-9), ctx=ctx)]
    raise ValueError(f"unknown check id {check_id!r}")

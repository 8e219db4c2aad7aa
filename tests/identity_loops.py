"""Loop-form reference for the identity checks.

Every G2.x, P3.1/E3.3, L3.1.x, R3.x, C3.x, T3.4 and L2.x check written as
loops over frame tuples, one inner product at a time, with per-vector
helpers over one point's slices of an ``IdentityContext``'s
coordinate-basis arrays (``riem``, ``ric_matrix``, ``t_tensor``,
``a_tensor``, the covariant derivatives in ``_nabla``, Hess f, the base and
fiber curvature).  The hypotheses are measured by the same loops.  ``identities.run_check`` contracts frame-basis
arrays instead; the tests compare the two record by record.
"""

import math

import numpy as np

from confsub import identities
from confsub.identities import Hypothesis
from confsub.submersion import PROPERTY_TOL, pair_norms
from conftest import one_row


def record(*args, **kwargs):
    """``identities.record``'s one record, as a row dict."""
    return one_row(identities.record, *args, **kwargs)


class Loops:
    """Per-vector helpers over the coordinate arrays of point ``i`` of a
    run-level context; any other attribute is that point's slice of the
    context's own (a tuple of arrays slice by slice)."""

    def __init__(self, ctx, i=0):
        self.ctx, self.i = ctx, i
        self.m, self.n = ctx.m, ctx.n
        self.p = ctx.points[i]

    def __getattr__(self, name):
        value = getattr(self.ctx, name)
        if isinstance(value, tuple):
            return tuple(v[self.i] for v in value)
        return value[self.i]

    def inner(self, u, v):
        return float(np.asarray(u) @ self.g @ np.asarray(v))

    def norm(self, v):
        return math.sqrt(max(0.0, self.inner(v, v)))

    def base_inner(self, w, z):
        return float(np.asarray(w) @ self.h_base @ np.asarray(z))

    def push(self, v):
        return self.jac @ np.asarray(v)

    def direction_f(self, v):
        return float(np.asarray(v) @ self.g @ self.grad_f)

    def T(self, u, v):
        return self.t_tensor @ np.asarray(v) @ np.asarray(u)

    def A(self, x, y):
        return self.a_tensor @ np.asarray(y) @ np.asarray(x)

    def nu_bracket(self, x, y):
        return self.A(x, y) - self.A(y, x)

    def dT(self, e, u, v):
        return np.asarray(e) @ (self._nabla[0] @ np.asarray(v) @ np.asarray(u))

    def dA(self, e, x, y):
        return np.asarray(e) @ (self._nabla[1] @ np.asarray(y) @ np.asarray(x))

    def grad_h(self, v):
        return np.asarray(v) @ self._nabla[2]

    def grad_hprime(self, v):
        return np.asarray(v) @ self._nabla[3]

    def div_hprime(self):
        return sum(self.inner(self.grad_hprime(u), u) for u in self.vframe)

    def R(self, x, y, z):
        return self.riem @ np.asarray(y) @ np.asarray(x) @ np.asarray(z)

    def ric(self, x, y):
        return float(np.asarray(x) @ self.ric_matrix.T @ np.asarray(y))

    def base_R(self, wx, wy, wz):
        return (self.base_curvature[1] @ np.asarray(wy) @ np.asarray(wx)
                @ np.asarray(wz))

    def base_ric(self, wx, wy):
        ric = self.base_curvature[2]
        return float(np.asarray(wx) @ ric.T @ np.asarray(wy))

    def fiber_ricci_intrinsic(self, u, v):
        if self.m - self.n == 1:
            return 0.0
        idx, _, _, ric = self._fiber_curvature
        return float(np.asarray(u)[idx] @ ric @ np.asarray(v)[idx])

    def fiber_curvature_intrinsic(self, u, v, w, s):
        if self.m - self.n == 1:
            return 0.0
        idx, gf, riem, _ = self._fiber_curvature
        u, v, w, s = (np.asarray(c)[idx] for c in (u, v, w, s))
        return float((riem @ v @ u @ w) @ gf @ s)

    def horizontal_laplacian_f(self):
        return sum(float(np.asarray(xj) @ self.hess_f @ np.asarray(xj))
                   for xj in self.hframe)

    def hess_f_pair(self, x, y):
        return float(np.asarray(x) @ self.hess_f @ np.asarray(y))

    # -- hypotheses ------------------------------------------------------

    def hyp_fiber_chart(self):
        h = self.ctx.hyp_fiber_chart
        return Hypothesis(h.name, bool(h.satisfied[self.i]),
                          float(h.violation[self.i]))

    def hyp_conformal(self):
        aniso = 0.0
        for i, xi in enumerate(self.hframe):
            for j, xj in enumerate(self.hframe):
                push = float((self.jac @ xi) @ self.h_base @ (self.jac @ xj))
                expect = self.lam_sq if i == j else 0.0
                aniso = max(aniso, abs(push - expect))
        return Hypothesis("conformal", aniso <= PROPERTY_TOL, aniso)

    def hyp_fibers_tg(self):
        v = max((self.norm(self.T(ui, uj))
                 for i, ui in enumerate(self.vframe)
                 for uj in self.vframe[i:]), default=0.0)
        return Hypothesis("fibers-totally-geodesic", v <= PROPERTY_TOL, v)

    def hyp_horizontal_tg(self):
        v = max((self.norm(self.A(xi, xj))
                 for xi in self.hframe for xj in self.hframe), default=0.0)
        return Hypothesis("horizontal-totally-geodesic", v <= PROPERTY_TOL, v)

    def hyp_horizontal_integrable(self):
        worst = max((self.norm(self.nu_bracket(xi, xj))
                     for i, xi in enumerate(self.hframe)
                     for xj in self.hframe[i + 1:]), default=0.0)
        return Hypothesis("horizontal-integrable", worst <= PROPERTY_TOL,
                          worst)

    def hyp_homothetic(self):
        v = self.norm(self.hgrad_f)
        return Hypothesis("homothetic", v <= PROPERTY_TOL, v)

    def hyp_map_tg(self):
        v = max(self.hyp_fibers_tg().violation,
                self.hyp_horizontal_tg().violation,
                self.hyp_homothetic().violation)
        return Hypothesis("map-totally-geodesic", v <= PROPERTY_TOL, v)

    def hyp_umbilical(self):
        worst = 0.0
        for i, u in enumerate(self.vframe):
            for v in self.vframe[i:]:
                d = self.T(u, v) - self.inner(u, v) * self.h_vec
                worst = max(worst, self.norm(d))
        return Hypothesis("umbilical-fibers", worst <= PROPERTY_TOL, worst)


def _trivial(identity_id, p, hyps, tol, note):
    return record(identity_id, p.coords, 0.0, 0.0, hyps, tol, note=note)


def _g212(ctx, tol):
    hyps = [ctx.hyp_conformal(), ctx.hyp_fiber_chart()]
    out = []
    nv = len(ctx.vframe)
    if nv < 2:
        return [_trivial("G2.12", ctx.p, hyps, tol,
                         "no distinct vertical pair")]
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
                    out.append(record(
                        "G2.12", ctx.p.coords, lhs, rhs, hyps, tol,
                        terms={"R_nu": rnu, "g(T_UW,T_VS)": t1,
                               "-g(T_VW,T_US)": -t2},
                        label=f"U{i+1} V{j+1} W{k+1} S{l+1}"))
    return out


def _g213(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    nv = len(ctx.vframe)
    if nv < 2:
        return [_trivial("G2.13", ctx.p, hyps, tol,
                         "no distinct vertical pair")]
    for i in range(nv):
        for j in range(i + 1, nv):
            for k in range(nv):
                for a, x in enumerate(ctx.hframe):
                    u, v, w = ctx.vframe[i], ctx.vframe[j], ctx.vframe[k]
                    lhs = ctx.inner(ctx.R(u, v, w), x)
                    t1 = ctx.inner(ctx.dT(u, v, w), x)
                    t2 = ctx.inner(ctx.dT(v, u, w), x)
                    out.append(record(
                        "G2.13", ctx.p.coords, lhs, t1 - t2, hyps, tol,
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
                    out.append(record(
                        "G2.14", ctx.p.coords, lhs, rhs, hyps, tol,
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
        return [_trivial("G2.15", ctx.p, hyps, tol,
                         "no distinct horizontal pair")]
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
                    out.append(record(
                        "G2.15", ctx.p.coords, lhs, rhs, hyps, tol,
                        terms={"(nabla_X A)_Y Z": t1, "-(nabla_Y A)_X Z": -t2,
                               "-g(T_UZ, v[X,Y])": -t3},
                        label=f"X{a+1} Y{b+1} Z{c+1} U{i+1}"))
    return out


def _g216(ctx, tol):
    hyps = [ctx.hyp_conformal()]
    out = []
    nh = len(ctx.hframe)
    if nh < 2:
        return [_trivial("G2.16", ctx.p, hyps, tol,
                         "no distinct horizontal pair")]
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
                        + 2.0 * ctx.inner(ctx.nu_bracket(x, y),
                                          ctx.nu_bracket(z, l)))
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
                    out.append(record(
                        "G2.16", ctx.p.coords, lhs, rhs, hyps, tol,
                        terms={"base-curvature/lam^2": base,
                               "bracket-terms": brackets,
                               "hessian-terms": hess,
                               "gradient-terms": quartic},
                        label=f"X{a+1} Y{b+1} Z{c+1} L{d+1}"))
    return out


def _a_formula(identity_id, ctx, tol):
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
            out.append(record(identity_id, ctx.p.coords, lhs, rhs, hyps, tol,
                              label=f"X{a+1} Y{b+1}", residual=res,
                              scale=scale))
    return out


def _lemma_3_1(item, ctx, tol):
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
                out.append(record("L3.1.i", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"U{i+1} V{j+1}"))
    elif item == "ii":
        for i, u in enumerate(ctx.vframe):
            for j, v in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(u, x, x), v) for x in ctx.hframe)
                rhs = n * ctx.inner(ctx.grad_hprime(u), v)
                out.append(record("L3.1.ii", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"U{i+1} V{j+1}"))
    elif item == "iii":
        for a, x in enumerate(ctx.hframe):
            for i, u in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(x, xj, xj), u) for xj in ctx.hframe)
                rhs = n * ctx.inner(ctx.grad_hprime(x), u)
                out.append(record("L3.1.iii", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"X{a+1} U{i+1}"))
    elif item == "iv":
        for a, x in enumerate(ctx.hframe):
            for i, u in enumerate(ctx.vframe):
                lhs = sum(ctx.inner(ctx.dA(xj, x, xj), u) for xj in ctx.hframe)
                rhs = sum(ctx.inner(x, xj) * ctx.inner(ctx.grad_hprime(xj), u)
                          for xj in ctx.hframe)
                out.append(record("L3.1.iv", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"X{a+1} U{i+1}"))
    elif item == "v":
        div_hp = ctx.div_hprime()
        for a, x in enumerate(ctx.hframe):
            for b, y in enumerate(ctx.hframe):
                lhs = sum(ctx.inner(ctx.dA(u, x, y), u) for u in ctx.vframe)
                rhs = ctx.inner(x, y) * div_hp
                out.append(record("L3.1.v", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"X{a+1} Y{b+1}"))
    else:
        vnorm = ctx.inner(ctx.vgrad_f, ctx.vgrad_f)
        for a, x in enumerate(ctx.hframe):
            for b, y in enumerate(ctx.hframe):
                lhs = sum(ctx.inner(ctx.A(x, u), ctx.A(y, u))
                          for u in ctx.vframe)
                rhs = ctx.inner(x, y) * ctx.lam_sq ** 2 / 4.0 * vnorm
                out.append(record("L3.1.vi", ctx.p.coords, lhs, rhs,
                                  hyps, tol, label=f"X{a+1} Y{b+1}"))
    return out


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
    m = ctx.m
    terms = {
        "(m-n) g(nabla_U H, X)": (m - ctx.n) * ctx.inner(ctx.grad_h(u), x),
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
    hp_f = float(np.asarray(ctx.hp_vec) @ ctx.g @ ctx.grad_f)
    terms = {
        "sum (nabla_Ui A)_X Y . Ui": sum(
            ctx.inner(ctx.dA(u, x, y), u) for u in ctx.vframe),
        "sum g(A_X Ui, A_Y Ui)": sum(
            ctx.inner(ctx.A(x, u), ctx.A(y, u)) for u in ctx.vframe),
        "-sum (nabla_X T)_Ui Y . Ui": -sum(
            ctx.inner(ctx.dT(x, u, y), u) for u in ctx.vframe),
        "-sum g(T_Ui X, T_Ui Y)": -sum(
            ctx.inner(ctx.T(u, x), ctx.T(u, y)) for u in ctx.vframe),
        "lam^2 g(A_XY, grad_v f)": lam_sq * ctx.inner(ctx.A(x, y),
                                                      ctx.vgrad_f),
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


def _ricci(identity_id, ctx, tol):
    out = []
    if identity_id == "R3.11":
        hyps = [ctx.hyp_conformal(), ctx.hyp_fiber_chart()]
        for i, u in enumerate(ctx.vframe):
            for j in range(i, len(ctx.vframe)):
                v = ctx.vframe[j]
                rhs, terms = _ric_vertical_rhs(ctx, u, v)
                out.append(record("R3.11", ctx.p.coords, ctx.ric(u, v), rhs,
                                  hyps, tol, terms=terms,
                                  label=f"U{i+1} V{j+1}"))
    elif identity_id == "R3.12":
        hyps = [ctx.hyp_conformal()]
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                rhs, terms = _ric_mixed_rhs(ctx, u, x)
                out.append(record("R3.12", ctx.p.coords, ctx.ric(u, x), rhs,
                                  hyps, tol, terms=terms,
                                  label=f"U{i+1} X{a+1}"))
    else:
        hyps = [ctx.hyp_conformal()]
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                rhs, terms = _ric_horizontal_rhs(ctx, x, y)
                out.append(record("R3.13", ctx.p.coords, ctx.ric(x, y), rhs,
                                  hyps, tol, terms=terms,
                                  label=f"X{a+1} Y{b+1}"))
    return out


def _corollary(identity_id, ctx, tol):
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
                out.append(record("C3.1", ctx.p.coords, ctx.ric(u, v), rhs,
                                  hyps, tol, label=f"(U{i+1},V{j+1})"))
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                rhs = (n * ctx.inner(ctx.grad_hprime(x), u)
                       - sum(ctx.inner(x, xj)
                             * ctx.inner(ctx.grad_hprime(xj), u)
                             for xj in ctx.hframe))
                out.append(record("C3.1", ctx.p.coords, ctx.ric(u, x), rhs,
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
                out.append(record("C3.1", ctx.p.coords, ctx.ric(x, y), rhs,
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
                out.append(record("C3.2", ctx.p.coords, ctx.ric(x, y), rhs,
                                  hyps, tol, label=f"(X{a+1},Y{b+1})"))
    else:
        hyps = [ctx.hyp_conformal(), ctx.hyp_map_tg(), ctx.hyp_fiber_chart()]
        for i, u in enumerate(ctx.vframe):
            for j in range(i, len(ctx.vframe)):
                v = ctx.vframe[j]
                out.append(record(
                    "C3.3", ctx.p.coords, ctx.ric(u, v),
                    ctx.fiber_ricci_intrinsic(u, v), hyps, tol,
                    label=f"(U{i+1},V{j+1})"))
        for i, u in enumerate(ctx.vframe):
            for a, x in enumerate(ctx.hframe):
                out.append(record("C3.3", ctx.p.coords, ctx.ric(u, x), 0.0,
                                  hyps, tol, label=f"(U{i+1},X{a+1})"))
        for a, x in enumerate(ctx.hframe):
            for b in range(a, len(ctx.hframe)):
                y = ctx.hframe[b]
                out.append(record(
                    "C3.3", ctx.p.coords, ctx.ric(x, y),
                    ctx.base_ric(ctx.push(x), ctx.push(y)) / lam_sq,
                    hyps, tol, label=f"(X{a+1},Y{b+1})"))
    return out


def _scalar_split(ctx, tol):
    hyps = [ctx.hyp_conformal(), ctx.hyp_map_tg(), ctx.hyp_fiber_chart()]
    s_fiber = ctx.fiber_scalar_intrinsic
    s_base = ctx.base_scalar_curvature
    rhs = s_fiber + s_base / ctx.lam_sq
    return [record("T3.4", ctx.p.coords, ctx.scalar_curvature, rhs, hyps,
                   tol, terms={"s_fiber": s_fiber,
                               "s_base/lam^2": s_base / ctx.lam_sq})]


def _lemma_2_1(ctx, tol):
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
    lhs_n, rhs_n, res = (pair_norms(ctx.h_base, w)
                         for w in (lhs, rhs, lhs - rhs))
    return [record("L2.1", ctx.p.coords, lhs_n[a, b], rhs_n[a, b], hyps,
                   tol, residual=res[a, b],
                   scale=1.0 + max(lhs_n[a, b], rhs_n[a, b]))
            for a in range(ctx.n) for b in range(ctx.n)]


def _hessian_symmetry(ctx, tol):
    worst = float(np.max(np.abs(ctx.hess_f - ctx.hess_f.T)))
    return [record("L2.2", ctx.p.coords, worst, 0.0, [], max(tol, 1e-9),
                   scale=1.0)]


_CHECKS = {"G2.12": _g212, "G2.13": _g213, "G2.14": _g214, "G2.15": _g215,
           "G2.16": _g216, "T3.4": _scalar_split, "L2.1": _lemma_2_1,
           "L2.2": _hessian_symmetry}


def reference_check(check_id, ctx, tol=1e-6, i=0):
    """The records of ``check_id`` at point ``i`` of the context, by
    loops."""
    loops = Loops(ctx, i)
    if check_id in _CHECKS:
        return _CHECKS[check_id](loops, tol)
    if check_id in ("P3.1", "E3.3"):
        return _a_formula(check_id, loops, tol)
    if check_id.startswith("L3.1."):
        return _lemma_3_1(check_id.split(".")[-1], loops, tol)
    if check_id.startswith("R3."):
        return _ricci(check_id, loops, tol)
    return _corollary(check_id, loops, tol)

"""Structure attached to a map F: (M, g) -> (N, h): projectors,
dilation, horizontal lifts, the fundamental tensors T and A with their
covariant derivatives, mean curvatures, second fundamental form, tension
field and structural-property detection.

The generic layer again maps coordinate scalars (floats or jets) to
scalars so every derived field can be pushed back through the jet
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .expr import eval_expr, parse_expression
from .geometry import (Point, TangentVector, cov_deriv_along_at, field_fn,
                       gradient_at, jacobian_at, orthonormalize_components)
from .jets import primal, primal_array
from .linalg import (SingularMatrixError, mat_inverse, mat_mul, mat_vec,
                     null_space_basis, transpose)


class NotASubmersionError(ValueError):
    pass


@dataclass(frozen=True)
class DilationResult:
    lambda_sq: float
    anisotropy: float

    @property
    def dilation(self):
        return math.sqrt(self.lambda_sq)


@dataclass(frozen=True)
class FloatCore:
    """Float values of a submersion at one point, all from one
    ``_core_matrices_at`` build (see ``SubmersionSetup.float_core``)."""

    g: np.ndarray          # total metric
    jac: np.ndarray        # Jacobian of F
    vframe: list           # orthonormal vertical frame, m - n vectors
    hframe: list           # orthonormal horizontal frame, n vectors
    pv: np.ndarray         # vertical projector
    ph: np.ndarray         # horizontal projector
    lam_sq: float          # squared dilation
    base_point: Point      # F(p)
    h_base: np.ndarray     # base metric at F(p)


@dataclass(frozen=True)
class OneillBundle:
    """Float O'Neill values of a submersion at one point (see
    ``oneill_bundle``); arrays are over the coordinate basis."""

    core: FloatCore
    gamma: np.ndarray      # total Christoffel symbols, gamma[k, i, j]
    t: np.ndarray          # t[k, a, b]: component k of T_{e_a} e_b
    a: np.ndarray          # likewise A
    h: np.ndarray          # fiber mean curvature H


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    max_violation: float


@dataclass(frozen=True)
class StructureFlags:
    fibers_totally_geodesic: PropertyCheck
    fibers_totally_umbilical: PropertyCheck
    horizontal_integrable: PropertyCheck
    horizontal_totally_geodesic: PropertyCheck
    homothetic: PropertyCheck
    lambda_vertical_constant: PropertyCheck
    map_totally_geodesic: PropertyCheck

    def as_dict(self):
        return {name: getattr(self, name) for name in (
            "fibers_totally_geodesic", "fibers_totally_umbilical",
            "horizontal_integrable", "horizontal_totally_geodesic",
            "homothetic", "lambda_vertical_constant", "map_totally_geodesic")}


class SubmersionSetup:
    def __init__(self, total, base, map_components, declared_dilation=None):
        if base.dim >= total.dim:
            raise ValueError("base dimension must be smaller than total")
        if len(map_components) != base.dim:
            raise ValueError("one map component per base coordinate required")
        self.total = total
        self.base = base
        self.map_components = list(map_components)
        self.declared_dilation = declared_dilation  # optional expression

    @classmethod
    def from_strings(cls, total, base, map_texts, declared_dilation=None):
        coords = set(total.coord_names)
        comps = [parse_expression(t, coords) for t in map_texts]
        lam = parse_expression(declared_dilation, coords) if declared_dilation else None
        return cls(total, base, comps, lam)

    @property
    def m(self):
        return self.total.dim

    @property
    def n(self):
        return self.base.dim

    # -- generic layer -------------------------------------------------

    def map_point_at(self, xs):
        env = self.total.env(xs)
        return [eval_expr(c, env) for c in self.map_components]

    def map_point(self, p):
        return Point(tuple(primal(c) for c in self.map_point_at(p.coords)))

    def jacobian_at(self, xs):
        return jacobian_at(self.map_components, self.total.coord_names, xs)

    def jacobian(self, p):
        jac = self.jacobian_at(p.coords)
        return np.array([[primal(v) for v in row] for row in jac])

    def _core_matrices_at(self, xs):
        """(g, ginv, J, K, lift_matrix) with K = J ginv J^T."""
        g = self.total.metric_at(xs)
        ginv = mat_inverse(g)
        jac = self.jacobian_at(xs)
        jt = transpose(jac)
        k = mat_mul(jac, mat_mul(ginv, jt))
        try:
            k_inv = mat_inverse(k)
        except SingularMatrixError:
            raise NotASubmersionError(
                f"map is rank deficient at {tuple(primal(x) for x in xs)}") from None
        lift = mat_mul(ginv, mat_mul(jt, k_inv))  # m x n
        return g, ginv, jac, k, lift

    def _projectors(self, jac, lift):
        ph = mat_mul(lift, jac)
        m = self.m
        pv = [[(1.0 if i == j else 0.0) - ph[i][j] for j in range(m)]
              for i in range(m)]
        return pv, ph

    def projectors_at(self, xs):
        """(vertical, horizontal) projector matrices."""
        _, _, jac, _, lift = self._core_matrices_at(xs)
        return self._projectors(jac, lift)

    def _conformality_ratio(self, h, k):
        n = self.n
        return sum(h[a][b] * k[a][b] for a in range(n) for b in range(n)) / n

    def lambda_sq_at(self, xs):
        """Squared dilation as the frame-averaged conformality ratio."""
        _, _, _, k, _ = self._core_matrices_at(xs)
        return self._conformality_ratio(
            self.base.metric_at(self.map_point_at(xs)), k)

    def inv_lambda_sq_fn(self):
        return lambda xs: 1.0 / self.lambda_sq_at(xs)

    def horizontal_lift_at(self, xs, base_comps):
        _, _, _, _, lift = self._core_matrices_at(xs)
        return mat_vec(lift, base_comps)

    def basic_field_fn(self, base_spec):
        """Horizontal lift of a base vector field, as a total-chart
        component function."""
        def fn(xs):
            ys = self.map_point_at(xs)
            comps = [eval_expr(c, self.base.env(ys)) for c in base_spec.components]
            return self.horizontal_lift_at(xs, comps)
        return fn

    def vertical_project_fn(self, fn):
        def proj(xs):
            pv, _ = self.projectors_at(xs)
            return mat_vec(pv, fn(xs))
        return proj

    def horizontal_project_fn(self, fn):
        def proj(xs):
            _, ph = self.projectors_at(xs)
            return mat_vec(ph, fn(xs))
        return proj

    # -- numeric values at a point ---------------------------------------

    def float_core(self, p):
        """The frames, projectors and dilation at p as floats, from one
        ``_core_matrices_at`` build; P_v, P_h and lambda^2 take the
        arithmetic of ``projectors_at`` and ``lambda_sq_at``.  Raises
        where p is outside either chart's domain, either metric is not
        positive definite there, or the map is rank deficient."""
        g = geo.metric_matrix(self.total, p)
        _, _, jac, k, lift = self._core_matrices_at(list(p.coords))
        jac_f = np.array([[primal(v) for v in row] for row in jac])
        basis = null_space_basis(jac_f.tolist())
        if len(basis) != self.m - self.n:
            raise NotASubmersionError(f"map is rank deficient at {p.coords}")
        cols = [[primal(lift[i][a]) for i in range(self.m)] for a in range(self.n)]
        pv, ph = self._projectors(jac, lift)
        base_point = self.map_point(p)
        h_base = geo.metric_matrix(self.base, base_point)
        return FloatCore(
            g=g, jac=jac_f, vframe=orthonormalize_components(g, basis),
            hframe=orthonormalize_components(g, cols),
            pv=primal_array(pv), ph=primal_array(ph),
            lam_sq=primal(self._conformality_ratio(h_base.tolist(), k)),
            base_point=base_point, h_base=h_base)

    def vertical_frame(self, p):
        """Orthonormal vertical frame at p."""
        return self.float_core(p).vframe

    def horizontal_frame(self, p):
        """Orthonormal horizontal frame at p."""
        return self.float_core(p).hframe


# ---------------------------------------------------------------------
# fundamental tensors
# ---------------------------------------------------------------------

def oneill_T_at(setup, xs, e_fn, ep_fn):
    """T_E E' = H nabla_{vE} vE' + v nabla_{vE} H E'."""
    chart = setup.total
    pv, ph = setup.projectors_at(xs)
    gamma = geo.christoffels_at(chart, xs)
    ve = mat_vec(pv, e_fn(xs))
    d1 = cov_deriv_along_at(chart, xs, ve, setup.vertical_project_fn(ep_fn), gamma)
    d2 = cov_deriv_along_at(chart, xs, ve, setup.horizontal_project_fn(ep_fn), gamma)
    return [a + b for a, b in zip(mat_vec(ph, d1), mat_vec(pv, d2))]


def oneill_A_at(setup, xs, e_fn, ep_fn):
    """A_E E' = H nabla_{HE} vE' + v nabla_{HE} H E'."""
    chart = setup.total
    pv, ph = setup.projectors_at(xs)
    gamma = geo.christoffels_at(chart, xs)
    he = mat_vec(ph, e_fn(xs))
    d1 = cov_deriv_along_at(chart, xs, he, setup.vertical_project_fn(ep_fn), gamma)
    d2 = cov_deriv_along_at(chart, xs, he, setup.horizontal_project_fn(ep_fn), gamma)
    return [a + b for a, b in zip(mat_vec(ph, d1), mat_vec(pv, d2))]


def _const_fn(comps):
    vals = list(comps)
    return lambda xs: vals


def oneill_contraction(pv, dpv, gamma):
    """(T, A, N, M) over the coordinate basis from P_v[i, b], its partials
    dpv[l, i, b] = d_l (P_v)^i_b and Gamma[k, i, j], as arrays of floats
    or of jets.  T[k, a, b] is component k of T_{e_a} e_b, likewise A;
    both are tensors, so the constant extensions of e_a, e_b serve:
    with N^k_ib = (nabla_i (P_v e_b))^k and M = P_h N + P_v (Gamma - N),
    T^k_ab = (P_v)^i_a M^k_ib and A^k_ab = (P_h)^i_a M^k_ib.  N and M
    are returned for callers that differentiate T and A."""
    ph = np.eye(len(pv), dtype=pv.dtype) - pv
    nv = dpv.transpose(1, 0, 2) + np.einsum("kij,jb->kib", gamma, pv)
    mix = (np.einsum("kl,lib->kib", ph, nv)
           + np.einsum("kl,lib->kib", pv, gamma - nv))
    return (np.einsum("ia,kib->kab", pv, mix),
            np.einsum("ia,kib->kab", ph, mix), nv, mix)


def oneill_tensors_at(setup, xs, gamma=None):
    """(T, A) over the coordinate basis as object arrays, from one
    order-1 seeding of P_v and one Christoffel evaluation through
    ``oneill_contraction``.  ``gamma`` is ``christoffels_at`` of the total
    chart at the same xs when the caller holds it."""
    pv, dpv = geo.coordinate_partials(lambda zs: setup.projectors_at(zs)[0],
                                      xs)
    if gamma is None:
        gamma = geo.christoffels_at(setup.total, xs)
    t, a, _, _ = oneill_contraction(np.array(pv, dtype=object),
                                    np.array(dpv, dtype=object),
                                    np.array(gamma, dtype=object))
    return t, a


def cov_deriv_T_at(setup, xs, e_comps, u_fn, ep_fn):
    """(nabla_E T)_U E' = nabla_E (T_U E') - T_{v nabla_E U} E'
    - T_U (nabla_E E'), with the T field differentiated exactly."""
    chart = setup.total
    gamma = geo.christoffels_at(chart, xs)
    t_field = lambda zs: oneill_T_at(setup, zs, u_fn, ep_fn)
    term1 = cov_deriv_along_at(chart, xs, e_comps, t_field, gamma)
    pv, _ = setup.projectors_at(xs)
    de_u = mat_vec(pv, cov_deriv_along_at(chart, xs, e_comps, u_fn, gamma))
    term2 = oneill_T_at(setup, xs, _const_fn(de_u), ep_fn)
    de_ep = cov_deriv_along_at(chart, xs, e_comps, ep_fn, gamma)
    term3 = oneill_T_at(setup, xs, u_fn, _const_fn(de_ep))
    return [a - b - c for a, b, c in zip(term1, term2, term3)]


def cov_deriv_A_at(setup, xs, e_comps, x_fn, ep_fn):
    """(nabla_E A)_X E' with the horizontal slot projector-corrected."""
    chart = setup.total
    gamma = geo.christoffels_at(chart, xs)
    a_field = lambda zs: oneill_A_at(setup, zs, x_fn, ep_fn)
    term1 = cov_deriv_along_at(chart, xs, e_comps, a_field, gamma)
    _, ph = setup.projectors_at(xs)
    de_x = mat_vec(ph, cov_deriv_along_at(chart, xs, e_comps, x_fn, gamma))
    term2 = oneill_A_at(setup, xs, _const_fn(de_x), ep_fn)
    de_ep = cov_deriv_along_at(chart, xs, e_comps, ep_fn, gamma)
    term3 = oneill_A_at(setup, xs, x_fn, _const_fn(de_ep))
    return [a - b - c for a, b, c in zip(term1, term2, term3)]


def oneill_bundle(setup, p):
    """The float core, total Gamma, T, A and H at p, each built once:
    Gamma from one ``christoffels_at``, T and A from one order-1
    ``oneill_tensors_at`` reading it, H from T and the core's P_v and g."""
    xs = list(p.coords)
    core = setup.float_core(p)
    gamma = geo.christoffels_at(setup.total, xs)
    t, a = (primal_array(x) for x in oneill_tensors_at(setup, xs, gamma))
    w = core.pv @ np.array(mat_inverse(core.g.tolist()))
    return OneillBundle(core=core, gamma=primal_array(gamma), t=t, a=a,
                        h=mean_curvature_from(t, w, setup.m - setup.n))


# ---------------------------------------------------------------------
# mean curvatures
# ---------------------------------------------------------------------

def mean_curvature_from(t, w, fiber_dim):
    """H = trace_v(T) / (m - n) from float T and W = P_v g^{-1}, which is
    sum_i U_i U_i^T over an orthonormal vertical frame."""
    return np.einsum("kab,ab->k", t, w) / fiber_dim


def vertical_trace_T_at(setup, xs):
    """Sum of T(U_i, U_i) over an orthonormal vertical frame: T contracted
    with sum_i U_i U_i^T = P_v g^{-1}."""
    t, _ = oneill_tensors_at(setup, xs)
    pv, _ = setup.projectors_at(xs)
    w = mat_mul(pv, mat_inverse(setup.total.metric_at(xs)))
    return list(np.einsum("kab,ab->k", t, np.array(w, dtype=object)))


def mean_curvature_at(setup, xs):
    """Fiber mean curvature H with the umbilical normalization
    T_U V = g(U, V) H, i.e. H = trace_v(T) / (m - n)."""
    trace = vertical_trace_T_at(setup, xs)
    return [c / (setup.m - setup.n) for c in trace]


# ---------------------------------------------------------------------
# pointwise wrappers
# ---------------------------------------------------------------------

def conformal_anisotropy(jac, h, hframe, lam_sq):
    """sup |h(F_* X_i, F_* X_j) - lam^2 delta_ij| over an orthonormal
    horizontal frame: 0 exactly when F is horizontally conformal."""
    aniso = 0.0
    for i, xi in enumerate(hframe):
        for j, xj in enumerate(hframe):
            push = float((jac @ xi) @ h @ (jac @ xj))
            expect = lam_sq if i == j else 0.0
            aniso = max(aniso, abs(push - expect))
    return aniso


def dilation(setup, p):
    core = setup.float_core(p)
    aniso = conformal_anisotropy(core.jac, core.h_base, core.hframe,
                                 core.lam_sq)
    return DilationResult(lambda_sq=core.lam_sq, anisotropy=aniso)


def horizontal_lift(setup, base_spec, p):
    xs = list(p.coords)
    ys = setup.map_point_at(xs)
    comps = [eval_expr(c, setup.base.env(ys)) for c in base_spec.components]
    lifted = setup.horizontal_lift_at(xs, comps)
    return TangentVector(tuple(primal(c) for c in lifted), p)


def oneill_T(setup, p, e_spec, ep_spec):
    comps = oneill_T_at(setup, list(p.coords),
                        field_fn(setup.total, e_spec),
                        field_fn(setup.total, ep_spec))
    return TangentVector(tuple(primal(c) for c in comps), p)


def oneill_A(setup, p, e_spec, ep_spec):
    comps = oneill_A_at(setup, list(p.coords),
                        field_fn(setup.total, e_spec),
                        field_fn(setup.total, ep_spec))
    return TangentVector(tuple(primal(c) for c in comps), p)


def mean_curvature(setup, p):
    comps = mean_curvature_at(setup, list(p.coords))
    return TangentVector(tuple(primal(c) for c in comps), p)


def tension_field(setup, p):
    """(n-2)(lambda^2/2) F_*(H grad(1/lambda^2)) - (m-n) F_*(H)."""
    xs = list(p.coords)
    lam_sq = primal(setup.lambda_sq_at(xs))
    grad = gradient_at(setup.total, setup.inv_lambda_sq_fn(), xs)
    _, ph = setup.projectors_at(xs)
    hgrad = [primal(c) for c in mat_vec(ph, grad)]
    h_vec = [primal(c) for c in mean_curvature_at(setup, xs)]
    jac = setup.jacobian(p)
    first = (setup.n - 2) * 0.5 * lam_sq * (jac @ np.array(hgrad))
    second = (setup.m - setup.n) * (jac @ np.array(h_vec))
    q = setup.map_point(p)
    return TangentVector(tuple(float(a - b) for a, b in zip(first, second)), q)


# ---------------------------------------------------------------------
# fiber slice chart (intrinsic fiber geometry)
# ---------------------------------------------------------------------

class FiberSliceChart:
    """Intrinsic chart on the fiber through a point, available when the
    vertical distribution is spanned by coordinate axes (the map
    components do not involve the fiber coordinates)."""

    def __init__(self, setup, vertical_indices, anchor):
        self.setup = setup
        self.vertical_indices = list(vertical_indices)
        self.anchor = list(anchor)
        self.dim = len(self.vertical_indices)

    def splice(self, xs_fiber):
        full = [c for c in self.anchor]
        for idx, val in zip(self.vertical_indices, xs_fiber):
            full[idx] = val
        return full

    def metric_at(self, xs_fiber):
        full = self.splice(xs_fiber)
        g = self.setup.total.metric_at(full)
        return [[g[i][j] for j in self.vertical_indices]
                for i in self.vertical_indices]

    def fiber_coords(self, p):
        return [p.coords[i] for i in self.vertical_indices]


def vertical_coordinate_indices(setup, points, tol=1e-12):
    """Indices of coordinates spanning the vertical distribution, or None
    when the kernel is not coordinate-aligned at the sampled points."""
    m, n = setup.m, setup.n
    zero_cols = None
    for p in points:
        jac = setup.jacobian(p)
        scale = max(1.0, float(np.max(np.abs(jac))))
        cols = {i for i in range(m)
                if float(np.max(np.abs(jac[:, i]))) <= tol * scale}
        zero_cols = cols if zero_cols is None else (zero_cols & cols)
    if zero_cols is not None and len(zero_cols) == m - n:
        return sorted(zero_cols)
    return None


def fiber_slice_chart(setup, p, points_hint=None):
    pts = points_hint or [p]
    idx = vertical_coordinate_indices(setup, pts)
    if idx is None:
        return None
    return FiberSliceChart(setup, idx, list(p.coords))


def intrinsic_fiber_scalar_curvature(setup, p):
    """Scalar curvature of the fiber through p computed on the fiber's
    own chart; 0 for one-dimensional fibers."""
    if setup.m - setup.n == 1:
        return 0.0
    chart = fiber_slice_chart(setup, p)
    if chart is None:
        raise NotASubmersionError(
            "fiber chart unavailable: vertical distribution is not "
            "coordinate-aligned")
    return primal(geo.scalar_curvature_at(chart, chart.fiber_coords(p)))


# ---------------------------------------------------------------------
# structural-property detection
# ---------------------------------------------------------------------

def _gnorm(g, v):
    arr = np.array([primal(c) for c in v])
    return math.sqrt(max(0.0, float(arr @ g @ arr)))


def basic_field_derivatives(setup, xs, gamma):
    """(X, D, nabla) for the horizontal lifts X_a of the base coordinate
    fields at xs, as float arrays from one order-1 seeding of the lift
    matrix: X[i, a] = X_a^i, D[k, a, b] = X_a(X_b^k) and
    nabla[k, a, b] = (nabla_{X_a} X_b)^k = D[k, a, b]
    + Gamma^k_ij X_a^i X_b^j, with ``gamma`` the total Christoffel
    symbols at xs.  The bracket [X_a, X_b] is D[:, a, b] - D[:, b, a]."""
    lift, dlift = (primal_array(v) for v in geo.coordinate_partials(
        lambda zs: setup._core_matrices_at(zs)[4], xs))
    d = np.einsum("la,lkb->kab", lift, dlift)
    return lift, d, d + np.einsum("kij,ia,jb->kab", gamma, lift, lift)


def pair_norms(g, vecs):
    """|vecs[:, a, b]| in the metric g for every pair (a, b)."""
    return np.sqrt(np.maximum(0.0, np.einsum("kab,kl,lab->ab", vecs, g,
                                             vecs)))


def _basic_field_violations(setup, p, core, gamma):
    """(integrability, second fundamental form) violations at p over the
    lifts X_a of ``basic_field_derivatives``: sup |v[X_a, X_b]| normalized
    to unit vectors, and sup |Gamma^N_ab - F_*(nabla_{X_a} X_b)|; ``core``
    is ``setup.float_core(p)`` and ``gamma`` the total Gamma at p."""
    lift, d, nabla = basic_field_derivatives(setup, list(p.coords), gamma)
    g = core.g
    base_gamma = primal_array(geo.christoffels_at(
        setup.base, list(core.base_point.coords)))
    norms = np.sqrt(np.maximum(0.0, np.einsum("ia,ij,ja->a", lift, g, lift)))
    vert = np.einsum("ki,iab->kab", core.pv, d - d.transpose(0, 2, 1))
    brackets = pair_norms(g, vert) / np.maximum(np.outer(norms, norms), 1e-30)
    sff = base_gamma - np.einsum("ik,kab->iab", core.jac, nabla)
    return (float(np.max(np.triu(brackets, 1), initial=0.0)),
            float(np.max(pair_norms(core.h_base, sff))))


def structure_flags(setup, points, tol=1e-8, bundles=None):
    """Which structural properties hold at every point, each with its
    largest violation.  ``bundles`` are ``oneill_bundle`` of the points
    when the caller holds them."""
    if bundles is None:
        bundles = [oneill_bundle(setup, p) for p in points]
    sup_t = 0.0
    sup_umb = 0.0
    sup_integrable = 0.0
    sup_a = 0.0
    sup_hgrad = 0.0
    sup_vgrad = 0.0
    sup_sff = 0.0
    for p, bundle in zip(points, bundles):
        xs = list(p.coords)
        core = bundle.core
        g = core.g
        for i, ui in enumerate(core.vframe):
            for uj in core.vframe[i:]:
                t = np.einsum("kab,a,b->k", bundle.t, ui, uj)
                sup_t = max(sup_t, _gnorm(g, t))
                umb = t - float(ui @ g @ uj) * bundle.h
                sup_umb = max(sup_umb, _gnorm(g, umb))
        for xi in core.hframe:
            for xj in core.hframe:
                a = np.einsum("kab,a,b->k", bundle.a, xi, xj)
                sup_a = max(sup_a, _gnorm(g, a))
        integrable, sff = _basic_field_violations(setup, p, core,
                                                  bundle.gamma)
        sup_integrable = max(sup_integrable, integrable)
        sup_sff = max(sup_sff, sff)
        grad_inv = gradient_at(setup.total, setup.inv_lambda_sq_fn(), xs)
        # grad(lambda) = -(lambda^3 / 2) grad(1/lambda^2)
        lam = math.sqrt(core.lam_sq)
        grad_lam = [-0.5 * lam ** 3 * primal(c) for c in grad_inv]
        sup_hgrad = max(sup_hgrad, _gnorm(g, mat_vec(core.ph, grad_lam)))
        sup_vgrad = max(sup_vgrad, _gnorm(g, mat_vec(core.pv, grad_lam)))
    def check(v):
        return PropertyCheck(holds=v <= tol, max_violation=v)
    return StructureFlags(
        fibers_totally_geodesic=check(sup_t),
        fibers_totally_umbilical=check(sup_umb),
        horizontal_integrable=check(sup_integrable),
        horizontal_totally_geodesic=check(sup_a),
        homothetic=check(sup_hgrad),
        lambda_vertical_constant=check(sup_vgrad),
        map_totally_geodesic=check(max(sup_t, sup_a, sup_hgrad, sup_sff)),
    )

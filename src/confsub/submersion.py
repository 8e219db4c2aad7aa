"""Structure attached to a map F: (M, g) -> (N, h): the batched float
core (projectors, frames, dilation), the ``CorePartials`` of its points
with the fundamental tensors T and A, mean curvature, tension field, the
fiber coordinates and structural-property detection.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .expr import eval_expr, parse_expression
from .geometry import jacobian_at
from .jets import EvaluationError
from .linalg import (SingularMatrixError, mat_vec, null_space_bases,
                     taylor_inverse, taylor_mul)


class NotASubmersionError(ValueError):
    pass


# the largest violation with which a structural property, or a hypothesis
# of an identity, still holds
PROPERTY_TOL = 1e-8


class PropertyCheck(NamedTuple):
    holds: bool
    max_violation: float


class SubmersionSetup:
    def __init__(self, total, base, map_components):
        if base.dim >= total.dim:
            raise ValueError("base dimension must be smaller than total")
        if len(map_components) != base.dim:
            raise ValueError("one map component per base coordinate required")
        self.total = total
        self.base = base
        self.map_components = list(map_components)

    @classmethod
    def from_strings(cls, total, base, map_texts):
        coords = set(total.coord_names)
        return cls(total, base, [parse_expression(t, coords)
                                 for t in map_texts])

    @property
    def m(self):
        return self.total.dim

    @property
    def n(self):
        return self.base.dim

    def map_point_at(self, xs):
        env = self.total.env(xs)
        return [eval_expr(c, env) for c in self.map_components]

    def jacobian_at(self, xs):
        return jacobian_at(self.map_components, self.total.coord_names, xs)

    # -- numeric values at a point ---------------------------------------

    def float_cores(self, xs):
        """The frames, projectors and dilation as floats at the points
        ``xs``, (P, m): the tuple (g, g^{-1}, J, frame, P_v, P_h, lambda^2,
        F(p), h at F(p), F_* X_a, anisotropy), each with the point axis
        first.  The total metric, the map with its Jacobian (one seeding)
        and the base metric at F(p) are each evaluated once for all points,
        and the linear algebra runs stacked: K = J g^{-1} J^T, the lift
        g^{-1} J^T K^{-1}, P_h = lift J, P_v = I - P_h, lambda^2 =
        tr(h K^T) / n, the pushed horizontal frame F_* X_a (a row per
        horizontal frame vector) and the conformal anisotropy
        sup |h(F_* X_a, F_* X_b) - lambda^2 delta_ab|.  The frame's m - n
        vertical rows orthonormalize the reduced-row-echelon kernel basis
        of J; its n horizontal rows follow.

        Raises where a point is outside either chart's domain, either
        metric is not positive definite there, the map is rank deficient,
        or g, J, h, K or lambda^2 is not finite, as the first failing
        point alone raises (``geometry.each_point``)."""
        return geo.each_point(lambda: self._float_cores(xs),
                              lambda i: self._float_cores(xs[i:i + 1]),
                              len(xs))

    def _float_cores(self, xs):
        """The tuple of ``float_cores`` at the points ``xs`` at once."""
        count, m, n = len(xs), self.m, self.n
        where = (tuple(xs[0].tolist()) if count == 1
                 else f"one of {count} points")

        def finite(name, a):
            if not np.isfinite(a).all():
                raise EvaluationError(f"non-finite {name} at {where}")
            return a

        g = geo.metric_matrices(self.total, geo.batch_coordinates(xs), count)
        fvals, d = geo.point_partials(self.map_point_at, xs, order=1)
        jac = finite("Jacobian", d.transpose(0, 2, 1))
        ginv = np.linalg.inv(g)
        jt = jac.transpose(0, 2, 1)
        k = finite("K = J g^-1 J^T", jac @ (ginv @ jt))
        try:
            k_inv = np.linalg.inv(k)
            vbasis = null_space_bases(jac, m - n)
        except (np.linalg.LinAlgError, SingularMatrixError):
            raise NotASubmersionError(
                f"map is rank deficient at {where}") from None
        lift = ginv @ (jt @ k_inv)  # m x n at each point
        ph = lift @ jac
        if not np.isfinite(fvals).all():
            raise ValueError("point coordinates must be finite")
        h_base = geo.metric_matrices(
            self.base, geo.batch_coordinates(fvals), count)
        lam_sq = finite("lambda^2", np.einsum("pab,pab->p", h_base, k) / n)
        vframe = geo.orthonormal_frames(g, vbasis)
        hframe = geo.orthonormal_frames(g, lift.transpose(0, 2, 1))
        push = hframe @ jt  # F_* X_a, one row per horizontal frame vector
        gram = push @ h_base @ push.transpose(0, 2, 1)
        aniso = np.abs(gram - lam_sq[:, None, None] * np.eye(n))
        return (g, ginv, jac, np.concatenate((vframe, hframe), axis=1),
                np.eye(m) - ph, ph, lam_sq, fvals, h_base, push,
                aniso.max(axis=(1, 2)))


def _stacked(method):
    """A cached property of ``CorePartials`` over all its points at once,
    under ``geometry.each_point``: where that raises, the first failing
    point raises as it alone does."""
    name = method.__name__

    @functools.wraps(method)
    def stacked(self):
        return geo.each_point(
            lambda: method(self),
            lambda i: getattr(CorePartials(self.setup, self.coords[i:i + 1],
                                           self.base_coords[i:i + 1]), name),
            len(self.coords))
    return functools.cached_property(stacked)


class CorePartials:
    """The submersion's core matrices at a run's points with their first
    and second coordinate partials, as float triples (X, dX, ddX) of
    ``linalg.taylor_mul`` over a leading point axis, each built on first
    read for every point at once under ``geometry.each_point`` (one point
    is a stack of one, with NumPy's warnings off as in any stack).  Three
    shallow ``geometry.point_partials`` seedings at order 2 over all the
    points are the leaves: the total metric g (``metric``, which also gives
    Gamma and dGamma, and whose blocks on the fiber coordinates give the
    fiber's own curvature), the Jacobian J (through the nested
    ``jacobian_at``) and h o F.  The rest is the matrix product rule on
    them: K = J g^{-1} J^T, lift = g^{-1} J^T K^{-1}, P_h = lift J,
    P_v = I - P_h, lambda^2 = tr(h K^T) / n and f = 1 / lambda^2, the
    formulas of ``SubmersionSetup.float_cores``.  A fourth seeding, of the
    base metric at F(p), gives the base curvature."""

    def __init__(self, setup, coords, base_coords):
        self.setup = setup
        self.coords = coords  # (P, m), the points'
        self.base_coords = base_coords  # (P, n), F(p)

    def _leaf(self, fn):
        """(X, dX, ddX) of ``fn`` at the points."""
        return geo.point_partials(fn, self.coords)

    @_stacked
    def metric(self):
        return self._leaf(self.setup.total.metric_at)

    @_stacked
    def christoffels(self):
        """(Gamma, dGamma) of the total metric, dGamma[p, l] = d_l Gamma."""
        return geo.christoffels_from_metric(*self.metric)

    @_stacked
    def jac(self):
        return self._leaf(self.setup.jacobian_at)

    @_stacked
    def ginv(self):
        return taylor_inverse(self.metric)

    @_stacked
    def k(self):
        """K = J g^{-1} J^T."""
        return taylor_mul(self.jac, taylor_mul(self.ginv, _transposed(self.jac)))

    @_stacked
    def lift(self):
        """The lift matrix g^{-1} J^T K^{-1} (m x n): column a is the lift
        of e_a."""
        try:
            k_inv = taylor_inverse(self.k)
        except np.linalg.LinAlgError:  # a stack reruns each point alone
            raise NotASubmersionError(
                f"map is rank deficient at {tuple(self.coords[0].tolist())}"
            ) from None
        return taylor_mul(self.ginv, taylor_mul(_transposed(self.jac), k_inv))

    @_stacked
    def pv(self):
        ph = taylor_mul(self.lift, self.jac)
        return (np.eye(self.setup.m) - ph[0], -ph[1], -ph[2])

    @_stacked
    def vtrace_form(self):
        """(W, dW) with W = P_v g^{-1}, which is sum_i U_i U_i^T over an
        orthonormal vertical frame: the first order of ``taylor_mul``."""
        (pv, dpv, _), (ginv, dginv, _) = self.pv, self.ginv
        return pv @ ginv, dpv @ ginv[:, None] + pv[:, None] @ dginv

    @_stacked
    def lam_sq(self):
        """lambda^2 = tr(h K^T) / n with h the base metric at F."""
        setup = self.setup
        h = self._leaf(lambda zs: setup.base.metric_at(setup.map_point_at(zs)))
        return tuple(np.trace(x, axis1=-2, axis2=-1) / setup.n
                     for x in taylor_mul(h, _transposed(self.k)))

    @_stacked
    def inv_lambda_sq(self):
        """(f, df, ddf) of f = 1 / lambda^2; lambda^2 is raised to powers
        as a scalar per point, whose rounding an array power may not keep."""
        s, ds, dds = self.lam_sq
        powers = np.array([(x ** 2, x ** 3) for x in s.tolist()])
        s2, s3 = powers[:, :1], powers[:, 1:, None]
        return (1.0 / s, -ds / s2,
                2.0 * (ds[:, :, None] * ds[:, None]) / s3 - dds / s2[:, None])

    @_stacked
    def oneill(self):
        """(T, A, N, M) of ``oneill_contraction`` over (P_v, dP_v, Gamma)."""
        pv, dpv, _ = self.pv
        return oneill_contraction(pv, dpv, self.christoffels[0])

    @_stacked
    def base_curvature(self):
        """(Gamma^N, Riem^N, Ric^N) of the base metric at F(p), indexed as
        in ``geometry.riemann_from_christoffels``, from one seeding."""
        gamma, dgamma = geo.christoffels_from_metric(
            *geo.point_partials(self.setup.base.metric_at, self.base_coords))
        riem = geo.riemann_from_christoffels(gamma, dgamma)
        return gamma, riem, np.einsum("...ikij->...jk", riem)


def _transposed(a):
    """The triple of A^T."""
    return tuple(x.swapaxes(-1, -2) for x in a)


def oneill_contraction(pv, dpv, gamma):
    """(T, A, N, M) over the coordinate basis from P_v[i, b], its partials
    dpv[l, i, b] = d_l (P_v)^i_b and Gamma[k, i, j], as arrays of floats
    or of jets, at one point or over a leading point axis.  T[k, a, b] is
    component k of T_{e_a} e_b, likewise A;
    both are tensors, so the constant extensions of e_a, e_b serve:
    with N^k_ib = (nabla_i (P_v e_b))^k and M = P_h N + P_v (Gamma - N),
    T^k_ab = (P_v)^i_a M^k_ib and A^k_ab = (P_h)^i_a M^k_ib.  N and M
    are returned for callers that differentiate T and A."""
    ph = np.eye(pv.shape[-1], dtype=pv.dtype) - pv
    nv = dpv.swapaxes(-3, -2) + np.einsum("...kij,...jb->...kib", gamma, pv)
    mix = (np.einsum("...kl,...lib->...kib", ph, nv)
           + np.einsum("...kl,...lib->...kib", pv, gamma - nv))
    return (np.einsum("...ia,...kib->...kab", pv, mix),
            np.einsum("...ia,...kib->...kab", ph, mix), nv, mix)


def mean_curvature_from(t, w, fiber_dim):
    """H = trace_v(T) / (m - n) from float T and W = P_v g^{-1}, which is
    sum_i U_i U_i^T over an orthonormal vertical frame, at one point or
    over a leading point axis."""
    return np.einsum("...kab,...ab->...k", t, w) / fiber_dim


def tension_field(setup, h_vec, hgrad_f, jac, lam_sq):
    """(n-2)(lambda^2/2) F_*(H grad_h f) - (m-n) F_*(H) in base
    coordinates at every point of a stack, (P, n), from the points' mean
    curvatures ``h_vec``, the horizontal gradients ``hgrad_f`` of
    f = 1 / lambda^2, the Jacobians ``jac`` and ``lam_sq``."""
    first = ((setup.n - 2) * 0.5 * lam_sq)[:, None] * mat_vec(jac, hgrad_f)
    second = (setup.m - setup.n) * mat_vec(jac, h_vec)
    return first - second


# ---------------------------------------------------------------------
# fiber coordinates (intrinsic fiber geometry)
# ---------------------------------------------------------------------

def fiber_coordinates(jac, fiber_dim, tol=1e-12):
    """Each point's fiber coordinates, from the (P, n, m) Jacobians ``jac``
    of F (the float core's): the coordinates whose columns vanish, which
    chart the fiber through the point as a slice of the total chart, or
    None at a point whose kernel is not spanned by ``fiber_dim`` of them."""
    columns = np.abs(jac).max(axis=1)
    vanish = columns <= tol * np.maximum(1.0, columns.max(axis=1))[:, None]
    return [np.flatnonzero(v).tolist() if v.sum() == fiber_dim else None
            for v in vanish]


# ---------------------------------------------------------------------
# structural-property detection
# ---------------------------------------------------------------------

def basic_field_derivatives(lift, dlift, gamma):
    """(X, D, nabla) for the horizontal lifts X_a of the base coordinate
    fields, as float arrays over a leading point axis from the lift matrix
    with its partials (``CorePartials.lift``): X[p, i, a] = X_a^i,
    D[p, k, a, b] = X_a(X_b^k) and nabla[p, k, a, b] =
    (nabla_{X_a} X_b)^k = D[p, k, a, b] + Gamma^k_ij X_a^i X_b^j, with
    ``gamma`` the total Christoffel symbols.  The bracket [X_a, X_b] is
    D[:, :, a, b] - D[:, :, b, a]."""
    d = np.einsum("...la,...lkb->...kab", lift, dlift)
    return lift, d, d + np.einsum("...kij,...ia,...jb->...kab", gamma, lift,
                                  lift)


def pair_norms(g, vecs):
    """|vecs[..., :, a, b]| in the metric g for every pair (a, b), at one
    point or over a leading point axis."""
    return np.sqrt(np.maximum(0.0, np.einsum("...kab,...kl,...lab->...ab",
                                             vecs, g, vecs)))


_FLAG_VIOLATIONS = {
    "fibers_totally_geodesic": lambda ctx: ctx.hyp_fibers_tg.violation,
    "fibers_totally_umbilical": lambda ctx: ctx.hyp_umbilical.violation,
    "horizontal_integrable":
        lambda ctx: ctx.hyp_horizontal_integrable.violation,
    "horizontal_totally_geodesic":
        lambda ctx: ctx.hyp_horizontal_tg.violation,
    "homothetic": lambda ctx: ctx.hyp_homothetic.violation,
    "lambda_vertical_constant":
        lambda ctx: np.sqrt(np.maximum(0.0, ctx.vgrad_f_sq)),
    "map_totally_geodesic": lambda ctx: ctx.hyp_map_tg.violation}


def structure_flags(ctx, names=tuple(_FLAG_VIOLATIONS)):
    """Which structural properties hold at every point of ``ctx`` (an
    ``identities.IdentityContext``), each a ``PropertyCheck`` with its
    largest violation over the points, by name, for each of ``names``
    (by default all seven, in a fixed order) and computing no other: the
    supremum of the context's hypothesis of the same name, and for
    ``lambda_vertical_constant`` that of |grad_v f|, f = 1 / lambda^2.  A
    NaN violation at any point makes the supremum NaN, which fails."""
    flags = {}
    for name in names:
        # NaN where any point is
        sup = float(np.max(_FLAG_VIOLATIONS[name](ctx), initial=0.0))
        flags[name] = PropertyCheck(holds=sup <= PROPERTY_TOL,
                                    max_violation=sup)
    return flags

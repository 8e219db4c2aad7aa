"""Per-field jet reference for the submersion calculus.

The submersion's core matrices, projectors, dilation and horizontal
lifts, the O'Neill tensors T and A field by field, their covariant
derivatives and the mean curvature, written over the jet pipeline: each
function maps coordinate scalars (floats or jets) to scalars, so a
derived field can be differentiated again by
``geometry.coordinate_partials``.  ``IdentityContext`` builds the same
quantities as float arrays from ``CorePartials`` by the matrix product
rule; the tests compare the two.  The module also holds the small helpers
the tests share: the metric, its inverse and partials, the Christoffel
symbols with their partials, the curvature tensor, Ricci matrix and
scalar curvature at a point, vector-field partials, and the fiber's
slice chart, each seeded at one point on its own, as the independent
reference for the run's seedings over all its points.
"""

import numpy as np

from confsub import geometry as geo
from confsub.expr import eval_expr
from confsub.jets import primal
from confsub.linalg import SingularMatrixError, mat_inverse, transpose
from confsub.submersion import (NotASubmersionError, fiber_coordinates,
                                oneill_contraction)


def mat_vec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def primal_array(values):
    """Float array of the primals of a (nested) sequence of scalars."""
    arr = np.asarray(values, dtype=object)
    return np.array([primal(x) for x in arr.flat]).reshape(arr.shape)


# ---------------------------------------------------------------------
# float values at a point
# ---------------------------------------------------------------------

def metric_matrix(chart, p):
    """The metric at p as a float matrix; raises outside the chart's
    domain and where it is not positive definite."""
    return geo.metric_matrices(chart, geo.batch_coordinates([p.coords]), 1)[0]


def christoffel_symbols(chart, p):
    metric_matrix(chart, p)
    return primal_array(christoffels_at(chart, p.coords))


# ---------------------------------------------------------------------
# metric, connection and curvature at a point
# ---------------------------------------------------------------------

def inverse_metric_at(chart, xs):
    return mat_inverse(chart.metric_at(xs))


def metric_partials_at(chart, xs):
    """(g, dg) with dg[l][i][j] the l-th coordinate partial of g_ij."""
    return geo.coordinate_partials(chart.metric_at, xs)


def christoffels_at(chart, xs):
    """Gamma[k][i][j] of the Levi-Civita connection, as scalars (floats
    or jets) from the jet pipeline."""
    g, dg = metric_partials_at(chart, xs)
    ginv = mat_inverse(g)
    m = chart.dim
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(i, m):
                val = sum(ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                          for l in range(m)) * 0.5
                gamma[k][i][j] = val
                gamma[k][j][i] = val
    return gamma


def christoffel_partials_at(chart, xs):
    """(Gamma, dGamma) as float arrays at float coordinates, with
    dGamma[l, k, i, j] = d_l Gamma^k_ij, from one order-2 seeding of the
    metric at this point alone."""
    return geo.christoffels_from_metric(*(np.array(a, dtype=float) for a in
                                          geo.coordinate_partials(
                                              chart.metric_at, xs, order=2)))


def curvature_tensor_at(chart, xs):
    """Riem[l, k, i, j]: component l of R(e_i, e_j) e_k, at float
    coordinates."""
    return geo.riemann_from_christoffels(*christoffel_partials_at(chart, xs))


def ricci_matrix_at(chart, xs):
    """Ric[j, k] = Ric(e_j, e_k) at float coordinates."""
    return np.einsum("ikij->jk", curvature_tensor_at(chart, xs))


def scalar_curvature_at(chart, xs):
    ric = ricci_matrix_at(chart, xs)
    ginv = inverse_metric_at(chart, xs)
    m = chart.dim
    return sum(ginv[j][k] * ric[j][k] for j in range(m) for k in range(m))


def scalar_curvature(chart, p):
    return primal(scalar_curvature_at(chart, p.coords))


def raise_index(ginv, df):
    """The vector g^{-1} df of a covector's components."""
    m = len(df)
    return [sum(ginv[k][j] * df[j] for j in range(m)) for k in range(m)]


# ---------------------------------------------------------------------
# field calculus on one chart
# ---------------------------------------------------------------------

def vector_partials(fn, xs):
    """(v, dv) of a component function at float coordinates as float
    arrays, dv[i, k] = d_i v^k, from one seeding at this point alone."""
    return tuple(np.array(a, dtype=float)
                 for a in geo.coordinate_partials(fn, xs))


def lie_bracket_at(x_fn, y_fn, xs):
    xv, dx = geo.coordinate_partials(x_fn, xs)
    yv, dy = geo.coordinate_partials(y_fn, xs)
    m = len(xs)
    return [sum(xv[i] * dy[i][k] - yv[i] * dx[i][k] for i in range(m))
            for k in range(m)]


def gradient_at(chart, f_fn, xs):
    _, df = geo.coordinate_partials(f_fn, xs)
    return raise_index(inverse_metric_at(chart, xs), df)


def cov_deriv_along_at(chart, xs, x_comps, w_fn, gamma=None):
    """(nabla_X W)^k with X given pointwise and W a component function."""
    if gamma is None:
        gamma = christoffels_at(chart, xs)
    wv, dw = geo.coordinate_partials(w_fn, xs)
    m = chart.dim
    return [sum(x_comps[i] * dw[i][k] for i in range(m))
            + sum(gamma[k][i][j] * x_comps[i] * wv[j]
                  for i in range(m) for j in range(m))
            for k in range(m)]


# ---------------------------------------------------------------------
# submersion core: projectors, dilation, lifts
# ---------------------------------------------------------------------

def core_matrices_at(setup, xs):
    """(g, ginv, J, K, lift_matrix) with K = J ginv J^T."""
    g = setup.total.metric_at(xs)
    ginv = mat_inverse(g)
    jac = setup.jacobian_at(xs)
    jt = transpose(jac)
    k = mat_mul(jac, mat_mul(ginv, jt))
    try:
        k_inv = mat_inverse(k)
    except SingularMatrixError:
        raise NotASubmersionError(
            f"map is rank deficient at {tuple(primal(x) for x in xs)}") from None
    lift = mat_mul(ginv, mat_mul(jt, k_inv))  # m x n
    return g, ginv, jac, k, lift


def projectors_at(setup, xs):
    """(vertical, horizontal) projector matrices."""
    _, _, jac, _, lift = core_matrices_at(setup, xs)
    ph = mat_mul(lift, jac)
    m = setup.m
    pv = [[(1.0 if i == j else 0.0) - ph[i][j] for j in range(m)]
          for i in range(m)]
    return pv, ph


def lambda_sq_at(setup, xs):
    """Squared dilation as the frame-averaged conformality ratio."""
    _, _, _, k, _ = core_matrices_at(setup, xs)
    h = setup.base.metric_at(setup.map_point_at(xs))
    n = setup.n
    return sum(h[a][b] * k[a][b] for a in range(n) for b in range(n)) / n


def horizontal_lift_at(setup, xs, base_comps):
    _, _, _, _, lift = core_matrices_at(setup, xs)
    return mat_vec(lift, base_comps)


def basic_field_fn(setup, base_spec):
    """Horizontal lift of a base vector field, as a total-chart
    component function."""
    def fn(xs):
        ys = setup.map_point_at(xs)
        comps = [eval_expr(c, setup.base.env(ys))
                 for c in base_spec.components]
        return horizontal_lift_at(setup, xs, comps)
    return fn


def vertical_project_fn(setup, fn):
    def proj(xs):
        pv, _ = projectors_at(setup, xs)
        return mat_vec(pv, fn(xs))
    return proj


def horizontal_project_fn(setup, fn):
    def proj(xs):
        _, ph = projectors_at(setup, xs)
        return mat_vec(ph, fn(xs))
    return proj


# ---------------------------------------------------------------------
# fundamental tensors and mean curvature
# ---------------------------------------------------------------------

def oneill_T_at(setup, xs, e_fn, ep_fn):
    """T_E E' = H nabla_{vE} vE' + v nabla_{vE} H E'."""
    chart = setup.total
    pv, ph = projectors_at(setup, xs)
    gamma = christoffels_at(chart, xs)
    ve = mat_vec(pv, e_fn(xs))
    d1 = cov_deriv_along_at(chart, xs, ve, vertical_project_fn(setup, ep_fn),
                            gamma)
    d2 = cov_deriv_along_at(chart, xs, ve,
                            horizontal_project_fn(setup, ep_fn), gamma)
    return [a + b for a, b in zip(mat_vec(ph, d1), mat_vec(pv, d2))]


def oneill_A_at(setup, xs, e_fn, ep_fn):
    """A_E E' = H nabla_{HE} vE' + v nabla_{HE} H E'."""
    chart = setup.total
    pv, ph = projectors_at(setup, xs)
    gamma = christoffels_at(chart, xs)
    he = mat_vec(ph, e_fn(xs))
    d1 = cov_deriv_along_at(chart, xs, he, vertical_project_fn(setup, ep_fn),
                            gamma)
    d2 = cov_deriv_along_at(chart, xs, he,
                            horizontal_project_fn(setup, ep_fn), gamma)
    return [a + b for a, b in zip(mat_vec(ph, d1), mat_vec(pv, d2))]


def const_fn(comps):
    vals = list(comps)
    return lambda xs: vals


def oneill_tensors_at(setup, xs):
    """(T, A) over the coordinate basis as object arrays, from one
    order-1 seeding of P_v and one Christoffel evaluation through
    ``oneill_contraction``."""
    pv, dpv = geo.coordinate_partials(lambda zs: projectors_at(setup, zs)[0],
                                      xs)
    gamma = christoffels_at(setup.total, xs)
    t, a, _, _ = oneill_contraction(np.array(pv, dtype=object),
                                    np.array(dpv, dtype=object),
                                    np.array(gamma, dtype=object))
    return t, a


def cov_deriv_T_at(setup, xs, e_comps, u_fn, ep_fn):
    """(nabla_E T)_U E' = nabla_E (T_U E') - T_{v nabla_E U} E'
    - T_U (nabla_E E'), with the T field differentiated exactly."""
    chart = setup.total
    gamma = christoffels_at(chart, xs)
    t_field = lambda zs: oneill_T_at(setup, zs, u_fn, ep_fn)
    term1 = cov_deriv_along_at(chart, xs, e_comps, t_field, gamma)
    pv, _ = projectors_at(setup, xs)
    de_u = mat_vec(pv, cov_deriv_along_at(chart, xs, e_comps, u_fn, gamma))
    term2 = oneill_T_at(setup, xs, const_fn(de_u), ep_fn)
    de_ep = cov_deriv_along_at(chart, xs, e_comps, ep_fn, gamma)
    term3 = oneill_T_at(setup, xs, u_fn, const_fn(de_ep))
    return [a - b - c for a, b, c in zip(term1, term2, term3)]


def cov_deriv_A_at(setup, xs, e_comps, x_fn, ep_fn):
    """(nabla_E A)_X E' with the horizontal slot projector-corrected."""
    chart = setup.total
    gamma = christoffels_at(chart, xs)
    a_field = lambda zs: oneill_A_at(setup, zs, x_fn, ep_fn)
    term1 = cov_deriv_along_at(chart, xs, e_comps, a_field, gamma)
    _, ph = projectors_at(setup, xs)
    de_x = mat_vec(ph, cov_deriv_along_at(chart, xs, e_comps, x_fn, gamma))
    term2 = oneill_A_at(setup, xs, const_fn(de_x), ep_fn)
    de_ep = cov_deriv_along_at(chart, xs, e_comps, ep_fn, gamma)
    term3 = oneill_A_at(setup, xs, x_fn, const_fn(de_ep))
    return [a - b - c for a, b, c in zip(term1, term2, term3)]


def vertical_trace_T_at(setup, xs):
    """Sum of T(U_i, U_i) over an orthonormal vertical frame: T contracted
    with sum_i U_i U_i^T = P_v g^{-1}."""
    t, _ = oneill_tensors_at(setup, xs)
    pv, _ = projectors_at(setup, xs)
    w = mat_mul(pv, mat_inverse(setup.total.metric_at(xs)))
    return list(np.einsum("kab,ab->k", t, np.array(w, dtype=object)))


def jacobian(setup, p):
    """The float Jacobian of F at p, from its own seeding."""
    return primal_array(setup.jacobian_at(p.coords))


def mean_curvature_at(setup, xs):
    """Fiber mean curvature H with the umbilical normalization
    T_U V = g(U, V) H, i.e. H = trace_v(T) / (m - n)."""
    trace = vertical_trace_T_at(setup, xs)
    return [c / (setup.m - setup.n) for c in trace]


class FiberSliceChart:
    """Intrinsic chart on the fiber through a point, on the fiber
    coordinates there: the total metric evaluated again with the fiber
    coordinates spliced into the point's, restricted to their block."""

    def __init__(self, setup, vertical_indices, anchor):
        self.setup = setup
        self.vertical_indices = list(vertical_indices)
        self.anchor = list(anchor)
        self.dim = len(self.vertical_indices)

    def metric_at(self, xs_fiber):
        full = list(self.anchor)
        for idx, val in zip(self.vertical_indices, xs_fiber):
            full[idx] = val
        g = self.setup.total.metric_at(full)
        return [[g[i][j] for j in self.vertical_indices]
                for i in self.vertical_indices]

    def fiber_coords(self, p):
        return [p.coords[i] for i in self.vertical_indices]


def fiber_slice_chart(setup, p, jac):
    """The slice chart of the fiber through ``p`` from the Jacobian
    ``jac`` of F at p, or None where the fiber has none."""
    idx, = fiber_coordinates(jac[None], setup.m - setup.n)
    return None if idx is None else FiberSliceChart(setup, idx, p.coords)


def intrinsic_fiber_scalar_curvature(setup, p):
    """Scalar curvature of the fiber through p computed on the fiber's
    own chart; 0 for one-dimensional fibers."""
    if setup.m - setup.n == 1:
        return 0.0
    chart = fiber_slice_chart(setup, p, jacobian(setup, p))
    if chart is None:
        raise NotASubmersionError(
            "fiber chart unavailable: vertical distribution is not "
            "coordinate-aligned")
    return primal(scalar_curvature_at(chart, chart.fiber_coords(p)))

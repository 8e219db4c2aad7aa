"""Single-manifold geometry on a coordinate chart: metric, Levi-Civita
connection, curvature, and the first-order calculus operators.

Sign conventions:
    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = trace(Z -> R(Z, X)Y)
so that a space form of curvature K has Ric = (m-1) K g.

Most functions here come in two layers: a generic layer that maps
coordinate scalars (floats or jets) to scalars, so results can be fed
back through the jet pipeline, and thin wrappers with Point /
TangentVector signatures for callers that work pointwise.

Every derivative is taken by one helper, ``coordinate_partials``: it
seeds all coordinate directions at a fresh jet level, evaluates a
function returning a scalar or a nested list of scalars, and unpacks the
values with their first (and, at order 2, second) partials, giving zero
partials to components that do not carry the new level.  Field
partials (Lie brackets, divergences, covariant derivatives, the O'Neill
bundle) call it directly; the Jacobian, the metric and Christoffel
partials, gradients and Hessians are short calls to it.  Because the
helper only adds a level, it also works inside an enclosing seeding:
given jet coordinates it returns jets of the enclosing level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .expr import eval_expr, parse_expression, parse_predicate
from .jets import EvaluationError, Jet, JetSpace, primal
from .linalg import mat_inverse, transpose


class DegenerateMetricError(ValueError):
    pass


class DependentVectorsError(ValueError):
    pass


@dataclass(frozen=True)
class Point:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError("point coordinates must be finite")

    @property
    def dim(self):
        return len(self.coords)


@dataclass(frozen=True)
class TangentVector:
    components: tuple
    base: Point

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(float(c) for c in self.components))
        if len(self.components) != self.base.dim:
            raise ValueError("component count does not match base dimension")
        if not all(math.isfinite(c) for c in self.components):
            raise ValueError("vector components must be finite")


@dataclass(frozen=True)
class VectorFieldSpec:
    """A vector field given componentwise by expressions."""

    components: tuple  # of expression ASTs

    @classmethod
    def parse(cls, texts, coords=None):
        return cls(tuple(parse_expression(t, coords) for t in texts))

    @classmethod
    def constant(cls, values):
        return cls(tuple(expr_mod.Const(float(v)) for v in values))

    @property
    def dim(self):
        return len(self.components)


@dataclass
class Frame:
    """Orthonormal vectors at a common point with their cached Gram
    matrix (identity up to rounding)."""

    vectors: list
    gram: np.ndarray = field(default=None)


class ChartManifold:
    def __init__(self, coord_names, metric, domain=None):
        self.coord_names = list(coord_names)
        self.dim = len(self.coord_names)
        if len(metric) != self.dim or any(len(r) != self.dim for r in metric):
            raise ValueError("metric grid must be dim x dim")
        self.metric = [list(row) for row in metric]
        self.domain = domain

    @classmethod
    def from_strings(cls, coord_names, metric_rows, domain=None):
        coords = set(coord_names)
        metric = [[parse_expression(e, coords) for e in row] for row in metric_rows]
        pred = parse_predicate(domain, coords) if domain else None
        return cls(coord_names, metric, pred)

    def env(self, xs):
        return dict(zip(self.coord_names, xs))

    def metric_at(self, xs):
        env = self.env(xs)
        return [[eval_expr(e, env) for e in row] for row in self.metric]

    def contains(self, point):
        if self.domain is None:
            return True
        return bool(eval_expr(self.domain, self.env(point.coords)))

    def field(self, *component_texts):
        return VectorFieldSpec.parse(component_texts, set(self.coord_names))

    def scalar(self, text):
        return parse_expression(text, set(self.coord_names))

    def basis_vector(self, index, point):
        comps = [0.0] * self.dim
        comps[index] = 1.0
        return TangentVector(tuple(comps), point)


# ---------------------------------------------------------------------
# jet-calculus entry points
# ---------------------------------------------------------------------

def coordinate_partials(fn, xs, order=1):
    """Values and coordinate partials of ``fn`` at ``xs`` from one
    seeding of every coordinate direction.  ``fn`` maps a list of
    coordinate scalars to a scalar or a nested list of scalars; the
    result is (values, d) at order 1 and (values, d, dd) at order 2, as
    nested lists with the differentiating indices first:
    d[i][...] = d_i values[...] and dd[i][j][...] = d_i d_j values[...].
    Components that do not carry the new level (constants, or jets of an
    enclosing seeding) get zero partials."""
    m = len(xs)
    space = JetSpace(m, order)
    out = fn(space.seed(list(xs), [[1.0 if i == j else 0.0 for j in range(m)]
                                   for i in range(m)]))
    shape, flat = [], [out]
    while flat and isinstance(flat[0], (list, tuple, np.ndarray)):
        shape.append(len(flat[0]))
        flat = [c for row in flat for c in row]
    # partials are laid out direction-major: entry idx of the flat output
    # has its d_i at i * k + idx, so each jet's gradient is one strided
    # slice assignment; components not carrying the level keep zeros
    k = len(flat)
    values, d = list(flat), [0.0] * (m * k)
    dd = [0.0] * (m * m * k) if order == 2 else None
    for idx, c in enumerate(flat):
        if isinstance(c, Jet) and c.space is space:
            values[idx] = c.val
            d[idx::k] = c.grad
            if dd is not None:
                dd[idx::k] = [x for row in c.hess for x in row]
    values, d = _nest(values, shape), _nest(d, [m] + shape)
    if dd is None:
        return values, d
    return values, d, _nest(dd, [m, m] + shape)


def _nest(flat, shape):
    """Regroup a flat list into nested lists of the given shape."""
    for n in reversed(shape[1:]):
        flat = [flat[k:k + n] for k in range(0, len(flat), n)]
    return flat if shape else flat[0]


def jacobian_at(map_exprs, coord_names, xs):
    """Rows are map components, columns coordinate partials."""
    def components(zs):
        env = dict(zip(coord_names, zs))
        return [eval_expr(c, env) for c in map_exprs]

    _, d = coordinate_partials(components, xs)
    return transpose(d)


def field_values_at(chart, spec, xs):
    env = chart.env(xs)
    return [eval_expr(c, env) for c in spec.components]


def field_fn(chart, spec):
    return lambda xs: field_values_at(chart, spec, xs)


def scalar_fn(chart, f):
    """Coordinate function of a scalar given as an expression or
    already as a function of the coordinates."""
    return f if callable(f) else (lambda xs: eval_expr(f, chart.env(xs)))


def lie_bracket_at(x_fn, y_fn, xs):
    xv, dx = coordinate_partials(x_fn, xs)
    yv, dy = coordinate_partials(y_fn, xs)
    m = len(xs)
    return [sum(xv[i] * dy[i][k] - yv[i] * dx[i][k] for i in range(m))
            for k in range(m)]


def lie_bracket(chart, x_spec, y_spec, p):
    comps = lie_bracket_at(field_fn(chart, x_spec), field_fn(chart, y_spec),
                           list(p.coords))
    return TangentVector(tuple(primal(c) for c in comps), p)


# ---------------------------------------------------------------------
# metric and connection (generic layer)
# ---------------------------------------------------------------------

def inverse_metric_at(chart, xs):
    return mat_inverse(chart.metric_at(xs))


def metric_partials_at(chart, xs):
    """(g, dg) with dg[l][i][j] the l-th coordinate partial of g_ij."""
    return coordinate_partials(chart.metric_at, xs)


def christoffels_at(chart, xs):
    """Gamma[k][i][j] of the Levi-Civita connection."""
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
    """(Gamma, dGamma) with dGamma[l][k][i][j] = d_l Gamma^k_ij."""
    return coordinate_partials(lambda zs: christoffels_at(chart, zs), xs)


def curvature_tensor_at(chart, xs):
    """Riem[l][k][i][j]: component l of R(e_i, e_j) e_k."""
    return riemann_from_christoffels(*christoffel_partials_at(chart, xs))


def riemann_from_christoffels(gamma, dgamma):
    """Riem from (Gamma, dGamma) as ``christoffel_partials_at`` returns
    them, indexed as in ``curvature_tensor_at``."""
    m = len(gamma)
    riem = [[[[None] * m for _ in range(m)] for _ in range(m)] for _ in range(m)]
    for l in range(m):
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    val = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    val = val + sum(gamma[l][i][t] * gamma[t][j][k]
                                    - gamma[l][j][t] * gamma[t][i][k]
                                    for t in range(m))
                    riem[l][k][i][j] = val
    return riem


def ricci_at(chart, xs, xc, yc, riem=None):
    """Ric(X, Y) = trace(Z -> R(Z, X)Y) at the point."""
    if riem is None:
        riem = curvature_tensor_at(chart, xs)
    m = chart.dim
    acc = 0.0
    for j in range(m):
        for k in range(m):
            coeff = sum(riem[i][k][i][j] for i in range(m))
            acc = acc + coeff * xc[j] * yc[k]
    return acc


def ricci_matrix_at(chart, xs):
    riem = curvature_tensor_at(chart, xs)
    m = chart.dim
    return [[sum(riem[i][k][i][j] for i in range(m)) for k in range(m)]
            for j in range(m)]


def scalar_curvature_at(chart, xs):
    ric = ricci_matrix_at(chart, xs)
    ginv = inverse_metric_at(chart, xs)
    m = chart.dim
    return sum(ginv[j][k] * ric[j][k] for j in range(m) for k in range(m))


def inner_at(g, u, v):
    m = len(g)
    return sum(g[i][j] * u[i] * v[j] for i in range(m) for j in range(m))


def cov_deriv_along_at(chart, xs, x_comps, w_fn, gamma=None):
    """(nabla_X W)^k with X given pointwise and W a component function."""
    if gamma is None:
        gamma = christoffels_at(chart, xs)
    wv, dw = coordinate_partials(w_fn, xs)
    m = chart.dim
    return [sum(x_comps[i] * dw[i][k] for i in range(m))
            + sum(gamma[k][i][j] * x_comps[i] * wv[j]
                  for i in range(m) for j in range(m))
            for k in range(m)]


def raise_index(ginv, df):
    """The vector g^{-1} df of a covector's components."""
    m = len(df)
    return [sum(ginv[k][j] * df[j] for j in range(m)) for k in range(m)]


def covariant_hessian(gamma, df, d2f):
    """Hess f in coordinates: d_i d_j f - Gamma^k_ij d_k f."""
    m = len(df)
    return [[d2f[i][j] - sum(gamma[k][i][j] * df[k] for k in range(m))
             for j in range(m)] for i in range(m)]


def gradient_at(chart, f_fn, xs):
    _, df = coordinate_partials(f_fn, xs)
    return raise_index(inverse_metric_at(chart, xs), df)


def divergence_at(chart, x_fn, xs):
    gamma = christoffels_at(chart, xs)
    xv, dx = coordinate_partials(x_fn, xs)
    m = chart.dim
    return (sum(dx[i][i] for i in range(m))
            + sum(gamma[i][i][k] * xv[k] for i in range(m) for k in range(m)))


def hessian_matrix_at(chart, f_fn, xs):
    _, df, d2f = coordinate_partials(f_fn, xs, order=2)
    return covariant_hessian(christoffels_at(chart, xs), df, d2f)


def laplacian_at(chart, f_fn, xs):
    hess = hessian_matrix_at(chart, f_fn, xs)
    ginv = inverse_metric_at(chart, xs)
    m = chart.dim
    return sum(ginv[i][j] * hess[i][j] for i in range(m) for j in range(m))


def lie_derivative_metric_at(chart, xi_fn, xc, yc, xs):
    """(L_xi g)(X, Y) = g(nabla_X xi, Y) + g(nabla_Y xi, X)."""
    g = chart.metric_at(xs)
    gamma = christoffels_at(chart, xs)
    dx_xi = cov_deriv_along_at(chart, xs, xc, xi_fn, gamma)
    dy_xi = cov_deriv_along_at(chart, xs, yc, xi_fn, gamma)
    return inner_at(g, dx_xi, yc) + inner_at(g, dy_xi, xc)


# ---------------------------------------------------------------------
# pointwise wrappers
# ---------------------------------------------------------------------

def metric_matrix(chart, p):
    if not chart.contains(p):
        raise EvaluationError(f"point {p.coords} outside chart domain")
    g = np.array([[primal(v) for v in row] for row in chart.metric_at(p.coords)])
    try:
        np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError:
        raise DegenerateMetricError(
            f"metric is not positive definite at {p.coords}") from None
    return g


def christoffel_symbols(chart, p):
    metric_matrix(chart, p)
    gamma = christoffels_at(chart, p.coords)
    m = chart.dim
    out = np.empty((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                out[k, i, j] = primal(gamma[k][i][j])
    return out


def scalar_curvature(chart, p):
    return primal(scalar_curvature_at(chart, p.coords))


def gradient(chart, f, p):
    comps = gradient_at(chart, scalar_fn(chart, f), list(p.coords))
    return TangentVector(tuple(primal(c) for c in comps), p)


def divergence(chart, x_spec, p):
    return primal(divergence_at(chart, field_fn(chart, x_spec), list(p.coords)))


def hessian(chart, f, x_spec, y_spec, p):
    xs = list(p.coords)
    hess = hessian_matrix_at(chart, scalar_fn(chart, f), xs)
    xc = [primal(v) for v in field_values_at(chart, x_spec, xs)]
    yc = [primal(v) for v in field_values_at(chart, y_spec, xs)]
    m = chart.dim
    return primal(sum(hess[i][j] * xc[i] * yc[j]
                      for i in range(m) for j in range(m)))


def laplacian(chart, f, p):
    return primal(laplacian_at(chart, scalar_fn(chart, f), list(p.coords)))


def lie_derivative_metric(chart, xi_spec, x_spec, y_spec, p):
    xs = list(p.coords)
    xc = [primal(v) for v in field_values_at(chart, x_spec, xs)]
    yc = [primal(v) for v in field_values_at(chart, y_spec, xs)]
    return primal(lie_derivative_metric_at(chart, field_fn(chart, xi_spec),
                                           xc, yc, xs))


def orthonormalize_components(gmat, vectors, tol=1e-10):
    """Stabilized Gram-Schmidt against the metric inner product, columns
    processed in input order for determinism."""
    g = np.asarray(gmat, dtype=float)
    out = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for _ in range(2):  # re-orthogonalization pass for stability
            for u in out:
                w = w - (u @ g @ w) * u
        norm_sq = w @ g @ w
        if norm_sq <= tol * max(1.0, float(np.max(np.abs(g)))):
            raise DependentVectorsError("input vectors are linearly dependent")
        out.append(w / math.sqrt(norm_sq))
    return out


def orthonormalize(chart, p, vectors):
    g = metric_matrix(chart, p)
    comps = orthonormalize_components(g, [list(v.components) for v in vectors])
    vecs = [TangentVector(tuple(map(float, w)), p) for w in comps]
    gram = np.array([[w1 @ g @ w2 for w2 in comps] for w1 in comps])
    return Frame(vectors=vecs, gram=gram)


def coordinate_frame(chart, p):
    """Orthonormal frame from the coordinate basis seed."""
    seeds = [chart.basis_vector(i, p) for i in range(chart.dim)]
    return orthonormalize(chart, p, seeds)

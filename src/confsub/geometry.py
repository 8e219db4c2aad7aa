"""Single-manifold geometry on a coordinate chart: metric, Levi-Civita
connection, curvature, Lie derivatives and orthonormal frames.

Sign conventions:
    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = trace(Z -> R(Z, X)Y)
so that a space form of curvature K has Ric = (m-1) K g.

Every derivative is taken by one helper, ``coordinate_partials``: it
seeds all coordinate directions at a fresh jet level, evaluates a
function returning a scalar or a nested list of scalars, and unpacks the
values with their first (and, at order 2, second) partials, giving zero
partials to components that do not carry the new level.  Because it only
adds a level, it also works inside an enclosing seeding: given jet
coordinates it returns jets of the enclosing level, which is how
``jacobian_at`` nests.  ``point_partials`` is its one form over a run's
points: one seeding of float arrays over the point axis, unpacked into
float arrays with the point axis first.  Every seeding a run makes (the
metric, the Jacobian, h o F, the base metric, a vector field) is one
call to it over all the points; Christoffel symbols, curvature and Lie
derivatives are float contractions of what it returns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expr as expr_mod
from .expr import eval_expr, parse_expression, parse_predicate
from .jets import EvaluationError, Jet, JetSpace
from .linalg import transpose


class DegenerateMetricError(ValueError):
    pass


class DependentVectorsError(ValueError):
    pass


class Point:
    """A point by its coordinates, a tuple of finite floats."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(map(float, coords))
        if not all(map(math.isfinite, self.coords)):
            raise ValueError("point coordinates must be finite")

    def __eq__(self, other):
        return (self.coords == other.coords if type(other) is Point
                else NotImplemented)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Point(coords={self.coords!r})"


class VectorFieldSpec(NamedTuple):
    """A vector field given componentwise by expressions."""

    components: tuple  # of expression ASTs

    @classmethod
    def parse(cls, texts, coords=None):
        return cls(tuple(parse_expression(t, coords) for t in texts))

    @classmethod
    def constant(cls, values):
        return cls(tuple(expr_mod.Const(float(v)) for v in values))


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

    def field(self, *component_texts):
        return VectorFieldSpec.parse(component_texts, set(self.coord_names))

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


def point_partials(fn, xs, order=2):
    """Values and coordinate partials of ``fn`` at every point of ``xs``
    (one row of coordinates per point) as float arrays with the point
    axis first, from one ``coordinate_partials`` seeding over all the
    points: (X, dX) at order 1 and (X, dX, ddX) at order 2, with
    dX[p, i] = d_i X at point p and ddX[p, i, j] = d_i d_j X there.
    NumPy's floating-point warnings are off, and a scalar function raises
    where any point raises; each point's values are those of the point
    alone."""
    with np.errstate(all="ignore"):
        return tuple(stack_points(a, len(xs)) for a in coordinate_partials(
            fn, batch_coordinates(xs), order))


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
    return spec if callable(spec) else (
        lambda xs: field_values_at(chart, spec, xs))


# ---------------------------------------------------------------------
# metric and connection
# ---------------------------------------------------------------------

def christoffels_from_metric(g, dg, ddg):
    """(Gamma, dGamma) from the float metric with its partials,
    dg[l] = d_l g and ddg[l, j] = d_l d_j g, at one point or over a
    leading point axis, with dGamma[l, k, i, j] = d_l Gamma^k_ij:
    Gamma = g^{-1} C / 2 with C_lij = d_i g_jl + d_j g_il - d_l g_ij, and
    differentiating g Gamma = C / 2 gives
    d_p Gamma = g^{-1} (d_p C / 2 - d_p g Gamma)."""
    ginv = np.linalg.inv(g)
    c = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    dc = (np.einsum("...pijl->...plij", ddg)
          + np.einsum("...pjil->...plij", ddg) - ddg)
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, c)
    dgamma = np.einsum("...kl,...plij->...pkij", ginv, 0.5 * dc - np.einsum(
        "...plq,...qij->...plij", dg, gamma))
    return gamma, dgamma


def riemann_from_christoffels(gamma, dgamma):
    """Riem[..., l, k, i, j], component l of R(e_i, e_j) e_k, from float
    (Gamma, dGamma) as ``christoffels_from_metric`` returns them, at one
    point or over a leading point axis:
    R^l_kij = d_i Gamma^l_jk + Gamma^l_it Gamma^t_jk - (i <-> j)."""
    half = (np.einsum("...iljk->...lkij", dgamma)
            + np.einsum("...lit,...tjk->...lkij", gamma, gamma))
    return half - half.swapaxes(-1, -2)


def lie_derivative_matrix(g, gamma, xi, dxi):
    """(L_xi g)_ij over the coordinate basis as a float matrix, at one
    point or over a leading point axis, from the float metric g,
    Christoffel symbols gamma and ``xi`` with its partials
    dxi[..., i, k] = d_i xi^k there: L = g N + (g N)^T with
    N^k_i = d_i xi^k + Gamma^k_il xi^l the components of nabla xi, since
    (L_xi g)(X, Y) = g(nabla_X xi, Y) + g(nabla_Y xi, X)."""
    gn = g @ (dxi.swapaxes(-1, -2)
              + np.einsum("...kil,...l->...ki", gamma, xi))
    return gn + gn.swapaxes(-1, -2)


# ---------------------------------------------------------------------
# float values over points
# ---------------------------------------------------------------------

def each_point(whole, alone, count):
    """``whole()``, a value over a stack of ``count`` points (an array or a
    tuple of arrays, each with the point axis first), with NumPy's
    warnings off.  Where it raises an ArithmeticError or ValueError,
    ``alone(i)`` evaluates each point i by itself, so the first failing
    point raises its own error; where none does, their values are stacked."""
    with np.errstate(all="ignore"):
        try:
            return whole()
        except (ArithmeticError, ValueError):
            if count == 1:  # the error is the lone point's own already
                raise
        parts = [alone(i) for i in range(count)]
    if isinstance(parts[0], tuple):
        return tuple(map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


def batch_coordinates(xs):
    """Coordinate values of the points ``xs`` (P, m) for ``eval_expr``: one
    float array over the points per coordinate, or the coordinates of a
    single point as floats.  The scalar functions round a float as they
    round it inside an array, so the floats only select speed: evaluating
    one point on one-element arrays pays NumPy's per-array cost in every
    operation of the jet arithmetic."""
    xs = np.asarray(xs, dtype=float)
    return xs[0].tolist() if len(xs) == 1 else list(xs.T)


def stack_points(values, count):
    """(count, *shape) float array of a nested list whose entries are
    float arrays over a point axis or floats shared by every point."""
    if count == 1:
        # only a size choice, the values are the same: one point's entries
        # are all floats, and one np.array call stacks them about four
        # times faster than the loop below (0.08 against 0.32 ms over a
        # one-point curved-all run, 2-vCPU Xeon VM, NumPy 2.4)
        return np.array(values, dtype=float)[None]
    shape, flat = [count], [values]
    while isinstance(flat[0], (list, tuple)):
        shape.append(len(flat[0]))
        flat = [c for row in flat for c in row]
    out = np.empty((count, len(flat)))
    for i, v in enumerate(flat):
        out[:, i] = v
    return out.reshape(shape)


def metric_matrices(chart, xs, count):
    """The metric at ``count`` points as float matrices, from one
    evaluation at ``xs``, the points' coordinates as ``batch_coordinates``
    gives them.  Returns a (count, dim, dim) array; raises outside the
    chart's domain and where the metric is not finite or not positive
    definite, naming the point when there is one."""
    where = tuple(map(float, xs)) if count == 1 else f"one of {count} points"
    if chart.domain is not None and not np.all(
            eval_expr(chart.domain, chart.env(xs))):
        raise EvaluationError(f"point {where} outside chart domain")
    g = stack_points(chart.metric_at(xs), count)
    if not np.isfinite(g).all():
        raise EvaluationError(f"non-finite metric at {where}")
    try:
        np.linalg.cholesky(0.5 * (g + g.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        raise DegenerateMetricError(
            f"metric is not positive definite at {where}") from None
    return g


def orthonormal_frames(g, vectors, tol=1e-10):
    """Gram-Schmidt at every point of a stack: ``g`` is (P, m, m) and
    ``vectors`` (P, k, m); returns the (P, k, m) orthonormalized vectors,
    each processed in input order with a re-orthogonalization pass.  A
    vector is dependent on those before it when the squared g-norm of its
    residual is at most ``tol`` times its own squared g-norm."""
    out = np.empty(vectors.shape)
    for a in range(vectors.shape[1]):
        w = vectors[:, a]
        limit = tol * _inner(w, g, w)
        for _ in range(2):  # re-orthogonalization pass for stability
            for b in range(a):
                u = out[:, b]
                w = w - _inner(u, g, w)[:, None] * u
        norm_sq = _inner(w, g, w)
        if (norm_sq <= limit).any():
            raise DependentVectorsError("input vectors are linearly dependent")
        out[:, a] = w / np.sqrt(norm_sq)[:, None]
    return out


def _inner(u, g, w):
    return np.einsum("pi,pij,pj->p", u, g, w)

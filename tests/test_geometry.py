"""Chart geometry: connection, curvature, and operator oracles.

The finite-difference curvature oracle below samples only the metric as
plain floats, so it shares no code path with the jet-based pipeline and
serves as the independent cross-check.
"""

import math

import numpy as np
import pytest

from confsub import geometry as geo
from confsub.geometry import Point
from confsub.jets import Jet, JetSpace, sexp
from conftest import chart, flat_chart, sample
from jet_reference import (christoffel_partials_at, christoffel_symbols,
                           christoffels_at, metric_matrix, metric_partials_at,
                           ricci_matrix_at, scalar_curvature, vector_partials)

# -- reference metrics -------------------------------------------------

HYPERBOLIC = chart("x1 x2", ["x2^-2, 0", "0, x2^-2"], "x2 > 0")
H3 = chart("x1 x2 x3",
           ["x3^-2, 0, 0", "0, x3^-2, 0", "0, 0, x3^-2"], "x3 > 0")
SPHERE_PATCH = chart("x1 x2", ["1, 0", "0, sin(x1)^2"],
                     "x1 > 0.2 and x1 < 2.9")
CURVED = chart("x1 x2 x3", ["1 + x2^2, 0, x2", "0, 1, 0", "x2, 0, 1"])

HYP_POINTS = sample([(-2.0, 2.0), (0.2, 3.0)], 20, seed=3)
H3_POINTS = sample([(-1.0, 1.0), (-1.0, 1.0), (0.5, 3.0)], 20, seed=4)


# -- finite-difference oracle (metric floats only, no jets) ------------

def fd_metric(chart_, xs):
    from confsub.jets import primal
    return np.array([[primal(v) for v in row]
                     for row in chart_.metric_at(list(xs))])


def fd_christoffels(chart_, xs, h=1e-6):
    m = len(xs)
    g = fd_metric(chart_, xs)
    ginv = np.linalg.inv(g)
    dg = np.empty((m, m, m))  # dg[k][i][j] = d_k g_ij
    for k in range(m):
        step = [0.0] * m
        step[k] = h
        gp = fd_metric(chart_, np.add(xs, step))
        gm = fd_metric(chart_, np.subtract(xs, step))
        dg[k] = (gp - gm) / (2 * h)
    gamma = np.empty((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                    for l in range(m))
    return gamma


def fd_ricci(chart_, xs, h=1e-4):
    """Ric_jk = d_i Gamma^i_jk - d_k Gamma^i_ji + quadratic terms."""
    m = len(xs)
    gamma = fd_christoffels(chart_, xs)
    dgamma = np.empty((m, m, m, m))  # dgamma[l] = d_l gamma
    for l in range(m):
        step = [0.0] * m
        step[l] = h
        dgamma[l] = (fd_christoffels(chart_, np.add(xs, step))
                     - fd_christoffels(chart_, np.subtract(xs, step))) / (2 * h)
    ric = np.empty((m, m))
    for j in range(m):
        for k in range(m):
            ric[j, k] = sum(
                dgamma[i][i, k, j] - dgamma[j][i, k, i]
                + sum(gamma[i, i, l] * gamma[l, k, j]
                      - gamma[i, j, l] * gamma[l, k, i] for l in range(m))
                for i in range(m))
    return ric


# -- space-form oracles ------------------------------------------------

@pytest.mark.parametrize("p", HYP_POINTS[:20])
def test_hyperbolic_plane_is_einstein(p):
    g = metric_matrix(HYPERBOLIC, p)
    ric = ricci_matrix_at(HYPERBOLIC, list(p.coords))
    assert np.allclose(ric, -g, rtol=1e-9, atol=1e-12)
    assert scalar_curvature(HYPERBOLIC, p) == pytest.approx(-2.0,
                                                                rel=1e-9)


@pytest.mark.parametrize("p", H3_POINTS[:20])
def test_h3_metric_is_einstein(p):
    from confsub.jets import primal
    g = metric_matrix(H3, p)
    mat = ricci_matrix_at(H3, list(p.coords))
    ric = np.array([[primal(v) for v in row] for row in mat])
    assert np.allclose(ric, -2.0 * g, rtol=1e-9, atol=1e-12)
    assert scalar_curvature(H3, p) == pytest.approx(-6.0, rel=1e-9)


def test_sphere_patch_scalar_curvature():
    for p in sample([(0.4, 2.6), (-2.0, 2.0)], 5, seed=5):
        assert scalar_curvature(SPHERE_PATCH, p) == pytest.approx(
            2.0, rel=1e-9)


@pytest.mark.parametrize("chart_,points", [
    (HYPERBOLIC, HYP_POINTS[:4]),
    (CURVED, sample([(-1.0, 1.0)] * 3, 4, seed=6)),
])
def test_ricci_matches_finite_difference_oracle(chart_, points):
    from confsub.jets import primal
    for p in points:
        mat = ricci_matrix_at(chart_, list(p.coords))
        exact = np.array([[primal(v) for v in row] for row in mat])
        approx = fd_ricci(chart_, list(p.coords))
        assert np.allclose(exact, approx, rtol=1e-6, atol=1e-6)


def test_christoffels_match_finite_difference_oracle():
    for p in HYP_POINTS[:4]:
        exact = christoffel_symbols(HYPERBOLIC, p)
        approx = fd_christoffels(HYPERBOLIC, list(p.coords))
        assert np.allclose(exact, approx, rtol=1e-7, atol=1e-8)


# -- structural invariants of the connection and curvature -------------

CHARTS_AND_POINTS = [
    (HYPERBOLIC, HYP_POINTS[:3]),
    (CURVED, sample([(-1.0, 1.0)] * 3, 3, seed=8)),
    (SPHERE_PATCH, sample([(0.4, 2.6), (-1.0, 1.0)], 3, seed=9)),
]


@pytest.mark.parametrize("chart_,points", CHARTS_AND_POINTS)
def test_connection_is_torsion_free(chart_, points):
    for p in points:
        gamma = christoffel_symbols(chart_, p)
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-8


@pytest.mark.parametrize("chart_,points", CHARTS_AND_POINTS)
def test_connection_is_metric_compatible(chart_, points):
    # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
    m = chart_.dim
    h = 1e-6
    for p in points:
        xs = list(p.coords)
        g = fd_metric(chart_, xs)
        gamma = christoffel_symbols(chart_, p)
        for k in range(m):
            step = [0.0] * m
            step[k] = h
            dg = (fd_metric(chart_, np.add(xs, step))
                  - fd_metric(chart_, np.subtract(xs, step))) / (2 * h)
            pred = np.einsum("li,lj->ij", gamma[:, k, :], g) \
                + np.einsum("lj,il->ij", gamma[:, k, :], g)
            assert np.max(np.abs(dg - pred)) <= 1e-6


@pytest.mark.parametrize("chart_,points", CHARTS_AND_POINTS)
def test_curvature_symmetries_and_first_bianchi(chart_, points):
    # r[p, l, k, i, j] = component l of R(e_i, e_j) e_k at point p, from
    # one seeding of the metric over all the points
    riem = geo.riemann_from_christoffels(*geo.christoffels_from_metric(
        *geo.point_partials(chart_.metric_at, [p.coords for p in points])))
    for p, r in zip(points, riem):
        g = metric_matrix(chart_, p)
        # lowered tensor g(R(e_i, e_j) e_k, e_w)
        low = np.einsum("wl,lkij->wkij", g, r)
        # antisymmetry in the acting pair (i, j)
        assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) <= 1e-8
        # antisymmetry in the value pair (w, k)
        assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) <= 1e-8
        # first Bianchi: cyclic sum over (k, i, j)
        bianchi = r + r.transpose(0, 3, 1, 2) + r.transpose(0, 2, 3, 1)
        assert np.max(np.abs(bianchi)) <= 1e-8


def _riemann_loops(gamma, dgamma):
    """The loop form of ``geo.riemann_from_christoffels``, its reference:
    R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik
    + sum_t (Gamma^l_it Gamma^t_jk - Gamma^l_jt Gamma^t_ik)."""
    m = len(gamma)
    riem = np.empty((m, m, m, m))
    for l in range(m):
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    val = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    val = val + sum(gamma[l][i][t] * gamma[t][j][k]
                                    - gamma[l][j][t] * gamma[t][i][k]
                                    for t in range(m))
                    riem[l, k, i, j] = val
    return riem


@pytest.mark.parametrize("chart_,points", CHARTS_AND_POINTS + [
    (H3, H3_POINTS[:3])])
def test_riemann_einsums_match_loop_form(chart_, points):
    # the einsums sum the same 2m + 2 products per entry in another
    # order: a few ulps of the largest term apart
    for p in points:
        gamma, dgamma = christoffel_partials_at(chart_, list(p.coords))
        ref = _riemann_loops(gamma, dgamma)
        scale = 1.0 + np.abs(dgamma).max() + np.abs(gamma).max() ** 2
        got = geo.riemann_from_christoffels(gamma, dgamma)
        assert np.abs(got - ref).max() <= 1e-14 * chart_.dim * scale


# -- operators ----------------------------------------------------------

def test_lie_derivative_of_metric_flat_killing():
    flat = flat_chart(2)
    rot = flat.field("-x2", "x1")
    p = Point((0.9, 0.2))
    lie = geo.lie_derivative_matrix(
        metric_matrix(flat, p), christoffel_symbols(flat, p),
        *vector_partials(geo.field_fn(flat, rot), list(p.coords)))
    for xc in ((1.0, 0.0), (0.0, 1.0), (0.5, -0.3)):
        assert abs(np.asarray(xc) @ lie @ np.asarray(xc)) <= 1e-12


# non-Killing fields with their partials dxi[i][k] = d_i xi^k by hand
LIE_CASES = [
    (HYPERBOLIC, ("x1*x2", "x2^2/2"),
     lambda x: [[x[1], 0.0], [x[0], x[1]]], HYP_POINTS[:4]),
    (CURVED, ("x2*x3", "x1^2", "sin(x1)"),
     lambda x: [[0.0, 2 * x[0], math.cos(x[0])], [x[2], 0.0, 0.0],
                [x[1], 0.0, 0.0]],
     sample([(-1.0, 1.0)] * 3, 4, seed=5))]


@pytest.mark.parametrize("chart_,texts,dxi,points", LIE_CASES,
                         ids=["hyperbolic", "curved-3d"])
def test_lie_derivative_matrix_matches_coordinate_form(chart_, texts, dxi,
                                                       points):
    # (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k, with the
    # metric partials from their own seeding and no Christoffel symbols;
    # xi and its partials from one seeding over all the points
    spec = chart_.field(*texts)
    fields = zip(*geo.point_partials(geo.field_fn(chart_, spec),
                                     [p.coords for p in points], order=1))
    for p, field in zip(points, fields):
        xs = list(p.coords)
        g, dg = (np.array(a, float)
                 for a in metric_partials_at(chart_, xs))
        xi = np.array(geo.field_values_at(chart_, spec, xs), float)
        d = np.array(dxi(xs))
        ref = (np.einsum("k,kij->ij", xi, dg) + np.einsum("kj,ik->ij", g, d)
               + np.einsum("ik,jk->ij", g, d))
        got = geo.lie_derivative_matrix(
            g, np.array(christoffels_at(chart_, xs), float), *field)
        assert np.abs(ref).max() > 0.1  # not a Killing field
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_degenerate_metric_raises():
    bad = chart("x1 x2", ["1, 1", "1, 1"])
    with pytest.raises(geo.DegenerateMetricError):
        metric_matrix(bad, Point((0.0, 0.0)))


def test_domain_enforced():
    with pytest.raises(geo.EvaluationError):
        metric_matrix(HYPERBOLIC, Point((0.0, -1.0)))


def test_orthonormalize_gram_identity():
    g = metric_matrix(HYPERBOLIC, Point((0.5, 2.0)))
    vecs = geo.orthonormal_frames(g[None], np.eye(2)[None])[0]
    gram = vecs @ g @ vecs.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_orthonormal_frames_bound_is_relative_to_each_vector(scale):
    # independence is judged against each input vector's own squared
    # norm, so a frame of tiny or huge vectors is built like a unit one,
    # and a vector in the span of those before it is still rejected
    g = np.diag([1.0, 4.0])[None]
    vecs = geo.orthonormal_frames(g, scale * np.array([[[1.0, 1.0],
                                                        [1.0, -1.0]]]))
    assert np.max(np.abs(vecs[0] @ g[0] @ vecs[0].T - np.eye(2))) <= 1e-12
    with pytest.raises(geo.DependentVectorsError):
        geo.orthonormal_frames(g, scale * np.array([[[1.0, 1.0],
                                                     [2.0, 2.0]]]))


# -- the one seeding helper --------------------------------------------

def test_coordinate_partials_order_two_first_partials_match_order_one():
    # the gradient part of the jet arithmetic does not depend on the
    # order, so both orders must agree bit for bit, here on the nested
    # Christoffel evaluation (divisions, powers, an inner seeding)
    for chart_, xs in ((H3, [0.3, -0.2, 1.7]), (SPHERE_PATCH, [0.9, 0.4]),
                       (CURVED, [0.1, 0.6, -0.5])):
        fn = lambda zs: christoffels_at(chart_, zs)
        vals1, d1 = geo.coordinate_partials(fn, xs, order=1)
        vals2, d2, _ = geo.coordinate_partials(fn, xs, order=2)
        assert vals1 == vals2
        assert d1 == d2


def test_coordinate_partials_zero_for_constants_and_enclosing_jets():
    outer = JetSpace(1, 1).seed([0.5], [[1.0]])[0]
    vals, d, dd = geo.coordinate_partials(
        lambda zs: [[zs[0] * zs[1], 3.0], [outer, sexp(zs[1])]],
        [2.0, -1.0], order=2)
    assert vals[0][0] == -2.0 and vals[0][1] == 3.0 and vals[1][0] is outer
    assert [d[i][0][1] for i in range(2)] == [0.0, 0.0]
    assert [d[i][1][0] for i in range(2)] == [0.0, 0.0]
    assert [d[i][0][0] for i in range(2)] == [-1.0, 2.0]
    assert dd[0][1][0][0] == dd[1][0][0][0] == 1.0
    assert dd[1][1][1][1] == math.exp(-1.0)
    assert all(dd[i][j][r][c] == 0.0 for i in range(2) for j in range(2)
               for r, c in ((0, 1), (1, 0)))
    # a scalar function gives a scalar value and a flat gradient
    val, grad = geo.coordinate_partials(lambda zs: zs[0] * zs[0], [3.0])
    assert val == 9.0 and grad == [6.0]


def test_coordinate_partials_inside_an_enclosing_seeding():
    # with jet coordinates the results are jets of the enclosing level:
    # along x = t, y = 2t: d/dt of d_x (x^2 y) = d/dt (4t^2) = 8t and
    # d/dt of d_y (x^2 y) = d/dt (t^2) = 2t
    outer = JetSpace(1, 1)
    t = outer.seed([1.5], [[1.0]])[0]
    vals, d = geo.coordinate_partials(lambda zs: zs[0] * zs[0] * zs[1],
                                      [t, 2.0 * t])
    for x in (vals, d[0], d[1]):
        assert isinstance(x, Jet) and x.space is outer
    assert d[0].val == pytest.approx(2 * 1.5 * 3.0)
    assert d[0].grad[0] == pytest.approx(8 * 1.5)
    assert d[1].grad[0] == pytest.approx(2 * 1.5)


# -- the rule for a stack that fails at a point ------------------------

def _first_negative(xs):
    """A stack's values (2x, 1/0), raising where a coordinate is negative:
    a lone point names itself (a ZeroDivisionError at -2, else a
    ValueError), a larger stack does not."""
    xs = np.asarray(xs, float)
    if (xs < 0).any():
        where = xs[0] if len(xs) == 1 else f"one of {len(xs)} points"
        raise (ValueError if where != -2.0 else ZeroDivisionError)(
            f"negative at {where}")
    return 2.0 * xs, np.ones(len(xs)) / 0.0


def _each(xs, whole=_first_negative):
    calls = []

    def alone(i):
        calls.append(i)
        return _first_negative(xs[i:i + 1])
    return geo.each_point(lambda: whole(xs), alone, len(xs)), calls


def test_each_point_returns_the_stack_with_warnings_off():
    # 1 / 0 over the stack warns nothing, and no point is evaluated alone
    (doubled, inf), calls = _each(np.array([1.0, 2.5]))
    assert doubled.tolist() == [2.0, 5.0] and np.isinf(inf).all()
    assert calls == []


@pytest.mark.parametrize("xs,error,message,calls", [
    ([-1.0, 2.0, -3.0], ValueError, "negative at -1.0", [0]),
    ([1.0, 2.0, -2.0, -4.0], ZeroDivisionError, "negative at -2.0",
     [0, 1, 2]),
    ([-5.0], ValueError, "negative at -5.0", [])],
    ids=["first", "later", "one-point"])
def test_each_point_raises_the_first_failing_point_alone(xs, error, message,
                                                          calls):
    # an ArithmeticError or ValueError of the stack reruns the points in
    # order up to the first that fails, whose own error is raised; a stack
    # of one raises its error without a rerun
    seen = []

    def alone(i):
        seen.append(i)
        return _first_negative(np.array(xs[i:i + 1]))
    with pytest.raises(error) as exc:
        geo.each_point(lambda: _first_negative(np.array(xs)), alone, len(xs))
    assert str(exc.value) == message
    assert seen == calls


def test_each_point_stacks_the_points_when_none_fails_alone():
    # the stack fails, each point alone evaluates: a tuple is stacked slot
    # by slot, an array along the point axis
    def stack_fails(xs):
        raise ValueError("the stack fails")
    xs = np.array([1.0, 2.0, 3.0])
    (doubled, inf), calls = _each(xs, stack_fails)
    assert doubled.tolist() == [2.0, 4.0, 6.0] and np.isinf(inf).all()
    assert calls == [0, 1, 2]
    mask = geo.each_point(lambda: stack_fails(xs),
                          lambda i: xs[i:i + 1] > 1.5, len(xs))
    assert mask.tolist() == [False, True, True]

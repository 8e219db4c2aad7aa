"""Chart geometry: connection, curvature, and operator oracles.

The finite-difference curvature oracle below samples only the metric as
plain floats, so it shares no code path with the jet-based pipeline and
serves as the independent cross-check.
"""

import math

import numpy as np
import pytest

from confsub import geometry as geo
from confsub.geometry import ChartManifold, Point
from confsub.jets import Jet, JetSpace, sexp
from conftest import chart, flat_chart, sample

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
    g = geo.metric_matrix(HYPERBOLIC, p)
    basis = [[1.0, 0.0], [0.0, 1.0]]
    ric = np.array([[geo.ricci_at(HYPERBOLIC, list(p.coords), u, v)
                     for v in basis] for u in basis], dtype=float)
    assert np.allclose(ric, -g, rtol=1e-9, atol=1e-12)
    assert geo.scalar_curvature(HYPERBOLIC, p) == pytest.approx(-2.0,
                                                                rel=1e-9)


@pytest.mark.parametrize("p", H3_POINTS[:20])
def test_h3_metric_is_einstein(p):
    from confsub.jets import primal
    g = geo.metric_matrix(H3, p)
    mat = geo.ricci_matrix_at(H3, list(p.coords))
    ric = np.array([[primal(v) for v in row] for row in mat])
    assert np.allclose(ric, -2.0 * g, rtol=1e-9, atol=1e-12)
    assert geo.scalar_curvature(H3, p) == pytest.approx(-6.0, rel=1e-9)


def test_sphere_patch_scalar_curvature():
    for p in sample([(0.4, 2.6), (-2.0, 2.0)], 5, seed=5):
        assert geo.scalar_curvature(SPHERE_PATCH, p) == pytest.approx(
            2.0, rel=1e-9)


@pytest.mark.parametrize("chart_,points", [
    (HYPERBOLIC, HYP_POINTS[:4]),
    (CURVED, sample([(-1.0, 1.0)] * 3, 4, seed=6)),
])
def test_ricci_matches_finite_difference_oracle(chart_, points):
    from confsub.jets import primal
    for p in points:
        mat = geo.ricci_matrix_at(chart_, list(p.coords))
        exact = np.array([[primal(v) for v in row] for row in mat])
        approx = fd_ricci(chart_, list(p.coords))
        assert np.allclose(exact, approx, rtol=1e-6, atol=1e-6)


def test_christoffels_match_finite_difference_oracle():
    for p in HYP_POINTS[:4]:
        exact = geo.christoffel_symbols(HYPERBOLIC, p)
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
        gamma = geo.christoffel_symbols(chart_, p)
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-8


@pytest.mark.parametrize("chart_,points", CHARTS_AND_POINTS)
def test_connection_is_metric_compatible(chart_, points):
    # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
    m = chart_.dim
    h = 1e-6
    for p in points:
        xs = list(p.coords)
        g = fd_metric(chart_, xs)
        gamma = geo.christoffel_symbols(chart_, p)
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
    from confsub.jets import primal
    m = chart_.dim
    for p in points:
        xs = list(p.coords)
        riem = geo.curvature_tensor_at(chart_, xs)
        g = geo.metric_matrix(chart_, p)
        # r[l, k, i, j] = component l of R(e_i, e_j) e_k
        r = np.array([[[[primal(riem[l][k][i][j]) for j in range(m)]
                        for i in range(m)] for k in range(m)]
                      for l in range(m)])
        # lowered tensor g(R(e_i, e_j) e_k, e_w)
        low = np.einsum("wl,lkij->wkij", g, r)
        # antisymmetry in the acting pair (i, j)
        assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) <= 1e-8
        # antisymmetry in the value pair (w, k)
        assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) <= 1e-8
        # first Bianchi: cyclic sum over (k, i, j)
        bianchi = r + r.transpose(0, 3, 1, 2) + r.transpose(0, 2, 3, 1)
        assert np.max(np.abs(bianchi)) <= 1e-8


# -- operators ----------------------------------------------------------

def test_gradient_divergence_laplacian_flat():
    flat = flat_chart(2)
    f = flat.scalar("x1^2 + 3*x2")
    p = Point((0.7, -0.4))
    grad = geo.gradient(flat, f, p)
    assert grad.components == pytest.approx((1.4, 3.0))
    assert geo.laplacian(flat, f, p) == pytest.approx(2.0)
    x = flat.field("x1*x2", "-x2")
    assert geo.divergence(flat, x, p) == pytest.approx(-0.4 - 1.0)


def test_divergence_weighted_by_volume_form():
    # div(e_1) on the hyperbolic plane: (1/sqrt|g|) d_1 sqrt|g| = 0,
    # div(e_2) = d_2 log(x2^-2) = -2/x2
    p = Point((0.3, 1.7))
    e2 = HYPERBOLIC.field("0", "1")
    assert geo.divergence(HYPERBOLIC, e2, p) == pytest.approx(-2 / 1.7,
                                                              rel=1e-12)


def test_lie_derivative_of_metric_flat_killing():
    flat = flat_chart(2)
    rot = flat.field("-x2", "x1")
    p = Point((0.9, 0.2))
    for xc in ((1.0, 0.0), (0.0, 1.0), (0.5, -0.3)):
        val = geo.lie_derivative_metric(flat, rot,
                                        geo.VectorFieldSpec.constant(xc),
                                        geo.VectorFieldSpec.constant(xc), p)
        assert abs(val) <= 1e-12


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
    # metric partials from their own seeding and no Christoffel symbols
    spec = chart_.field(*texts)
    for p in points:
        xs = list(p.coords)
        g, dg = (np.array(a, float)
                 for a in geo.metric_partials_at(chart_, xs))
        xi = np.array(geo.field_values_at(chart_, spec, xs), float)
        d = np.array(dxi(xs))
        ref = (np.einsum("k,kij->ij", xi, dg) + np.einsum("kj,ik->ij", g, d)
               + np.einsum("ik,jk->ij", g, d))
        got = geo.lie_derivative_matrix(
            g, np.array(geo.christoffels_at(chart_, xs), float),
            geo.field_fn(chart_, spec), xs)
        assert np.abs(ref).max() > 0.1  # not a Killing field
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_hessian_is_symmetric():
    f = HYPERBOLIC.scalar("x1*x1*x2 + exp(x2)")
    p = Point((0.4, 0.9))
    u = geo.VectorFieldSpec.constant((1.0, 0.4))
    v = geo.VectorFieldSpec.constant((-0.2, 1.0))
    assert geo.hessian(HYPERBOLIC, f, u, v, p) == pytest.approx(
        geo.hessian(HYPERBOLIC, f, v, u, p), rel=1e-12)


def test_degenerate_metric_raises():
    bad = chart("x1 x2", ["1, 1", "1, 1"])
    with pytest.raises(geo.DegenerateMetricError):
        geo.metric_matrix(bad, Point((0.0, 0.0)))


def test_domain_enforced():
    with pytest.raises(geo.EvaluationError):
        geo.metric_matrix(HYPERBOLIC, Point((0.0, -1.0)))


def test_orthonormalize_gram_identity():
    p = Point((0.5, 2.0))
    frame = geo.coordinate_frame(HYPERBOLIC, p)
    g = geo.metric_matrix(HYPERBOLIC, p)
    vecs = np.array([list(v.components) for v in frame.vectors])
    gram = vecs @ g @ vecs.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_lie_bracket_coordinate_fields_commute():
    x = CURVED.field("1", "0", "0")
    y = CURVED.field("0", "1", "0")
    b = geo.lie_bracket(CURVED, x, y, Point((0.1, 0.2, 0.3)))
    assert np.max(np.abs(np.asarray(b.components))) == 0.0


# -- the one seeding helper --------------------------------------------

def test_coordinate_partials_order_two_first_partials_match_order_one():
    # the gradient part of the jet arithmetic does not depend on the
    # order, so both orders must agree bit for bit, here on the nested
    # Christoffel evaluation (divisions, powers, an inner seeding)
    for chart_, xs in ((H3, [0.3, -0.2, 1.7]), (SPHERE_PATCH, [0.9, 0.4]),
                       (CURVED, [0.1, 0.6, -0.5])):
        fn = lambda zs: geo.christoffels_at(chart_, zs)
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

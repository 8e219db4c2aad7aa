"""Submersion machinery: projectors, dilation, O'Neill tensors, fibers."""

from collections import Counter

import numpy as np
import pytest

from confsub import catalog
from confsub import geometry as geo
from confsub import submersion as sub
from confsub.geometry import Point, VectorFieldSpec
from confsub.identities import IdentityContext
from confsub.jets import JetSpace, primal_array
from confsub.linalg import mat_vec
from conftest import (conformal_corpus, flat_chart, make_setup,
                      riemannian_corpus, sample, warped_4to2)


@pytest.fixture(scope="module")
def ex53():
    return catalog.load_job("5.3").setup


@pytest.fixture(scope="module")
def ex51():
    return catalog.load_job("5.1").setup


def basis(m):
    return [tuple(1.0 if j == i else 0.0 for j in range(m))
            for i in range(m)]


def test_projectors_idempotent_orthogonal(riemannian_setups,
                                          conformal_setups):
    for name, setup, box_or_points in (riemannian_setups
                                       + conformal_setups):
        if isinstance(box_or_points[0], Point):
            points = box_or_points
        else:
            points = sample(box_or_points, 3, seed=11)
        for p in points[:3]:
            pv, ph = setup.projectors_at(list(p.coords))
            ph, pv = np.asarray(ph, float), np.asarray(pv, float)
            assert np.max(np.abs(ph @ ph - ph)) <= 1e-10, name
            assert np.max(np.abs(pv @ pv - pv)) <= 1e-10, name
            assert np.max(np.abs(ph + pv - np.eye(setup.m))) <= 1e-12, name
            assert np.max(np.abs(ph @ pv)) <= 1e-10, name


def test_projectors_g_symmetric(ex53):
    # g(P_H X, Y) = g(X, P_H Y)
    p = Point((0.3, 1.6, 2.0))
    _, ph = ex53.projectors_at(list(p.coords))
    ph = np.asarray(ph, float)
    g = geo.metric_matrix(ex53.total, p)
    assert np.max(np.abs(g @ ph - (g @ ph).T)) <= 1e-12


def test_dilation_and_anisotropy(ex51, ex53):
    p = Point((0.4, 0.9))
    d = sub.dilation(ex51, p)
    assert d.lambda_sq == pytest.approx(np.exp(2 * 0.9), rel=1e-12)
    assert d.anisotropy <= 1e-10
    q = Point((0.1, 1.7, 2.5))
    d3 = sub.dilation(ex53, q)
    assert d3.lambda_sq == pytest.approx(2.5 ** 2, rel=1e-12)
    assert d3.anisotropy <= 1e-10


def test_oneill_values_example_53(ex53):
    p = Point((0.2, 1.8, 2.0))
    e1, e2, e3 = basis(3)
    t = sub.oneill_T(ex53, p, VectorFieldSpec.constant(e1),
                     VectorFieldSpec.constant(e1))
    assert np.asarray(t.components) == pytest.approx((0.0, 0.0, 0.5))
    a = sub.oneill_A(ex53, p, VectorFieldSpec.constant(e2),
                     VectorFieldSpec.constant(e3))
    assert np.max(np.abs(np.asarray(a.components))) <= 1e-12
    h = sub.mean_curvature(ex53, p)
    assert np.asarray(h.components) == pytest.approx((0.0, 0.0, 2.0))


def test_oneill_T_reverses_distributions(ex53):
    # T maps (vertical, vertical) -> horizontal and
    # (vertical, horizontal) -> vertical
    p = Point((0.5, 2.2, 1.8))
    pv, _ = ex53.projectors_at(list(p.coords))
    pv = np.asarray(pv, float)
    e1, e2, e3 = basis(3)
    t_vv = np.asarray(sub.oneill_T(ex53, p, VectorFieldSpec.constant(e1),
                                   VectorFieldSpec.constant(e1)).components)
    assert np.max(np.abs(pv @ t_vv)) <= 1e-9
    t_vh = np.asarray(sub.oneill_T(ex53, p, VectorFieldSpec.constant(e1),
                                   VectorFieldSpec.constant(e3)).components)
    ph = np.eye(3) - pv
    assert np.max(np.abs(ph @ t_vh)) <= 1e-9


def test_oneill_A_skew_and_alternation(riemannian_setups):
    for name, setup, box in riemannian_setups:
        if setup.n < 2:
            continue
        p = sample(box, 1, seed=13)[0]
        g = geo.metric_matrix(setup.total, p)
        hf = setup.horizontal_frame(p)
        x = np.asarray(hf[0])
        y = np.asarray(hf[1])
        axy = np.asarray(sub.oneill_A(
            setup, p, VectorFieldSpec.constant(x),
            VectorFieldSpec.constant(y)).components)
        ayx = np.asarray(sub.oneill_A(
            setup, p, VectorFieldSpec.constant(y),
            VectorFieldSpec.constant(x)).components)
        # alternation on horizontal vectors (Riemannian case)
        assert np.max(np.abs(axy + ayx)) <= 1e-9, name
        # A_X X = 0 at dilation one
        axx = np.asarray(sub.oneill_A(
            setup, p, VectorFieldSpec.constant(x),
            VectorFieldSpec.constant(x)).components)
        assert np.max(np.abs(axx)) <= 1e-9, name
        # skew-symmetry: g(A_X Y, V) = -g(Y, A_X V) for vertical V
        v = np.asarray(setup.vertical_frame(p)[0])
        axv = np.asarray(sub.oneill_A(
            setup, p, VectorFieldSpec.constant(x),
            VectorFieldSpec.constant(v)).components)
        assert float(axy @ g @ v) == pytest.approx(
            -float(y @ g @ axv), abs=1e-9), name


def test_riemannian_A_is_half_vertical_bracket(riemannian_setups):
    for name, setup, box in riemannian_setups:
        if setup.n < 2:
            continue
        p = sample(box, 1, seed=14)[0]
        pv, _ = setup.projectors_at(list(p.coords))
        pv = np.asarray(pv, float)
        e_x = basis(setup.m)[0]
        e_y = basis(setup.m)[1]
        ph = np.eye(setup.m) - pv
        x = ph @ np.asarray(e_x)
        y = ph @ np.asarray(e_y)
        x_lift = setup.basic_field_fn(
            VectorFieldSpec.constant(setup.jacobian(p) @ x))
        y_lift = setup.basic_field_fn(
            VectorFieldSpec.constant(setup.jacobian(p) @ y))
        from confsub.jets import primal
        bracket = geo.lie_bracket_at(x_lift, y_lift, list(p.coords))
        vb = pv @ np.array([primal(c) for c in bracket])
        a = np.asarray(sub.oneill_A(
            setup, p, VectorFieldSpec.constant(x),
            VectorFieldSpec.constant(y)).components)
        assert np.max(np.abs(a - 0.5 * vb)) <= 1e-8, name


def test_mean_curvature_zero_for_tg_fibers(ex51):
    p = Point((1.0, 0.5))
    h = sub.mean_curvature(ex51, p)
    assert np.max(np.abs(np.asarray(h.components))) <= 1e-12


def test_intrinsic_fiber_curvature_one_dim_is_zero(ex51, ex53):
    for setup, p in ((ex51, Point((0.5, 0.25))),
                     (ex53, Point((0.0, 1.5, 2.0)))):
        assert sub.intrinsic_fiber_scalar_curvature(setup, p) == 0.0


def test_intrinsic_fiber_curvature_curved_fiber(riemannian_setups):
    name, setup, box = riemannian_setups[3]
    assert name == "curved-fiber-3to1"
    p = sample(box, 1, seed=15)[0]
    s = sub.intrinsic_fiber_scalar_curvature(setup, p)
    assert s != 0.0
    # the fiber slice metric is conformal to exp(2c x1) diag(1, 2+sin(x2)),
    # whose curvature is independent of the overall constant factor
    assert np.isfinite(s)


def test_structure_flags_on_catalog():
    expected = {
        "5.1": dict(fibers_totally_geodesic=True, horizontal_integrable=True,
                    homothetic=True, horizontal_totally_geodesic=False),
        "5.2": dict(fibers_totally_geodesic=True, homothetic=False,
                    horizontal_totally_geodesic=True),
        "5.3": dict(fibers_totally_geodesic=False,
                    fibers_totally_umbilical=True,
                    horizontal_totally_geodesic=True,
                    horizontal_integrable=True),
        "5.4": dict(fibers_totally_geodesic=True, homothetic=True,
                    map_totally_geodesic=True),
    }
    for eid, want in expected.items():
        job = catalog.load_job(eid)
        flags = sub.structure_flags(job.setup, job.points[:4]).as_dict()
        for key, value in want.items():
            assert flags[key].holds is value, (eid, key)


def test_tension_field_vanishes_for_tg_map():
    job = catalog.load_job("5.4")
    tau = sub.tension_field(job.setup, job.points[0])
    assert np.max(np.abs(np.asarray(tau.components))) <= 1e-12


def test_not_a_submersion_detected():
    total = flat_chart(3)
    base = flat_chart(2, prefix="y")
    bad = make_setup(total, base, ["x1", "x1"])  # rank-deficient
    with pytest.raises(sub.NotASubmersionError):
        sub.dilation(bad, Point((0.1, 0.2, 0.3)))


def test_horizontal_lift_pushes_forward():
    job = catalog.load_job("5.3")
    setup = job.setup
    p = Point((0.3, 2.0, 1.5))
    lift = sub.horizontal_lift(setup, VectorFieldSpec.constant((1.0, 0.0)), p)
    push = setup.jacobian(p) @ np.asarray(lift.components)
    assert push == pytest.approx((1.0, 0.0), abs=1e-12)


# -- the per-point O'Neill bundle against the per-field reference path ----

WARPED_4TO2 = warped_4to2()


def _assert_close(got, ref, what):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), (
        what, got, ref)


def _catalog_case(eid):
    job = catalog.load_job(eid)
    return eid, job.setup, job.points[:2]


# on 5.3 and the warped product grad_v f vanishes; on the cone it does
# not, so the cone is the case that exercises the derivative of H'
_CONE = next(case for case in conformal_corpus() if case[0] == "cone")
BUNDLE_CASES = [_catalog_case(eid) for eid in catalog.EXAMPLE_IDS] + [
    ("warped-4to2", WARPED_4TO2,
     [Point((0.2, -0.4, 0.5, 1.1)), Point((-0.7, 0.3, 2.0, -0.6))]),
    (_CONE[0], _CONE[1], _CONE[2][:2])]


def _hprime_fn(setup):
    """H' = -(lambda^2 / 2) v grad(1 / lambda^2) as a component function."""
    def fn(zs):
        grad = geo.gradient_at(setup.total, setup.inv_lambda_sq_fn(), zs)
        pv, _ = setup.projectors_at(zs)
        lam_sq = setup.lambda_sq_at(zs)
        return [-0.5 * lam_sq * c for c in mat_vec(pv, grad)]
    return fn


@pytest.mark.parametrize("name,setup,points", BUNDLE_CASES,
                         ids=[case[0] for case in BUNDLE_CASES])
def test_oneill_bundle_matches_per_field_path(name, setup, points):
    rng = np.random.default_rng(20261017)
    const = sub._const_fn
    m, n = setup.m, setup.n
    e = basis(m)
    for p in points:
        xs = list(p.coords)
        ctx = IdentityContext(setup, p)
        bundle = sub.oneill_bundle(setup, p)
        t_ref = {}
        for a in range(m):
            for b in range(m):
                t_ref[a, b] = primal_array(sub.oneill_T_at(
                    setup, xs, const(e[a]), const(e[b])))
                a_ref = primal_array(sub.oneill_A_at(
                    setup, xs, const(e[a]), const(e[b])))
                _assert_close(ctx.T(e[a], e[b]), t_ref[a, b], (name, "T"))
                _assert_close(ctx.A(e[a], e[b]), a_ref, (name, "A"))
                _assert_close(bundle.t[:, a, b], t_ref[a, b],
                              (name, "bundle T"))
                _assert_close(bundle.a[:, a, b], a_ref, (name, "bundle A"))
        _assert_close(bundle.h, primal_array(sub.mean_curvature_at(setup, xs)),
                      (name, "bundle H"))
        # H as the trace of T against P_v g^{-1}, summed pair by pair
        pv, _ = setup.projectors_at(xs)
        w = (np.asarray(pv, float)
             @ np.linalg.inv(geo.metric_matrix(setup.total, p)))
        h_ref = sum(w[a, b] * t_ref[a, b] for a in range(m) for b in range(m))
        _assert_close(ctx.h_vec, h_ref / (m - n), (name, "H"))
        _assert_close(ctx.hp_vec, primal_array(_hprime_fn(setup)(xs)),
                      (name, "H'"))
        # nabla T and nabla A are multilinear: random arguments cover
        # every component; H and H' are differentiated as fields
        for _ in range(2):
            d, u, v = rng.standard_normal((3, m))
            dt_ref = primal_array(sub.cov_deriv_T_at(
                setup, xs, list(d), const(u), const(v)))
            da_ref = primal_array(sub.cov_deriv_A_at(
                setup, xs, list(d), const(u), const(v)))
            _assert_close(ctx.dT(d, u, v), dt_ref, (name, "dT"))
            _assert_close(ctx.dA(d, u, v), da_ref, (name, "dA"))
            dh_ref = primal_array(geo.cov_deriv_along_at(
                setup.total, xs, list(d),
                lambda zs: sub.mean_curvature_at(setup, zs)))
            dhp_ref = primal_array(geo.cov_deriv_along_at(
                setup.total, xs, list(d), _hprime_fn(setup)))
            _assert_close(ctx.grad_h(d), dh_ref, (name, "dH"))
            _assert_close(ctx.grad_hprime(d), dhp_ref, (name, "dH'"))


@pytest.mark.parametrize("name,setup,point", [
    ("5.3", catalog.load_job("5.3").setup, Point((0.2, 1.8, 2.0))),
    ("warped-4to2", WARPED_4TO2, Point((0.2, -0.4, 0.5, 1.1)))])
def test_context_seeds_at_most_two_levels_deep(monkeypatch, name, setup,
                                               point):
    # Riem, Gamma, Hess f, T, A, H, H' and every covariant derivative come
    # from three order-1 or order-2 seedings (Gamma, f = 1/lambda^2, P_v),
    # each holding at most one inner seeding (the metric or Jacobian
    # partials), plus the Jacobian seeding of the float core
    depth = Counter()
    real_partials = geo.coordinate_partials
    real_seed = JetSpace.seed

    def tracked(*args, **kwargs):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            return real_partials(*args, **kwargs)
        finally:
            depth["now"] -= 1

    def counted_seed(self, *args, **kwargs):
        depth["seeds"] += 1
        return real_seed(self, *args, **kwargs)

    monkeypatch.setattr(geo, "coordinate_partials", tracked)
    monkeypatch.setattr(JetSpace, "seed", counted_seed)
    ctx = IdentityContext(setup, point)
    for attr in ("riem", "gamma", "hess_f", "t_tensor", "a_tensor", "h_vec",
                 "hp_vec", "_nabla"):
        getattr(ctx, attr)
    assert depth["max"] == 2, name
    if name == "5.3":
        assert depth["seeds"] <= 7


# -- structure flags' basic-field violations against the per-pair path ---

def _gnorm(g, v):
    return float(np.sqrt(max(0.0, v @ g @ v)))


def _per_pair_violations(setup, p):
    """sup |v[X_a, X_b]| / (|X_a| |X_b|) and sup |(nabla F_*)(X_a, X_b)|
    over the lifted base coordinate fields, one seeding per bracket and
    per nabla_{X_a} X_b."""
    xs = list(p.coords)
    q = setup.map_point(p)
    ys = list(q.coords)
    g = geo.metric_matrix(setup.total, p)
    h_base = geo.metric_matrix(setup.base, q)
    pv = np.asarray(setup.projectors_at(xs)[0], float)
    jac = setup.jacobian(p)
    e = basis(setup.n)
    lifts = [setup.basic_field_fn(VectorFieldSpec.constant(ea)) for ea in e]
    worst_bracket = worst_sff = 0.0
    for a in range(setup.n):
        xa = primal_array(lifts[a](xs))
        for b in range(setup.n):
            xb = primal_array(lifts[b](xs))
            if b > a:
                vert = pv @ primal_array(
                    geo.lie_bracket_at(lifts[a], lifts[b], xs))
                worst_bracket = max(worst_bracket, _gnorm(g, vert) / (
                    _gnorm(g, xa) * _gnorm(g, xb)))
            nabla_n = primal_array(geo.cov_deriv_along_at(
                setup.base, ys, e[a], lambda zs, eb=e[b]: list(eb)))
            nabla_m = primal_array(geo.cov_deriv_along_at(
                setup.total, xs, list(xa), lifts[b]))
            worst_sff = max(worst_sff, _gnorm(h_base, nabla_n - jac @ nabla_m))
    return worst_bracket, worst_sff


def test_basic_field_derivatives_match_per_pair_path(riemannian_setups):
    # L2.1 reads every nabla_{X_a} X_b of the lifted base coordinate
    # fields from one seeding of the lift matrix, through the context;
    # the per-pair path seeds each lifted field on its own
    for name, setup, box in riemannian_setups:
        e = basis(setup.n)
        lifts = [setup.basic_field_fn(VectorFieldSpec.constant(ea))
                 for ea in e]
        for p in sample(box, 2, seed=23):
            xs = list(p.coords)
            lift, d, nabla = IdentityContext(setup, p).basic_fields
            for a in range(setup.n):
                xa = primal_array(lifts[a](xs))
                _assert_close(lift[:, a], xa, (name, "X", a))
                for b in range(setup.n):
                    ref = primal_array(geo.cov_deriv_along_at(
                        setup.total, xs, list(xa), lifts[b]))
                    _assert_close(nabla[:, a, b], ref, (name, "nabla", a, b))
                    bracket = primal_array(
                        geo.lie_bracket_at(lifts[a], lifts[b], xs))
                    _assert_close(d[:, a, b] - d[:, b, a], bracket,
                                  (name, "bracket", a, b))


def test_context_scalar_curvatures_match_reference(riemannian_setups):
    # T3.4 and scalar-mu contract the context's Ricci matrices; the
    # reference paths seed the total, base and fiber curvature on their own
    cases = [(name, setup, sample(box, 2, seed=24))
             for name, setup, box in riemannian_setups]
    cases.append(("warped-4to2", WARPED_4TO2, [Point((0.2, -0.4, 0.5, 1.1))]))
    for name, setup, points in cases:
        for p in points:
            ctx = IdentityContext(setup, p)
            _assert_close(ctx.scalar_curvature,
                          geo.scalar_curvature(setup.total, p), (name, "s"))
            _assert_close(ctx.base_scalar_curvature,
                          geo.scalar_curvature(setup.base, ctx.base_point),
                          (name, "s^N"))
            _assert_close(ctx.fiber_scalar_intrinsic(),
                          sub.intrinsic_fiber_scalar_curvature(setup, p),
                          (name, "s^fiber"))


_TWISTED = next(case for case in riemannian_corpus()
                if case[0] == "twisted-3to2")
FLAG_CASES = BUNDLE_CASES + [
    (_TWISTED[0], _TWISTED[1], sample(_TWISTED[2], 2, seed=21))]


@pytest.mark.parametrize("name,setup,points", FLAG_CASES,
                         ids=[case[0] for case in FLAG_CASES])
def test_structure_flags_match_per_pair_path(name, setup, points):
    # one seeding of the lift matrix gives every bracket and every
    # nabla_{X_a} X_b; the per-pair path seeds each pair on its own
    for p in points:
        got = sub._basic_field_violations(
            setup, p, setup.float_core(p),
            geo.christoffels_at(setup.total, list(p.coords)))
        ref = _per_pair_violations(setup, p)
        _assert_close(got, ref, (name, "integrability, sff"))
        flags = sub.structure_flags(setup, [p])
        _assert_close(flags.horizontal_integrable.max_violation, ref[0],
                      (name, "integrable flag"))
        assert flags.map_totally_geodesic.max_violation >= got[1]

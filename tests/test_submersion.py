"""Submersion machinery: projectors, dilation, O'Neill tensors, fibers."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub import catalog
from confsub import geometry as geo
from confsub import submersion as sub
from confsub.geometry import Point
from confsub.identities import IdentityContext
from confsub.jets import EvaluationError, JetSpace, primal
from confsub.linalg import taylor_inverse, taylor_mul
from conftest import (conformal_corpus, context, flat_chart, make_setup,
                      oneill, riemannian_corpus, sample, warped_4to2)
import identity_loops as loops
import jet_reference as jr
from jet_reference import primal_array
from support import constant_field


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
        ctx = IdentityContext(setup, points[:3])
        for pv, ph in zip(ctx.pv, ctx.ph):
            assert np.max(np.abs(ph @ ph - ph)) <= 1e-10, name
            assert np.max(np.abs(pv @ pv - pv)) <= 1e-10, name
            assert np.max(np.abs(ph + pv - np.eye(setup.m))) <= 1e-12, name
            assert np.max(np.abs(ph @ pv)) <= 1e-10, name


def test_projectors_g_symmetric(ex53):
    # g(P_H X, Y) = g(X, P_H Y)
    ctx = IdentityContext(ex53, [Point((0.3, 1.6, 2.0))])
    g, ph = ctx.g[0], ctx.ph[0]
    assert np.max(np.abs(g @ ph - (g @ ph).T)) <= 1e-12


def test_dilation_and_anisotropy(ex51, ex53):
    ctx = IdentityContext(ex51, [Point((0.4, 0.9))])
    assert ctx.lam_sq[0] == pytest.approx(np.exp(2 * 0.9), rel=1e-12)
    assert ctx.anisotropy[0] <= 1e-10
    ctx3 = IdentityContext(ex53, [Point((0.1, 1.7, 2.5))])
    assert ctx3.lam_sq[0] == pytest.approx(2.5 ** 2, rel=1e-12)
    assert ctx3.anisotropy[0] <= 1e-10


def test_oneill_values_example_53(ex53):
    ctx = IdentityContext(ex53, [Point((0.2, 1.8, 2.0))])
    e1, e2, e3 = basis(3)
    t = oneill(ctx.t_tensor[0], e1, e1)
    assert t == pytest.approx((0.0, 0.0, 0.5))
    a = oneill(ctx.a_tensor[0], e2, e3)
    assert np.max(np.abs(a)) <= 1e-12
    assert ctx.h_vec[0] == pytest.approx((0.0, 0.0, 2.0))


def test_oneill_T_reverses_distributions(ex53):
    # T maps (vertical, vertical) -> horizontal and
    # (vertical, horizontal) -> vertical
    ctx = IdentityContext(ex53, [Point((0.5, 2.2, 1.8))])
    pv = ctx.pv[0]
    e1, e2, e3 = basis(3)
    t_vv = oneill(ctx.t_tensor[0], e1, e1)
    assert np.max(np.abs(pv @ t_vv)) <= 1e-9
    t_vh = oneill(ctx.t_tensor[0], e1, e3)
    ph = np.eye(3) - pv
    assert np.max(np.abs(ph @ t_vh)) <= 1e-9


def test_oneill_A_skew_and_alternation(riemannian_setups):
    for name, setup, box in riemannian_setups:
        if setup.n < 2:
            continue
        ctx = IdentityContext(setup, sample(box, 1, seed=13))
        g, a = ctx.g[0], ctx.a_tensor[0]
        x, y = ctx.hframe[0, 0], ctx.hframe[0, 1]
        axy = oneill(a, x, y)
        ayx = oneill(a, y, x)
        # alternation on horizontal vectors (Riemannian case)
        assert np.max(np.abs(axy + ayx)) <= 1e-9, name
        # A_X X = 0 at dilation one
        axx = oneill(a, x, x)
        assert np.max(np.abs(axx)) <= 1e-9, name
        # skew-symmetry: g(A_X Y, V) = -g(Y, A_X V) for vertical V
        v = ctx.vframe[0, 0]
        axv = oneill(a, x, v)
        assert float(axy @ g @ v) == pytest.approx(
            -float(y @ g @ axv), abs=1e-9), name


def test_riemannian_A_is_half_vertical_bracket(riemannian_setups):
    for name, setup, box in riemannian_setups:
        if setup.n < 2:
            continue
        p = sample(box, 1, seed=14)[0]
        ctx = IdentityContext(setup, [p])
        pv = ctx.pv[0]
        e_x = basis(setup.m)[0]
        e_y = basis(setup.m)[1]
        ph = np.eye(setup.m) - pv
        x = ph @ np.asarray(e_x)
        y = ph @ np.asarray(e_y)
        # the bracket of the basic lifts, on the jet reference path
        x_lift = jr.basic_field_fn(
            setup, constant_field(ctx.jac[0] @ x))
        y_lift = jr.basic_field_fn(
            setup, constant_field(ctx.jac[0] @ y))
        bracket = jr.lie_bracket_at(x_lift, y_lift, list(p.coords))
        vb = pv @ primal_array(bracket)
        a = oneill(ctx.a_tensor[0], x, y)
        assert np.max(np.abs(a - 0.5 * vb)) <= 1e-8, name


def test_mean_curvature_zero_for_tg_fibers(ex51):
    h = IdentityContext(ex51, [Point((1.0, 0.5))]).h_vec
    assert np.max(np.abs(h)) <= 1e-12


def test_intrinsic_fiber_curvature_one_dim_is_zero(ex51, ex53):
    for setup, p in ((ex51, Point((0.5, 0.25))),
                     (ex53, Point((0.0, 1.5, 2.0)))):
        assert IdentityContext(setup, [p]).fiber_scalar_intrinsic[0] == 0.0


def test_intrinsic_fiber_curvature_curved_fiber(riemannian_setups):
    name, setup, box = riemannian_setups[3]
    assert name == "curved-fiber-3to1"
    p = sample(box, 1, seed=15)[0]
    s = IdentityContext(setup, [p]).fiber_scalar_intrinsic[0]
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
        points = job.points[:4]
        flags = sub.structure_flags(context(job.setup, points))
        for key, value in want.items():
            assert flags[key].holds is value, (eid, key)


def test_tension_field_vanishes_for_tg_map():
    job = catalog.load_job("5.4")
    ctx = IdentityContext(job.setup, job.points[:1])
    tau = sub.tension_field(job.setup, ctx.h_vec, ctx.hgrad_f, ctx.jac,
                            ctx.lam_sq)
    assert np.max(np.abs(tau)) <= 1e-12


def test_not_a_submersion_detected():
    total = flat_chart(3)
    base = flat_chart(2, prefix="y")
    bad = make_setup(total, base, ["x1", "x1"])  # rank-deficient
    with pytest.raises(sub.NotASubmersionError):
        IdentityContext(bad, [Point((0.1, 0.2, 0.3))])


def test_horizontal_lift_pushes_forward():
    job = catalog.load_job("5.3")
    setup = job.setup
    ctx = IdentityContext(setup, [Point((0.3, 2.0, 1.5))])
    lift = ctx.basic_fields[0][0]  # column a lifts the base field e_a
    push = ctx.jac[0] @ lift[:, 0]
    assert push == pytest.approx((1.0, 0.0), abs=1e-12)


# -- the context's O'Neill values against the per-field reference path ---

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
ONEILL_CASES = [_catalog_case(eid) for eid in catalog.EXAMPLE_IDS] + [
    ("warped-4to2", WARPED_4TO2,
     [Point((0.2, -0.4, 0.5, 1.1)), Point((-0.7, 0.3, 2.0, -0.6))]),
    (_CONE[0], _CONE[1], _CONE[2][:2])]


def _hprime_fn(setup):
    """H' = -(lambda^2 / 2) v grad(1 / lambda^2) as a component function."""
    def fn(zs):
        grad = jr.gradient_at(setup.total,
                              lambda ws: 1.0 / jr.lambda_sq_at(setup, ws), zs)
        pv, _ = jr.projectors_at(setup, zs)
        lam_sq = jr.lambda_sq_at(setup, zs)
        return [-0.5 * lam_sq * c for c in jr.mat_vec(pv, grad)]
    return fn


@pytest.mark.parametrize("name,setup,points", ONEILL_CASES,
                         ids=[case[0] for case in ONEILL_CASES])
def test_context_oneill_values_match_per_field_path(name, setup, points):
    rng = np.random.default_rng(20261017)
    const = jr.const_fn
    m, n = setup.m, setup.n
    e = basis(m)
    ctx = IdentityContext(setup, points)
    for i, p in enumerate(points):
        xs = list(p.coords)
        dt, da, dh, dhp = (x[i] for x in ctx._nabla)
        t_tensor, a_tensor = ctx.t_tensor[i], ctx.a_tensor[i]
        h_vec, hp_vec = ctx.h_vec[i], ctx.hp_vec[i]
        t_ref = {}
        for a in range(m):
            for b in range(m):
                t_ref[a, b] = primal_array(jr.oneill_T_at(
                    setup, xs, const(e[a]), const(e[b])))
                a_ref = primal_array(jr.oneill_A_at(
                    setup, xs, const(e[a]), const(e[b])))
                _assert_close(t_tensor[:, a, b], t_ref[a, b], (name, "T"))
                _assert_close(a_tensor[:, a, b], a_ref, (name, "A"))
        _assert_close(h_vec,
                      primal_array(jr.mean_curvature_at(setup, xs)),
                      (name, "H"))
        # H as the trace of T against P_v g^{-1}, summed pair by pair
        pv, _ = jr.projectors_at(setup, xs)
        w = (np.asarray(pv, float)
             @ np.linalg.inv(jr.metric_matrix(setup.total, p)))
        h_ref = sum(w[a, b] * t_ref[a, b] for a in range(m) for b in range(m))
        _assert_close(h_vec, h_ref / (m - n), (name, "H"))
        _assert_close(hp_vec, primal_array(_hprime_fn(setup)(xs)),
                      (name, "H'"))
        # nabla T and nabla A are multilinear: random arguments cover
        # every component; H and H' are differentiated as fields
        for _ in range(2):
            d, u, v = rng.standard_normal((3, m))
            dt_ref = primal_array(jr.cov_deriv_T_at(
                setup, xs, list(d), const(u), const(v)))
            da_ref = primal_array(jr.cov_deriv_A_at(
                setup, xs, list(d), const(u), const(v)))
            _assert_close(np.einsum("lkab,l,a,b->k", dt, d, u, v), dt_ref,
                          (name, "dT"))
            _assert_close(np.einsum("lkab,l,a,b->k", da, d, u, v), da_ref,
                          (name, "dA"))
            dh_ref = primal_array(jr.cov_deriv_along_at(
                setup.total, xs, list(d),
                lambda zs: jr.mean_curvature_at(setup, zs)))
            dhp_ref = primal_array(jr.cov_deriv_along_at(
                setup.total, xs, list(d), _hprime_fn(setup)))
            _assert_close(d @ dh, dh_ref, (name, "dH"))
            _assert_close(d @ dhp, dhp_ref, (name, "dH'"))


@pytest.mark.parametrize("name,setup,point", [
    ("5.3", catalog.load_job("5.3").setup, Point((0.2, 1.8, 2.0))),
    ("warped-4to2", WARPED_4TO2, Point((0.2, -0.4, 0.5, 1.1)))])
def test_context_seeds_at_most_two_levels_deep(monkeypatch, name, setup,
                                               point):
    # Riem, Gamma, Hess f, T, A, H, H' and every covariant derivative come
    # from the three order-2 seedings of CorePartials (the metric, the
    # Jacobian with its inner seeding, h o F), plus the Jacobian seeding
    # of the float core
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
    ctx = IdentityContext(setup, [point])
    for attr in ("riem", "gamma", "hess_f", "t_tensor", "a_tensor", "h_vec",
                 "hp_vec", "_nabla"):
        getattr(ctx, attr)
    assert depth["max"] == 2, name
    if name == "5.3":
        assert depth["seeds"] <= 5


# -- basic fields and scalar curvatures against the per-pair path -------

def test_basic_field_derivatives_match_per_pair_path(riemannian_setups):
    # L2.1 reads every nabla_{X_a} X_b of the lifted base coordinate
    # fields from one seeding of the lift matrix, through the context;
    # the per-pair path seeds each lifted field on its own
    for name, setup, box in riemannian_setups:
        e = basis(setup.n)
        lifts = [jr.basic_field_fn(setup, constant_field(ea))
                 for ea in e]
        for p in sample(box, 2, seed=23):
            xs = list(p.coords)
            lift, d, nabla = (x[0] for x in
                              IdentityContext(setup, [p]).basic_fields)
            for a in range(setup.n):
                xa = primal_array(lifts[a](xs))
                _assert_close(lift[:, a], xa, (name, "X", a))
                for b in range(setup.n):
                    ref = primal_array(jr.cov_deriv_along_at(
                        setup.total, xs, list(xa), lifts[b]))
                    _assert_close(nabla[:, a, b], ref, (name, "nabla", a, b))
                    bracket = primal_array(
                        jr.lie_bracket_at(lifts[a], lifts[b], xs))
                    _assert_close(d[:, a, b] - d[:, b, a], bracket,
                                  (name, "bracket", a, b))


def test_context_scalar_curvatures_match_reference(riemannian_setups):
    # T3.4 and scalar-mu contract the context's Ricci matrices; the
    # reference paths seed the total, base and fiber curvature on their own
    cases = [(name, setup, sample(box, 2, seed=24))
             for name, setup, box in riemannian_setups]
    cases.append(("warped-4to2", WARPED_4TO2, [Point((0.2, -0.4, 0.5, 1.1))]))
    for name, setup, points in cases:
        ctx = IdentityContext(setup, points)
        for i, p in enumerate(points):
            _assert_close(ctx.scalar_curvature[i],
                          jr.scalar_curvature(setup.total, p), (name, "s"))
            _assert_close(ctx.base_scalar_curvature[i],
                          jr.scalar_curvature(setup.base,
                                              Point(ctx.base_coords[i])),
                          (name, "s^N"))
            _assert_close(ctx.fiber_scalar_intrinsic[i],
                          jr.intrinsic_fiber_scalar_curvature(setup, p),
                          (name, "s^fiber"))


# ---------------------------------------------------------------------
# batched float core
# ---------------------------------------------------------------------

def _rref_kernel(mat, tol=1e-10):
    """Kernel basis of one float matrix, the loop reference for
    ``linalg.null_space_bases``: reduced row echelon form with columns
    left to right, pivot rows by largest magnitude, one basis vector per
    free column in order."""
    rows = [list(map(float, r)) for r in mat]
    nrows, ncols = len(rows), len(rows[0])
    scale = max((abs(x) for r in rows for x in r), default=1.0) or 1.0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = max(range(r, nrows), key=lambda i: abs(rows[i][c]))
        if abs(rows[pivot][c]) <= tol * scale:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0.0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for c in (c for c in range(ncols) if c not in pivots):
        v = [0.0] * ncols
        v[c] = 1.0
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][c]
        basis.append(v)
    return basis


def _gram_schmidt(g, vectors):
    """Loop reference for ``geo.orthonormal_frames`` at one point."""
    out = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for _ in range(2):
            for u in out:
                w = w - (u @ g @ w) * u
        out.append(w / np.sqrt(w @ g @ w))
    return np.array(out)


def _flat_sweep_setup():
    total = geo.ChartManifold.from_strings(
        ["x1", "x2"], [["exp(0.7*x2)", "0"], ["0", "1"]])
    return make_setup(total, flat_chart(1, "y"), ["x1"])


def _fiber_2d_setup():
    warp = "(2.2 + sin(x1))^2"
    total = geo.ChartManifold.from_strings(
        ["x1", "x2", "x3", "x4"],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", warp, "0"],
         ["0", "0", "0", f"{warp}*(2.8 + cos(x3))^2"]])
    return make_setup(total, flat_chart(2, "y"), ["x1", "x2"])


def _mixed_pivot_setup():
    # dJ's first column vanishes on x1 = 0 and its first row's pivot
    # moves to the second row where x2 != 0, so points of one batch take
    # different pivot rows and free columns
    return make_setup(flat_chart(3), flat_chart(2, "y"),
                      ["x2 + x1^2", "x3 + x1*x2"])


_BOX4 = [(-1.0, 1.0)] * 4
FLOAT_CORE_CASES = conformal_corpus() + [
    ("flat-sweep", _flat_sweep_setup(), sample([(-1.5, 1.5)] * 2, 40)),
    ("fiber-2d", _fiber_2d_setup(), sample(_BOX4, 20)),
    ("warped-4to2", WARPED_4TO2, sample(_BOX4, 20, seed=5)),
    ("mixed-pivots", _mixed_pivot_setup(),
     [Point(c) for c in ((0.0, 0.0, 0.3), (0.0, 0.5, -0.2), (0.4, 0.2, 0.1),
                         (-0.7, 0.0, 0.9), (0.0, -1.5, 0.0))])]


# the arrays a context holds from ``SubmersionSetup.float_cores``
FLOAT_CORE_ARRAYS = ("g", "ginv", "jac", "frame", "pv", "ph", "lam_sq",
                     "base_coords", "h_base", "push", "anisotropy")


@pytest.mark.parametrize("name,setup,points", FLOAT_CORE_CASES,
                         ids=[case[0] for case in FLOAT_CORE_CASES])
def test_float_cores_match_generic_layer(monkeypatch, name, setup, points):
    # the batch seeds the Jacobian once for every point; each point's
    # slices, read by its context, and those of the point alone match the
    # generic layer, frames compared as vectors so their signs and order
    # count; the stacked anisotropy matches the loop over frame pairs
    counts = Counter()
    real_seed = JetSpace.seed

    def counting_seed(self, *args):
        counts["seed"] += 1
        return real_seed(self, *args)

    monkeypatch.setattr(JetSpace, "seed", counting_seed)
    run = IdentityContext(setup, points)
    assert counts["seed"] == 1
    assert len(run.g) == len(points)
    for i, p in enumerate(points):
        xs = list(p.coords)
        g = jr.metric_matrix(setup.total, p)
        jac = jr.jacobian(setup, p)
        pv, ph = (primal_array(a) for a in jr.projectors_at(setup, xs))
        lift = primal_array(jr.core_matrices_at(setup, xs)[4])
        base_point = Point(setup.map_point_at(p.coords))
        ref = {"g": g, "ginv": np.array(jr.mat_inverse(g.tolist())),
               "jac": jac, "pv": pv, "ph": ph,
               "lam_sq": primal(jr.lambda_sq_at(setup, xs)),
               "h_base": jr.metric_matrix(setup.base, base_point),
               "vframe": _gram_schmidt(g, _rref_kernel(jac)),
               "hframe": _gram_schmidt(g, lift.T)}
        # the run's context at the point, and the point's own stack of one
        for got, k in ((run, i), (IdentityContext(setup, [p]), 0)):
            for key, value in ref.items():
                _assert_close(getattr(got, key)[k], value,
                              (name, p.coords, key))
            _assert_close(got.base_coords[k], base_point.coords,
                          (name, p.coords, "base_coords"))
            _assert_close(got.hyp_conformal.violation[k],
                          loops.Loops(got, k).hyp_conformal().violation,
                          (name, p.coords, "anisotropy"))


def test_float_cores_rerun_stacks_the_points_alone(monkeypatch, ex53):
    # a batch that fails while every point alone evaluates gives the stack
    # of the one-point cores
    points = catalog.load_job("5.3").points[:4]
    batch = IdentityContext(ex53, points)
    real = sub.SubmersionSetup._float_cores

    def batch_fails(self, xs):
        if len(xs) > 1:
            raise ValueError("non-finite value in the float core")
        return real(self, xs)

    monkeypatch.setattr(sub.SubmersionSetup, "_float_cores", batch_fails)
    rerun = IdentityContext(ex53, points)
    for key in FLOAT_CORE_ARRAYS:
        _assert_close(getattr(rerun, key), getattr(batch, key), key)
    # the rerun's partials cover the same points
    for got, ref in zip(rerun.partials.pv, batch.partials.pv):
        _assert_close(got, ref, "partials.pv")


# ---------------------------------------------------------------------
# core partials by the matrix product rule
# ---------------------------------------------------------------------

def _assert_triples_close(got, ref, what):
    for order, (g, r) in enumerate(zip(got, ref)):
        _assert_close(g, primal_array(r), (what, order))


def _check_core_partials(setup, points):
    """Each point's slices of the run's stacked CorePartials, and
    christoffel_partials_at, against the jet layer: P_v and 1/lambda^2
    seeded at order 2, the lift matrix at order 1 and Gamma seeded over
    the nested christoffels_at."""
    partials = IdentityContext(setup, points).partials
    for i, p in enumerate(points):
        xs = list(p.coords)

        def got(name):
            return tuple(a[i] for a in getattr(partials, name))
        _assert_triples_close(got("pv"), geo.coordinate_partials(
            lambda zs: jr.projectors_at(setup, zs)[0], xs, order=2),
            (p, "P_v"))
        _assert_triples_close(got("inv_lambda_sq"), geo.coordinate_partials(
            lambda zs: 1.0 / jr.lambda_sq_at(setup, zs), xs, order=2),
            (p, "f"))
        _assert_triples_close(got("lift")[:2], geo.coordinate_partials(
            lambda zs: jr.core_matrices_at(setup, zs)[4], xs), (p, "lift"))
        gamma = geo.coordinate_partials(
            lambda zs: jr.christoffels_at(setup.total, zs), xs)
        _assert_triples_close(got("christoffels"), gamma, (p, "Gamma"))
        _assert_triples_close(jr.christoffel_partials_at(setup.total, xs),
                              gamma, (p, "christoffel_partials_at"))


_TWISTED = next(case for case in riemannian_corpus()
                if case[0] == "twisted-3to2")
CORE_PARTIAL_CASES = ONEILL_CASES[:5] + [
    (_TWISTED[0], _TWISTED[1], sample(_TWISTED[2], 2, seed=25)),
    ("fiber-2d", _fiber_2d_setup(), sample(_BOX4, 2, seed=26)),
    ("mixed-pivots", _mixed_pivot_setup(),
     [Point((0.0, 0.5, -0.2)), Point((-0.7, 0.0, 0.9))])]


@pytest.mark.parametrize("name,setup,points", CORE_PARTIAL_CASES,
                         ids=[case[0] for case in CORE_PARTIAL_CASES])
def test_core_partials_match_jet_layer(name, setup, points):
    _check_core_partials(setup, points)


STACKED_ENTRIES = ("metric", "christoffels", "jac", "ginv", "k", "lift",
                   "pv", "vtrace_form", "lam_sq", "inv_lambda_sq", "oneill",
                   "base_curvature")
STACK_CASES = [(eid, catalog.load_job(eid).setup, catalog.default_points(eid))
               for eid in catalog.EXAMPLE_IDS] + [
    ("warped-4to2", WARPED_4TO2, sample(_BOX4, 6, seed=27))]


@pytest.mark.parametrize("name,setup,points", STACK_CASES,
                         ids=[case[0] for case in STACK_CASES])
def test_stacked_core_partials_equal_each_point_alone(name, setup, points):
    # every entry of the run's CorePartials (Gamma and dGamma, the P_v,
    # lift, lambda^2 and 1/lambda^2 triples, T, A and the base curvature
    # among them) is bit for bit that of the point's one-point stack
    stack = IdentityContext(setup, points).partials
    for i, p in enumerate(points):
        alone = IdentityContext(setup, [p]).partials
        for entry in STACKED_ENTRIES:
            got, ref = getattr(stack, entry), getattr(alone, entry)
            assert len(got) == len(ref)
            for slot, (x, y) in enumerate(zip(got, ref)):
                assert x.shape[0] == len(points) and y.shape[0] == 1
                assert np.array_equal(x[i], y[0]), (name, p.coords, entry,
                                                    slot)


def test_taylor_arithmetic_over_a_stack_equals_each_point_alone():
    rng = np.random.default_rng(11)

    def triple(points, rows, cols, dirs=3):
        return (rng.normal(size=(points, rows, cols)),
                rng.normal(size=(points, dirs, rows, cols)),
                rng.normal(size=(points, dirs, dirs, rows, cols)))

    a, b = triple(5, 2, 3), triple(5, 3, 4)
    square = triple(5, 3, 3)
    square = (square[0] + 3.0 * np.eye(3),) + square[1:]
    for fn, args in ((taylor_mul, (a, b)), (taylor_inverse, (square,))):
        stacked = fn(*args)
        for i in range(5):
            alone = fn(*(tuple(x[i:i + 1] for x in arg) for arg in args))
            for x, y in zip(stacked, alone):
                assert np.array_equal(x[i:i + 1], y), (fn.__name__, i)


def test_stacked_partials_rerun_raises_the_first_failing_point(ex53):
    # a stacked entry that raises is evaluated again one point at a time,
    # so the error is that of the first failing point, as it alone raises
    points = catalog.load_job("5.3").points[:3]
    base_coords = IdentityContext(ex53, points).base_coords
    # x3^-2 has no value on x3 = 0
    xs = np.array([p.coords for p in points])
    xs[1:, 2] = 0.0
    with pytest.raises(EvaluationError) as exc:
        sub.CorePartials(ex53, xs, base_coords).christoffels
    with pytest.raises(EvaluationError) as ref:
        sub.CorePartials(ex53, xs[1:2], base_coords[1:2]).christoffels
    assert str(exc.value) == str(ref.value)
    assert "zero raised to a negative power" in str(exc.value)


def test_one_point_partials_warn_as_inside_a_stack():
    # lambda^2 ~ 2e-300 at (2.3, 0.5), so the powers of 1/lambda^2 underflow
    # and its partials divide by zero: a stack of one reads every entry
    # with NumPy's warnings off, as a larger stack does, and equals the
    # point's rows in a stack of two
    total = geo.ChartManifold.from_strings(
        ["x1", "x2"], [["exp(300*x1)", "0"], ["0", "1"]])
    setup = make_setup(total, flat_chart(1, "y"), ["x1"])
    point = Point((2.3, 0.5))
    alone = IdentityContext(setup, [point]).partials
    stack = IdentityContext(setup, [point, Point((0.1, 0.5))]).partials
    for entry in STACKED_ENTRIES:
        got = getattr(alone, entry)  # a warning is an error here
        for slot, (x, y) in enumerate(zip(got, getattr(stack, entry))):
            assert np.array_equal(x[0], y[0], equal_nan=True), (entry, slot)
    assert not np.isfinite(alone.inv_lambda_sq[1]).all()


_COEF = st.floats(-0.5, 0.5)


@settings(max_examples=20, deadline=None)
@given(a=st.tuples(*[_COEF] * 4), c=st.floats(-0.15, 0.15),
       e=st.tuples(*[_COEF] * 3),
       x=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_core_partials_match_jet_layer_on_generated_metrics(a, c, e, x):
    # exp/polynomial metrics, positive definite on the unit box since the
    # off-diagonal entry is dominated; the map's first two Jacobian
    # columns have determinant 1, so it is a submersion everywhere
    def f(v):
        return f"{v:.6f}"
    total = geo.ChartManifold.from_strings(
        ["x1", "x2", "x3"],
        [[f"exp({f(a[0])}*x1 + {f(a[1])}*x3)", f"{f(c)}*x1*x3", "0"],
         [f"{f(c)}*x1*x3", f"1 + {f(a[2])}^2*x2^2", "0"],
         ["0", "0", f"exp({f(a[3])}*x2) + x1^2"]])
    base = geo.ChartManifold.from_strings(
        ["y1", "y2"], [[f"exp({f(e[0])}*y1)", "0"], ["0", "1 + y2^2"]])
    setup = make_setup(total, base, [f"x1 + {f(e[1])}*x3^2",
                                     f"x2 + {f(e[2])}*x1*x3"])
    _check_core_partials(setup, [Point(x)])


# ---------------------------------------------------------------------
# fiber curvature from the blocks of the metric seeding
# ---------------------------------------------------------------------

def _scattered_fiber_setup():
    """A 4-D metric over the (x1, x3)-plane, fibers along x2 and x4: the
    fiber coordinates are neither trailing nor contiguous, and the fiber
    metric has an off-diagonal entry and depends on both sides' coordinates;
    the rows are diagonally dominant on the unit box."""
    total = geo.ChartManifold.from_strings(
        ["x1", "x2", "x3", "x4"],
        [["1", "0", "0", "0"],
         ["0", "(2 + sin(x1))^2", "0.3*sin(x4)", "0.2*sin(x1 + x4)"],
         ["0", "0.3*sin(x4)", "1", "0"],
         ["0", "0.2*sin(x1 + x4)", "0", "(2 + cos(x2))^2*(1.5 + x3^2)"]])
    return make_setup(total, flat_chart(2, "y"), ["x1", "x3"])


FIBER_BLOCK_CASES = [
    ("warped-4to2", WARPED_4TO2, sample(_BOX4, 4, seed=27), [2, 3]),
    ("scattered-fiber", _scattered_fiber_setup(), sample(_BOX4, 4, seed=28),
     [1, 3])]


@pytest.mark.parametrize("name,setup,points,fiber", FIBER_BLOCK_CASES,
                         ids=[case[0] for case in FIBER_BLOCK_CASES])
def test_fiber_blocks_match_each_slice_chart(name, setup, points, fiber):
    # the fiber metric, Riem and Ric of a run, read off the vertical
    # blocks of its one metric seeding, against each point's own slice
    # chart, which evaluates the total metric again with the fiber
    # coordinates spliced in and seeds them at that point alone
    idx, gv, riem, ric = IdentityContext(setup, points)._fiber_curvature
    assert idx.tolist() == [fiber] * len(points)
    for i, p in enumerate(points):
        slice_chart = jr.fiber_slice_chart(setup, p, jr.jacobian(setup, p))
        assert slice_chart.vertical_indices == fiber
        xs = slice_chart.fiber_coords(p)
        riem_ref = jr.curvature_tensor_at(slice_chart, xs)
        _assert_close(gv[i], primal_array(slice_chart.metric_at(xs)),
                      (name, i, "g_v"))
        _assert_close(riem[i], riem_ref, (name, i, "Riem_v"))
        _assert_close(ric[i], np.einsum("ikij->jk", riem_ref),
                      (name, i, "Ric_v"))
        assert np.abs(riem_ref).max() > 0.01, (name, i)  # curved fibers

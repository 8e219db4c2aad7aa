"""The identity checks, contracted over frame-basis arrays, against their
loop forms (``identity_loops``): same records in the same order, with the
same labels, verdicts and hypotheses, and every value within
1e-12 (1 + |reference|)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub import catalog
from confsub import soliton as sol
from confsub import submersion as sub
from confsub.geometry import Point
from confsub.identities import (IdentityContext, _hypothesis_lists,
                                run_check)
from conftest import (ALL_CHECK_IDS, all_rows, chart, conformal_corpus,
                      make_setup, riemannian_corpus, rows_by_point, sample,
                      warped_4to2)
from identity_loops import Loops, reference_check
from support import constant_field


def _close(got, ref, what, scale=None):
    scale = 1.0 + abs(ref) if scale is None else scale
    assert abs(got - ref) <= 1e-12 * scale, (what, got, ref)


def _assert_hypotheses(got, ref, what):
    assert [h["name"] for h in got] == [h["name"] for h in ref], what
    for h, r in zip(got, ref):
        assert h["satisfied"] == r["satisfied"], (what, h["name"])
        _close(h["violation"], r["violation"], (what, h["name"]))


def _assert_same_records(setup, points):
    # the checks run once over all the points of one context; the loops
    # read each point of a second one
    ctx = IdentityContext(setup, points)
    loops_ctx = IdentityContext(setup, points)
    for check_id in ALL_CHECK_IDS:
        for i, got in enumerate(rows_by_point(
                run_check(check_id, setup, points, ctx=ctx))):
            _assert_point_records(check_id, got,
                                  reference_check(check_id, loops_ctx, i=i))


def _assert_point_records(check_id, got, ref):
    assert [r["label"] for r in got] == [r["label"] for r in ref], \
        check_id
    for rep, want in zip(got, ref):
        what = (check_id, rep["label"], tuple(rep["point"]))
        assert rep["id"] == want["id"], what
        assert rep["verdict"] == want["verdict"], what
        assert rep["note"] == want["note"], what
        assert (rep["convention_sensitive"]
                == want["convention_sensitive"]), what
        _close(rep["lhs"], want["lhs"], what + ("lhs",))
        _close(rep["rhs"], want["rhs"], what + ("rhs",))
        # a residual cancels lhs against rhs: it moves by rounding on
        # their scale
        scale = 1.0 + abs(want["lhs"]) + abs(want["rhs"])
        _close(rep["abs_residual"], want["abs_residual"], what, scale)
        _close(rep["rel_residual"], want["rel_residual"], what, scale)
        assert list(rep["terms"]) == list(want["terms"]), what
        for name, value in want["terms"].items():
            _close(rep["terms"][name], value, what + (name,))
        _assert_hypotheses(rep["hypotheses"], want["hypotheses"], what)


def _catalog_case(eid):
    job = catalog.load_job(eid)
    return eid, job.setup, job.points[:3]


_TWISTED = next(c for c in riemannian_corpus() if c[0] == "twisted-3to2")
_CONE = next(c for c in conformal_corpus() if c[0] == "cone")

# the benchmark's fiber-2d shape: a warped product of the plane with a
# curved 2-D torus of revolution
FIBER_2D = make_setup(
    chart("x1 x2 x3 x4",
          ["1, 0, 0, 0", "0, 1, 0, 0", "0, 0, (2.3 + sin(x1))^2, 0",
           "0, 0, 0, (2.3 + sin(x1))^2*(2.7 + cos(x3))^2"]),
    chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])

CASES = [_catalog_case(eid) for eid in catalog.EXAMPLE_IDS] + [
    ("warped-4to2", warped_4to2(),
     [Point((0.2, -0.4, 0.5, 1.1)), Point((-0.7, 0.3, 2.0, -0.6))]),
    ("twisted-3to2", _TWISTED[1], sample(_TWISTED[2], 2, seed=31)),
    ("fiber-2d", FIBER_2D, sample([(-1.0, 1.0)] * 4, 2, seed=32)),
    ("cone", _CONE[1], _CONE[2][:2])]


@pytest.mark.parametrize("name,setup,points", CASES,
                         ids=[case[0] for case in CASES])
def test_contractions_match_loop_forms(name, setup, points):
    _assert_same_records(setup, points)


# a conformal submersion R^3 -> R^2, (x1, x2, x3) -> (x1, x2), whose
# total metric is exp(2 phi) on the horizontal block plus a vertical
# part with a twist term: T, A, a vertical dilation gradient and a
# non-integrable horizontal distribution all occur
_COEFF = st.floats(-0.6, 0.6, allow_nan=False).map(lambda c: round(c, 3))


@settings(max_examples=20, deadline=None)
@given(a=_COEFF, b=_COEFF, c=_COEFF, d=_COEFF, e=_COEFF,
       x=st.tuples(*[st.floats(-0.8, 0.8)] * 3))
def test_contractions_match_loop_forms_on_generated_metrics(a, b, c, d, e,
                                                            x):
    phi = f"exp(2*({a}*x1 + {b}*x3))"
    warp = f"exp(2*({c}*x2 + {d}*x1))"
    setup = make_setup(
        chart("x1 x2 x3", [f"{phi} + ({e})^2*{warp}*x2^2, 0, ({e})*{warp}*x2",
                           f"0, {phi}, 0",
                           f"({e})*{warp}*x2, 0, {warp}"]),
        chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])
    _assert_same_records(setup, [Point(x)])


HYP_CASES = CASES + [("curved-fiber-3to1", c[1], sample(c[2], 2, seed=33))
                     for c in riemannian_corpus()
                     if c[0] == "curved-fiber-3to1"]


@pytest.mark.parametrize("name,setup,points", HYP_CASES,
                         ids=[case[0] for case in HYP_CASES])
def test_frame_suprema_match_loop_forms(name, setup, points):
    # the hypotheses, the structure flags and the soliton reports read
    # the same sup |T(U_i, U_j)|, sup |A(X_a, X_b)| and umbilicity values
    ctx = IdentityContext(setup, points)
    loops_ctx = IdentityContext(setup, points)
    loops = [Loops(loops_ctx, i) for i in range(len(points))]
    for hyp in ("hyp_conformal", "hyp_fibers_tg", "hyp_horizontal_tg",
                "hyp_horizontal_integrable", "hyp_homothetic",
                "hyp_map_tg", "hyp_umbilical"):
        lists = _hypothesis_lists([getattr(ctx, hyp)], len(points))
        for (got,), loop in zip(lists, loops):
            _assert_hypotheses([got], [getattr(loop, hyp)()._asdict()],
                               (name, hyp))
    # each flag is the supremum over the points of the hypothesis of its
    # name, and lambda_vertical_constant that of |grad_v f|
    flags = sub.structure_flags(ctx)
    at_points = {flag: [getattr(loop, hyp)().violation for loop in loops]
                 for flag, hyp in (
                     ("fibers_totally_geodesic", "hyp_fibers_tg"),
                     ("fibers_totally_umbilical", "hyp_umbilical"),
                     ("horizontal_integrable", "hyp_horizontal_integrable"),
                     ("horizontal_totally_geodesic", "hyp_horizontal_tg"),
                     ("homothetic", "hyp_homothetic"),
                     ("map_totally_geodesic", "hyp_map_tg"))}
    at_points["lambda_vertical_constant"] = [
        loop.norm(loop.pv @ loop.grad_f) for loop in loops]
    assert sorted(flags) == sorted(at_points), name
    for flag, values in at_points.items():
        _close(flags[flag].max_violation, max(values), (name, flag))
        assert flags[flag].holds == (max(values) <= sub.PROPERTY_TOL), (
            name, flag)


@pytest.mark.parametrize("name,setup,points", CASES,
                         ids=[case[0] for case in CASES])
def test_soliton_helpers_match_loop_forms(name, setup, points):
    # the base-soliton formula f3 + f4, the "formula" term of its records
    xi_v = np.arange(1.0, setup.m + 1.0)
    ctx = IdentityContext(setup, points, xi=constant_field(xi_v), mu=0.7)
    loops_ctx = IdentityContext(setup, points)
    f34 = [rec["terms"]["formula"]
           for rec in all_rows(sol.base_soliton_report, ctx)]
    for k in range(len(points)):
        loops = Loops(loops_ctx, k)
        _close(sol._horizontal_div_h(ctx)[k],
               sum(loops.inner(loops.grad_h(x), x) for x in loops.hframe),
               (name, "div H"))
        _close(sol._norm_sq_h(ctx)[k],
               loops.inner(loops.h_vec, loops.h_vec), (name, "|H|^2"))
        _close(ctx.div_hprime[k], loops.div_hprime(), (name, "div H'"))
        ric = ctx.fiber_ric_e[k]
        for i, u in enumerate(loops.vframe):
            for j, v in enumerate(loops.vframe):
                _close(ric[i, j], loops.fiber_ricci_intrinsic(u, v),
                       (name, "Ric^v", i, j))
        hp_f = float(loops.hp_vec @ loops.g @ loops.grad_f)
        ref = (0.7 + loops.div_hprime()
               - 0.25 * loops.lam_sq ** 2
               * loops.inner(loops.vgrad_f, loops.vgrad_f)
               + (setup.n * loops.lam_sq / 2.0) * hp_f
               + (loops.lam_sq / 2.0)
               * loops.inner(loops.vgrad_f, loops.pv @ xi_v))
        _close(f34[k], ref, (name, "f3 + f4"))


# -- the structural rule ---------------------------------------------------

# checks whose left side is the total metric's curvature
LEFT_SIDE_CHECKS = ("G2.12", "G2.13", "G2.14", "G2.15", "G2.16", "R3.11",
                    "R3.12", "R3.13", "C3.1", "C3.2", "C3.3", "T3.4")
LEFT_ARRAYS = ("riem", "ric_matrix", "scalar_curvature")
# the float core's P/dilation part and every array built from the
# projectors, T, A, f = 1/lambda^2 or another chart's curvature
RIGHT_ARRAYS = ("pv", "ph", "lam_sq", "jac", "h_base", "gamma", "t_tensor",
                "a_tensor", "_nabla", "grad_f", "vgrad_f", "hgrad_f",
                "hess_f", "h_vec", "hp_vec", "base_curvature",
                "base_scalar_curvature", "_fiber_curvature", "basic_fields",
                "fiber_scalar_intrinsic")


def _nan_like(value):
    if isinstance(value, tuple):
        return tuple(_nan_like(v) for v in value)
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return np.full(value.shape, np.nan)
    return value  # the fiber coordinates


def _poisoned(setup, points, names):
    """A context over ``points`` whose arrays ``names`` hold NaN in place
    of the values a clean context computes."""
    ctx = IdentityContext(setup, points)
    clean = IdentityContext(setup, points)
    for name in names:
        try:
            value = getattr(clean, name)
        except sub.NotASubmersionError:
            continue  # no fiber chart: no check reads it
        ctx.__dict__[name] = _nan_like(value)
    return ctx


def _pairs_of_records(got, want):
    """(record, record) of two runs over the same points, point by point."""
    got, want = rows_by_point(got), rows_by_point(want)
    assert len(got) == len(want)
    return [pair for g, w in zip(got, want) for pair in zip(g, w)]


def _finite_and_equal(got, want, what):
    assert np.isfinite(got) and got == want, (what, got, want)


@pytest.mark.parametrize("name,setup,points", CASES,
                         ids=[case[0] for case in CASES])
def test_left_side_reads_no_right_side_array(name, setup, points):
    ctx = _poisoned(setup, points, RIGHT_ARRAYS)
    clean = IdentityContext(setup, points)
    for check_id in LEFT_SIDE_CHECKS:
        for rep, want in _pairs_of_records(
                run_check(check_id, setup, points, ctx=ctx),
                run_check(check_id, setup, points, ctx=clean)):
            _finite_and_equal(rep["lhs"], want["lhs"],
                              (name, check_id, rep["label"]))


@pytest.mark.parametrize("name,setup,points", CASES,
                         ids=[case[0] for case in CASES])
def test_right_side_reads_no_left_side_array(name, setup, points):
    ctx = _poisoned(setup, points, LEFT_ARRAYS)
    clean = IdentityContext(setup, points)
    for check_id in ALL_CHECK_IDS:
        for rep, want in _pairs_of_records(
                run_check(check_id, setup, points, ctx=ctx),
                run_check(check_id, setup, points, ctx=clean)):
            what = (name, check_id, rep["label"])
            _finite_and_equal(rep["rhs"], want["rhs"], what)
            for term, value in want["terms"].items():
                _finite_and_equal(rep["terms"][term], value, what + (term,))
            assert rep["hypotheses"] == want["hypotheses"], what
            if check_id not in LEFT_SIDE_CHECKS:
                _finite_and_equal(rep["lhs"], want["lhs"], what)

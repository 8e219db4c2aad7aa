"""Identity verification engine: closure, flags, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confsub import catalog
from confsub.geometry import Point
from confsub.identities import (ALL_CHECK_IDS, CHECKS,
                                CONVENTION_SENSITIVE_IDS, Hypothesis,
                                IdentityContext, RecordTable, build_records,
                                record, run_check, verdict_of)
from confsub.manifest import SOLITON_CHECKS
from conftest import (chart, conformal_corpus, make_setup, one_row, sample,
                      warped_4to2)

FUNDAMENTAL = ("G2.12", "G2.13", "G2.14", "G2.15")


def test_fundamental_equations_close_at_unit_dilation(riemannian_setups):
    for name, setup, box in riemannian_setups:
        points = sample(box, 3, seed=21)
        ctx = IdentityContext(setup, points)
        for check_id in FUNDAMENTAL:
            for rep in run_check(check_id, setup, points, ctx=ctx).rows():
                assert rep["abs_residual"] <= 1e-9, (name, check_id,
                                                     rep["label"])


def test_every_check_runs_everywhere(riemannian_setups):
    # each id yields reports with a definite verdict on every setup
    name, setup, box = riemannian_setups[2]
    points = sample(box, 1, seed=22)
    ctx = IdentityContext(setup, points)
    for check_id in ALL_CHECK_IDS:
        reports = run_check(check_id, setup, points, ctx=ctx).rows()
        assert reports, check_id
        for rep in reports:
            assert rep["verdict"] in ("pass", "fail", "hypothesis-not-met")
            assert rep["id"] == check_id
            assert rep["convention_sensitive"] is (
                check_id in CONVENTION_SENSITIVE_IDS)


def test_check_table_covers_every_id_in_order(riemannian_setups):
    assert tuple(CHECKS) == ALL_CHECK_IDS
    name, setup, box = riemannian_setups[0]
    with pytest.raises(ValueError, match="unknown check id 'G9.99'"):
        run_check("G9.99", setup, sample(box, 1, seed=22))


def test_verdict_rule():
    met, unmet = Hypothesis("a", True, 0.0), Hypothesis("b", False, 2.0)
    # an unmet hypothesis outranks a residual above tol
    assert verdict_of([met, unmet], 5.0, 1e-6) == "hypothesis-not-met"
    assert verdict_of([unmet], 0.0, 1e-6) == "hypothesis-not-met"
    # a value equal to tol passes; above it, or NaN, fails
    assert verdict_of([met], 1e-6, 1e-6) == "pass"
    assert verdict_of([], 0.0, 0.0) == "pass"
    assert verdict_of([met], 1.5e-6, 1e-6) == "fail"
    assert verdict_of([], float("nan"), 1e-6) == "fail"


def test_record_reads_the_residual_its_kind_compares():
    # an identity record compares its relative residual, a fit its
    # absolute one
    rec = one_row(record, "G2.12", (0, 1), 3.0, 3.0 + 3e-6, [], 1e-6)
    assert rec["abs_residual"] > 1e-6 >= rec["rel_residual"]
    assert rec["verdict"] == "pass"
    assert rec["kind"] == "identity" and rec["point"] == [0.0, 1.0]
    fit = one_row(record, "fit-mu", (), 3.0, 3.0 + 3e-6, [], 1e-6,
                  residual=3e-6, scale=4.0, absolute=True)
    assert fit["verdict"] == "fail" and fit["kind"] == "soliton"
    assert fit["rel_residual"] == 3e-6 / 4.0
    # the default scale takes in every term
    rec = one_row(record, "T3.4", (), 1.0, 0.0, [], 1e-6, terms={"t": -3.0})
    assert rec["rel_residual"] == 1.0 / 4.0


_EDGE = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_FLOATS = st.floats() | _EDGE


def _scalar_record(check_id, point, lhs, rhs, hypotheses, tol, *, terms,
                   label, note, residual, scale, absolute):
    """A record by scalar arithmetic, one value at a time, as a reference
    independent of the columnar builder."""
    abs_res = abs(lhs - rhs) if residual is None else residual
    if scale is None:
        scale = 1.0 + max([abs(lhs), abs(rhs)]
                          + [abs(v) for v in terms.values()])
    rel = abs_res / scale
    hyps = [Hypothesis(h["name"], h["satisfied"], h["violation"])
            for h in hypotheses]
    return {"kind": "identity" if check_id in ALL_CHECK_IDS else "soliton",
            "id": check_id, "label": label, "point": list(point),
            "lhs": lhs, "rhs": rhs, "abs_residual": abs_res,
            "rel_residual": rel, "hypotheses": hypotheses,
            "verdict": verdict_of(hyps, abs_res if absolute else rel, tol),
            "convention_sensitive": bool(point)
            and check_id in CONVENTION_SENSITIVE_IDS,
            "terms": terms, "note": note}


def _rows(check_id, points, lhs, rhs, hypotheses, tol, *, labels, terms={},
          note="", residual=None, scale=None, absolute=False):
    """``build_records``' arguments, one row at a time."""
    for i in range(len(lhs)):
        yield (check_id, tuple(points[i]), lhs[i], rhs[i], hypotheses[i],
               tol), dict(
            terms={name: col[i] for name, col in terms.items()},
            label=labels[i], note=note,
            residual=None if residual is None else residual[i],
            scale=None if scale is None else scale[i], absolute=absolute)


def _assert_builder_matches_record(check_id, points, *args, **kwargs):
    # row by row, the columnar builder gives what its one-row call
    # record() and scalar arithmetic give; json.dumps tells NaN, -0.0 and
    # 0.0 apart, which == does not.  The table holds each point list
    # once, and its records their point's index
    table = RecordTable({id(p): p for p in points}.values())
    slot = {id(p): i for i, p in enumerate(table.points)}
    build_records(table, check_id, [slot[id(p)] for p in points], *args,
                  **kwargs)
    got = table.rows()
    rows = list(_rows(check_id, points, *args, **kwargs))
    assert len(got) == len(rows)
    for rec, (row, options) in zip(got, rows):
        one = one_row(record, *row[:4], [
            Hypothesis(h["name"], h["satisfied"], h["violation"])
            for h in row[4]], row[5], **options)
        text = json.dumps(rec, sort_keys=True)
        assert text == json.dumps(one, sort_keys=True)
        assert text == json.dumps(_scalar_record(*row, **options),
                                  sort_keys=True)
    return got


@st.composite
def _check_columns(draw):
    """Columns of a check's records over a few points, each point's
    records holding its one point list and one hypotheses list, some of
    them unmet."""
    points, hypotheses = [], []
    for _ in range(draw(st.integers(1, 3))):
        point = draw(st.lists(_FLOATS, max_size=3))
        hyps = draw(st.lists(st.fixed_dictionaries(
            {"name": st.text(max_size=3), "satisfied": st.booleans(),
             "violation": _FLOATS}), max_size=2))
        count = draw(st.integers(1, 3))
        points += [point] * count
        hypotheses += [hyps] * count
    n = len(points)
    column = st.lists(_FLOATS, min_size=n, max_size=n)
    names = draw(st.lists(st.text(max_size=3), unique=True, max_size=3))
    scale = st.lists(_FLOATS.filter(lambda x: x != 0), min_size=n,
                     max_size=n)
    return dict(
        check_id=draw(st.sampled_from(ALL_CHECK_IDS + SOLITON_CHECKS)),
        points=points, lhs=draw(column), rhs=draw(column),
        hypotheses=hypotheses, tol=draw(_FLOATS),
        labels=draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
        terms={name: draw(column) for name in names},
        note=draw(st.text(max_size=3)),
        residual=draw(st.none() | column), scale=draw(st.none() | scale),
        absolute=draw(st.booleans()))


@given(_check_columns())
def test_builder_matches_record_row_by_row(columns):
    # the columnar builder keeps record()'s arithmetic and verdict rule
    records = _assert_builder_matches_record(**columns)
    for rec, point, hyps in zip(records, columns["points"],
                                columns["hypotheses"]):
        assert rec["point"] is point and rec["hypotheses"] is hyps


@pytest.mark.parametrize("lhs,rhs,terms,scale", [
    # max keeps its first argument when it is NaN, and skips a later NaN
    (math.nan, 1.0, [2.0], math.nan), (1.0, math.nan, [2.0], 3.0),
    (1.0, 0.5, [math.nan, 3.0], 4.0), (1.0, 0.5, [3.0, math.nan], 4.0),
    (-2.0, 0.5, [], 3.0)])
@pytest.mark.parametrize("absolute", [False, True])
def test_builder_takes_nan_where_max_does(lhs, rhs, terms, scale, absolute):
    hyps = [[{"name": "a", "satisfied": True, "violation": 0.0}],
            [{"name": "b", "satisfied": False, "violation": 2.0}]]
    rec, skipped = _assert_builder_matches_record(
        "G2.16", [[0.5], []], [lhs] * 2, [rhs] * 2, hyps, 1e-6,
        labels=["X1", "X2"], terms={f"t{i}": [v] * 2
                                    for i, v in enumerate(terms)},
        note="n", absolute=absolute)
    assert json.dumps(rec["abs_residual"] / scale) == json.dumps(
        rec["rel_residual"])
    assert rec["verdict"] == "fail" and rec["convention_sensitive"]
    assert skipped["verdict"] == "hypothesis-not-met"
    assert not skipped["convention_sensitive"]


_MET = {"name": "m", "satisfied": True, "violation": 0.0}
_MET_NEG = {"name": "m", "satisfied": True, "violation": -0.0}
_UNMET = {"name": "u", "satisfied": False, "violation": math.nan}
# lists that records share
_LISTS = [[_MET], [_MET_NEG], [_MET, _UNMET]]
# the checks of one table, over its points [[0.5], [1.5, -0.0], []]: NaN in
# lhs (first place) and only in a term, +-inf with inf - inf, -0.0 against
# 0.0 in lhs and in the violations, absolute with a given residual and
# scale, zero records, and the point without coordinates
_ARRAY_CHECKS = [
    dict(check_id="G2.16", points=[0, 0, 1, 1, 2, 2],
         lhs=[math.nan, 1.0, math.inf, -0.0, 0.0, 2.0],
         rhs=[1.0, 0.5, math.inf, 0.0, -0.0, -math.inf],
         hypotheses=[_LISTS[i] for i in (0, 1, 2, 0, 1, 0)],
         labels=list("abcdef"),
         terms={"t": [2.0, math.nan, -math.inf, -0.0, 3.0, 1.0],
                "u": [math.nan] * 6}, note="n"),
    dict(check_id="fit-mu", points=[1, 2], lhs=[1.0, -0.0],
         rhs=[1.0 + 3e-6, math.inf], hypotheses=[[], [_UNMET]],
         labels=["", ""], residual=[3e-6, math.inf], scale=[4.0, 1.0],
         absolute=True),
    dict(check_id="R3.13", points=[], lhs=[], rhs=[], hypotheses=[],
         labels=[], terms={"t": []}),
    dict(check_id="L2.2", points=[0], lhs=[-math.inf], rhs=[-math.inf],
         hypotheses=[[_MET]], labels=["x"]),
    dict(check_id="conformal-fit", points=[0, 1], lhs=[math.nan, 1.0],
         rhs=[0.0, math.nan], hypotheses=[[]] * 2, labels=["", ""],
         residual=[0.5, 0.5], terms={"f": [2.0, 3.0]})]


def _reference_rows(points, check_id, indices, lhs, rhs, hypotheses, *,
                    labels, terms={}, note="", residual=None, scale=None,
                    absolute=False):
    """A check's rows by Python's scalar arithmetic, one at a time."""
    for i, index in enumerate(indices):
        yield _scalar_record(
            check_id, points[index], lhs[i], rhs[i], hypotheses[i],
            1e-6, terms={name: column[i] for name, column in terms.items()},
            label=labels[i], note=note,
            residual=None if residual is None else residual[i],
            scale=None if scale is None else scale[i], absolute=absolute)


def test_array_columns_match_a_row_by_row_reference():
    # the columns built with NumPy over whole checks, each check alone and
    # all of them in one pass (put point by point), equal Python's scalar
    # rule row by row (json.dumps tells NaN, -0.0 and 0.0 apart), and
    # every verdict is verdict_of's; a NumPy warning fails the test
    points = [[0.5], [1.5, -0.0], []]
    tables, expected = RecordTable(points), []
    for check in _ARRAY_CHECKS:
        args = dict(check)
        check_id, indices = args.pop("check_id"), args.pop("points")
        lhs, rhs, hyps = args.pop("lhs"), args.pop("rhs"), args.pop(
            "hypotheses")
        rows = list(_reference_rows(points, check_id, indices, lhs, rhs,
                                    hyps, **args))
        alone = RecordTable(points)
        for table in (alone, tables):
            build_records(table, check_id, indices, lhs, rhs, hyps, 1e-6,
                          **args)
        assert json.dumps(alone.rows()) == json.dumps(rows)
        expected += zip(indices, rows)
        for row in rows:
            value = row["abs_residual" if args.get("absolute")
                        else "rel_residual"]
            assert row["verdict"] == verdict_of([
                Hypothesis(h["name"], h["satisfied"], h["violation"])
                for h in row["hypotheses"]], value, 1e-6)
    expected.sort(key=lambda pair: pair[0])
    assert json.dumps(tables.rows()) == json.dumps([r for _, r in expected])
    assert [r["convention_sensitive"] for r in tables.rows()
            if r["id"] == "G2.16"] == [True, True, True, True, False, False]


def test_full_closure_on_conformal_examples(conformal_setups):
    # the identities that hold at every convention close exactly on the
    # genuinely conformal catalog setups
    robust = ("G2.12", "G2.13", "G2.14", "G2.15", "P3.1", "E3.3",
              "R3.11", "R3.12", "L2.1", "L2.2")
    for name, setup, points in conformal_setups:
        ctx = IdentityContext(setup, points[:2])
        for check_id in robust:
            for rep in run_check(check_id, setup, points[:2],
                                 ctx=ctx).rows():
                if rep["verdict"] == "hypothesis-not-met":
                    continue
                assert rep["abs_residual"] <= 1e-9, (name, check_id,
                                                     rep["label"])


def test_r313_convention_divergence_on_cone(conformal_setups):
    # regression anchor: with a vertically varying dilation and a
    # two-dimensional horizontal space, the printed horizontal Ricci
    # decomposition misses by exactly 1 per unit metric on this cone
    name, cone, points = conformal_setups[-1]
    assert name == "cone"
    ctx = IdentityContext(cone, points[:1])
    reports = run_check("R3.13", cone, points[:1], ctx=ctx).rows()
    diag = [r for r in reports
            if r["label"] and r["label"][-2:] in ("11", "22")
            or r["lhs"] != 0.0]
    worst = max(reports, key=lambda r: r["abs_residual"])
    assert worst["verdict"] == "fail"
    assert worst["convention_sensitive"]
    assert worst["terms"]  # itemized breakdown accompanies the flag
    # the cone is hyperbolic 3-space: Ric = -2 g on unit vectors, the
    # printed right side gives -3
    assert worst["lhs"] == pytest.approx(-2.0, abs=1e-9)
    assert worst["rhs"] == pytest.approx(-3.0, abs=1e-9)


def test_l31i_overcount_on_cone(conformal_setups):
    # printed left side scales with n, right side with n^2
    name, cone, points = conformal_setups[-1]
    reports = run_check("L3.1.i", cone, points[:1]).rows()
    worst = max(reports, key=lambda r: r["abs_residual"])
    assert worst["verdict"] == "fail"
    assert worst["convention_sensitive"]
    assert worst["rhs"] == pytest.approx(2 * worst["lhs"], rel=1e-9)


def test_r313_closes_when_dilation_is_horizontal(conformal_setups):
    # on 5.3 the dilation gradient is horizontal, so the vertical-
    # gradient corrections vanish and the printed form closes
    for name, setup, points in conformal_setups:
        if name != "5.3":
            continue
        for rep in run_check("R3.13", setup, points[:1]).rows():
            assert rep["abs_residual"] <= 1e-9


def test_hypothesis_gating(conformal_setups):
    # lemma 3.1 requires an integrable horizontal distribution; the
    # twisted Riemannian bundle violates it and must be gated, not failed
    twisted = make_setup(
        chart("x1 x2 x3", ["1 + x2^2, 0, x2", "0, 1, 0", "x2, 0, 1"]),
        chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])
    p = Point((0.4, 0.8, -0.3))
    for rep in run_check("L3.1.iii", twisted, [p]).rows():
        assert rep["verdict"] == "hypothesis-not-met"
        unmet = [h for h in rep["hypotheses"] if not h["satisfied"]]
        assert any("integrable" in h["name"] for h in unmet)
        assert all(h["violation"] > 0 for h in unmet)


def test_tolerance_monotonicity(conformal_setups):
    # a record passing at tol also passes at any larger tol
    name, cone, points = conformal_setups[-1]
    for tol_small, tol_large in ((1e-12, 1e-6), (1e-8, 1e-2)):
        for check_id in ("G2.12", "R3.13", "T3.4"):
            small, large = (run_check(check_id, cone, points[:1],
                                      tol=tol).rows()
                            for tol in (tol_small, tol_large))
            for s, l in zip(small, large):
                if s["verdict"] == "pass":
                    assert l["verdict"] == "pass"


def test_reports_are_deterministic(conformal_setups):
    name, setup, points = conformal_setups[0]
    first = run_check("R3.11", setup, points[:1]).rows()
    second = run_check("R3.11", setup, points[:1]).rows()
    for a, b in zip(first, second):
        assert a == b


def test_scalar_split_requires_tg_map(conformal_setups):
    for name, setup, points in conformal_setups:
        reports = run_check("T3.4", setup, points[:1]).rows()
        if name == "5.4":
            assert reports[0]["verdict"] == "pass"
        elif name in ("5.1", "5.3"):
            assert reports[0]["verdict"] == "hypothesis-not-met"


def test_m4_spot_check():
    # larger total space: nested-jet pipeline still closes exactly
    setup = make_setup(
        chart("x1 x2 x3 x4",
              ["1, 0, 0, 0", "0, 1, 0, 0", "0, 0, exp(2*x1), 0",
               "0, 0, 0, 2 + sin(x3)"]),
        chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])
    points = [Point((0.2, -0.4, 0.5, 1.1))]
    ctx = IdentityContext(setup, points)
    for check_id in FUNDAMENTAL:
        for rep in run_check(check_id, setup, points, ctx=ctx).rows():
            assert rep["abs_residual"] <= 1e-9, (check_id, rep["label"])


# every array of the context that is built on first read
LAZY_ARRAYS = ("riem", "ric_matrix", "gamma", "grad_f", "vgrad_f", "hgrad_f",
               "hess_f", "t_tensor", "a_tensor", "h_vec", "hp_vec", "_nabla",
               "gram", "riem_e", "ric_e", "t_e", "a_e", "nu_e", "dt_e",
               "da_e", "dh_e", "dhp_e", "h_e", "df_e", "vdf_e", "hess_e",
               "base_riem_e", "base_ric_e", "fiber_riem_e", "fiber_ric_e")


def _bits(value):
    """Shape and bytes of an array or of a tuple of arrays."""
    arrays = value if isinstance(value, tuple) else (value,)
    return [(a.shape, a.tobytes()) for a in arrays]


def _records(ctx, check_ids):
    return [json.dumps(rep, sort_keys=True)
            for check_id in check_ids
            for rep in run_check(check_id, ctx.setup, ctx.points,
                                 ctx=ctx).rows()]


# the cone's dilation varies along its fibers, unlike 5.3 and the warped
# product (whose grad_v f, hp_vec and their consumers vanish)
_CONE, _CONE_POINTS = conformal_corpus()[-1][1:]


@pytest.mark.parametrize("setup,p", [
    (catalog.load_job("5.3").setup, Point((0.3, 2.0, 1.5))),
    (warped_4to2(), Point((0.2, -0.4, 0.5, 1.1))),
    (_CONE, _CONE_POINTS[0])], ids=["5.3", "warped-4to2", "cone"])
def test_context_independent_of_read_order(setup, p):
    # two fresh contexts read in opposite orders hold the same bits, and
    # contexts whose checks trigger every build, in either order, give
    # the same records
    forward, backward = (IdentityContext(setup, [p]),
                         IdentityContext(setup, [p]))
    got = {name: _bits(getattr(forward, name)) for name in LAZY_ARRAYS}
    for name in reversed(LAZY_ARRAYS):
        assert _bits(getattr(backward, name)) == got[name], name
    records = _records(forward, ALL_CHECK_IDS)
    assert _records(backward, ALL_CHECK_IDS) == records
    assert _records(IdentityContext(setup, [p]), ALL_CHECK_IDS) == records
    reverse = _records(IdentityContext(setup, [p]), ALL_CHECK_IDS[::-1])
    assert sorted(reverse) == sorted(records)

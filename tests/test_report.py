"""Report assembly: counts, flagged failures, verdict bookkeeping."""

import importlib.util
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from confsub import catalog, identities, report
from confsub import geometry as geo
from confsub import soliton as sol
from confsub import submersion as sub
from confsub.cli import EXIT_USAGE, main
from confsub.geometry import ChartManifold
from confsub.identities import (ALL_CHECK_IDS, Hypothesis,
                                IdentityContext, RecordTable, record,
                                run_check, worst_of)
from confsub.jets import EvaluationError, JetSpace
from confsub.manifest import (KNOWN_CHECKS, SOLITON_CHECKS,
                              parse_manifest)
from conftest import (GAUSSIAN_SOLITON, ROTATION_SOLITON, context, one_row,
                      rows_by_point)

BASE = """
total.dim    = 2
total.coords = x1 x2
total.metric = exp(-2*x2), 0 ; 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = x1
{extra}
checks = {checks}
points.list = (0, 0) ; (1, 0.5)
"""

XI = "fields.xi  = total : 0, 0\nsoliton.xi = xi\nsoliton.mu = 1"


def make_job(checks, extra=XI):
    return parse_manifest(BASE.format(checks=checks, extra=extra))


def test_counts_match_records():
    rep = report.run_job(make_job("G2.12, R3.11, fit-mu"))
    assert sum(rep.counts.values()) == len(rep.records.columns["id"])
    assert rep.counts["fail"] == 0
    assert rep.exit_code == 0
    assert rep.job["total_dim"] == 2 and rep.job["base_dim"] == 1


def test_convention_sensitive_failures_flagged_not_fatal():
    # the printed horizontal-Ricci corollary misses on this setup, but
    # the failure is flagged and excluded from the exit status
    rep = report.run_job(make_job("C3.1, base-soliton"))
    fails = [r for r in rep.records.rows() if r["verdict"] == "fail"]
    assert fails
    assert all(r["convention_sensitive"] for r in fails)
    assert rep.flagged_fails == len(fails)
    assert rep.exit_code == 0


def test_soliton_checks_skipped_without_xi():
    rep = report.run_job(make_job("fit-mu, harmonicity", extra=""))
    assert all(r["verdict"] == "hypothesis-not-met"
               for r in rep.records.rows())
    assert rep.exit_code == 0


def test_structure_flags_records_informational():
    rep = report.run_job(make_job("structure-flags", extra=""))
    assert len(rep.records.columns["id"]) == 7
    assert all(r["verdict"] == "pass" for r in rep.records.rows())
    names = {r["note"].split(":")[0] for r in rep.records.rows()}
    assert "homothetic" in names


def test_structure_flags_read_the_run_context():
    # under verify the flags read the float core and Gamma from the run's
    # context; the records agree with the library form
    job = catalog.load_job("5.3")
    job.checks = ["structure-flags"]
    records = report.run_job(job).records.rows()
    flags = sub.structure_flags(context(job.setup, job.points))
    assert len(records) == len(flags)
    for rec, (name, check) in zip(records, flags.items()):
        assert rec["note"].startswith(f"{name}: ")
        assert rec["lhs"] == float(check.holds)
        assert rec["terms"]["max_violation"] == pytest.approx(
            check.max_violation, rel=1e-12, abs=1e-15)


def test_json_and_text_render():
    rep = report.run_job(make_job("G2.12, fit-mu"))
    text = report.to_text(rep)
    assert "lambda^2 range" in text
    assert "totals:" in text
    payload = report.to_json(rep)
    assert '"records"' in payload
    # wall time must not leak into the canonical JSON
    assert "wall_time" not in payload


@pytest.mark.parametrize("count", [1, 12])
def test_one_context_and_one_oneill_bundle_per_run(monkeypatch, count):
    # checks = all on 5.3: every identity and soliton report shares the
    # run's one context, which builds T, A and their covariant
    # derivatives from its one CorePartials, contracting T and A once for
    # all the points
    counts = Counter()
    _count_calls(monkeypatch, counts, (
        (IdentityContext, "__init__"), (sub, "oneill_contraction"),
        (JetSpace, "seed"), (ChartManifold, "metric_at")))
    real_partials = sub.CorePartials.__init__

    def counting_partials(self, *args, **kwargs):
        counts["partials"] += 1
        real_partials(self, *args, **kwargs)

    monkeypatch.setattr(sub.CorePartials, "__init__", counting_partials)
    job = catalog.load_job("5.3")
    job.points = job.points[:count]
    assert "harmonicity" in job.checks
    rep = report.run_job(job)
    assert rep.records
    assert counts["__init__"] == 1
    # structure_flags reads the context's T and A, and the tension field
    # its H and grad f: no second CorePartials or T/A contraction
    assert counts["partials"] == 1
    assert counts["oneill_contraction"] == 1
    # one seeding of each ingredient for all the points, whatever their
    # count: the float cores' Jacobian, the three CorePartials leaves (the
    # Jacobian's with its inner seeding), the base curvature, xi and the
    # base-soliton report's base field
    assert counts["seed"] == 8
    assert counts["metric_at"] == 5


FLAT_SWEEP = """
total.dim    = 2
total.coords = x1 x2
total.metric = exp(0.7*x2), 0 ; 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = x1
checks = G2.12
points.list = (0.3, -0.4)
"""


def _count_calls(monkeypatch, counts, targets):
    """Count the calls of each (owner, name) under ``name`` in counts."""
    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))


FLAT_SWEEP_1000 = FLAT_SWEEP.replace(
    "points.list = (0.3, -0.4)",
    "points.box = -1.5 1.5 ; -1.5 1.5\npoints.count = 1000\npoints.seed = 3")


@pytest.mark.parametrize("document", [FLAT_SWEEP, FLAT_SWEEP_1000],
                         ids=["1-point", "1000-points"])
def test_context_evaluates_each_ingredient_once(monkeypatch, document):
    # a cheap 2-D job: the float cores of all its points evaluate the
    # total metric and the base metric once each, seed only the Jacobian,
    # once, and take lambda^2 from the matrices they already hold
    counts = Counter()
    _count_calls(monkeypatch, counts, (
        (IdentityContext, "__init__"), (JetSpace, "seed"),
        (ChartManifold, "metric_at")))
    job = parse_manifest(document)
    rep = report.run_job(job)
    assert rep.records.columns["verdict"] == ["pass"] * len(job.points)
    assert counts["__init__"] == 1
    assert counts["seed"] <= 1
    assert counts["metric_at"] <= 4


def test_flat_sweep_builds_no_curvature(monkeypatch):
    # G2.12 on one-dimensional fibers reads the conformality hypothesis
    # only, so no curvature, Christoffel symbols, O'Neill tensors or
    # frame-basis arrays are built at the point: every chart's
    # Christoffel symbols and curvature come from the two contractions
    # counted here
    counts = Counter()
    _count_calls(monkeypatch, counts, (
        (geo, "christoffels_from_metric"), (geo, "riemann_from_christoffels"),
        (sub, "oneill_contraction"), (JetSpace, "seed")))
    contexts = []
    real_init = IdentityContext.__init__

    def keeping_init(self, *args, **kwargs):
        contexts.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(IdentityContext, "__init__", keeping_init)
    rep = report.run_job(parse_manifest(FLAT_SWEEP))
    assert rep.records.columns["verdict"] == ["pass"]
    assert counts["christoffels_from_metric"] == 0
    assert counts["riemann_from_christoffels"] == 0
    assert counts["oneill_contraction"] == 0
    assert counts["seed"] <= 1
    lazy = [name for name in vars(IdentityContext)
            if name.endswith("_e")] + ["gram", "_lower", "gamma", "riem"]
    assert "riem_e" in lazy and "fiber_ric_e" in lazy
    ctx, = contexts
    assert not set(lazy) & set(vars(ctx))
    # nor any entry of the run's CorePartials
    assert set(vars(ctx.partials)) == {"setup", "coords", "base_coords"}


# Gamma of this metric is not finite on x2 = 0, where d/dx2 x2^(1/3) is
# not; the metric itself is finite and positive definite there
CUSP = """
total.dim    = 2
total.coords = x1 x2
total.metric = 1, 0 ; 0, 1 + x2^(1/3)
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = x1
checks = {checks}
points.list = (0.3, 0.5) ; (0.3, 0)
"""


@pytest.mark.parametrize("checks", ["R3.11", "G2.14", "L3.1.vi, P3.1"])
def test_failing_ingredient_fails_the_checks_that_read_it(checks, tmp_path,
                                                          capsys):
    # Ricci, Riem and the O'Neill tensors need Gamma: the run raises the
    # evaluation error, and the command line reports it as exit 2
    with pytest.raises(EvaluationError,
                       match=r"zero raised to a negative power in 'x2\^\(1/3\)'"):
        report.run_job(parse_manifest(CUSP.format(checks=checks)))
    path = tmp_path / "cusp.cfsm"
    path.write_text(CUSP.format(checks=checks))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert "zero raised to a negative power" in capsys.readouterr().err


def test_failing_ingredient_no_check_reads_does_not_abort():
    # G2.12 on one-dimensional fibers reads no Gamma, so the point where
    # Gamma fails is verified like any other
    rep = report.run_job(parse_manifest(CUSP.format(checks="G2.12")))
    assert rep.records.columns["verdict"] == ["pass", "pass"]
    assert rep.exit_code == 0


def test_seedings_per_point_with_every_check(monkeypatch):
    # checks = all on the shipped 5.3 manifest: every identity and soliton
    # report contracts stacked arrays and reads g, Gamma, Ric, L_xi g and
    # the O'Neill values from the run's context, so no point seeds
    # anything of its own; the run seeds the float cores' Jacobian, the
    # CorePartials leaves (the metric, the Jacobian with its inner
    # seeding, h o F), which the tension field reads too, the base metric,
    # xi and the base field once each, for all its points: 8 seedings
    counts = Counter()
    _count_calls(monkeypatch, counts, ((JetSpace, "seed"),))
    job = catalog.load_job("5.3")
    assert "harmonicity" in job.checks and "L2.1" in job.checks
    assert len(job.points) > 1
    report.run_job(job)
    assert counts["seed"] == 8


def test_harmonicity_record_shows_worst_point():
    # neither side of the equivalence holds on 5.3, so the record shows
    # the point of the largest tension, here the second one
    job = catalog.load_job("5.3")
    job.points = [geo.Point((0.0, 1.5, 1.5)), geo.Point((0.0, 1.5, 3.0))]
    job.checks = ["harmonicity"]
    rec, = report.run_job(job).records.rows()
    assert rec["point"] == [0.0, 1.5, 3.0]
    assert rec["terms"]["tension_norm"] == pytest.approx(3.0, rel=1e-12)


# a fiber-2d-style job: 2-D curved fibers, no soliton field, so every
# soliton check but structure-flags records a skip
_G33 = "(2.3 + sin(x1))^2"
_G44 = _G33 + "*(2.7 + cos(x3))^2"
FIBER_2D_NO_XI = f"""
total.dim    = 4
total.coords = x1 x2 x3 x4
total.metric = 1, 0, 0, 0 ; 0, 1, 0, 0 ; 0, 0, {_G33}, 0 ; 0, 0, 0, {_G44}
base.dim     = 2
base.coords  = y1 y2
base.metric  = 1, 0 ; 0, 1
map.components = x1, x2
checks = all
points.list = (0.2, -0.4, 0.5, 1.1)
"""

def test_fiber_curvature_reads_the_run_metric_seeding(monkeypatch):
    # checks = all on one point with 2-D fibers: the run seeds the float
    # cores' Jacobian, the CorePartials leaves (the metric, the Jacobian
    # with its inner seeding, h o F) and the base metric; the fiber finds
    # its coordinates in the float cores' Jacobian and its curvature in
    # the vertical blocks of the metric seeding, seeding nothing of its own
    counts = Counter()
    _count_calls(monkeypatch, counts, ((JetSpace, "seed"),))
    report.run_job(parse_manifest(FIBER_2D_NO_XI))
    assert counts["seed"] == 6


RECORD_KEYS = {"kind", "id", "label", "point", "lhs", "rhs", "abs_residual",
               "rel_residual", "hypotheses", "verdict",
               "convention_sensitive", "terms", "note"}


def test_every_record_has_one_schema():
    # identity, soliton, fit, skipped and structure-flags records alike
    # carry the same 13 keys, each a plain float, str, bool or list
    job = catalog.load_job("5.3")
    job.points = job.points[:2]
    job.checks = list(KNOWN_CHECKS)
    records = report.run_job(job).records.rows()
    skipped = report.run_job(parse_manifest(FIBER_2D_NO_XI)).records.rows()
    # the scalar-mu record is named after its theorem
    assert {r["id"] for r in records} == (set(KNOWN_CHECKS) - {"scalar-mu"}
                                          | {"T4.7"})
    assert [r["note"] for r in skipped if r["kind"] == "soliton"
            and r["id"] != "structure-flags"] == [
        "manifest declares no soliton.xi field"] * (len(SOLITON_CHECKS) - 1)
    # a skipped report evaluated nothing to flag
    assert [r["convention_sensitive"] for r in records + skipped
            if r["id"] == "base-soliton"] == [True, False]
    types = {"kind": str, "id": str, "label": str, "lhs": float,
             "rhs": float, "abs_residual": float, "rel_residual": float,
             "verdict": str, "convention_sensitive": bool, "note": str}
    # the writer's templates have a slot for each key of the schema, and
    # a writer for the type of its value
    assert set(identities.RECORD_SCHEMA) == RECORD_KEYS
    assert {key: identities.RECORD_SCHEMA[key] for key in types} == types
    for rec in records + skipped:
        assert set(rec) == RECORD_KEYS, rec["id"]
        for key, kind in types.items():
            assert type(rec[key]) is kind, (rec["id"], key)
        assert type(rec["point"]) is list
        assert all(type(c) is float for c in rec["point"])
        assert type(rec["terms"]) is dict
        assert all(type(k) is str and type(v) is float
                   for k, v in rec["terms"].items()), rec["id"]
        assert type(rec["hypotheses"]) is list
        for hyp in rec["hypotheses"]:
            assert set(hyp) == set(identities.HYPOTHESIS_SCHEMA)
            assert [type(hyp[k]) for k in ("name", "satisfied",
                                           "violation")] == [str, bool,
                                                             float]


def test_worst_point_is_the_first_within_the_rounding_band():
    # values that tie up to rounding name the first of them in point
    # order, whichever of them is larger by a few ulps
    values = [0.5, 1.0 + 4e-16, 1.0 + 8e-16, 1.0]
    assert worst_of(range(4), values.__getitem__) == 1
    assert worst_of(range(4), [0.5, 1.0, 1.0 + 3e-12, 1.0].__getitem__) == 2
    assert worst_of([], abs) is None


@pytest.mark.parametrize("values,expected", [
    ([0.5, math.nan, 2.0, math.nan], 1), ([2.0, 0.5, math.nan], 2),
    ([math.nan, math.inf, 2.0], 0), ([math.inf, 2.0, math.nan], 2)])
def test_worst_point_ranks_nan_above_every_value(values, expected):
    # a NaN key (a value that could not be computed) is the worst wherever
    # it sits, above +inf, and the first of several NaN keys is named
    assert worst_of(range(len(values)), values.__getitem__) == expected


def _table(rows):
    """A ``RecordTable`` of the row dicts ``rows``, laid out as
    ``RecordTable.rows`` gives them: each point list held once, its records
    holding its index."""
    table = RecordTable({id(r["point"]): r["point"] for r in rows}.values())
    slot = {id(p): i for i, p in enumerate(table.points)}
    for key, column in table.columns.items():
        column.extend(slot[id(r["point"])] if key == "point" else r[key]
                      for r in rows)
    return table


def _synthetic(verdict, point, rel, lhs=0.0, rhs=0.0):
    return {"kind": "identity", "id": "R3.11", "label": "",
            "point": list(point), "lhs": lhs, "rhs": rhs,
            "abs_residual": rel, "rel_residual": rel,
            "hypotheses": [{"name": "conformal", "satisfied":
                            verdict != "hypothesis-not-met",
                            "violation": 0.0}],
            "verdict": verdict, "convention_sensitive": False,
            "terms": {}, "note": ""}


def test_text_worst_line_comes_from_failing_records():
    # a hypothesis-not-met record with a larger residual must not hide
    # the hard fail
    records = _table([
        _synthetic("fail", (1.0, 2.0), 0.5, lhs=1.25, rhs=0.75),
        _synthetic("hypothesis-not-met", (9.0, 9.0), 7.0),
        _synthetic("pass", (3.0, 3.0), 0.0)])
    rep = report.Report(
        job={"total_dim": 2, "base_dim": 1, "total_coords": ["x1", "x2"],
             "base_coords": ["y1"], "lambda_sq_range": [1.0, 1.0],
             "n_points": 3, "checks": ["R3.11"]},
        records=records, counts=report.count_verdicts(records),
        meta={"tolerance": 1e-6})
    text = report.to_text(rep)
    assert "[FAIL] R3.11" in text
    assert "worst failing point (1.0, 2.0): lhs=1.25 rhs=0.75" in text
    assert "(9.0, 9.0)" not in text and "[SKIP]" not in text


@pytest.mark.parametrize("checks,mu,fits", [
    ("fiber-soliton", "soliton.mu = 2", 0),
    ("fiber-soliton, conformal-fit, harmonicity", "soliton.mu = 2", 0),
    ("fit-mu, fiber-soliton", "soliton.mu = 2", 1),
    ("conformal-fit", "", 0),
    ("conformal-fit, scalar-mu", "", 1)])
def test_fit_mu_runs_only_when_needed(monkeypatch, checks, mu, fits):
    # mu is fitted for the fit-mu record, or when the manifest declares
    # none and a check reads it
    counts = Counter()
    _count_calls(monkeypatch, counts, ((report.sol, "fit_mu"),))
    extra = "fields.xi  = total : 0, 0\nsoliton.xi = xi\n" + mu
    rep = report.run_job(make_job(checks, extra=extra))
    assert len(rep.records.columns["id"]) == len(checks.split(","))
    assert counts["fit_mu"] == fits


SOLITON_ORDER = ["structure-flags"] * 7 + [
    "fit-mu", "conformal-fit", "fiber-soliton", "base-soliton", "T4.7",
    "harmonicity"]


@pytest.mark.parametrize("xi_name,want", [
    ("xi", SOLITON_ORDER),
    (None, ["structure-flags"] * 7 + [c for c in SOLITON_CHECKS
                                      if c != "structure-flags"])],
    ids=["with-xi", "without-xi"])
def test_soliton_section_order(xi_name, want):
    # checks = all on 5.3: the soliton records follow the identity
    # records, structure flags first; without a soliton field the skips
    # come in the job's order of checks
    job = catalog.load_job("5.3")
    job.points = job.points[:2]
    job.checks = list(KNOWN_CHECKS)
    job.xi_name = xi_name
    records = report.run_job(job).records.rows()
    soliton = [r["id"] for r in records if r["kind"] == "soliton"]
    assert soliton == want
    assert [r["kind"] for r in records] == (
        ["identity"] * (len(records) - len(want)) + ["soliton"] * len(want))


def test_run_records_point_by_point_then_soliton_rows():
    # checks = all on 3 points of 5.3: the run's table lists each point's
    # identity records, check by check in the order of the job's checks,
    # each check's as run_check gives them at that point; the structure
    # flags and soliton reports follow.  run_check's own table runs point
    # by point, C3.x's three blocks included
    job = catalog.load_job("5.3")
    job.points = job.points[:3]
    rows = report.run_job(job).records.rows()
    ctx = IdentityContext(job.setup, job.points)
    tables = [run_check(check_id, job.setup, job.points, ctx=ctx)
              for check_id in job.checks if check_id in ALL_CHECK_IDS]
    assert len(tables) == len(ALL_CHECK_IDS)
    for table in tables:
        assert table.columns["point"] == sorted(table.columns["point"])
    per_point = [rows_by_point(table) for table in tables]
    want = [rec for i in range(len(job.points)) for recs in per_point
            for rec in recs[i]]
    assert json.dumps(rows[:len(want)]) == json.dumps(want)
    assert [r["id"] for r in rows[len(want):]] == SOLITON_ORDER


@pytest.mark.parametrize("name", ["5.1", "gaussian-soliton"])
def test_counts_read_off_columns_equal_counts_over_rows(name):
    # 5.1 has flagged fails and the Gaussian soliton two that are not
    # flagged: the counts and flagged_fails read off the verdict and flag
    # columns are those counted row by row
    job = (catalog.load_job(name) if name in catalog.EXAMPLE_IDS
           else parse_manifest(SOLITON_MANIFESTS[name]))
    rep = report.run_job(job)
    rows = rep.records.rows()
    by_verdict = Counter(r["verdict"].replace("-", "_") for r in rows)
    assert rep.counts == {key: by_verdict[key] for key in (
        "pass", "fail", "hypothesis_not_met", "paper_divergent")}
    assert report.count_verdicts(rep.records) == rep.counts
    flagged = sum(r["verdict"] == "fail" and r["convention_sensitive"]
                  for r in rows)
    assert rep.flagged_fails == flagged
    assert (flagged > 0) is (name == "5.1")
    assert rep.counts["fail"] - flagged == (0 if name == "5.1" else 2)


@pytest.mark.parametrize("owner,name", [
    (sol, name) for name in ("fit_mu", "conformal_field_fit",
                             "fiber_soliton_report", "base_soliton_report",
                             "scalar_mu_consistency", "harmonicity_report")
] + [(sub, "structure_flags")])
def test_run_job_calls_soliton_functions_through_their_module(
        monkeypatch, owner, name):
    # run_job reads each soliton function off its module when it runs, so
    # a replacement there (a benchmark tracer's, say) sees the call
    counts = Counter()
    _count_calls(monkeypatch, counts, ((owner, name),))
    job = catalog.load_job("5.3")
    job.points = job.points[:2]
    job.checks = list(SOLITON_CHECKS)
    report.run_job(job)
    assert counts[name] == 1


CORE_FAILS = """
total.dim    = 2
total.coords = x1 x2
total.metric = {metric}
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = {map}
checks = {checks}
points.list = {points}
"""


@pytest.mark.parametrize("metric,map_text,checks,points,error,message", [
    ("1, 0 ; 0, x2", "x1^3", "G2.12", "(1, 1) ; (0, 1) ; (1, -1)",
     sub.NotASubmersionError, "map is rank deficient at (0.0, 1.0)"),
    ("1, 0 ; 0, x2", "x1^3", "G2.12", "(1, 1) ; (1, -1) ; (0, 1)",
     geo.DegenerateMetricError,
     "metric is not positive definite at (1.0, -1.0)"),
    ("1, 0 ; 0, log(x2)", "x1", "G2.12", "(1, 2) ; (1, -1) ; (1, 0.5)",
     EvaluationError, "log of a non-positive value in 'log(x2)'"),
    ("1, 0 ; 0, log(x2)", "x1", "G2.12", "(1, 2) ; (1, 0.5) ; (1, -1)",
     geo.DegenerateMetricError,
     "metric is not positive definite at (1.0, 0.5)"),
    ("1, 0 ; 0, exp(x2)", "x1", "G2.12", "(1, 2) ; (1, 800) ; (1, 0.5)",
     EvaluationError, "non-finite value in exp in 'exp(x2)'"),
    ("1, 0 ; 0, 1/x2", "x1", "G2.12", "(1, 2) ; (1, 0) ; (1, -0.5)",
     EvaluationError, "division by zero in '1 / x2'"),
    # Gamma fails at the first point, the metric at the second: the run
    # builds every point's core before any check reads Gamma
    ("1, 0 ; 0, 1 + x2^(1/3)", "x1", "R3.11", "(0.3, 0) ; (0.3, -8)",
     geo.DegenerateMetricError,
     "metric is not positive definite at (0.3, -8.0)")],
    ids=["rank-first", "metric-first", "log-first", "metric-not-pd",
         "overflow", "division", "core-before-check"])
def test_failing_core_raises_for_the_first_failing_point(
        metric, map_text, checks, points, error, message):
    # the run raises what evaluating the points one at a time raises
    # first, in point order, worded as for that point alone
    job = parse_manifest(CORE_FAILS.format(metric=metric, map=map_text,
                                           checks=checks, points=points))
    with pytest.raises(error) as exc:
        report.run_job(job)
    assert str(exc.value) == message


@pytest.mark.parametrize("points,message", [
    ("(1, 1) ; (0, 1) ; (1, -1)", "map is rank deficient at (0.0, 1.0)"),
    ("(1, 1) ; (1, -1) ; (0, 1)",
     "metric is not positive definite at (1.0, -1.0)")])
def test_float_cores_raise_for_the_first_failing_point(points, message):
    job = parse_manifest(CORE_FAILS.format(
        metric="1, 0 ; 0, x2", map="x1^3", checks="G2.12", points=points))
    with pytest.raises(ValueError) as exc:
        IdentityContext(job.setup, job.points)
    assert str(exc.value) == message


# ---------------------------------------------------------------------
# JSON writer: json.dumps(sort_keys=True, indent=2) is the oracle
# ---------------------------------------------------------------------

def _workloads():
    """The benchmark's workload generators, loaded from the source tree."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("perfbench/ is not in this tree")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


SOLITON_MANIFESTS = {"gaussian-soliton": GAUSSIAN_SOLITON,
                     "rotation-soliton": ROTATION_SOLITON}


@pytest.mark.parametrize("name", catalog.EXAMPLE_IDS
                         + ("curved-all", "flat-sweep", "fiber-2d")
                         + tuple(SOLITON_MANIFESTS))
def test_verify_json_equals_json_dumps(name):
    # the soliton manifests' records carry terms dicts of differing keys,
    # with nonzero values
    if name in catalog.EXAMPLE_IDS:
        job = catalog.load_job(name)
    elif name in SOLITON_MANIFESTS:
        job = parse_manifest(SOLITON_MANIFESTS[name])
    else:
        job = parse_manifest(_workloads().manifest_text(name, 1))
    rep = report.run_job(job)
    assert report.to_json(rep) == _oracle({
        "job": rep.job, "records": rep.records.rows(), "counts": rep.counts,
        "flagged_fails": rep.flagged_fails, "meta": rep.meta})


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                1e300, -1e300])
_PLAIN_FLOATS = st.floats() | _EDGE_FLOATS
_FLOATS = _PLAIN_FLOATS | st.floats().map(np.float64)
_TEXTS = st.text() | st.sampled_from(["", "\u00e9\u03bb^2 \u2207_U",
                                      '"quoted"\\ \n\t\x00\x1f',
                                      "\u2028\ud83d\ude00"])
_HYPOTHESES = st.lists(st.builds(Hypothesis, _TEXTS, st.booleans(), _FLOATS),
                       max_size=3)


def _call(*args, **kwargs):
    return args, kwargs


# the arguments of identities.record after its table
_RECORD_CALLS = st.builds(
    _call, st.sampled_from(ALL_CHECK_IDS + SOLITON_CHECKS) | _TEXTS,
    st.lists(_FLOATS, max_size=4), _FLOATS, _FLOATS, _HYPOTHESES, _FLOATS,
    terms=st.dictionaries(_TEXTS, _FLOATS, max_size=4), label=_TEXTS,
    note=_TEXTS, residual=st.none() | _FLOATS,
    scale=st.none() | _PLAIN_FLOATS.filter(lambda x: x != 0),
    absolute=st.booleans())


@given(st.lists(_RECORD_CALLS, max_size=3))
@example([_call("G2.12", (), math.nan, -0.0, [], 1e-6)])
@example([_call("R3.13", (-0.0, 5e-324, 1e300), np.float64(math.inf),
                -math.inf, [Hypothesis("\u00e9\"\\", True, np.float64(0.5))],
                0.0, terms={"\u03bb^2 \u2028": 1e300, "\x00": -0.0},
                label="X\u2081 \t", note="\ud83d\ude00")])
def test_records_json_equals_json_dumps(calls):
    # every record identities.record can append is written from the
    # record template, as json.dumps writes its row
    records = RecordTable()
    for args, kwargs in calls:
        record(records, *args, **kwargs)
    rep = report.Report(job={"n_points": 1}, records=records,
                        counts=report.count_verdicts(records),
                        meta={"seed": None})
    assert report.to_json(rep) == _oracle({
        "job": rep.job, "records": records.rows(), "counts": rep.counts,
        "flagged_fails": 0, "meta": rep.meta})


@pytest.mark.parametrize("change", [
    lambda table: table.columns.pop("note"),
    lambda table: table.columns["label"].__setitem__(0, None),
    lambda table: table.columns["lhs"].__setitem__(0, 2),
    lambda table: table.points.__setitem__(0, [[1.0]]),
    lambda table: table.columns["hypotheses"][0][0].pop("violation"),
    lambda table: table.columns["terms"][0].update(nested={"a": 1.0}),
    lambda table: table.columns["verdict"].pop()])
def test_a_record_laid_out_otherwise_raises(change):
    # the writer knows only the table identities.record fills: a record
    # that drifts from it fails loudly instead of being written otherwise
    table = RecordTable()
    record(table, "L2.1", (1.0, 2.0), 1.0, 0.5, [Hypothesis("h", True, 0.0)],
           1e-6, terms={"t": 0.25})
    change(table)
    rep = report.Report(job={}, records=table, counts={}, meta={})
    with pytest.raises((KeyError, TypeError, ValueError)):
        report.to_json(rep)


_EXAMPLE_FLOATS = [math.nan, math.inf, -math.inf, -0.0]
_HYPOTHESIS_DICTS = st.lists(st.fixed_dictionaries(
    {"name": _TEXTS, "satisfied": st.booleans(), "violation": _FLOATS}),
    max_size=3)
_VALUES = {float: _FLOATS, str: _TEXTS, bool: st.booleans(),
           dict[str, float]: st.dictionaries(_TEXTS, _FLOATS, max_size=4)}


def _from_pool(draw, pool, strategy):
    """An object drawn before, into ``pool``, or a new one of
    ``strategy``."""
    if pool and draw(st.booleans()):
        return draw(st.sampled_from(pool))
    pool.append(draw(strategy))
    return pool[-1]


@st.composite
def _record_runs(draw):
    """Records laid out as the schema, drawn point by point: the records of
    a point hold its point and hypotheses lists, each either that one
    shared list object or a copy of it, as consecutive records of a run
    do (points of mixed lengths, as structure-flags and identity records
    are, empty ones included).  A point's lists may be those of any
    earlier point, as points with equal hypotheses share one list over a
    run, so one list object recurs in records far apart."""
    records, points, hypotheses = [], [], []
    for _ in range(draw(st.integers(0, 4))):
        point = _from_pool(draw, points, st.lists(_FLOATS, max_size=3))
        hyps = _from_pool(draw, hypotheses, _HYPOTHESIS_DICTS)
        for _ in range(draw(st.integers(1, 3))):
            rec = {key: draw(_VALUES[kind]) for key, kind
                   in identities.RECORD_SCHEMA.items() if kind in _VALUES}
            shared = draw(st.booleans())
            rec["point"] = point if shared else list(point)
            rec["hypotheses"] = hyps if shared else [dict(h) for h in hyps]
            records.append(rec)
    return records


def _one_record(value):
    """A record with ``value`` in every float slot, a point of two
    coordinates, a hypothesis and two terms."""
    hyp = {"name": "\u00e9 {0}", "satisfied": True, "violation": value}
    return dict(one_row(record, "G2.12", (), 0.0, 0.0, [], 1e-6),
                lhs=value, rhs=value, abs_residual=value, rel_residual=value,
                point=[value, 1.0], hypotheses=[hyp],
                terms={"b}": value, "a{": value},
                label="X\u2081 \u03bb", note="\ud83d\ude00")


def _shared_apart():
    """Records whose lists and terms recur apart: the first and last hold
    one point, hypotheses and terms object, the middle ones others of
    other shapes, a terms key with ``%`` in it."""
    first = _one_record(1.5)
    first["terms"] = {"%s 100%": 0.25, "%(a)s": -0.0}
    middle = [dict(_one_record(value), terms={}) for value in (0.5, 2.5)]
    middle[1]["point"] = []
    return [first, *middle, dict(first, lhs=3.5)]


@given(_record_runs())
@example([_one_record(value) for value in _EXAMPLE_FLOATS])
@example([_one_record(1.5)] * 2 + [dict(_one_record(0.5), terms={})])
@example(_shared_apart())
def test_columnar_writer_equals_json_dumps(records):
    # each column is written at once and each shared object once, however
    # far apart its records, yet every record reads as json.dumps writes
    # it
    rep = report.Report(job={}, records=_table(records),
                        counts={"pass": len(records)}, meta={})
    assert report.to_json(rep) == _oracle({
        "job": {}, "records": records, "counts": rep.counts,
        "flagged_fails": 0, "meta": {}})


def test_records_of_a_point_share_lists_no_reader_mutates():
    # a run's records of one point hold its one coordinate list, and in
    # one check one hypotheses list; rendering and counting leave them as
    # they are
    job = catalog.load_job("5.3")
    job.points = job.points[:3]
    rep = report.run_job(job)
    ctx = IdentityContext(job.setup, job.points)
    tables = [run_check(check_id, job.setup, job.points, ctx=ctx)
              for check_id in ALL_CHECK_IDS]
    for i, p in enumerate(job.points):
        by_check = {}
        for check_id, table in zip(ALL_CHECK_IDS, tables):
            for rec in rows_by_point(table)[i]:
                assert rec["point"] is ctx.point_lists[i] == list(p.coords)
                by_check.setdefault(check_id, set()).add(
                    id(rec["hypotheses"]))
        assert all(len(ids) == 1 for ids in by_check.values()), by_check
    # the run's table holds the context's point lists, each once
    assert rep.records.points[:3] == ctx.point_lists
    assert len(set(map(id, rep.records.points))) == len(rep.records.points)
    before = json.dumps([rep.records.points, rep.records.columns])
    text = report.to_json(rep)
    report.to_text(rep)
    assert report.count_verdicts(rep.records) == rep.counts
    assert report.to_json(rep) == text
    assert json.dumps([rep.records.points, rep.records.columns]) == before


def test_hypothesis_dicts_share_one_dict_per_bit_pattern():
    # points whose satisfied flag and violation bits are equal share one
    # dict; -0.0 and 0.0 differ in their bits, so never share, and the
    # records built from the shared dicts are written as json.dumps
    # writes them
    violation = np.array([0.0, -0.0, math.nan, 0.0])
    dicts = [hs[0] for hs in identities._hypothesis_lists(
        [Hypothesis("h", violation <= 1e-8, violation)], 4)]
    assert dicts[0] is dicts[3]
    assert len({id(d) for d in dicts}) == 3
    assert [math.copysign(1.0, d["violation"]) for d in dicts[:2]] == [1, -1]
    assert [d["satisfied"] for d in dicts] == [True, True, False, True]
    records = RecordTable([[float(i)] for i in range(4)])
    identities.build_records(
        records, "G2.12", list(range(4)), [0.0] * 4, [-0.0] * 4,
        [[d] for d in dicts], 1e-6, labels=[""] * 4)
    rep = report.Report(job={}, records=records,
                        counts=report.count_verdicts(records), meta={})
    assert report.to_json(rep) == _oracle({
        "job": {}, "records": records.rows(), "counts": rep.counts,
        "flagged_fails": 0, "meta": {}})


def test_points_with_equal_hypotheses_share_one_list():
    # on flat-sweep every two records whose hypotheses are equal, bit for
    # bit, hold one list object and one dict object per hypothesis
    job = parse_manifest(_workloads().manifest_text("flat-sweep", 1))
    records = report.run_job(job).records.rows()
    lists, dicts = {}, {}
    for rec in records:
        lists.setdefault(json.dumps(rec["hypotheses"]), set()).add(
            id(rec["hypotheses"]))
        for hyp in rec["hypotheses"]:
            dicts.setdefault(json.dumps(hyp), set()).add(id(hyp))
    assert all(len(ids) == 1 for ids in lists.values())
    assert all(len(ids) == 1 for ids in dicts.values())
    assert len(lists) < len(records) // 10


def _same(got, ref):
    """Equal floats, a NaN equal to a NaN: a point's value in a stacked
    run is, bit for bit, its value in a run of its own."""
    return got == ref or (math.isnan(got) and math.isnan(ref))


def _soliton_records(job):
    """The records of the soliton reports that keep per-point values, and
    the structure flags, from one context over the job's points, with the
    job's base field when it declares one."""
    ctx = IdentityContext(job.setup, job.points)
    xi_base = next((spec for target, spec in job.fields.values()
                    if target == "base"), None)
    return ({"fiber": one_row(sol.fiber_soliton_report, ctx, job.xi,
                              mu=job.mu),
             "base": one_row(sol.base_soliton_report, ctx, job.xi, job.mu,
                             xi_base=xi_base),
             "harmonicity": one_row(sol.harmonicity_report, ctx, job.mu)},
            sub.structure_flags(ctx))


def _assert_solitons_match_points_alone(monkeypatch, job, points):
    """Each report's record, its worst point pinned to each point in turn,
    holds that point's lhs, rhs and terms from the point alone; its merged
    hypotheses are the worst over the points alone, and each structure
    flag's violation the largest over them.  Returns the records of the
    points alone."""
    alone = []
    for p in points:
        job.points = [p]
        alone.append(_soliton_records(job))
    job.points = points
    for i, (refs, _) in enumerate(alone):
        with monkeypatch.context() as pin:
            pin.setattr(sol, "worst_of", lambda items, key: list(items)[i])
            stacked, flags = _soliton_records(job)
        for name, rec in stacked.items():
            ref = refs[name]
            assert rec["point"] == ref["point"], (name, i)
            assert _same(rec["lhs"], ref["lhs"]), (name, i)
            assert _same(rec["rhs"], ref["rhs"]), (name, i)
            assert rec["terms"].keys() == ref["terms"].keys()
            assert all(_same(rec["terms"][k], v)
                       for k, v in ref["terms"].items()), (name, i)
    for name, rec in stacked.items():
        refs = [reps[name] for reps, _ in alone]
        for k, hyp in enumerate(rec["hypotheses"]):
            hyps = [r["hypotheses"][k] for r in refs]
            assert {h["name"] for h in hyps} == {hyp["name"]}
            assert hyp["satisfied"] == all(h["satisfied"] for h in hyps)
            assert _same(hyp["violation"],
                          max(h["violation"] for h in hyps)), name
        # harmonicity counts one side's worst value only where the other
        # side holds at every point, so its residual is not the points'
        if name != "harmonicity":
            assert _same(rec["abs_residual"],
                          max(r["abs_residual"] for r in refs)), name
    for key, check in flags.items():
        assert _same(check.max_violation,
                      max(f[key].max_violation for _, f in alone)), key
    return [reps for reps, _ in alone]


@pytest.mark.parametrize("name", ["curved-all", "fiber-2d", "flat-sweep"])
def test_stacked_run_matches_runs_of_each_point_alone(monkeypatch, name):
    # the run's one context reads every point's values off the stacked
    # arrays: the identity records of a run over 8 points are, bit for
    # bit, those of 8 runs over one point each, and on curved-all so is
    # each soliton record with its worst point pinned to that point
    job = parse_manifest(_workloads().manifest_text(name, 1, points=8))
    points = list(job.points)
    assert len(points) == 8
    stacked = report.run_job(job).records.rows()
    alone = []
    for p in points:
        job.points = [p]
        alone += report.run_job(job).records.rows()
    if name == "curved-all":
        _assert_solitons_match_points_alone(monkeypatch, job, points)
    stacked, alone = ([r for r in recs if r["kind"] == "identity"]
                      for recs in (stacked, alone))
    assert stacked and len(stacked) == len(alone)
    assert len({tuple(r["point"]) for r in stacked}) == 8
    for got, ref in zip(stacked, alone):
        for key in ("id", "label", "point", "verdict", "note",
                    "convention_sensitive"):
            assert got[key] == ref[key], (got["id"], key)
        for key in ("lhs", "rhs", "abs_residual", "rel_residual"):
            assert _same(got[key], ref[key]), (got["id"], key)
        assert got["terms"].keys() == ref["terms"].keys()
        assert all(_same(got["terms"][k], v)
                   for k, v in ref["terms"].items()), got["id"]
        assert [(h["name"], h["satisfied"]) for h in got["hypotheses"]] == [
            (h["name"], h["satisfied"]) for h in ref["hypotheses"]]
        assert all(_same(g["violation"], r["violation"]) for g, r in zip(
            got["hypotheses"], ref["hypotheses"])), got["id"]


def test_run_memory_grows_linearly_with_its_points():
    # the scalar-mu record itemizes s at every point, so records padded
    # to the largest record's terms would cost memory quadratic in the
    # points: twice the points may at most about double run_job's peak
    def peak(points):
        job = parse_manifest(_workloads().manifest_text("curved-all", 2,
                                                        points=points))
        tracemalloc.start()
        try:
            report.run_job(job)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) / peak(100) <= 2.5


def test_stacked_fields_match_runs_of_each_point_alone(monkeypatch):
    # on the 5.3 metric with a nonconstant xi and a declared base field
    # xi_N, each seeded once over all 12 points: every point's soliton
    # values are those of the point alone
    job = catalog.load_job("5.3")
    job.fields = {
        "xi": ("total", job.setup.total.field("x3^-2", "x1*x2^3",
                                              "sin(x1)*x3^-1")),
        "xi_n": ("base", job.setup.base.field("y2^-2", "exp(y1)*y2^3"))}
    alone = _assert_solitons_match_points_alone(monkeypatch, job,
                                                list(job.points))
    assert np.ptp([reps["base"]["terms"]["projection_residual"]
                   for reps in alone]) > 0.1


def test_example_json_equals_json_dumps(example_reports):
    # the rows are written from the row template, the rest by json.dumps
    for eid, rep in example_reports.items():
        assert report.example_report_to_json(rep) == _oracle({
            "example": rep.example_id, "rows": rep.rows, "counts": rep.counts,
            "discrepancies": [r["name"] for r in rep.discrepancies],
            "note": rep.note}), eid

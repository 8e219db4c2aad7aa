"""Report assembly: counts, flagged failures, verdict bookkeeping."""

import importlib.util
import json
import math
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
                                IdentityContext, record, worst_of)
from confsub.jets import EvaluationError, JetSpace
from confsub.manifest import (KNOWN_CHECKS, SOLITON_CHECKS,
                              parse_manifest)
from conftest import context

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
    assert sum(rep.counts.values()) == len(rep.records)
    assert rep.counts["fail"] == 0
    assert rep.exit_code == 0
    assert rep.job["total_dim"] == 2 and rep.job["base_dim"] == 1


def test_convention_sensitive_failures_flagged_not_fatal():
    # the printed horizontal-Ricci corollary misses on this setup, but
    # the failure is flagged and excluded from the exit status
    rep = report.run_job(make_job("C3.1, base-soliton"))
    fails = [r for r in rep.records if r["verdict"] == "fail"]
    assert fails
    assert all(r["convention_sensitive"] for r in fails)
    assert rep.flagged_fails == len(fails)
    assert rep.exit_code == 0


def test_soliton_checks_skipped_without_xi():
    rep = report.run_job(make_job("fit-mu, harmonicity", extra=""))
    assert all(r["verdict"] == "hypothesis-not-met" for r in rep.records)
    assert rep.exit_code == 0


def test_structure_flags_records_informational():
    rep = report.run_job(make_job("structure-flags", extra=""))
    assert len(rep.records) == 7
    assert all(r["verdict"] == "pass" for r in rep.records)
    names = {r["note"].split(":")[0] for r in rep.records}
    assert "homothetic" in names


def test_structure_flags_read_the_run_context():
    # under verify the flags read the float core and Gamma from the run's
    # context; the records agree with the library form
    job = catalog.load_job("5.3")
    job.checks = ["structure-flags"]
    records = report.run_job(job).records
    flags = sub.structure_flags(context(job.setup, job.points)).as_dict()
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
    assert [r["verdict"] for r in rep.records] == ["pass"] * len(job.points)
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
    assert [r["verdict"] for r in rep.records] == ["pass"]
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
    assert set(vars(ctx.cores.partials)) == {"setup", "points", "base_coords"}


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
    assert [r["verdict"] for r in rep.records] == ["pass", "pass"]
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
    rec, = report.run_job(job).records
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
    records = report.run_job(job).records
    skipped = report.run_job(parse_manifest(FIBER_2D_NO_XI)).records
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
    records = [_synthetic("fail", (1.0, 2.0), 0.5, lhs=1.25, rhs=0.75),
               _synthetic("hypothesis-not-met", (9.0, 9.0), 7.0),
               _synthetic("pass", (3.0, 3.0), 0.0)]
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
    assert len(rep.records) == len(checks.split(","))
    assert counts["fit_mu"] == fits


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
        job.setup.float_cores(job.points)
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


def _capture_payloads(monkeypatch):
    payloads = []
    real = report.json_text

    def capture(payload):
        payloads.append(payload)
        return real(payload)

    monkeypatch.setattr(report, "json_text", capture)
    return payloads


def _oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", catalog.EXAMPLE_IDS
                         + ("curved-all", "flat-sweep", "fiber-2d"))
def test_verify_json_equals_json_dumps(name):
    if name in catalog.EXAMPLE_IDS:
        job = catalog.load_job(name)
    else:
        job = parse_manifest(_workloads().manifest_text(name, 1))
    rep = report.run_job(job)
    assert report.to_json(rep) == _oracle({
        "job": rep.job, "records": rep.records, "counts": rep.counts,
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
_RECORDS = st.builds(
    record, st.sampled_from(ALL_CHECK_IDS + SOLITON_CHECKS) | _TEXTS,
    st.lists(_FLOATS, max_size=4), _FLOATS, _FLOATS, _HYPOTHESES, _FLOATS,
    terms=st.dictionaries(_TEXTS, _FLOATS, max_size=4), label=_TEXTS,
    note=_TEXTS, residual=st.none() | _FLOATS,
    scale=st.none() | _PLAIN_FLOATS.filter(lambda x: x != 0),
    absolute=st.booleans())


@given(st.lists(_RECORDS, max_size=3))
@example([record("G2.12", (), math.nan, -0.0, [], 1e-6)])
@example([record("R3.13", (-0.0, 5e-324, 1e300), np.float64(math.inf),
                 -math.inf, [Hypothesis("\u00e9\"\\", True, np.float64(0.5))],
                 0.0, terms={"\u03bb^2 \u2028": 1e300, "\x00": -0.0},
                 label="X\u2081 \t", note="\ud83d\ude00")])
def test_records_json_equals_json_dumps(records):
    # every record identities.record can build is written from the
    # record template, as json.dumps writes it
    rep = report.Report(job={"n_points": 1}, records=records,
                        counts=report.count_verdicts(records),
                        meta={"seed": None})
    assert report.to_json(rep) == _oracle({
        "job": rep.job, "records": records, "counts": rep.counts,
        "flagged_fails": 0, "meta": rep.meta})


@pytest.mark.parametrize("change", [
    lambda rec: rec.pop("note"), lambda rec: rec.update(label=None),
    lambda rec: rec.update(lhs=2), lambda rec: rec.update(point=[[1.0]]),
    lambda rec: rec["hypotheses"][0].pop("violation"),
    lambda rec: rec["terms"].update(nested={"a": 1.0})])
def test_a_record_laid_out_otherwise_raises(change):
    # the writer knows only the record identities.record builds: a record
    # that drifts from it fails loudly instead of being written otherwise
    rec = record("L2.1", (1.0, 2.0), 1.0, 0.5, [Hypothesis("h", True, 0.0)],
                 1e-6, terms={"t": 0.25})
    change(rec)
    rep = report.Report(job={}, records=[rec], counts={}, meta={})
    with pytest.raises((KeyError, TypeError)):
        report.to_json(rep)


def _close(got, ref):
    return abs(got - ref) <= 1e-12 * (1.0 + abs(ref)) or (
        math.isnan(got) and math.isnan(ref))


def _soliton_reports(job):
    """The soliton reports of a run that keep per-point values, and its
    structure flags, from one context over the job's points, with the
    job's base field when it declares one."""
    ctx = IdentityContext(job.setup, job.points)
    xi_base = next((spec for target, spec in job.fields.values()
                    if target == "base"), None)
    return ({"fiber": sol.fiber_soliton_report(ctx, job.xi, mu=job.mu),
             "base": sol.base_soliton_report(ctx, job.xi, job.mu,
                                             xi_base=xi_base),
             "harmonicity": sol.harmonicity_report(ctx, job.mu)},
            sub.structure_flags(ctx).as_dict())


def _assert_same_per_point(got, ref, what):
    assert got.keys() == ref.keys(), what
    for key, value in ref.items():
        if key == "point":
            assert got[key] == value, what
        elif key == "trace_terms":
            _assert_same_per_point(got[key], value, what + (key,))
        else:
            assert _close(got[key], value), what + (key,)


def _assert_solitons_match_points_alone(job, points):
    # each report's per-point values are those of the point alone, its
    # merged hypotheses the worst over the points alone, and each
    # structure flag's violation the largest over them
    job.points = points
    stacked, flags = _soliton_reports(job)
    alone = []
    for p in points:
        job.points = [p]
        alone.append(_soliton_reports(job))
    for name, rep in stacked.items():
        for i, entry in enumerate(rep.per_point):
            ref, = alone[i][0][name].per_point
            _assert_same_per_point(entry, ref, (name, i))
        for k, hyp in enumerate(rep.hypotheses):
            refs = [reps[name].hypotheses[k] for reps, _ in alone]
            assert {h.name for h in refs} == {hyp.name}
            assert hyp.satisfied == all(h.satisfied for h in refs), name
            assert _close(hyp.violation, max(h.violation for h in refs)), (
                name, hyp.name)
    for key, check in flags.items():
        assert _close(check.max_violation,
                      max(f[key].max_violation for _, f in alone)), key


@pytest.mark.parametrize("name", ["curved-all", "fiber-2d", "flat-sweep"])
def test_stacked_run_matches_runs_of_each_point_alone(name):
    # the run's one context reads every point's values off the stacked
    # arrays: the identity records of a run over 8 points are those of 8
    # runs over one point each, and on curved-all so are the soliton
    # reports' per-point values (their records summarize all of a run's
    # points, so they are not per point)
    job = parse_manifest(_workloads().manifest_text(name, 1, points=8))
    points = list(job.points)
    assert len(points) == 8
    stacked = report.run_job(job).records
    alone = []
    for p in points:
        job.points = [p]
        alone += report.run_job(job).records
    if name == "curved-all":
        _assert_solitons_match_points_alone(job, points)
    stacked, alone = ([r for r in recs if r["kind"] == "identity"]
                      for recs in (stacked, alone))
    assert stacked and len(stacked) == len(alone)
    assert len({tuple(r["point"]) for r in stacked}) == 8
    for got, ref in zip(stacked, alone):
        for key in ("id", "label", "point", "verdict", "note",
                    "convention_sensitive"):
            assert got[key] == ref[key], (got["id"], key)
        for key in ("lhs", "rhs", "abs_residual", "rel_residual"):
            assert _close(got[key], ref[key]), (got["id"], key)
        assert got["terms"].keys() == ref["terms"].keys()
        assert all(_close(got["terms"][k], v)
                   for k, v in ref["terms"].items()), got["id"]
        assert [(h["name"], h["satisfied"]) for h in got["hypotheses"]] == [
            (h["name"], h["satisfied"]) for h in ref["hypotheses"]]
        assert all(_close(g["violation"], r["violation"]) for g, r in zip(
            got["hypotheses"], ref["hypotheses"])), got["id"]


def test_stacked_fields_match_runs_of_each_point_alone():
    # on the 5.3 metric with a nonconstant xi and a declared base field
    # xi_N, each seeded once over all 12 points: every point's soliton
    # values are those of the point alone
    job = catalog.load_job("5.3")
    job.fields = {
        "xi": ("total", job.setup.total.field("x3^-2", "x1*x2^3",
                                              "sin(x1)*x3^-1")),
        "xi_n": ("base", job.setup.base.field("y2^-2", "exp(y1)*y2^3"))}
    reports, _ = _soliton_reports(job)
    assert np.ptp([e["projection_residual"]
                   for e in reports["base"].per_point]) > 0.1
    _assert_solitons_match_points_alone(job, list(job.points))


def test_example_json_equals_json_dumps(monkeypatch, example_reports):
    payloads = _capture_payloads(monkeypatch)
    for eid, rep in example_reports.items():
        text = report.example_report_to_json(rep)
        assert text == _oracle(payloads[-1]), eid


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.floats().map(np.float64) | st.text()
                | st.sampled_from([-0.0, 1e300, -1e300, 5e-324, math.nan,
                                   math.inf, -math.inf, "", "\x00\x1f\u00e9",
                                   "\u2028\ud83d\ude00"]))
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@given(_JSON_PAYLOADS)
def test_json_text_equals_json_dumps(payload):
    assert report.json_text(payload) == _oracle(payload)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), object(),
                                   {1: 2.0}])
def test_json_text_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        report.json_text({"value": value})

"""Report assembly: counts, flagged failures, verdict bookkeeping."""

from collections import Counter

import pytest

from confsub import catalog, report
from confsub import submersion as sub
from confsub.geometry import ChartManifold
from confsub.identities import IdentityContext
from confsub.jets import Jet, JetSpace
from confsub.manifest import parse_manifest

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


def test_json_and_text_render():
    rep = report.run_job(make_job("G2.12, fit-mu"))
    text = report.to_text(rep)
    assert "lambda^2 range" in text
    assert "totals:" in text
    payload = report.to_json(rep)
    assert '"records"' in payload
    # wall time must not leak into the canonical JSON
    assert "wall_time" not in payload


def test_one_context_and_one_oneill_bundle_per_point(monkeypatch):
    # checks = all on one 5.3 point: every identity and soliton report
    # shares the point's context, whose T/A bundle is built once and
    # differentiated once
    counts = Counter()
    real_init = IdentityContext.__init__
    real_bundle = sub.oneill_tensors_at
    real_projectors = sub.SubmersionSetup.projectors_at

    def counting_init(self, *args, **kwargs):
        counts["contexts"] += 1
        real_init(self, *args, **kwargs)

    def counting_bundle(setup, xs):
        counts["jet" if isinstance(xs[0], Jet) else "float"] += 1
        return real_bundle(setup, xs)

    def counting_projectors(self, xs):
        counts["projectors"] += 1
        return real_projectors(self, xs)

    monkeypatch.setattr(IdentityContext, "__init__", counting_init)
    monkeypatch.setattr(sub, "oneill_tensors_at", counting_bundle)
    monkeypatch.setattr(sub.SubmersionSetup, "projectors_at",
                        counting_projectors)
    job = catalog.load_job("5.3")
    job.points = job.points[:1]
    assert "harmonicity" in job.checks
    rep = report.run_job(job)
    assert rep.records
    assert counts["contexts"] == 1
    # one derivative build in the context; float builds: the context's,
    # then one each in structure_flags and the tension field
    assert counts["jet"] == 1
    assert counts["float"] <= 3
    assert counts["projectors"] <= 100


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


def test_context_evaluates_each_ingredient_once(monkeypatch):
    # one point of a cheap 2-D job: the context evaluates g once, takes
    # grad f and Hess f of f = 1/lambda^2 from one order-2 seeding and
    # reads H' and the conformality from values it already holds
    counts = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((IdentityContext, "__init__"), (JetSpace, "seed"),
                        (ChartManifold, "metric_at"),
                        (sub.SubmersionSetup, "lambda_sq_at")):
        counting(owner, name)
    rep = report.run_job(parse_manifest(FLAT_SWEEP))
    assert [r["verdict"] for r in rep.records] == ["pass"]
    assert counts["__init__"] == 1
    assert counts["seed"] <= 13
    assert counts["metric_at"] <= 14
    assert counts["lambda_sq_at"] <= 2

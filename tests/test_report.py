"""Report assembly: counts, flagged failures, verdict bookkeeping."""

from collections import Counter

import pytest

from confsub import catalog, report
from confsub import geometry as geo
from confsub import submersion as sub
from confsub.cli import EXIT_USAGE, main
from confsub.geometry import ChartManifold
from confsub.identities import IdentityContext
from confsub.jets import EvaluationError, Jet, JetSpace
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
    # shares the point's context, which builds T, A and their covariant
    # derivatives from its own P_v seeding and never calls
    # oneill_tensors_at
    counts = Counter()
    real_init = IdentityContext.__init__
    real_bundle = sub.oneill_tensors_at
    real_projectors = sub.SubmersionSetup.projectors_at

    def counting_init(self, *args, **kwargs):
        counts["contexts"] += 1
        real_init(self, *args, **kwargs)

    def counting_bundle(setup, xs, gamma=None):
        counts["jet" if isinstance(xs[0], Jet) else "float"] += 1
        return real_bundle(setup, xs, gamma)

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
    # float builds: one each in structure_flags and the tension field
    assert counts["jet"] == 0
    assert counts["float"] == 2
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


def _count_calls(monkeypatch, counts, targets):
    """Count the calls of each (owner, name) under ``name`` in counts."""
    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))


def test_context_evaluates_each_ingredient_once(monkeypatch):
    # one point of a cheap 2-D job: the context's float core evaluates
    # the total metric twice (checked matrix and core matrices) and the
    # base metric once, seeds only the Jacobian and takes lambda^2 from
    # the core matrices it already holds
    counts = Counter()
    _count_calls(monkeypatch, counts, (
        (IdentityContext, "__init__"), (JetSpace, "seed"),
        (ChartManifold, "metric_at"), (sub.SubmersionSetup, "lambda_sq_at")))
    rep = report.run_job(parse_manifest(FLAT_SWEEP))
    assert [r["verdict"] for r in rep.records] == ["pass"]
    assert counts["__init__"] == 1
    assert counts["seed"] <= 1
    assert counts["metric_at"] <= 4
    assert counts["lambda_sq_at"] == 0


def test_flat_sweep_builds_no_curvature(monkeypatch):
    # G2.12 on one-dimensional fibers reads the frames, lambda^2 and the
    # conformality hypothesis only, so no curvature, Christoffel symbols or
    # O'Neill tensors are built at the point
    counts = Counter()
    _count_calls(monkeypatch, counts, (
        (geo, "curvature_tensor_at"), (geo, "christoffels_at"),
        (sub, "oneill_tensors_at"), (JetSpace, "seed")))
    rep = report.run_job(parse_manifest(FLAT_SWEEP))
    assert [r["verdict"] for r in rep.records] == ["pass"]
    assert counts["curvature_tensor_at"] == 0
    assert counts["christoffels_at"] == 0
    assert counts["oneill_tensors_at"] == 0
    assert counts["seed"] <= 1


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

"""Example catalog: published values versus the computation."""

from collections import Counter

import pytest

from confsub import catalog
from confsub import submersion as sub
from confsub.identities import IdentityContext
from confsub.jets import JetSpace

EXPECTED_DIVERGENCES = {
    "5.1": {"Ric(e1,e1) printed", "Ric(e2,e2) printed"},
    "5.2": {"Ric(e1,e1) printed"},
    "5.3": {"T_UU, U=e1 [3]", "g(U,U)H, U=e1 [3]"},
    "5.4": set(),
}


@pytest.mark.parametrize("eid", catalog.EXAMPLE_IDS)
def test_no_hard_failures(eid, example_reports):
    rep = example_reports[eid]
    assert rep.counts["fail"] == 0
    assert rep.counts["pass"] > 0


@pytest.mark.parametrize("eid", catalog.EXAMPLE_IDS)
def test_divergence_sections_exact(eid, example_reports):
    rep = example_reports[eid]
    assert {r["name"] for r in rep.discrepancies} == EXPECTED_DIVERGENCES[eid]
    for row in rep.discrepancies:
        assert row["verdict"] == "paper-divergent"
        assert row["provenance"] == "paper-printed"


def test_oracle_rows_pass(example_reports):
    # every derived-oracle row agrees with the computation
    for rep in example_reports.values():
        for row in rep.rows:
            if row["provenance"] == "derived-oracle":
                assert row["verdict"] == "pass", (rep.example_id, row["name"])


def test_51_ricci_values(example_reports):
    rows = {r["name"]: r for r in example_reports["5.1"].rows}
    assert rows["Ric(e2,e2) printed"]["computed"] == pytest.approx(-1.0,
                                                                 abs=1e-9)
    assert rows["Ric(e2,e2) oracle"]["verdict"] == "pass"
    assert rows["Ric(e1,e2) printed"]["verdict"] == "pass"


def test_52_metric_is_flat(example_reports):
    rows = {r["name"]: r for r in example_reports["5.2"].rows}
    assert rows["Ric(e1,e1) printed"]["computed"] == pytest.approx(0.0,
                                                                   abs=1e-12)
    assert rows["Ric(e1,e1) oracle"]["verdict"] == "pass"


def test_points_counts():
    for eid in catalog.EXAMPLE_IDS:
        assert len(catalog.default_points(eid)) >= 10


def test_jobs_come_from_shipped_manifests():
    job = catalog.load_job("5.3")
    assert job.mu == 2.0
    assert job.setup.total.coord_names == ["x1", "x2", "x3"]
    assert job.xi is not None


def test_unknown_example_rejected():
    with pytest.raises(catalog.UnknownExampleError):
        catalog.run_example("5.9")
    with pytest.raises(catalog.UnknownExampleError):
        catalog.default_points("nope")


def test_run_example_evaluates_each_ingredient_once(monkeypatch):
    # each ingredient is computed once per run, outside the per-row
    # loops: one identity context for all the points (Gamma, lambda^2,
    # T, A, H, Ricci) shared by every row and by the structure flags,
    # reading the run's one CorePartials; the per-field T/A path is never
    # taken.  The run seeds the float cores' Jacobian, the CorePartials
    # leaves (the metric, the Jacobian with its inner seeding, h o F) once
    # each, for all its points: 5 seedings; Ricci reads the metric seeding
    # Gamma came from, and the structure flags read no base curvature
    counts = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((IdentityContext, "__init__"),
                        (sub, "oneill_contraction"),
                        (JetSpace, "seed")):
        counting(owner, name)
    rep = catalog.run_example("5.3")
    assert rep.counts["fail"] == 0
    assert counts["__init__"] == 1
    # T and A are contracted once for all the points
    assert counts["oneill_contraction"] == 1
    assert counts["seed"] == 5
    counts.clear()
    catalog.run_example("5.1")
    assert counts["__init__"] == 1
    assert counts["oneill_contraction"] == 1
    assert counts["seed"] == 5

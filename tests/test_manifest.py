"""Manifest parsing: schema validation, sampling determinism."""

import pytest

from confsub.manifest import (KNOWN_CHECKS, ManifestError, parse_manifest,
                              sample_box, splitmix64)

GOOD = """
# minimal valid manifest
total.dim    = 2
total.coords = x1 x2
total.metric = exp(-2*x2), 0 ; 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = x1
fields.xi  = total : 0, 0
soliton.xi = xi
soliton.mu = 1
checks = G2.12, T3.4
points.list = (0, 0) ; (1, 0.5)
tolerance = 1e-8
"""


def test_good_manifest_parses():
    job = parse_manifest(GOOD)
    assert job.setup.m == 2 and job.setup.n == 1
    assert job.mu == 1.0
    assert job.checks == ("G2.12", "T3.4")
    assert len(job.points) == 2
    assert job.tolerance == 1e-8
    assert job.xi is not None


def replace(key, value):
    lines = []
    for line in GOOD.splitlines():
        if line.split("=")[0].strip() == key:
            if value is not None:
                lines.append(f"{key} = {value}")
        else:
            lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("bad,match", [
    (replace("total.metric", "1, 0 ; 0, 1 ; 0, 0"), "2x2"),
    (replace("total.coords", "x1 x2 x3"), "3 names"),
    (replace("map.components", "x1, x2"), "map.components"),
    (replace("soliton.xi", "undeclared"), "undeclared"),
    (replace("checks", "G9.99"), "unknown check"),
    (replace("points.list", None), "points.list or points.box"),
    (replace("points.list", "(0, 0, 0)"), "coordinates"),
    (replace("base.dim", "2"), "1 names for dim 2"),
    (GOOD + "\nsoliton.mu = 2", "duplicate"),
    (GOOD.replace("fields.xi  = total : 0, 0",
                  "fields.xi  = sideways : 0, 0"), "total or base"),
    (GOOD.replace("exp(-2*x2)", "exp(-2*y9)"), "y9"),
])
def test_schema_violations(bad, match):
    with pytest.raises(ManifestError, match=match):
        parse_manifest(bad)


def test_missing_key_reported():
    text = "\n".join(l for l in GOOD.splitlines()
                     if not l.startswith("base.metric"))
    with pytest.raises(ManifestError, match="base.metric"):
        parse_manifest(text)


def test_domain_violation_rejected():
    text = replace("points.list", "(0, -1) ; (1, 0.5)")
    text = text.replace("total.metric = exp(-2*x2), 0 ; 0, 1",
                        "total.metric = exp(-2*x2), 0 ; 0, 1\n"
                        "total.domain = x2 > -0.5")
    with pytest.raises(ManifestError, match="domain"):
        parse_manifest(text)


def test_overrides():
    job = parse_manifest(GOOD, overrides={"tolerance": "1e-3",
                                          "checks": "all"})
    assert job.tolerance == 1e-3
    assert set(job.checks) == set(KNOWN_CHECKS)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "tight"])
def test_tolerance_must_be_finite_and_non_negative(tol):
    # a NaN tolerance would fail every comparison and an infinite one
    # pass every comparison, so neither is a usable bound
    with pytest.raises(ManifestError, match="tolerance"):
        parse_manifest(replace("tolerance", tol))
    with pytest.raises(ManifestError, match="tolerance"):
        parse_manifest(GOOD, overrides={"tolerance": tol})


def test_zero_tolerance_is_valid():
    assert parse_manifest(replace("tolerance", "0")).tolerance == 0.0


def test_box_sampling_deterministic():
    box = [(-1.0, 1.0), (0.5, 2.0)]
    a = sample_box(box, 10, seed=42)
    b = sample_box(box, 10, seed=42)
    assert [p.coords for p in a] == [p.coords for p in b]
    c = sample_box(box, 10, seed=43)
    assert [p.coords for p in a] != [p.coords for p in c]
    for p in a:
        assert -1.0 <= p.coords[0] <= 1.0
        assert 0.5 <= p.coords[1] <= 2.0


def test_box_sampling_respects_predicate():
    box = [(-1.0, 1.0)]
    pts = sample_box(box, 8, seed=1, predicate=lambda p: p.coords[0] > 0)
    assert all(p.coords[0] > 0 for p in pts)
    with pytest.raises(ManifestError, match="predicate"):
        sample_box(box, 1, seed=1, predicate=lambda p: False,
                   max_attempts=50)


def test_splitmix64_is_a_bijection_sample():
    outs = {splitmix64(i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2 ** 64 for v in outs)


def test_box_manifest():
    text = replace("points.list", None) + (
        "\npoints.box = -1 1 ; 0 2\npoints.count = 7\npoints.seed = 5\n")
    job = parse_manifest(text)
    assert len(job.points) == 7
    assert job.seed == 5
    again = parse_manifest(text)
    assert [p.coords for p in job.points] == [p.coords for p in again.points]

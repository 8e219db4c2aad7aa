"""Manifest parsing: schema validation, sampling determinism."""

import numpy as np
import pytest

from confsub.expr import eval_expr
from confsub.jets import EvaluationError
from confsub.manifest import (KNOWN_CHECKS, ManifestError, _units,
                              parse_manifest, sample_box)
from support import MASK, splitmix64

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


BOX = replace("points.list", None) + """
points.box   = -1 1 ; -1 1
points.count = 3
points.seed  = 7
"""


# a malformed value of each numeric key, and how its message reads it
MALFORMED = {"total.dim": ("2.0", "'2.0' is not an integer"),
             "base.dim": ("one", "'one' is not an integer"),
             "points.count": ("2.5", "'2.5' is not an integer"),
             "points.seed": ("0x2a", "'0x2a' is not an integer"),
             "soliton.mu": ("mu", "'mu' is not a number"),
             "points.list": ("(0, abc)", "'abc' is not a number"),
             "points.box": ("-1 1 ; -1 b", "'b' is not a number"),
             "tolerance": ("tight", "'tight' is not a number")}


@pytest.mark.parametrize("key", MALFORMED)
def test_malformed_number_names_its_key(key):
    # the message names the key and the text it could not read, not
    # Python's conversion error
    value, message = MALFORMED[key]
    assert parse_manifest(BOX).points
    with pytest.raises(ManifestError) as err:
        parse_manifest(BOX, overrides={key: value})
    assert str(err.value) == f"{key}: {message}"


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
    pts = sample_box(box, 8, seed=1, predicate=lambda xs: xs[:, 0] > 0)
    assert all(p.coords[0] > 0 for p in pts)
    with pytest.raises(ManifestError, match="predicate"):
        sample_box(box, 1, seed=1, predicate=lambda xs: xs[:, 0] > 2,
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


@pytest.mark.parametrize("box", ["-inf 1", "-1 inf", "-1e308 1e308",
                                 "-1e308 1.7976931348623157e308"])
def test_box_bounds_must_be_finite_with_a_finite_width(box):
    text = replace("points.list", None) + (
        f"\npoints.box = -1 1 ; {box}\npoints.count = 3\n")
    with pytest.raises(ManifestError, match=f"box range {box!r} is not "
                       "finite or its width overflows"):
        parse_manifest(text)


# ---------------------------------------------------------------------
# the array sampler against a one-at-a-time reference
# ---------------------------------------------------------------------

GOLDEN = 0x9E3779B97F4A7C15


def _reference_unit(seed, counter):
    return splitmix64((seed + counter * GOLDEN) & MASK) / 2.0 ** 64


def _reference_sample(box, count, seed, predicate, max_attempts=1000):
    """One candidate at a time: ``predicate`` takes a coordinate tuple."""
    points, counter, misses = [], 0, 0
    while len(points) < count:
        coords = []
        for lo, hi in box:
            coords.append(lo + _reference_unit(seed, counter) * (hi - lo))
            counter += 1
        if predicate(tuple(coords)):
            points.append(tuple(coords))
            misses = 0
        else:
            misses += 1
            if misses >= max_attempts:
                raise ManifestError(f"after {max_attempts} attempts")
    return points


def _scalar_in_domains(setup):
    """The domain test of a manifest at one point, from floats."""
    def holds(chart, xs):
        return chart.domain is None or bool(
            eval_expr(chart.domain, chart.env(xs)))

    def in_domains(xs):
        return holds(setup.total, xs) and holds(
            setup.base, [float(y) for y in setup.map_point_at(xs)])
    return in_domains


@pytest.mark.parametrize("seed", [0, 42, -7, 2 ** 63 + 12345, 2 ** 64 - 1])
def test_units_match_scalar_splitmix64(seed):
    start = 1000 if seed == 42 else 0
    got = _units(seed, start, 25_000).tolist()
    want = [_reference_unit(seed, c) for c in range(start, start + 25_000)]
    assert got == want


SAMPLED = """
total.dim    = 3
total.coords = x1 x2 x3
total.metric = x3^-2, 0, 0 ; 0, x3^-2, 0 ; 0, 0, x3^-2
base.dim     = 2
base.coords  = y1 y2
base.metric  = 1, 0 ; 0, 1
map.components = x2, x3
points.box = -1 1 ; -1 1 ; 0.5 3
points.count = 40
points.seed = 11
"""
SAMPLED_BOX = [(-1.0, 1.0), (-1.0, 1.0), (0.5, 3.0)]


@pytest.mark.parametrize("domains", [
    "",
    "total.domain = x3 > 1",
    "total.domain = x3 > 1\nbase.domain = y2 > 1.8 and y1 < 0.5",
    # about four in five candidates rejected, over several blocks
    "base.domain = y2 > 2.5 or y1 < -0.9",
])
def test_box_points_match_one_at_a_time_reference(domains):
    job = parse_manifest(SAMPLED + domains)
    want = _reference_sample(SAMPLED_BOX, 40, 11,
                             _scalar_in_domains(job.setup))
    assert [p.coords for p in job.points] == want


@pytest.mark.parametrize("count,accepted,max_attempts", [
    (30, lambda i: i % 3 == 0 or i % 7 == 0, 1000),  # most rejected
    (5, lambda i: i in (0, 4, 5), 50),  # the error after 50 rejections
    (12, lambda i: True, 4),
], ids=["mostly-rejected", "max-attempts", "all-accepted"])
def test_sampler_tests_exactly_the_reference_candidates(count, accepted,
                                                        max_attempts):
    box = [(-1.0, 1.0), (0.0, 2.0)]
    seen, ref_seen = [], []

    def block(xs):
        first = len(seen)
        seen.extend(map(tuple, xs.tolist()))
        return np.array([accepted(i) for i in range(first, len(seen))],
                        dtype=bool)

    def one(coords):
        ref_seen.append(coords)
        return accepted(len(ref_seen) - 1)

    try:
        want = _reference_sample(box, count, 3, one, max_attempts)
    except ManifestError:
        with pytest.raises(ManifestError, match=f"after {max_attempts} "):
            sample_box(box, count, 3, block, max_attempts)
    else:
        assert [p.coords for p in sample_box(
            box, count, 3, block, max_attempts)] == want
    assert seen == ref_seen


@pytest.mark.parametrize("components,message", [
    ("x2, log(x2)", "log of a non-positive value in 'log(x2)'"),
    # a block's first failing operation (the log, over every row) is not
    # that of its first failing row, whose sqrt fails first
    ("x2, log(x2 + 0.9) + sqrt(x1 + 0.8)",
     "sqrt of a negative value in 'sqrt(x1 + 0.8)'"),
])
def test_map_raising_at_a_reached_candidate_keeps_its_message(components,
                                                              message):
    # the map is undefined on part of the box, and a base domain reads
    # its values
    text = SAMPLED.replace("x2, x3", components) + "base.domain = y1 > 0.5"
    setup = parse_manifest(text.replace("points.box = -1 1 ; -1 1 ; 0.5 3",
                                        "points.list = (0, 1, 1)")).setup
    with pytest.raises(EvaluationError) as ref:
        _reference_sample(SAMPLED_BOX, 40, 11, _scalar_in_domains(setup))
    with pytest.raises(EvaluationError) as got:
        parse_manifest(text)
    assert str(got.value) == str(ref.value) == message

"""Keyed plain-text manifest format defining a verification job.

A manifest is a sequence of ``key = value`` lines; ``#`` starts a
comment and blank lines are ignored.  Keys (case-sensitive)::

    total.dim       = 3
    total.coords    = x1 x2 x3
    total.metric    = x3^-2, 0, 0 ; 0, x3^-2, 0 ; 0, 0, x3^-2
    total.domain    = x3 > 1                  # optional predicate
    base.dim        = 2
    base.coords     = y1 y2
    base.metric     = 1, 0 ; 0, 1
    base.domain     = y2 > 1                  # optional
    map.components  = x2, x3
    fields.xi       = total : 0, 0, 0         # target 'total' or 'base'
    soliton.xi      = xi                      # optional, names a field
    soliton.mu      = 2                       # optional
    checks          = G2.12, P3.1, all ...
    points.list     = (0, 1.5, 2) ; (1, 2, 3)  # or points.box
    points.box      = -1 1 ; 1.2 3 ; 1.5 4     # per-coordinate lo hi
    points.count    = 20                       # with points.box
    points.seed     = 42
    tolerance       = 1e-6                     # finite, >= 0

Box points are drawn by the splitmix64 counter-based generator so a
(seed, box) pair reproduces bit-identical points on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import ExprError, eval_expr
from .geometry import (ChartManifold, Point, batch_coordinates, each_point,
                       stack_points)
from .identities import ALL_CHECK_IDS
from .submersion import SubmersionSetup

SOLITON_CHECKS = ("fit-mu", "fiber-soliton", "base-soliton",
                  "conformal-fit", "scalar-mu", "harmonicity",
                  "structure-flags")
KNOWN_CHECKS = ALL_CHECK_IDS + SOLITON_CHECKS
# ids of the catalog examples (``confsub.catalog``), whose manifests ship
# in confsub/manifests; here so the command line can offer them without
# importing the catalog
EXAMPLE_IDS = ("5.1", "5.2", "5.3", "5.4")


class ManifestError(ValueError):
    """Schema or cross-reference violation in a manifest document."""


class VerificationJob:
    def __init__(self, setup, fields, xi_name=None, mu=None, checks=(),
                 points=None, tolerance=1e-6, seed=42):
        self.setup = setup
        self.fields = fields  # name -> (target, VectorFieldSpec)
        self.xi_name = xi_name
        self.mu = mu
        self.checks = checks
        self.points = [] if points is None else points
        self.tolerance = tolerance
        self.seed = seed

    @property
    def xi(self):
        if self.xi_name is None:
            return None
        return self.fields[self.xi_name][1]


# ---------------------------------------------------------------------
# splitmix64 counter-based sampling
# ---------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _units(seed, start, count):
    """splitmix64((seed + c G) mod 2**64) / 2**64, G = 0x9E3779B97F4A7C15,
    for c in [start, start + count): its steps on ``np.uint64`` operands
    only (NumPy 1 casts none), wrapping, with state + G = seed + (c + 1) G."""
    u64 = np.uint64
    z = np.arange(start + 1, start + count + 1, dtype=u64)
    with np.errstate(over="ignore"):
        z = u64(seed & _MASK) + z * u64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E9B5)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return (z ^ (z >> u64(31))) / 2.0 ** 64


def sample_box(box, count, seed, predicate=None, max_attempts=1000):
    """``count`` points uniform in ``box`` (list of (lo, hi) pairs),
    rejection-sampled against ``predicate``, a bool mask of a block of
    candidates' coordinates (k, dim), each block only candidates a one-at-
    a-time sampler reaches; raises after ``max_attempts`` misses in a row."""
    lo, hi = np.array(box, float).T
    points, counter, misses = [], 0, 0
    while len(points) < count:
        k = min(count - len(points), max_attempts - misses)
        xs = lo + _units(seed, counter, k * len(lo)).reshape(k, -1) * (hi - lo)
        counter += xs.size
        kept = np.flatnonzero(predicate(xs) if predicate else np.ones(k, bool))
        points.extend(map(Point, xs[kept].tolist()))
        misses = k - 1 - int(kept[-1]) if len(kept) else misses + k
        if misses >= max_attempts:
            raise ManifestError(
                f"could not sample a point satisfying the domain predicate "
                f"after {max_attempts} attempts")
    return points


def _holds(chart, xs):
    """A bool mask of the rows of coordinates ``xs`` in the chart's domain."""
    return np.full(len(xs), chart.domain is None or eval_expr(
        chart.domain, chart.env(batch_coordinates(xs))), bool)


def domain_mask(setup):
    """The predicate of ``sample_box`` for a submersion: a row holds in the
    total domain where its image there is finite (else ValueError) and in
    the base domain; under ``each_point``, the first row failing raises."""
    def mask(xs):
        held = _holds(setup.total, xs)
        rows = np.flatnonzero(held)
        if len(rows):
            ys = stack_points(setup.map_point_at(
                batch_coordinates(xs[rows])), len(rows))
            if not np.isfinite(ys).all():
                raise ValueError("point coordinates must be finite")
            held[rows] = _holds(setup.base, ys)
        return held

    return lambda xs: each_point(lambda: mask(xs),
                                 lambda i: mask(xs[i:i + 1]), len(xs))


# ---------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------

def _read_pairs(document):
    pairs = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        pairs.append((lineno, key.strip(), value.strip()))
    return pairs


def _number(text, key, kind=int):
    """``text``, read from ``key``, as an int, or as a float for
    ``kind=float``; a ManifestError naming the key otherwise."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ManifestError(f"{key}: {text.strip()!r} is not {what}") from None


def _metric_rows(text):
    return [[cell.strip() for cell in row.split(",")]
            for row in text.split(";")]


def _chart_from(keys, prefix):
    try:
        dim = _number(keys[f"{prefix}.dim"], f"{prefix}.dim")
        coords = keys[f"{prefix}.coords"].split()
        metric = _metric_rows(keys[f"{prefix}.metric"])
    except KeyError as exc:
        raise ManifestError(f"missing manifest key {exc.args[0]!r}") from None
    if dim <= 0:
        raise ManifestError(f"{prefix}.dim must be positive")
    if len(coords) != dim:
        raise ManifestError(
            f"{prefix}.coords lists {len(coords)} names for dim {dim}")
    if len(metric) != dim or any(len(row) != dim for row in metric):
        raise ManifestError(f"{prefix}.metric is not a {dim}x{dim} grid")
    domain = keys.get(f"{prefix}.domain")
    try:
        return ChartManifold.from_strings(coords, metric, domain)
    except ExprError as exc:
        raise ManifestError(f"in {prefix} chart: {exc}") from None


def _parse_point_list(text, dim):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ManifestError(f"malformed point {chunk!r}")
        coords = [_number(c, "points.list", float)
                  for c in chunk[1:-1].split(",")]
        if len(coords) != dim:
            raise ManifestError(
                f"point {chunk!r} has {len(coords)} coordinates, expected {dim}")
        points.append(Point(tuple(coords)))
    return points


def _parse_box(text, dim):
    box = []
    for chunk in text.split(";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ManifestError(f"box range {chunk.strip()!r} is not 'lo hi'")
        lo, hi = (_number(p, "points.box", float) for p in parts)
        if not lo < hi:
            raise ManifestError(f"empty box range {chunk.strip()!r}")
        if not math.isfinite(hi - lo):
            raise ManifestError(f"box range {chunk.strip()!r} is not finite "
                                "or its width overflows")
        box.append((lo, hi))
    if len(box) != dim:
        raise ManifestError(f"points.box lists {len(box)} ranges for dim {dim}")
    return box


def parse_tolerance(text):
    """A relative tolerance: a finite, non-negative number."""
    tol = _number(text, "tolerance", float)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ManifestError(
            f"tolerance must be finite and non-negative, got {text!r}")
    return tol


def parse_manifest(document, overrides=None):
    """Parse and fully validate a manifest document into a job.

    ``overrides`` maps manifest keys to replacement values applied after
    reading the document (used by the CLI for --tol/--seed/--points).
    """
    keys = {}
    for lineno, key, value in _read_pairs(document):
        if key in keys:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        keys[key] = value
    for key, value in (overrides or {}).items():
        keys[key] = value

    total = _chart_from(keys, "total")
    base = _chart_from(keys, "base")
    if base.dim >= total.dim:
        raise ManifestError("base.dim must be smaller than total.dim")

    if "map.components" not in keys:
        raise ManifestError("missing manifest key 'map.components'")
    comps = [c.strip() for c in keys["map.components"].split(",")]
    if len(comps) != base.dim:
        raise ManifestError(
            f"map.components lists {len(comps)} expressions for base dim {base.dim}")
    try:
        setup = SubmersionSetup.from_strings(total, base, comps)
    except ExprError as exc:
        raise ManifestError(f"in map.components: {exc}") from None

    fields = {}
    for key, value in keys.items():
        if not key.startswith("fields."):
            continue
        name = key[len("fields."):]
        if ":" not in value:
            raise ManifestError(
                f"field {name!r} needs the form 'total|base : comp, ...'")
        target, rest = value.split(":", 1)
        target = target.strip()
        if target not in ("total", "base"):
            raise ManifestError(f"field {name!r} target must be total or base")
        chart = total if target == "total" else base
        comps = [c.strip() for c in rest.split(",")]
        if len(comps) != chart.dim:
            raise ManifestError(
                f"field {name!r} has {len(comps)} components for "
                f"{target} dim {chart.dim}")
        try:
            fields[name] = (target, chart.field(*comps))
        except ExprError as exc:
            raise ManifestError(f"in field {name!r}: {exc}") from None

    xi_name = keys.get("soliton.xi")
    if xi_name is not None and xi_name not in fields:
        raise ManifestError(f"soliton.xi references undeclared field {xi_name!r}")
    if xi_name is not None and fields[xi_name][0] != "total":
        raise ManifestError("soliton.xi must name a field on the total manifold")
    mu = (_number(keys["soliton.mu"], "soliton.mu", float)
          if "soliton.mu" in keys else None)

    checks = []
    for token in keys.get("checks", "all").split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            checks.extend(KNOWN_CHECKS)
        elif token in KNOWN_CHECKS:
            checks.append(token)
        else:
            raise ManifestError(f"unknown check id {token!r}")
    seen = set()
    checks = tuple(c for c in checks if not (c in seen or seen.add(c)))

    tolerance = parse_tolerance(keys.get("tolerance", "1e-6"))
    seed = _number(keys.get("points.seed", "42"), "points.seed")

    in_domains = domain_mask(setup)
    if "points.list" in keys:
        points = _parse_point_list(keys["points.list"], total.dim)
        held = in_domains(np.array([p.coords for p in points]))
        if not held.all():
            raise ManifestError(f"point {points[held.argmin()].coords} "
                                "violates a domain predicate")
    elif "points.box" in keys:
        box = _parse_box(keys["points.box"], total.dim)
        count = _number(keys.get("points.count", "20"), "points.count")
        if count <= 0:
            raise ManifestError("points.count must be positive")
        points = sample_box(box, count, seed, predicate=in_domains)
    else:
        raise ManifestError("manifest needs points.list or points.box")

    return VerificationJob(setup=setup, fields=fields, xi_name=xi_name,
                           mu=mu, checks=checks, points=points,
                           tolerance=tolerance, seed=seed)


def load_manifest(path, overrides=None):
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read(), overrides=overrides)

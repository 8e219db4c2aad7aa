"""Seeded workload generators.

Each workload turns a benchmark seed into the inputs the program sees: a
``.cfsm`` manifest for the three ``verify`` workloads, an order of catalog
ids for ``catalog-replay``.  Only the generated text reaches the program.
The job shape (metric family, checks, point count) is fixed per workload;
the seed moves the coefficients and the sampled points, so the verdict of
every check is the same for every seed while the arithmetic differs.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("curved-all", "flat-sweep", "fiber-2d", "catalog-replay")
CATALOG_IDS = ("5.1", "5.2", "5.3", "5.4")

# Seeds 1-10 are for tuning and regression runs; this one is held out so a
# later speed-up can be confirmed on inputs it was not written against.
HELD_OUT_SEED = 1000003

# Golden residuals are recorded for the manifest of this seed, reduced to at
# most ANCHOR_POINTS points, and replayed in every run before timing starts.
ANCHOR_SEED = 0
ANCHOR_POINTS = 64


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _fmt(x):
    return f"{x:.6f}"


def _curved_all(rng, points):
    # catalog 5.3: upper half-space over the half-plane, dilation x3,
    # umbilic fibers; checks = all with the declared soliton field
    lo1 = rng.uniform(-2.0, 0.0)
    return "\n".join([
        "total.dim = 3",
        "total.coords = x1 x2 x3",
        "total.metric = x3^-2, 0, 0 ; 0, x3^-2, 0 ; 0, 0, x3^-2",
        "total.domain = x3 > 1",
        "base.dim = 2",
        "base.coords = y1 y2",
        "base.metric = 1, 0 ; 0, 1",
        "base.domain = y2 > 1",
        "map.components = x2, x3",
        "fields.xi = total : 0, 0, 0",
        "soliton.xi = xi",
        "soliton.mu = 2",
        "checks = all",
        f"points.box = {_fmt(lo1)} {_fmt(lo1 + 2.0)} ; 1.2 3 ; 1.2 3",
        f"points.count = {points}",
        f"points.seed = {rng.getrandbits(31)}",
        "tolerance = 1e-6",
        "",
    ])


def _flat_sweep(rng, points):
    # a cheap 2-D -> 1-D chart with an analytic exp metric and one cheap
    # check: fixed per-point cost (expression evaluation, seeding, context
    # build) dominates, the O'Neill tensor calculus barely runs
    a = rng.uniform(0.3, 1.2)
    half = rng.uniform(1.0, 2.0)
    return "\n".join([
        "total.dim = 2",
        "total.coords = x1 x2",
        f"total.metric = exp({_fmt(a)}*x2), 0 ; 0, 1",
        "base.dim = 1",
        "base.coords = y1",
        "base.metric = 1",
        "map.components = x1",
        "checks = G2.12",
        f"points.box = -{_fmt(half)} {_fmt(half)} ; "
        f"-{_fmt(half)} {_fmt(half)}",
        f"points.count = {points}",
        f"points.seed = {rng.getrandbits(31)}",
        "tolerance = 1e-6",
        "",
    ])


def _fiber_2d(rng, points):
    # warped product of the plane with a curved 2-D torus of revolution:
    # the only workload with 2-D fibers, so the only one that builds fiber
    # slice charts with intrinsic curvature; no soliton field, so the
    # soliton reports record a skip and the run exits 0
    c = rng.uniform(2.0, 3.0)
    b = rng.uniform(2.0, 3.0)
    warp = f"({_fmt(c)} + sin(x1))^2"
    return "\n".join([
        "total.dim = 4",
        "total.coords = x1 x2 x3 x4",
        f"total.metric = 1, 0, 0, 0 ; 0, 1, 0, 0 ; 0, 0, {warp}, 0 ; "
        f"0, 0, 0, {warp}*({_fmt(b)} + cos(x3))^2",
        "base.dim = 2",
        "base.coords = y1 y2",
        "base.metric = 1, 0 ; 0, 1",
        "map.components = x1, x2",
        "checks = all",
        "points.box = -1 1 ; -1 1 ; -1 1 ; -1 1",
        f"points.count = {points}",
        f"points.seed = {rng.getrandbits(31)}",
        "tolerance = 1e-6",
        "",
    ])


_MANIFESTS = {"curved-all": (_curved_all, 1),
              "flat-sweep": (_flat_sweep, 1000),
              "fiber-2d": (_fiber_2d, 1)}


def manifest_text(workload, seed, points=None):
    """The manifest document of a verify workload for ``seed``;
    ``points`` overrides the workload's point count."""
    build, default_points = _MANIFESTS[workload]
    return build(_rng(workload, seed), points or default_points)


def anchor_manifest_text(workload):
    default_points = _MANIFESTS[workload][1]
    return manifest_text(workload, ANCHOR_SEED,
                         min(default_points, ANCHOR_POINTS))


def catalog_order(seed):
    """The order in which catalog-replay runs the four examples."""
    order = list(CATALOG_IDS)
    _rng("catalog-replay", seed).shuffle(order)
    return order


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

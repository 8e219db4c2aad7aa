"""Shared fixtures: chart builders, the randomized submersion corpus,
and deterministic point sampling."""

import numpy as np
import pytest

from confsub import catalog
from confsub.geometry import ChartManifold, Point
from confsub.identities import IdentityContext, RecordTable
from confsub.manifest import sample_box
from confsub.submersion import SubmersionSetup

# coefficients for the randomized corpus, drawn once with a fixed seed
# so every run sees the same analytic setups
_RNG = np.random.default_rng(20240817)
_COEFF = {name: float(v) for name, v in zip(
    "abcdef", 0.3 + 0.9 * _RNG.random(6))}


# Ricci solitons with a nonzero field xi on flat R^3 over flat R^2, with
# every check: the Gaussian soliton xi = -2x, mu = 2 (L_xi g = -4g,
# div xi = -6), whose base field is xi_N = -2y, and the rotation field
# xi = (-x2, x1, 0), a Killing field, at mu = 0 over the rotation of the
# plane
GAUSSIAN_SOLITON = """
total.dim    = 3
total.coords = x1 x2 x3
total.metric = 1, 0, 0 ; 0, 1, 0 ; 0, 0, 1
base.dim     = 2
base.coords  = y1 y2
base.metric  = 1, 0 ; 0, 1
map.components = x1, x2
fields.xi  = total : -2*x1, -2*x2, -2*x3
fields.xin = base : -2*y1, -2*y2
soliton.xi = xi
soliton.mu = 2
checks = all
points.box = -1 1 ; -1 1 ; -1 1
points.count = 5
points.seed = 7
"""
ROTATION_SOLITON = GAUSSIAN_SOLITON.replace(
    "-2*x1, -2*x2, -2*x3", "-x2, x1, 0").replace(
    "-2*y1, -2*y2", "-y2, y1").replace("soliton.mu = 2", "soliton.mu = 0")


def chart(names, rows, domain=None):
    return ChartManifold.from_strings(
        names.split(),
        [[cell.strip() for cell in row.split(",")] for row in rows],
        domain)


def make_setup(total, base, map_texts):
    return SubmersionSetup.from_strings(total, base, map_texts)


def context(setup, points):
    """The points' run-level IdentityContext, as ``report.run_job`` builds
    it."""
    return IdentityContext(setup, points)


def rows_by_point(table):
    """The records of ``table``, an ``identities.RecordTable``, as row
    dicts (``RecordTable.rows``), one list per point of the table."""
    groups = [[] for _ in table.points]
    for index, row in zip(table.columns["point"], table.rows()):
        groups[index].append(row)
    return groups


def all_rows(fn, *args, **kwargs):
    """The records ``fn`` (``identities.record`` or a soliton report)
    appends to a fresh table, as row dicts: a soliton report's one per
    point of its context, in their order."""
    table = RecordTable()
    fn(table, *args, **kwargs)
    return table.rows()


def one_row(fn, *args, **kwargs):
    """The one record of ``all_rows``: ``identities.record``'s, or a
    soliton report's over a one-point context."""
    row, = all_rows(fn, *args, **kwargs)
    return row


def oneill(tensor, u, v):
    """T_u v (or A_u v) at every point from a context's coordinate-basis
    tensor, ``tensor[p, k, a, b]`` being component k of T_{e_a} e_b."""
    return np.einsum("...kab,a,b->...k", tensor, u, v)


def flat_chart(dim, prefix="x"):
    names = " ".join(f"{prefix}{i + 1}" for i in range(dim))
    rows = [", ".join("1" if i == j else "0" for j in range(dim))
            for i in range(dim)]
    return chart(names, rows)


def sample(box, count, seed=7, predicate=None):
    return sample_box(box, count, seed, predicate=predicate)


def warped_4to2():
    """Warped product of the plane with a curved 2-D torus: the corpus's
    only setup with two-dimensional fibers over a two-dimensional base."""
    return make_setup(
        chart("x1 x2 x3 x4",
              ["1, 0, 0, 0", "0, 1, 0, 0", "0, 0, (2.5 + sin(x1))^2, 0",
               "0, 0, 0, (2.5 + sin(x1))^2*(2.5 + cos(x3))^2"]),
        chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])


def riemannian_corpus():
    """Five analytic Riemannian-submersion setups (dilation identically
    one) with per-setup sampling boxes; coefficients are seeded-random."""
    a, b, c = _COEFF["a"], _COEFF["b"], _COEFF["c"]
    base1 = chart("y1", ["1"])
    base2 = chart("y1 y2", ["1, 0", "0, 1"])
    entries = []

    # flat product, everything vanishes
    entries.append(("flat-3to2", make_setup(
        flat_chart(3), base2, ["x1", "x2"]),
        [(-1.0, 1.0)] * 3))

    # warped line bundle: nonzero T, flat base
    entries.append(("warped-2to1", make_setup(
        chart("x1 x2", [f"1, 0", f"0, exp({2 * a:.6f}*x1)"]),
        base1, ["x1"]), [(-1.0, 1.0)] * 2))

    # twisted bundle: nonzero A, integrability fails
    entries.append(("twisted-3to2", make_setup(
        chart("x1 x2 x3", [f"1 + {b:.6f}^2*x2^2, 0, {b:.6f}*x2",
                           "0, 1, 0", f"{b:.6f}*x2, 0, 1"]),
        base2, ["x1", "x2"]), [(-1.0, 1.0)] * 3))

    # two-dimensional curved fiber: nonzero T, curved vertical geometry
    entries.append(("curved-fiber-3to1", make_setup(
        chart("x1 x2 x3", ["1, 0, 0",
                           f"0, exp({2 * c:.6f}*x1), 0",
                           f"0, 0, exp({2 * c:.6f}*x1)*(2 + sin(x2))"]),
        base1, ["x1"]), [(-0.8, 0.8)] * 3))

    # anisotropic warped fiber over a flat plane
    entries.append(("warped-3to2", make_setup(
        chart("x1 x2 x3", ["1, 0, 0", "0, 1, 0",
                           f"0, 0, exp({2 * a:.6f}*x1 + {b:.6f}*x2)"]),
        base2, ["x1", "x2"]), [(-1.0, 1.0)] * 3))
    return entries


def conformal_corpus():
    """Genuinely conformal setups: the four catalog examples plus a
    vertically-varying-dilation cone used as a regression anchor."""
    entries = []
    for eid in catalog.EXAMPLE_IDS:
        job = catalog.load_job(eid)
        entries.append((eid, job.setup, job.points))
    cone = make_setup(
        chart("x1 x2 x3", ["exp(-2*x3), 0, 0", "0, exp(-2*x3), 0",
                           "0, 0, 1"]),
        chart("y1 y2", ["1, 0", "0, 1"]), ["x1", "x2"])
    entries.append(("cone", cone,
                    [Point(c) for c in ((0.3, -0.5, 0.2), (1.0, 0.7, -0.4),
                                        (-0.6, 0.1, 0.8))]))
    return entries


@pytest.fixture(scope="session")
def riemannian_setups():
    return riemannian_corpus()


@pytest.fixture(scope="session")
def conformal_setups():
    return conformal_corpus()


@pytest.fixture(scope="session")
def example_reports():
    """Catalog comparison reports, computed once per test session."""
    return {eid: catalog.run_example(eid) for eid in catalog.EXAMPLE_IDS}

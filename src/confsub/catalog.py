"""Built-in example catalog: four reference conformal submersions with
their published expected values, runnable as a regression suite.

Every expected value carries a provenance marker.  ``paper-printed``
values are transcribed verbatim from the source write-up; when the
intrinsic computation contradicts one, the comparison is reported as
``paper-divergent`` (with both numbers side by side), never silently
fixed and never marked fail.  ``derived-oracle`` values are independent
recomputations and a mismatch there is a genuine failure.
"""

from __future__ import annotations

import importlib.resources
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .expr import eval_expr, parse_expression
from .identities import IdentityContext
from .linalg import quad_form
from .manifest import EXAMPLE_IDS, parse_manifest

class ExpectedValues(NamedTuple):
    christoffels: dict  # (k, i, j) -> expression text; absent means 0
    dilation: str  # expression for lambda^2, paper-printed
    oneill_values: list  # (name, kind, args, component expression texts, provenance)
    ricci_values: dict  # (i, j) -> (printed text, oracle text)
    structure: dict  # flag name -> expected bool, paper-printed prose
    mu_note: str = ""


class ExampleReport(NamedTuple):
    example_id: str
    rows: list  # dicts laid out as report.EXAMPLE_ROW_SCHEMA
    discrepancies: list  # the rows whose verdict is paper-divergent
    counts: dict  # rows by verdict
    note: str = ""


class UnknownExampleError(ValueError):
    pass


def _manifest_text(example_id):
    if example_id not in EXAMPLE_IDS:
        raise UnknownExampleError(f"unknown example id {example_id!r}")
    name = f"example_{example_id.replace('.', '_')}.cfsm"
    return (importlib.resources.files("confsub") / "manifests" / name
            ).read_text(encoding="utf-8")


def load_job(example_id):
    """The example's shipped manifest, parsed into a full job."""
    return parse_manifest(_manifest_text(example_id))


def default_points(example_id):
    """The published points of the example's shipped manifest (>= 10,
    no seed needed)."""
    return load_job(example_id).points


# ---------------------------------------------------------------------
# expected values, transcribed verbatim
# ---------------------------------------------------------------------

_EXPECTED = {
    "5.1": ExpectedValues(
        christoffels={(2, 1, 1): "exp(-2*x2)", (1, 1, 2): "-1"},
        dilation="exp(2*x2)",
        oneill_values=[
            ("A_XX, X=e1", "A", ((1.0, 0.0), (1.0, 0.0)),
             ("0", "exp(-2*x2)"), "paper-printed"),
            ("T_UU, U=e2", "T", ((0.0, 1.0), (0.0, 1.0)),
             ("0", "0"), "paper-printed"),
        ],
        ricci_values={
            (1, 1): ("-exp(-6*x2) - exp(-2*x2) - exp(-4*x2) + 1",
                     "-exp(-2*x2)"),
            (2, 2): ("-2*exp(-2*x2) - 1", "-1"),
            (1, 2): ("0", "0"),
        },
        structure={"fibers_totally_geodesic": True,
                   "horizontal_integrable": True,
                   "homothetic": True},
        mu_note=("published closed-form mu depends on x2 and on the chosen "
                 "field coefficients; the fitted constant and its spread are "
                 "reported by the soliton tooling instead"),
    ),
    "5.2": ExpectedValues(
        christoffels={(1, 1, 1): "1"},
        dilation="exp(-2*x1)",
        oneill_values=[
            ("A_XX, X=e1", "A", ((1.0, 0.0), (1.0, 0.0)),
             ("0", "0"), "paper-printed"),
            ("T_UU, U=e2", "T", ((0.0, 1.0), (0.0, 1.0)),
             ("0", "0"), "paper-printed"),
        ],
        ricci_values={
            (1, 1): ("(1 - 2*exp(2*x1)) * (exp(2*x1) - 1)", "0"),
            (2, 2): ("0", "0"),
            (1, 2): ("0", "0"),
        },
        structure={"fibers_totally_geodesic": True,
                   "fibers_totally_umbilical": True,
                   "horizontal_integrable": True,
                   "horizontal_totally_geodesic": True,
                   "homothetic": False},
        mu_note="fibers umbilical holds trivially with H = 0",
    ),
    "5.3": ExpectedValues(
        christoffels={(1, 1, 3): "-x3^-1", (2, 2, 3): "-x3^-1",
                      (3, 1, 1): "x3^-1", (3, 2, 2): "x3^-1",
                      (3, 3, 3): "-x3^-1"},
        dilation="x3^2",
        oneill_values=[
            ("T_UU, U=e1", "T", ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
             ("0", "0", "1"), "paper-printed"),
            ("g(U,U)H, U=e1", "umbilical-product", ((1.0, 0.0, 0.0),),
             ("0", "0", "x3^-2"), "paper-printed"),
            ("A_XX, X=e2", "A", ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
             ("0", "0", "0"), "paper-printed"),
            ("A_XX, X=e3", "A", ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
             ("0", "0", "0"), "paper-printed"),
            ("A_XY, X=e2, Y=e3", "A", ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
             ("0", "0", "0"), "paper-printed"),
        ],
        ricci_values={},
        structure={"fibers_totally_umbilical": True,
                   "horizontal_integrable": True,
                   "horizontal_totally_geodesic": True},
    ),
    "5.4": ExpectedValues(
        christoffels={},
        dilation="0.25",
        oneill_values=[
            ("T_UU, U=e2", "T", ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
             ("0", "0", "0"), "paper-printed"),
            ("A_XX, X=e1", "A", ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
             ("0", "0", "0"), "paper-printed"),
            ("A_XX, X=e3", "A", ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
             ("0", "0", "0"), "paper-printed"),
        ],
        ricci_values={},
        structure={"fibers_totally_geodesic": True,
                   "horizontal_totally_geodesic": True,
                   "horizontal_integrable": True,
                   "homothetic": True,
                   "map_totally_geodesic": True},
    ),
}


# ---------------------------------------------------------------------
# comparison machinery
# ---------------------------------------------------------------------

def _row(name, provenance, expected, computed, residual, verdict,
         point=()):
    """A comparison row, laid out as ``report.EXAMPLE_ROW_SCHEMA``; a
    structure-flag row has no point."""
    return {"name": name, "provenance": provenance,
            "expected": float(expected), "computed": float(computed),
            "residual": float(residual), "verdict": verdict,
            "point": list(point), "note": ""}


def _compare(name, provenance, points, expected, computed, tol):
    """One row from the expected and computed values at every point: the
    first point of the largest residual, where a NaN residual counts as
    the largest."""
    i = int(np.argmax(np.abs(expected - computed)))
    expected, computed = float(expected[i]), float(computed[i])
    residual = abs(expected - computed)
    rel = residual / (1.0 + max(abs(expected), abs(computed)))
    if rel <= tol:
        verdict = "pass"
    elif provenance == "paper-printed":
        verdict = "paper-divergent"
    else:
        verdict = "fail"
    return _row(name, provenance, expected, computed, residual, verdict,
                points[i].coords)


def run_example(example_id, tol=1e-6, points=None):
    job = load_job(example_id)
    setup, expected = job.setup, _EXPECTED[example_id]
    if points is None:
        points = job.points
    total = setup.total
    m = setup.m
    # every row reads the points' one identity context
    ctx = IdentityContext(setup, points)
    env = total.env(geo.batch_coordinates(ctx.coords))
    rows, values = [], {}

    def compare(name, provenance, text, computed):
        """One row: the expected text, parsed and evaluated over the points
        once per run, against the value computed at each point."""
        if text not in values:
            node = parse_expression(text, set(total.coord_names))
            values[text] = np.broadcast_to(eval_expr(node, env), len(points))
        rows.append(_compare(name, provenance, points, values[text],
                             computed, tol))

    # Christoffel symbols, every index triple (sparse expected, default 0)
    for k in range(1, m + 1):
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                text = expected.christoffels.get((k, i, j),
                                                 expected.christoffels.get((k, j, i), "0"))
                compare(f"Gamma^{k}_{i}{j}", "paper-printed", text,
                        ctx.gamma[:, k - 1, i - 1, j - 1])

    # dilation
    compare("lambda^2", "paper-printed", expected.dilation, ctx.lam_sq)

    # O'Neill tensor values: T_U V, A_X Y or g(U,U)H
    for name, kind, args, comp_texts, provenance in expected.oneill_values:
        if kind == "umbilical-product":
            u = np.broadcast_to(np.asarray(args[0]), ctx.h_vec.shape)
            vecs = quad_form(u, ctx.g, u)[:, None] * ctx.h_vec
        else:
            u, v = (np.asarray(x) for x in args)
            vecs = (ctx.t_tensor if kind == "T" else ctx.a_tensor) @ v @ u
        for axis, text in enumerate(comp_texts):
            compare(f"{name} [{axis + 1}]", provenance, text, vecs[:, axis])

    # Ricci entries: printed value vs intrinsic coordinate computation,
    # oracle value vs the same (transcription and truth tracked separately)
    for (i, j), (printed, oracle) in expected.ricci_values.items():
        vals = ctx.ric_matrix[:, i - 1, j - 1]
        compare(f"Ric(e{i},e{j}) printed", "paper-printed", printed, vals)
        compare(f"Ric(e{i},e{j}) oracle", "derived-oracle", oracle, vals)

    # structure flags vs prose claims
    flags = sub.structure_flags(ctx, expected.structure)
    for flag_name, want in expected.structure.items():
        got = flags[flag_name].holds
        rows.append(_row(f"flag {flag_name}", "paper-printed", want, got,
                         0.0 if got == want else 1.0,
                         "pass" if got == want else "paper-divergent"))

    discrepancies = [r for r in rows if r["verdict"] == "paper-divergent"]
    counts = {"pass": sum(r["verdict"] == "pass" for r in rows),
              "fail": sum(r["verdict"] == "fail" for r in rows),
              "hypothesis_not_met": 0,
              "paper_divergent": len(discrepancies)}
    return ExampleReport(example_id=example_id, rows=rows,
                         discrepancies=discrepancies, counts=counts,
                         note=expected.mu_note)

"""Correctness gate: compare program output against the goldens.

The goldens in ``perfbench/golden/`` were recorded by ``make_golden.py``
from the program as it stood when the benchmark was defined.  A verify
pass must reproduce, per check id, the verdict counts of the golden, its
``flagged_fails`` and its exit code; on the anchor job it must also
reproduce every residual to a rounding-level relative bound.  A catalog
replay must reproduce the counts, the ``paper-divergent`` names and every
row.  Each function returns a list of mismatch messages, empty on success.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# residuals may move by reassociation, not by more: a value passes when it
# is within REL_BOUND of the scale 1 + |lhs| + |rhs| of its golden record
REL_BOUND = 1e-9


def load_golden(workload):
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def verify_summary(payload, exit_code):
    """Per-check-id verdict counts, flagged fails and exit code of one
    ``report.to_json`` payload (parsed)."""
    verdicts = {}
    for rec in payload["records"]:
        verdicts.setdefault(rec["id"], Counter())[rec["verdict"]] += 1
    return {"verdicts": {cid: dict(sorted(c.items()))
                         for cid, c in sorted(verdicts.items())},
            "flagged_fails": payload["flagged_fails"],
            "exit_code": exit_code}


def residual_rows(payload):
    return [[r["id"], r["verdict"], r["lhs"], r["rhs"], r["abs_residual"]]
            for r in payload["records"]]


def example_rows(payload):
    return [[r["name"], r["verdict"], r["expected"], r["computed"],
             r["residual"]] for r in payload["rows"]]


def _close(got, want, scale):
    return abs(got - want) <= REL_BOUND * scale


def compare_summary(got, want, where):
    errors = []
    for key in ("flagged_fails", "exit_code"):
        if got[key] != want[key]:
            errors.append(f"{where}: {key} {got[key]} != golden {want[key]}")
    for cid in sorted(set(got["verdicts"]) | set(want["verdicts"])):
        g = got["verdicts"].get(cid)
        w = want["verdicts"].get(cid)
        if g != w:
            errors.append(f"{where}: verdicts of {cid} {g} != golden {w}")
    return errors


def compare_rows(got, want, where):
    """Rows are ``[name, verdict, a, b, residual]``; names and verdicts
    must match exactly, the numbers to the rounding-level bound."""
    if len(got) != len(want):
        return [f"{where}: {len(got)} records != golden {len(want)}"]
    errors = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g[:2] != w[:2]:
            errors.append(f"{where}: record {i} {g[:2]} != golden {w[:2]}")
            continue
        scale = 1.0 + abs(w[2]) + abs(w[3])
        for label, a, b in zip(("lhs", "rhs", "residual"), g[2:], w[2:]):
            if not _close(a, b, scale):
                errors.append(f"{where}: record {i} ({g[0]}) {label} "
                              f"{a!r} != golden {b!r}")
    return errors


def check_verify(payload, exit_code, golden_summary, where):
    return compare_summary(verify_summary(payload, exit_code),
                           golden_summary, where)


def check_anchor(payload, exit_code, golden_anchor):
    where = "anchor"
    return (compare_summary(verify_summary(payload, exit_code),
                            golden_anchor["summary"], where)
            + compare_rows(residual_rows(payload), golden_anchor["records"],
                           where))


def check_example(payload, exit_code, golden_example):
    where = f"example {payload['example']}"
    errors = []
    if payload["counts"] != golden_example["counts"]:
        errors.append(f"{where}: counts {payload['counts']} != golden "
                      f"{golden_example['counts']}")
    if payload["discrepancies"] != golden_example["discrepancies"]:
        errors.append(f"{where}: paper-divergent set "
                      f"{payload['discrepancies']} != golden "
                      f"{golden_example['discrepancies']}")
    if exit_code != golden_example["exit_code"]:
        errors.append(f"{where}: exit code {exit_code} != golden "
                      f"{golden_example['exit_code']}")
    return errors + compare_rows(example_rows(payload),
                                 golden_example["rows"], where)

"""Run a verification job and render the results.

A run produces its records as one ``identities.RecordTable``, a
four-bucket count summary, and job metadata.  Records whose identity is
convention-sensitive may carry ``verdict == "fail"`` while still being
excluded from the process exit status: their general-dilation forms
depend on sign conventions the source statements leave implicit, so a
run flags them loudly instead of hard-failing.  The JSON rendering is
byte-identical across repeated runs of the same job (wall time appears
only in the text rendering).
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from . import __version__
from . import soliton as sol
from . import submersion as sub
from .identities import (ALL_CHECK_IDS, HYPOTHESIS_SCHEMA, RECORD_SCHEMA,
                         Hypothesis, IdentityContext, RecordTable, record,
                         run_check, worst_of)
from .manifest import SOLITON_CHECKS


class Report:
    def __init__(self, job, records=None, counts=None, flagged_fails=0,
                 meta=None, wall_time=0.0):
        self.job = job
        self.records = RecordTable() if records is None else records
        self.counts = {} if counts is None else counts
        self.flagged_fails = flagged_fails
        self.meta = {} if meta is None else meta
        self.wall_time = wall_time

    @property
    def exit_code(self):
        return 0 if self.counts.get("fail", 0) - self.flagged_fails == 0 else 1


def _run_soliton_checks(job, checks, records, ctx):
    setup, points, tol = job.setup, job.points, job.tolerance
    needs_xi = [c for c in checks if c != "structure-flags"]
    if "structure-flags" in checks:
        for name, check in sub.structure_flags(ctx).items():
            record(records, "structure-flags", (), check.holds, check.holds,
                   [], tol, terms={"max_violation": check.max_violation},
                   note=f"{name}: {'holds' if check.holds else 'fails'}")
    if not needs_xi:
        return
    xi = job.xi
    if xi is None:
        unmet = [Hypothesis("soliton field declared", False, 1.0)]
        for check_id in needs_xi:
            record(records, check_id, (), 0.0, 0.0, unmet, tol,
                   note="manifest declares no soliton.xi field")
        return
    mu = job.mu
    # every check but conformal-fit reads mu, fitted when none is declared
    if "fit-mu" in checks or (
            mu is None and any(c != "conformal-fit" for c in needs_xi)):
        fit = sol.fit_mu(setup.total, xi, points, ctx=ctx)
        mu = fit.mu if mu is None else mu
    if "fit-mu" in checks:
        worst = worst_of(fit.per_point, lambda pr: pr[1])
        record(records, "fit-mu", worst[0].coords, fit.mu, mu, [], tol,
               terms={"fitted_mu": fit.mu,
                      "equation_residual": fit.max_residual},
               note=f"soliton constant fit: {fit.classification}",
               residual=np.maximum(fit.max_residual, abs(fit.mu - mu)),
               scale=1.0 + max(abs(fit.mu), abs(mu)), absolute=True)
    if "conformal-fit" in checks:
        conf = sol.conformal_field_fit(setup.total, xi, points, ctx=ctx)
        worst_p, worst_f = worst_of(conf.f_values, lambda pf: abs(pf[1]))
        record(records, "conformal-fit", worst_p.coords, worst_f, 0.0, [],
               tol, terms={"max_abs_f": abs(worst_f)},
               note="killing field" if conf.is_killing
               else "conformal factor shown at its largest point",
               residual=conf.max_residual, absolute=True)
    if "fiber-soliton" in checks:
        sol.fiber_soliton_report(records, ctx, xi, mu=mu, tol=tol)
    if "base-soliton" in checks:
        xi_base = next((spec for target, spec in job.fields.values()
                        if target == "base"), None)
        sol.base_soliton_report(records, ctx, xi, mu, xi_base=xi_base,
                                tol=tol)
    if "scalar-mu" in checks:
        sol.scalar_mu_consistency(records, ctx, mu, tol=tol)
    if "harmonicity" in checks:
        sol.harmonicity_report(records, ctx, mu, tol=tol)


def count_verdicts(records):
    """The records of a ``RecordTable`` by verdict."""
    counts = Counter(records.columns["verdict"])
    return {key: counts[key.replace("_", "-")] for key in (
        "pass", "fail", "hypothesis_not_met", "paper_divergent")}


def run_job(job):
    """Execute every requested check of a job over its point list."""
    start = time.perf_counter()
    setup = job.setup
    identity_ids = [c for c in job.checks if c in ALL_CHECK_IDS]
    soliton_ids = [c for c in job.checks if c in SOLITON_CHECKS]
    ctx = IdentityContext(setup, job.points)
    records = RecordTable.point_major(ctx.point_lists, [
        run_check(check_id, setup, job.points, tol=job.tolerance, ctx=ctx)
        for check_id in identity_ids])
    _run_soliton_checks(job, soliton_ids, records, ctx)
    counts = count_verdicts(records)
    columns = records.columns
    flagged = sum(compress(map("fail".__eq__, columns["verdict"]),
                           columns["convention_sensitive"]))
    job_info = {
        "total_dim": setup.m,
        "base_dim": setup.n,
        "total_coords": list(setup.total.coord_names),
        "base_coords": list(setup.base.coord_names),
        "lambda_sq_range": [float(ctx.lam_sq.min()),
                            float(ctx.lam_sq.max())],
        "n_points": len(job.points),
        "checks": list(job.checks),
    }
    meta = {"tolerance": job.tolerance, "seed": job.seed,
            "version": __version__}
    return Report(job=job_info, records=records, counts=counts,
                  flagged_fails=flagged, meta=meta,
                  wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_TEXT = {True: "true", False: "false"}


def _block(opening, items, newline, closing):
    """The texts ``items`` one to a line, indented under ``newline``,
    between the brackets, as ``json.dumps`` writes a container's entries,
    in one join: a run's records are most of its payload, and each ``+``
    would copy them."""
    if not items:
        return opening + closing
    inner = newline + "  "
    parts = ["," + inner] * (2 * len(items) + 1)
    parts[0], parts[-1] = opening + inner, newline + closing
    parts[1::2] = items
    return "".join(parts)


def _template(keys, newline):
    """The text of a dict with ``keys`` nested at ``newline``, a ``%s``
    slot for each value, in the order of ``keys``."""
    return _block("{", [_encode_str(key).replace("%", "%%") + ": %s"
                        for key in keys], newline, "}")


# the indents of a row of the payload (a record or a catalog row), of its
# entries and of its hypotheses' entries, and the templates over the keys
_ROW_NL = "\n    "
_ENTRY_NL = _ROW_NL + "  "
_RECORD_TEMPLATE = _template(sorted(RECORD_SCHEMA), _ROW_NL)
_HYPOTHESIS_TEMPLATE = _template(sorted(HYPOTHESIS_SCHEMA), _ENTRY_NL + "  ")
# the comparison rows of ``catalog.run_example``
EXAMPLE_ROW_SCHEMA = {"name": str, "provenance": str, "expected": float,
                      "computed": float, "residual": float, "verdict": str,
                      "point": list[float], "note": str}
_EXAMPLE_ROW_TEMPLATE = _template(sorted(EXAMPLE_ROW_SCHEMA), _ROW_NL)

# Each writer maps over a column, one key's values in every row, at once;
# ``memo`` holds the texts of the strings written in one rendering.


def _floats_text(values, memo=None):
    """Floats (NumPy's included); TypeError for any other value."""
    texts = list(map(_float_repr, values))
    if not all(map(math.isfinite, values)):
        texts = list(map(_NONFINITE.get, texts, texts))
    return texts


def _strings_text(values, memo):
    missing = dict.fromkeys(values).keys() - memo.keys()
    memo.update(zip(missing, map(_encode_str, missing)))
    return list(map(memo.__getitem__, values))


def _containers_text(values, memo, write, shape, items):
    """Lists or dicts, each object written once however often it recurs:
    their ``items`` as one column by ``write``, the objects of one shape
    filling its template at once."""
    ids = list(map(id, values))
    groups = {}
    for obj in dict(zip(ids, values)).values():
        groups.setdefault(shape(obj), []).append(obj)
    texts = write(list(chain.from_iterable(map(items, chain.from_iterable(
        groups.values())))), memo)
    text_of, start = {}, 0
    for key, group in groups.items():
        template, order = _slots(key)
        stop = start + len(order) * len(group)
        filled = (map(template.__mod__, zip(*[
            texts[start + i:stop:len(order)] for i in order])) if order
            else repeat(template))
        text_of.update(zip(map(id, group), filled))
        start = stop
    return list(map(text_of.__getitem__, ids))


def _slots(shape):
    """The ``%`` template of a list of ``shape`` items, or of a dict of the
    keys ``shape``, and the places of the items that fill its slots in
    turn: entries sorted."""
    if isinstance(shape, int):
        return _block("[", ["%s"] * shape, _ENTRY_NL, "]"), range(shape)
    order = sorted(range(len(shape)), key=shape.__getitem__)
    return _template([shape[i] for i in order], _ENTRY_NL), order


def _rows_text(rows, memo, schema, template):
    """The dicts ``rows`` filling ``template`` over the sorted keys of
    ``schema``, each key's values written as one column of its type;
    KeyError or TypeError for a row not laid out or typed as ``schema``."""
    texts = [_COLUMN_TEXT[schema[key]](list(map(itemgetter(key), rows)), memo)
             for key in sorted(schema)]
    return list(map(template.__mod__, zip(*texts)))


_COLUMN_TEXT = {
    float: _floats_text, str: _strings_text,
    bool: lambda values, memo: list(map(_BOOL_TEXT.__getitem__, values)),
    list[float]: lambda lists, memo: _containers_text(
        lists, memo, _floats_text, len, iter),
    list[dict]: lambda lists, memo: _containers_text(
        lists, memo, lambda hyps, memo: _rows_text(
            hyps, memo, HYPOTHESIS_SCHEMA, _HYPOTHESIS_TEMPLATE), len, iter),
    dict[str, float]: lambda dicts, memo: _containers_text(
        dicts, memo, _floats_text, tuple, dict.values)}


def _table_text(table, memo):
    """The records of a ``RecordTable``, each column written at once as
    ``_rows_text`` writes it, and each coordinate list of ``table.points``
    once, picked by the point column."""
    points = _COLUMN_TEXT[list[float]](table.points, memo)
    texts = [list(map(points.__getitem__, column)) if key == "point"
             else _COLUMN_TEXT[RECORD_SCHEMA[key]](column, memo)
             for key, column in sorted(table.columns.items())]
    return list(map(_RECORD_TEMPLATE.__mod__, zip(*texts, strict=True)))


def _with_rows(head, key, texts):
    """``json.dumps(head, sort_keys=True, indent=2)`` with the rows
    ``texts`` under its last key, ``key``, as one block."""
    return _block(json.dumps(head, sort_keys=True, indent=2)[:-2]
                  + f",\n  {_encode_str(key)}: [",
                  texts, "\n  ", "]\n}")


def to_json(report):
    """Canonical JSON: sorted keys, no wall time, deterministic bytes.
    ``records`` sorts last, so its list closes the text of the rest."""
    return _with_rows({"job": report.job, "counts": report.counts,
                       "flagged_fails": report.flagged_fails,
                       "meta": report.meta}, "records",
                      _table_text(report.records, {}))


_VERDICT_TAG = {"pass": "PASS", "fail": "FAIL",
                "hypothesis-not-met": "SKIP", "paper-divergent": "DIVG"}


def _record_lines(records):
    """A line per check id of a ``RecordTable``, and two more for a
    failing check, read off its columns at the check's worst record."""
    col, lines, by_id = records.columns, [], {}
    for i, check_id in enumerate(col["id"]):
        by_id.setdefault(check_id, []).append(i)
    for check_id, rows in by_id.items():
        # a failing record outranks any other, however large its residual
        fails = [i for i in rows if col["verdict"][i] == "fail"]
        i = worst_of(fails or rows, col["rel_residual"].__getitem__)
        extra = ""
        if fails and col["convention_sensitive"][i]:
            extra = "  [convention-sensitive: flagged, not counted as failure]"
        elif col["verdict"][i] == "hypothesis-not-met":
            unmet = [h["name"] for h in col["hypotheses"][i]
                     if not h["satisfied"]]
            extra = f"  (unmet: {', '.join(unmet)})"
        lines.append(
            f"  [{_VERDICT_TAG[col['verdict'][i]]}] {check_id:<16} "
            f"records={len(rows):<4} worst |res|={col['abs_residual'][i]:.3e} "
            f"rel={col['rel_residual'][i]:.3e}{extra}")
        if fails:
            lines.append(
                f"         worst failing point "
                f"{tuple(records.points[col['point'][i]])}: "
                f"lhs={col['lhs'][i]:.9g} rhs={col['rhs'][i]:.9g}")
            if col["terms"][i]:
                parts = ", ".join(f"{k}={v:.6g}"
                                  for k, v in col["terms"][i].items())
                lines.append(f"         terms: {parts}")
    return lines


def to_text(report):
    job = report.job
    lines = [
        "verification report",
        f"  total dim {job['total_dim']} ({' '.join(job['total_coords'])})"
        f" -> base dim {job['base_dim']} ({' '.join(job['base_coords'])})",
        f"  lambda^2 range [{job['lambda_sq_range'][0]:.6g},"
        f" {job['lambda_sq_range'][1]:.6g}] over {job['n_points']} points",
        f"  tolerance {report.meta['tolerance']:.3g}",
        "",
    ]
    lines.extend(_record_lines(report.records))
    counts = report.counts
    lines.append("")
    lines.append(
        f"  totals: pass={counts['pass']} fail={counts['fail']} "
        f"hypothesis-not-met={counts['hypothesis_not_met']} "
        f"paper-divergent={counts['paper_divergent']}")
    if report.flagged_fails:
        lines.append(
            f"  {report.flagged_fails} failing record(s) are "
            "convention-sensitive and excluded from the exit status")
    lines.append(f"  wall time {report.wall_time:.2f}s")
    return "\n".join(lines)


def example_report_to_text(rep):
    lines = [f"example {rep.example_id}"]
    for row in rep.rows:
        lines.append(
            f"  [{_VERDICT_TAG[row['verdict']]}] {row['name']:<24} "
            f"({row['provenance']}) expected={row['expected']:.9g} "
            f"computed={row['computed']:.9g} |res|={row['residual']:.3e}")
    lines.append("")
    if rep.discrepancies:
        lines.append("  published values diverging from the computation:")
        for row in rep.discrepancies:
            lines.append(f"    {row['name']}: printed {row['expected']:.9g} "
                         f"vs computed {row['computed']:.9g} at "
                         f"{tuple(row['point']) or None}")
    else:
        lines.append("  no divergences from the published values")
    if rep.note:
        lines.append(f"  note: {rep.note}")
    counts = rep.counts
    lines.append(
        f"  totals: pass={counts['pass']} fail={counts['fail']} "
        f"paper-divergent={counts['paper_divergent']}")
    return "\n".join(lines)


def example_report_to_json(rep):
    return _with_rows({"example": rep.example_id, "counts": rep.counts,
                       "discrepancies": [r["name"] for r in
                                         rep.discrepancies],
                       "note": rep.note}, "rows",
                      _rows_text(rep.rows, {}, EXAMPLE_ROW_SCHEMA,
                                 _EXAMPLE_ROW_TEMPLATE))

"""Run a verification job and render the results.

A run produces its records as one ``identities.RecordTable``, a
four-bucket count summary, and job metadata.  Records of a
convention-sensitive check (``identities.Check``) may carry
``verdict == "fail"`` while still being excluded from the process exit
status.  The JSON rendering is byte-identical across repeated runs of
the same job (wall time appears only in the text rendering).
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import Counter
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from . import __version__
from .identities import (CHECKS, HYPOTHESIS_SCHEMA, RECORD_SCHEMA,
                         IdentityContext, RecordTable, run_check, worst_of)


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


def count_verdicts(records):
    """The records of a ``RecordTable`` by verdict."""
    counts = Counter(records.columns["verdict"])
    return {key: counts[key.replace("_", "-")] for key in (
        "pass", "fail", "hypothesis_not_met", "paper_divergent")}


def run_job(job):
    """Execute every requested check of a job over its point list."""
    start = time.perf_counter()
    setup, position = job.setup, list(CHECKS).index
    ctx = IdentityContext(setup, job.points, job.xi, job.mu, next(
        (spec for target, spec in job.fields.values() if target == "base"),
        None))

    def order(check_id):
        """The identities as listed, their records put point by point, then
        the other checks by stage and in table order, and last, as listed,
        those that skip for want of a soliton field."""
        check = CHECKS[check_id]
        return (True,) if check.skips(ctx) else (
            False, check.stage, check.stage and position(check_id))

    records = RecordTable(ctx.point_lists)
    # a non-finite value at a point is NaN in its records, not a warning
    with np.errstate(all="ignore"):
        for check_id in sorted(job.checks, key=order):
            run_check(check_id, setup, job.points, job.tolerance, ctx,
                      records)
    counts = count_verdicts(records)
    columns = records.columns
    flagged = sum(compress(map("fail".__eq__, columns["verdict"]),
                           columns["convention_sensitive"]))
    job_info = {
        "total_dim": setup.m, "base_dim": setup.n,
        "total_coords": list(setup.total.coord_names),
        "base_coords": list(setup.base.coord_names),
        "lambda_sq_range": [float(ctx.lam_sq.min()), float(ctx.lam_sq.max())],
        "n_points": len(job.points), "checks": list(job.checks)}
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


def _pieces(opening, heads, newline, closing):
    """The template of a container whose entries are each of ``heads``
    and a value, one to a line under ``newline`` between the brackets, as
    ``json.dumps`` writes them: the texts between which the values go,
    one a slot."""
    if not heads:
        return [opening + closing]
    inner = newline + "  "
    return ([opening + inner + heads[0]]
            + ["," + inner + head for head in heads[1:]] + [newline + closing])


def _template(keys, newline):
    """The pieces of a dict with ``keys`` nested at ``newline``, a slot for
    each value, in the order of ``keys``."""
    return _pieces("{", [_encode_str(key) + ": " for key in keys], newline,
                   "}")


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


def _fill(template, columns, size):
    """The ``size`` rows of a template, each its pieces with the texts of
    the row in ``columns``, one a slot, between them, in one join a row.
    A column of one text in every row is joined into the pieces around it
    once, so a row joins only the texts that vary.  ValueError unless
    there is a column of ``size`` texts for each slot."""
    if len(columns) != len(template) - 1 or any(
            map(size.__ne__, map(len, columns))):
        raise ValueError("a row's texts do not fill its template")
    parts, text = [], template[0]
    for texts, piece in zip(columns, template[1:]):
        if size and texts.count(texts[0]) == size:
            text += texts[0] + piece
        else:
            parts += [repeat(text), texts]
            text = piece
    if not parts:
        return [text] * size
    return list(map("".join, zip(*parts, repeat(text))))


def _floats_text(values, memo=None):
    """Floats (NumPy's included), ``float.__repr__`` run once per distinct
    bit pattern (-0.0, each NaN and each infinity apart), on the last value
    of each; TypeError for a value that is no number, or is the last of
    its bit pattern and no float.  A column of one bit pattern, found with
    one bytes comparison, is that one text repeated."""
    raw = array("d", values).tobytes()
    if len(values) > 1 and raw == raw[:8] * len(values):
        text = _float_repr(values[-1])
        return [_NONFINITE.get(text, text)] * len(values)
    bits = array("Q", raw).tolist()
    text_of = dict(zip(bits, values))
    texts = list(map(_float_repr, text_of.values()))
    if not all(map(math.isfinite, text_of.values())):
        texts = list(map(_NONFINITE.get, texts, texts))
    if len(texts) == len(bits):  # every value distinct, in order
        return texts
    text_of.update(zip(text_of, texts))  # each key's value its text
    return list(map(text_of.__getitem__, bits))


def _strings_text(values, memo):
    missing = dict.fromkeys(values).keys() - memo.keys()
    memo.update(zip(missing, map(_encode_str, missing)))
    return list(map(memo.__getitem__, values))


def _lists_text(lists, memo=None):
    """Lists of floats, those of one length written in one pass: their
    items as one column of ``_floats_text``, each list filling the
    length's template."""
    lengths = list(map(len, lists))
    text_of = {}
    for length in dict.fromkeys(lengths):
        at = list(compress(range(len(lists)), map(length.__eq__, lengths)))
        texts = _floats_text(list(chain.from_iterable(
            map(lists.__getitem__, at))))
        text_of.update(zip(at, _fill(_slots(length)[0], [
            texts[i::length] for i in range(length)], len(at))))
    return list(map(text_of.__getitem__, range(len(lists))))


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
        text_of.update(zip(map(id, group), _fill(template, [
            texts[start + i:stop:len(order)] for i in order], len(group))))
        start = stop
    return list(map(text_of.__getitem__, ids))


def _slots(shape):
    """The template of a list of ``shape`` items, or of a dict of the keys
    ``shape``, and the places of the items that fill its slots in turn:
    entries sorted."""
    if isinstance(shape, int):
        return _pieces("[", [""] * shape, _ENTRY_NL, "]"), range(shape)
    order = sorted(range(len(shape)), key=shape.__getitem__)
    return _template([shape[i] for i in order], _ENTRY_NL), order


def _rows_text(rows, memo, schema, template):
    """The dicts ``rows`` filling ``template`` over the sorted keys of
    ``schema``, each key's values written as one column of its type;
    KeyError or TypeError for a row not laid out or typed as ``schema``."""
    return _fill(template, [
        _COLUMN_TEXT[schema[key]](list(map(itemgetter(key), rows)), memo)
        for key in sorted(schema)], len(rows))


_COLUMN_TEXT = {
    float: _floats_text, str: _strings_text,
    bool: lambda values, memo: list(map(_BOOL_TEXT.__getitem__, values)),
    list[float]: _lists_text,
    list[dict]: lambda lists, memo: _containers_text(
        lists, memo, lambda hyps, memo: _rows_text(
            hyps, memo, HYPOTHESIS_SCHEMA, _HYPOTHESIS_TEMPLATE), len, iter),
    dict[str, float]: lambda dicts, memo: _containers_text(
        dicts, memo, _floats_text, tuple, dict.values)}


def _table_text(table, memo):
    """The records of a ``RecordTable``, each column written at once as
    ``_rows_text`` writes it, and each coordinate list of ``table.points``
    once, picked by the point column."""
    points = _lists_text(table.points)
    columns = table.columns
    return _fill(_RECORD_TEMPLATE, [
        list(map(points.__getitem__, column)) if key == "point"
        else _COLUMN_TEXT[RECORD_SCHEMA[key]](column, memo)
        for key, column in sorted(columns.items())], len(columns["id"]))


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
    failing check, read off its columns at the check's worst record; a
    check whose records hold more than one verdict ends its line with
    the count of each."""
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
        tally = Counter(map(col["verdict"].__getitem__, rows))
        if len(tally) > 1:
            extra += "  " + " ".join(f"{verdict}={tally[verdict]}"
                                     for verdict in _VERDICT_TAG
                                     if verdict in tally)
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

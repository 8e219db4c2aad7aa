"""Run a verification job and render the results.

A run produces a flat list of records (one per residual report), a
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
import time
from dataclasses import dataclass, field

from . import __version__
from . import soliton as sol
from . import submersion as sub
from .identities import ALL_CHECK_IDS, IdentityContext, run_check
from .manifest import SOLITON_CHECKS


@dataclass
class Report:
    job: dict
    records: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    flagged_fails: int = 0
    meta: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def exit_code(self):
        return 0 if self.counts.get("fail", 0) - self.flagged_fails == 0 else 1


def _hyp_dicts(hyps):
    return [{"name": h.name, "satisfied": bool(h.satisfied),
             "violation": float(h.violation)} for h in hyps]


def _clean_terms(terms):
    out = {}
    for key, value in terms.items():
        if isinstance(value, dict):
            out[key] = _clean_terms(value)
        else:
            out[key] = float(value)
    return out


def residual_record(rep, kind="identity"):
    """Normalize a ResidualReport into a plain-dict record."""
    return {
        "kind": kind,
        "id": rep.identity_id,
        "label": rep.label,
        "point": [float(c) for c in rep.point.coords],
        "lhs": float(rep.lhs),
        "rhs": float(rep.rhs),
        "abs_residual": float(rep.abs_residual),
        "rel_residual": float(rep.rel_residual),
        "hypotheses": _hyp_dicts(rep.hypotheses),
        "verdict": rep.verdict,
        "convention_sensitive": bool(rep.convention_sensitive),
        "terms": _clean_terms(rep.terms),
        "note": rep.note,
    }


# the base-soliton constant f3/f4 is assembled from the horizontal Ricci
# decomposition, whose general-dilation form is convention-sensitive when
# the dilation varies vertically; its failures are flagged like C3.1's
_CONVENTION_SENSITIVE_SOLITON = ("base-soliton",)


def _soliton_record(check_id, sr):
    worst = max(sr.per_point, key=lambda d: d[sr.worst_key], default=None)
    point = list(worst["point"].coords) if worst else []
    terms = {}
    if worst:
        terms = {k: float(v) for k, v in worst.items()
                 if k not in ("point", "trace_terms")}
        if "trace_terms" in worst:
            terms.update(_clean_terms(worst["trace_terms"]))
    return {
        "kind": "soliton",
        "id": check_id,
        "label": sr.target,
        "point": point,
        "lhs": float(worst.get("fitted", 0.0)) if worst else 0.0,
        "rhs": float(worst.get("formula", 0.0)) if worst else 0.0,
        "abs_residual": float(sr.max_residual),
        "rel_residual": float(sr.max_residual),
        "hypotheses": _hyp_dicts(sr.hypotheses),
        "verdict": sr.verdict,
        "convention_sensitive": check_id in _CONVENTION_SENSITIVE_SOLITON,
        "terms": terms,
        "note": sr.note,
    }


def _fit_record(check_id, point, lhs, rhs, residual, verdict, terms, note=""):
    return {
        "kind": "soliton", "id": check_id, "label": "",
        "point": [float(c) for c in point], "lhs": float(lhs),
        "rhs": float(rhs), "abs_residual": float(residual),
        "rel_residual": float(residual) / (1.0 + max(abs(lhs), abs(rhs))),
        "hypotheses": [], "verdict": verdict,
        "convention_sensitive": False, "terms": _clean_terms(terms),
        "note": note,
    }


def _skipped(check_id, reason):
    return {
        "kind": "soliton", "id": check_id, "label": "", "point": [],
        "lhs": 0.0, "rhs": 0.0, "abs_residual": 0.0, "rel_residual": 0.0,
        "hypotheses": [{"name": "soliton field declared", "satisfied": False,
                        "violation": 1.0}],
        "verdict": "hypothesis-not-met", "convention_sensitive": False,
        "terms": {}, "note": reason,
    }


def _run_soliton_checks(job, checks, records, contexts):
    setup, points, tol = job.setup, job.points, job.tolerance
    needs_xi = [c for c in checks if c != "structure-flags"]
    if "structure-flags" in checks:
        flags = sub.structure_flags(setup, points).as_dict()
        for name, check in flags.items():
            records.append(_fit_record(
                "structure-flags", [], float(check.holds), float(check.holds),
                0.0, "pass", {"max_violation": check.max_violation},
                note=f"{name}: {'holds' if check.holds else 'fails'} "
                     f"(max violation {check.max_violation:.3e})"))
    if not needs_xi:
        return
    xi = job.xi
    if xi is None:
        for check_id in needs_xi:
            records.append(_skipped(
                check_id, "manifest declares no soliton.xi field"))
        return
    mu = job.mu
    # every check but conformal-fit reads mu, fitted when none is declared
    if "fit-mu" in checks or (
            mu is None and any(c != "conformal-fit" for c in needs_xi)):
        fit = sol.fit_mu(setup.total, xi, points)
        mu = fit.mu if mu is None else mu
    if "fit-mu" in checks:
        residual = max(fit.max_residual, abs(fit.mu - mu))
        verdict = "pass" if residual <= tol else "fail"
        worst = max(fit.per_point, key=lambda pr: pr[1])
        records.append(_fit_record(
            "fit-mu", worst[0].coords, fit.mu, mu, residual, verdict,
            {"fitted_mu": fit.mu, "equation_residual": fit.max_residual},
            note=f"soliton constant fit: {fit.classification}"))
    if "conformal-fit" in checks:
        conf = sol.conformal_field_fit(setup.total, xi, points)
        worst_p, worst_f = max(conf.f_values, key=lambda pf: abs(pf[1]))
        records.append(_fit_record(
            "conformal-fit", worst_p.coords, worst_f, 0.0,
            conf.max_residual, "pass" if conf.max_residual <= tol else "fail",
            {"max_abs_f": abs(worst_f)},
            note="killing field" if conf.is_killing
            else "conformal factor shown at its largest point"))
    if "fiber-soliton" in checks:
        records.append(_soliton_record(
            "fiber-soliton",
            sol.fiber_soliton_report(setup, xi, points, mu=mu, tol=tol,
                                     contexts=contexts)))
    if "base-soliton" in checks:
        xi_base = next((spec for target, spec in job.fields.values()
                        if target == "base"), None)
        records.append(_soliton_record(
            "base-soliton",
            sol.base_soliton_report(setup, xi, mu, points,
                                    xi_base=xi_base, tol=tol,
                                    contexts=contexts)))
    if "scalar-mu" in checks:
        records.append(residual_record(
            sol.scalar_mu_consistency(setup, xi, mu, points, tol=tol,
                                      contexts=contexts),
            kind="soliton"))
    if "harmonicity" in checks:
        records.append(_soliton_record(
            "harmonicity",
            sol.harmonicity_report(setup, xi, mu, points, tol=tol,
                                   contexts=contexts)))


def count_verdicts(records):
    counts = {"pass": 0, "fail": 0, "hypothesis_not_met": 0,
              "paper_divergent": 0}
    for rec in records:
        counts[rec["verdict"].replace("-", "_")] += 1
    return counts


def run_job(job):
    """Execute every requested check of a job over its point list."""
    start = time.perf_counter()
    setup = job.setup
    identity_ids = [c for c in job.checks if c in ALL_CHECK_IDS]
    soliton_ids = [c for c in job.checks if c in SOLITON_CHECKS]
    records = []
    lam = []
    contexts = []  # kept only for the soliton reports, which reuse them
    for p in job.points:
        ctx = IdentityContext(setup, p)
        lam.append(ctx.lam_sq)
        if soliton_ids:
            contexts.append(ctx)
        for check_id in identity_ids:
            for rep in run_check(check_id, setup, p, tol=job.tolerance,
                                 ctx=ctx):
                records.append(residual_record(rep))
    _run_soliton_checks(job, soliton_ids, records, contexts)
    counts = count_verdicts(records)
    flagged = sum(1 for r in records
                  if r["verdict"] == "fail" and r["convention_sensitive"])
    job_info = {
        "total_dim": setup.m,
        "base_dim": setup.n,
        "total_coords": list(setup.total.coord_names),
        "base_coords": list(setup.base.coord_names),
        "lambda_sq_range": [min(lam), max(lam)],
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

def to_json(report):
    """Canonical JSON: sorted keys, no wall time, deterministic bytes."""
    payload = {"job": report.job, "records": report.records,
               "counts": report.counts,
               "flagged_fails": report.flagged_fails, "meta": report.meta}
    return json.dumps(payload, sort_keys=True, indent=2)


_VERDICT_TAG = {"pass": "PASS", "fail": "FAIL",
                "hypothesis-not-met": "SKIP", "paper-divergent": "DIVG"}


def _record_lines(records):
    lines = []
    by_id = {}
    for rec in records:
        by_id.setdefault(rec["id"], []).append(rec)
    for check_id, recs in by_id.items():
        # a failing record outranks any other, however large its residual
        fails = [r for r in recs if r["verdict"] == "fail"]
        worst = max(fails or recs, key=lambda r: r["rel_residual"])
        tag = _VERDICT_TAG[worst["verdict"]]
        n_fail = len(fails)
        extra = ""
        if n_fail and worst["convention_sensitive"]:
            extra = "  [convention-sensitive: flagged, not counted as failure]"
        elif worst["verdict"] == "hypothesis-not-met":
            unmet = [h["name"] for h in worst["hypotheses"]
                     if not h["satisfied"]]
            extra = f"  (unmet: {', '.join(unmet)})"
        lines.append(
            f"  [{tag}] {check_id:<16} records={len(recs):<4} "
            f"worst |res|={worst['abs_residual']:.3e} "
            f"rel={worst['rel_residual']:.3e}{extra}")
        if n_fail:
            lines.append(
                f"         worst failing point {tuple(worst['point'])}: "
                f"lhs={worst['lhs']:.9g} rhs={worst['rhs']:.9g}")
            if worst["terms"]:
                parts = ", ".join(f"{k}={v:.6g}"
                                  for k, v in worst["terms"].items()
                                  if not isinstance(v, dict))
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
        tag = _VERDICT_TAG[row.verdict]
        lines.append(
            f"  [{tag}] {row.name:<24} ({row.provenance}) "
            f"expected={row.expected:.9g} computed={row.computed:.9g} "
            f"|res|={row.residual:.3e}")
    lines.append("")
    if rep.discrepancies:
        lines.append("  published values diverging from the computation:")
        for row in rep.discrepancies:
            lines.append(f"    {row.name}: printed {row.expected:.9g} vs "
                         f"computed {row.computed:.9g} at {row.point}")
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
    rows = [{
        "name": r.name, "provenance": r.provenance,
        "expected": float(r.expected), "computed": float(r.computed),
        "residual": float(r.residual), "verdict": r.verdict,
        "point": list(r.point) if r.point else [], "note": r.note,
    } for r in rep.rows]
    payload = {"example": rep.example_id, "rows": rows,
               "counts": rep.counts,
               "discrepancies": [r.name for r in rep.discrepancies],
               "note": rep.note}
    return json.dumps(payload, sort_keys=True, indent=2)

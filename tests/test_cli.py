"""Command-line interface: exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confsub.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from confsub.identities import ALL_CHECK_IDS
from confsub.manifest import KNOWN_CHECKS
from conftest import GAUSSIAN_SOLITON, ROTATION_SOLITON

SMALL = """
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
checks = G2.12, R3.11, fit-mu, structure-flags
points.list = (0, 0) ; (1, 0.5) ; (-1, 1)
"""

# declares a soliton constant the metric does not satisfy: flat plane
# with mu = 1 makes fit-mu hard-fail
FAILING = """
total.dim    = 2
total.coords = x1 x2
total.metric = 1, 0 ; 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = x1
fields.xi  = total : 0, 0
soliton.xi = xi
soliton.mu = 1
checks = fit-mu
points.list = (0, 0) ; (1, 0.5)
"""


@pytest.fixture()
def small_manifest(tmp_path):
    path = tmp_path / "small.cfsm"
    path.write_text(SMALL)
    return str(path)


def test_verify_ok(small_manifest, capsys):
    assert main(["verify", small_manifest]) == EXIT_OK
    out = capsys.readouterr().out
    assert "G2.12" in out and "fit-mu" in out
    assert "pass=" in out


def test_verify_hard_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "failing.cfsm"
    path.write_text(FAILING)
    assert main(["verify", str(path)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_json_byte_deterministic(small_manifest, capsys):
    assert main(["verify", small_manifest, "--format", "json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", small_manifest, "--format", "json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"job", "records", "counts", "flagged_fails",
                            "meta"}
    assert payload["counts"]["fail"] == 0
    for rec in payload["records"]:
        assert rec["verdict"] in ("pass", "fail", "hypothesis-not-met")


OVERFLOW = """
total.dim    = 2
total.coords = x1 x2
total.metric = 1, 0 ; 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = {map}
checks = G2.12
points.list = {points}
"""


@pytest.mark.parametrize("map_text,points,message", [
    ("exp(1000*x1)", "(0.1, 0.2) ; (1, 0.5)",
     "non-finite value in exp in 'exp(1000 * x1)'"),
    ("x1^400", "(1, 0.5) ; (10, 0.5)",
     "non-finite value in power in 'x1^400'")], ids=["exp", "power"])
def test_overflow_is_an_evaluation_error(tmp_path, capsys, map_text, points,
                                         message):
    # a float overflow at the second point is reported as one line and
    # exit 2, not as a traceback
    path = tmp_path / "overflow.cfsm"
    path.write_text(OVERFLOW.format(map=map_text, points=points))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text,message", [
    (OVERFLOW.format(map="x1^(1/0)", points="(0.1, 0.2)"),
     "in map.components: zero denominator in an exponent "
     "(column 7 in 'x1^(1/0)')"),
    (OVERFLOW.format(map="x1", points="").replace(
        "points.list = ", "points.box = 0 1 ; 0 1\npoints.count = 2.5"),
     "points.count: '2.5' is not an integer")], ids=["exponent", "count"])
def test_bad_number_is_one_usage_error_line(tmp_path, capsys, text, message):
    # a zero denominator and a non-integer count name where they are
    # written, as one line and exit 2, not a traceback
    path = tmp_path / "bad_number.cfsm"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


NON_FINITE_CORE = OVERFLOW.replace("total.metric = 1, 0 ; 0, 1",
                                   "total.metric = {metric}")


@pytest.mark.parametrize("metric,map_text,points,message", [
    ("1, 0 ; 0, 1", "exp(200*x1)", "(1.9, 0.2)",
     "non-finite K = J g^-1 J^T at (1.9, 0.2)"),
    ("1, 0 ; 0, 1 + x2*1e300*1e300", "x1", "(1, 2)",
     "non-finite metric at (1.0, 2.0)"),
    ("1, 0 ; 0, 1", "exp(200*x1)", "(-0.03, 0.2) ; (1.9, 0.2)",
     "non-finite K = J g^-1 J^T at (1.9, 0.2)")],
    ids=["K", "metric", "good-point-first"])
def test_non_finite_float_core_names_value_and_point(tmp_path, capsys, metric,
                                                     map_text, points,
                                                     message):
    # a product that overflows to inf raises nothing, so the float core
    # checks g, J, h, K and lambda^2 at every point count before the
    # inversions and the frames: one line and exit 2, naming the value
    # and the point, not a Gram-Schmidt error
    path = tmp_path / "non_finite.cfsm"
    path.write_text(NON_FINITE_CORE.format(metric=metric, map=map_text,
                                           points=points))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_large_dilation_is_verified(tmp_path, capsys):
    # |J| ~ 1e11 and lambda^2 ~ 1e22 are finite: the horizontal lift's
    # squared norm, about 1e-22, is compared with its own input vector's
    # and not with an absolute bound, so every check runs
    path = tmp_path / "large_dilation.cfsm"
    path.write_text(OVERFLOW.format(map="exp(200*x1)", points="(0.1, 0.2)")
                    .replace("checks = G2.12\n", ""))
    assert main(["verify", str(path), "--format", "json"]) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert (counts["pass"], counts["hypothesis_not_met"]) == (33, 6)


NO_SLICE_CHART = """
total.dim    = 3
total.coords = x1 x2 x3
total.metric = 1, 0, 0 ; 0, 1, 0 ; 0, 0, 1
base.dim     = 1
base.coords  = y1
base.metric  = 1
map.components = {map}
fields.xi  = total : 0, 0, 0
soliton.xi = xi
soliton.mu = 0
points.list = {points}
"""


@pytest.mark.parametrize("map_text,points", [
    ("x1 + x2", "(0.1, 0.2, 0.3)"),
    # the fiber through (0.1, 0, 0.3) has the slice chart on (x2, x3)
    ("x1 + x2^2", "(0.1, 0, 0.3) ; (0.1, 0.2, 0.3) ; (0.4, 0.5, 0.6)")])
def test_missing_fiber_chart_skips_the_checks_that_read_it(tmp_path, capsys,
                                                          map_text, points):
    # the kernel of F is spanned by no two coordinate axes at any point
    # but (0.1, 0, 0.3), so the fiber curvature has no slice chart there:
    # the run still reports every check, each record there that reads the
    # fiber curvature lists fiber-chart-available, unmet, the point with a
    # chart keeps finite values, and the soliton reports that read the
    # fiber curvature but list no such hypothesis show NaN and do not pass
    # at each point without a chart
    path = tmp_path / "no_slice_chart.cfsm"
    path.write_text(NO_SLICE_CHART.format(map=map_text, points=points))
    assert main(["verify", str(path)]) in (EXIT_OK, EXIT_FAIL)
    text = capsys.readouterr().out
    assert "  totals: " in text
    assert main(["verify", str(path), "--format", "json"]) in (EXIT_OK,
                                                               EXIT_FAIL)
    records = json.loads(capsys.readouterr().out)["records"]
    assert {r["id"] for r in records} >= set(ALL_CHECK_IDS)
    chart_ids = set()
    for rec in records:
        chart = [h for h in rec["hypotheses"]
                 if h["name"] == "fiber-chart-available"]
        if chart:
            chart_ids.add(rec["id"])
            missing = rec["point"] != [0.1, 0.0, 0.3]
            assert chart[0]["satisfied"] is not missing, rec
            if missing:
                assert rec["verdict"] == "hypothesis-not-met", rec
            else:
                assert math.isfinite(rec["abs_residual"]), rec
    assert {"G2.12", "R3.11", "T3.4"} <= chart_ids
    soliton = [rec for rec in records
               if rec["id"] in ("fiber-soliton", "harmonicity")]
    assert len(soliton) == 2 * len(points.split(" ; "))
    for rec in soliton:
        if rec["point"] != [0.1, 0.0, 0.3]:
            assert rec["verdict"] != "pass", rec
            assert math.isnan(rec["abs_residual"]), rec
        else:
            assert math.isfinite(rec["abs_residual"]), rec
    # a check's line shows its NaN record whatever the order of the points
    path.write_text(NO_SLICE_CHART.format(
        map=map_text, points=" ; ".join(reversed(points.split(" ; ")))))
    assert main(["verify", str(path)]) in (EXIT_OK, EXIT_FAIL)
    shown = chart_ids | {"fiber-soliton", "harmonicity"}
    lines = [[line for line in out.splitlines()
              if line[9:].split(" ", 1)[0] in shown]
             for out in (text, capsys.readouterr().out)]
    assert len(lines[0]) == len(shown) and lines[0] == lines[1]
    assert all("rel=nan" in line for line in lines[0])


def test_missing_manifest_is_usage_error(capsys):
    assert main(["verify", "/no/such/file.cfsm"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_malformed_manifest_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfsm"
    path.write_text("total.dim = 2\n")
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_checks_override(small_manifest, capsys):
    assert main(["verify", small_manifest, "--checks", "L2.2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "L2.2" in out
    assert "G2.12" not in out


def test_tol_override_loosens(small_manifest):
    # a huge tolerance cannot make valid checks fail
    assert main(["verify", small_manifest, "--tol", "1"]) == EXIT_OK


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_invalid_tol_is_usage_error(small_manifest, tol, capsys):
    assert main(["verify", small_manifest, "--tol", tol]) == EXIT_USAGE
    assert "tolerance" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["example", "5.4", "--tol", tol])
    assert exc.value.code == EXIT_USAGE
    assert "tolerance" in capsys.readouterr().err


def test_zero_tol_is_valid(small_manifest, capsys):
    assert main(["verify", small_manifest, "--tol", "0",
                 "--checks", "structure-flags"]) == EXIT_OK
    assert main(["example", "5.4", "--tol", "0"]) == EXIT_OK


def test_example_command(capsys):
    assert main(["example", "5.4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert main(["example", "5.2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "diverging" in out and "Ric(e1,e1)" in out


def test_example_json(capsys):
    assert main(["example", "5.2", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["example"] == "5.2"
    assert payload["discrepancies"] == ["Ric(e1,e1) printed"]


def test_list_checks(capsys):
    assert main(["list-checks"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert list(KNOWN_CHECKS) == out


def test_shipped_manifest_54_verifies_clean(capsys):
    from importlib.resources import files
    path = files("confsub") / "manifests" / "example_5_4.cfsm"
    assert main(["verify", str(path), "--checks",
                 "G2.12,R3.13,T3.4,fit-mu,harmonicity"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fail=0" in out


def _verify_json(tmp_path, capsys, text):
    """The exit code and the JSON payload of ``verify`` on a manifest."""
    path = tmp_path / "job.cfsm"
    path.write_text(text)
    code = main(["verify", str(path), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def _verdicts_by_id(payload):
    verdicts = {}
    for rec in payload["records"]:
        verdicts.setdefault(rec["id"], set()).add(rec["verdict"])
    return verdicts


# the soliton section's ids in the order of its records, structure flags
# first; the scalar-mu check's record carries the id of its theorem
SOLITON_IDS = ["structure-flags", "fit-mu", "conformal-fit", "fiber-soliton",
               "base-soliton", "T4.7", "harmonicity"]


def test_gaussian_soliton_fails_scalar_mu_and_harmonicity(tmp_path, capsys):
    # pins today's verdicts on the Gaussian soliton of flat R^3 (the FOUND
    # line 56 of CHANGES.md): every hypothesis T4.7 and harmonicity list is
    # met, yet both fail at every point, since the trace of the soliton
    # equation gives div xi + s + m mu = 0 and div xi = -6 here, not 0.
    # Once those criteria are settled for a field with divergence, this
    # test changes with them
    code, payload = _verify_json(tmp_path, capsys, GAUSSIAN_SOLITON)
    assert code == EXIT_FAIL
    verdicts = _verdicts_by_id(payload)
    assert list(verdicts) == list(ALL_CHECK_IDS) + SOLITON_IDS
    assert {cid: v for cid, v in verdicts.items() if v != {"pass"}} == {
        "T4.7": {"fail"}, "harmonicity": {"fail"}}
    points = payload["job"]["n_points"]
    assert points == 5
    assert payload["counts"]["fail"] == 2 * points
    assert payload["flagged_fails"] == 0
    recs = {}
    for r in payload["records"]:
        recs.setdefault(r["id"], []).append(r)
    fit, = recs["fit-mu"]
    assert fit["terms"]["fitted_mu"] == pytest.approx(2.0)
    assert len(recs["T4.7"]) == len(recs["harmonicity"]) == points
    for rec in recs["T4.7"]:
        # s = 0 against -m mu = -6
        assert rec["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rec["rhs"] == -6.0
    for rec in recs["harmonicity"]:
        # F is harmonic, but s^fiber = 0 against -mu (m - n) = -2
        assert rec["terms"]["tension_norm"] == pytest.approx(0.0, abs=1e-12)
        assert rec["terms"]["scalar_gap"] == pytest.approx(2.0)
    for rec in recs["T4.7"] + recs["harmonicity"]:
        hyps = rec["hypotheses"]
        assert hyps and all(h["satisfied"] for h in hyps), rec["id"]


def test_rotation_soliton_passes_every_check(tmp_path, capsys):
    # the rotation field is a Killing field, so div xi = 0 and flat R^3 is
    # a steady soliton with it: every check passes
    code, payload = _verify_json(tmp_path, capsys, ROTATION_SOLITON)
    assert code == EXIT_OK
    verdicts = _verdicts_by_id(payload)
    assert list(verdicts) == list(ALL_CHECK_IDS) + SOLITON_IDS
    assert all(v == {"pass"} for v in verdicts.values()), verdicts
    assert payload["counts"]["pass"] == len(payload["records"])


# a field that overflows at the point: L_xi g, the fitted mu and both fits'
# residuals are NaN there
NAN_FIT = OVERFLOW.replace("checks = G2.12", "checks = fit-mu, conformal-fit"
                           ).format(map="x2", points="(1.01, 0.1)") + """
fields.xi  = total : exp(700*x1), 0
soliton.xi = xi
soliton.mu = 0
"""


def test_nan_fit_fails(tmp_path, capsys):
    # a NaN residual fails its fit, wherever it falls among the maxima
    code, payload = _verify_json(tmp_path, capsys, NAN_FIT)
    assert code == EXIT_FAIL
    recs = {r["id"]: r for r in payload["records"]}
    assert list(recs) == ["fit-mu", "conformal-fit"]
    for rec in recs.values():
        assert rec["verdict"] == "fail"
        assert math.isnan(rec["lhs"]) and math.isnan(rec["abs_residual"])
    assert math.isnan(recs["fit-mu"]["terms"]["equation_residual"])


# the plane onto the line by exp(x1): lambda = exp(x1), so |grad_h lambda|
# is about 6e4, yet |grad_h(1 / lambda^2)|, which the homothetic hypothesis
# reads, is below its threshold at both points
EXP_MAP = OVERFLOW.replace("checks = G2.12", "checks = all").format(
    map="exp(x1)", points="(10, 0.5) ; (11, 0.2)")
# 1 / lambda^2 = exp(300 x1) overflows in its second partials at the
# point, so the homothetic violation is NaN there
EXP_METRIC = OVERFLOW.replace("checks = G2.12", "checks = all").replace(
    "total.metric = 1, 0 ; 0, 1", "total.metric = exp(300*x1), 0 ; 0, 1"
).format(map="x1", points="(2.3, 0.5)")
# the hypothesis of each structure flag, by the flag's name
FLAG_HYPOTHESES = {
    "fibers_totally_geodesic": "fibers-totally-geodesic",
    "fibers_totally_umbilical": "umbilical-fibers",
    "horizontal_integrable": "horizontal-integrable",
    "horizontal_totally_geodesic": "horizontal-totally-geodesic",
    "homothetic": "homothetic",
    "map_totally_geodesic": "map-totally-geodesic"}


def _flags(payload):
    """(holds, max_violation) of each structure-flags record, by name."""
    flags = {}
    for rec in payload["records"]:
        if rec["id"] == "structure-flags":
            name, verdict = rec["note"].split(": ")
            flags[name] = (verdict == "holds", rec["terms"]["max_violation"])
    return flags


def test_structure_flags_agree_with_their_hypotheses(tmp_path, capsys):
    # a flag is the supremum over the run's points of the hypothesis of
    # its name, so it holds exactly where that hypothesis is met at every
    # point
    code, payload = _verify_json(tmp_path, capsys, EXP_MAP)
    assert code == EXIT_OK
    violations = {}
    for rec in payload["records"]:
        for h in rec["hypotheses"]:
            violations.setdefault(h["name"], {})[tuple(rec["point"])] = (
                h["satisfied"], h["violation"])
    flags = _flags(payload)
    assert len(flags) == 7
    read = [f for f, h in FLAG_HYPOTHESES.items() if h in violations]
    assert {"homothetic", "map_totally_geodesic"} <= set(read)
    for flag in read:
        at_points = violations[FLAG_HYPOTHESES[flag]].values()
        assert len(at_points) == 2, flag
        assert flags[flag] == (all(met for met, _ in at_points),
                               max(v for _, v in at_points)), flag


def test_nan_violation_fails_its_flag(tmp_path, capsys):
    # a NaN violation at a point is the flag's supremum, and fails it
    code, payload = _verify_json(tmp_path, capsys, EXP_METRIC)
    assert code == EXIT_FAIL
    flags = _flags(payload)
    for flag in ("homothetic", "map_totally_geodesic"):
        holds, violation = flags[flag]
        assert not holds and math.isnan(violation), flag
    homothetic = {h["satisfied"]: h["violation"] for rec in payload["records"]
                  for h in rec["hypotheses"] if h["name"] == "homothetic"}
    assert list(homothetic) == [False] and math.isnan(homothetic[False])


def test_non_finite_dilation_reports_under_warnings_as_errors(tmp_path):
    # a NaN in the context's contractions is a failing record, not a
    # warning: under -W error the run still prints its report
    path = tmp_path / "job.cfsm"
    path.write_text(EXP_METRIC)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "confsub.cli",
         "verify", str(path)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    assert out.stderr == ""
    assert out.returncode == EXIT_FAIL
    assert ("  totals: pass=12 fail=16 hypothesis-not-met=11 "
            "paper-divergent=0") in out.stdout.splitlines()


def test_verify_does_not_import_the_catalog():
    # only `example` reads the catalog, so importing the command line
    # leaves it (and importlib.resources with it) unloaded
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import confsub.cli; "
            "print('confsub.catalog' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_start_up_imports_no_dataclasses_or_fractions():
    # a run pays for neither dataclass code generation nor the fractions
    # module (with decimal): the records are named tuples or plain
    # classes, and only a rational exponent, which no shipped manifest
    # writes, imports fractions; what NumPy itself imports is not counted
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, numpy; before = set(sys.modules); "
            "import confsub.cli; "
            "[confsub.cli.load_manifest(path) for path in sys.argv[1:]]; "
            "print(sorted({'dataclasses', 'fractions', 'decimal'} "
            "& (set(sys.modules) - before)))")
    manifests = sorted(str(p) for p in (src / "confsub" / "manifests").glob(
        "*.cfsm"))
    assert len(manifests) == 4
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code, *manifests], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("box,bad", [("-inf 1 ; -1 1", "-inf 1"),
                                     ("-1 1 ; 0 inf", "0 inf"),
                                     ("-1e308 1e308 ; -1 1", "-1e308 1e308")])
def test_unbounded_box_is_usage_error_naming_the_range(tmp_path, capsys, box,
                                                       bad):
    path = tmp_path / "box.cfsm"
    path.write_text(SMALL.replace("points.list = (0, 0) ; (1, 0.5) ; (-1, 1)",
                                  f"points.box = {box}"))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: box range {bad!r} is not finite or its width overflows\n")


def test_example_rejects_an_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "5.9"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "confsub example: error: argument example_id: invalid choice: "
        "'5.9' (choose from '5.1', '5.2', '5.3', '5.4')\n")

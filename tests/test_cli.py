"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confsub import catalog, report
from confsub.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from confsub.manifest import KNOWN_CHECKS, parse_manifest

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
points.list = {points}
"""


@pytest.mark.parametrize("map_text,points", [
    ("x1 + x2", "(0.1, 0.2, 0.3)"),
    # the fiber through (0.1, 0, 0.3) has the slice chart on (x2, x3)
    ("x1 + x2^2", "(0.1, 0, 0.3) ; (0.1, 0.2, 0.3) ; (0.4, 0.5, 0.6)")])
def test_missing_fiber_chart_names_the_first_point(tmp_path, capsys, map_text,
                                                   points):
    # the kernel of F at (0.1, 0.2, 0.3) is spanned by no two coordinate
    # axes, so the fiber curvature has no slice chart there
    path = tmp_path / "no_slice_chart.cfsm"
    path.write_text(NO_SLICE_CHART.format(map=map_text, points=points))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip() == (
        "error: fiber chart unavailable at (0.1, 0.2, 0.3)")


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


def test_example_rejects_an_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "5.9"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "confsub example: error: argument example_id: invalid choice: "
        "'5.9' (choose from '5.1', '5.2', '5.3', '5.4')\n")

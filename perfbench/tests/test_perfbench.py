"""Tests of the benchmark itself: generator, tracer counters, gate.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import workloads
from confsub import report
from confsub.manifest import parse_manifest
from tracing import Tracer


@pytest.mark.parametrize("workload", ["curved-all", "flat-sweep", "fiber-2d"])
def test_generator_is_deterministic_per_seed(workload):
    assert (workloads.manifest_text(workload, 7)
            == workloads.manifest_text(workload, 7))
    assert (workloads.manifest_text(workload, 7)
            != workloads.manifest_text(workload, 8))
    job = parse_manifest(workloads.manifest_text(workload, 7))
    again = parse_manifest(workloads.manifest_text(workload, 7))
    assert [p.coords for p in job.points] == [p.coords for p in again.points]


def test_catalog_order_is_a_seeded_permutation():
    assert workloads.catalog_order(3) == workloads.catalog_order(3)
    assert sorted(workloads.catalog_order(3)) == list(workloads.CATALOG_IDS)
    orders = {tuple(workloads.catalog_order(s)) for s in range(20)}
    assert len(orders) > 1


def test_anchor_manifests_match_the_goldens():
    for workload in ("curved-all", "flat-sweep", "fiber-2d"):
        text = workloads.anchor_manifest_text(workload)
        golden = gate.load_golden(workload)
        assert workloads.sha256(text) == golden["anchor"]["manifest_sha256"]


def _traced_counts(job, passes):
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(passes):
            report.run_job(job)
    finally:
        tracer.uninstall()
    return dict(tracer.counts), tracer


def test_counters_repeat_exactly_and_tracer_restores_originals():
    from confsub import geometry, submersion
    originals = (submersion.SubmersionSetup.__dict__["projectors_at"],
                 geometry.ChartManifold.__dict__["metric_at"],
                 geometry.eval_expr)
    job = parse_manifest(workloads.manifest_text("curved-all", 1),
                         overrides={"checks": "G2.12, P3.1"})
    first, tracer = _traced_counts(job, 1)
    second, _ = _traced_counts(job, 1)
    twice, _ = _traced_counts(job, 2)
    assert first == second
    assert {k: 2 * v for k, v in first.items()} == twice
    assert set(first) == {"identities.contexts", "submersion.projectors_calls",
                          "geometry.metric_evals", "jets.seeds"}
    assert all(v > 0 for v in first.values())
    assert tracer.missing == []
    assert tracer.calls["identities.check.P3.1"] == 1
    assert (submersion.SubmersionSetup.__dict__["projectors_at"],
            geometry.ChartManifold.__dict__["metric_at"],
            geometry.eval_expr) == originals


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.span("outer", tracer.span, "inner", sum, range(1000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.inclusive["outer"] - tracer.inclusive["inner"])
    (inner, outer) = sorted(tracer.spans, key=lambda s: s[1])
    assert inner[4] == outer[0]


@pytest.fixture(scope="module")
def flat_anchor():
    golden = gate.load_golden("flat-sweep")
    rep = report.run_job(parse_manifest(
        workloads.anchor_manifest_text("flat-sweep")))
    return json.loads(report.to_json(rep)), rep.exit_code, golden["anchor"]


def test_gate_accepts_the_program_as_recorded(flat_anchor):
    payload, code, golden = flat_anchor
    assert gate.check_anchor(payload, code, golden) == []


def test_gate_flags_a_tampered_verdict(flat_anchor):
    payload, code, golden = flat_anchor
    tampered = copy.deepcopy(payload)
    tampered["records"][5]["verdict"] = "fail"
    errors = gate.check_anchor(tampered, code, golden)
    assert any("verdicts of G2.12" in e for e in errors)
    assert any("record 5" in e for e in errors)
    assert gate.check_anchor(payload, 1, golden) != []


def test_gate_bounds_residuals_at_rounding_level(flat_anchor):
    payload, code, golden = flat_anchor
    nudged = copy.deepcopy(payload)
    nudged["records"][0]["lhs"] += 1e-13
    assert gate.check_anchor(nudged, code, golden) == []
    nudged["records"][0]["lhs"] += 1e-6
    assert gate.check_anchor(nudged, code, golden) != []


def test_gate_flags_a_changed_paper_divergent_set():
    from confsub import catalog
    want = gate.load_golden("catalog-replay")["examples"]["5.1"]
    payload = json.loads(report.example_report_to_json(
        catalog.run_example("5.1")))
    assert gate.check_example(payload, 0, want) == []
    assert payload["discrepancies"]
    payload["discrepancies"] = payload["discrepancies"][1:]
    assert any("paper-divergent" in e
               for e in gate.check_example(payload, 0, want))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples) == (190.0, 95.0, 10)
    assert run.tail(samples[:100]) == (90.0, 90.0, 10)
    # below 100 samples the tail stays at p90, with fewer above it
    assert run.tail(samples[:20]) == (18.0, 90.0, 2)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_sampler_times_the_reference_loop_and_restores_the_handler():
    import signal
    import time

    import calibrate
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert 0 < sampler.speed() < 0.1
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.Sampler().speed() is None


def test_a_consistently_wrong_program_fails_every_pass(tmp_path, monkeypatch,
                                                        capsys):
    # a 20-point flat-sweep job and a golden whose verdicts it never meets:
    # no wrong pass may become the byte reference of the later ones
    text = workloads.manifest_text("flat-sweep", 1, points=20)
    rep = report.run_job(parse_manifest(text))
    golden = gate.load_golden("flat-sweep")
    golden["summary"] = gate.verify_summary(
        json.loads(report.to_json(rep)), rep.exit_code)
    golden["summary"]["verdicts"]["G2.12"] = {"fail": 1, "pass": 19}
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run.gate, "load_golden", lambda workload: golden)
    generate = workloads.manifest_text
    monkeypatch.setattr(
        run.workloads, "manifest_text",
        lambda workload, seed, points=None: generate(workload, seed,
                                                     points or 20))
    assert run.main(["--workload", "flat-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the set-up probes and the anchor replay do not use the job's golden
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - run.SETUP_PROBES - 1

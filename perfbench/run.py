"""confsub benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload curved-all --seed 1 \\
        --seconds 18 --trace 0

The run generates the workload's inputs from ``--seed``, measures set-up in
fresh interpreters, replays the golden anchor, then drives a closed loop
(one caller, each pass starts when the previous one ended) for
``--seconds``.  Every pass is checked against the goldens.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer times and
call counters instead.  A human-readable table goes to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Everything else (machine record, seed, manifest hashes,
per-pass times, gate messages, spans) is written under
``.bench_work/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here or in any child
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

perf_counter = time.perf_counter

SETUP_PROBES = 7        # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3          # in-process passes per run, whatever --seconds says
MIN_CLI_RUNS = 3        # CLI passes per run
IN_PROCESS_SHARE = 0.7  # of --seconds; the CLI loop gets the rest
CHILD_TIMEOUT_S = 150

CHECK_IDS = ("G2.12", "G2.13", "G2.14", "G2.15", "G2.16", "P3.1", "E3.3",
             "L3.1.i", "L3.1.ii", "L3.1.iii", "L3.1.iv", "L3.1.v",
             "L3.1.vi", "R3.11", "R3.12", "R3.13", "C3.1", "C3.2", "C3.3",
             "T3.4", "L2.1", "L2.2")

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "verify_tail_s": "s",
                    "points_per_s": "1/s", "cli_wall_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_names():
    """(metric name, unit, tracer key, normalisation) of every per-layer
    metric, in the order they are printed.  Normalisation is ``point``
    (per verified point), ``pass``, ``call`` or ``none``."""
    rows = [("manifest.load_s", "s", "probe:load_s", "none"),
            ("cli.import_s", "s", "probe:import_s", "none"),
            ("identities.context_s", "s/point", "identities.context",
             "point"),
            ("identities.contexts_per_point", "count/point",
             "count:identities.contexts", "point")]
    rows += [(f"identities.check_s.{cid}", "s/point",
              f"identities.check.{cid}", "point") for cid in CHECK_IDS]
    rows += [(f"soliton.{name}_s", "s/point", f"soliton.{name}", "point")
             for name in tracing.SOLITON_FUNCTIONS]
    rows += [(f"submersion.{name}_s", "s/point", f"submersion.{name}",
              "point")
             for name in (tracing.SUBMERSION_FUNCTIONS
                          + tracing.SUBMERSION_METHODS)]
    rows += [("submersion.projectors_calls_per_point", "count/point",
              "count:submersion.projectors_calls", "point")]
    rows += [(f"geometry.{name}_s", "s/point", f"geometry.{name}", "point")
             for name in tracing.GEOMETRY_FUNCTIONS]
    rows += [("geometry.metric_evals_per_point", "count/point",
              "count:geometry.metric_evals", "point"),
             ("jets.seeds_per_point", "count/point", "count:jets.seeds",
              "point"),
             ("expr.eval_s", "s/point", "expr.eval", "point"),
             ("expr.eval_jet_s", "s/point", "expr.eval_jet", "point"),
             ("report.to_json_s", "s/pass", "report.to_json", "pass"),
             ("report.to_text_s", "s/pass", "report.to_text", "pass")]
    rows += [(f"catalog.run_example_s.{eid}", "s/call",
              f"catalog.run_example.{eid}", "call")
             for eid in workloads.CATALOG_IDS]
    rows += [("trace.overhead_frac", "ratio", "overhead", "none")]
    return rows


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        caches.append({"level": _read(index / "level"),
                       "type": _read(index / "type"),
                       "size": _read(index / "size")})
    return caches


def _commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "confsub").rglob("*")):
        if path.suffix in (".py", ".cfsm"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "caches": _caches(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {var: os.environ.get(var)
                             for var in BLAS_THREAD_VARS},
            "commit": _commit(),
            "source_sha256": source_sha256()}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd, out_path):
    """Run ``cmd`` to completion; returns (exit code, wall s, peak RSS MB,
    stdout).  The child is killed after CHILD_TIMEOUT_S."""
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            Path(out_path).read_text(encoding="utf-8"))


def run_cli(work, cli_args):
    """Run ``confsub.cli`` in a fresh interpreter through ``cli_child.py``,
    which samples the reference loop while it runs; returns (exit code,
    wall s, peak RSS MB, stdout, sampler)."""
    samples_path = work / "cli.samples"
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(SRC),
           str(samples_path)] + cli_args
    code, wall, rss, out = run_child(cmd, work / "cli.out")
    sampler = calibrate.Sampler()
    if samples_path.exists():
        sampler.samples = json.loads(samples_path.read_text())
        samples_path.unlink()
    return code, wall, rss, out, sampler


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile, samples above it): the highest percentile of
    ``samples`` with at least ten samples above it, but never below p90 —
    with fewer than 100 samples no percentile at or above p90 has ten
    samples above it, and the one that does is no tail."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(math.ceil(0.9 * n) - 1, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Run:
    """State of one benchmark run: operations, gate messages, samples.

    Every timing is stored twice: raw under its name and rescaled to the
    reference machine speed under ``<name>_norm`` (see ``calibrate``).
    The metrics are computed from the rescaled samples."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.ops = []          # (kind, ok)
        self.errors = []       # gate and exception messages
        self.samples = {}      # name -> list of seconds
        self.info = {}
        self.tracer = None
        self.layer_norm = {}   # span name -> rescaled inclusive seconds
        self.points_per_pass = None
        self._reference = None

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def timed(self, kind, fn):
        """Run one operation; an exception counts it as failed.

        ``fn`` returns (errors, {sample name: seconds}, speed): the seconds
        exclude reference-loop time, and ``speed`` is the mean reference
        loop time measured while they ran, or None to use this process's
        reference times right before and after ``fn``."""
        before = self._reference or calibrate.reference_time()
        inclusive = dict(self.tracer.inclusive) if self.tracer else {}
        try:
            errors, timings, speed = fn()
        except Exception as exc:  # a failed op is data, not a crash
            errors = [f"{type(exc).__name__}: {exc}"]
            timings, speed = {}, None
            self.info.setdefault("tracebacks", []).append(
                traceback.format_exc())
        after = self._reference = calibrate.reference_time()
        speed = speed or (before + after) / 2
        scale = calibrate.REFERENCE_S / speed
        self.sample("reference_s", speed)
        for name, seconds in timings.items():
            self.sample(name, seconds)
            self.sample(f"{name}_norm", seconds * scale)
        if self.tracer:
            for name, total in self.tracer.inclusive.items():
                delta = (total - inclusive.get(name, 0.0)) * scale
                self.layer_norm[name] = self.layer_norm.get(name, 0.0) + delta
        self.ops.append((kind, not errors))
        self.errors.extend(f"{kind} {len(self.ops)}: {e}" for e in errors)

    # -- set-up in fresh interpreters -----------------------------------

    def setup_probes(self, manifest_path):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               str(manifest_path)]

        def probe():
            code, _, _, out = run_child(cmd, self.work / "probe.out")
            if code != 0:
                return [f"set-up probe exited {code}"], {}, None
            record = json.loads(out.strip().splitlines()[-1])
            return [], {f"probe:{key}": record[key]
                        for key in ("setup_s", "import_s", "load_s")}, (
                record["reference_s"])

        for _ in range(SETUP_PROBES):
            self.timed("setup", probe)

    # -- the closed loop -------------------------------------------------

    def loop(self, seconds, in_process, cli):
        """In-process passes for IN_PROCESS_SHARE of ``seconds``, then CLI
        passes for the rest; with tracing, alternate untraced and traced
        in-process passes for all of ``seconds`` and run no CLI pass."""
        start = perf_counter()
        if self.args.trace:
            n = 0
            while n < 2 * MIN_PASSES or perf_counter() - start < seconds:
                self.timed("pass", lambda: in_process(traced=n % 2 == 1))
                n += 1
            return
        n = 0
        while (n < MIN_PASSES
               or perf_counter() - start < IN_PROCESS_SHARE * seconds):
            self.timed("pass", lambda: in_process(traced=False))
            n += 1
        n = 0
        while n < MIN_CLI_RUNS or perf_counter() - start < seconds:
            self.timed("cli", cli)
            n += 1

    def traced_call(self, traced, name, fn, *args):
        if traced:
            return self.tracer.span(name, fn, *args)
        return fn(*args)

    def measure_pass(self, traced, body, render_text):
        """Time ``body()`` under the sampler, traced or not; afterwards
        ``render_text(result)`` runs inside a span when traced.  Returns
        (result, seconds without sampling, sampler, counter errors)."""
        if traced:
            self.tracer.pass_id += 1
            self.tracer.install()
            counts = dict(self.tracer.counts)
        try:
            with calibrate.Sampler() as sampler:
                t0 = perf_counter()
                result = body()
                dt = perf_counter() - t0 - sampler.spent
            if traced:
                self.tracer.span("report.to_text", render_text, result)
        finally:
            if traced:
                self.tracer.uninstall()
        if not traced:
            return result, dt, sampler, []
        # counters must repeat exactly from one traced pass to the next
        delta = {k: v - counts.get(k, 0)
                 for k, v in self.tracer.counts.items()}
        first = self.info.setdefault("counts_per_pass", delta)
        errors = []
        if delta != first:
            errors.append(f"call counters {delta} differ from the first "
                          f"traced pass {first}")
        return result, dt, sampler, errors


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------

def run_verify(run, golden):
    from confsub import report
    from confsub.manifest import load_manifest

    args, work = run.args, run.work
    text = workloads.manifest_text(args.workload, args.seed)
    anchor_text = workloads.anchor_manifest_text(args.workload)
    path, anchor_path = work / "job.cfsm", work / "anchor.cfsm"
    path.write_text(text, encoding="utf-8")
    anchor_path.write_text(anchor_text, encoding="utf-8")
    run.info["inputs"] = {"manifest": str(path.relative_to(ROOT)),
                          "manifest_sha256": workloads.sha256(text),
                          "anchor_sha256": workloads.sha256(anchor_text)}
    run.setup_probes(path)

    def anchor():
        errors = []
        want = golden["anchor"]["manifest_sha256"]
        if workloads.sha256(anchor_text) != want:
            errors.append("anchor manifest differs from the golden's")
        rep = report.run_job(load_manifest(anchor_path))
        payload = json.loads(report.to_json(rep))
        return errors + gate.check_anchor(payload, rep.exit_code,
                                          golden["anchor"]), {}, None
    run.timed("anchor", anchor)

    job = load_manifest(path)
    run.points_per_pass = len(job.points)
    reference = {}

    def in_process(traced):
        def body():
            rep = run.traced_call(traced, "report.run_job", report.run_job,
                                  job)
            return rep, run.traced_call(traced, "report.to_json",
                                        report.to_json, rep)

        (rep, payload), dt, sampler, errors = run.measure_pass(
            traced, body, lambda result: report.to_text(result[0]))
        if report.to_json(rep) != payload:
            errors.append("to_json is not byte-deterministic")
        errors += gate.check_verify(json.loads(payload), rep.exit_code,
                                    golden["summary"], "pass")
        if "payload" not in reference:
            if not errors:
                reference["payload"] = payload
        elif payload != reference["payload"]:
            errors.append("report differs from the first correct pass")
        return errors, {"traced" if traced else "pass": dt}, sampler.speed()

    def cli():
        code, wall, rss, out, sampler = run_cli(
            work, ["verify", str(path), "--format", "json"])
        run.sample("cli_rss", rss)
        timings = {"cli_wall": wall - sampler.spent}
        speed = sampler.speed()
        if code != golden["summary"]["exit_code"]:
            return [f"confsub verify exited {code}"], timings, speed
        errors = gate.check_verify(json.loads(out), code, golden["summary"],
                                   "cli")
        if ("payload" in reference
                and out.rstrip("\n") != reference["payload"]):
            errors.append("confsub verify output differs from the in-process "
                          "report")
        return errors, timings, speed

    run.loop(args.seconds, in_process, cli)


# ---------------------------------------------------------------------------
# catalog replay
# ---------------------------------------------------------------------------

def run_catalog(run, golden):
    from confsub import catalog, report

    args, work = run.args, run.work
    order = workloads.catalog_order(args.seed)
    run.info["inputs"] = {"order": order}
    first = SRC / "confsub" / "manifests" / (
        "example_" + order[0].replace(".", "_") + ".cfsm")
    run.setup_probes(first)
    run.points_per_pass = sum(len(catalog.default_points(eid))
                              for eid in order)
    reference = {}

    def check(eid, payload, code):
        errors = gate.check_example(json.loads(payload), code,
                                    golden["examples"][eid])
        if eid not in reference:
            if not errors:
                reference[eid] = payload
        elif payload != reference[eid]:
            errors.append(f"example {eid} output differs from its first "
                          "correct replay")
        return errors

    def in_process(traced):
        def body():
            reps = []
            for eid in order:
                rep = catalog.run_example(eid)
                reps.append((eid, rep, run.traced_call(
                    traced, "report.to_json",
                    report.example_report_to_json, rep)))
            return reps

        def render_text(reps):
            for _, rep, _ in reps:
                report.example_report_to_text(rep)

        reps, dt, sampler, errors = run.measure_pass(traced, body,
                                                     render_text)
        for eid, rep, payload in reps:
            if report.example_report_to_json(rep) != payload:
                errors.append(f"example {eid} JSON is not byte-deterministic")
            code = 0 if rep.counts["fail"] == 0 else 1
            errors += check(eid, payload, code)
        return errors, {"traced" if traced else "pass": dt}, sampler.speed()

    def cli():
        wall_sum, rss_max, errors = 0.0, 0.0, []
        sampler = calibrate.Sampler()
        for eid in order:
            code, wall, rss, out, child = run_cli(
                work, ["example", eid, "--format", "json"])
            wall_sum += wall - child.spent
            rss_max = max(rss_max, rss)
            sampler.samples += child.samples
            errors += check(eid, out.rstrip("\n"), code)
        run.sample("cli_rss", rss_max)
        return errors, {"cli_wall": wall_sum}, sampler.speed()

    run.loop(args.seconds, in_process, cli)


# ---------------------------------------------------------------------------
# metrics and output
# ---------------------------------------------------------------------------

def end_to_end_metrics(run):
    passes = run.samples["pass_norm"]
    verify_s = statistics.median(passes)
    tail_s, pct, above = tail(passes)
    run.info["verify_tail"] = {"percentile": pct, "samples": len(passes),
                               "samples_above": above}
    return {"setup_s": statistics.median(run.samples["probe:setup_s_norm"]),
            "verify_s": verify_s,
            "verify_tail_s": tail_s,
            "points_per_s": run.points_per_pass / verify_s,
            "cli_wall_s": statistics.median(run.samples["cli_wall_norm"]),
            "peak_rss_mb": statistics.median(run.samples["cli_rss"])}


def per_layer_metrics(run):
    tracer = run.tracer
    passes = len(run.samples["traced"])
    points = passes * run.points_per_pass
    overhead = (statistics.median(run.samples["traced_norm"])
                / statistics.median(run.samples["pass_norm"]) - 1.0)
    metrics = {}
    for name, unit, key, norm in per_layer_names():
        if key.startswith("probe:"):
            value = statistics.median(run.samples[f"{key}_norm"])
        elif key == "overhead":
            value = overhead
        elif key.startswith("count:"):
            value = tracer.counts[key[6:]] / points
        elif norm == "point":
            value = run.layer_norm.get(key, 0.0) / points
        elif norm == "pass":
            value = run.layer_norm.get(key, 0.0) / passes
        else:  # per call; 0.0 when the workload never makes the call
            calls = tracer.calls[key]
            value = run.layer_norm.get(key, 0.0) / calls if calls else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_table(run, metrics):
    args = run.args
    print(f"confsub benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key, value in run.info.get("inputs", {}).items():
        print(f"  input {key}: {value}")
    print(f"  points per pass: {run.points_per_pass}")
    print("  times are rescaled to the reference speed (perfbench/"
          "calibrate.py); raw medians in brackets")
    raw = {"setup_s": "probe:setup_s", "verify_s": "pass",
           "cli_wall_s": "cli_wall", "cli.import_s": "probe:import_s",
           "manifest.load_s": "probe:load_s"}
    for name, m in metrics.items():
        extra = ""
        if raw.get(name) in run.samples:
            extra = f"  [raw {statistics.median(run.samples[raw[name]]):.6g}]"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    attempted = len(run.ops)
    failed = sum(1 for _, ok in run.ops if not ok)
    print(f"  {'failed_ops_frac':<40} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)")
    if "verify_tail" in run.info:
        t = run.info["verify_tail"]
        print(f"  verify_tail_s is p{t['percentile']:.1f} of "
              f"{t['samples']} passes ({t['samples_above']} above it)")
    if run.tracer and run.tracer.missing:
        print(f"  not traced, absent from the program: {run.tracer.missing}")
    for error in run.errors[:20]:
        print(f"  GATE {error}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "confsub" / "__init__.py").is_file():
        print(f"perfbench: no confsub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work.mkdir(parents=True, exist_ok=True)

    run = Run(args, work)
    golden = gate.load_golden(args.workload)
    if args.trace:
        run.tracer = tracing.Tracer()
    if args.workload == "catalog-replay":
        run_catalog(run, golden)
    else:
        run_verify(run, golden)

    if args.trace:
        metrics = per_layer_metrics(run)
        run.tracer.write_spans(work / "spans.json")
        run.info["self_time_s"] = dict(sorted(run.tracer.self_time.items()))
        run.info["inclusive_s"] = dict(sorted(run.tracer.inclusive.items()))
        run.info["calls"] = dict(sorted(run.tracer.calls.items()))
        run.info["counts"] = dict(sorted(run.tracer.counts.items()))
        run.info["untraced_targets"] = run.tracer.missing
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end_metrics(run).items()}

    attempted = len(run.ops)
    failed = sum(1 for _, ok in run.ops if not ok)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  held_out_seed=workloads.HELD_OUT_SEED,
                  failed_ops_frac=failed / attempted,
                  machine=machine_record(), samples=run.samples,
                  errors=run.errors, **run.info)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_table(run, metrics)
    print(f"  full record: {(work / 'result.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

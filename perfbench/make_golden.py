"""Record the goldens that ``gate.py`` compares every pass against.

Usage (from the root of a source checkout)::

    python3 perfbench/make_golden.py

For each verify workload it records the anchor job's full residual rows
and the per-check-id verdict summary of the workload's job, after checking
that the summary is the same for every seed a run uses (CHECKED_SEEDS);
for catalog-replay it records
every example's rows, counts and ``paper-divergent`` names.  The goldens
describe the program's verdicts when the benchmark was defined; regenerate
them only for a change that is meant to alter verdicts or residuals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from confsub import catalog, report  # noqa: E402
from confsub.manifest import parse_manifest  # noqa: E402

# the tuning and regression seeds, and the held-out one
CHECKED_SEEDS = tuple(range(1, 11)) + (workloads.HELD_OUT_SEED,)


def verify_golden(workload):
    def run(text):
        rep = report.run_job(parse_manifest(text))
        return json.loads(report.to_json(rep)), rep.exit_code

    anchor_text = workloads.anchor_manifest_text(workload)
    payload, code = run(anchor_text)
    golden = {"anchor": {"manifest_sha256": workloads.sha256(anchor_text),
                         "summary": gate.verify_summary(payload, code),
                         "records": gate.residual_rows(payload)}}
    summaries = []
    for seed in CHECKED_SEEDS:
        payload, code = run(workloads.manifest_text(workload, seed))
        summaries.append(gate.verify_summary(payload, code))
        print(f"  {workload} seed {seed}: {payload['counts']}", flush=True)
    if any(s != summaries[0] for s in summaries):
        raise SystemExit(f"{workload}: verdicts depend on the seed")
    golden["summary"] = summaries[0]
    return golden


def catalog_golden():
    examples = {}
    for eid in workloads.CATALOG_IDS:
        rep = catalog.run_example(eid)
        payload = json.loads(report.example_report_to_json(rep))
        examples[eid] = {"counts": payload["counts"],
                         "discrepancies": payload["discrepancies"],
                         "exit_code": 0 if rep.counts["fail"] == 0 else 1,
                         "rows": gate.example_rows(payload)}
    return {"examples": examples}


def main():
    gate.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        if workload == "catalog-replay":
            golden = catalog_golden()
        else:
            golden = verify_golden(workload)
        with open(gate.GOLDEN_DIR / f"{workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote golden for {workload}")


if __name__ == "__main__":
    main()

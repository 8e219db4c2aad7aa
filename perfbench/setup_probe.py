"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py <src dir> <manifest>``

Times the import of ``confsub.cli`` and one ``load_manifest`` call (which
parses the manifest and samples its box points) and prints the times as
one JSON line, with the mean reference-loop time measured in this process
right before and right after them (see ``calibrate.py``).
"""

import json
import sys
import time

from calibrate import reference_time

before = reference_time()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import confsub.cli  # noqa: E402

t1 = time.perf_counter()
job = confsub.cli.load_manifest(sys.argv[2])
t2 = time.perf_counter()
after = reference_time()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "setup_s": t2 - t0, "points": len(job.points),
                  "reference_s": (before + after) / 2}))

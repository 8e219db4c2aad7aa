"""Run the confsub CLI in this fresh interpreter while sampling the
reference loop (see ``calibrate.py``).

Usage: ``python3 perfbench/cli_child.py <src dir> <samples file> <cli args>``

The import of ``confsub.cli`` and the call of ``confsub.cli.main`` with
``<cli args>`` happen inside the sampler, so the process does what
``python3 -m confsub.cli <cli args>`` does plus the sampling.  The samples
are written to ``<samples file>`` as a JSON list; the exit status is the
CLI's.
"""

import json
import sys

from calibrate import Sampler

sys.path.insert(0, sys.argv[1])

with Sampler() as sampler:
    import confsub.cli

    code = confsub.cli.main(sys.argv[3:])
    sys.stdout.flush()

with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(sampler.samples, fh)
sys.exit(code)

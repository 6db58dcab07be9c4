"""Set-up probe: a fresh interpreter imports ccbm.cli and writes a workload's
inputs with `ccbm simulate`, then exits.

    python3 bench/setup_probe.py '<JSON list of simulate argument lists>'

run.py times this process from spawn to exit as the benchmark's set-up time.
"""

import contextlib
import io
import json
import sys

from ccbm.cli import main

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in json.loads(sys.argv[1])]
    sys.exit(max(codes))

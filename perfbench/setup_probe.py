"""Set-up time of one command-line run, measured in a fresh interpreter.

Reads a JSON list of scenario dicts on standard input, then times
``import harnacklab`` from the checkout's ``src/`` plus parsing every
scenario, and prints the seconds.  `run.py` starts this several times.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

cfgs = json.load(sys.stdin)
start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from harnacklab import cli  # noqa: E402

for cfg in cfgs:
    cli.Scenario.parse(cfg)
print(perf_counter() - start)

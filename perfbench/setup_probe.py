"""Time the fixed cost a CLI invocation pays before any work starts.

Run in a fresh interpreter: ``python3 perfbench/setup_probe.py``.  It
imports cbftk and its CLI module from the checkout's ``src``, parses the
configuration of every published scenario with all four constructions,
builds the scenario, the CBF instances and the filter spec, and prints the
elapsed seconds.
"""

import os
import sys
from time import perf_counter

START = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

# importing the CLI entry point is part of the set-up cost, so it is timed
import cbftk.cli  # noqa: E402,F401
from cbftk.config import ScenarioConfig  # noqa: E402

for name in ("pendulum", "bicycle"):
    config = ScenarioConfig.from_assignments(
        {"scenario": name, "cbf": "hocbf,recbf,backstepping,abc"}
    )
    scenario = config.build_scenario()
    instances = [scenario.make_cbf(kind) for kind in config.cbfs]
    spec = scenario.filter_spec()

print(repr(perf_counter() - START))

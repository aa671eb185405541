"""Set-up probe: a fresh interpreter imports connexa and the harness, then
says it is ready for its first item.  ``run.py`` times it from outside."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402,F401  (imports every connexa module a workload calls)

print("ready", flush=True)

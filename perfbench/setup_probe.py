"""Time one cold set-up of a workload and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing keygraph (from the checkout's ``src/``) and building the
workload's specs, which for the deletion designs means solving their
thresholds.  ``run.py`` starts this script several times per run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports keygraph; part of what is timed)

workloads.WORKLOADS[sys.argv[1]].build()
print(time.perf_counter() - start)

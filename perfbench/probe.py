"""Set-up probe: import the program, build and validate one workload config, say so.

`run.py` starts this script several times per run.  The script prints the
wall-clock time at which it is ready; that time minus the moment `run.py`
started the process is one `setup_s` sample.
Usage: python3 perfbench/probe.py <workload> [<seed>]
"""

import sys
import time

import workloads

workloads.use_checkout_source()
workloads.build_config(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else None)
print(f"ready {time.time()!r}", flush=True)

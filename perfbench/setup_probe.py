"""Set up one workload in a fresh interpreter and print "ready".

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times a fresh process from spawn to that line, which is the
benchmark's set-up time: interpreter start, imports, input generation and
warm-up.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)

"""Fresh-interpreter probe behind setup_s.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports tempent, builds the workload's inputs, runs and checks its first op,
and prints one JSON line.  ``excluded_s`` is the time spent on the
benchmark's own work (inputs and oracle), which the runner subtracts from
the probe's wall time; everything else, interpreter start-up and exit
included, is set-up time a user of the library would pay.
"""

import json
import sys
import time

t_start = time.perf_counter()

import common  # noqa: E402

common.prepare()
common.import_tempent()
t_imported = time.perf_counter()

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
wl = workloads.WORKLOADS[name](seed, workloads.plain_api())
t_inputs = time.perf_counter()
out = wl.op(0)
t_op = time.perf_counter()
ok = wl.check(0, out)
t_end = time.perf_counter()

print(
    json.dumps(
        {
            "import_s": t_imported - t_start,
            "first_op_s": t_op - t_inputs,
            "excluded_s": (t_inputs - t_imported) + (t_end - t_op),
            "correct": bool(ok),
        }
    )
)

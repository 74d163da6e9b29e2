"""Time the set-up and the pose evaluations of one round in a fresh process.

Usage: ``python pose_worker.py WORKLOAD SEED DIRECTORY``

The first build of the case, in ``DIRECTORY``, imports the modules and is
not timed.  Then the case is built ``BUILDS`` more times, each in a new
directory (the set-up times), and the seeded pose set is evaluated as
many times as the workload's ``passes``.  Prints one JSON line: the
set-up times, the time of each evaluation and the failed evaluations by
exception name.

A process tends to stay on the CPU it starts on, and on a shared host one
CPU can be much slower than the other for a while; a fresh process per
round lets a run's median see both.
"""

import json
import sys
import time
from pathlib import Path

import run

BUILDS = 8


def main() -> int:
    workload, seed, directory = sys.argv[1:]
    sys.path.insert(0, str(run.SRC))
    case = run.build_case(workload, int(seed), Path(directory))
    setup_s = []
    for k in range(BUILDS):
        build_dir = case["dir"] / f"setup{k}"
        build_dir.mkdir()
        start = time.perf_counter()
        run.build_case(workload, int(seed), build_dir)
        setup_s.append(time.perf_counter() - start)
    tally = run.Tally()
    latencies = []
    for _ in range(run.WORKLOADS[workload]["passes"]):
        latencies += run.pose_chunk(case, case["poses"], tally)
    print(json.dumps({"setup_s": setup_s, "latencies": latencies, "failures": tally.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

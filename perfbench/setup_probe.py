"""Set-up of one benchmark run, in a fresh interpreter: import dyadicsq.cli
and build every family the workload's experiments start from (constructors
with their closed-form checks).  Prints ``ready`` when done; run.py times
this process from its start to that line.

    python3 perfbench/setup_probe.py --workload deep_spine --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import env  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    env.cap_blas_threads()
    env.use_source_tree()
    import dyadicsq.cli  # noqa: F401

    for step in workloads.plan(args.workload, args.seed):
        workloads.build_family(step)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

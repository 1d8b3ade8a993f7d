"""Regenerate the benchmark's Bookshelf inputs and print their fingerprints.

    PYTHONPATH=src python3 flowbench/gen_inputs.py [--workload flow-13k]
        [--seed N] [--out DIR] [--json]

Without ``--workload`` every workload is written; without ``--seed`` each
design keeps its suite's own generator seed.  The printed ``fingerprint``
is ``PlacementDB.fingerprint()`` of the design read back from the files,
comparable with the table in ``flowbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, write_inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=os.path.join("flowbench", "inputs"))
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per workload")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    for name in args.workload or sorted(WORKLOADS):
        info = write_inputs(WORKLOADS[name], args.seed,
                            os.path.join(args.out, name))
        if args.json:
            print(json.dumps(info, sort_keys=True))
        else:
            print(f"{name:10s} {info['design']} scale={info['scale']} "
                  f"seed={info['seed']} cells={info['cells']} "
                  f"movable={info['movable']} nets={info['nets']} "
                  f"fingerprint={info['fingerprint']} -> {info['aux']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

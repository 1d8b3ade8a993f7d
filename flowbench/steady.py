"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 flowbench/steady.py --workload gp-53k --seeds 1-10 \
        [--save flowbench/out/gp-53k-a.json] [--against OTHER.json]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric of ``BENCHMARK.json`` its median, quartiles and
spread (inter-quartile distance as a share of the median, from
``statistics.quantiles(values, n=4)``) next to its bound.  A spread
should stay below a third of the bound.  ``--against`` compares with a
saved set: each median may be worse than the saved one by at most the
bound, and the share of failed operations must be the same.  Exits
non-zero when a run fails, a spread exceeds its bound or a comparison
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}"
                          for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)

    ok = all(r["correct"] for r in runs)
    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    print(f"\n{'metric':12s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, spec in metrics.items():
        q1, median, q3, spread = _spread(
            [r["metrics"][name]["value"] for r in runs])
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread}
        flag = "" if spread < spec["bound"] / 3 else "  <- above bound/3"
        if spread > spec["bound"] and name != "setup_s":
            ok = False
            flag = "  <- above bound"
        print(f"{name:12s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {spec['bound']:6.3f}{flag}")
    walls = [r["wall_s"] for r in runs]
    print(f"run wall time: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    failed_share = (sum(r["failed"] for r in runs)
                    / sum(r["attempted"] for r in runs))
    summary["failed_share"] = failed_share
    print(f"failed share {failed_share}")

    if args.against:
        with open(args.against) as handle:
            base = json.load(handle)
        print(f"\nagainst {args.against}:")
        for name, spec in metrics.items():
            old = base["metrics"][name]["median"]
            new = summary["metrics"][name]["median"]
            worse = (new - old) / old if spec["better"] == "lower" \
                else (old - new) / old
            verdict = "ok" if worse <= spec["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{name:12s} {old:14.6g} -> {new:14.6g} "
                  f"({worse:+.4f} of bound {spec['bound']}) {verdict}")
        same_failed = base["failed_share"] == failed_share
        ok &= same_failed
        print(f"failed share {base['failed_share']} -> {failed_share} "
              f"{'ok' if same_failed else 'DIFFERS'}")

    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

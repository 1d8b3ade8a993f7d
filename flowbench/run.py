"""End-to-end placement benchmark: one run of one workload.

    python3 flowbench/run.py --workload flow-13k --seed 1 --seconds 40 \
        --trace 0

Run from the repository root.  Writes the workload's Bookshelf design
from ``--seed`` (``gen_inputs.py`` in a child process), then measures
whole rounds of the workload (``flow.py``), each in a fresh process with
single-threaded BLAS/OpenMP, until ``--seconds`` have passed.  With
``--trace 1`` every round runs twice, untraced and traced; the traced
copy gives the per-layer figures and its Chrome trace is kept under
``flowbench/out/``.  The last line of standard output is the result
object; the exit code is non-zero when a round fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import LAYER_UNITS, WORKLOADS  # noqa: E402

#: a run must end within this many seconds: no round starts that the
#: previous one says would not finish in time
RUN_BUDGET_S = 170.0

_SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class RoundFailed(RuntimeError):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(_SINGLE_THREAD)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list, env: dict, deadline: float) -> dict:
    """Run a benchmark script; returns its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("run budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RoundFailed(f"{args[0]} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RoundFailed(f"{args[0]} printed nothing")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("flowbench: run from the repository root "
                         "(src/repro not found)\n")
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = _child_env(root)
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = _child([os.path.join(HERE, "gen_inputs.py"),
                         "--workload", args.workload, "--seed",
                         str(args.seed), "--out", os.path.join(work, "in"),
                         "--json"], env, deadline)
        rounds = []
        while True:
            round_start = time.monotonic()
            rounds.append(_round(args, inputs, env, work, tag, len(rounds),
                                 deadline))
            now = time.monotonic()
            if now - start >= args.seconds \
                    or now + (now - round_start) > deadline:
                break
    except RoundFailed as exc:
        sys.stderr.write(f"flowbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(_result(args, rounds), sort_keys=True))
    return 0


def _round(args, inputs, env, work, tag, index, deadline) -> dict:
    """One round: an untraced flow and, with --trace 1, a traced one."""
    flow = [os.path.join(HERE, "flow.py"), "--workload", args.workload,
            "--aux", inputs["aux"], "--fingerprint", inputs["fingerprint"]]

    def run(name, extra=()):
        directory = os.path.join(work, f"r{index}-{name}")
        os.makedirs(directory)
        out = _child([*flow, "--work", directory, *extra], env, deadline)
        for check, ok in out["checks"].items():
            if not ok:
                sys.stderr.write(f"flowbench: check {check} failed "
                                 f"({name} round {index})\n")
        return out

    plain = run("plain")
    if not args.trace:
        return {"plain": plain}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{tag}-r{index}.trace.json")
    traced = run("traced", ("--trace-out", trace_path))
    _print_table(traced, plain, trace_path)
    return {"plain": plain, "traced": traced}


def _print_table(traced: dict, plain: dict, trace_path: str) -> None:
    """Print the traced round's table and save it next to its trace."""
    lines = [f"# {traced['workload']}: traced flow_s {traced['flow_s']:.3f} "
             f"(untraced {plain['flow_s']:.3f}); trace {trace_path}"]
    for stage, seconds in traced["stages"].items():
        lines.append(f"#   stage {stage:12s} {seconds:10.3f} s "
                     f"{100.0 * seconds / traced['flow_s']:6.1f} %")
    for name, value in traced["layers"].items():
        lines.append(f"#   {name:24s} {value:14.6g}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    with open(trace_path.replace(".trace.json", ".table.txt"), "w") as out:
        out.write(text)


def _result(args, rounds: list) -> dict:
    plain = [r["plain"] for r in rounds]
    everything = plain + [r["traced"] for r in rounds if "traced" in r]
    correct = all(r["correct"] for r in everything)
    # tracing must not change the placement
    correct &= all(r["traced"]["hpwl_final"] == r["plain"]["hpwl_final"]
                   for r in rounds if "traced" in r)
    attempted = sum(r["ops"] for r in everything)
    if args.trace:
        metrics = _layer_metrics(rounds)
    else:
        median = statistics.median
        metrics = {
            "setup_s": _metric(median([median(r["setup_s"]) for r in plain]),
                               "s"),
            "flow_s": _metric(median([r["flow_s"] for r in plain]), "s"),
            "hpwl_final": _metric(median([r["hpwl_final"] for r in plain]),
                                  "dbu"),
            "peak_rss_mb": _metric(median([r["peak_rss_mb"] for r in plain]),
                                   "MB"),
        }
    return {"correct": bool(correct), "attempted": attempted, "failed": 0,
            "metrics": metrics}


def _layer_metrics(rounds: list) -> dict:
    for r in rounds:
        r["traced"]["layers"]["obs.trace_overhead_s"] = \
            r["traced"]["flow_s"] - r["plain"]["flow_s"]
    return {name: _metric(statistics.median([r["traced"]["layers"][name]
                                             for r in rounds]), unit)
            for name, unit in LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())

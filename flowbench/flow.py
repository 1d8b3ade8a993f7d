"""One round of a benchmark workload, run in a fresh process.

    PYTHONPATH=src python3 flowbench/flow.py --workload flow-13k \
        --aux DIR/adaptec1.aux --fingerprint HEX --work DIR [--trace-out F]

Reads the Bookshelf design ``SETUP_READS`` times (set-up), runs the
workload's flow on the last copy, checks the result with
:mod:`checker`, and prints one JSON line of raw measurements.  With
``--trace-out`` the round runs under a ``repro.obs.Tracer``, times the
public entry points the flow passes through, writes the Chrome trace to
that path and adds the per-layer figures.  Any exception exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import spans  # noqa: E402
from workloads import ROUTE_LAYERS, ROUTE_TILES, WORKLOADS  # noqa: E402

from repro.bookshelf import read_bookshelf  # noqa: E402
from repro.core import DreamPlacer  # noqa: E402
from repro.obs import Tracer, trace_span  # noqa: E402

SETUP_READS = 3
#: relative agreement required between the recomputed and reported HPWL
HPWL_RTOL = 1e-9
#: share of the traced ``flow_s`` the stage spans may leave unexplained
ACCOUNTING_TOL = 0.02


def _instrument() -> None:
    """Time the public entry points the flow calls internally.

    Wraps ``DreamPlacer.run``, ``PlacerCheckpoint.save``,
    ``repro.bookshelf.write_bookshelf`` and ``GlobalRouter.route`` of
    this process in benchmark spans (``bench.*``); nothing in ``src/``
    changes.
    """
    import repro.bookshelf
    from repro.route.router import GlobalRouter
    from repro.runner.checkpoint import PlacerCheckpoint

    def wrap(owner, attr, name, size_of=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with trace_span(name) as span:
                out = original(*args, **kwargs)
                if size_of is not None:
                    span["bytes"] = os.path.getsize(size_of(args, kwargs))
                return out

        setattr(owner, attr, timed)

    wrap(DreamPlacer, "run", "bench.placer_run")
    wrap(PlacerCheckpoint, "save", "bench.checkpoint_save",
         size_of=lambda args, kwargs: kwargs.get("path", args[-1]))
    wrap(repro.bookshelf, "write_bookshelf", "bench.write_bookshelf")
    wrap(GlobalRouter, "route", "bench.router_route")


def _setup(aux: str):
    times = []
    db = None
    for _ in range(SETUP_READS):
        start = time.perf_counter()
        with trace_span("bench.read_bookshelf"):
            db = read_bookshelf(aux)
        times.append(time.perf_counter() - start)
    return times, db


def _run_placer(workload, db, out: dict):
    start = time.perf_counter()
    result = DreamPlacer(db, workload.placement_params()).run()
    out["flow_s"] = time.perf_counter() - start
    out["ops"] += 1
    return result


def _run_job(workload, aux: str, db, work: str, out: dict, checks: dict):
    """Cold runner job into a fresh store, then one resubmission."""
    from repro.runner import (DesignRef, JobSpec, ResultCache, RunStore,
                              Scheduler)
    from repro.runner.checkpoint import PlacerCheckpoint

    store = RunStore(os.path.join(work, "store"))
    scheduler = Scheduler(store, cache=ResultCache(store))
    spec = JobSpec(DesignRef(name=aux, source="bookshelf"),
                   params=workload.placement_params())

    start = time.perf_counter()
    with trace_span("bench.run_one", resubmission=False):
        cold = scheduler.run_one(spec, db=db)
    out["flow_s"] = time.perf_counter() - start
    record = store.load(cold.job_hash)
    with open(record.events_path) as handle:
        out["events"] = sum(1 for line in handle if line.strip())

    iterations = []
    start = time.perf_counter()
    with trace_span("bench.run_one", resubmission=True):
        hit = scheduler.run_one(
            spec, db=db,
            iteration_hook=lambda placer, info: iterations.append(info))
    out["cache_hit_s"] = time.perf_counter() - start
    out["ops"] += 2

    checks["job_complete"] = (cold.ok and not cold.cached
                              and cold.artifact_error is None
                              and cold.result is not None)
    checks["resubmission_cached"] = (hit.ok and hit.cached
                                     and hit.job_hash == cold.job_hash
                                     and hit.metrics == cold.metrics
                                     and not iterations)
    ckpt = PlacerCheckpoint.load(record.checkpoint_path,
                                 expect_job_hash=cold.job_hash)
    checks["checkpoint_loads"] = ckpt.iteration > 0
    return cold.result


def _score_route(db, x, y, hpwl_final: float, out: dict, checks: dict):
    """Table V scoring of the final placement: RC and sHPWL."""
    from repro.core.metrics import scaled_hpwl
    from repro.route.router import GlobalRouter, calibrate_capacity

    with trace_span("bench.route"):
        capacity = calibrate_capacity(db, ROUTE_TILES, ROUTE_LAYERS, x, y)
        routing = GlobalRouter(db, ROUTE_TILES, ROUTE_LAYERS,
                               capacity).route(x, y)
    out["rc"] = float(routing.rc)
    out["shpwl"] = float(scaled_hpwl(hpwl_final, routing.rc))
    expected = hpwl_final * (1.0 + 0.03 * (routing.rc - 100.0))
    checks["shpwl_formula"] = math.isclose(out["shpwl"], expected,
                                           rel_tol=1e-12)
    out["ops"] += 1


def _layers(table: dict, trace_spans: list, out: dict, result) -> dict:
    """Per-layer figures of one traced round (seconds, counts, %)."""
    t, s, n = spans.total, spans.self_time, spans.count
    gp_s = t(table, "stage.gp")
    dp_s = t(table, "stage.dp")
    stats = result.dp_stats
    accepted = 0 if stats is None else int(
        sum(stats.swaps) + sum(stats.reorders) + sum(stats.matchings))
    gain_pct = (1.0 - result.hpwl_final / result.hpwl_legal) * 100.0
    ckpt_bytes = sum(span.args.get("bytes", 0) for span in trace_spans
                     if span.name == "bench.checkpoint_save")
    # the first job span is the cold job; the resubmission's is the
    # cache hit, reported on its own as runner.cache_hit_s
    jobs = [span for span in trace_spans if span.name == "job"]
    cold_job_s = jobs[0].dur * 1e-6 if jobs else 0.0
    return {
        "bookshelf.read_s": statistics.median(out["setup_s"]),
        "bookshelf.write_s": t(table, "bench.write_bookshelf"),
        "core.gp_s": gp_s,
        "core.gp_iterations": int(result.iterations),
        "core.gp_ms_per_iter": gp_s / max(result.iterations, 1) * 1e3,
        "core.hpwl_gp": float(result.hpwl_global),
        "ops.wirelength_s": s(table, "wl.forward", "wl.backward"),
        "ops.density_s": s(table, "density.forward", "density.scatter",
                           "density.backward"),
        "ops.poisson_s": s(table, "density.solve"),
        "ops.overflow_s": s(table, "gp.overflow"),
        "ops.hpwl_s": s(table, "gp.hpwl"),
        "nn.optimizer_s": s(table, "gp.step"),
        "lg.s": t(table, "stage.lg"),
        "lg.tetris_s": t(table, "lg.tetris"),
        "lg.abacus_s": t(table, "lg.abacus"),
        "lg.check_s": t(table, "check.legalize"),
        "lg.hpwl_increase_pct":
            (result.hpwl_legal / result.hpwl_global - 1.0) * 100.0,
        "dp.s": dp_s,
        "dp.global_swap_s": t(table, "dp.global_swap"),
        "dp.local_reorder_s": t(table, "dp.local_reorder"),
        "dp.independent_set_s": t(table, "dp.independent_set"),
        "dp.accepted_moves": accepted,
        "dp.hpwl_gain_pct": gain_pct,
        "dp.s_per_gain_pct": dp_s / gain_pct if gain_pct > 0 else 0.0,
        "route.s": t(table, "bench.route"),
        "route.router_calls": n(table, "bench.router_route"),
        "route.rc": out.get("rc", 0.0),
        "route.shpwl": out.get("shpwl", 0.0),
        "runner.overhead_s": (cold_job_s - t(table, "bench.placer_run")
                              if jobs else 0.0),
        "runner.checkpoints": n(table, "bench.checkpoint_save"),
        "runner.checkpoint_s": t(table, "bench.checkpoint_save"),
        "runner.checkpoint_mb": ckpt_bytes / 2**20,
        "runner.events": out.get("events", 0),
        "runner.cache_hit_s": out.get("cache_hit_s", 0.0),
    }


def _accounting(table: dict, flow_s: float, runner: bool) -> dict:
    """Where the traced ``flow_s`` went, stage by stage."""
    t = spans.total
    rows = {
        "gp": t(table, "stage.gp"),
        "lg": t(table, "stage.lg"),
        "lg.check": t(table, "check.legalize"),
        "dp": t(table, "stage.dp"),
        "dp.check": t(table, "check.detailed"),
    }
    if runner:
        rows["runner"] = flow_s - t(table, "bench.placer_run")
    rows["unaccounted"] = flow_s - sum(rows.values())
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--aux", required=True)
    parser.add_argument("--fingerprint", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = args.trace_out is not None

    out: dict = {"workload": workload.name, "ops": 0}
    checks: dict = {}
    tracer = Tracer(process_label=f"flowbench {workload.name}") \
        if traced else None
    if traced:
        _instrument()
    with tracer if traced else contextlib.nullcontext():
        out["setup_s"], db = _setup(args.aux)
        out["ops"] += SETUP_READS
        checks["input_fingerprint"] = db.fingerprint() == args.fingerprint
        layout = checker.layout_from_db(db)
        if workload.runner:
            result = _run_job(workload, args.aux, db, args.work, out, checks)
        else:
            result = _run_placer(workload, db, out)
        if traced and workload.route_score:
            _score_route(db, result.x, result.y, result.hpwl_final,
                         out, checks)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    params = workload.placement_params()
    violations = checker.legality_violations(layout, result.x, result.y)
    hpwl = checker.db_hpwl(db, result.x, result.y)
    checks["legal"] = not any(violations.values())
    checks["hpwl_recomputed"] = math.isclose(hpwl, result.hpwl_final,
                                             rel_tol=HPWL_RTOL)
    # the placer returns its best checkpoint, which may sit up to
    # overflow_improve_tol above the overflow target it stopped at
    checks["gp_converged"] = (not result.diverged and result.overflow
                              <= params.stop_overflow
                              + params.overflow_improve_tol)
    if params.detailed:
        checks["dp_no_worse"] = result.hpwl_final <= result.hpwl_legal
    out.update(hpwl_final=float(result.hpwl_final),
               hpwl_legal=float(result.hpwl_legal),
               hpwl_gp=float(result.hpwl_global),
               overflow=float(result.overflow), violations=violations,
               hpwl_recomputed=hpwl)

    if traced:
        tracer.trace.save(args.trace_out)
        table = spans.span_table(tracer.trace.spans)
        out["layers"] = _layers(table, tracer.trace.spans, out, result)
        out["stages"] = _accounting(table, out["flow_s"], workload.runner)
        checks["stages_account_for_flow"] = (
            abs(out["stages"]["unaccounted"])
            <= ACCOUNTING_TOL * out["flow_s"])
        gp_spans = [span for span in tracer.trace.spans
                    if span.name == "stage.gp"]
        checks["gp_span_converged"] = all(
            span.args.get("converged", True) for span in gp_spans)
        out["spans"] = dict(sorted(table.items()))

    out["checks"] = checks
    out["correct"] = all(checks.values())
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions of the end-to-end placement benchmark.

Each workload is a synthetic suite design (``repro.benchgen``) at a
fixed scale, written to Bookshelf files from a seed; the placer only
ever reads those files.  ``detailed`` and ``runner`` select the flow.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Table V router set-up used to score a final placement (RC, sHPWL)
ROUTE_TILES = 24
ROUTE_LAYERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    scale: int
    #: overrides of the default ``PlacementParams``
    params: dict = field(default_factory=dict)
    #: run as a ``repro.runner`` job (cold job + one resubmission)
    runner: bool = False
    #: route the final placement once (Table V scoring) in traced runs
    route_score: bool = False

    def placement_params(self):
        from repro.core import PlacementParams

        return PlacementParams(**self.params)


WORKLOADS = {
    w.name: w for w in (
        Workload("flow-13k", "adaptec1", 16, runner=True, route_score=True),
        Workload("gp-53k", "adaptec1", 4, params={"detailed": False}),
    )
}


def suite_spec(design: str, scale: int, seed: int | None = None):
    """The suite's ``CircuitSpec`` for ``design``; ``seed`` replaces the
    suite's own generator seed when given."""
    from repro.benchgen import dac2012_suite, industrial_suite, ispd2005_suite

    for suite in (ispd2005_suite, industrial_suite, dac2012_suite):
        for spec in suite(scale):
            if spec.name == design:
                if seed is None:
                    return spec
                return dataclasses.replace(spec, seed=int(seed))
    raise KeyError(f"unknown suite design {design!r}")


def write_inputs(workload: Workload, seed: int | None, directory: str) -> dict:
    """Generate the workload's design and write it as Bookshelf files.

    Returns the ``.aux`` path, the generator seed and the fingerprint of
    the netlist as read back from the files (what the placer sees).
    """
    from repro.benchgen import generate
    from repro.bookshelf import read_bookshelf, write_bookshelf

    spec = suite_spec(workload.design, workload.scale, seed)
    aux = write_bookshelf(generate(spec), directory, name=workload.design)
    db = read_bookshelf(aux)
    return {
        "workload": workload.name,
        "design": workload.design,
        "scale": workload.scale,
        "seed": spec.seed,
        "cells": db.num_cells,
        "movable": db.num_movable,
        "nets": db.num_nets,
        "pins": db.num_pins,
        "fingerprint": db.fingerprint(),
        "aux": aux,
    }


#: unit of every per-layer figure a traced round reports
LAYER_UNITS = {
    "bookshelf.read_s": "s",
    "bookshelf.write_s": "s",
    "core.gp_s": "s",
    "core.gp_iterations": "count",
    "core.gp_ms_per_iter": "ms",
    "core.hpwl_gp": "dbu",
    "ops.wirelength_s": "s",
    "ops.density_s": "s",
    "ops.poisson_s": "s",
    "ops.overflow_s": "s",
    "ops.hpwl_s": "s",
    "nn.optimizer_s": "s",
    "lg.s": "s",
    "lg.tetris_s": "s",
    "lg.abacus_s": "s",
    "lg.check_s": "s",
    "lg.hpwl_increase_pct": "%",
    "dp.s": "s",
    "dp.global_swap_s": "s",
    "dp.local_reorder_s": "s",
    "dp.independent_set_s": "s",
    "dp.accepted_moves": "count",
    "dp.hpwl_gain_pct": "%",
    "dp.s_per_gain_pct": "s/%",
    "route.s": "s",
    "route.router_calls": "count",
    "route.rc": "%",
    "route.shpwl": "dbu",
    "runner.overhead_s": "s",
    "runner.checkpoints": "count",
    "runner.checkpoint_s": "s",
    "runner.checkpoint_mb": "MB",
    "runner.events": "count",
    "runner.cache_hit_s": "s",
    "obs.trace_overhead_s": "s",
}

"""One benchmark job in a fresh interpreter; prints one JSON line.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 simbench/child.py '{"job": "pass", "workload": "cell", ...}'

Jobs:

* ``setup`` -- time ``build_network`` on every distinct config of the
  workload, ``builds`` times each, ``gc.collect()`` before every build;
* ``pass``  -- run the whole workload once, untraced, timing each unit
  (one run, plus for ``figset`` each figure's glue);
* ``trace`` -- the same pass with the layer tracer installed.

Every job first runs one small discarded warm-up simulation.  Each run's
outputs are checked and digested; a run that raises or fails a check is
counted as failed and the job carries on.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

# Set before the simulator is imported: the tracer must patch classes
# before any object captures a bound method.
SPEC: Dict[str, Any] = json.loads(sys.argv[1]) if __name__ == "__main__" else {}
TRACER = None
if SPEC.get("job") == "trace":
    from tracer import SpanCost, Tracer, install  # noqa: E402

    TRACER = Tracer()
    install(TRACER)

import repro.experiments.fig6 as fig6  # noqa: E402
import repro.experiments.fig7 as fig7  # noqa: E402
import repro.experiments.fig8 as fig8  # noqa: E402
# the package re-exports a ``sweep`` function that shadows the module
sweep = importlib.import_module("repro.experiments.sweep")
import repro.network as network  # noqa: E402
from repro.experiments.parallel import replication_config  # noqa: E402
from repro.network import SimulationConfig  # noqa: E402

from checks import Pool  # noqa: E402
import workloads  # noqa: E402

FIGURES = (("fig6", fig6), ("fig7", fig7), ("fig8", fig8))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(spec: Dict[str, Any], size: workloads.Size) -> None:
    """One short discarded run: imports, allocator and caches settle."""
    config = workloads.requested_runs(spec["workload"], spec["seed"], size)[0]
    network.run_simulation(replace(config, sim_time=1.0))
    if TRACER is not None:
        TRACER.reset()
    gc.collect()


# ----------------------------------------------------------------------
# cell: one timed unit per config
# ----------------------------------------------------------------------

def _cell_inputs(spec: Dict[str, Any],
                 size: workloads.Size) -> List[Tuple[str, Callable[[], SimulationConfig]]]:
    configs = workloads.cell_configs(spec["seed"], size)
    inputs: List[Tuple[str, Callable[[], SimulationConfig]]] = [
        (f"rep{i}", (lambda c=c: c)) for i, c in enumerate(configs)]
    if spec.get("inject_invalid"):
        # the self-test's deliberately invalid config: rejected on build
        inputs.append(("invalid", lambda: replace(configs[0], packet_rate=-1.0)))
    return inputs


def _cell_pass(spec: Dict[str, Any], size: workloads.Size,
               pool: Pool) -> List[Optional[float]]:
    units: List[Optional[float]] = []
    inputs = _cell_inputs(spec, size)
    plain = spec.get("plain", False)
    for label, make in inputs:
        gc.collect()
        start = time.perf_counter()
        try:
            config = make()
            if plain:
                metrics = network.run_simulation(config)
            else:
                net = network.build_network(config)
                metrics = net.run()
                del net
        except Exception as exc:  # a failed run is counted, not fatal
            pool.fail(label, f"{type(exc).__name__}: {exc}")
            units.append(None)
            continue
        units.append(time.perf_counter() - start)
        pool.add(label, config, metrics)
    return units


# ----------------------------------------------------------------------
# figset: one timed unit per run, plus each figure's own overhead
# ----------------------------------------------------------------------

def _figset_pass(spec: Dict[str, Any], size: workloads.Size,
                 pool: Pool) -> List[Optional[float]]:
    """Run fig6/7/8 once; time each run and each figure's remaining glue.

    Run times are the grid runner's own ``RunManifest.wall_time``; a
    figure's glue (config construction, aggregation) is its wall time
    minus its runs'.  The units sum to the figures' wall time.
    """
    scale = workloads.fig_scale(size)
    seed = workloads.base_seed("figset", spec["seed"])
    grids: List[Tuple[Dict[Any, SimulationConfig], Dict[Any, Any]]] = []
    run_walls: List[float] = []
    run_grid = sweep.run_grid

    def capture(configs: Any, repetitions: int, workers: Any = None,
                on_event: Any = None) -> Any:
        def record(event: Any) -> None:
            if event.kind == "rep-finish" and event.manifest is not None:
                run_walls.append(event.manifest.wall_time)
            if on_event is not None:
                on_event(event)

        runs = run_grid(configs, repetitions, workers=workers, on_event=record)
        grids.append((dict(configs), runs))
        return runs

    sweep.run_grid = capture
    figures: List[Tuple[str, Any, Any]] = [(n, m, scale) for n, m in FIGURES]
    if spec.get("inject_invalid"):
        # the self-test's deliberately invalid figure: a negative rate
        figures.append(("invalid", fig6, replace(scale, rates=(-1.0,))))
    units: List[Optional[float]] = []
    by_cell: Dict[str, str] = {}
    try:
        for name, module, fig_scale in figures:
            requested = (len(workloads.FIG_SCHEMES) * len(fig_scale.rates)
                         * len(workloads.FIG_SCENARIOS) * fig_scale.repetitions)
            gc.collect()
            grids.clear()
            run_walls.clear()
            start = time.perf_counter()
            try:
                module.run(fig_scale, seed=seed, workers=1)
            except Exception as exc:  # every run of the figure is lost
                pool.fail(name, f"{type(exc).__name__}: {exc}",
                          runs=requested)
                units.extend([None] * (requested + 1))
                continue
            wall = time.perf_counter() - start
            units.extend(run_walls)
            units.append(wall - sum(run_walls))
            for configs, runs in grids:
                for cell, config in configs.items():
                    for rep, metrics in enumerate(runs[cell]):
                        label = "/".join(map(str, (*cell, rep)))
                        result = pool.add(f"{name}:{label}",
                                          replication_config(config, rep),
                                          metrics)
                        if result is None:
                            continue
                        if by_cell.setdefault(label, result) != result:
                            pool.fail(f"{name}:{label}",
                                      "differs from the same run in an "
                                      "earlier figure", attempted=False)
    finally:
        sweep.run_grid = run_grid
    return units


def _run_workload(spec: Dict[str, Any], pool: Pool) -> List[Optional[float]]:
    size = workloads.SIZES[spec["size"]]
    _warm_up(spec, size)
    if spec["workload"] == "cell":
        return _cell_pass(spec, size, pool)
    return _figset_pass(spec, size, pool)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

def job_setup(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Median ``build_network`` time per distinct config."""
    configs = workloads.distinct_runs(spec["workload"], spec["seed"],
                                      workloads.SIZES[spec["size"]])
    network.build_network(configs[0])
    per_config: List[float] = []
    for config in configs:
        times = []
        for _ in range(spec["builds"]):
            gc.collect()
            start = time.perf_counter()
            net = network.build_network(config)
            times.append(time.perf_counter() - start)
            del net
        per_config.append(statistics.median(times))
    return {"setup_s": statistics.median(per_config)}


def job_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    pool = Pool()
    units = _run_workload(spec, pool)
    return {"units": units, "pool": pool.to_json(),
            "peak_rss_mb": _peak_rss_mb()}


def job_trace(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.mac.dcf import DcfTransmitter

    assert TRACER is not None
    cost = SpanCost.calibrate()
    pool = Pool()
    units = _run_workload(spec, pool)
    counts: Dict[str, int] = TRACER.snapshot_counts()
    for per_network in TRACER.network_counts:
        for name, value in per_network.items():
            counts[name] = counts.get(name, 0) + value
    counts["mac.dcf.attempts"] = TRACER.events_of(DcfTransmitter._attempt)
    counts["mac.psm.epoch_events"] = TRACER.events_in_module("repro.mac.epoch")
    return {
        "units": units, "pool": pool.to_json(), "counts": counts,
        "self_time": list(TRACER.self_time), "spans": list(TRACER.spans),
        "hook_spans": list(TRACER.hook_spans),
        "child_spans": list(TRACER.child_spans),
        "cost": vars(cost),
    }


JOBS = {"setup": job_setup, "pass": job_pass, "trace": job_trace}


def main() -> int:
    try:
        result = JOBS[SPEC["job"]](SPEC)
        result["inputs"] = workloads.describe_inputs(
            SPEC["workload"], SPEC["seed"], workloads.SIZES[SPEC["size"]])
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

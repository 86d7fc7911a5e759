"""Benchmark inputs: every workload's configs, derived from ``--seed`` alone.

Two workloads (see ``NOTES.md`` for why each exists and which layers it
loads):

* ``cell``   -- ``Size.cell_reps`` replications of the fig7 hot cell: rcast,
  100 nodes in 1500 x 300 m, random waypoint at 2 m/s with no pause,
  20 CBR flows at 2.0 pkt/s (``repro.obs.bench.WORKLOADS["bench"]``),
  built with the experiment layer's own ``make_config`` and
  ``replication_config`` and run one by one through ``build_network`` /
  ``Network.run``.
* ``figset`` -- ``fig6.run``, ``fig7.run`` and ``fig8.run`` on a reduced
  scale (ieee80211/odpm/rcast x mobile/static x 0.2/2.0 pkt/s), serially
  with ``workers=1``.

The program sees only the generated configs (cell) or the scale and the
base seed (figset); it never sees the benchmark seed itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.experiments.parallel import replication_config
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.network import SimulationConfig
from repro.obs.bench import WORKLOADS as HOTPATH_WORKLOADS
from repro.obs.manifest import config_hash
from repro.sim.rng import derive_seed

WORKLOAD_NAMES = ("cell", "figset")

FIG_SCHEMES = ("ieee80211", "odpm", "rcast")
FIG_RATES = (0.2, 2.0)
FIG_SCENARIOS = (True, False)  # mobile, static


@dataclass(frozen=True)
class Size:
    """Knobs that scale a workload; ``full`` is what the benchmark reports."""

    cell_reps: int
    cell_nodes: int
    cell_connections: int
    cell_sim_time: float
    fig_nodes: int
    fig_connections: int
    fig_sim_time: float
    fig_reps: int


SIZES: Dict[str, Size] = {
    "full": Size(cell_reps=20, cell_nodes=100, cell_connections=20,
                 cell_sim_time=10.0, fig_nodes=100, fig_connections=20,
                 fig_sim_time=5.0, fig_reps=3),
    # smoke: every figure cell still sends data at 0.2 pkt/s
    "smoke": Size(cell_reps=2, cell_nodes=20, cell_connections=3,
                  cell_sim_time=4.0, fig_nodes=15, fig_connections=6,
                  fig_sim_time=8.0, fig_reps=1),
}


def base_seed(workload: str, seed: int) -> int:
    """The simulation base seed a benchmark seed maps to, per workload."""
    return derive_seed(seed, f"simbench:{workload}")


def cell_scale(size: Size) -> ExperimentScale:
    """The bench-scale fig7 shape shortened to ``size.cell_sim_time``."""
    hot = HOTPATH_WORKLOADS["bench"]
    nodes = size.cell_nodes
    return ExperimentScale(
        name="simbench-cell", num_nodes=nodes,
        # keep the bench strip's node density at reduced node counts
        arena_w=1500.0 * nodes / hot["num_nodes"], arena_h=300.0,
        sim_time=size.cell_sim_time,
        num_connections=size.cell_connections,
        repetitions=size.cell_reps, rates=(hot["packet_rate"],),
        mobile_pause=hot["pause_time"], mobile_max_speed=hot["max_speed"],
    )


def cell_configs(seed: int, size: Size) -> List[SimulationConfig]:
    """The replications of the fig7 hot cell the ``cell`` workload runs."""
    scale = cell_scale(size)
    hot = HOTPATH_WORKLOADS["bench"]
    base = make_config(scale, hot["scheme"], hot["packet_rate"], True,
                       seed=base_seed("cell", seed))
    return [replication_config(base, rep) for rep in range(scale.repetitions)]


def fig_scale(size: Size) -> ExperimentScale:
    """The reduced figure-set scale ``fig6/7/8.run`` receive."""
    return ExperimentScale(
        name="simbench-figset", num_nodes=size.fig_nodes,
        arena_w=1500.0 * size.fig_nodes / 100, arena_h=300.0,
        sim_time=size.fig_sim_time, num_connections=size.fig_connections,
        repetitions=size.fig_reps, rates=FIG_RATES,
        mobile_pause=0.0, mobile_max_speed=2.0,
    )


def fig_cells(seed: int, size: Size) -> Dict[Tuple[str, float, bool],
                                             SimulationConfig]:
    """The grid each of fig6/7/8 requests, keyed like ``SweepResult.cells``.

    The figures build these themselves inside ``sweep``; the benchmark
    rebuilds them only to count requested work and to name its inputs.
    """
    scale = fig_scale(size)
    return {
        (scheme, rate, mobile): make_config(scale, scheme, rate, mobile,
                                            seed=base_seed("figset", seed))
        for mobile in FIG_SCENARIOS
        for rate in FIG_RATES
        for scheme in FIG_SCHEMES
    }


def requested_runs(workload: str, seed: int, size: Size) -> List[SimulationConfig]:
    """Every run the workload asks for, repeats included, in request order."""
    if workload == "cell":
        return cell_configs(seed, size)
    runs: List[SimulationConfig] = []
    cells = fig_cells(seed, size)
    for _figure in ("fig6", "fig7", "fig8"):
        for config in cells.values():
            runs.extend(replication_config(config, rep)
                        for rep in range(size.fig_reps))
    return runs


def distinct_runs(workload: str, seed: int, size: Size) -> List[SimulationConfig]:
    """The requested runs without repeats, in first-request order."""
    unique = {config_hash(c): c for c in requested_runs(workload, seed, size)}
    return list(unique.values())


def describe_inputs(workload: str, seed: int, size: Size) -> Dict[str, Any]:
    """What the workload requests, counted from its inputs alone.

    ``node_seconds`` sums nodes x simulated time over every requested run,
    repeats included, so a change that skips repeated work shows as a gain
    in ``sim_node_s_per_s`` instead of shrinking its numerator.
    """
    runs = requested_runs(workload, seed, size)
    hashes = [config_hash(c) for c in runs]
    return {
        "node_seconds": float(sum(c.num_nodes * c.sim_time for c in runs)),
        "runs_requested": len(runs),
        "unique_configs": len(set(hashes)),
        "input_digest": hashlib.sha256(
            ",".join(hashes).encode("ascii")).hexdigest(),
    }


__all__ = [
    "FIG_SCENARIOS", "FIG_SCHEMES", "SIZES", "Size", "WORKLOAD_NAMES",
    "base_seed", "cell_configs", "describe_inputs", "distinct_runs",
    "fig_cells", "fig_scale", "requested_runs",
]

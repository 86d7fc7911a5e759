"""Repository benchmark: wall time, memory and the paper's outputs.

Run from the repository root::

    python3 simbench/run.py --workload cell --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics
(``sim_node_s_per_s``, ``setup_s``, ``peak_rss_mb``, ``pdr``,
``energy_per_bit_uj``); ``--trace 1`` runs it under the layer tracer and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check and determinism guard passed.

Every job runs in a fresh interpreter (``child.py``), one at a time, with
BLAS/OpenMP pinned to one thread; the parent never imports the simulator.
With ``--trace 0`` the number of timed passes follows from ``--seconds``
alone, never from how fast the host happens to be; a traced run always
makes two traced passes and one untraced pass.  ``NOTES.md`` explains the workloads, the
layer map and the steadiness evidence.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cell", "figset")
#: timed passes per run at ``--seconds 40``; a 2-core AMD EPYC VM takes
#: 7-12 s for a cell pass and 21-31 s for a figset pass
PASSES_AT_40_S = {"cell": 4, "figset": 2}
#: ``build_network`` repetitions per distinct config for ``setup_s``
SETUP_BUILDS = 5
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 170.0

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = (("sim_node_s_per_s", "node-s/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pdr", "fraction"),
              ("energy_per_bit_uj", "uJ/bit"))

#: reported layers (must match ``tracer.LAYERS``; the parent never
#: imports the simulator, so it keeps its own copy)
LAYERS = ("sim", "mobility", "phy", "mac.dcf", "mac.psm", "core", "routing",
          "metrics", "experiments")
#: (name, unit) of the per-layer metrics, in report order
PER_LAYER = (
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("mobility.snapshots", "count"), ("mobility.queries", "count"),
    ("mobility.self_s", "s"),
    ("phy.frames", "count"), ("phy.upcalls", "count"),
    ("phy.upcalls_per_frame", "ratio"), ("phy.collided", "count"),
    ("phy.missed_asleep", "count"), ("phy.idle_waits", "count"),
    ("phy.energy_transitions", "count"), ("phy.self_s", "s"),
    ("mac.dcf.submits", "count"), ("mac.dcf.attempts", "count"),
    ("mac.dcf.attempts_per_frame", "ratio"),
    ("mac.dcf.busy_deferrals", "count"), ("mac.dcf.retries", "count"),
    ("mac.dcf.failures", "count"), ("mac.dcf.self_s", "s"),
    ("mac.psm.announcements", "count"), ("mac.psm.epoch_events", "count"),
    ("mac.psm.immediate_fallbacks", "count"), ("mac.psm.self_s", "s"),
    ("core.overhear_decisions", "count"),
    ("core.overhear_elections", "count"), ("core.election_ratio", "ratio"),
    ("core.self_s", "s"),
    ("routing.rx", "count"), ("routing.promisc", "count"),
    ("routing.rreq", "count"), ("routing.cache_adds", "count"),
    ("routing.cache_new_ratio", "ratio"),
    ("routing.cache_hit_ratio", "ratio"),
    ("routing.cache_evictions", "count"), ("routing.self_s", "s"),
    ("metrics.calls", "count"), ("metrics.self_s", "s"),
    ("experiments.runs_requested", "count"),
    ("experiments.runs_executed", "count"),
    ("experiments.unique_configs", "count"), ("experiments.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


class ChildFailed(RuntimeError):
    """A child job exited non-zero, timed out or printed no result."""


def passes_for(workload: str, seconds: int) -> int:
    """Timed passes per run: a function of ``--seconds`` only."""
    return max(2, min(8, round(PASSES_AT_40_S[workload] * seconds / 40)))


def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join((SRC, HERE)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{spec['job']} timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{spec['job']} exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(lines[-1])


class Outcome:
    """Failure accounting across the children of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add_pool(self, pool: Dict[str, Any]) -> None:
        self.attempted += pool["attempted"]
        self.failed += pool["failed"]
        self.problems.extend(pool["problems"])

    def guard(self, ok: bool, problem: str, runs: int = 1) -> None:
        """Record a check; a failed one counts ``runs`` failed runs."""
        if not ok:
            self.failed += runs
            self.problems.append(problem)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _digest_guard(outcome: Outcome, reference: Sequence[str],
                  other: Sequence[str], what: str) -> None:
    mismatched = sum(a != b for a, b in zip(reference, other))
    mismatched += abs(len(reference) - len(other))
    outcome.guard(mismatched == 0,
                  f"{what}: {mismatched} run results differ", mismatched)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def end_to_end(spec: Dict[str, Any], seconds: int,
               outcome: Outcome) -> Dict[str, float]:
    setup = run_child(dict(spec, job="setup", builds=SETUP_BUILDS))
    passes = [run_child(dict(spec, job="pass", plain=(p == 0)))
              for p in range(passes_for(spec["workload"], seconds))]
    for result in passes:
        outcome.add_pool(result["pool"])
    reference = passes[0]["pool"]["digests"]
    for p, result in enumerate(passes[1:], start=1):
        _digest_guard(outcome, reference, result["pool"]["digests"],
                      f"pass {p} vs pass 0 (run_simulation)")

    # Each unit (one run, or one figure's glue) keeps its fastest pass: host
    # contention only ever adds time, so the per-unit minimum is the
    # steadiest estimate of the program's own cost (NOTES.md, Steadiness).
    timings = [[t for t in unit if t is not None]
               for unit in zip(*(r["units"] for r in passes))]
    timings = [unit for unit in timings if unit]
    busy_best = sum(min(unit) for unit in timings)
    busy_median = sum(statistics.median(unit) for unit in timings)
    pool = passes[0]["pool"]
    node_seconds = passes[0]["inputs"]["node_seconds"]
    metrics = {
        "sim_node_s_per_s": _ratio(node_seconds, busy_best),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "pdr": _ratio(pool["delivered"], pool["sent"]),
        "energy_per_bit_uj": _ratio(pool["energy_j"] * 1e6,
                                    pool["delivered_bits"]),
    }
    print(f"# {spec['workload']} seed={spec['seed']}: {len(passes)} passes, "
          f"busy best {busy_best:.3f} s, median {busy_median:.3f} s "
          f"(median-based {_ratio(node_seconds, busy_median):.1f} node-s/s), "
          f"{pool['events']} events, "
          f"per-pass busy {[round(sum(t or 0 for t in r['units']), 3) for r in passes]}")
    return metrics


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------

def _corrected_self_times(traced: Dict[str, Any]) -> Tuple[List[float], float]:
    """Per-slot self times minus the calibrated span cost, and that cost.

    A span's cost splits at its timed interval: ``inner`` lands in its own
    self time, ``outer`` in its parent's (``tracer.SpanCost``).
    """
    cost = traced["cost"]
    hooks = sum(traced["hook_spans"])
    wrappers = sum(traced["spans"])
    corrected = []
    for slot, own in enumerate(traced["self_time"]):
        children = traced["child_spans"][slot]
        value = (own - cost["inner"] * traced["spans"][slot]
                 - cost["hook_inner"] * traced["hook_spans"][slot]
                 - cost["outer"] * children)
        if slot == LAYERS.index("sim"):
            # the event spans are the children of Network.run spans
            value += (cost["outer"] - cost["hook_outer"]) * hooks
        corrected.append(value)
    overhead = ((cost["inner"] + cost["outer"]) * wrappers
                + (cost["hook_inner"] + cost["hook_outer"]) * hooks)
    return corrected, overhead


def per_layer(spec: Dict[str, Any], outcome: Outcome) -> Dict[str, float]:
    traced = [run_child(dict(spec, job="trace")) for _ in range(2)]
    plain = run_child(dict(spec, job="pass", plain=True))
    for result in (*traced, plain):
        outcome.add_pool(result["pool"])
    reference = plain["pool"]["digests"]
    for t, result in enumerate(traced):
        _digest_guard(outcome, reference, result["pool"]["digests"],
                      f"traced pass {t} vs untraced run_simulation")
    counts = traced[0]["counts"]
    for name in sorted(set(counts) | set(traced[1]["counts"])):
        outcome.guard(counts.get(name) == traced[1]["counts"].get(name),
                      f"count {name} differs across traced passes: "
                      f"{counts.get(name)} vs {traced[1]['counts'].get(name)}")
    outcome.guard(counts["sim.events"] == plain["pool"]["events"],
                  f"traced events {counts['sim.events']} != untraced "
                  f"{plain['pool']['events']}")

    # Spans are corrected by their calibrated cost; the tracing overhead
    # itself is the traced minus the untraced busy time.  The calibrated
    # correction must land the traced total within that overhead of the
    # untraced busy time.
    untraced = sum(t for t in plain["units"] if t is not None)
    shares = []
    for result in traced:
        corrected, calibrated = _corrected_self_times(result)
        envelope = sum(t for t in result["units"] if t is not None)
        net = envelope - calibrated
        attributed = sum(corrected[:len(LAYERS)])
        shares.append((corrected, (envelope - untraced) / envelope,
                       (net - attributed) / net, (net - untraced) / envelope))
    self_s = [statistics.median(s[0][i] for s in shares)
              for i in range(len(LAYERS))]
    overhead_frac = statistics.median(s[1] for s in shares)
    unattributed_frac = statistics.median(s[2] for s in shares)
    residual = statistics.median(s[3] for s in shares)
    print(f"# {spec['workload']} seed={spec['seed']}: traced busy "
          f"{[round(sum(t or 0 for t in r['units']), 3) for r in traced]} s, "
          f"untraced {untraced:.3f} s, overhead {overhead_frac:.3f}, "
          f"corrected minus untraced {residual:+.3f} of traced")
    # at smoke size the busy time is milliseconds: nothing to account for
    outcome.guard(spec["size"] != "full" or abs(residual) <= overhead_frac,
                  f"attributed + unattributed time misses the untraced busy "
                  f"time by {residual:+.3f} of the traced busy time, more "
                  f"than the tracing overhead {overhead_frac:.3f}")

    inputs = plain["inputs"]
    metrics: Dict[str, float] = {
        name: float(counts[name]) for name, unit in PER_LAYER
        if unit == "count" and name in counts}
    metrics.update({
        f"{layer}.self_s": self_s[i] for i, layer in enumerate(LAYERS)})
    metrics.update({
        "phy.upcalls_per_frame": _ratio(counts["phy.upcalls"],
                                        counts["phy.frames"]),
        "mac.dcf.attempts_per_frame": _ratio(counts["mac.dcf.attempts"],
                                             counts["mac.dcf.submits"]),
        "core.election_ratio": _ratio(counts["core.overhear_elections"],
                                      counts["core.overhear_decisions"]),
        "routing.cache_new_ratio": _ratio(counts["routing.cache_insertions"],
                                          counts["routing.cache_adds"]),
        "routing.cache_hit_ratio": _ratio(
            counts["routing.cache_hits"],
            counts["routing.cache_hits"] + counts["routing.cache_misses"]),
        "experiments.runs_requested": float(inputs["runs_requested"]),
        "experiments.unique_configs": float(inputs["unique_configs"]),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": unattributed_frac,
    })
    return metrics


# ----------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="workload size; 'smoke' is for the self-test")
    parser.add_argument("--inject-invalid", action="store_true",
                        help="add one deliberately invalid run (self-test)")
    return parser.parse_args(argv)


def _terminate(signum: int, _frame: Any) -> None:
    # Unwinding through subprocess.run kills and reaps the running job.
    sys.exit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"simbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    spec = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "inject_invalid": args.inject_invalid}
    outcome = Outcome()
    units = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    try:
        if args.trace == 0:
            values = end_to_end(spec, args.seconds, outcome)
        else:
            values = per_layer(spec, outcome)
    except ChildFailed as exc:
        print(f"simbench: {exc}", file=sys.stderr)
        outcome.guard(False, str(exc))
        values = {}
    for problem in outcome.problems:
        print(f"# FAILED {problem}")
    for name, unit in units.items():
        if name in values:
            print(f"{name:32s} {values[name]:>16.6g} {unit}")
    print(f"{'runs attempted':32s} {outcome.attempted:>16d}")
    print(f"{'runs failed':32s} {outcome.failed:>16d}")
    correct = outcome.failed == 0 and set(values) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 simbench/selftest.py           # smoke size, about a minute
    python3 simbench/selftest.py --full    # also the non-zero check at full size

Checks:

* every metric ``BENCHMARK.json`` names is emitted, with its unit, in the
  matching ``--trace`` mode, on every workload;
* a different seed changes the inputs, and the same seed repeats them;
* the ``cell`` configs are the bench hot cell (``repro.obs.bench``);
* a deliberately invalid run is counted as attempted and failed, the
  pass carries on, and the benchmark exits non-zero;
* figset's ``experiments.runs_requested`` and requested node-seconds
  count every figure's request, including the two thirds of its runs
  that repeat a config another figure already ran;
* with ``--full``: no metric is zero at full size (except the counters
  listed in ``STRUCTURAL_ZEROS``, which the workload cannot produce).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from repro.network import SimulationConfig  # noqa: E402
from repro.obs.bench import WORKLOADS as HOTPATH_WORKLOADS  # noqa: E402

#: per-layer counters a workload cannot produce, with the reason
STRUCTURAL_ZEROS = {
    "cell": {"mac.psm.immediate_fallbacks":
             "only ODPM sends immediately; cell runs rcast alone"},
    "figset": {},
}


def bench(workload: str, seed: int, trace: int, size: str,
          *extra: str) -> Tuple[int, Dict[str, Any]]:
    """Run the benchmark; return its exit code and final JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", size, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output from {workload} trace={trace}: "
                             f"{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


class Failures:
    def __init__(self) -> None:
        self.items: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.items.append(what)


def check_emitted(spec: Dict[str, Any], size: str, failures: Failures,
                  nonzero: bool) -> None:
    for workload in workloads.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(workload, 3, trace, size)
            failures.check(code == 0 and result["correct"]
                           and result["failed"] == 0
                           and result["attempted"] >= 1,
                           f"{workload} trace={trace} {size}: exit 0, correct, "
                           f"{result['attempted']} attempted, 0 failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            failures.check(set(metrics) == set(wanted),
                           f"{workload} trace={trace}: emits exactly the "
                           f"{len(wanted)} {key} metrics")
            wrong = [n for n, u in wanted.items()
                     if metrics.get(n, {}).get("unit") != u]
            failures.check(not wrong, f"{workload} trace={trace}: units match"
                           + (f" (wrong: {wrong})" if wrong else ""))
            if nonzero:
                allowed = STRUCTURAL_ZEROS[workload] if trace else {}
                zeros = [n for n, m in metrics.items()
                         if m["value"] == 0 and n not in allowed]
                failures.check(not zeros, f"{workload} trace={trace} {size}: "
                               f"no metric is zero"
                               + (f" (zero: {zeros})" if zeros else ""))


def check_inputs(failures: Failures) -> None:
    for size_name, size in workloads.SIZES.items():
        for workload in workloads.WORKLOAD_NAMES:
            a = workloads.describe_inputs(workload, 1, size)
            again = workloads.describe_inputs(workload, 1, size)
            b = workloads.describe_inputs(workload, 2, size)
            failures.check(a == again and a["input_digest"] != b["input_digest"],
                           f"{workload} {size_name}: the same seed repeats "
                           f"the inputs, another seed changes them")
    full = workloads.SIZES["full"]
    hot = HOTPATH_WORKLOADS["bench"]
    configs = workloads.cell_configs(5, full)
    failures.check(all(c == SimulationConfig(**dict(
        hot, sim_time=full.cell_sim_time, seed=c.seed)) for c in configs)
        and len({c.seed for c in configs}) == len(configs),
        f"cell: {len(configs)} distinct-seed replications of the bench hot cell")

    # figset: the three figures request the same grid; repeats count
    inputs = workloads.describe_inputs("figset", 1, full)
    cells = len(workloads.fig_cells(1, full)) * full.fig_reps
    node_s = full.fig_nodes * full.fig_sim_time
    failures.check(inputs["unique_configs"] == cells
                   and inputs["runs_requested"] == 3 * cells
                   and inputs["node_seconds"] == 3 * cells * node_s,
                   f"figset: {inputs['runs_requested']} runs and "
                   f"{inputs['node_seconds']:.0f} node-s requested over "
                   f"{inputs['unique_configs']} distinct configs")


def check_reuse_counting(failures: Failures) -> None:
    """runs_requested comes from the inputs, not from what executed."""
    code, result = bench("figset", 4, 1, "smoke")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    failures.check(code == 0 and m["experiments.runs_requested"]
                   == 3 * m["experiments.unique_configs"]
                   and m["experiments.runs_executed"]
                   == m["experiments.runs_requested"],
                   "figset traced: runs_requested = 3 x unique configs "
                   "(= runs executed while no figure reuses a run)")


def check_invalid_counted(failures: Failures) -> None:
    for workload in workloads.WORKLOAD_NAMES:
        _, clean = bench(workload, 6, 0, "smoke")
        code, result = bench(workload, 6, 0, "smoke", "--inject-invalid")
        failures.check(code != 0 and not result["correct"]
                       and result["failed"] >= 1
                       and result["attempted"] > clean["attempted"]
                       and set(result["metrics"]) == set(clean["metrics"]),
                       f"{workload}: an invalid run is counted "
                       f"({result['failed']} failed of {result['attempted']}),"
                       f" the passes finish and the exit code is {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="also check that no metric is zero at full size")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = Failures()
    check_inputs(failures)
    check_emitted(spec, "smoke", failures, nonzero=False)
    check_reuse_counting(failures)
    check_invalid_counted(failures)
    if args.full:
        check_emitted(spec, "full", failures, nonzero=True)
    print(f"{len(failures.items)} failed")
    return 1 if failures.items else 0


if __name__ == "__main__":
    sys.exit(main())

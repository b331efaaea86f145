"""Exception hierarchy shared by every ``repro`` subpackage.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subpackages raise the most specific subclass that
applies; none of them raise bare ``ValueError``/``RuntimeError`` for
domain-level failures.

The distributed runtime additionally needs a *transient-vs-fatal*
taxonomy: a broker connection reset is worth retrying (the broker may
be restarting, the network may be flaky), a wrong authkey or a
malformed scenario never is.  :class:`TransientError` marks the
retryable family, :func:`is_transient` classifies arbitrary exceptions
(including the stdlib connection errors the broker transport raises),
and :class:`repro.retry.RetryPolicy` consumes the classification.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """A stochastic model (CTMC, CTMDP, queue) is malformed.

    Examples: a generator matrix whose rows do not sum to zero, a negative
    rate, an empty action set for some state.
    """


class TopologyError(ReproError):
    """A communication architecture description is structurally invalid.

    Examples: a processor attached to no bus, a bridge whose two endpoints
    are the same bus, duplicate component names.
    """


class SolverError(ReproError):
    """An optimisation backend failed to produce a usable solution.

    Carries the backend status message so benches can report *why* the
    quadratic formulation failed, as the paper does for Matlab 6.1.
    """

    def __init__(self, message: str, status: str = ""):
        super().__init__(message)
        self.status = status


class InfeasibleError(SolverError):
    """The optimisation problem has no feasible point.

    Raised, for instance, when the buffer budget is smaller than the number
    of clients that must each receive at least one slot.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class PolicyError(ReproError):
    """A sizing or arbitration policy was given arguments it cannot honour."""


class TransientError(ReproError):
    """A failure that may succeed on retry (infrastructure, not logic).

    Raised (or wrapped) by the distributed runtime for conditions a
    :class:`repro.retry.RetryPolicy` should absorb: a broker that is
    momentarily unreachable, a dropped connection mid-RPC, a cache-tier
    round-trip that timed out.  Deterministic *job* failures are never
    transient — a pure job that raised once would raise again.
    """


class BrokerUnavailableError(TransientError):
    """The broker cannot be reached (refused, reset, or mid-restart)."""


class CacheCorruptionError(ReproError):
    """A cache entry's bytes fail their integrity check.

    Never retried and never deserialised: the entry is quarantined and
    the value recomputed — corruption is a data problem, not a
    transport problem (see :mod:`repro.exec.cache`).
    """


#: Exception types the stdlib networking stack raises for conditions
#: that are plausibly temporary.  ``OSError`` covers
#: ``ConnectionRefusedError`` (broker restarting) and kin; ``EOFError``
#: is the broker transport's torn-connection signature.
TRANSIENT_EXCEPTIONS = (
    TransientError,
    ConnectionError,
    EOFError,
    TimeoutError,
    OSError,
)

#: Exceptions that look transient by type but are definitively fatal —
#: retrying a wrong authkey can never help (``AuthenticationError``
#: subclasses ``ProcessError`` -> ``Exception``, but guard anyway).
_FATAL_NAMES = frozenset({"AuthenticationError"})


def is_transient(exc: BaseException) -> bool:
    """Whether retrying the operation that raised ``exc`` makes sense.

    The classifier the :class:`repro.retry.RetryPolicy` default uses:
    transient library errors and torn-connection stdlib errors are
    retryable; authentication failures, corruption, and every
    domain-level :class:`ReproError` are not.
    """
    if type(exc).__name__ in _FATAL_NAMES:
        return False
    if isinstance(exc, TransientError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, TRANSIENT_EXCEPTIONS)

"""Layer attribution from outside the program.

A :class:`Tracer` replaces functions and methods of the program with
thin wrappers while it is installed.  Each wrapper books its call's
*self* time — its duration minus the durations of the wrapped calls
nested inside it — under a layer name, so the self times of one traced
region sum to the part of its wall time that some wrapper covered; the
rest is reported as ``unattributed_s``.

Nothing here imports the program: the workloads decide what to wrap.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: A layer is a fixed name or a function of the call's (args, kwargs).
Layer = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Self-time accounting over wrapped call sites.

    Only the thread that calls :meth:`region` is traced: wrapped calls
    made by other threads (a broker's server threads, say) run
    untouched, so the nesting stack is never shared.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._thread: Optional[int] = None

    # -- installation ---------------------------------------------------

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: Layer,
        on_return: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> None:
        """Wrap ``owner.name`` (a module function or a class method).

        ``on_return(tracer, args, kwargs, result)`` runs after each
        traced call, outside the timed interval, to add counts.
        """
        original = getattr(owner, name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._thread != threading.get_ident():
                return original(*args, **kwargs)
            result = tracer.timed(layer, original, args, kwargs)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- accounting -----------------------------------------------------

    def timed(self, layer: Layer, fn: Callable, args: tuple, kwargs: dict):
        """Call ``fn`` and book its self time under ``layer``."""
        name = layer if isinstance(layer, str) else layer(args, kwargs)
        self._children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            nested = self._children.pop()
            self.self_s[name] += elapsed - nested
            if self._children:
                self._children[-1] += elapsed

    def region(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` traced; returns ``(result, wall seconds)``."""
        self._thread = threading.get_ident()
        start = self.clock()
        try:
            return fn(), self.clock() - start
        finally:
            self._thread = None

    def unattributed(self, wall: float) -> float:
        """Wall time of the traced regions no wrapper covered."""
        return wall - sum(self.self_s.values())

"""Output checks: each returns ``(attempted, failed)`` operations.

The checks compare plain JSON-shaped observations (dicts, lists, ints
and floats) so they can be tested without running the program.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Relative tolerance on an LP objective (the bar any LP decomposition
#: must meet against the joint LP).
OBJECTIVE_RTOL = 1e-9


def check_experiment(observed: Dict[str, Any], reference: Dict[str, Any]) -> Tuple[int, int]:
    """One operation for the sizing, one for the timeout calibration.

    ``observed``/``reference``: ``allocations`` (config -> sizes) and
    ``threshold``.  The calibration run's arbiter is deterministic, so
    both comparisons are exact.
    """
    failed = int(observed["allocations"] != reference["allocations"])
    failed += int(observed["threshold"] != reference["threshold"])
    return 2, failed


def sizing_point_ok(observed: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    """An allocation that sums to its budget, equals the recorded one,
    and whose LP objective matches to :data:`OBJECTIVE_RTOL`."""
    sizes = observed["sizes"]
    expected = reference["objective"]
    return (
        sum(sizes.values()) == observed["budget"]
        and sizes == reference["sizes"]
        and abs(observed["objective"] - expected) <= OBJECTIVE_RTOL * abs(expected)
    )


def check_sizing(points: List[Dict[str, Any]], reference: Dict[str, Dict[str, Any]]) -> Tuple[int, int]:
    """One operation per sizing run, keyed by ``point["name"]``."""
    failed = sum(
        1
        for point in points
        if point["name"] not in reference
        or not sizing_point_ok(point, reference[point["name"]])
    )
    return len(points), failed


def check_fleet(cells: List[Any], reference: List[Any], blocks_per_cell: int) -> Tuple[int, int]:
    """One operation per fleet job: every job of a cell whose merged
    result differs from the serial run's counts as failed."""
    attempted = len(reference) * blocks_per_cell
    mismatched = sum(
        1
        for index, expected in enumerate(reference)
        if index >= len(cells) or cells[index] != expected
    )
    return attempted, mismatched * blocks_per_cell

"""Tests of the benchmark's own arithmetic, names and output checks."""

import copy
import json
import os
import re
import threading
import types

import pytest

from perfbench import checks, run
from perfbench.tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
HERE = os.path.dirname(os.path.abspath(__file__))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def traced():
    """A tracer on a fake clock over three nested functions:
    outer(1 s) -> middle(2 s) -> inner(4 s) twice, then outer(8 s)."""
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def inner(n):
        clock.advance(4)
        return n

    def middle():
        clock.advance(2)
        return ns.inner(1) + ns.inner(2)

    def outer():
        clock.advance(1)
        total = ns.middle()
        clock.advance(8)
        return total

    ns.inner, ns.middle, ns.outer = inner, middle, outer
    tracer = Tracer(clock=clock)
    tracer.wrap(ns, "outer", "a")
    tracer.wrap(ns, "middle", "b")
    tracer.wrap(ns, "inner", lambda args, kwargs: "c%d" % args[0],
                on_return=lambda t, args, kwargs, result: t.counts.__setitem__(
                    "calls", t.counts["calls"] + 1))
    return tracer, clock, ns


def test_self_time_subtracts_nested_children(traced):
    tracer, clock, ns = traced

    def region():
        clock.advance(16)  # untraced glue inside the region
        return ns.outer()

    result, wall = tracer.region(region)
    assert result == 3
    assert wall == 35
    assert dict(tracer.self_s) == {"a": 9, "b": 2, "c1": 4, "c2": 4}
    assert tracer.counts["calls"] == 2
    assert tracer.unattributed(wall) == 16


def test_self_times_accumulate_over_regions(traced):
    tracer, clock, ns = traced
    walls = [tracer.region(ns.outer)[1] for _ in range(3)]
    assert sum(walls) == 57
    assert tracer.self_s["a"] == 27
    assert tracer.counts["calls"] == 6
    assert tracer.unattributed(sum(walls)) == 0


def test_calls_outside_a_region_or_thread_are_not_traced(traced):
    tracer, clock, ns = traced
    assert ns.outer() == 3

    def region():
        other = threading.Thread(target=ns.outer)
        other.start()
        other.join(5)
        return other.is_alive()

    still_running, _wall = tracer.region(region)
    assert not still_running
    assert not tracer.self_s


def test_uninstall_restores_the_originals(traced):
    tracer, clock, ns = traced
    wrapped = ns.outer
    tracer.uninstall()
    assert ns.outer is wrapped.__wrapped__
    assert ns.inner.__name__ == "inner"


def test_wrapping_a_method_passes_the_instance():
    class Box:
        def get(self, extra=0):
            return 5 + extra

    tracer = Tracer()
    tracer.wrap(Box, "get", "box")
    value, _wall = tracer.region(lambda: Box().get(extra=1))
    assert value == 6 and "box" in tracer.self_s
    tracer.uninstall()


def test_metric_and_workload_names_match_the_contract():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert workloads == list(run.WORKLOAD_NAMES)
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    for name in workloads + list(end_to_end) + list(per_layer):
        assert NAME.match(name), name


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def test_experiment_reference_passes_its_own_check(reference):
    expected = reference["experiment-netproc"]
    assert checks.check_experiment(copy.deepcopy(expected), expected) == (2, 0)


def test_perturbed_experiment_allocation_or_threshold_is_a_failed_operation(reference):
    expected = reference["experiment-netproc"]
    observed = copy.deepcopy(expected)
    sizes = observed["allocations"]["post"]
    first, second = list(sizes)[:2]
    sizes[first] += 1
    sizes[second] -= 1
    assert checks.check_experiment(observed, expected) == (2, 1)

    observed["threshold"] *= 1 + 1e-15
    assert checks.check_experiment(observed, expected) == (2, 2)


def test_sizing_check(reference):
    recorded = reference["sizing"]
    points = [copy.deepcopy(point) for point in recorded.values()]
    assert checks.check_sizing(points, recorded) == (len(points), 0)

    points[0]["objective"] *= 1 + 1e-12
    assert checks.check_sizing(points, recorded) == (len(points), 0)
    points[0]["objective"] *= 1 + 1e-8
    assert checks.check_sizing(points, recorded) == (len(points), 1)

    points = [copy.deepcopy(point) for point in recorded.values()]
    sizes = points[-1]["sizes"]
    first, second = list(sizes)[:2]
    sizes[first] += 1
    sizes[second] -= 1  # still sums to the budget, but not the recorded one
    assert checks.check_sizing(points, recorded) == (len(points), 1)
    sizes[second] += 1  # over budget
    assert not checks.sizing_point_ok(points[-1], recorded[points[-1]["name"]])


def test_fleet_check_fails_every_job_of_a_mismatched_cell():
    cells = [{"cell": i, "loss": 1.5} for i in range(4)]
    assert checks.check_fleet(copy.deepcopy(cells), cells, 16) == (64, 0)
    observed = copy.deepcopy(cells)
    observed[2]["loss"] = 1.5000000000000002
    assert checks.check_fleet(observed, cells, 16) == (64, 16)
    assert checks.check_fleet(observed[:1], cells, 16) == (64, 48)

"""Tests for repro.faults — deterministic fault injection and chaos.

Covers the plan language (kinds, sites, occurrence windows, JSON
round-trip), the injector's hook semantics (counting, deterministic
byte damage, env-var propagation), and the chaos harness's single
invariant: every fault plan leaves the matrix outcome bitwise-identical
to the fault-free serial reference.
"""

import os

import pytest

from repro.errors import ReproError
from repro.faults.injector import (
    ENV_VAR,
    FaultInjector,
    active,
    fire,
    install,
    install_from_env,
    transform,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    standard_plans,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test starts and ends with fault hooks disabled."""
    install(None)
    yield
    install(None)


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultEvent("meteor_strike", "connect")

    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultEvent("worker_crash", "nowhere")

    def test_window_validation(self):
        with pytest.raises(ReproError):
            FaultEvent("worker_crash", "connect", after=-1)
        with pytest.raises(ReproError):
            FaultEvent("worker_crash", "connect", count=0)

    def test_fires_on_window(self):
        event = FaultEvent("worker_slow", "worker.execute", after=2, count=2)
        assert [event.fires_on(i) for i in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_count_forever(self):
        event = FaultEvent(
            "cache_corrupt", "cachetier.blob", after=1, count=-1
        )
        assert not event.fires_on(0)
        assert all(event.fires_on(i) for i in range(1, 50))

    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    "worker_stall",
                    "worker.execute",
                    after=1,
                    args={"seconds": 9.0},
                ),
            ),
            seed=3,
            name="trip",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_malformed_json_is_a_clean_error(self):
        with pytest.raises(ReproError, match="malformed fault plan"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ReproError):
            FaultPlan.from_json('{"events": [{"kind": "worker_crash"}]}')

    def test_standard_plans_cover_every_kind(self):
        plans = standard_plans()
        covered = {
            event.kind
            for plan in plans.values()
            for event in plan.events
        }
        assert covered == set(FAULT_KINDS)

    def test_for_site_filters(self):
        plan = standard_plans()["cache-corrupt"]
        assert plan.for_site("cachetier.blob")
        assert not plan.for_site("connect")


class TestFaultInjector:
    def test_hooks_are_noops_without_injector(self):
        assert active() is None
        fire("worker.execute")  # must not raise
        assert transform("cache.entry", b"abc") == b"abc"

    def test_occurrence_counting_is_per_site(self):
        plan = FaultPlan(
            events=(
                FaultEvent("connection_drop", "connect", after=1),
            ),
            name="count",
        )
        injector = FaultInjector(plan)
        injector.fire("worker.execute")  # other site: separate counter
        injector.fire("connect")         # connect occurrence 0: no fire
        with pytest.raises(ConnectionResetError):
            injector.fire("connect")     # occurrence 1: fires
        injector.fire("connect")         # occurrence 2: window passed
        assert len(injector.records) == 1

    def test_connect_refuse_raises_refused(self):
        plan = FaultPlan(
            events=(FaultEvent("connect_refuse", "connect"),),
            name="refuse",
        )
        with pytest.raises(ConnectionRefusedError, match="injected"):
            FaultInjector(plan).fire("connect")

    def test_corruption_is_deterministic(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    "cache_corrupt", "cachetier.blob", count=-1
                ),
            ),
            seed=11,
            name="corrupt",
        )
        blob = bytes(range(256))
        first = FaultInjector(plan).transform("cachetier.blob", blob)
        second = FaultInjector(plan).transform("cachetier.blob", blob)
        assert first == second
        assert first != blob

    def test_truncation_shortens(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    "cache_truncate", "cachetier.blob", count=-1
                ),
            ),
            name="trunc",
        )
        blob = b"x" * 300
        damaged = FaultInjector(plan).transform("cachetier.blob", blob)
        assert damaged == blob[: len(blob) // 3]

    def test_records_written_to_log_file(self, tmp_path):
        log = tmp_path / "faults.log"
        plan = FaultPlan(
            events=(
                FaultEvent("worker_slow", "worker.execute",
                           count=-1, args={"seconds": 0.0}),
            ),
            name="logged",
        )
        injector = FaultInjector(plan, log_path=str(log))
        injector.fire("worker.execute")
        injector.fire("worker.execute")
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert "kind=worker_slow" in lines[0]
        assert "site=worker.execute" in lines[0]

    def test_install_from_env(self, monkeypatch, tmp_path):
        plan = standard_plans()["worker-slow"]
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        monkeypatch.setenv(
            "REPRO_FAULT_LOG", str(tmp_path / "w.log")
        )
        injector = install_from_env()
        assert injector is not None
        assert active() is injector
        assert injector.plan == plan
        assert injector.log_path == str(tmp_path / "w.log")

    def test_install_from_env_without_var_is_noop(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert install_from_env() is None
        assert active() is None

    def test_install_returns_previous(self):
        first = FaultInjector(FaultPlan(name="a"))
        second = FaultInjector(FaultPlan(name="b"))
        assert install(first) is None
        assert install(second) is first
        assert install(None) is second


class TestChaosMatrix:
    """The end-to-end invariant on a tiny matrix.

    Local modes (serial/jobs) run the full standard-plan set — most
    transport faults are structurally impossible there and must be
    exact no-ops.  The dist lane (real broker + forked workers) is
    exercised for the two most adversarial plans; the full dist matrix
    runs in the CI ``chaos-smoke`` job and via ``repro dist chaos``.
    """

    _MATRIX = dict(
        scenario_names=["single-bus-4"],
        budgets=[8, 12],
        replications=2,
        duration=20.0,
    )

    def test_local_modes_are_noops_with_identical_outcomes(self):
        from repro.dist import jobs as dist_jobs
        from repro.faults.chaos import run_chaos_matrix

        # One sizing memo for all 19 runs, which use it in place of a
        # run-scoped one: each cell is sized once, and the forked
        # jobs=2 workers inherit the solved entries.
        previous = dist_jobs.set_active_cache(dist_jobs.ProcessMemo())
        try:
            report = run_chaos_matrix(
                modes=("serial", "jobs"), jobs=2, **self._MATRIX
            )
        finally:
            dist_jobs.set_active_cache(previous)
        assert report.all_match, report.render()
        assert len(report.cases) == 2 * len(standard_plans())

    def test_dist_worker_crash_heals_bitwise_identical(self, tmp_path):
        from repro.faults.chaos import run_chaos_matrix

        plans = {"worker-crash": standard_plans()["worker-crash"]}
        report = run_chaos_matrix(
            plans=plans,
            modes=("dist",),
            workers=2,
            log_dir=tmp_path,
            **self._MATRIX,
        )
        case = report.cases[0]
        assert case.matched, report.render()
        assert case.injected >= 1  # the crash really happened
        assert "worker_crash" in case.detail

    def test_dist_worker_crash_counted_without_log_dir(self):
        # Without a log_dir the per-case logs go to a temporary
        # directory, so a strike in a forked worker is still counted.
        from repro.faults.chaos import run_chaos_matrix

        plans = {"worker-crash": standard_plans()["worker-crash"]}
        report = run_chaos_matrix(
            plans=plans,
            modes=("dist",),
            workers=2,
            **self._MATRIX,
        )
        case = report.cases[0]
        assert case.matched, report.render()
        assert case.injected >= 1
        assert "worker_crash" in case.detail

    def test_dist_broker_loss_falls_back_identical(self, tmp_path):
        from repro.faults.chaos import run_chaos_matrix

        plans = {"broker-loss": standard_plans()["broker-loss"]}
        report = run_chaos_matrix(
            plans=plans,
            modes=("dist",),
            workers=2,
            log_dir=tmp_path,
            **self._MATRIX,
        )
        case = report.cases[0]
        assert case.matched, report.render()
        assert case.fallbacks == 1  # degraded to the local pool
        assert case.injected >= 1

    def test_unknown_mode_rejected(self):
        from repro.faults.chaos import run_chaos_matrix

        with pytest.raises(ReproError, match="unknown chaos mode"):
            run_chaos_matrix(
                ["single-bus-4"], modes=("serial", "warp"),
            )

    def test_report_renders_verdict(self):
        from repro.faults.chaos import ChaosCase, ChaosReport

        report = ChaosReport(reference=[])
        report.cases.append(
            ChaosCase(
                plan="p", mode="serial", matched=True, injected=0
            )
        )
        assert "bitwise-identical" in report.render()
        report.cases.append(
            ChaosCase(
                plan="p", mode="dist", matched=False, injected=3
            )
        )
        assert not report.all_match
        assert "MISMATCH" in report.render()

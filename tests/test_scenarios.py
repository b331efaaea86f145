"""Tests for the scenario registry and the scenario-generic layers."""

import pytest

from repro import scenarios
from repro.errors import ReproError
from repro.exec import ExecutionContext
from repro.experiments.common import POST, PRE, TIMEOUT, ScenarioExperiment
from repro.scenarios import ScenarioSpec, scaled_topology
from repro.scenarios.spec import template_builder


class TestRegistry:
    def test_builtin_names(self):
        assert {"netproc", "fig1", "amba", "coreconnect"} <= set(
            scenarios.names()
        )

    def test_get_returns_spec(self):
        spec = scenarios.get("netproc")
        assert isinstance(spec, ScenarioSpec)
        assert spec.default_budget == 160
        assert spec.budgets == (160, 320, 640)

    def test_unknown_scenario_lists_options(self):
        with pytest.raises(ReproError, match="random-mesh"):
            scenarios.get("nope")

    def test_resolve_default_and_passthrough(self):
        assert scenarios.resolve(None).name == "netproc"
        spec = scenarios.get("amba")
        assert scenarios.resolve(spec) is spec
        assert scenarios.resolve("amba").name == "amba"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            scenarios.register(scenarios.get("amba"))
        # replace=True is the explicit override.
        scenarios.register(scenarios.get("amba"), replace=True)

    def test_topologies_build_and_validate(self):
        for name in scenarios.names():
            topology = scenarios.get(name).topology()
            assert topology.processors

    def test_families_listed(self):
        patterns = [f.pattern for f in scenarios.families()]
        assert "random-mesh-<clusters>-<seed>" in patterns
        assert "single-bus-<n>" in patterns


class TestParametricFamilies:
    def test_random_mesh_resolves(self):
        spec = scenarios.get("random-mesh-3-11")
        topology = spec.topology()
        assert len(topology.buses) == 3
        assert len(topology.processors) == 9
        assert spec.params["seed"] == 11

    def test_random_mesh_members_are_distinct(self):
        a = scenarios.get("random-mesh-3-11").topology()
        b = scenarios.get("random-mesh-3-12").topology()
        assert a.name != b.name

    def test_random_mesh_deterministic(self):
        rates_a = [
            f.traffic.mean_rate
            for f in scenarios.get("random-mesh-2-5").topology().flows.values()
        ]
        rates_b = [
            f.traffic.mean_rate
            for f in scenarios.get("random-mesh-2-5").topology().flows.values()
        ]
        assert rates_a == rates_b

    def test_family_names_canonicalized(self):
        # Zero-padded aliases resolve to the canonical spelling, so
        # both share one cache scope.
        alias = scenarios.get("random-mesh-04-7")
        canonical = scenarios.get("random-mesh-4-7")
        assert alias.name == canonical.name == "random-mesh-4-7"
        assert alias.cache_scope() == canonical.cache_scope()
        assert scenarios.get("single-bus-04").name == "single-bus-4"

    def test_single_bus_resolves(self):
        topology = scenarios.get("single-bus-6").topology()
        assert len(topology.processors) == 6
        assert len(topology.bridges) == 0

    def test_family_validation(self):
        with pytest.raises(ReproError):
            scenarios.get("single-bus-1")


class TestScenarioSpec:
    def test_load_scale_scales_mean_rates(self):
        spec = scenarios.get("amba")
        base = spec.topology()
        scaled = spec.topology(load_scale=1.5)
        for name, flow in base.flows.items():
            assert scaled.flows[name].traffic.mean_rate == pytest.approx(
                1.5 * flow.traffic.mean_rate
            )

    def test_scaled_topology_identity_at_unit(self):
        topology = scenarios.get("fig1").topology()
        assert scaled_topology(topology, 1.0) is topology

    def test_scaled_topology_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            scaled_topology(scenarios.get("fig1").topology(), 0.0)

    def test_cache_scope_distinct_per_member(self):
        a = scenarios.get("random-mesh-3-11").cache_scope()
        b = scenarios.get("random-mesh-3-12").cache_scope()
        assert a != b

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            ScenarioSpec(
                name="",
                description="x",
                builder=template_builder(lambda: None),
            )
        with pytest.raises(ReproError):
            ScenarioSpec(
                name="x",
                description="x",
                builder=template_builder(lambda: None),
                budgets=(),
            )


class TestScenarioExperiment:
    @pytest.fixture(scope="class")
    def amba_experiment(self):
        return ScenarioExperiment.build(
            scenario="amba", calibration_duration=200.0
        )

    def test_three_configurations(self, amba_experiment):
        assert set(amba_experiment.allocations) == {PRE, POST, TIMEOUT}
        assert amba_experiment.scenario.name == "amba"

    def test_budget_defaults_to_spec(self, amba_experiment):
        assert amba_experiment.allocations[PRE].total == 18
        assert amba_experiment.allocations[POST].total == 18

    def test_threshold_positive(self, amba_experiment):
        assert amba_experiment.timeout_threshold > 0

    def test_threshold_is_the_scaled_mean_wait(self, amba_experiment):
        """Every scenario scales its calibrated mean buffer wait by the
        one TIMEOUT_MULTIPLIER."""
        from repro.experiments.common import TIMEOUT_MULTIPLIER
        from repro.policies import calibrate_timeout_threshold

        spec = amba_experiment.scenario
        mean_wait = calibrate_timeout_threshold(
            amba_experiment.topology,
            amba_experiment.allocations[PRE].as_capacities(),
            duration=200.0,
            seed=spec.arch_seed,
        )
        assert amba_experiment.timeout_threshold == pytest.approx(
            TIMEOUT_MULTIPLIER * mean_wait
        )


class TestScenarioCacheScoping:
    def test_sizing_keys_distinct_per_scenario(self, tmp_path):
        """Same topology, different scenario scope -> different entries."""
        topology = scenarios.get("amba").topology()
        ctx_a = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("amba")
        )
        ctx_b = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("coreconnect")
        )
        ctx_a.size(topology, 12)
        assert ctx_a.cache.misses == 1
        ctx_b.size(topology, 12)
        # A hit would mean scenario scope is not part of the key.
        assert ctx_b.cache.misses == 1
        assert ctx_b.cache.hits == 0
        # Same scope re-uses the entry.
        again = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("amba")
        )
        again.size(topology, 12)
        assert again.cache.hits == 1

    def test_replication_keys_distinct_per_scenario(self, tmp_path):
        topology = scenarios.get("amba").topology()
        caps = {name: 3 for name in topology.processors}
        for bridge in topology.bridges.values():
            caps[f"{bridge.name}@{bridge.bus_a}"] = 3
            caps[f"{bridge.name}@{bridge.bus_b}"] = 3
        ctx_a = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("amba")
        )
        ctx_b = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("coreconnect")
        )
        ctx_a.replicate(topology, caps, replications=1, duration=80.0)
        ctx_b.replicate(topology, caps, replications=1, duration=80.0)
        assert ctx_b.cache.hits == 0
        assert ctx_b.cache.misses == 1

    def test_unscoped_keys_unchanged(self, tmp_path):
        """A scope of None leaves payloads (hence keys) unscoped."""
        topology = scenarios.get("amba").topology()
        plain = ExecutionContext.create(cache_dir=tmp_path)
        assert plain.scenario is None
        plain.size(topology, 12)
        second = ExecutionContext.create(cache_dir=tmp_path)
        second.size(topology, 12)
        assert second.cache.hits == 1

    def test_spec_accepted_anywhere_a_scope_is(self, tmp_path):
        # Constructor, create() and scoped() all normalise a raw
        # ScenarioSpec to its cache_scope() — the spec itself carries
        # callables the cache hasher cannot canonicalise.
        spec = scenarios.get("amba")
        for context in (
            ExecutionContext(scenario=spec),
            ExecutionContext.create(cache_dir=tmp_path, scenario=spec),
            ExecutionContext.create(cache_dir=tmp_path).scoped(spec),
        ):
            assert context.scenario == spec.cache_scope()
        cached = ExecutionContext.create(cache_dir=tmp_path, scenario=spec)
        cached.size(spec.topology(), 12)
        assert cached.cache.misses == 1

    def test_scoped_is_idempotent_and_shares_cache(self, tmp_path):
        context = ExecutionContext.create(cache_dir=tmp_path)
        spec = scenarios.get("amba")
        scoped = context.scoped(spec)
        assert scoped.scoped(spec) is scoped
        assert scoped.cache is context.cache
        assert context.scenario is None  # parent untouched

    def test_sweep_keys_scenario_scoped(self, tmp_path):
        topology = scenarios.get("amba").topology()
        ctx_a = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("amba")
        )
        ctx_a.sweep(topology, [12, 14])
        misses_before = ctx_a.cache.misses
        ctx_b = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("coreconnect")
        )
        ctx_b.sweep(topology, [12, 14])
        assert ctx_b.cache.hits == 0
        # Re-sweeping under the original scope hits both budgets.
        ctx_c = ExecutionContext.create(cache_dir=tmp_path).scoped(
            scenarios.get("amba")
        )
        ctx_c.sweep(topology, [12, 14])
        assert ctx_c.cache.hits == 2
        assert misses_before == 2


class TestScenarioDrivers:
    def test_figure3_alternative_scenario(self):
        from repro.experiments import run_figure3

        result = run_figure3(
            scenario="amba", duration=120.0, replications=1
        )
        assert result.experiment.scenario.name == "amba"
        assert result.budget == 18
        data = result.per_processor()
        assert set(data) == {PRE, POST, TIMEOUT}
        assert set(data[PRE]) == {"cpu", "dma", "timer", "uart"}
        assert "[amba]" in result.render(width=16)

    def test_table1_alternative_scenario(self):
        from repro.experiments import run_table1

        result = run_table1(
            scenario="coreconnect",
            budgets=(14, 20),
            duration=120.0,
            replications=1,
        )
        assert result.budgets == [14, 20]
        assert result.cell(14, "eth", PRE) >= 0
        assert "Buf 14 pre" in result.render(("eth", "ppc"))
        # Default rows adapt to the scenario: none of the paper's
        # p1/p4/p15/p16 exist here, so every processor is shown.
        default_render = result.render()
        for proc in ("accel", "eth", "gpio", "ppc"):
            assert proc in default_render
        assert "p15" not in default_render

    def test_table1_budgets_default_to_spec(self):
        from repro.experiments import run_table1

        result = run_table1(
            scenario="single-bus-4", duration=100.0, replications=1
        )
        assert result.budgets == [8, 16, 32]
        # Colliding p<i> names must not truncate to the paper's netproc
        # row subset: every processor of the scenario is shown.
        default_render = result.render()
        for proc in ("p1", "p2", "p3", "p4"):
            assert proc in default_render

    def test_extensions_alternative_scenario(self):
        from repro.experiments import run_burstiness, run_weighted_loss

        burst = run_burstiness(
            scv_levels=(2.0,),
            scenario="amba",
            replications=1,
            duration=100.0,
        )
        assert len(burst.losses) == 1
        weighted = run_weighted_loss(
            weight=4.0, scenario="amba", replications=1, duration=100.0
        )
        # No declared critical set: first/last processor in report order.
        assert weighted.critical == ["cpu", "uart"]

    def test_policy_sweep_alternative_scenario(self):
        from repro.experiments import run_policy_sweep

        result = run_policy_sweep(
            load_scales=(1.0,),
            budget=16,
            replications=1,
            duration=100.0,
            scenario="amba",
        )
        assert set(result.totals()) == {
            "uniform", "proportional", "analytic", "ctmdp",
        }


class TestScenarioCLI:
    def test_scenarios_list(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("netproc", "fig1", "amba", "coreconnect"):
            assert name in out
        assert "random-mesh-<clusters>-<seed>" in out
        # >= 5 selectable scenarios: 4 fixed + parametric families.
        assert len(scenarios.names()) + len(scenarios.families()) >= 5

    def test_size_scenario_flag(self, capsys):
        from repro.cli import main

        assert main(["size", "--scenario", "amba"]) == 0
        out = capsys.readouterr().out
        assert "# allocation (budget 18)" in out

    def test_size_scenario_and_file_conflict(self, tmp_path, capsys):
        from repro.arch.dsl import serialize_topology
        from repro.cli import main

        path = tmp_path / "a.soc"
        path.write_text(
            serialize_topology(scenarios.get("amba").topology())
        )
        assert main(
            ["size", str(path), "--scenario", "amba", "--budget", "12"]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_size_requires_some_architecture(self, capsys):
        from repro.cli import main

        assert main(["size", "--budget", "12"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_simulate_scenario_flag(self, capsys):
        from repro.cli import main

        assert main([
            "simulate", "--scenario", "single-bus-4",
            "--duration", "100", "--reps", "1",
        ]) == 0
        assert "mean total loss" in capsys.readouterr().out

    def test_figure3_scenario_flag_end_to_end(self, capsys):
        from repro.cli import main

        assert main([
            "figure3", "--scenario", "amba",
            "--duration", "100", "--reps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "[amba]" in out
        assert "post vs pre improvement" in out

    def test_table1_scenario_flag(self, capsys):
        from repro.cli import main

        assert main([
            "table1", "--scenario", "single-bus-4",
            "--duration", "100", "--reps", "1",
        ]) == 0
        assert "Buf 8 pre" in capsys.readouterr().out

    def test_unknown_scenario_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["size", "--scenario", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestFamilyDocumentation:
    def test_every_family_declares_grammar_and_example(self):
        for family in scenarios.families():
            assert family.grammar, f"{family.pattern} lacks a grammar"
            assert family.example, f"{family.pattern} lacks an example"

    def test_family_examples_resolve_to_canonical_members(self):
        for family in scenarios.families():
            spec = scenarios.get(family.example)
            # The example is spelled canonically, so the listing, the
            # cache scope and --scenario all agree on one name.
            assert spec.name == family.example
            assert spec.topology().processors

"""Equivalence tests for the compiled kernel layer (repro.core.compiled).

The compiled path must be a pure speedup: sparse uniformization,
vectorised DP, the lattice-built joint bus model and the
refreshed-coefficient BlockProgram all have dict-based reference
implementations they are held against here, on randomized small CTMDPs
and on the paper's testbeds.
"""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, vstack

from repro import obs, scenarios
from repro.arch.netproc import network_processor
from repro.arch.templates import amba_like, paper_figure1
from repro.core import compiled
from repro.core import lp as lp_module
from repro.core.bus_model import (
    BUS_TIME,
    SPACE,
    BusClient,
    build_client_chain_ctmdp,
    build_joint_bus_ctmdp,
    bus_time_coefficients,
    joint_client_marginals,
)
from repro.core.compiled import (
    COOMatrix,
    CompiledBusLattice,
    CompiledClientChain,
    CompiledCTMDP,
    column_arrays,
    solve_sparse_lp,
)
from repro.core.ctmdp import CTMDP, Transition
from repro.core.dp import (
    _reference_pi,
    _reference_rvi,
    policy_iteration,
    relative_value_iteration,
)
from repro.core.lp import AverageCostLP, BlockLP, BlockProgram
from repro.core.sizing import BufferSizer
from repro.core.splitting import split
from repro.errors import ModelError


def random_clients(seed, n=2, max_cap=3):
    rng = np.random.default_rng(seed)
    return [
        BusClient(
            f"c{i}",
            arrival_rate=float(rng.uniform(0.3, 2.0)),
            service_rate=float(rng.uniform(1.0, 3.0)),
            capacity=int(rng.integers(1, max_cap + 1)),
            loss_weight=float(rng.uniform(0.5, 4.0)),
        )
        for i in range(n)
    ]


class TestSparseUniformization:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_on_random_bus_models(self, seed):
        model = build_joint_bus_ctmdp(random_clients(seed))
        p_dense, c_dense, pairs, rate_dense = model.uniformized()
        comp = model.compiled()
        p_sparse, c_sparse, rate_sparse = comp.uniformized_sparse()
        assert rate_sparse == pytest.approx(rate_dense)
        assert comp.pairs == pairs
        np.testing.assert_allclose(c_sparse, c_dense, atol=1e-15)
        np.testing.assert_allclose(
            p_sparse.toarray(), p_dense, atol=1e-12
        )

    def test_explicit_rate_respected(self):
        model = build_joint_bus_ctmdp(random_clients(0))
        p, c, rate = model.compiled().uniformized_sparse(rate=50.0)
        assert rate == 50.0
        np.testing.assert_allclose(
            np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-12
        )

    def test_small_rate_rejected(self):
        model = build_joint_bus_ctmdp(random_clients(0))
        with pytest.raises(ModelError, match="below max exit"):
            model.compiled().uniformized_sparse(rate=1e-6)


class TestRenormalizationGuard:
    """uniformized() must raise on inconsistent rate bookkeeping rather
    than silently renormalising it away."""

    def _model(self):
        m = CTMDP()
        m.add_action("lo", "slow", [("hi", 1.0)], cost_rate=0.0)
        m.add_action("hi", "drain", [("lo", 3.0)], cost_rate=1.0)
        return m

    def test_dense_raises_on_stale_exit_rates(self):
        m = self._model()
        # Simulate a bookkeeping bug: a transition appended behind the
        # cached exit rate's back.
        m._transitions[("lo", "slow")].append(Transition("hi", 1.0))
        with pytest.raises(ModelError, match=r"\('lo', 'slow'\)"):
            m.uniformized(rate=10.0)

    def test_sparse_raises_on_tampered_rates(self):
        m = self._model()
        comp = m.compiled()
        comp.t_rate[0] *= 2.0  # rate array out of sync with exit rates
        with pytest.raises(ModelError, match="sums to"):
            comp.uniformized_sparse(rate=10.0)

    def test_clean_models_renormalise_silently(self):
        p, _c, _pairs, _rate = self._model().uniformized()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestVectorizedDP:
    @pytest.mark.parametrize("seed", range(6))
    def test_rvi_matches_reference(self, seed):
        model = build_joint_bus_ctmdp(random_clients(seed))
        fast = relative_value_iteration(model, tol=1e-11)
        ref = _reference_rvi(model, tol=1e-11)
        assert fast.average_cost_rate == pytest.approx(
            ref.average_cost_rate, abs=1e-9
        )
        for s in model.states:
            assert fast.policy.action_probabilities(
                s
            ) == ref.policy.action_probabilities(s)
        np.testing.assert_allclose(fast.bias, ref.bias, atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_pi_matches_reference(self, seed):
        model = build_joint_bus_ctmdp(random_clients(seed))
        fast = policy_iteration(model)
        ref = _reference_pi(model)
        assert fast.average_cost_rate == pytest.approx(
            ref.average_cost_rate, abs=1e-9
        )
        assert fast.iterations == ref.iterations
        for s in model.states:
            assert fast.policy.action_probabilities(
                s
            ) == ref.policy.action_probabilities(s)


def joint_bus_model_in_lattice_order(clients):
    """build_joint_bus_ctmdp with states pre-registered in product order.

    The dict builder registers states in encounter order (targets first
    reached by a transition); the lattice enumerates the product order.
    Pre-registering aligns the two so structures can be compared entry
    for entry — the models are identical up to that relabelling.
    """
    import itertools

    from repro.core.ctmdp import CTMDP

    reference = build_joint_bus_ctmdp(clients)
    aligned = CTMDP()
    for occupancy in itertools.product(
        *(range(c.capacity + 1) for c in clients)
    ):
        aligned.add_state(tuple(occupancy))
    for state in aligned.states_ro:
        for action in reference.actions_ro(state):
            aligned.add_action(
                state,
                action,
                [
                    (t.target, t.rate)
                    for t in reference.transitions_ro(state, action)
                ],
                cost_rate=reference.cost_rate(state, action),
                constraint_rates={
                    name: reference.constraint_rate(name, state, action)
                    for name in reference.constraint_names
                },
            )
    aligned.validate()
    return aligned


class TestCompiledBusLattice:
    @pytest.mark.parametrize("seed", range(5))
    def test_structure_matches_dict_builder(self, seed):
        clients = random_clients(seed, n=3, max_cap=2)
        model = joint_bus_model_in_lattice_order(clients)
        comp = model.compiled()
        lattice = CompiledBusLattice(clients)
        assert lattice.n_states == comp.n_states
        assert lattice.n_pairs == comp.n_pairs
        assert lattice.pairs == comp.pairs
        # Balance equations must be *exactly* equal — the LP consumes
        # them, and the compiled sizing path promises bitwise-identical
        # coefficients.
        shape = (comp.n_states, comp.n_pairs)
        a_ref = csr_matrix((comp.balance_coo()[2], comp.balance_coo()[:2]), shape=shape)
        a_fast = csr_matrix(
            (lattice.balance_coo()[2], lattice.balance_coo()[:2]), shape=shape
        )
        assert (a_ref != a_fast).nnz == 0
        np.testing.assert_array_equal(lattice.cost_rates, comp.cost_rates)
        np.testing.assert_array_equal(lattice.exit_rates, comp.exit_rates)
        np.testing.assert_array_equal(
            lattice.constraint_vector(SPACE), comp.constraint_vector(SPACE)
        )
        for c in clients:
            np.testing.assert_array_equal(
                lattice.constraint_vector(f"{SPACE}:{c.name}"),
                comp.constraint_vector(f"{SPACE}:{c.name}"),
            )

    def test_refresh_matches_rebuild(self):
        clients = random_clients(3, n=2)
        lattice = CompiledBusLattice(clients)
        new_rates = {"c0": 0.9, "c1": 1.7}
        assert lattice.refresh(new_rates)
        rebuilt = joint_bus_model_in_lattice_order(
            [c.with_arrival_rate(new_rates[c.name]) for c in clients]
        ).compiled()
        shape = (rebuilt.n_states, rebuilt.n_pairs)
        a_ref = csr_matrix(
            (rebuilt.balance_coo()[2], rebuilt.balance_coo()[:2]), shape=shape
        )
        a_fast = csr_matrix(
            (lattice.balance_coo()[2], lattice.balance_coo()[:2]), shape=shape
        )
        assert (a_ref != a_fast).nnz == 0
        np.testing.assert_array_equal(lattice.cost_rates, rebuilt.cost_rates)

    def test_refresh_reports_pattern_change(self):
        clients = random_clients(4, n=2)
        lattice = CompiledBusLattice(clients)
        assert not lattice.refresh({"c0": 0.0})

    def test_marginals_match_dict_extraction(self):
        clients = random_clients(5, n=2)
        model = build_joint_bus_ctmdp(clients)
        solution = AverageCostLP(model).solve()
        occ = solution.occupations[0]
        ref = joint_client_marginals(clients, occ)
        lattice = CompiledBusLattice(clients)
        x = np.array([occ[pair] for pair in lattice.pairs])
        fast = lattice.client_marginals(x)
        for name in ref:
            np.testing.assert_allclose(fast[name], ref[name], atol=1e-12)


def _reference_lp_objective(model, shared_space_bound=None):
    """Dict-walking LP assembly, as the pre-compiled BlockLP did it."""
    pairs = model.state_action_pairs()
    n = model.num_states
    index = {s: i for i, s in enumerate(model.states)}
    cost = np.array([model.cost_rate(s, a) for s, a in pairs])
    a_eq = np.zeros((n + 1, len(pairs)))
    for k, (s, a) in enumerate(pairs):
        exit_rate = 0.0
        for t in model.transitions(s, a):
            a_eq[index[t.target], k] += t.rate
            exit_rate += t.rate
        a_eq[index[s], k] -= exit_rate
        a_eq[n, k] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    a_ub = b_ub = None
    if shared_space_bound is not None:
        row = np.array(
            [model.constraint_rate(SPACE, s, a) for s, a in pairs]
        )
        a_ub, b_ub = row[np.newaxis, :], [shared_space_bound]
    result = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    assert result.success
    return float(result.fun)


class TestCompiledBlockLP:
    @pytest.mark.parametrize("seed", range(4))
    def test_objective_matches_reference_assembly(self, seed):
        model = build_joint_bus_ctmdp(random_clients(seed))
        compiled = AverageCostLP(model).solve().objective
        reference = _reference_lp_objective(model)
        assert compiled == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_constrained_objective_matches_reference(self, seed):
        client = random_clients(seed, n=1)[0]
        model = build_client_chain_ctmdp(client, holding_cost_rate=1e-4)
        # Bound at the unconstrained optimum's occupancy: guaranteed
        # feasible, and both paths must agree on the constrained LP.
        base = AverageCostLP(model).solve()
        occupancy = sum(
            q * mass for (q, _a), mass in base.occupations[0].items()
        )
        bound = max(occupancy, 1e-6)
        block = BlockLP()
        block.add_block(model)
        block.add_shared_budget("budget", SPACE, bound=bound)
        compiled = block.solve().objective
        reference = _reference_lp_objective(model, shared_space_bound=bound)
        assert compiled == pytest.approx(reference, abs=1e-9)

    def test_warm_started_resolve_matches_cold(self):
        model = build_joint_bus_ctmdp(random_clients(7))
        block = BlockLP()
        block.add_block(model)
        program = block.compile()
        cold, _ = program.solve(warm=False)
        warm, _ = program.solve(warm=True)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


#: The cases the sizing loop is held to its oracles on: joint
#: subsystems, the per-client chain fallback, and a joint-state limit
#: small enough that every subsystem falls back to chains (its cold
#: loop runs in ``test_sizing_builds_each_chain_once``).
SIZER_CASES = {
    "fig1@24": (paper_figure1, dict(total_budget=24)),
    "amba@16": (amba_like, dict(total_budget=16)),
    "amba@40-chain": (
        amba_like,
        dict(total_budget=40, capacity_cap=5, joint_state_limit=1),
    ),
    "fig1@24-limit2": (
        paper_figure1, dict(total_budget=24, joint_state_limit=2)
    ),
}


def assert_same_sizing(warm, cold):
    """Same allocation, and objectives within the fixed point's reach."""
    assert warm.allocation.sizes == cold.allocation.sizes
    assert warm.expected_loss_rate == pytest.approx(
        cold.expected_loss_rate, abs=1e-6
    )


def size_cold(monkeypatch, sizer, topology):
    """``sizer.size(topology)`` with every LP of the loop solved cold."""
    solve = BlockProgram.solve

    def cold(self, *args, **kwargs):
        kwargs["warm"] = False
        return solve(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(BlockProgram, "solve", cold)
        return sizer.size(topology)


def dict_block_lp(sizer, topology):
    """The sizing loop's first LP, assembled by :class:`BlockLP` from the
    dict builders.

    An independent construction of the same program: dict-built CTMDPs,
    ``bus_time_coefficients`` rows and ``add_shared_budget``.  Joint
    models register their states in lattice order
    (:func:`joint_bus_model_in_lattice_order`) so that columns line up.
    """
    cap = sizer._derive_cap(topology)
    block_lp = BlockLP()
    for sub in split(topology, cap).subsystems:
        if not sub.clients:
            continue
        model_cap = sizer._model_cap(len(sub.clients), cap)
        if model_cap is not None:
            block_lp.add_block(
                joint_bus_model_in_lattice_order(
                    [c.with_capacity(model_cap) for c in sub.clients]
                )
            )
            continue
        chains = [
            build_client_chain_ctmdp(
                client, holding_cost_rate=chain_holding(client)
            )
            for client in (c.with_capacity(min(cap, 30)) for c in sub.clients)
        ]
        for model in chains:
            block_lp.add_block(model)
        coefficients = [
            {} for _ in range(block_lp.num_blocks - len(chains))
        ] + [bus_time_coefficients(model) for model in chains]
        block_lp.add_shared_constraint(
            f"bus_time[{sub.index}]", coefficients, bound=1.0
        )
    block_lp.add_shared_budget(
        "budget", SPACE, bound=sizer.total_budget
    )
    return block_lp


class TestCompiledSizerEquivalence:
    """The one fixed-point loop against its two oracles: itself with
    every LP solved cold, and its first LP against the one
    :class:`BlockLP` assembles from the dict builders."""

    @staticmethod
    def assert_matches_cold(monkeypatch, factory, kwargs):
        assert_same_sizing(
            BufferSizer(**kwargs).size(factory()),
            size_cold(monkeypatch, BufferSizer(**kwargs), factory()),
        )

    @pytest.mark.parametrize(
        "topology_factory,budget",
        [(paper_figure1, 24), (amba_like, 16)],
    )
    def test_allocations_match_reference_path(
        self, monkeypatch, topology_factory, budget
    ):
        self.assert_matches_cold(
            monkeypatch, topology_factory, dict(total_budget=budget)
        )

    def test_chain_fallback_allocations_match(self, monkeypatch):
        self.assert_matches_cold(monkeypatch, *SIZER_CASES["amba@40-chain"])

    @pytest.mark.parametrize("case", sorted(SIZER_CASES))
    def test_first_lp_matches_dict_assembly(self, monkeypatch, case):
        factory, kwargs = SIZER_CASES[case]
        sizer = BufferSizer(**kwargs)
        topology = factory()
        cost, a_eq, b_eq, a_ub, b_ub = first_lp(
            monkeypatch, lambda: sizer.size(topology)
        )
        ref_cost, ref_eq, ref_b_eq, ref_ub, ref_b_ub = first_lp(
            monkeypatch, dict_block_lp(sizer, topology).solve
        )
        assert (a_eq.shape, a_ub.shape) == (ref_eq.shape, ref_ub.shape)
        # Bitwise on every case, which is stronger than the 1e-12
        # relative agreement the two constructions need.
        assert_bitwise(
            (cost, b_eq, b_ub, *column_arrays(a_eq, a_ub)),
            (ref_cost, ref_b_eq, ref_b_ub, *column_arrays(ref_eq, ref_ub)),
        )


def chain_holding(client):
    """The sizing pipeline's degeneracy-breaking holding cost."""
    return 1e-5 * (client.loss_weight * client.arrival_rate + 1.0)


class TestCompiledClientChain:
    """The refreshable chain block must be bitwise-equal to freezing
    build_client_chain_ctmdp, and refreshing must equal rebuilding."""

    def _assert_matches_reference(self, chain, client, holding):
        ref = build_client_chain_ctmdp(
            client, holding_cost_rate=holding
        ).compiled()
        assert chain.n_states == ref.n_states
        assert chain.n_pairs == ref.n_pairs
        assert chain.pairs == ref.pairs
        for attr in (
            "pair_state",
            "t_pair",
            "t_target",
            "t_rate",
            "exit_rates",
            "cost_rates",
        ):
            np.testing.assert_array_equal(
                getattr(chain, attr), getattr(ref, attr), err_msg=attr
            )
        for name in (SPACE, f"{SPACE}:{client.name}", BUS_TIME, "other"):
            np.testing.assert_array_equal(
                chain.constraint_vector(name),
                ref.constraint_vector(name),
                err_msg=name,
            )
        for got, want in zip(chain.balance_coo(), ref.balance_coo()):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_structure_matches_dict_builder(self, seed):
        (client,) = random_clients(seed, n=1, max_cap=8)
        holding = chain_holding(client)
        chain = CompiledClientChain(client, holding_cost_rate=holding)
        self._assert_matches_reference(chain, client, holding)

    def test_zero_arrival_rate_client(self):
        client = BusClient(
            "idlehost", arrival_rate=0.0, service_rate=2.0, capacity=4
        )
        chain = CompiledClientChain(client, holding_cost_rate=1e-5)
        self._assert_matches_reference(chain, client, 1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_refresh_matches_rebuild(self, seed):
        (client,) = random_clients(seed, n=1, max_cap=6)
        chain = CompiledClientChain(
            client, holding_cost_rate=chain_holding(client)
        )
        rng = np.random.default_rng(seed + 100)
        for _step in range(3):
            updated = client.with_arrival_rate(float(rng.uniform(0.1, 3.0)))
            holding = chain_holding(updated)
            assert chain.refresh(updated.arrival_rate, holding)
            self._assert_matches_reference(chain, updated, holding)

    def test_refresh_reports_pattern_change(self):
        client = BusClient("c", arrival_rate=1.0, service_rate=2.0, capacity=3)
        chain = CompiledClientChain(client, holding_cost_rate=1e-5)
        assert not chain.refresh(0.0, 1e-5)
        # A rejected refresh leaves the chain untouched.
        self._assert_matches_reference(chain, client, 1e-5)

    def test_invalid_inputs_rejected(self):
        client = BusClient("c", arrival_rate=1.0, service_rate=2.0, capacity=3)
        with pytest.raises(ModelError):
            CompiledClientChain(client, holding_cost_rate=-1.0)
        chain = CompiledClientChain(client)
        with pytest.raises(ModelError):
            chain.refresh(1.0, -2.0)

    def test_sizing_builds_each_chain_once(self, monkeypatch):
        """The fixed point refreshes chain blocks instead of rebuilding.

        The ROADMAP acceptance: chain-path sizing must construct each
        per-client block exactly once however many bridge-rate
        iterations run, while producing the same allocation as the
        same loop solved cold at every step.
        """
        from repro.core import sizing as sizing_mod

        built = []

        class CountingChain(CompiledClientChain):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            sizing_mod, "CompiledClientChain", CountingChain
        )
        kwargs = dict(total_budget=24, joint_state_limit=2)
        fast = BufferSizer(**kwargs).size(paper_figure1())
        num_clients = len(fast.split_system.all_client_names())
        assert fast.fixed_point_iterations >= 2
        assert sum(built) == num_clients
        cold = size_cold(monkeypatch, BufferSizer(**kwargs), paper_figure1())
        assert_same_sizing(fast, cold)


class TestFixedSeedRegression:
    def test_netproc_budget160_allocation_unchanged(self):
        """The seed repo's allocation for the paper's testbed at the
        paper's budget — must never drift."""
        result = BufferSizer(total_budget=160).size(network_processor())
        assert result.allocation.sizes == {
            "br0@ctrl": 5, "br0@data0": 6,
            "br1@ctrl": 5, "br1@data1": 6,
            "br2@ctrl": 4, "br2@data2": 6,
            "br3@ctrl": 4, "br3@data3": 6,
            "p1": 10, "p2": 6, "p3": 7, "p4": 6, "p5": 9, "p6": 7,
            "p7": 6, "p8": 6, "p9": 7, "p10": 7, "p11": 6, "p12": 6,
            "p13": 8, "p14": 6, "p15": 7, "p16": 10, "p17": 4,
        }
        assert result.allocation.total == 160


class TestCachedAccessors:
    def test_exit_rate_cached_and_invalidated(self):
        m = CTMDP()
        m.add_action("a", "x", [("b", 2.0), ("c", 1.5)])
        m.add_action("b", "x", [("a", 1.0)])
        m.add_action("c", "x", [("a", 1.0)])
        assert m.exit_rate("a", "x") == pytest.approx(3.5)
        assert m.max_exit_rate() == pytest.approx(3.5)
        m.add_action("a", "y", [("b", 9.0)])
        assert m.exit_rate("a", "y") == pytest.approx(9.0)
        assert m.max_exit_rate() == pytest.approx(9.0)

    def test_compiled_view_cached_and_invalidated(self):
        m = CTMDP()
        m.add_action("a", "x", [("b", 1.0)])
        m.add_action("b", "x", [("a", 1.0)])
        first = m.compiled()
        assert m.compiled() is first
        m.add_action("b", "y", [("a", 2.0)])
        second = m.compiled()
        assert second is not first
        assert second.n_pairs == 3

    def test_ro_accessors_alias_internal_state(self):
        m = CTMDP()
        m.add_action("a", "x", [("b", 1.0)])
        m.add_action("b", "x", [("a", 1.0)])
        assert m.states_ro is m.states_ro
        assert m.actions_ro("a") is m.actions_ro("a")
        assert m.transitions_ro("a", "x") is m.transitions_ro("a", "x")
        assert m.state_action_pairs_ro() is m.state_action_pairs_ro()
        # The copying API still protects callers that mutate.
        m.states.append("zzz")
        assert "zzz" not in m.states_ro

    def test_ro_accessors_reject_unknown(self):
        m = CTMDP()
        m.add_action("a", "x", [("b", 1.0)])
        with pytest.raises(ModelError):
            m.actions_ro("zzz")
        with pytest.raises(ModelError):
            m.transitions_ro("a", "zzz")


def dense_coo(dense):
    """The nonzeros of a dense 2-D array as a :class:`COOMatrix`."""
    a = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(a)
    return COOMatrix(rows, cols, a[rows, cols], a.shape)


class TestSolveSparseLPFallback:
    def test_backend_smoke(self):
        # min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0.
        result = solve_sparse_lp(
            np.array([1.0, 2.0]),
            dense_coo([[1.0, 1.0]]),
            np.array([1.0]),
            None,
            None,
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(1.0)
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-9)

    def test_infeasible_detected(self):
        result = solve_sparse_lp(
            np.array([1.0, 2.0]),
            dense_coo([[1.0, 1.0]]),
            np.array([1.0]),
            dense_coo([[1.0, 1.0]]),
            np.array([0.5]),
        )
        assert result.status == "infeasible"

    @pytest.fixture
    def fallbacks(self):
        """Reads ``solver.lp.linprog_fallbacks``, with metrics on."""
        obs.reset()
        obs.enable_metrics()
        yield lambda: obs.registry().counters_snapshot().get(
            "solver.lp.linprog_fallbacks", 0
        )
        obs.reset()

    def test_linprog_fallback_finds_the_highs_optimum(
        self, monkeypatch, fallbacks
    ):
        # A joint bus LP whose shared space row binds at its optimum.
        model = build_joint_bus_ctmdp(random_clients(3, n=3))
        free = AverageCostLP(model).solve()
        space = model.compiled().constraint_vector(SPACE)
        bound = 0.9 * (np.array(list(free.occupations[0].values())) @ space)
        block = BlockLP()
        block.add_block(model)
        block.add_shared_budget("budget", SPACE, bound=bound)
        expected = block.solve()
        assert expected.constraint_values["budget"] == pytest.approx(bound)
        assert fallbacks() == 0
        monkeypatch.setattr(compiled, "HAVE_HIGHS", False)
        fallback = block.solve()
        assert fallbacks() == 1
        assert fallback.objective == pytest.approx(
            expected.objective, rel=1e-9
        )
        assert fallback.constraint_values["budget"] == pytest.approx(bound)

    def test_linprog_fallback_reports_infeasible(
        self, monkeypatch, fallbacks
    ):
        monkeypatch.setattr(compiled, "HAVE_HIGHS", False)
        result = solve_sparse_lp(
            np.array([1.0, 2.0]),
            dense_coo([[1.0, 1.0]]),
            np.array([1.0]),
            dense_coo([[1.0, 1.0]]),
            np.array([0.5]),
        )
        assert result.status == "infeasible"
        assert fallbacks() == 1


class _Captured(Exception):
    """Raised by :func:`first_lp`'s stub once it holds the LP."""


def first_lp(monkeypatch, run):
    """The arguments of the first ``solve_sparse_lp`` call ``run()`` makes.

    The stub raises instead of solving, so no LP is ever solved.
    """
    calls = []

    def capture(*args, **kwargs):
        calls.append(args)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "solve_sparse_lp", capture)
        with pytest.raises(_Captured):
            run()
    return calls[0]


def scipy_columns(a_eq, a_ub):
    """``(indptr, indices, data)`` of scipy's ``vstack([a_eq, a_ub])``."""
    blocks = [
        csr_matrix((m.vals, (m.rows, m.cols)), shape=m.shape)
        for m in (a_eq, a_ub)
        if m is not None
    ]
    a = vstack(blocks).tocsc()
    return a.indptr, a.indices, a.data


def assert_bitwise(ours, reference):
    for got, want in zip(ours, reference):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


#: Every registry scenario at its default budget, plus the fleet's
#: single bus and the benchmark's unconverged mesh.
ORACLE_PROGRAMS = [
    (name, scenarios.get(name).default_budget) for name in scenarios.names()
] + [("single-bus-6", 48), ("random-mesh-8-1", 96)]


class TestColumnArrays:
    """HiGHS's column-wise matrix, built with numpy, against scipy."""

    @pytest.mark.parametrize("name,budget", ORACLE_PROGRAMS)
    def test_sizing_lp_matches_scipy_bitwise(self, monkeypatch, name, budget):
        spec = scenarios.get(name)
        sizer = BufferSizer(total_budget=budget)
        _cost, a_eq, _b_eq, a_ub, _b_ub = first_lp(
            monkeypatch, lambda: sizer.size(spec.topology())
        )
        assert a_ub is not None and a_ub.shape[0] > 0
        assert_bitwise(
            column_arrays(a_eq, a_ub), scipy_columns(a_eq, a_ub)
        )

    @staticmethod
    def two_state_model(fast_transitions):
        m = CTMDP()
        m.add_action("a", "fast", fast_transitions, cost_rate=4.0)
        m.add_action("a", "slow", [("b", 0.5)], cost_rate=1.0)
        m.add_action("b", "back", [("a", 2.0)], cost_rate=3.0)
        m.add_action("b", "wait", [("a", 0.25)], cost_rate=0.5)
        return m

    def test_duplicate_coordinates_are_summed(self, monkeypatch):
        listed = self.two_state_model([("b", 2.0), ("b", 1.0)])
        merged = self.two_state_model([("b", 3.0)])
        listed_eq = first_lp(monkeypatch, AverageCostLP(listed).solve)[1]
        merged_eq = first_lp(monkeypatch, AverageCostLP(merged).solve)[1]
        assert len(listed_eq.vals) == len(merged_eq.vals) + 1
        start, index, value = column_arrays(listed_eq, None)
        assert_bitwise((start, index, value), column_arrays(merged_eq, None))
        assert_bitwise((start, index, value), scipy_columns(listed_eq, None))
        # Column 0 is ("a", "fast"): into b at 2 + 1, out of a at 3.
        assert value[start[0]:start[1]].tolist() == [-3.0, 3.0, 1.0]
        assert (
            AverageCostLP(listed).solve().objective
            == AverageCostLP(merged).solve().objective
        )

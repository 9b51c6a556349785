"""Greedy procedures: generic selection, forced choices, swapping, Alg-2 loop."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import archtune.greedy as greedy_mod
from archtune import (
    ArchitectureConstraints,
    ArchitectureSet,
    LinearNetworkSystem,
    change_count,
    greedy_actuator_state_feedback,
    greedy_select,
    greedy_swap,
    least_squares_identify,
    predicted_cost,
    running_cost,
    switching_cost,
    synthesize_gains,
    total_estimated_cost,
    uniform_cost_parameters,
)
from archtune.greedy import (
    NO_UPDATE,
    _swap_metric_factory,
    apply_choice,
    rejection_choices,
    selection_choices,
)
from archtune.network import random_network_localized, satisfies_constraints
from archtune.simulation import SimulationConfig, simulate
from archtune.synthesis import lqr_backward, solve_dare

from conftest import canonical_system, random_psd, scipy_dare, stable_matrix


class TestChangeCount:
    def test_examples(self):
        assert change_count({1, 2}, {1, 2}) == 0
        assert change_count({1, 2}, {2, 3}) == 1
        assert change_count({1}, {2, 3, 4}) == 3

    def test_symmetry_and_zero_iff_equal(self, rng):
        for _ in range(50):
            a = set(rng.choice(10, int(rng.integers(0, 6)), replace=False).tolist())
            b = set(rng.choice(10, int(rng.integers(0, 6)), replace=False).tolist())
            assert change_count(a, b) == change_count(b, a)
            if len(a) == len(b):
                assert (change_count(a, b) == 0) == (a == b)


def per_set(cost):
    """Round metric pricing each candidate set on its own."""
    return lambda cands: [cost(s) for s in cands]


class TestGreedySelect:
    def test_one_step_argmin(self):
        table = {("a",): 1.0, ("b",): 2.0}
        assert greedy_select(("a", "b"), per_set(table.get), 1) == ("a",)

    def test_saturation_returns_full_pool(self):
        assert greedy_select(("a", "b", "c"), per_set(lambda s: 0.0), 3) == ("a", "b", "c")

    def test_known_suboptimal_instance(self):
        # greedy grows {a} -> {a,b} while the true optimum is {b,c}
        table = {("a",): 1.0, ("b",): 2.0, ("c",): 3.0,
                 ("a", "b"): 0.0, ("a", "c"): 4.0, ("b", "c"): -5.0}
        got = greedy_select(("a", "b", "c"), per_set(table.get), 2)
        assert got == ("a", "b")
        best = min(itertools.combinations(("a", "b", "c"), 2), key=lambda s: table[s])
        assert best == ("b", "c")

    def test_oversized_bound_rejected(self):
        with pytest.raises(ValueError):
            greedy_select(("a",), per_set(lambda s: 0.0), 2)

    def test_modular_metric_is_exact(self, rng):
        # additive weights make greedy provably optimal; compare exhaustively
        for _ in range(20):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, m + 1))
            w = rng.standard_normal(m)
            pool = tuple(range(m))

            def metric(s):
                return float(sum(w[i] for i in s))

            got = greedy_select(pool, per_set(metric), k)
            best = min(itertools.combinations(pool, k), key=metric)
            assert metric(got) == pytest.approx(metric(best))

    def test_one_round_per_element_in_pool_order(self):
        # candidates keep pool order, not sorted order; ties keep the earliest
        rounds = []

        def metric(cands):
            rounds.append(cands)
            return [0.0] * len(cands)

        assert greedy_select((3, 1, 2), metric, 2) == (3, 1)
        assert rounds == [[(3,), (1,), (2,)], [(3, 1), (3, 2)]]

    @pytest.mark.parametrize("first", [math.nan, math.inf])
    def test_non_finite_never_beats_finite(self, first):
        # the first candidate is priced first, yet a later finite one wins
        costs = {"a": first, "b": 2.0, "c": 1.0}
        assert greedy_select(("a", "b", "c"), per_set(lambda s: costs[s[0]]), 1) == ("c",)

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_no_finite_cost_takes_the_earliest(self, cost):
        assert greedy_select(("a", "b", "c"), per_set(lambda s: cost), 2) == ("a", "b")


CONS = ArchitectureConstraints(act_min=1, act_max=2, sen_min=1, sen_max=3,
                               max_changes=None, max_per_subsequence=1)


class TestSelectionChoices:
    def test_deficient_actuators_high_priority(self):
        arch = ArchitectureSet(actuators=(), sensors=(0, 1))
        # |A| = 0 < act_min + 1 while sensors sit at their shifted bounds
        choices = selection_choices(arch, CONS, 4, 4)
        assert choices
        assert all(c.kind == "add_actuator" for c in choices)
        assert NO_UPDATE not in choices

    def test_both_at_shifted_maxima(self):
        arch = ArchitectureSet(actuators=(0, 1, 2), sensors=(0, 1, 2, 3))
        choices = selection_choices(arch, CONS, 4, 4)
        assert choices == [NO_UPDATE]

    def test_strictly_between_bounds_offers_everything(self):
        arch = ArchitectureSet(actuators=(0, 1), sensors=(0, 1, 2))
        choices = selection_choices(arch, CONS, 4, 4)
        kinds = {c.kind for c in choices}
        assert kinds == {"add_actuator", "add_sensor", "no_update"}
        assert choices[-1] == NO_UPDATE
        added_act = [c.index for c in choices if c.kind == "add_actuator"]
        assert added_act == [2, 3]

    def test_every_candidate_within_shifted_bounds(self):
        # exhaustive feasibility of the generated candidates
        for acts in _all_subsets(4):
            for sens in _all_subsets(4):
                arch = ArchitectureSet(actuators=acts, sensors=sens)
                choices = selection_choices(arch, CONS, 4, 4)
                for ch in choices:
                    out = apply_choice(arch, ch)
                    # an addition never pushes its own kind past the shifted max
                    if ch.kind == "add_actuator":
                        assert len(out.actuators) <= CONS.act_max + 1
                    if ch.kind == "add_sensor":
                        assert len(out.sensors) <= CONS.sen_max + 1
                # no-update offered exactly when the shifted bounds hold
                in_shifted = (CONS.act_min + 1 <= len(acts) <= CONS.act_max + 1
                              and CONS.sen_min + 1 <= len(sens) <= CONS.sen_max + 1)
                assert (NO_UPDATE in choices) == in_shifted


class TestRejectionChoices:
    def test_above_max_high_priority(self):
        arch = ArchitectureSet(actuators=(0, 1, 2), sensors=(0,))
        choices = rejection_choices(arch, CONS, 4, 4)
        assert choices
        assert all(c.kind == "remove_actuator" for c in choices)

    def test_at_minima_no_update_only(self):
        arch = ArchitectureSet(actuators=(0,), sensors=(0,))
        assert rejection_choices(arch, CONS, 4, 4) == [NO_UPDATE]

    def test_above_minimum_offers_removals_and_no_update(self):
        arch = ArchitectureSet(actuators=(0,), sensors=(0, 1))
        choices = rejection_choices(arch, CONS, 4, 4)
        kinds = {c.kind for c in choices}
        assert kinds == {"remove_sensor", "no_update"}

    def test_every_candidate_meets_minimums(self):
        for acts in _all_subsets(4):
            for sens in _all_subsets(4):
                arch = ArchitectureSet(actuators=acts, sensors=sens)
                for ch in rejection_choices(arch, CONS, 4, 4):
                    out = apply_choice(arch, ch)
                    assert len(out.actuators) >= min(CONS.act_min, len(arch.actuators))
                    assert len(out.sensors) >= min(CONS.sen_min, len(arch.sensors))


def _all_subsets(m):
    for k in range(m + 1):
        yield from itertools.combinations(range(m), k)


class TestApplyChoice:
    def test_add_remove_roundtrip(self):
        from archtune import Choice
        arch = ArchitectureSet(actuators=(0,), sensors=(1,))
        added = apply_choice(arch, Choice(kind="add_actuator", index=2))
        assert added.actuators == (0, 2)
        back = apply_choice(added, Choice(kind="remove_actuator", index=2))
        assert back == arch

    def test_no_update_is_identity(self):
        arch = ArchitectureSet(actuators=(0, 1), sensors=())
        assert apply_choice(arch, NO_UPDATE) == arch


def _swap_instance():
    """Two-node plant where node 0 is unstable; only actuator/sensor 0 helps."""
    A = np.diag([2.0, 0.5])
    sys_ = LinearNetworkSystem(A=A, actuator_pool=np.eye(2), sensor_pool=np.eye(2),
                               W=np.eye(2), v_var=0.1)
    params = uniform_cost_parameters(2, 2, 2, horizon=8)
    cons = ArchitectureConstraints(1, 1, 1, 1, max_changes=None,
                                   max_per_subsequence=1)
    return sys_, params, cons


def _chain_instance():
    """Six decoupled nodes, five of them unstable, each reached only by its
    own actuator and sensor."""
    n = 6
    A = np.diag([1.5, 1.4, 1.3, 1.2, 1.1, 0.5])
    sys_ = LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                               W=np.eye(n), v_var=0.1)
    params = uniform_cost_parameters(n, n, n, horizon=8)
    init = ArchitectureSet(actuators=(5,), sensors=tuple(range(n)))
    return sys_, params, init, np.ones(n), np.eye(n)


def _chain_constraints(max_changes):
    return ArchitectureConstraints(1, 5, 1, 6, max_changes=max_changes,
                                   max_per_subsequence=1)


def _choice_code(ch):
    """Compact choice label: '+a0' adds actuator 0, '-s3' removes sensor 3,
    '=' is no-update."""
    if ch.kind == "no_update":
        return "="
    sign = "+" if ch.kind.startswith("add") else "-"
    return f"{sign}{ch.kind.split('_')[1][0]}{ch.index}"


# Every choice list the swap prices, in order, with the architecture it
# returns; a change to the subsequence loop's control flow shows up here.
_PRICED_LISTS = {
    "two_node": (
        ["+a0 +s0", "+s0", "-a0 -a1 -s0 -s1", "-a0 -a1",
         "+a1 +s1", "+s1", "-a0 -a1 -s0 -s1", "-a0 -a1"],
        ((0,), (0,))),
    "chain_free": (
        ["+a0 +a1 +a2 +a3 +a4", "+a1 +a2 +a3 +a4 =",
         "-a0 -a1 -a5 -s0 -s1 -s2 -s3 -s4 -s5 =",
         "+a2 +a3 +a4 =", "+a3 +a4 =",
         "-a0 -a1 -a2 -a3 -a5 -s0 -s1 -s2 -s3 -s4 -s5 =",
         "+a4 =", "=", "-a0 -a1 -a2 -a3 -a4 -a5",
         "-a0 -a1 -a2 -a3 -a4 -s0 -s1 -s2 -s3 -s4 -s5 =",
         "+a5 =", "=", "-a0 -a1 -a2 -a3 -a4 -a5",
         "-a0 -a1 -a2 -a3 -a4 -s0 -s1 -s2 -s3 -s4 -s5 ="],
        ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5))),
    "chain_capped": (
        ["+a0 +a1 +a2 +a3 +a4", "+a1 +a2 +a3 +a4 =",
         "-a0 -a1 -a5 -s0 -s1 -s2 -s3 -s4 -s5 ="],
        ((0, 1, 5), (0, 1, 2, 3, 4, 5))),
}


class TestGreedySwap:
    @pytest.mark.parametrize("case", sorted(_PRICED_LISTS))
    def test_prices_the_same_choice_lists(self, case, monkeypatch):
        if case == "two_node":
            sys_, params, cons = _swap_instance()
            init = ArchitectureSet(actuators=(1,), sensors=(1,))
            x_hat, E = np.array([3.0, 1.0]), np.eye(2)
        else:
            sys_, params, init, x_hat, E = _chain_instance()
            cons = _chain_constraints(None if case == "chain_free" else 1)
        priced = []
        pick = greedy_mod._pick_choice

        def recorded(evaluate, arch, choices):
            priced.append(" ".join(_choice_code(ch) for ch in choices))
            return pick(evaluate, arch, choices)

        monkeypatch.setattr(greedy_mod, "_pick_choice", recorded)
        arch, _, _ = greedy_swap(sys_, init, x_hat, E, params, cons)
        lists, (acts, sens) = _PRICED_LISTS[case]
        assert priced == lists
        assert arch == ArchitectureSet(actuators=acts, sensors=sens)

    def test_fixed_point_returns_init(self, rng):
        # huge switching rates make any move strictly worse than staying
        sys_, _, cons = _swap_instance()
        params = uniform_cost_parameters(2, 2, 2, horizon=8, switching=1e9)
        init = ArchitectureSet(actuators=(1,), sensors=(1,))
        arch, entry, _ = greedy_swap(sys_, init, np.array([1.0, 1.0]), np.eye(2),
                                     params, cons)
        assert arch == init
        assert entry.switching == 0.0

    def test_single_swap_reaches_exhaustive_optimum(self):
        sys_, params, cons = _swap_instance()
        init = ArchitectureSet(actuators=(1,), sensors=(1,))
        x_hat = np.array([3.0, 1.0])
        E = np.eye(2)
        arch, entry, _ = greedy_swap(sys_, init, x_hat, E, params, cons)
        best = min((ArchitectureSet(actuators=(a,), sensors=(s,))
                    for a in range(2) for s in range(2)),
                   key=lambda c: total_estimated_cost(sys_, c, init, x_hat, E, params)[0])
        assert arch == best
        assert arch.actuators == (0,) and arch.sensors == (0,)

    def test_commits_the_gains_and_entry_of_its_architecture(self):
        sys_, _, cons = _swap_instance()
        params = uniform_cost_parameters(2, 2, 2, horizon=8, running=0.4, switching=0.9)
        init = ArchitectureSet(actuators=(1,), sensors=(1,))
        x_hat, E = np.array([3.0, 1.0]), np.eye(2)
        arch, entry, gains = greedy_swap(sys_, init, x_hat, E, params, cons)
        assert arch != init
        synthesized = synthesize_gains(sys_, arch, E, params)
        for part in ("K", "P", "L", "E"):
            assert all(np.array_equal(a, b) for a, b in
                       zip(getattr(gains, part), getattr(synthesized, part), strict=True))
        _, dense = total_estimated_cost(sys_, arch, init, x_hat, E, params)
        assert entry.running == dense.running and entry.switching == dense.switching
        assert entry.switching > 0.0
        assert entry.predicted == pytest.approx(dense.predicted, rel=1e-12, abs=0.0)
        assert entry.total_estimated == entry.predicted + entry.running + entry.switching

    def test_monotone_improvement_and_feasibility(self, rng):
        for trial in range(15):
            n = 4
            A = rng.standard_normal((n, n)) * 0.8
            sys_ = LinearNetworkSystem(A=A, actuator_pool=np.eye(n),
                                       sensor_pool=np.eye(n),
                                       W=random_psd(rng, n, ridge=0.1), v_var=0.5)
            cons = ArchitectureConstraints(1, 2, 1, 2, max_changes=None,
                                           max_per_subsequence=1)
            init = ArchitectureSet(actuators=(int(rng.integers(0, n)),),
                                   sensors=(int(rng.integers(0, n)),))
            params = uniform_cost_parameters(n, n, n, horizon=5,
                                             running=float(rng.uniform(0, 2)),
                                             switching=float(rng.uniform(0, 2)))
            x_hat = rng.standard_normal(n)
            E = random_psd(rng, n, ridge=0.2)
            arch, entry, _ = greedy_swap(sys_, init, x_hat, E, params, cons)
            assert satisfies_constraints(arch, cons)
            init_cost, _ = total_estimated_cost(sys_, init, init, x_hat, E, params)
            assert entry.total_estimated <= init_cost + 1e-9
            if arch == init:
                assert entry.total_estimated == pytest.approx(init_cost)

    def test_change_budget_respected(self):
        # a chain of useful actuators: unbounded keeps adding, a budget stops it
        sys_, params, init, x_hat, E = _chain_instance()
        free_arch, _, _ = greedy_swap(sys_, init, x_hat, E, params, _chain_constraints(None))
        capped_arch, _, _ = greedy_swap(sys_, init, x_hat, E, params, _chain_constraints(1))
        free_changes = (change_count(init.actuators, free_arch.actuators)
                        + change_count(init.sensors, free_arch.sensors))
        capped_changes = (change_count(init.actuators, capped_arch.actuators)
                          + change_count(init.sensors, capped_arch.sensors))
        assert capped_changes <= 2
        assert free_changes > capped_changes

    def test_infeasible_init_rejected(self):
        sys_, params, cons = _swap_instance()
        bad = ArchitectureSet(actuators=(0, 1), sensors=(0,))
        with pytest.raises(ValueError):
            greedy_swap(sys_, bad, np.ones(2), np.eye(2), params, cons)


def _feasible_archs(M, L, cons):
    """Every architecture within the cardinality bounds, in pool order."""
    acts = [c for k in range(cons.act_min, cons.act_max + 1)
            for c in itertools.combinations(range(M), k)]
    sens = [c for k in range(cons.sen_min, cons.sen_max + 1)
            for c in itertools.combinations(range(L), k)]
    return [ArchitectureSet(actuators=a, sensors=s) for a in acts for s in sens]


class TestSwapMetric:
    """The swap's split-form predicted cost, priced over a whole list of
    architectures at once, against the dense augmented recursion."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("noiseless", [False, True])
    def test_matches_dense_predicted_cost(self, seed, noiseless):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        M, L = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        W = random_psd(rng, n, ridge=0.1 if noiseless else 0.0)
        system = LinearNetworkSystem(
            A=rng.standard_normal((n, n)) / np.sqrt(n), W=W,
            actuator_pool=rng.standard_normal((n, M)),
            sensor_pool=rng.standard_normal((L, n)),
            v_var=0.0 if noiseless else 0.2 + rng.random())
        params = uniform_cost_parameters(n, M, L, horizon=int(rng.integers(1, 6)),
                                         input_weight=0.5 + rng.random(),
                                         running=0.3, switching=0.7)
        # act_min = sen_min = 0: empty actuator and sensor sets are priced too
        cons = ArchitectureConstraints(0, min(M, 3), 0, min(L, 3))
        archs = _feasible_archs(M, L, cons)
        x_hat = 2.0 * rng.standard_normal(n)
        E_t = random_psd(rng, n, ridge=0.2)
        evaluate = _swap_metric_factory(system, archs[0], x_hat, E_t, params)
        pairs = [(a.actuators, a.sensors) for a in archs]
        for arch, (total, predicted) in zip(archs, evaluate(pairs)):
            dense, _ = predicted_cost(system, arch, x_hat, E_t, params)
            assert predicted == pytest.approx(dense, rel=1e-12, abs=0.0)
            assert total == (predicted + running_cost(arch, params)
                             + switching_cost(arch, archs[0], params))

    # lists of (actuators, sensors) pairs the batching must price exactly:
    # (n, M, L, horizon, pairs)
    EDGE_LISTS = {
        # bounds of 0: no actuator or no sensor, alone and together
        "empty_sets": (4, 3, 3, 4, [((), (0, 1)), ((0, 2), ()), ((), ()), ((1,), (2,)),
                                    ((0, 1, 2), ()), ((), (0, 1, 2)), ((0,), ()),
                                    ((1, 2), ()), ((), (1, 2))]),
        # no cross term at all: Y has no columns
        "horizon_1": (4, 3, 3, 1, [((0,), (0,)), ((1,), (0,)), ((0, 1), (0,)),
                                   ((0,), (1, 2)), ((2,), (1, 2)), ((), (1,))]),
        # pairs sharing a sensor set with actuator sets of two sizes, pairs
        # sharing an actuator set with sensor sets of two sizes, singletons
        "mixed_sizes": (5, 4, 4, 5, [((0,), (1, 2)), ((0, 3), (1, 2)), ((1,), (1, 2)),
                                     ((1, 2, 3), (1, 2)), ((0, 3), (0,)), ((0, 3), (0, 1, 3)),
                                     ((0, 3), (3,)), ((0, 3), (0, 2, 3)), ((2,), (0, 1, 2, 3)),
                                     ((0, 1, 2, 3), (1,)), ((0,), (1, 2))]),
        # l tau > n: the factors are wider than the state
        "wide_factors": (3, 3, 4, 5, [((0,), (0, 1, 2)), ((1,), (0, 1, 2)), ((0, 1), (0, 1, 2)),
                                      ((0, 1), (0, 1, 2, 3)), ((0, 1), (1, 2, 3)),
                                      ((2,), (0, 1, 2, 3))]),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_LISTS))
    def test_edge_lists_match_dense_predicted_cost(self, case):
        n, M, L, T, pairs = self.EDGE_LISTS[case]
        rng = np.random.default_rng(len(pairs))
        system = LinearNetworkSystem(
            A=rng.standard_normal((n, n)) / np.sqrt(n), W=random_psd(rng, n),
            actuator_pool=rng.standard_normal((n, M)),
            sensor_pool=rng.standard_normal((L, n)), v_var=0.3)
        params = uniform_cost_parameters(n, M, L, horizon=T, input_weight=0.8)
        params = replace(params, actuator_running=rng.random(M), sensor_running=rng.random(L),
                         actuator_switching=rng.random(M), sensor_switching=rng.random(L))
        init = ArchitectureSet(actuators=(0, 1), sensors=(1,))
        x_hat, E_t = 2.0 * rng.standard_normal(n), random_psd(rng, n, ridge=0.2)
        evaluate = _swap_metric_factory(system, init, x_hat, E_t, params)
        for (acts, sens), (total, predicted) in zip(pairs, evaluate(pairs), strict=True):
            arch = ArchitectureSet(actuators=acts, sensors=sens)
            dense, _ = predicted_cost(system, arch, x_hat, E_t, params)
            assert predicted == pytest.approx(dense, rel=1e-12, abs=0.0)
            assert total == (predicted + running_cost(arch, params)
                             + switching_cost(arch, init, params))

    def test_prices_without_dense_stacks(self):
        # 50 nodes, horizon 10, pools of 5 actuators and 5 sensors: a dense
        # G_tau = K_tau' S_tau K_tau stack for the k actuator sets of the
        # list's additions alone takes k T n^2 8 bytes
        n, T = 50, 10
        rng = np.random.default_rng(7)
        system = LinearNetworkSystem(
            A=stable_matrix(rng, n, radius=1.1), W=np.eye(n),
            actuator_pool=rng.standard_normal((n, 5)),
            sensor_pool=rng.standard_normal((5, n)), v_var=1.0)
        params = uniform_cost_parameters(n, 5, 5, horizon=T, running=1.0, switching=1.0)
        arch = ArchitectureSet(actuators=(0,), sensors=(0,))
        choices = selection_choices(arch, ArchitectureConstraints(1, 3, 1, 3), 5, 5)
        pairs = [(a.actuators, a.sensors) for a in (apply_choice(arch, ch) for ch in choices)]
        k = len({acts for acts, _ in pairs if len(acts) == 2})
        assert k == 4
        evaluate = _swap_metric_factory(system, arch, rng.standard_normal(n), np.eye(n), params)
        tracemalloc.start()
        try:
            evaluate(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * T * n * n * 8

    def test_repeated_lists_reuse_the_caches(self, monkeypatch):
        sys_, params, _ = _swap_instance()
        calls = {"lqr": 0, "kalman": 0}

        def counted(name, factory):
            """Count the stacked calls of the price function factory returns."""
            def make(*args, **kwargs):
                price = factory(*args, **kwargs)

                def wrapper(*a, **kw):
                    calls[name] += 1
                    return price(*a, **kw)
                return wrapper
            return make

        monkeypatch.setattr(greedy_mod, "factored_lqr",
                            counted("lqr", greedy_mod.factored_lqr))
        monkeypatch.setattr(greedy_mod, "factored_kalman",
                            counted("kalman", greedy_mod.factored_kalman))
        archs = _feasible_archs(2, 2, ArchitectureConstraints(0, 2, 0, 2))
        evaluate = _swap_metric_factory(sys_, archs[0], np.ones(2), np.eye(2), params)
        pairs = [(a.actuators, a.sensors) for a in archs]
        first = evaluate(pairs)
        # one stacked call per set size: sizes 0, 1 and 2 on each side
        assert calls == {"lqr": 3, "kalman": 3}
        assert evaluate(pairs[::-1]) == first[::-1]
        assert calls == {"lqr": 3, "kalman": 3}


class TestLeastSquaresIdentify:
    def test_noiseless_recovery_zero_inputs(self, rng):
        n = 4
        A = rng.standard_normal((n, n)) * 0.6
        x = [rng.standard_normal(n)]
        for _ in range(n + 5):
            x.append(A @ x[-1])
        res = least_squares_identify(x, [np.zeros(0)] * (n + 5),
                                     [np.zeros((n, 0))] * (n + 5))
        assert not res.rank_deficient
        assert np.allclose(res.A_hat, A, atol=1e-8)

    def test_exact_recovery_with_inputs(self, rng):
        n, m = 3, 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        x = [rng.standard_normal(n)]
        us = []
        for _ in range(n + 6):
            u = rng.standard_normal(m)
            us.append(u)
            x.append(A @ x[-1] + B @ u)
        res = least_squares_identify(x, us, [B] * (n + 6))
        assert not res.rank_deficient
        assert np.allclose(res.A_hat, A, atol=1e-8)

    def test_rank_deficiency_flagged(self):
        n = 3
        A = np.eye(n)
        x0 = np.array([1.0, 0.0, 0.0])
        x = [x0]
        for _ in range(n + 2):
            x.append(A @ x[-1])      # only one direction ever excited
        res = least_squares_identify(x, [np.zeros(0)] * (n + 2),
                                     [np.zeros((n, 0))] * (n + 2))
        assert res.rank_deficient
        assert res.rank == 1

    def test_too_few_transitions(self):
        with pytest.raises(ValueError):
            least_squares_identify([np.zeros(3)] * 2, [np.zeros(0)], [np.zeros((3, 0))])


class TestGreedyActuatorStateFeedback:
    def test_selects_stabilizing_actuator(self):
        sys_ = canonical_system(np.diag([2.0, 0.5]))
        arch, K, u = greedy_actuator_state_feedback(sys_, np.array([1.0, 1.0]),
                                                    np.eye(2), np.eye(2), 1)
        assert arch.actuators == (0,)
        assert np.allclose(u, K @ np.array([1.0, 1.0]))

    def test_zero_state_lowest_index(self):
        sys_ = canonical_system(np.diag([2.0, 0.5]))
        arch, _, u = greedy_actuator_state_feedback(sys_, np.zeros(2),
                                                    np.eye(2), np.eye(2), 1)
        assert arch.actuators == (0,)
        assert np.allclose(u, 0)

    def test_symmetric_stable_plant_index_order(self):
        sys_ = canonical_system(0.5 * np.eye(2))
        arch, _, _ = greedy_actuator_state_feedback(sys_, np.array([1.0, 1.0]),
                                                    np.eye(2), np.eye(2), 2)
        assert arch.actuators == (0, 1)

    def test_full_cardinality_equals_full_pool_lqr(self, rng):
        n = 4
        A = rng.standard_normal((n, n))
        sys_ = canonical_system(A)
        x = rng.standard_normal(n)
        arch, K, u = greedy_actuator_state_feedback(sys_, x, np.eye(n), np.eye(n), n)
        assert arch.actuators == tuple(range(n))
        P = solve_dare(A, np.eye(n), np.eye(n), np.eye(n))
        K_ref = np.linalg.solve(np.eye(n) + P, P @ A)
        assert np.allclose(K, -K_ref, atol=1e-7)
        assert np.allclose(u, -K_ref @ x, atol=1e-7)

    def test_all_diverged_intermediate_fallback(self):
        # both single-actuator sets leave an unstable uncontrolled mode, so
        # the first pick falls back to index 0; the pair is then stabilizable
        sys_ = canonical_system(np.diag([2.0, 2.0]))
        arch, K, _ = greedy_actuator_state_feedback(sys_, np.array([1.0, 1.0]),
                                                    np.eye(2), np.eye(2), 2)
        assert arch.actuators == (0, 1)
        A_cl = sys_.A + np.eye(2) @ K
        assert np.max(np.abs(np.linalg.eigvals(A_cl))) < 1.0


    @pytest.mark.parametrize("x", [np.full(4, math.nan), np.full(4, math.inf),
                                   np.array([0.0, math.inf, 1.0, 0.0])],
                             ids=["all_nan", "all_inf", "one_inf"])
    def test_non_finite_state_takes_the_lowest_indices(self, x):
        sys_ = canonical_system(np.diag([2.0, 0.5, 0.9, 1.1]))
        with np.errstate(invalid="ignore", over="ignore"):
            arch, K, _ = greedy_actuator_state_feedback(sys_, x, np.eye(4), np.eye(4), 3)
        assert arch.actuators == (0, 1, 2)
        assert K.shape == (3, 4)


class TestGreedyReplay:
    """The stacked-solve selector against an oracle that prices every
    candidate set with scipy's solver, at each state of a recorded run."""

    def test_commits_the_oracle_set_at_every_state(self):
        # the demo network: scipy's answer for every singleton and pair passes
        # the residual check, so the oracle is defined everywhere
        n = 20
        system = random_network_localized(
            n=n, num_unstable=2, unstable_band=(1.2, 1.4), stable_band=(0.2, 0.8),
            seed=13, localization=0.2, exclude_nodes=(0, 1), W=1e-4 * np.eye(n))
        Q, R = np.eye(n), np.eye(n)
        trace = simulate(SimulationConfig(system=system, mode="self_tuning",
                                          feedback="state", T_sim=40, seed=5,
                                          x0_std=3.0, cardinality=2))
        oracle = {}
        for k in (1, 2):
            for c in itertools.combinations(range(n), k):
                idx = list(c)
                oracle[c], accepted = scipy_dare(system.A, system.actuator_pool[:, idx], Q,
                                                 R[np.ix_(idx, idx)])
                assert accepted

        def closest_call(x):
            """Smallest relative gap between the two best x'Px of any round
            of the oracle's greedy run from x."""
            selected, gap = [], math.inf
            while len(selected) < 2:
                costs = sorted((float(x @ P @ x), s)
                               for s in range(n) if s not in selected
                               for P in [oracle[tuple(sorted(selected + [s]))]])
                gap = min(gap, (costs[1][0] - costs[0][0]) / abs(costs[0][0]))
                selected.append(costs[0][1])
            return gap

        cache: dict = {}
        for x in trace.x:
            arch, K, _ = greedy_actuator_state_feedback(system, x, Q, R, 2, dare_cache=cache)
            ref_arch, ref_K, _ = greedy_actuator_state_feedback(system, x, Q, R, 2,
                                                                dare_cache=dict(oracle))
            if arch != ref_arch:
                assert closest_call(x) < 1e-8
                continue
            assert np.allclose(K, ref_K, rtol=1e-6, atol=1e-9)

"""Rollout harness: seeding, determinism, ledger replay, mode coincidences."""

import math
import warnings

import numpy as np
import pytest

from archtune import (
    ArchitectureConstraints,
    ArchitectureSet,
    CostLedger,
    LinearNetworkSystem,
    SimulationConfig,
    accumulate_true_cost,
    compare_runs,
    running_cost,
    simulate,
    switching_cost,
    uniform_cost_parameters,
)
from archtune.costs import input_cost_block
from archtune.network import build_input_matrix, satisfies_constraints
from archtune.simulation import draw_feasible_architecture

from conftest import canonical_system, random_psd


def lqr_fixed_config(arch, seed=7, T_sim=12, A=None, W=None, **kw):
    A = np.diag([2.0, 0.5]) if A is None else A
    sys_ = canonical_system(A, W=0.1 * np.eye(A.shape[0]) if W is None else W)
    return SimulationConfig(system=sys_, mode="fixed", feedback="state",
                            T_sim=T_sim, seed=seed, initial_arch=arch, **kw)


def lqg_config(mode, seed=3, T_sim=8, n=2, horizon=4, **kw):
    sys_ = canonical_system(np.diag([1.4, 0.5])[:n, :n], W=0.05 * np.eye(n),
                            v_var=0.1)
    params = uniform_cost_parameters(n, n, n, horizon=horizon,
                                     running=kw.pop("running", 0.0),
                                     switching=kw.pop("switching", 0.0))
    cons = kw.pop("constraints",
                  ArchitectureConstraints(1, n, 1, n, max_changes=None,
                                          max_per_subsequence=1))
    return SimulationConfig(system=sys_, mode=mode, feedback="output",
                            T_sim=T_sim, seed=seed, params=params,
                            constraints=cons, **kw)


class TestConfigValidation:
    def test_bad_mode_feedback_policy(self):
        sys_ = canonical_system(np.eye(2))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="adaptive", feedback="state",
                             T_sim=5, seed=0, initial_arch=ArchitectureSet((0,), ()))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="open_loop",
                             T_sim=5, seed=0, initial_arch=ArchitectureSet((0,), ()))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0, initial_arch=ArchitectureSet((0,), ()),
                             diverged_policy="explode")

    def test_horizon_and_scales(self):
        sys_ = canonical_system(np.eye(2))
        arch = ArchitectureSet((0,), ())
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=0, seed=0, initial_arch=arch)
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0, initial_arch=arch, x0_std=-1.0)

    def test_output_needs_params_and_constraints(self):
        sys_ = canonical_system(np.eye(2))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="output",
                             T_sim=5, seed=0)

    def test_state_mode_requirements(self):
        sys_ = canonical_system(np.eye(2))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="self_tuning", feedback="state",
                             T_sim=5, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="self_tuning", feedback="state",
                             T_sim=5, seed=0, cardinality=3)

    @pytest.mark.parametrize("mode", ["fixed", "self_tuning"])
    def test_state_R_sized_over_the_pool_and_definite(self, mode):
        # three actuators in the pool, two of them active in the fixed run
        common = dict(system=canonical_system(np.diag([1.2, 0.5, 0.5])), mode=mode,
                      feedback="state", T_sim=3, seed=0,
                      initial_arch=ArchitectureSet((0, 1), ()), cardinality=2)
        with pytest.raises(ValueError, match="3x3"):
            SimulationConfig(state_R=np.eye(2), **common)
        with pytest.raises(ValueError, match="positive definite"):
            SimulationConfig(state_R=np.diag([1.0, 1.0, 0.0]), **common)
        for state_R in (2.0, np.diag([1.0, 2.0, 3.0])):
            tr = simulate(SimulationConfig(state_R=state_R, **common))
            assert np.all(np.isfinite(tr.x))

    def test_initial_arch_pool_range(self):
        sys_ = canonical_system(np.eye(2))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0, initial_arch=ArchitectureSet((2,), ()))
        with pytest.raises(ValueError):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0,
                             initial_arch=ArchitectureSet((0,), (5,)))

    def test_initial_arch_against_constraints(self):
        sys_ = canonical_system(np.eye(2))
        cons = ArchitectureConstraints(1, 1, 1, 1, max_changes=None,
                                       max_per_subsequence=1)
        with pytest.raises(ValueError, match="violates"):
            SimulationConfig(system=sys_, mode="fixed", feedback="state",
                             T_sim=5, seed=0,
                             initial_arch=ArchitectureSet((0, 1), (0,)),
                             constraints=cons)

    @pytest.mark.parametrize("mode", ["fixed", "self_tuning"])
    def test_output_bounds_within_pools(self, mode):
        # a bound past its pool used to pass here and fail later: in greedy_swap
        # at step 0, or in the initial draw when a minimum passes the pool too
        for bounds in ((1, 3, 1, 2), (1, 2, 1, 3), (3, 3, 1, 1)):
            cons = ArchitectureConstraints(*bounds, max_changes=None, max_per_subsequence=1)
            with pytest.raises(ValueError, match="exceed pool sizes"):
                lqg_config(mode, constraints=cons)
        lqg_config(mode, constraints=ArchitectureConstraints(2, 2, 2, 2))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            lqr_fixed_config(ArchitectureSet((0,), ()), seed=-1)

    def test_noiseless_sensors_need_definite_covariances(self):
        base = lqg_config("fixed", initial_arch=ArchitectureSet((0,), (0,)))
        noiseless = canonical_system(base.system.A, W=np.zeros((2, 2)), v_var=0.0)
        common = dict(mode="fixed", feedback="output", T_sim=5, seed=0,
                      params=base.params, constraints=base.constraints)
        with pytest.raises(ValueError, match="E0_scale"):
            SimulationConfig(system=noiseless, E0_scale=0.0, **common)
        with pytest.raises(ValueError, match="positive definite"):
            SimulationConfig(system=noiseless, E0_scale=1.0, **common)
        ok = canonical_system(base.system.A, W=0.05 * np.eye(2), v_var=0.0)
        tr = simulate(SimulationConfig(system=ok, E0_scale=1.0, **common))
        assert np.all(np.isfinite(tr.x_hat))


class TestDeterminism:
    def test_lqr_bitwise_repeatable(self):
        cfg = lqr_fixed_config(ArchitectureSet((0, 1), ()))
        tr1, tr2 = simulate(cfg), simulate(cfg)
        assert np.array_equal(tr1.x, tr2.x)
        assert all(np.array_equal(a, b) for a, b in zip(tr1.inputs, tr2.inputs))
        assert [e.cumulative_true for e in tr1.ledger.entries] == \
               [e.cumulative_true for e in tr2.ledger.entries]

    def test_lqg_bitwise_repeatable(self):
        cfg = lqg_config("self_tuning", switching=0.5)
        tr1, tr2 = simulate(cfg), simulate(cfg)
        assert np.array_equal(tr1.x, tr2.x)
        assert np.array_equal(tr1.x_hat, tr2.x_hat)
        assert tr1.archs == tr2.archs
        assert tr1.final_cumulative_cost == tr2.final_cumulative_cost

    def test_seed_changes_rollout(self):
        cfg_a = lqr_fixed_config(ArchitectureSet((0, 1), ()), seed=1)
        cfg_b = lqr_fixed_config(ArchitectureSet((0, 1), ()), seed=2)
        assert not np.array_equal(simulate(cfg_a).x[0], simulate(cfg_b).x[0])


class TestNoiseStreams:
    def test_disturbances_shared_across_architectures(self):
        # same seed, different fixed actuator sets: identical x0 and w_t
        arch_a = ArchitectureSet((0, 1), ())
        arch_b = ArchitectureSet((0,), ())
        tr_a = simulate(lqr_fixed_config(arch_a))
        tr_b = simulate(lqr_fixed_config(arch_b))
        assert np.array_equal(tr_a.x[0], tr_b.x[0])
        A = tr_a.config.system.A
        for tr, arch in ((tr_a, arch_a), (tr_b, arch_b)):
            B = build_input_matrix(tr.config.system, arch)
            w = [tr.x[t + 1] - A @ tr.x[t] - B @ tr.inputs[t]
                 for t in range(tr.config.T_sim)]
            if tr is tr_a:
                w_ref = w
        w_b = [tr_b.x[t + 1] - A @ tr_b.x[t]
               - build_input_matrix(tr_b.config.system, arch_b) @ tr_b.inputs[t]
               for t in range(tr_b.config.T_sim)]
        for wa, wb in zip(w_ref, w_b):
            assert np.allclose(wa, wb, atol=1e-12)

    def test_state_and_output_runs_share_initial_state(self):
        seed = 11
        tr_lqr = simulate(lqr_fixed_config(ArchitectureSet((0, 1), ()), seed=seed))
        tr_lqg = simulate(lqg_config("fixed", seed=seed,
                                     initial_arch=ArchitectureSet((0, 1), (0, 1))))
        assert np.array_equal(tr_lqr.x[0], tr_lqg.x[0])


class TestLedgerReplay:
    def test_lqr_stage_costs_recomputable(self):
        params = uniform_cost_parameters(2, 2, 2, horizon=4, running=0.3,
                                         switching=0.7)
        cfg = lqr_fixed_config(ArchitectureSet((0, 1), ()), params=params)
        tr = simulate(cfg)
        Q = np.eye(2)
        replay = CostLedger()
        for t in range(cfg.T_sim):
            arch = tr.archs[t]
            u = tr.inputs[t]
            Rb = np.eye(len(arch.actuators))
            stage = float(tr.x[t] @ Q @ tr.x[t] + u @ Rb @ u)
            run = running_cost(arch, params)
            prev = tr.archs[t - 1] if t else arch
            switch = switching_cost(arch, prev, params)
            accumulate_true_cost(replay, stage, run, switch, t)
            assert replay.entries[t].cumulative_true == pytest.approx(
                tr.ledger.entries[t].cumulative_true, rel=1e-12)

    def test_lqg_stage_costs_recomputable(self):
        cfg = lqg_config("self_tuning", running=0.2, switching=0.4)
        tr = simulate(cfg)
        params = cfg.params
        Q = params.state_cost
        replay = CostLedger()
        prev = None
        for t in range(cfg.T_sim):
            arch = tr.archs[t]
            u = tr.inputs[t]
            R1a = input_cost_block(params.input_cost, arch.actuators)
            stage = float(tr.x[t] @ Q @ tr.x[t] + u @ R1a @ u)
            run = running_cost(arch, params)
            switch = switching_cost(arch, prev, params) if prev is not None else \
                tr.ledger.entries[0].switching
            accumulate_true_cost(replay, stage, run, switch, t)
            assert replay.entries[t].cumulative_true == pytest.approx(
                tr.ledger.entries[t].cumulative_true, rel=1e-12)
            prev = arch
        assert tr.final_cumulative_cost == tr.ledger.entries[-1].cumulative_true

    def test_switching_excluded_at_start(self):
        # the first commit abandons the handed-over architecture, yet the
        # cumulative total at t = 0 carries no switching charge
        sys_ = canonical_system(np.diag([2.0, 0.5]), W=np.eye(2), v_var=0.1)
        params = uniform_cost_parameters(2, 2, 2, horizon=4, switching=0.5)
        cons = ArchitectureConstraints(1, 1, 1, 1, max_changes=None,
                                       max_per_subsequence=1)
        cfg = SimulationConfig(system=sys_, mode="self_tuning", feedback="output",
                               T_sim=4, seed=2, params=params, constraints=cons,
                               initial_arch=ArchitectureSet((1,), (1,)), x0_std=3.0)
        tr = simulate(cfg)
        e0 = tr.ledger.entries[0]
        assert tr.archs[0] != cfg.initial_arch
        assert e0.switching > 0
        stage0 = float(tr.x[0] @ params.state_cost @ tr.x[0]
                       + tr.inputs[0] @ input_cost_block(params.input_cost, tr.archs[0].actuators)
                       @ tr.inputs[0])
        assert e0.cumulative_true == pytest.approx(stage0 + e0.running, rel=1e-12)


class TestModeCoincidences:
    def test_full_pool_self_tuning_matches_fixed(self):
        n = 2
        full = ArchitectureSet(tuple(range(n)), tuple(range(n)))
        pinned = ArchitectureConstraints(n, n, n, n, max_changes=None,
                                         max_per_subsequence=1)
        cfg_fix = lqg_config("fixed", initial_arch=full, constraints=pinned)
        cfg_self = lqg_config("self_tuning", initial_arch=full, constraints=pinned)
        tr_fix, tr_self = simulate(cfg_fix), simulate(cfg_self)
        assert tr_fix.archs == tr_self.archs
        assert np.array_equal(tr_fix.x, tr_self.x)
        assert np.array_equal(tr_fix.x_hat, tr_self.x_hat)
        for ef, es in zip(tr_fix.ledger.entries, tr_self.ledger.entries):
            assert ef.predicted == pytest.approx(es.predicted, rel=1e-9)
            assert ef.cumulative_true == pytest.approx(es.cumulative_true, rel=1e-12)

    def test_empty_actuator_set_decays_open_loop(self):
        cfg = lqr_fixed_config(ArchitectureSet((), ()), A=0.5 * np.eye(2),
                               W=np.zeros((2, 2)), T_sim=20)
        tr = simulate(cfg)
        assert all(u.shape == (0,) for u in tr.inputs)
        norms = np.linalg.norm(tr.x, axis=1)
        assert norms[-1] < 1e-4 * norms[0]
        for t in range(cfg.T_sim):
            assert np.allclose(tr.x[t + 1], 0.5 * tr.x[t])


class TestDivergedPolicy:
    def test_warning_and_zero_gain(self):
        # actuator 1 leaves the unstable first node uncontrolled
        cfg = lqr_fixed_config(ArchitectureSet((1,), ()), diverged_policy="zero",
                               T_sim=5)
        tr = simulate(cfg)
        assert tr.warnings
        assert "no stabilizing" in tr.warnings[0]
        assert all(np.allclose(u, 0) for u in tr.inputs)
        assert all(e.predicted == math.inf for e in tr.ledger.entries)

    def test_last_gain_fallback_still_runs(self):
        cfg = lqr_fixed_config(ArchitectureSet((1,), ()),
                               diverged_policy="last_gain", T_sim=5)
        tr = simulate(cfg)
        assert tr.warnings
        assert np.all(np.isfinite(tr.x))


class TestDivergenceWarning:
    def test_one_warning_when_the_state_passes_the_guard(self):
        # actuator 1 leaves the first node, growing tenfold a step, unreached
        cfg = lqr_fixed_config(ArchitectureSet((1,), ()), A=np.diag([10.0, 0.5]),
                               T_sim=20)
        tr = simulate(cfg)
        diverged = [w for w in tr.warnings if w.startswith("state diverged")]
        first = int(np.argmax(np.linalg.norm(tr.x, axis=1) > 1e12))
        assert diverged == [f"state diverged at step {first}: |x| = "
                            f"{np.linalg.norm(tr.x[first]):.3e} is past 1e+12"]

    @pytest.mark.parametrize("mode", ["fixed", "self_tuning"])
    def test_overflow_past_the_guard_stays_quiet(self, mode):
        # 400 steps take the state past the float range: numpy's overflow
        # and invalid-value warnings are replaced by the one trace warning
        if mode == "fixed":
            cfg = lqr_fixed_config(ArchitectureSet((1,), ()), A=np.diag([10.0, 0.5]),
                                   T_sim=400)
        else:
            # the one actuator cannot reach the first node; the selector
            # runs every step on the overflowing state
            sys_ = LinearNetworkSystem(A=np.diag([10.0, 0.5]),
                                       actuator_pool=np.array([[0.0], [1.0]]),
                                       sensor_pool=np.eye(2), W=0.1 * np.eye(2))
            cfg = SimulationConfig(system=sys_, mode="self_tuning", feedback="state",
                                   T_sim=400, seed=7, cardinality=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = simulate(cfg)
        assert not np.all(np.isfinite(tr.x))
        assert len([w for w in tr.warnings if w.startswith("state diverged")]) == 1

    @pytest.mark.parametrize("mode", ["fixed", "self_tuning"])
    def test_covariance_overflow_stays_quiet(self, mode):
        # no sensor sees the first node, so E grows a hundredfold a step past
        # the float range; numpy's warnings give way to one trace warning
        sys_ = LinearNetworkSystem(A=np.diag([10.0, 0.5]), actuator_pool=np.eye(2),
                                   sensor_pool=np.array([[0.0, 1.0], [0.0, 1.0]]),
                                   W=0.1 * np.eye(2), v_var=0.1)
        cfg = SimulationConfig(system=sys_, mode=mode, feedback="output", T_sim=400,
                               seed=0, initial_arch=ArchitectureSet((1,), (1,)),
                               constraints=ArchitectureConstraints(1, 1, 1, 1),
                               params=uniform_cost_parameters(2, 2, 2, horizon=4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr = simulate(cfg)
        assert caught == []
        diverged = [w for w in tr.warnings if w.startswith("error covariance diverged")]
        # E_t = 100^t E_0 + ..., past 1e12 at t = 6
        assert diverged == ["error covariance diverged at step 6: |E| = 1.001e+12 is past 1e+12"]

    def test_finite_runs_carry_no_warning(self):
        tr = simulate(lqr_fixed_config(ArchitectureSet((0, 1), ()), T_sim=30))
        assert tr.warnings == []
        assert simulate(lqg_config("self_tuning", T_sim=10)).warnings == []


class TestSelfTuningLqr:
    def test_selector_targets_unstable_node(self):
        sys_ = canonical_system(np.diag([2.0, 0.5]), W=0.01 * np.eye(2))
        cfg = SimulationConfig(system=sys_, mode="self_tuning", feedback="state",
                               T_sim=15, seed=5, cardinality=1)
        tr = simulate(cfg)
        assert all(len(a.actuators) == 1 for a in tr.archs)
        assert tr.max_state_norm < 50
        # once the state has node-0 content the selector must cover it
        assert tr.archs[0].actuators == (0,)

    def test_identified_dynamics_mode_runs(self):
        sys_ = canonical_system(np.diag([1.2, 0.5]), W=0.05 * np.eye(2))
        cfg = SimulationConfig(system=sys_, mode="self_tuning", feedback="state",
                               T_sim=12, seed=9, cardinality=1, identify=True)
        tr = simulate(cfg)
        assert np.all(np.isfinite(tr.x))
        assert len(tr.archs) == 12
        assert tr.max_state_norm < 100


class TestCompareRuns:
    def test_identical_runs_give_unit_ratio(self):
        cfg = lqr_fixed_config(ArchitectureSet((0, 1), ()))
        tr = simulate(cfg)
        summary = compare_runs([tr, simulate(cfg)])
        assert summary.cost_ratio == pytest.approx(1.0)
        assert summary.final_cumulative[0] == summary.final_cumulative[1]
        assert all(c == 0 for c in summary.change_counts[0])

    def test_needs_two_traces(self):
        cfg = lqr_fixed_config(ArchitectureSet((0, 1), ()))
        with pytest.raises(ValueError):
            compare_runs([simulate(cfg)])

    def test_ratio_direction(self):
        # first trace unstabilized, last stabilized: ratio far above one
        bad = simulate(lqr_fixed_config(ArchitectureSet((1,), ()),
                                        diverged_policy="zero"))
        good = simulate(lqr_fixed_config(ArchitectureSet((0, 1), ())))
        summary = compare_runs([bad, good])
        assert summary.cost_ratio > 1.0
        assert summary.max_state_norm[0] > summary.max_state_norm[1]


class TestDrawFeasibleArchitecture:
    def test_draws_respect_constraints(self):
        rng = np.random.default_rng(42)
        cons = ArchitectureConstraints(1, 3, 2, 4, max_changes=None,
                                       max_per_subsequence=1)
        for _ in range(200):
            arch = draw_feasible_architecture(rng, 5, 6, cons)
            assert satisfies_constraints(arch, cons)
            assert all(a < 5 for a in arch.actuators)
            assert all(s < 6 for s in arch.sensors)

    def test_degenerate_bounds_fix_cardinalities(self):
        rng = np.random.default_rng(0)
        cons = ArchitectureConstraints(2, 2, 3, 3, max_changes=None,
                                       max_per_subsequence=1)
        for _ in range(20):
            arch = draw_feasible_architecture(rng, 4, 4, cons)
            assert len(arch.actuators) == 2
            assert len(arch.sensors) == 3

    def test_deterministic_for_seeded_stream(self):
        cons = ArchitectureConstraints(1, 2, 1, 2, max_changes=None,
                                       max_per_subsequence=1)
        a = draw_feasible_architecture(np.random.default_rng(7), 4, 4, cons)
        b = draw_feasible_architecture(np.random.default_rng(7), 4, 4, cons)
        assert a == b


class TestTraceShapes:
    def test_lqg_trace_dimensions(self):
        cfg = lqg_config("self_tuning", T_sim=6)
        tr = simulate(cfg)
        n = cfg.system.n
        assert tr.x.shape == (7, n)
        assert tr.x_hat.shape == (7, n)
        assert len(tr.inputs) == 6
        assert len(tr.archs) == 6
        assert len(tr.ledger.entries) == 6
        assert tr.compute_time.shape == (6,)
        changes = tr.per_step_changes()
        assert len(changes) == 6
        assert changes[0] == 0

"""Cost model: augmented closed loop, predicted cost, architecture costs."""

import numpy as np
import pytest

from archtune import (
    ArchitectureSet,
    CostLedger,
    CostParameters,
    LinearNetworkSystem,
    accumulate_true_cost,
    predicted_cost,
    running_cost,
    switching_cost,
    total_estimated_cost,
    true_stage_cost,
    uniform_cost_parameters,
)
from archtune.costs import (
    LedgerEntry,
    input_cost_block,
    build_augmented,
    ledger_entry,
    predicted_cost_with_gains,
    synthesize_gains,
)
from archtune._lin import symmetrize

from conftest import canonical_system, random_psd, stable_matrix


def scalar_system(a=1.0, w=0.0, v=1.0):
    return LinearNetworkSystem(A=np.array([[a]]), actuator_pool=np.array([[1.0]]),
                               sensor_pool=np.array([[1.0]]), W=np.array([[w]]),
                               v_var=v)


ARCH1 = ArchitectureSet(actuators=(0,), sensors=(0,))


def random_output_instance(rng, n_max=8, horizon_max=10, v_floor=0.3):
    n = int(rng.integers(2, n_max + 1))
    A = rng.standard_normal((n, n)) / np.sqrt(n) * float(rng.uniform(0.5, 1.5))
    sys_ = LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                               W=random_psd(rng, n), v_var=v_floor + rng.random())
    k = int(rng.integers(1, n))
    l = int(rng.integers(1, n))
    arch = ArchitectureSet(
        actuators=tuple(sorted(rng.choice(n, k, replace=False).tolist())),
        sensors=tuple(sorted(rng.choice(n, l, replace=False).tolist())))
    params = uniform_cost_parameters(n, n, n, horizon=int(rng.integers(1, horizon_max)),
                                     input_weight=0.5 + rng.random())
    E0 = random_psd(rng, n, ridge=0.2)
    x_hat = 2.0 * rng.standard_normal(n)
    return sys_, arch, params, E0, x_hat


class TestCostParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_cost_parameters(2, 2, 2, horizon=0)
        with pytest.raises(ValueError):
            CostParameters(state_cost=-np.eye(2), input_cost=np.eye(2),
                           terminal_cost=np.eye(2), actuator_running=np.zeros(2),
                           sensor_running=np.zeros(2), actuator_switching=np.zeros(2),
                           sensor_switching=np.zeros(2), horizon=1)
        with pytest.raises(ValueError):
            CostParameters(state_cost=np.eye(2), input_cost=np.eye(2),
                           terminal_cost=np.eye(2), actuator_running=np.array([-1.0, 0]),
                           sensor_running=np.zeros(2), actuator_switching=np.zeros(2),
                           sensor_switching=np.zeros(2), horizon=1)

    def test_active_input_block(self):
        params = uniform_cost_parameters(3, 3, 3, horizon=1)
        R = np.diag([1.0, 2.0, 3.0])
        params = CostParameters(state_cost=np.eye(3), input_cost=R,
                                terminal_cost=np.eye(3), actuator_running=np.zeros(3),
                                sensor_running=np.zeros(3), actuator_switching=np.zeros(3),
                                sensor_switching=np.zeros(3), horizon=1)
        block = input_cost_block(params.input_cost, (0, 2))
        assert np.array_equal(block, np.diag([1.0, 3.0]))

    def test_input_cost_block_forms(self):
        R = np.diag([1.0, 2.0, 3.0])
        stack = np.array([[0, 1], [1, 2]])
        assert np.array_equal(input_cost_block(R, stack),
                              [np.diag([1.0, 2.0]), np.diag([2.0, 3.0])])
        assert np.array_equal(input_cost_block(2.0, (0, 2)), 2.0 * np.eye(2))
        assert np.array_equal(input_cost_block(2.0, stack), [2.0 * np.eye(2)] * 2)
        assert input_cost_block(R, ()).shape == (0, 0)
        assert input_cost_block(2.0, ()).shape == (0, 0)


class TestBuildAugmented:
    def test_scalar_closed_loop_matrix(self):
        sys_ = scalar_system()
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        gains = synthesize_gains(sys_, ARCH1, np.array([[1.0]]), params)
        step = build_augmented(sys_, ARCH1, gains, 0, params)
        assert np.allclose(step.A_bar, [[1.0, -0.5], [0.5, 0.0]])

    def test_open_loop_blocks(self, rng):
        from archtune import GainSchedule
        n = 3
        A = rng.standard_normal((n, n))
        sys_ = LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                                   W=random_psd(rng, n), v_var=1.0)
        arch = ArchitectureSet(actuators=(0,), sensors=(1,))
        params = uniform_cost_parameters(n, n, n, horizon=1)
        gains = GainSchedule(horizon=1, K=[np.zeros((1, n))], P=[np.eye(n)] * 2,
                             L=[np.zeros((n, 1))], E=[np.eye(n)] * 2)
        step = build_augmented(sys_, arch, gains, 0, params)
        assert np.allclose(step.A_bar[:n, :n], A)
        assert np.allclose(step.A_bar[:n, n:], 0)
        assert np.allclose(step.A_bar[n:, :n], 0)
        assert np.allclose(step.A_bar[n:, n:], A)
        # no feedback: zero input-cost block and zero estimator noise block
        assert np.allclose(step.Q_bar[n:, n:], 0)
        assert np.allclose(step.W_bar[:n, :n], sys_.W)
        assert np.allclose(step.W_bar[n:, n:], 0)

    def test_w_bar_factored_form(self, rng):
        sys_, arch, params, E0, _ = random_output_instance(rng)
        gains = synthesize_gains(sys_, arch, E0, params)
        step = build_augmented(sys_, arch, gains, 0, params)
        l = len(arch.sensors)
        n = sys_.n
        cov = np.zeros((n + l, n + l))
        cov[:n, :n] = sys_.W
        cov[n:, n:] = sys_.v_var * np.eye(l)
        assert np.allclose(step.W_bar, step.F @ cov @ step.F.T, atol=1e-10)


class TestPredictedCost:
    def test_scalar_hand_value(self):
        sys_ = scalar_system(a=1.0, w=0.0, v=1.0)
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        J, gains = predicted_cost(sys_, ARCH1, np.array([1.0]), np.array([[1.0]]), params)
        assert np.isclose(gains.K[0][0, 0], 0.5)
        assert np.isclose(gains.L[0][0, 0], 0.5)
        assert np.isclose(J, 1.5)

    def test_zero_state_zero_process_noise(self):
        sys_ = scalar_system(a=1.0, w=0.0, v=3.0)
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        J, _ = predicted_cost(sys_, ARCH1, np.array([0.0]), np.array([[1.0]]), params)
        assert np.isclose(J, 0.0)

    def test_bad_state_shape(self):
        sys_ = scalar_system()
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        with pytest.raises(ValueError):
            predicted_cost(sys_, ARCH1, np.array([1.0, 2.0]), np.array([[1.0]]), params)

    def test_nonnegative_on_random_instances(self, rng):
        for _ in range(15):
            sys_, arch, params, E0, x_hat = random_output_instance(rng)
            J, _ = predicted_cost(sys_, arch, x_hat, E0, params)
            assert J >= -1e-10

    def test_nondecreasing_in_terminal_cost(self, rng):
        for _ in range(10):
            sys_, arch, params, E0, x_hat = random_output_instance(rng)
            bumped = CostParameters(
                state_cost=params.state_cost, input_cost=params.input_cost,
                terminal_cost=params.terminal_cost + random_psd(rng, sys_.n),
                actuator_running=params.actuator_running,
                sensor_running=params.sensor_running,
                actuator_switching=params.actuator_switching,
                sensor_switching=params.sensor_switching, horizon=params.horizon)
            J0, _ = predicted_cost(sys_, arch, x_hat, E0, params)
            J1, _ = predicted_cost(sys_, arch, x_hat, E0, bumped)
            assert J1 >= J0 - 1e-8

    def test_block_recursion_matches_dense_recursion(self, rng):
        # the production evaluator works on n x n blocks; this replays the
        # literal 2n x 2n recursion through build_augmented
        for _ in range(15):
            sys_, arch, params, E0, x_hat = random_output_instance(rng)
            gains = synthesize_gains(sys_, arch, E0, params)
            fast = predicted_cost_with_gains(sys_, arch, x_hat, gains, params)
            n = sys_.n
            T = params.horizon
            Z = np.zeros((2 * n, 2 * n))
            Z[:n, :n] = params.terminal_cost
            acc = 0.0
            for tau in range(T - 1, -1, -1):
                step = build_augmented(sys_, arch, gains, tau, params)
                acc += float(np.sum(Z * step.W_bar))
                Z = symmetrize(step.A_bar.T @ Z @ step.A_bar) + step.Q_bar
            X = np.concatenate([x_hat, x_hat])
            dense = float(X @ Z @ X) + acc
            assert np.isclose(fast, dense, rtol=1e-9, atol=1e-9)

    def test_monte_carlo_consistency_single_instance(self, rng):
        # small-sample version of the rollout consistency check
        sys_, arch, params, E0, x_hat = random_output_instance(rng, n_max=4,
                                                               horizon_max=6)
        J, gains = predicted_cost(sys_, arch, x_hat, E0, params)
        mean, se = monte_carlo_cost(sys_, arch, gains, params, x_hat,
                                    rollouts=4000, seed=99)
        assert abs(mean - J) <= 3 * se + 1e-9


def monte_carlo_cost(system, arch, gains, params, x_hat, rollouts, seed):
    """Empirical mean of the augmented-rollout cost, all rollouts batched."""
    n = system.n
    T = params.horizon
    rng = np.random.default_rng(seed)
    X = np.tile(np.concatenate([x_hat, x_hat]), (rollouts, 1))
    total = np.zeros(rollouts)
    for tau in range(T):
        step = build_augmented(system, arch, gains, tau, params)
        total += np.einsum("ri,ij,rj->r", X, step.Q_bar, X)
        lam, U = np.linalg.eigh(step.W_bar)
        factor = U * np.sqrt(np.clip(lam, 0.0, None))
        noise = rng.standard_normal((rollouts, 2 * n)) @ factor.T
        X = X @ step.A_bar.T + noise
    Q_term = np.zeros((2 * n, 2 * n))
    Q_term[:n, :n] = params.terminal_cost
    total += np.einsum("ri,ij,rj->r", X, Q_term, X)
    return float(total.mean()), float(total.std(ddof=1) / np.sqrt(rollouts))


class TestTrueStageCost:
    def test_zero_state(self):
        sys_ = scalar_system()
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        gains = synthesize_gains(sys_, ARCH1, np.array([[1.0]]), params)
        assert true_stage_cost(np.zeros(1), np.zeros(1), ARCH1, gains, params) == 0.0

    def test_zero_gain_leaves_state_cost(self, rng):
        from archtune import GainSchedule
        n = 3
        sys_ = canonical_system(rng.standard_normal((n, n)))
        arch = ArchitectureSet(actuators=(0,), sensors=(0,))
        params = uniform_cost_parameters(n, n, n, horizon=1)
        gains = GainSchedule(horizon=1, K=[np.zeros((1, n))], P=[np.eye(n)] * 2,
                             L=[np.zeros((n, 1))], E=[np.eye(n)] * 2)
        x = rng.standard_normal(n)
        val = true_stage_cost(x, rng.standard_normal(n), arch, gains, params)
        assert np.isclose(val, x @ x)

    def test_scalar_hand_value(self):
        from archtune import GainSchedule
        sys_ = scalar_system()
        params = uniform_cost_parameters(1, 1, 1, horizon=1)
        gains = GainSchedule(horizon=1, K=[np.array([[0.5]])], P=[np.eye(1)] * 2,
                             L=[np.array([[0.5]])], E=[np.eye(1)] * 2)
        val = true_stage_cost(np.array([2.0]), np.array([1.0]), ARCH1, gains, params)
        assert np.isclose(val, 4.25)


class TestArchitectureCosts:
    def test_running_uniform_rates(self):
        params = uniform_cost_parameters(2, 5, 5, horizon=1, running=100.0)
        arch = ArchitectureSet(actuators=(0, 1, 2), sensors=(3, 4))
        assert running_cost(arch, params) == 500.0

    def test_running_empty(self):
        params = uniform_cost_parameters(2, 3, 3, horizon=1, running=100.0)
        assert running_cost(ArchitectureSet(actuators=(), sensors=()), params) == 0.0

    def test_running_heterogeneous(self):
        params = CostParameters(state_cost=np.eye(2), input_cost=np.eye(3),
                                terminal_cost=np.eye(2),
                                actuator_running=np.array([1.0, 2.0, 3.0]),
                                sensor_running=np.zeros(3),
                                actuator_switching=np.zeros(3),
                                sensor_switching=np.zeros(3), horizon=1)
        arch = ArchitectureSet(actuators=(0, 2), sensors=())
        assert running_cost(arch, params) == 4.0

    def test_switching_no_change(self):
        params = uniform_cost_parameters(2, 3, 3, horizon=1, switching=100.0)
        a = ArchitectureSet(actuators=(0, 1), sensors=(2,))
        assert switching_cost(a, a, params) == 0.0

    def test_switching_actuator_swap(self):
        params = uniform_cost_parameters(2, 2, 2, horizon=1, switching=100.0)
        a_now = ArchitectureSet(actuators=(0,), sensors=(0,))
        a_prev = ArchitectureSet(actuators=(1,), sensors=(0,))
        assert switching_cost(a_now, a_prev, params) == 200.0

    def test_switching_single_sensor_toggle(self):
        params = uniform_cost_parameters(2, 2, 2, horizon=1, switching=100.0)
        a_now = ArchitectureSet(actuators=(0,), sensors=(0, 1))
        a_prev = ArchitectureSet(actuators=(0,), sensors=(0,))
        assert switching_cost(a_now, a_prev, params) == 100.0

    def test_switching_symmetry(self, rng):
        params = uniform_cost_parameters(2, 6, 6, horizon=1, switching=7.0)
        from conftest import random_arch
        for _ in range(30):
            a = random_arch(rng, 6, 6)
            b = random_arch(rng, 6, 6)
            assert switching_cost(a, b, params) == switching_cost(b, a, params)
            assert switching_cost(a, a, params) == 0.0

    def test_deactivation_costs_the_rate(self):
        params = uniform_cost_parameters(2, 2, 2, horizon=1, switching=100.0)
        a_now = ArchitectureSet(actuators=(0,), sensors=())
        a_prev = ArchitectureSet(actuators=(0, 1), sensors=())
        assert switching_cost(a_now, a_prev, params) == 100.0

class TestTotalEstimatedCost:
    def test_equals_predicted_when_rates_zero(self, rng):
        sys_, arch, params, E0, x_hat = random_output_instance(rng)
        J, _ = predicted_cost(sys_, arch, x_hat, E0, params)
        total, entry = total_estimated_cost(sys_, arch, arch, x_hat, E0, params)
        assert np.isclose(total, J)
        assert entry.running == 0.0 and entry.switching == 0.0
        # without cost parameters even a changed architecture costs nothing
        for t in (None, 5):
            bare = ledger_entry(J, arch, ArchitectureSet((), ()), None, t)
            assert (bare.t, bare.running, bare.switching) == (t, 0.0, 0.0)
            assert bare.predicted == bare.total_estimated == J

    def test_scalar_with_running(self):
        sys_ = scalar_system(a=1.0, w=0.0, v=1.0)
        params = uniform_cost_parameters(1, 1, 1, horizon=1, running=250.0)
        total, entry = total_estimated_cost(sys_, ARCH1, ARCH1, np.array([1.0]),
                                            np.array([[1.0]]), params)
        # one actuator and one sensor at rate 250 each on top of 1.5
        assert np.isclose(total, 501.5)
        assert np.isclose(entry.predicted, 1.5)
        assert entry.switching == 0.0
        assert entry.t is None
        direct = ledger_entry(entry.predicted, ARCH1, ARCH1, params, t=3)
        assert (direct.t, direct.running, direct.total_estimated) == (3, 500.0, total)

    def test_no_switch_contribution_when_unchanged(self):
        sys_ = scalar_system()
        params = uniform_cost_parameters(1, 1, 1, horizon=1, switching=100.0)
        _, entry = total_estimated_cost(sys_, ARCH1, ARCH1, np.array([1.0]),
                                        np.array([[1.0]]), params)
        assert entry.switching == 0.0


class TestAccumulateTrueCost:
    def test_switching_excluded_at_time_zero(self):
        led = CostLedger()
        accumulate_true_cost(led, stage=1.0, running=2.0, switching=100.0, t=0)
        assert led.entries[0].cumulative_true == 3.0

    def test_all_zero(self):
        led = CostLedger()
        accumulate_true_cost(led, 0.0, 0.0, 0.0, t=0)
        assert led.entries[0].cumulative_true == 0.0

    def test_two_step_hand_value(self):
        led = CostLedger()
        accumulate_true_cost(led, 1.0, 2.0, 5.0, t=0)
        accumulate_true_cost(led, 1.0, 2.0, 5.0, t=1)
        assert led.entries[1].cumulative_true == 11.0

    def test_incremental_equals_recompute(self, rng):
        stages = rng.uniform(0, 3, 12)
        runs = rng.uniform(0, 2, 12)
        switches = rng.uniform(0, 5, 12)
        led = CostLedger()
        for t in range(12):
            accumulate_true_cost(led, float(stages[t]), float(runs[t]),
                                 float(switches[t]), t=t)
        for t in range(12):
            expected = float(np.sum(stages[:t + 1]) + np.sum(runs[:t + 1])
                             + np.sum(switches[1:t + 1]))
            assert led.entries[t].cumulative_true == pytest.approx(expected, abs=1e-12)
        # nondecreasing with nonnegative components
        cums = [e.cumulative_true for e in led.entries]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_out_of_order_rejected(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            accumulate_true_cost(led, 1.0, 0.0, 0.0, t=3)

    def test_out_of_order_rejected_on_a_priced_ledger(self):
        # a rollout appends each step's priced entry before accumulating it
        led = CostLedger()
        led.entries += [LedgerEntry(t=t, predicted=1.0) for t in range(3)]
        for t in (-1, 1, 2, 3):
            with pytest.raises(ValueError, match="contiguously"):
                accumulate_true_cost(led, 1.0, 0.0, 0.0, t=t)
        accumulate_true_cost(led, 1.0, 0.0, 0.0, t=0)
        for t in (0, 2):                        # repeated, skipped
            with pytest.raises(ValueError, match="contiguously"):
                accumulate_true_cost(led, 1.0, 0.0, 0.0, t=t)
        accumulate_true_cost(led, 2.0, 0.0, 0.0, t=1)
        assert [e.cumulative_true for e in led.entries] == [1.0, 3.0, None]
        assert led.entries[1].predicted == 1.0

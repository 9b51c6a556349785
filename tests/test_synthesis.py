"""Gain synthesis: Riccati recursions, DARE fixed point, Kalman filter."""

import math

import numpy as np
import pytest
import scipy.linalg

from archtune import (
    DIVERGED,
    kalman_forward,
    kalman_step,
    lqr_backward,
    riccati_step,
    solve_dare,
    synthesis,
)
from archtune.synthesis import (
    DARE_RESIDUAL_TOL,
    Diverged,
    _dare_residuals,
    estimator_update,
    factored_kalman,
    factored_lqr,
    last_riccati_iterate,
)

from conftest import canonical_system, random_psd, stable_matrix


def _s(x):
    return np.array([[float(x)]])


class TestRiccatiStep:
    def test_scalar_hand_value(self):
        K, P = riccati_step(_s(2), _s(1), _s(1), _s(1), _s(1))
        assert np.isclose(K[0, 0], 1.0)
        assert np.isclose(P[0, 0], 3.0)

    def test_zero_terminal(self):
        K, P = riccati_step(_s(2), _s(1), _s(1), _s(1), _s(0))
        assert np.isclose(K[0, 0], 0.0)
        assert np.isclose(P[0, 0], 1.0)

    def test_empty_input_matrix(self):
        A = np.array([[1.0, 0.2], [0.0, 0.5]])
        Q = np.eye(2)
        K, P = riccati_step(A, np.zeros((2, 0)), Q, np.zeros((0, 0)), np.eye(2))
        assert K.shape == (0, 2)
        assert np.allclose(P, A.T @ A + Q)

    def test_one_step_cost_minimization(self, rng):
        # P gives the minimum of x'Qx + u'Ru + (Ax+Bu)'P_next(Ax+Bu) over u.
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            Q = random_psd(rng, n)
            R = random_psd(rng, m, ridge=0.5)
            P_next = random_psd(rng, n)
            K, P = riccati_step(A, B, Q, R, P_next)
            x = rng.standard_normal(n)
            u_star = -K @ x
            H = R + B.T @ P_next @ B

            def cost(u):
                xn = A @ x + B @ u
                return x @ Q @ x + u @ R @ u + xn @ P_next @ xn

            assert np.isclose(cost(u_star), x @ P @ x, rtol=1e-9, atol=1e-9)
            # stationary point: gradient H u + B'P_next A x = 0
            assert np.allclose(H @ u_star + B.T @ P_next @ A @ x, 0, atol=1e-8)
            for _ in range(5):
                assert cost(u_star + 0.1 * rng.standard_normal(m)) >= cost(u_star) - 1e-10

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            riccati_step(_s(1), _s(1), _s(-1), _s(1), _s(1))
        with pytest.raises(ValueError):
            riccati_step(_s(1), _s(1), _s(1), _s(1), _s(-2))

    def test_singular_gain_solve_raises(self):
        # B'P_next B + R singular only when R is not positive definite
        with pytest.raises(np.linalg.LinAlgError):
            riccati_step(_s(1), _s(0), _s(1), _s(0), _s(1))


class TestLqrBackward:
    def test_single_step_base_case(self):
        gs = lqr_backward(_s(2), _s(1), _s(1), _s(1), _s(1), 1)
        K, P = riccati_step(_s(2), _s(1), _s(1), _s(1), _s(1))
        assert np.allclose(gs.K[0], K)
        assert np.allclose(gs.P[0], P)
        assert np.allclose(gs.P[1], 1.0)

    def test_scalar_two_step_hand_value(self):
        gs = lqr_backward(_s(2), _s(1), _s(1), _s(1), _s(1), 2)
        assert np.isclose(gs.P[2][0, 0], 1.0)
        assert np.isclose(gs.P[1][0, 0], 3.0)
        assert np.isclose(gs.P[0][0, 0], 4.0)

    def test_memoryless_system(self):
        gs = lqr_backward(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2),
                          5 * np.eye(2), 4)
        for tau in range(4):
            assert np.allclose(gs.K[tau], 0)
        for tau in range(3):
            assert np.allclose(gs.P[tau], np.eye(2))

    def test_schedule_shapes_and_psd(self, rng):
        n, m, T = 4, 2, 6
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        gs = lqr_backward(A, B, np.eye(n), np.eye(m), np.eye(n), T)
        assert gs.horizon == T
        assert len(gs.K) == T and len(gs.P) == T + 1
        for P in gs.P:
            assert np.allclose(P, P.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-9

    def test_finite_horizon_cost_equals_input_optimization(self, rng):
        # x'P_0 x is the best achievable quadratic cost over open-loop input
        # sequences for a noiseless rollout.
        for trial in range(10):
            n, m, T = 2, 1, 4
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            Q = np.eye(n)
            R = np.eye(m)
            Q_T = 2 * np.eye(n)
            gs = lqr_backward(A, B, Q, R, Q_T, T)
            x0 = rng.standard_normal(n)

            # quadratic in stacked u: J(u) = c + 2 g'u + u'Hu, minimized exactly
            free = [x0]
            for t in range(T):
                free.append(A @ free[-1])
            G = np.zeros((T + 1, n, T * m))
            for t in range(1, T + 1):
                for k in range(t):
                    G[t][:, k * m:(k + 1) * m] = np.linalg.matrix_power(A, t - 1 - k) @ B
            H = np.kron(np.eye(T), R).astype(float)
            g = np.zeros(T * m)
            c = 0.0
            for t in range(T + 1):
                Wt = Q if t < T else Q_T
                H += G[t].T @ Wt @ G[t]
                g += G[t].T @ Wt @ free[t]
                c += free[t] @ Wt @ free[t]
            u_star = np.linalg.solve(H, -g)
            J_star = c + 2 * g @ u_star + u_star @ H @ u_star
            assert np.isclose(J_star, x0 @ gs.P[0] @ x0, rtol=1e-6, atol=1e-6)


class TestSolveDare:
    def test_scalar_closed_form_both_methods(self):
        target = 2 + math.sqrt(5)
        for method in ("auto", "iterative"):
            P = solve_dare(_s(2), _s(1), _s(1), _s(1), method=method)
            assert not isinstance(P, Diverged)
            assert np.isclose(P[0, 0], target, atol=1e-8)

    def test_uncontrolled_stable_geometric_series(self):
        P = solve_dare(_s(0.5), np.zeros((1, 0)), _s(1), np.zeros((0, 0)))
        assert np.isclose(P[0, 0], 4.0 / 3.0, atol=1e-8)

    def test_uncontrolled_unstable_diverges(self):
        P = solve_dare(_s(2), np.zeros((1, 0)), _s(1), np.zeros((0, 0)))
        assert P is DIVERGED

    def test_residual_on_random_stabilizable(self, rng):
        # converged P satisfies the fixed-point equation tightly
        count = 0
        while count < 50:
            n = int(rng.integers(1, 11))
            m = int(rng.integers(1, n + 1))
            A = stable_matrix(rng, n, radius=float(rng.uniform(0.3, 1.4)))
            B = rng.standard_normal((n, m))
            Q = random_psd(rng, n, ridge=0.1)
            R = random_psd(rng, m, ridge=0.5)
            P = solve_dare(A, B, Q, R)
            if isinstance(P, Diverged):
                continue
            count += 1
            _, P_mapped = riccati_step(A, B, Q, R, P, check=False)
            res = np.linalg.norm(P_mapped - P) / (1.0 + np.linalg.norm(P))
            assert res < 1e-9

    def test_methods_agree(self, rng):
        for trial in range(10):
            n = int(rng.integers(1, 6))
            A = stable_matrix(rng, n, radius=0.95)
            B = rng.standard_normal((n, n))
            Q = np.eye(n)
            R = np.eye(n)
            Pa = solve_dare(A, B, Q, R, method="auto")
            Pi = solve_dare(A, B, Q, R, method="iterative")
            assert np.allclose(Pa, Pi, rtol=1e-7, atol=1e-7)


class TestResidualAcceptance:
    """A scipy answer off by about 1e-5 relative is no longer accepted."""

    @staticmethod
    def _perturbed_scipy(monkeypatch):
        exact = scipy.linalg.solve_discrete_are

        def off(A, B, Q, R):
            return exact(A, B, Q, R) * (1.0 + 1e-5)

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", off)

    def test_residual_of_the_perturbed_answer(self):
        P = scipy.linalg.solve_discrete_are(_s(2), _s(1), _s(1), _s(1)) * (1.0 + 1e-5)
        res = _dare_residuals(_s(2), _s(1)[None], _s(1), _s(1)[None], P[None])[0]
        assert DARE_RESIDUAL_TOL < res < 1e-4         # accepted before the tightening

    def test_direct_raises(self, monkeypatch):
        self._perturbed_scipy(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            solve_dare(_s(2), _s(1), _s(1), _s(1), method="direct")

    def test_auto_falls_through_to_value_iteration(self, monkeypatch):
        self._perturbed_scipy(monkeypatch)
        monkeypatch.setattr(synthesis, "SDA_MAX_ITER", 0)   # doubling settles nothing
        P = solve_dare(_s(2), _s(1), _s(1), _s(1))
        assert np.isclose(P[0, 0], 2 + math.sqrt(5), rtol=1e-10)


class TestLastRiccatiIterate:
    def test_is_the_last_value_iterate_below_the_guard(self):
        # the first node is unstable and unreached: the iteration diverges
        A, B, Q, R = np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), _s(1)
        assert solve_dare(A, B, Q, R) is DIVERGED
        P = Q
        while True:
            _, P_next = riccati_step(A, B, Q, R, P, check=False)
            if np.linalg.norm(P_next, "fro") > synthesis.DARE_GUARD:
                break
            P = P_next
        assert np.array_equal(last_riccati_iterate(A, B, Q, R), P)

    def test_converged_iterate_is_the_solution(self):
        P = last_riccati_iterate(_s(2), _s(1), _s(1), _s(1))
        assert np.isclose(P[0, 0], 2 + math.sqrt(5), atol=1e-8)


class TestKalman:
    def test_scalar_step_hand_values(self):
        L, E = kalman_step(_s(1), _s(1), _s(1), _s(1), _s(1))
        assert np.isclose(L[0, 0], 0.5)
        assert np.isclose(E[0, 0], 1.5)

    def test_empty_sensor_open_loop(self):
        L, E = kalman_step(_s(1), np.zeros((0, 1)), _s(1), np.zeros((0, 0)), _s(1))
        assert L.shape == (1, 0)
        assert np.isclose(E[0, 0], 2.0)

    def test_noise_monotonicity_scalar(self):
        # larger measurement noise leaves strictly more uncertainty
        prev = 0.0
        for v in (1.0, 10.0, 100.0):
            _, E = kalman_step(_s(1), _s(1), _s(1), _s(v), _s(1))
            assert E[0, 0] > prev
            prev = E[0, 0]

    def test_forward_base_case(self):
        gs = kalman_forward(_s(1), _s(1), _s(1), _s(1), _s(1), 1)
        L, E = kalman_step(_s(1), _s(1), _s(1), _s(1), _s(1))
        assert np.allclose(gs.L[0], L)
        assert np.allclose(gs.E[1], E)
        assert np.allclose(gs.E[0], 1.0)

    def test_perfect_information_stays_perfect(self):
        gs = kalman_forward(_s(1), _s(1), _s(0), _s(1), _s(0), 3)
        for E in gs.E:
            assert np.isclose(E[0, 0], 0.0)
        for L in gs.L:
            assert np.isclose(L[0, 0], 0.0)

    def test_scalar_two_step_hand_value(self):
        gs = kalman_forward(_s(1), _s(1), _s(1), _s(1), _s(1), 2)
        assert np.isclose(gs.E[1][0, 0], 1.5)
        assert np.isclose(gs.E[2][0, 0], 1.6)

    def test_sensor_monotonicity(self, rng):
        # more sensors never increase the next-step error covariance
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            W = random_psd(rng, n)
            E = random_psd(rng, n, ridge=0.1)
            rows = rng.permutation(n)
            k = int(rng.integers(1, n))
            small = np.sort(rows[:k])
            big = np.sort(rows[:k + 1])
            C_small = np.eye(n)[small]
            C_big = np.eye(n)[big]
            _, E_small = kalman_step(A, C_small, W, np.eye(k), E)
            _, E_big = kalman_step(A, C_big, W, np.eye(k + 1), E)
            diff = E_small + 1e-8 * np.eye(n) - E_big
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-8

    def test_actuator_monotonicity(self, rng):
        # more actuators never increase the one-step cost matrix
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            Q = random_psd(rng, n)
            P_next = random_psd(rng, n)
            cols = rng.permutation(n)
            k = int(rng.integers(1, n))
            small = np.sort(cols[:k])
            big = np.sort(cols[:k + 1])
            _, P_small = riccati_step(A, np.eye(n)[:, small], Q, np.eye(k), P_next)
            _, P_big = riccati_step(A, np.eye(n)[:, big], Q, np.eye(k + 1), P_next)
            diff = P_small + 1e-8 * np.eye(n) - P_big
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-8

    def test_schedule_symmetry_and_psd(self, rng):
        n = 5
        A = rng.standard_normal((n, n))
        C = np.eye(n)[:3]
        gs = kalman_forward(A, C, random_psd(rng, n), np.eye(3),
                            random_psd(rng, n, ridge=0.1), 6)
        for E in gs.E:
            assert np.allclose(E, E.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(E)) >= -1e-9


def _stacked_instance(seed, n, m, l, k):
    """k candidate (B, R) and (C, V) pairs sharing one plant."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Bs = rng.standard_normal((k, n, m))
    Rs = np.stack([random_psd(rng, m, ridge=0.5) for _ in range(k)])
    Cs = rng.standard_normal((k, l, n))
    Vs = np.stack([random_psd(rng, l, ridge=0.5) for _ in range(k)])
    return (A, random_psd(rng, n), random_psd(rng, n), Bs, Rs, Cs, Vs,
            random_psd(rng, n, ridge=0.2), np.stack([random_psd(rng, n) for _ in range(k)]))


STACK_SHAPES = [(3, 2, 2, 1), (4, 0, 2, 3), (4, 2, 0, 3), (5, 3, 4, 6), (1, 1, 1, 2)]


class TestStackedRecursions:
    """A stack of candidates gives, slice by slice, the one-candidate result."""

    @pytest.mark.parametrize("n, m, l, k", STACK_SHAPES)
    def test_riccati_step(self, n, m, l, k):
        A, Q, _, Bs, Rs, _, _, P, Ps = _stacked_instance(n + 10 * k, n, m, l, k)
        for P_next in (P, Ps):
            K, P_out = riccati_step(A, Bs, Q, Rs, P_next)
            assert K.shape == (k, m, n) and P_out.shape == (k, n, n)
            for j in range(k):
                K_j, P_j = riccati_step(A, Bs[j], Q, Rs[j],
                                        P_next if P_next.ndim == 2 else P_next[j])
                assert np.array_equal(K[j], K_j) and np.array_equal(P_out[j], P_j)
        # one input matrix with a stack of successor values
        K, P_out = riccati_step(A, Bs[0], Q, Rs[0], Ps)
        assert K.shape == (k, m, n) and P_out.shape == (k, n, n)
        for j in range(k):
            K_j, P_j = riccati_step(A, Bs[0], Q, Rs[0], Ps[j])
            assert np.array_equal(K[j], K_j) and np.array_equal(P_out[j], P_j)

    @pytest.mark.parametrize("n, m, l, k", STACK_SHAPES)
    def test_kalman_step(self, n, m, l, k):
        A, _, W, _, _, Cs, Vs, E, Es = _stacked_instance(n + 10 * k, n, m, l, k)
        for E_now in (E, Es):
            L, E_next = kalman_step(A, Cs, W, Vs, E_now)
            assert L.shape == (k, n, l) and E_next.shape == (k, n, n)
            for j in range(k):
                L_j, E_j = kalman_step(A, Cs[j], W, Vs[j],
                                       E_now if E_now.ndim == 2 else E_now[j])
                assert np.array_equal(L[j], L_j) and np.array_equal(E_next[j], E_j)
        # one output matrix with a stack of covariances
        L, E_next = kalman_step(A, Cs[0], W, Vs[0], Es)
        assert L.shape == (k, n, l) and E_next.shape == (k, n, n)
        for j in range(k):
            L_j, E_j = kalman_step(A, Cs[0], W, Vs[0], Es[j])
            assert np.array_equal(L[j], L_j) and np.array_equal(E_next[j], E_j)

    @pytest.mark.parametrize("n, m, l, k", STACK_SHAPES)
    def test_lqr_backward(self, n, m, l, k):
        A, Q, Q_T, Bs, Rs, _, _, _, _ = _stacked_instance(n + 10 * k, n, m, l, k)
        sched = lqr_backward(A, Bs, Q, Rs, Q_T, 4)
        assert len(sched.K) == 4 and len(sched.P) == 5
        for j in range(k):
            one = lqr_backward(A, Bs[j], Q, Rs[j], Q_T, 4)
            assert all(np.array_equal(K[j], K_j) for K, K_j in zip(sched.K, one.K))
            assert all(np.array_equal(P[j], P_j) for P, P_j in zip(sched.P, one.P))

    @pytest.mark.parametrize("n, m, l, k", STACK_SHAPES)
    def test_kalman_forward(self, n, m, l, k):
        A, _, W, _, _, Cs, Vs, E_0, _ = _stacked_instance(n + 10 * k, n, m, l, k)
        sched = kalman_forward(A, Cs, W, Vs, E_0, 4)
        assert len(sched.L) == 4 and len(sched.E) == 5
        for j in range(k):
            one = kalman_forward(A, Cs[j], W, Vs[j], E_0, 4)
            assert all(np.array_equal(L[j], L_j) for L, L_j in zip(sched.L, one.L))
            assert all(np.array_equal(E[j], E_j) for E, E_j in zip(sched.E, one.E))

    def test_mismatched_weight_stack_rejected(self):
        A, Q, Q_T, Bs, Rs, Cs, Vs, E_0, _ = _stacked_instance(0, 3, 2, 2, 3)
        for bad_R in (Rs[:2], Rs[:, :1, :1], Rs[0]):
            with pytest.raises(ValueError, match="does not match"):
                riccati_step(A, Bs, Q, bad_R, Q_T)
            with pytest.raises(ValueError, match="does not match"):
                lqr_backward(A, Bs, Q, bad_R, Q_T, 3)
        with pytest.raises(ValueError, match="does not match"):
            kalman_step(A, Cs, Q, Vs[:2], E_0)
        with pytest.raises(ValueError, match="does not match"):
            kalman_forward(A, Cs, Q, Vs[:, :1, :1], E_0, 3)

    def test_every_slice_is_checked(self):
        A, Q, Q_T, Bs, Rs, Cs, Vs, E_0, _ = _stacked_instance(1, 3, 2, 2, 3)
        Rs[2, 0, 1] += 1.0
        Vs[2, 1, 0] += 1.0
        with pytest.raises(ValueError, match="R is not symmetric"):
            riccati_step(A, Bs, Q, Rs, Q_T)
        with pytest.raises(ValueError, match="R is not symmetric"):
            lqr_backward(A, Bs, Q, Rs, Q_T, 3)
        with pytest.raises(ValueError, match="V is not symmetric"):
            kalman_step(A, Cs, Q, Vs, E_0)
        with pytest.raises(ValueError, match="V is not symmetric"):
            kalman_forward(A, Cs, Q, Vs, E_0, 3)
        Es = np.stack([E_0, E_0, -E_0])
        with pytest.raises(ValueError, match="E is not positive semidefinite"):
            kalman_step(A, Cs, Q, Vs[:1].repeat(3, axis=0), Es)


def _close(ours, dense, rtol=1e-12):
    """Equal within rtol of the dense array's largest entry."""
    assert ours.shape == dense.shape
    assert np.max(np.abs(ours - dense), initial=0.0) <= rtol * np.max(np.abs(dense), initial=0.0)


def _open_loop_injected(A, W, T):
    """Gam_tau = sum_{j<tau} A^j W A'^j for tau < T: the injected error
    covariance with no sensor active."""
    gam = [np.zeros_like(A)]
    for _ in range(T - 1):
        gam.append(A @ gam[-1] @ A.T + W)
    return np.stack(gam)


def _injected_covariance(A, Cs, W, Vs, gains):
    """The dense injected-error recursion: Sig_0 = 0,
    Sig_{tau+1} = Acl Sig Acl' + W + A L V L'A' with Acl = A - A L C."""
    T = len(gains)
    sig = np.zeros((len(Cs), T) + A.shape)
    for tau in range(T - 1):
        AL = A @ gains[tau]
        Acl = A - AL @ Cs
        sig[:, tau + 1] = Acl @ sig[:, tau] @ Acl.swapaxes(1, 2) + W + AL @ Vs @ AL.swapaxes(1, 2)
    return sig


# (n, m or l, k, T): m*T > n makes the factor wider than the state
FACTORED_SHAPES = [(3, 2, 2, 1), (3, 2, 3, 6), (5, 1, 4, 4), (4, 0, 3, 3), (2, 3, 2, 5),
                   (6, 3, 5, 3)]


class TestFactoredRecursions:
    """factored_lqr and factored_kalman against the dense recursions."""

    @pytest.mark.parametrize("n, m, k, T", FACTORED_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_lqr_matches_lqr_backward(self, n, m, k, T, seed):
        rng = np.random.default_rng(100 * seed + 10 * n + m)
        A = stable_matrix(rng, n, radius=0.6 + 0.6 * rng.random())
        Q, Q_T, W = random_psd(rng, n), random_psd(rng, n), random_psd(rng, n)
        x = 2.0 * rng.standard_normal(n)
        Bs = rng.standard_normal((k, n, m))
        Rs = np.stack([random_psd(rng, m, ridge=0.5) for _ in range(k)])
        K, S, c = factored_lqr(A, Q, Q_T, W, x, T)(Bs, Rs)
        dense = lqr_backward(A, Bs, Q, Rs, Q_T, T)
        K_dense = np.stack(dense.K, axis=1)                     # (k, T, m, n)
        P_next = np.stack(dense.P[1:], axis=1)                  # (k, T, n, n)
        S_dense = Rs[:, None] + Bs.swapaxes(1, 2)[:, None] @ P_next @ Bs[:, None]
        _close(K, K_dense)
        _close(S, S_dense)
        G = K_dense.swapaxes(2, 3) @ S_dense @ K_dense
        want = (np.einsum("i,kij,j->k", x, dense.P[0], x) + np.sum(P_next * W, axis=(1, 2, 3))
                + np.sum(G * _open_loop_injected(A, W, T), axis=(1, 2, 3)))
        _close(c, want)

    @pytest.mark.parametrize("n, l, k, T", FACTORED_SHAPES)
    @pytest.mark.parametrize("noiseless", [False, True])
    def test_kalman_matches_kalman_forward(self, n, l, k, T, noiseless):
        if noiseless:
            l = min(l, n)                       # C E C' alone must be invertible
        rng = np.random.default_rng(10 * n + l + T + noiseless)
        A = stable_matrix(rng, n, radius=0.6 + 0.6 * rng.random())
        W = random_psd(rng, n, ridge=0.1 if noiseless else 0.0)
        E_0 = random_psd(rng, n, ridge=0.2)
        Cs = rng.standard_normal((k, l, n))
        Vs = (np.zeros((k, l, l)) if noiseless
              else np.stack([random_psd(rng, l, ridge=0.5) for _ in range(k)]))
        L, Z = factored_kalman(A, W, E_0, T)(Cs, Vs)
        dense = kalman_forward(A, Cs, W, Vs, E_0, T)
        _close(L, np.stack(dense.L, axis=1))
        _close(_open_loop_injected(A, W, T) - Z - Z.swapaxes(2, 3),
               _injected_covariance(A, Cs, W, Vs, dense.L))

    def test_inputs_are_checked(self):
        A, Q, Q_T, Bs, Rs, Cs, Vs, E_0, _ = _stacked_instance(2, 3, 2, 2, 3)
        x = np.ones(3)
        price_lqr = factored_lqr(A, Q, Q_T, Q, x, 3)
        price_kalman = factored_kalman(A, Q, E_0, 3)
        with pytest.raises(ValueError, match="does not match"):
            price_lqr(Bs, Rs[:2])
        with pytest.raises(ValueError, match="does not match"):
            price_kalman(Cs, Vs[:, :1, :1])
        Rs[2, 0, 1] += 1.0
        Vs[2, 1, 0] += 1.0
        with pytest.raises(ValueError, match="R is not symmetric"):
            price_lqr(Bs, Rs)
        with pytest.raises(ValueError, match="V is not symmetric"):
            price_kalman(Cs, Vs)
        for name, call in (("Q", lambda: factored_lqr(A, -Q_T - np.eye(3), Q_T, Q, x, 3)),
                           ("Q_T", lambda: factored_lqr(A, Q, -Q_T - np.eye(3), Q, x, 3)),
                           ("W", lambda: factored_kalman(A, -np.eye(3), E_0, 3)),
                           ("E_0", lambda: factored_kalman(A, Q, -E_0, 3))):
            with pytest.raises(ValueError, match=f"{name} is not positive semidefinite"):
                call()
        with pytest.raises(ValueError, match="horizon"):
            factored_lqr(A, Q, Q_T, Q, x, 0)


class TestEstimatorUpdate:
    def test_pure_prediction_when_gain_zero(self, rng):
        n = 3
        A = rng.standard_normal((n, n))
        sys_ = canonical_system(A)
        from archtune import ArchitectureSet
        arch = ArchitectureSet(actuators=(0, 1, 2), sensors=(0, 1, 2))
        K0 = rng.standard_normal((3, n))
        x_hat = rng.standard_normal(n)
        out = estimator_update(sys_, arch, K0, np.zeros((n, 3)), x_hat, np.zeros(3))
        assert np.allclose(out, (A - np.eye(n) @ K0) @ x_hat)

    def test_equilibrium(self):
        sys_ = canonical_system(np.eye(2))
        from archtune import ArchitectureSet
        arch = ArchitectureSet(actuators=(0,), sensors=(0,))
        out = estimator_update(sys_, arch, np.zeros((1, 2)), np.zeros((2, 1)),
                               np.zeros(2), np.zeros(1))
        assert np.allclose(out, 0)

    def test_scalar_hand_value(self):
        sys_ = canonical_system(np.eye(1))
        from archtune import ArchitectureSet
        arch = ArchitectureSet(actuators=(0,), sensors=(0,))
        out = estimator_update(sys_, arch, _s(0.5), _s(0.5),
                               np.array([2.0]), np.array([4.0]))
        assert np.isclose(out[0], 2.0)

"""The stacked doubling path of solve_dare against scipy's solver."""

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from archtune import DIVERGED, solve_dare, synthesis  # noqa: E402
from archtune.synthesis import _dare_doubling  # noqa: E402

from conftest import random_psd, stable_matrix  # noqa: E402


def _candidate_stack(rng, n, m, k, unstabilizable=False):
    """k (B, R) candidates sharing one A and Q.  With unstabilizable, the
    plant's last state is an unstable mode that no candidate's inputs reach."""
    A = stable_matrix(rng, n, radius=float(rng.uniform(0.3, 1.3)))
    Bs = rng.standard_normal((k, n, m))
    if unstabilizable:
        A[-1, :] = 0.0
        A[-1, -1] = 1.5
        Bs[:, -1, :] = 0.0
    Rs = np.stack([random_psd(rng, m, ridge=0.5) for _ in range(k)])
    return A, Bs, random_psd(rng, n, ridge=0.5), Rs


class TestDoubling:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           k=st.integers(1, 5), data=st.data())
    def test_matches_scipy(self, seed, n, k, data):
        m = data.draw(st.integers(1, n))
        A, Bs, Q, Rs = _candidate_stack(np.random.default_rng(seed), n, m, k)
        Ps = _dare_doubling(A, Bs, Q, Rs, synthesis.DARE_GUARD)
        for P, B, R in zip(Ps, Bs, Rs):
            assert P is not None
            ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
            assert np.linalg.norm(P - ref) <= 1e-8 * np.linalg.norm(ref)
            assert np.array_equal(P, P.T)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_diverged_agrees_on_unstabilizable_pair(self, seed, n):
        A, Bs, Q, Rs = _candidate_stack(np.random.default_rng(seed), n, 1, 2,
                                        unstabilizable=True)
        assert _dare_doubling(A, Bs, Q, Rs, synthesis.DARE_GUARD) == [None, None]
        assert solve_dare(A, Bs, Q, Rs) == [DIVERGED, DIVERGED]
        for B, R in zip(Bs, Rs):
            try:
                direct = solve_dare(A, B, Q, R, method="direct")
            except np.linalg.LinAlgError:
                direct = DIVERGED
            assert direct is DIVERGED

    def test_solution_past_the_guard_is_diverged(self):
        # P = 2 + sqrt(5) for this scalar pair: past a guard of 4, within 5
        one = np.ones((1, 1))
        assert _dare_doubling(2 * one, one[None], one, one[None], 4.0) == [None]
        assert solve_dare(2 * one, one, one, one, guard=4.0) is DIVERGED
        assert np.isclose(solve_dare(2 * one, one, one, one, guard=5.0)[0, 0], 2 + 5 ** 0.5)

    def test_stack_matches_single_calls_across_chunks(self, rng):
        k = synthesis.DARE_CHUNK + 5
        A, Bs, Q, Rs = _candidate_stack(rng, 5, 2, k)
        stacked = solve_dare(A, Bs, Q, Rs)
        assert len(stacked) == k
        for P, B, R in zip(stacked, Bs, Rs):
            assert np.allclose(P, solve_dare(A, B, Q, R), rtol=1e-12, atol=0)

    def test_stack_keeps_order_around_a_diverged_candidate(self, rng):
        A, Bs, Q, Rs = _candidate_stack(rng, 4, 1, 3, unstabilizable=True)
        Bs[1, -1, 0] = 1.0                  # only the middle one reaches the mode
        out = solve_dare(A, Bs, Q, Rs)
        assert out[0] is DIVERGED and out[2] is DIVERGED
        assert np.allclose(out[1], scipy.linalg.solve_discrete_are(A, Bs[1], Q, Rs[1]),
                           rtol=1e-8)

    def test_singular_R_left_to_the_single_path(self):
        # R = 0 with full-rank B: the doubling cannot form B R^-1 B'
        A, B, Q, R = np.array([[1.2, 0.3], [0.0, 0.5]]), np.eye(2), np.eye(2), np.zeros((2, 2))
        assert _dare_doubling(A, B[None], Q, R[None], synthesis.DARE_GUARD) == [None]
        assert np.allclose(solve_dare(A, B, Q, R), solve_dare(A, B, Q, R, method="iterative"),
                           atol=1e-9)

    def test_stack_shape_mismatch_rejected(self, rng):
        A, Bs, Q, Rs = _candidate_stack(rng, 3, 2, 2)
        with pytest.raises(ValueError, match="does not match"):
            solve_dare(A, Bs, Q, Rs[:1])

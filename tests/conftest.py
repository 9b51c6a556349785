"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from archtune import ArchitectureSet, LinearNetworkSystem
from archtune._lin import symmetrize
from archtune.synthesis import DARE_GUARD, DARE_RESIDUAL_TOL, _dare_residuals


def random_psd(rng, n, scale=1.0, ridge=0.0):
    """Random symmetric PSD matrix; ridge > 0 makes it positive definite."""
    F = rng.standard_normal((n, n)) / np.sqrt(n)
    return scale * (F @ F.T) + ridge * np.eye(n)


def stable_matrix(rng, n, radius=0.9):
    """Random matrix rescaled to the given spectral radius."""
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    r = np.max(np.abs(np.linalg.eigvals(A)))
    return A * (radius / r)


def scipy_dare(A, B, Q, R):
    """scipy's DARE solution, symmetrized, and whether solve_dare would accept
    it: within DARE_GUARD, with a relative residual below DARE_RESIDUAL_TOL.
    Raises numpy's LinAlgError where scipy's solver does."""
    P = symmetrize(scipy.linalg.solve_discrete_are(A, B, Q, R))
    accepted = (np.linalg.norm(P) <= DARE_GUARD
                and _dare_residuals(A, B[None], Q, R[None], P[None])[0] < DARE_RESIDUAL_TOL)
    return P, bool(accepted)


def canonical_system(A, W=None, v_var=0.0):
    """System with canonical basis pools of full size."""
    n = A.shape[0]
    return LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                               W=np.zeros((n, n)) if W is None else W, v_var=v_var)


def random_arch(rng, M, L, k=None, l=None):
    k = int(rng.integers(1, M + 1)) if k is None else k
    l = int(rng.integers(1, L + 1)) if l is None else l
    acts = tuple(sorted(rng.choice(M, k, replace=False).tolist()))
    sens = tuple(sorted(rng.choice(L, l, replace=False).tolist()))
    return ArchitectureSet(actuators=acts, sensors=sens)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

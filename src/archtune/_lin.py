"""Small shared linear-algebra helpers (symmetry, PSD checks, factors).

Transposes, symmetrization and the symmetry and PSD checks act on the last
two axes, so each takes one matrix or a stack of them.
"""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-9


def mT(M: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (M.T for a matrix)."""
    return np.swapaxes(M, -1, -2)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M.T)/2."""
    return 0.5 * (M + mT(M))


def check_symmetric(M: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    if M.ndim not in (2, 3) or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size:
        asym = np.max(np.abs(M - mT(M)), axis=(-2, -1))
        scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))
        if np.any(asym > tol * scale):
            raise ValueError(f"{name} is not symmetric within tolerance")


def check_psd(M: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    """Raise ValueError unless M is symmetric positive semidefinite (within tol)."""
    check_symmetric(M, name, tol)
    if M.size == 0:
        return
    w = np.linalg.eigvalsh(symmetrize(M))
    low = w[..., 0]
    if np.any(low < -tol * np.maximum(1.0, w[..., -1])):
        raise ValueError(f"{name} is not positive semidefinite "
                         f"(min eigenvalue {np.min(low):.3e})")


def check_pd(M: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    check_symmetric(M, name, tol)
    if M.size == 0:
        return
    w = np.linalg.eigvalsh(symmetrize(M))
    if w[0] <= tol * max(1.0, abs(w[-1])):
        raise ValueError(f"{name} is not positive definite (min eigenvalue {w[0]:.3e})")


def psd_factor(M: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = M for symmetric PSD M. Negative eigenvalues are clipped at 0."""
    if M.size == 0:
        return M.reshape(M.shape)
    w, U = np.linalg.eigh(symmetrize(M))
    return U * np.sqrt(np.clip(w, 0.0, None))

"""Gain synthesis for a fixed architecture: LQR recursions and Kalman filtering.

All recursions follow the standard discrete-time forms.  Feedback gains use
the convention u = -K x, so riccati_step returns the positive gain
K = (B'PB + R)^{-1} B'PA.  Empty architectures degenerate cleanly: with no
actuators the gain has zero rows and the state penalty propagates open loop;
with no sensors the filter gain has zero columns and the covariance grows by
A E A' + W.  factored_lqr and factored_kalman run the same recursions for
stacks of candidate sets as low-rank corrections to shared open-loop ones;
they return gains, weights and factors, never dense n x n stacks per set.
solve_dare has one path to the stationary solution: stacked doubling, then
value iteration for each candidate the doubling leaves unsettled.  It needs
numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lin import check_psd, check_symmetric, mT, symmetrize

__all__ = [
    "Diverged",
    "DIVERGED",
    "GainSchedule",
    "riccati_step",
    "lqr_backward",
    "factored_lqr",
    "solve_dare",
    "last_riccati_iterate",
    "kalman_step",
    "kalman_forward",
    "factored_kalman",
    "estimator_update",
]

DARE_TOL = 1e-10
DARE_MAX_ITER = 10_000
DARE_GUARD = 1e12
DARE_RESIDUAL_TOL = 1e-8     # relative residual every accepted solution meets
DARE_CHUNK = 16              # candidates per stacked doubling solve
SDA_TOL = 1e-13              # relative step at which a doubling iterate has converged
SDA_MAX_ITER = 64            # doublings, i.e. up to 2**64 value-iteration steps
SDA_RANK_MAX = 16            # widest factor of G = U U' a doubling still works on


class Diverged:
    """Sentinel for a Riccati iteration that left the convergent regime.

    Consumers treat it as an infinite-cost architecture: it signals that the
    candidate actuator set cannot stabilize the plant (or that the stabilizing
    solution is beyond the overflow guard, which is the same thing for
    selection purposes).
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "Diverged"


DIVERGED = Diverged()


@dataclass
class GainSchedule:
    """Time-indexed gains and value/covariance matrices over one horizon.

    K[tau], P[tau] come from the backward LQR recursion (K has length horizon,
    P has horizon+1 with P[horizon] the terminal weight).  L[tau], E[tau] come
    from the forward Kalman recursion (L has length horizon, E has horizon+1
    with E[0] the prior covariance).  Parts not synthesized are None.
    """

    horizon: int
    K: list | None = None
    P: list | None = None
    L: list | None = None
    E: list | None = None


# ---------------------------------------------------------------- LQR side


def _as_stack(X: np.ndarray, Y: np.ndarray, axis: int, names: tuple[str, str]):
    """A device matrix X and its square weight Y as stacks: (Xs, Ys, stacked).

    X is one matrix or a stack of k of them (a leading axis); Y is then
    (d, d) or (k, d, d), with d the size of X along axis (2 for an input
    matrix B and its cost R, 1 for an output matrix C and its noise V).  A
    2-D X comes back as a stack of one.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    stacked = X.ndim == 3
    Xs, Ys = (X, Y) if stacked else (X[None], Y[None])
    if Xs.ndim != 3 or Ys.shape != (Xs.shape[0], Xs.shape[axis], Xs.shape[axis]):
        raise ValueError(f"{names[1]} of shape {Y.shape} does not match "
                         f"{names[0]} of shape {X.shape}")
    return Xs, Ys, stacked


def riccati_step(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
                 P_next: np.ndarray, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """One backward Riccati step; returns (K, P) for u = -K x.

    K = (B'P⁺B + R)^{-1} B'P⁺A and
    P = A'P⁺A - A'P⁺B (B'P⁺B + R)^{-1} B'P⁺A + Q, symmetrized.
    A (0-column) B yields a (0, n) gain and the open-loop update A'P⁺A + Q.
    B may be a stack of k candidates, shape (k, n, m), with R of shape
    (k, m, m), and P_next may be a stack (k, n, n) of successor values; if
    either is stacked, K and P come back stacked, each slice equal to the
    one-candidate step on it.
    """
    Bs, Rs, stacked = _as_stack(B, R, 2, ("B", "R"))
    stacked = stacked or np.ndim(P_next) == 3
    if check:
        check_psd(Q, "Q")
        check_symmetric(Rs, "R")
        check_psd(P_next, "P_next")
    PB = P_next @ Bs
    S = mT(Bs) @ PB + Rs
    G = mT(PB) @ A                    # B'P⁺A
    K = np.linalg.solve(S, G)
    P = symmetrize(A.T @ P_next @ A - mT(G) @ K + Q)
    return (K, P) if stacked else (K[0], P[0])


def lqr_backward(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
                 Q_T: np.ndarray, T: int) -> GainSchedule:
    """Finite-horizon LQR: gains K[0..T-1] and value matrices P[0..T].

    P[T] = Q_T; each earlier P comes from riccati_step.  The pair (K, P)
    prices a horizon-T quadratic rollout from any initial state as x'P[0]x.
    A stack of k candidates (B of shape (k, n, m), R of shape (k, m, m))
    runs as one recursion: every K[tau] and P[tau] is then stacked over the
    candidates.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    Bs, Rs, stacked = _as_stack(B, R, 2, ("B", "R"))
    check_psd(Q, "Q")
    check_symmetric(Rs, "R")
    check_psd(Q_T, "Q_T")
    Q_T = np.asarray(Q_T, dtype=float)
    P = np.broadcast_to(Q_T, (len(Bs),) + Q_T.shape)
    Ps = [P]
    Ks: list[np.ndarray] = []
    for _ in range(T):
        K, P = riccati_step(A, Bs, Q, Rs, P, check=False)
        Ks.append(K)
        Ps.append(P)
    Ks.reverse()
    Ps.reverse()
    if not stacked:
        Ks = [K[0] for K in Ks]
        Ps = [P[0] for P in Ps]
    return GainSchedule(horizon=T, K=Ks, P=Ps)


def _open_loop(A: np.ndarray, X_0: np.ndarray, Y: np.ndarray, steps: int) -> list:
    """[X_0, ..., X_steps] with X_{j+1} = A X_j A' + Y, symmetrized."""
    Xs = [np.asarray(X_0, dtype=float)]
    for _ in range(steps):
        Xs.append(symmetrize(A @ Xs[-1] @ A.T + Y))
    return Xs


def _blockdiag_times(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """blkdiag(D[:, 0], ..., D[:, q-1]) @ X over a stack: D (k, q, b, b), X (k, q*b, c)."""
    k, q, b, _ = D.shape
    return (D @ X.reshape(k, q, b, X.shape[2])).reshape(X.shape)


def factored_lqr(A: np.ndarray, Q: np.ndarray, Q_T: np.ndarray, W: np.ndarray,
                 x: np.ndarray, T: int):
    """lqr_backward for stacks of input sets, as low-rank corrections to the
    shared open-loop value recursion; returns price(B, R).

    The open-loop values P0_T = Q_T, P0_tau = A'P0_{tau+1}A + Q are computed
    once.  Since A'P A - G'S^{-1}G = A'P A - K'S K, a set of m actuators
    lowers them by a rank-m term per step (the low-rank factored Riccati
    form; Benner, Li & Penzl, Numer. Linear Algebra Appl. 15(9), 2008):
        P_tau = P0_tau - F_tau blkdiag(S_tau, ..., S_{T-1}) F_tau',
        F_tau = [K_tau', A'F_{tau+1}],  F_T empty,
    with S_tau = R + B'P_{tau+1}B and K_tau = S_tau^{-1} B'P_{tau+1}A.  A set
    thus costs products with n x m(T-tau) factors instead of dense n x n
    congruences.

    price(B, R) takes a stack of k sets, B of shape (k, n, m) and R of shape
    (k, m, m), and returns K (k, T, m, n), the gains of lqr_backward for
    u = -K x; S (k, T, m, m), the weights S_tau; and c (k,), the constant
        c = x'P_0x + sum_tau tr(P_{tau+1}W + K_tau'S_tau K_tau Gam_tau)
    with Gam_tau = sum_{j<tau} A^j W A'^j, the error covariance injected
    over the horizon when no sensor is active.  Block s of F enters F_0 as
    A'^s K_s' and F_{tau+1} as A'^(s-tau-1) K_s', so the Gam terms cancel
    and c = x'P0_0x + sum_tau tr(P0_{tau+1}W) - sum_s v_s'S_s v_s with
    v_s = K_s A^s x.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    check_psd(Q, "Q")
    check_psd(Q_T, "Q_T")
    check_psd(W, "W")
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    P0 = _open_loop(A.T, Q_T, Q, T)[::-1]
    c0 = float(x @ P0[0] @ x) + sum(float(np.sum(P * W)) for P in P0[1:])
    z = [x]                                     # z_s = A^s x
    for _ in range(T - 1):
        z.append(A @ z[-1])

    def price(B: np.ndarray, R: np.ndarray):
        Bs, Rs, _ = _as_stack(B, R, 2, ("B", "R"))
        check_symmetric(Rs, "R")
        k, n, m = Bs.shape
        K = np.empty((k, T, m, n))
        S = np.empty((k, T, m, m))
        c = np.full(k, c0)
        F = np.empty((k, n, 0))
        for tau in range(T - 1, -1, -1):
            PB = P0[tau + 1] @ Bs - F @ _blockdiag_times(S[:, tau + 1:], mT(F) @ Bs)
            S[:, tau] = mT(Bs) @ PB + Rs
            K[:, tau] = Kt = np.linalg.inv(S[:, tau]) @ (mT(PB) @ A)
            v = Kt @ z[tau]
            c -= np.einsum("ki,kij,kj->k", v, S[:, tau], v)
            if tau:
                F = np.concatenate([mT(Kt), A.T @ F], axis=2)
        return K, S, c

    return price


def _dare_fixed_point(A, B, Q, R):
    """Value iteration from P = Q until the Frobenius step drops below
    DARE_TOL.  Returns (last P within DARE_GUARD, converged flag); it has not
    converged past the guard or after DARE_MAX_ITER steps."""
    P = np.asarray(Q, dtype=float)
    for _ in range(DARE_MAX_ITER):
        _, P_next = riccati_step(A, B, Q, R, P, check=False)
        if np.linalg.norm(P_next, "fro") > DARE_GUARD:
            return P, False
        if np.linalg.norm(P_next - P, "fro") < DARE_TOL:
            return P_next, True
        P = P_next
    return P, False


def last_riccati_iterate(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                         R: np.ndarray) -> np.ndarray:
    """The last value-iteration iterate from P = Q that stays within the guard.

    It is the stabilizing solution when the iteration converges.  For a set
    with no stabilizing solution it is the matrix the "last_gain" fallback
    policy prices its gain with.
    """
    return _dare_fixed_point(A, B, Q, R)[0]


def _dare_residuals(A, Bs, Q, Rs, Ps) -> np.ndarray:
    """Relative Riccati residuals ||F(P) - P|| / (1 + ||P||) over a stack."""
    _, mapped = riccati_step(A, Bs, Q, Rs, Ps, check=False)
    return (np.linalg.norm(mapped - Ps, axis=(1, 2))
            / (1.0 + np.linalg.norm(Ps, axis=(1, 2))))


def _cholesky_or_none(R: np.ndarray):
    """Cholesky factor of R, or None where R is not positive definite."""
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return None


def _dare_doubling(A, Bs, Q, Rs) -> list:
    """Structure-preserving doubling over a stack of (B, R) sharing A and Q.

    With G = B R^-1 B' and W = I + G H, each doubling maps
    A <- A W^-1 A,  G <- G + A W^-1 G A',  H <- H + A' H W^-1 A
    from (A, G, Q); H converges quadratically to the stabilizing solution
    (Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006).

    G starts as U U' with U = B chol(R)^-T, of rank m, and each doubling at
    most doubles its rank.  While the factor width r is at most
    SDA_RANK_MAX and below n, G stays factored (as in the large-scale
    doubling of Li, Chu, Lin & Weng, J. Comput. Appl. Math. 237, 2013):
    with the r x r capacitance M = (I + U'HU)^-1 = F F', Woodbury gives
    W^-1 A = A - U M U'H A and A W^-1 G A' = (A U F)(A U F)', so U grows by
    the columns A U F and no n x n matrix is inverted.  Past that width G is
    formed once and the doubling goes on dense.  Wider factors lose
    accuracy (see the README).

    A candidate retires once its relative step is at most SDA_TOL.  Returns
    one entry per candidate: its solution, or None where the doubling did
    not settle it (R not positive definite, no convergence within
    SDA_MAX_ITER doublings, an iterate past DARE_GUARD or not finite, or a
    residual above DARE_RESIDUAL_TOL).
    """
    k, n = Bs.shape[0], A.shape[0]
    out: list = [None] * k
    chol = [_cholesky_or_none(R) for R in Rs]
    active = np.array([j for j in range(k) if chol[j] is not None], dtype=int)
    if not len(active):
        return out
    # while factored, G holds U = B L^-T (R = L L'), with G = U U'
    G = mT(np.linalg.solve(np.stack([chol[j] for j in active]), mT(Bs[active])))
    factored = True
    Ak = np.repeat(A[None], len(active), axis=0)
    H = np.repeat(Q[None], len(active), axis=0)
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in range(SDA_MAX_ITER):
                AkT = mT(Ak)
                if factored and G.shape[2] > min(SDA_RANK_MAX, n - 1):
                    factored, G = False, G @ mT(G)
                if factored:
                    HU = H @ G
                    C = np.linalg.cholesky(np.eye(G.shape[2]) + mT(G) @ HU)
                    F = mT(np.linalg.inv(C))            # F F' = (I + U'HU)^-1
                    X = Ak - G @ (F @ (mT(F) @ (mT(HU) @ Ak)))
                    G = np.concatenate([G, Ak @ G @ F], axis=2)
                else:
                    # one inverse and products beat a solve with 2n right-hand
                    # sides on small stacked matrices
                    W_inv = np.linalg.inv(eye + G @ H)
                    X = W_inv @ Ak
                    G = symmetrize(G + Ak @ (W_inv @ G) @ AkT)
                H_next = symmetrize(H + (AkT @ H) @ X)
                Ak = Ak @ X
                size = np.linalg.norm(H_next, axis=(1, 2))
                step = np.linalg.norm(H_next - H, axis=(1, 2))
                H = H_next
                failed = ~(size <= DARE_GUARD)          # past the guard, or NaN
                done = ~failed & (step <= SDA_TOL * size)
                for j in np.flatnonzero(done):
                    out[active[j]] = H[j]
                keep = ~(failed | done)
                if not keep.any():
                    break
                if not keep.all():
                    Ak, G, H, active = Ak[keep], G[keep], H[keep], active[keep]
        except np.linalg.LinAlgError:
            pass                    # W or I + U'HU singular: the rest stays unsettled
    settled = [j for j in range(k) if out[j] is not None]
    if settled:
        res = _dare_residuals(A, Bs[settled], Q, Rs[settled],
                              np.stack([out[j] for j in settled]))
        for j, r in zip(settled, res):
            if not r < DARE_RESIDUAL_TOL:
                out[j] = None
    return out


def solve_dare(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray):
    """Stabilizing solution of the discrete algebraic Riccati equation, or DIVERGED.

    B is one (n, m) input matrix with R its (m, m) input cost, or a stack of
    candidates sharing A and Q: B of shape (k, n, m) and R of shape
    (k, m, m), answered with a list of k results in stack order.

    The structure-preserving doubling algorithm runs on stacked arrays,
    DARE_CHUNK candidates at a time; its answers are accepted only within
    DARE_GUARD and with a relative residual below DARE_RESIDUAL_TOL.  Each
    candidate the doubling does not settle goes on alone to value iteration
    from P = Q, which declares DIVERGED past the guard or after
    DARE_MAX_ITER steps.
    """
    check_psd(Q, "Q")
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    Bs, Rs, stacked = _as_stack(B, R, 2, ("B", "R"))
    check_symmetric(Rs, "R")
    Ps = []
    for lo in range(0, len(Bs), DARE_CHUNK):
        Ps += _dare_doubling(A, Bs[lo:lo + DARE_CHUNK], Q, Rs[lo:lo + DARE_CHUNK])
    for j in range(len(Ps)):
        if Ps[j] is None:
            P, converged = _dare_fixed_point(A, Bs[j], Q, Rs[j])
            Ps[j] = P if converged else DIVERGED
    return Ps if stacked else Ps[0]


# ------------------------------------------------------------- Kalman side


def kalman_step(A: np.ndarray, C: np.ndarray, W: np.ndarray, V: np.ndarray,
                E: np.ndarray, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """One forward Kalman step; returns (L, E_next).

    L = E C' (C E C' + V)^{-1} and
    E_next = A E A' - A E C' (C E C' + V)^{-1} C E A' + W, symmetrized.
    With no sensors the gain has zero columns and E_next = A E A' + W.
    A singular innovation covariance (possible only when V is singular)
    surfaces as a solver error.  C may be a stack of k candidates, shape
    (k, l, n), with V of shape (k, l, l), and E may be a stack (k, n, n) of
    covariances; if either is stacked, L and E_next come back stacked, each
    slice equal to the one-candidate step on it.
    """
    Cs, Vs, stacked = _as_stack(C, V, 1, ("C", "V"))
    stacked = stacked or np.ndim(E) == 3
    if check:
        check_psd(W, "W")
        check_symmetric(Vs, "V")
        check_psd(E, "E")
    M = E @ mT(Cs)
    S = Cs @ M + Vs
    L = mT(np.linalg.solve(S, mT(M)))     # E C' S^{-1}, S symmetric
    E_next = symmetrize(A @ (E - L @ mT(M)) @ A.T + W)
    return (L, E_next) if stacked else (L[0], E_next[0])


def kalman_forward(A: np.ndarray, C: np.ndarray, W: np.ndarray, V: np.ndarray,
                   E_0: np.ndarray, T: int) -> GainSchedule:
    """Forward error-covariance recursion: gains L[0..T-1], covariances E[0..T].

    A stack of k candidates (C of shape (k, l, n), V of shape (k, l, l))
    runs as one recursion from the shared E_0: every L[tau] and E[tau] is
    then stacked over the candidates.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    Cs, Vs, stacked = _as_stack(C, V, 1, ("C", "V"))
    check_psd(W, "W")
    check_symmetric(Vs, "V")
    check_psd(E_0, "E_0")
    E_0 = np.asarray(E_0, dtype=float)
    E = np.broadcast_to(E_0, (len(Cs),) + E_0.shape)
    Es = [E]
    Ls: list[np.ndarray] = []
    for _ in range(T):
        L, E = kalman_step(A, Cs, W, Vs, E, check=False)
        Ls.append(L)
        Es.append(E)
    if not stacked:
        Ls = [L[0] for L in Ls]
        Es = [E[0] for E in Es]
    return GainSchedule(horizon=T, L=Ls, E=Es)


def factored_kalman(A: np.ndarray, W: np.ndarray, E_0: np.ndarray, T: int):
    """kalman_forward for stacks of sensor sets, with the error covariance
    injected over the horizon, as low-rank corrections to shared open-loop
    recursions; returns price(C, V).

    The open-loop covariances E0_0 = E_0, E0_{tau+1} = A E0_tau A' + W and
    their injected part Gam_0 = 0, Gam_{tau+1} = A Gam_tau A' + W are
    computed once.  A set of l sensors changes them by terms of rank l and
    2l per step.  With the gain L_tau = E_tau C' S_tau^{-1},
    S_tau = C E_tau C' + V, the covariance update removes A L S L'A', so
        E_tau = E0_tau - Lam_tau blkdiag(S_0, ..., S_{tau-1}) Lam_tau',
        Lam_{tau+1} = A [Lam_tau, L_tau],  Lam_0 empty.
    The injected covariance Sig_0 = 0,
    Sig_{tau+1} = Acl Sig_tau Acl' + W + A L_tau V L_tau'A' with
    Acl = A - A L_tau C, is A Sig_tau A' + W - A (X L' + L X') A' with
    X_tau = N_tau - L_tau (C N_tau + V) / 2 and N_tau = Sig_tau C', so
        Sig_tau = Gam_tau - Phi_tau Lam_tau' - Lam_tau Phi_tau',
        Phi_{tau+1} = A [Phi_tau, X_tau],  Phi_0 empty.

    price(C, V) takes a stack of k sets, C of shape (k, l, n) and V of shape
    (k, l, l), and returns L (k, T, n, l), the gains of kalman_forward, and
    the factors Y (k, n, l T(T-1)) laid out as
        Y = [Phi_1, Lam_1, Phi_2, Lam_2, ..., Phi_{T-1}, Lam_{T-1}],
    Phi_tau and Lam_tau each l tau columns wide, so that block tau starts at
    column l tau (tau - 1) and Sig_tau = Gam_tau - Z_tau - Z_tau' with
    Z_tau = Phi_tau Lam_tau' (Z_0 = 0).  Each step writes A times the
    previous block and the new columns straight into the next block; no Z
    is formed.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    check_psd(W, "W")
    check_psd(E_0, "E_0")
    A = np.asarray(A, dtype=float)
    E0 = _open_loop(A, E_0, W, T - 1)
    Gam = _open_loop(A, np.zeros_like(A), W, T - 1)

    def price(C: np.ndarray, V: np.ndarray):
        Cs, Vs, _ = _as_stack(C, V, 1, ("C", "V"))
        check_symmetric(Vs, "V")
        k, l, n = Cs.shape
        CT = mT(Cs)
        L = np.empty((k, T, n, l))
        S = np.empty((k, T, l, l))
        Y = np.empty((k, n, l * T * (T - 1)))
        Lam = Phi = Y[:, :, :0]
        for tau in range(T):
            LamC = mT(Lam) @ CT
            M = E0[tau] @ CT - Lam @ _blockdiag_times(S[:, :tau], LamC)   # E_tau C'
            S[:, tau] = Cs @ M + Vs
            L[:, tau] = Lt = M @ np.linalg.inv(S[:, tau])
            if tau < T - 1:
                N = Gam[tau] @ CT - Phi @ LamC - Lam @ (mT(Phi) @ CT)   # Sig_tau C'
                X = N - 0.5 * (Lt @ (Cs @ N + Vs))
                lo, w = l * tau * (tau + 1), l * (tau + 1)     # block tau + 1
                blocks = Y[:, :, lo:lo + w], Y[:, :, lo + w:lo + 2 * w]
                for old, new, out in zip((Phi, Lam), (X, Lt), blocks):
                    np.matmul(A, old, out=out[:, :, :w - l])
                    np.matmul(A, new, out=out[:, :, w - l:])
                Phi, Lam = blocks
        return L, Y

    return price


def estimator_update(system, arch, K_0: np.ndarray, L_0: np.ndarray,
                     x_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Propagate the state estimate one step under u = -K_0 x_hat.

    x_hat(t+1) = A (I - L_0 C) x_hat + A L_0 y + B u with B, C induced by
    the active architecture.
    """
    from .network import build_input_matrix, build_output_matrix

    B = build_input_matrix(system, arch)
    C = build_output_matrix(system, arch)
    y = np.asarray(y, dtype=float)
    if y.shape != (C.shape[0],):
        raise ValueError(f"y must have length {C.shape[0]}, got shape {y.shape}")
    u = -K_0 @ x_hat
    A = system.A
    return A @ (x_hat - L_0 @ (C @ x_hat)) + A @ (L_0 @ y) + B @ u

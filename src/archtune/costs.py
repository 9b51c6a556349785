"""Cost model: predicted horizon cost, true stage cost, and architecture costs.

The control cost of an output-feedback architecture over the prediction
horizon is priced on the augmented 2n-dimensional stacking X = [x; x_hat] of
true state and estimate.  Per prediction step tau the closed loop is

    X(tau+1) = A_bar_tau X(tau) + F_tau [w; v],

and the expected quadratic cost conditional on the current estimate is
evaluated exactly by a backward recursion on matrices Z_tau.  Running and
switching costs price the architecture itself (keeping devices on, toggling
them) independently of control performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lin import check_pd, check_psd, symmetrize
from .network import (ArchitectureSet, LinearNetworkSystem, build_input_matrix,
                      build_output_matrix, indicator)
from .synthesis import GainSchedule, kalman_forward, lqr_backward

__all__ = [
    "CostParameters",
    "AugmentedStep",
    "LedgerEntry",
    "CostLedger",
    "uniform_cost_parameters",
    "input_cost_block",
    "synthesize_gains",
    "build_augmented",
    "predicted_cost",
    "predicted_cost_with_gains",
    "true_stage_cost",
    "running_cost",
    "switching_cost",
    "ledger_entry",
    "total_estimated_cost",
    "accumulate_true_cost",
]


@dataclass(frozen=True)
class CostParameters:
    """Quadratic control weights plus per-device architecture cost rates.

    input_cost is sized for the full actuator pool (M x M); the active block
    is the principal submatrix indexed by the active actuators.  Running and
    switching rates are per-device vectors over each pool.  horizon is the
    prediction length T_p.
    """

    state_cost: np.ndarray
    input_cost: np.ndarray
    terminal_cost: np.ndarray
    actuator_running: np.ndarray
    sensor_running: np.ndarray
    actuator_switching: np.ndarray
    sensor_switching: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        for name in ("state_cost", "input_cost", "terminal_cost", "actuator_running",
                     "sensor_running", "actuator_switching", "sensor_switching"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        check_psd(self.state_cost, "state_cost")
        check_pd(self.input_cost, "input_cost")
        check_psd(self.terminal_cost, "terminal_cost")
        for name in ("actuator_running", "sensor_running",
                     "actuator_switching", "sensor_switching"):
            v = getattr(self, name)
            if v.ndim != 1 or np.any(v < 0):
                raise ValueError(f"{name} must be a nonnegative vector")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def uniform_cost_parameters(n: int, M: int, L: int, horizon: int,
                            input_weight: float = 1.0, running: float = 0.0,
                            switching: float = 0.0,
                            terminal: np.ndarray | None = None) -> CostParameters:
    """Identity state cost, scaled-identity input cost, constant device rates."""
    return CostParameters(
        state_cost=np.eye(n),
        input_cost=input_weight * np.eye(M),
        terminal_cost=np.eye(n) if terminal is None else terminal,
        actuator_running=np.full(M, float(running)),
        sensor_running=np.full(L, float(running)),
        actuator_switching=np.full(M, float(switching)),
        sensor_switching=np.full(L, float(switching)),
        horizon=horizon,
    )


def input_cost_block(R, actuators) -> np.ndarray:
    """Input cost of the active actuators: the principal submatrix of a
    pool-sized R, or a scalar rate R times the identity.  actuators is one
    index sequence or a (k, m) array of them, answered with a (k, m, m) stack.
    """
    idx = np.asarray(actuators, dtype=int)
    R = np.asarray(R, dtype=float)
    if R.ndim == 0:
        m = idx.shape[-1]
        return float(R) * np.broadcast_to(np.eye(m), idx.shape + (m,))
    return R[idx[..., :, None], idx[..., None, :]]


@dataclass
class AugmentedStep:
    """One prediction step of the augmented closed loop.

    A_bar drives X = [x; x_hat]; F injects the stacked noise [w; v]; Q_bar
    weights X in the stage cost; W_bar = F cov([w; v]) F'.
    """

    A_bar: np.ndarray
    F: np.ndarray
    Q_bar: np.ndarray
    W_bar: np.ndarray


def build_augmented(system: LinearNetworkSystem, arch: ArchitectureSet,
                    gains: GainSchedule, tau: int, params: CostParameters) -> AugmentedStep:
    """Assemble the augmented closed-loop matrices for prediction step tau.

    A_bar = [[A, -B K_tau], [A L_tau C, A - A L_tau C - B K_tau]],
    F = [[I, 0], [0, A L_tau]], Q_bar = blockdiag(state cost, K' R1 K),
    W_bar = F blockdiag(W, V) F'.  Both Q_bar and W_bar come out block
    diagonal, so they are assembled directly in that form.
    """
    if gains.K is None or gains.L is None or tau >= gains.horizon:
        raise ValueError("gains must carry K and L parts with horizon > tau")
    A = system.A
    n = system.n
    B = build_input_matrix(system, arch)
    C = build_output_matrix(system, arch)
    K = gains.K[tau]
    L = gains.L[tau]
    if K.shape != (B.shape[1], n) or L.shape != (n, C.shape[0]):
        raise ValueError("gain dimensions do not match the architecture")
    l = C.shape[0]
    BK = B @ K
    AL = A @ L
    ALC = AL @ C
    A_bar = np.block([[A, -BK], [ALC, A - ALC - BK]])
    F = np.zeros((2 * n, n + l))
    F[:n, :n] = np.eye(n)
    F[n:, n:] = AL
    R1a = input_cost_block(params.input_cost, arch.actuators)
    Q_bar = np.zeros((2 * n, 2 * n))
    Q_bar[:n, :n] = params.state_cost
    Q_bar[n:, n:] = K.T @ R1a @ K
    W_bar = np.zeros((2 * n, 2 * n))
    W_bar[:n, :n] = system.W
    W_bar[n:, n:] = system.v_var * (AL @ AL.T)
    return AugmentedStep(A_bar=A_bar, F=F, Q_bar=Q_bar, W_bar=W_bar)


def synthesize_gains(system: LinearNetworkSystem, arch: ArchitectureSet,
                     E_t: np.ndarray, params: CostParameters) -> GainSchedule:
    """LQR backward + Kalman forward schedules for one architecture over T_p."""
    B = build_input_matrix(system, arch)
    C = build_output_matrix(system, arch)
    R1a = input_cost_block(params.input_cost, arch.actuators)
    T = params.horizon
    lqr = lqr_backward(system.A, B, params.state_cost, R1a, params.terminal_cost, T)
    V = system.v_var * np.eye(C.shape[0])
    kal = kalman_forward(system.A, C, system.W, V, E_t, T)
    return GainSchedule(horizon=T, K=lqr.K, P=lqr.P, L=kal.L, E=kal.E)


def predicted_cost_with_gains(system: LinearNetworkSystem, arch: ArchitectureSet,
                              x_hat: np.ndarray, gains: GainSchedule,
                              params: CostParameters) -> float:
    """Expected horizon cost given already-synthesized gains.

    Backward recursion Z_T = blockdiag(terminal cost, 0),
    Z_tau = A_bar' Z A_bar + Q_bar; the value is
    X_hat' Z_0 X_hat + sum_tau trace(Z_{tau+1} W_bar_tau) with X_hat the
    doubled estimate (the conditional mean of [x; x_hat]).
    """
    n = system.n
    T = params.horizon
    if gains.K is None or gains.L is None or gains.horizon < T:
        raise ValueError("gains must carry K and L parts spanning the horizon")
    A = system.A
    B = build_input_matrix(system, arch)
    C = build_output_matrix(system, arch)
    R1a = input_cost_block(params.input_cost, arch.actuators)
    Q = params.state_cost
    W = system.W
    v_var = system.v_var
    # Z is maintained in n x n blocks [[Z11, Z12], [Z12', Z22]]; the block
    # form of A_bar' Z A_bar + Q_bar avoids assembling 2n x 2n matrices in
    # the hot loop.  Off-diagonal round-off is averaged away each step so the
    # result matches the dense symmetrized recursion.
    Z11 = np.array(params.terminal_cost, dtype=float)
    Z12 = np.zeros((n, n))
    Z22 = np.zeros((n, n))
    noise_acc = 0.0
    for tau in range(T - 1, -1, -1):
        K = gains.K[tau]
        L = gains.L[tau]
        BK = B @ K
        AL = A @ L
        ALC = AL @ C
        D = A - ALC - BK
        # trace(Z_{tau+1} W_bar) with W_bar = blockdiag(W, v_var AL AL')
        noise_acc += float(np.sum(Z11 * W))
        if v_var:
            noise_acc += v_var * float(np.sum((Z22 @ AL) * AL))
        M11 = Z11 @ A + Z12 @ ALC
        M12 = Z12 @ D - Z11 @ BK
        M21 = Z12.T @ A + Z22 @ ALC
        M22 = Z22 @ D - Z12.T @ BK
        U11 = A.T @ M11 + ALC.T @ M21
        U12 = A.T @ M12 + ALC.T @ M22
        U21 = D.T @ M21 - BK.T @ M11
        U22 = D.T @ M22 - BK.T @ M12
        Z11 = 0.5 * (U11 + U11.T) + Q
        Z12 = 0.5 * (U12 + U21.T)
        Z22 = 0.5 * (U22 + U22.T) + K.T @ R1a @ K
    # X_hat' Z_0 X_hat with X_hat = [x_hat; x_hat]
    value = float(x_hat @ (Z11 + Z12 + Z12.T + Z22) @ x_hat)
    return value + noise_acc


def predicted_cost(system: LinearNetworkSystem, arch: ArchitectureSet,
                   x_hat: np.ndarray, E_t: np.ndarray,
                   params: CostParameters) -> tuple[float, GainSchedule]:
    """Expected cost of holding this architecture over the prediction horizon.

    Synthesizes the horizon gain schedules from the current error covariance
    E_t, then prices the augmented closed loop conditional on x_hat.  Always
    finite for a finite horizon.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != (system.n,):
        raise ValueError(f"x_hat must have length {system.n}, got shape {x_hat.shape}")
    check_psd(np.asarray(E_t, dtype=float), "E_t")
    gains = synthesize_gains(system, arch, E_t, params)
    return predicted_cost_with_gains(system, arch, x_hat, gains, params), gains


def true_stage_cost(x: np.ndarray, x_hat: np.ndarray, arch: ArchitectureSet,
                    gains: GainSchedule, params: CostParameters) -> float:
    """Stage cost actually incurred: x'Q x plus the input penalty at u = -K_0 x_hat."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if gains.K is None or not gains.K:
        raise ValueError("gains must carry at least one feedback gain")
    K0 = gains.K[0]
    if K0.shape != (len(arch.actuators), x.shape[0]):
        raise ValueError("K_0 dimensions do not match the architecture")
    u = K0 @ x_hat
    R1a = input_cost_block(params.input_cost, arch.actuators)
    return float(x @ params.state_cost @ x + u @ R1a @ u)


def running_cost(arch: ArchitectureSet, params: CostParameters) -> float:
    """Per-step cost of the devices currently switched on."""
    return float(params.actuator_running[list(arch.actuators)].sum()
                 + params.sensor_running[list(arch.sensors)].sum())


def switching_cost(arch: ArchitectureSet, arch_prev: ArchitectureSet,
                   params: CostParameters) -> float:
    """Cost of toggling devices between two consecutive architectures: the
    elementwise absolute difference of the indicator vectors, so every
    toggle is costly."""
    M = params.actuator_switching.shape[0]
    L = params.sensor_switching.shape[0]
    da = np.abs(indicator(arch, "actuator", M) - indicator(arch_prev, "actuator", M))
    ds = np.abs(indicator(arch, "sensor", L) - indicator(arch_prev, "sensor", L))
    return float(da @ params.actuator_switching + ds @ params.sensor_switching)


@dataclass
class LedgerEntry:
    """One time step of the cost ledger.

    Estimation-side fields are filled when an architecture is priced;
    true-side fields when the incurred stage cost is accumulated.
    """

    t: int | None = None
    predicted: float | None = None
    running: float = 0.0
    switching: float = 0.0
    total_estimated: float | None = None
    true_stage: float | None = None
    cumulative_true: float | None = None


class CostLedger:
    """Per-time-step cost records with an exact cumulative true total."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self.entries)


def ledger_entry(predicted: float, arch: ArchitectureSet, arch_prev: ArchitectureSet,
                 params: CostParameters | None, t: int | None = None) -> LedgerEntry:
    """Estimation side of a ledger entry for an architecture chosen after
    arch_prev: total = predicted + running + switching.  Without cost
    parameters the architecture itself costs nothing."""
    run = 0.0 if params is None else running_cost(arch, params)
    switch = 0.0 if params is None else switching_cost(arch, arch_prev, params)
    return LedgerEntry(t=t, predicted=predicted, running=run, switching=switch,
                       total_estimated=predicted + run + switch)


def total_estimated_cost(system: LinearNetworkSystem, arch: ArchitectureSet,
                         arch_prev: ArchitectureSet, x_hat: np.ndarray,
                         E_t: np.ndarray, params: CostParameters) -> tuple[float, LedgerEntry]:
    """Predicted control cost plus running and switching costs, with breakdown."""
    entry = ledger_entry(predicted_cost(system, arch, x_hat, E_t, params)[0], arch,
                         arch_prev, params)
    return entry.total_estimated, entry


def accumulate_true_cost(ledger: CostLedger, stage: float, running: float,
                         switching: float, t: int) -> CostLedger:
    """Record the incurred costs of step t and extend the cumulative total.

    cumulative(t) = sum_{tau<=t} (stage + running) + sum_{1<=tau<=t} switching;
    the switching term is excluded at t = 0.  Steps must be recorded in order,
    so the accumulated entries form a prefix of the ledger: step t is next
    when entry t - 1 is accumulated and entry t (if any) is not.
    """
    entries = ledger.entries
    if not (0 <= t <= len(entries)
            and (t == 0 or entries[t - 1].cumulative_true is not None)
            and (t == len(entries) or entries[t].cumulative_true is None)):
        raise ValueError(f"steps must be accumulated contiguously: got t={t}")
    if t < len(entries):
        entry = entries[t]
    else:
        entry = LedgerEntry()
        entries.append(entry)
    entry.t = t
    entry.true_stage = float(stage)
    entry.running = float(running)
    entry.switching = float(switching)
    prev_total = entries[t - 1].cumulative_true if t > 0 else 0.0
    increment = stage + running + (switching if t > 0 else 0.0)
    entry.cumulative_true = float(prev_total + increment)
    return ledger

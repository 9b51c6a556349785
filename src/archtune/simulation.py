"""Closed-loop rollouts of fixed and self-tuning architectures.

Randomness is split deterministically: SeedSequence(seed).spawn(4) gives the
child streams in the fixed order [initial state, process noise, measurement
noise, initial architecture], so traces are reproducible bit for bit for a
given config regardless of platform timing.  Wall-clock compute times are
recorded alongside the trace but never feed back into it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._lin import check_pd, psd_factor
from .costs import (
    CostLedger,
    CostParameters,
    LedgerEntry,
    accumulate_true_cost,
    predicted_cost_with_gains,
    running_cost,
    switching_cost,
    synthesize_gains,
    true_stage_cost,
)
from .greedy import (
    change_count,
    greedy_actuator_state_feedback,
    greedy_swap,
    least_squares_identify,
)
from .network import (
    ArchitectureConstraints,
    ArchitectureSet,
    LinearNetworkSystem,
    build_input_matrix,
    build_output_matrix,
    satisfies_constraints,
)
from .synthesis import (
    Diverged,
    DARE_GUARD,
    estimator_update,
    kalman_step,
    last_riccati_iterate,
    solve_dare,
)

__all__ = [
    "SimulationConfig",
    "SimulationTrace",
    "ComparisonSummary",
    "draw_feasible_architecture",
    "simulate",
    "simulate_lqr",
    "simulate_lqg",
    "compare_runs",
]


def _pool_input_cost(R, M: int) -> np.ndarray:
    """Promote a scalar rate to the pool-sized input cost matrix."""
    R = np.asarray(R, dtype=float)
    return float(R) * np.eye(M) if R.ndim == 0 else R

MODES = ("fixed", "self_tuning")
FEEDBACKS = ("state", "output")
DIVERGED_POLICIES = ("last_gain", "zero")


@dataclass
class SimulationConfig:
    """Everything a rollout depends on, including the seed.

    Output feedback needs constraints and cost parameters (whose horizon is
    the per-step prediction horizon).  State feedback uses state_Q / state_R
    and either a fixed architecture or an actuator cardinality budget for the
    self-tuning selector.  initial_arch = None draws a feasible architecture
    from the seeded stream.
    """

    system: LinearNetworkSystem
    mode: str
    feedback: str
    T_sim: int
    seed: int
    initial_arch: ArchitectureSet | None = None
    constraints: ArchitectureConstraints | None = None
    params: CostParameters | None = None
    x0_std: float = 1.0
    E0_scale: float = 1.0
    cardinality: int | None = None
    state_Q: np.ndarray | None = None
    state_R: object = 1.0
    identify: bool = False
    diverged_policy: str = "last_gain"
    name: str = "run"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.feedback not in FEEDBACKS:
            raise ValueError(f"feedback must be one of {FEEDBACKS}")
        if self.diverged_policy not in DIVERGED_POLICIES:
            raise ValueError(f"diverged_policy must be one of {DIVERGED_POLICIES}")
        if self.T_sim < 1:
            raise ValueError("T_sim must be >= 1")
        if self.x0_std < 0 or self.E0_scale < 0:
            raise ValueError("x0_std and E0_scale must be nonnegative")
        if self.feedback == "output":
            if self.constraints is None or self.params is None:
                raise ValueError("output feedback needs constraints and cost parameters")
            if self.system.v_var == 0:
                # noiseless sensors leave C E C' as the whole innovation
                # covariance, so E must stay positive definite at every step
                if self.E0_scale == 0:
                    raise ValueError("output feedback with v_var 0 needs E0_scale > 0")
                check_pd(self.system.W, "W (output feedback with v_var 0)")
        else:
            if self.mode == "fixed" and self.initial_arch is None:
                raise ValueError("fixed state feedback needs an explicit architecture")
            if self.mode == "self_tuning":
                if self.cardinality is None or self.cardinality < 1:
                    raise ValueError("self-tuning state feedback needs cardinality >= 1")
                if self.cardinality > self.system.num_actuators:
                    raise ValueError("cardinality exceeds the actuator pool")
        if self.initial_arch is not None:
            M, L = self.system.num_actuators, self.system.num_sensors
            if any(a >= M for a in self.initial_arch.actuators):
                raise ValueError("initial architecture references an actuator outside the pool")
            if any(s >= L for s in self.initial_arch.sensors):
                raise ValueError("initial architecture references a sensor outside the pool")
            if self.constraints is not None and not satisfies_constraints(self.initial_arch, self.constraints):
                raise ValueError("initial architecture violates the architecture constraints")


@dataclass
class SimulationTrace:
    """One rollout: states, estimates, inputs, per-step architectures, the
    cost ledger, per-step controller compute times, and any warnings."""

    config: SimulationConfig
    x: np.ndarray
    x_hat: np.ndarray
    inputs: list[np.ndarray]
    archs: list[ArchitectureSet]
    ledger: CostLedger
    compute_time: np.ndarray
    warnings: list[str] = field(default_factory=list)

    @property
    def final_cumulative_cost(self) -> float:
        return self.ledger.entries[-1].cumulative_true

    @property
    def max_state_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.x, axis=1)))

    def per_step_changes(self) -> list[int]:
        """Architecture change counts between consecutive steps (0 at t=0)."""
        counts = [0]
        for prev, cur in zip(self.archs, self.archs[1:]):
            counts.append(change_count(set(prev.actuators), set(cur.actuators))
                          + change_count(set(prev.sensors), set(cur.sensors)))
        return counts


def draw_feasible_architecture(rng: np.random.Generator, num_actuators: int,
                               num_sensors: int,
                               constraints: ArchitectureConstraints) -> ArchitectureSet:
    """Uniform feasible draw: actuator count, actuator subset, sensor count,
    sensor subset, in that stream order."""
    k_act = int(rng.integers(constraints.act_min, constraints.act_max + 1))
    acts = rng.choice(num_actuators, size=k_act, replace=False)
    k_sen = int(rng.integers(constraints.sen_min, constraints.sen_max + 1))
    sens = rng.choice(num_sensors, size=k_sen, replace=False)
    return ArchitectureSet(actuators=tuple(sorted(int(a) for a in acts)),
                           sensors=tuple(sorted(int(s) for s in sens)))


def _spawn_streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def _zeros_params(params: CostParameters | None, arch: ArchitectureSet,
                  arch_prev: ArchitectureSet):
    if params is None:
        return 0.0, 0.0
    return running_cost(arch, params), switching_cost(arch, arch_prev, params)


def _divergence_warnings(x: np.ndarray) -> list[str]:
    """One warning for the first state whose norm is not finite or passes
    DARE_GUARD; none for a rollout that stays within the guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(norms <= DARE_GUARD))
    if bad.size == 0:
        return []
    t = int(bad[0])
    return [f"state diverged at step {t}: |x| = {norms[t]:.3e} is past {DARE_GUARD:.0e}"]


def _fixed_state_gain(system: LinearNetworkSystem, arch: ArchitectureSet,
                      Q: np.ndarray, R, policy: str,
                      warnings: list[str]):
    """Infinite-horizon gain for a fixed actuator set; falls back per the
    diverged policy when no stabilizing solution exists."""
    B = build_input_matrix(system, arch)
    idx = list(arch.actuators)
    Rb = _pool_input_cost(R, system.num_actuators)[np.ix_(idx, idx)]
    P = solve_dare(system.A, B, Q, Rb)
    if isinstance(P, Diverged):
        warnings.append(f"fixed architecture {arch.actuators} has no stabilizing "
                        f"solution; using {policy} fallback gain")
        if policy == "zero":
            return np.zeros((B.shape[1], system.n)), math.inf
        P_last = last_riccati_iterate(system.A, B, Q, Rb)
        S = Rb + B.T @ P_last @ B
        return -np.linalg.solve(S, B.T @ P_last @ system.A), math.inf
    S = Rb + B.T @ P @ B
    K = -np.linalg.solve(S, B.T @ P @ system.A)
    return K, P


def simulate_lqr(config: SimulationConfig) -> SimulationTrace:
    """State-feedback rollout, fixed or self-tuning actuator set.

    The self-tuning mode reruns the greedy actuator selector every step from
    the current state (optionally on least-squares identified dynamics once
    enough transitions exist) and shares a DARE cache across steps.
    """
    if config.feedback != "state":
        raise ValueError("simulate_lqr is the state-feedback rollout")
    system = config.system
    n = system.n
    A = system.A
    Q = np.eye(n) if config.state_Q is None else np.asarray(config.state_Q, dtype=float)
    rng_x0, rng_w, _, _ = _spawn_streams(config.seed)
    W_factor = psd_factor(system.W)
    warnings: list[str] = []

    x = np.zeros((config.T_sim + 1, n))
    x[0] = config.x0_std * rng_x0.standard_normal(n)
    inputs: list[np.ndarray] = []
    archs: list[ArchitectureSet] = []
    ledger = CostLedger()
    compute_time = np.zeros(config.T_sim)

    if config.mode == "fixed":
        tic = time.perf_counter()
        K_fixed, P_fixed = _fixed_state_gain(system, config.initial_arch, Q,
                                             config.state_R, config.diverged_policy,
                                             warnings)
        fixed_setup = time.perf_counter() - tic
    dare_cache: dict = {}
    input_hist: list[np.ndarray] = []
    arch_prev = config.initial_arch

    for t in range(config.T_sim):
        if config.mode == "fixed":
            arch_t = config.initial_arch
            P_t = P_fixed
            compute_time[t] = fixed_setup if t == 0 else 0.0
        else:
            if config.identify and t >= n:
                # identified dynamics change every step, so the cross-step
                # cache would be stale; use a per-step one
                B_hist = [build_input_matrix(system, a) for a in archs]
                A_hat = least_squares_identify(x[: t + 1], input_hist, B_hist).A_hat
                step_cache: dict = {}
            else:
                A_hat = None
                step_cache = dare_cache
            tic = time.perf_counter()
            arch_t, K, u = greedy_actuator_state_feedback(
                system, x[t], Q, config.state_R, config.cardinality,
                A_hat=A_hat, dare_cache=step_cache)
            compute_time[t] = time.perf_counter() - tic
            P_t = step_cache.get(arch_t.actuators)
            if P_t is None or isinstance(P_t, Diverged):
                P_t = math.inf
        B_t = build_input_matrix(system, arch_t)
        idx = list(arch_t.actuators)
        Rb = _pool_input_cost(config.state_R, system.num_actuators)[np.ix_(idx, idx)]
        w = W_factor @ rng_w.standard_normal(n)
        # a diverging state overflows here; _divergence_warnings reports it once
        with np.errstate(over="ignore", invalid="ignore"):
            if config.mode == "fixed":
                u = K_fixed @ x[t]
            predicted = P_t if isinstance(P_t, float) else float(x[t] @ P_t @ x[t])
            stage = float(x[t] @ Q @ x[t] + u @ Rb @ u)
            x[t + 1] = A @ x[t] + B_t @ u + w
        run, switch = _zeros_params(config.params, arch_t,
                                    arch_prev if arch_prev is not None else arch_t)
        ledger.entries.append(LedgerEntry(t=t, predicted=predicted, running=run,
                                          switching=switch,
                                          total_estimated=predicted + run + switch))
        accumulate_true_cost(ledger, stage, run, switch, t)
        inputs.append(u)
        input_hist.append(u)
        archs.append(arch_t)
        arch_prev = arch_t

    warnings += _divergence_warnings(x)
    return SimulationTrace(config=config, x=x, x_hat=x.copy(), inputs=inputs,
                           archs=archs, ledger=ledger, compute_time=compute_time,
                           warnings=warnings)


def simulate_lqg(config: SimulationConfig) -> SimulationTrace:
    """Output-feedback rollout with per-step architecture reoptimization.

    Each step: commit an architecture (greedy swap from the previous one in
    self-tuning mode, held fixed otherwise), synthesize certainty-equivalence
    gains over the prediction horizon, apply u = K_0 x_hat, measure through
    the committed sensor set, update the estimate and error covariance, then
    propagate the true state.
    """
    if config.feedback != "output":
        raise ValueError("simulate_lqg is the output-feedback rollout")
    system = config.system
    params = config.params
    constraints = config.constraints
    n = system.n
    A = system.A
    rng_x0, rng_w, rng_v, rng_arch = _spawn_streams(config.seed)
    W_factor = psd_factor(system.W)
    v_std = math.sqrt(system.v_var)
    warnings: list[str] = []

    if config.initial_arch is not None:
        arch_prev = config.initial_arch
    else:
        arch_prev = draw_feasible_architecture(rng_arch, system.num_actuators,
                                               system.num_sensors, constraints)

    x = np.zeros((config.T_sim + 1, n))
    x_hat = np.zeros((config.T_sim + 1, n))
    x[0] = config.x0_std * rng_x0.standard_normal(n)
    E = config.E0_scale * np.eye(n)
    E_diverged = False
    inputs: list[np.ndarray] = []
    archs: list[ArchitectureSet] = []
    ledger = CostLedger()
    compute_time = np.zeros(config.T_sim)

    for t in range(config.T_sim):
        tic = time.perf_counter()
        # a diverged error covariance overflows here and in its update below;
        # the update reports it once
        with np.errstate(over="ignore", invalid="ignore"):
            if config.mode == "self_tuning":
                arch_t, entry, gains = greedy_swap(system, arch_prev, x_hat[t], E,
                                                   params, constraints)
                entry.t = t
            else:
                arch_t = arch_prev
                gains = synthesize_gains(system, arch_t, E, params)
                predicted = predicted_cost_with_gains(system, arch_t, x_hat[t], gains,
                                                      params)
                run = running_cost(arch_t, params)
                switch = switching_cost(arch_t, arch_prev, params)
                entry = LedgerEntry(t=t, predicted=predicted, running=run,
                                    switching=switch,
                                    total_estimated=predicted + run + switch)
        compute_time[t] = time.perf_counter() - tic
        ledger.entries.append(entry)

        K0 = gains.K[0]
        L0 = gains.L[0]
        C_t = build_output_matrix(system, arch_t)
        B_t = build_input_matrix(system, arch_t)
        v = v_std * rng_v.standard_normal(C_t.shape[0])
        w = W_factor @ rng_w.standard_normal(n)
        # a diverging state overflows here; _divergence_warnings reports it once
        with np.errstate(over="ignore", invalid="ignore"):
            u = -K0 @ x_hat[t]
            y = C_t @ x[t] + v
            stage = true_stage_cost(x[t], x_hat[t], arch_t, gains, params)
            x_hat[t + 1] = estimator_update(system, arch_t, K0, L0, x_hat[t], y)
            x[t + 1] = A @ x[t] + B_t @ u + w
        accumulate_true_cost(ledger, stage, entry.running, entry.switching, t)
        V_t = system.v_var * np.eye(C_t.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            _, E = kalman_step(A, C_t, system.W, V_t, E, check=False)
            E_norm = np.linalg.norm(E)
        if not E_diverged and not E_norm <= DARE_GUARD:
            E_diverged = True
            warnings.append(f"error covariance diverged at step {t + 1}: "
                            f"|E| = {E_norm:.3e} is past {DARE_GUARD:.0e}")

        inputs.append(u)
        archs.append(arch_t)
        arch_prev = arch_t

    warnings += _divergence_warnings(x)
    return SimulationTrace(config=config, x=x, x_hat=x_hat, inputs=inputs,
                           archs=archs, ledger=ledger, compute_time=compute_time,
                           warnings=warnings)


def simulate(config: SimulationConfig) -> SimulationTrace:
    """Dispatch on the feedback kind."""
    if config.feedback == "state":
        return simulate_lqr(config)
    return simulate_lqg(config)


@dataclass
class ComparisonSummary:
    """Side-by-side metrics for a list of rollouts; the cost ratio compares
    the first trace against the last (ratio > 1 means the last is cheaper)."""

    final_cumulative: list[float]
    cost_ratio: float
    final_state_norm: list[float]
    max_state_norm: list[float]
    change_counts: list[list[int]]
    mean_compute_time: list[float]


def compare_runs(traces: list[SimulationTrace]) -> ComparisonSummary:
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    finals = [tr.final_cumulative_cost for tr in traces]
    if finals[-1] == 0.0:
        ratio = math.inf if finals[0] > 0 else 1.0
    else:
        ratio = finals[0] / finals[-1]
    return ComparisonSummary(
        final_cumulative=finals,
        cost_ratio=ratio,
        final_state_norm=[float(np.linalg.norm(tr.x[-1])) for tr in traces],
        max_state_norm=[tr.max_state_norm for tr in traces],
        change_counts=[tr.per_step_changes() for tr in traces],
        mean_compute_time=[float(np.mean(tr.compute_time)) for tr in traces],
    )

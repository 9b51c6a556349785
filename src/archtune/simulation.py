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
    accumulate_true_cost,
    input_cost_block,
    ledger_entry,
    predicted_cost_with_gains,
    synthesize_gains,
    true_stage_cost,
)
from .greedy import (
    arch_change_count,
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
    "compare_runs",
]


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
            R, M = np.asarray(self.state_R, dtype=float), self.system.num_actuators
            if R.ndim:
                if R.shape != (M, M):
                    raise ValueError(f"state_R must be a scalar or {M}x{M} over the "
                                     f"actuator pool, got shape {R.shape}")
                check_pd(R, "state_R")
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
        return [0] + [arch_change_count(prev, cur)
                      for prev, cur in zip(self.archs, self.archs[1:])]


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
    Rb = input_cost_block(R, arch.actuators)
    P = value = solve_dare(system.A, B, Q, Rb)
    if isinstance(P, Diverged):
        warnings.append(f"fixed architecture {arch.actuators} has no stabilizing "
                        f"solution; using {policy} fallback gain")
        if policy == "zero":
            return np.zeros((B.shape[1], system.n)), math.inf
        P, value = last_riccati_iterate(system.A, B, Q, Rb), math.inf
    return -np.linalg.solve(Rb + B.T @ P @ B, B.T @ P @ system.A), value


class _StateFeedback:
    """Step policy of state feedback: u = K x with the infinite-horizon gain
    of an actuator set that is held fixed or, self-tuning, chosen every step
    by the greedy selector from the current state (optionally on
    least-squares identified dynamics once enough transitions exist).  The
    selector shares a DARE cache across steps.  The ledger prices x' P x.
    """

    def __init__(self, config: SimulationConfig, x, x_hat, rng_v, rng_arch,
                 warnings: list[str]) -> None:
        self.config, self.x = config, x
        n = config.system.n
        self.Q = np.eye(n) if config.state_Q is None else np.asarray(config.state_Q, dtype=float)
        self.initial_arch = config.initial_arch
        self.dare_cache: dict = {}
        if config.mode == "fixed":
            tic = time.perf_counter()
            self.K, self.P = _fixed_state_gain(config.system, config.initial_arch, self.Q,
                                               config.state_R, config.diverged_policy,
                                               warnings)
            self.setup_time = time.perf_counter() - tic

    def commit(self, t: int, arch_prev, inputs, archs):
        """(architecture, ledger entry, controller seconds) of step t."""
        config, system, x = self.config, self.config.system, self.x
        if config.mode == "fixed":
            arch_t, P_t = config.initial_arch, self.P
            seconds = self.setup_time if t == 0 else 0.0
        else:
            if config.identify and t >= system.n:
                # identified dynamics change every step, so the cross-step
                # cache would be stale; use a per-step one
                B_hist = [build_input_matrix(system, a) for a in archs]
                A_hat = least_squares_identify(x[: t + 1], inputs, B_hist).A_hat
                cache: dict = {}
            else:
                A_hat, cache = None, self.dare_cache
            tic = time.perf_counter()
            arch_t, self.K, _ = greedy_actuator_state_feedback(
                system, x[t], self.Q, config.state_R, config.cardinality,
                A_hat=A_hat, dare_cache=cache)
            seconds = time.perf_counter() - tic
            P_t = cache.get(arch_t.actuators)
            if P_t is None or isinstance(P_t, Diverged):
                P_t = math.inf
        predicted = P_t if isinstance(P_t, float) else float(x[t] @ P_t @ x[t])
        arch_prev = arch_prev if arch_prev is not None else arch_t
        return arch_t, ledger_entry(predicted, arch_t, arch_prev, config.params, t), seconds

    def act(self, t: int, arch_t: ArchitectureSet):
        """(input, incurred stage cost) of step t."""
        x_t = self.x[t]
        u = self.K @ x_t
        Rb = input_cost_block(self.config.state_R, arch_t.actuators)
        return u, float(x_t @ self.Q @ x_t + u @ Rb @ u)


class _OutputFeedback:
    """Step policy of output feedback: an architecture swapped greedily from
    the previous one (self-tuning) or held fixed, certainty-equivalence gains
    synthesized over the prediction horizon, u = -K_0 x_hat, and the estimate
    and error covariance updated through the committed sensors.
    """

    def __init__(self, config: SimulationConfig, x, x_hat, rng_v, rng_arch,
                 warnings: list[str]) -> None:
        system = config.system
        self.config, self.x, self.x_hat = config, x, x_hat
        self.rng_v, self.warnings = rng_v, warnings
        self.v_std = math.sqrt(system.v_var)
        self.E = config.E0_scale * np.eye(system.n)
        self.E_diverged = False
        if config.initial_arch is not None:
            self.initial_arch = config.initial_arch
        else:
            self.initial_arch = draw_feasible_architecture(
                rng_arch, system.num_actuators, system.num_sensors, config.constraints)

    def commit(self, t: int, arch_prev, inputs, archs):
        """(architecture, ledger entry, controller seconds) of step t."""
        config, system, params = self.config, self.config.system, self.config.params
        tic = time.perf_counter()
        if config.mode == "self_tuning":
            arch_t, entry, self.gains = greedy_swap(system, arch_prev, self.x_hat[t], self.E,
                                                    params, config.constraints)
            entry.t = t
        else:
            arch_t = arch_prev
            self.gains = synthesize_gains(system, arch_t, self.E, params)
            predicted = predicted_cost_with_gains(system, arch_t, self.x_hat[t], self.gains,
                                                  params)
            entry = ledger_entry(predicted, arch_t, arch_prev, params, t)
        return arch_t, entry, time.perf_counter() - tic

    def act(self, t: int, arch_t: ArchitectureSet):
        """(input, incurred stage cost) of step t; also measures, updates the
        estimate and steps the error covariance, reporting its divergence once."""
        system, x, x_hat, gains = self.config.system, self.x, self.x_hat, self.gains
        K0, L0 = gains.K[0], gains.L[0]
        C_t = build_output_matrix(system, arch_t)
        v = self.v_std * self.rng_v.standard_normal(C_t.shape[0])
        u = -K0 @ x_hat[t]
        y = C_t @ x[t] + v
        stage = true_stage_cost(x[t], x_hat[t], arch_t, gains, self.config.params)
        x_hat[t + 1] = estimator_update(system, arch_t, K0, L0, x_hat[t], y)
        V_t = system.v_var * np.eye(C_t.shape[0])
        _, self.E = kalman_step(system.A, C_t, system.W, V_t, self.E, check=False)
        E_norm = np.linalg.norm(self.E)
        if not self.E_diverged and not E_norm <= DARE_GUARD:
            self.E_diverged = True
            self.warnings.append(f"error covariance diverged at step {t + 1}: "
                                 f"|E| = {E_norm:.3e} is past {DARE_GUARD:.0e}")
        return u, stage


def simulate(config: SimulationConfig) -> SimulationTrace:
    """Closed-loop rollout, state or output feedback, fixed or self-tuning.

    Each step the feedback's policy commits an architecture and prices it
    (timed as the step's controller compute time), applies its input and
    reports the incurred stage cost; the true state then moves under the
    committed actuators and the process noise.  Every step runs under one
    np.errstate: a diverging state or error covariance overflows silently
    and is reported once in the trace warnings.
    """
    system = config.system
    n = system.n
    rng_x0, rng_w, rng_v, rng_arch = _spawn_streams(config.seed)
    W_factor = psd_factor(system.W)
    warnings: list[str] = []
    x = np.zeros((config.T_sim + 1, n))
    x_hat = np.zeros((config.T_sim + 1, n))
    x[0] = config.x0_std * rng_x0.standard_normal(n)
    feedback = _StateFeedback if config.feedback == "state" else _OutputFeedback
    policy = feedback(config, x, x_hat, rng_v, rng_arch, warnings)
    inputs: list[np.ndarray] = []
    archs: list[ArchitectureSet] = []
    ledger = CostLedger()
    compute_time = np.zeros(config.T_sim)
    arch_prev = policy.initial_arch

    for t in range(config.T_sim):
        with np.errstate(over="ignore", invalid="ignore"):
            arch_t, entry, compute_time[t] = policy.commit(t, arch_prev, inputs, archs)
            ledger.entries.append(entry)
            u, stage = policy.act(t, arch_t)
            w = W_factor @ rng_w.standard_normal(n)
            x[t + 1] = system.A @ x[t] + build_input_matrix(system, arch_t) @ u + w
            accumulate_true_cost(ledger, stage, entry.running, entry.switching, t)
        inputs.append(u)
        archs.append(arch_t)
        arch_prev = arch_t

    warnings += _divergence_warnings(x)
    if config.feedback == "state":
        x_hat = x.copy()
    return SimulationTrace(config=config, x=x, x_hat=x_hat, inputs=inputs,
                           archs=archs, ledger=ledger, compute_time=compute_time,
                           warnings=warnings)


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

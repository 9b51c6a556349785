"""Combinatorial search: greedy selection, swapping, and the state-feedback
actuator selector.

The swapping optimizer alternates a forced-selection subsequence (grow the
architecture, bounds shifted up by the per-subsequence budget) and a
forced-rejection subsequence (shrink back within the base bounds).  Choice
lists follow a two-priority scheme: kinds violating a bound come first and
exclusively; only when no bound is violated are ordinary moves and the
explicit no-update choice offered.  All tie-breaks are deterministic:
lowest pool index, actuators before sensors, no-update wins exact ties.
"""

from __future__ import annotations

import math
from bisect import bisect, insort
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._lin import check_psd
from .costs import CostParameters, input_cost_block, ledger_entry, synthesize_gains
from .network import (ArchitectureConstraints, ArchitectureSet, LinearNetworkSystem,
                      satisfies_constraints)
from .synthesis import Diverged, factored_kalman, factored_lqr, solve_dare

__all__ = [
    "Choice",
    "NO_UPDATE",
    "apply_choice",
    "change_count",
    "arch_change_count",
    "greedy_select",
    "selection_choices",
    "rejection_choices",
    "greedy_swap",
    "IdentificationResult",
    "least_squares_identify",
    "greedy_actuator_state_feedback",
]

CHOICE_KINDS = ("add_actuator", "remove_actuator", "add_sensor", "remove_sensor", "no_update")


@dataclass(frozen=True)
class Choice:
    """One candidate architecture modification (or the explicit no-update)."""

    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHOICE_KINDS:
            raise ValueError(f"unknown choice kind {self.kind!r}")
        if (self.kind == "no_update") != (self.index is None):
            raise ValueError("no_update carries no index; modifications require one")


NO_UPDATE = Choice("no_update")


def apply_choice(arch: ArchitectureSet, choice: Choice) -> ArchitectureSet:
    """Return the architecture with the choice applied (no_update is identity)."""
    if choice.kind == "no_update":
        return arch
    return ArchitectureSet(*_moved(arch, choice))


def change_count(s1, s2) -> int:
    """Swap distance between index sets: max of the two difference cardinalities."""
    a, b = set(s1), set(s2)
    return max(len(a - b), len(b - a))


def arch_change_count(arch1: ArchitectureSet, arch2: ArchitectureSet) -> int:
    """Architecture change count: actuator changes plus sensor changes."""
    return (change_count(arch1.actuators, arch2.actuators)
            + change_count(arch1.sensors, arch2.sensors))


def greedy_select(choice_pool: Sequence, metric: Callable, L_max: int):
    """Grow a set from empty, adding the argmin element until |S| = L_max.

    Each round, metric prices the list of candidate sets, the selection plus
    one unselected element each (elements in pool order, candidates in the
    order of their added element), and returns one extended real per
    candidate; +inf marks forbidden sets.  Ties keep the earliest pool
    element, a non-finite cost never beats a finite one, and a round with no
    finite cost adds the earliest unselected element.
    """
    if L_max > len(choice_pool):
        raise ValueError(f"L_max={L_max} exceeds pool size {len(choice_pool)}")
    pool = list(choice_pool)
    chosen: list[int] = []                      # positions in pool, ascending
    while len(chosen) < L_max:
        sel = tuple(pool[j] for j in chosen)
        free = [i for i in range(len(pool)) if i not in chosen]
        cands = []
        for i in free:
            k = bisect(chosen, i)
            cands.append(sel[:k] + (pool[i],) + sel[k:])
        best, best_cost = free[0], math.inf
        for i, cost in zip(free, metric(cands)):
            if cost < best_cost:
                best, best_cost = i, cost
        insort(chosen, best)
    return tuple(pool[j] for j in chosen)


def selection_choices(arch: ArchitectureSet, constraints: ArchitectureConstraints,
                      num_actuators: int, num_sensors: int,
                      n_prime: int | None = None) -> list[Choice]:
    """Candidate additions for one forced-selection iteration.

    High priority: any kind below its shifted minimum returns additions for
    the deficient kinds only.  Otherwise additions are offered for kinds
    below their shifted maxima, plus no-update iff the shifted bounds hold.
    The list may be empty when a deficient kind has no inactive elements left.
    """
    if n_prime is None:
        n_prime = constraints.max_per_subsequence
    fc = replace(constraints, act_min=constraints.act_min + n_prime,
                 act_max=constraints.act_max + n_prime,
                 sen_min=constraints.sen_min + n_prime,
                 sen_max=constraints.sen_max + n_prime)
    inactive_act = [i for i in range(num_actuators) if i not in set(arch.actuators)]
    inactive_sen = [j for j in range(num_sensors) if j not in set(arch.sensors)]
    nA, nS = len(arch.actuators), len(arch.sensors)
    choices: list[Choice] = []
    act_deficient = nA < fc.act_min
    sen_deficient = nS < fc.sen_min
    if act_deficient or sen_deficient:
        if act_deficient:
            choices += [Choice("add_actuator", i) for i in inactive_act]
        if sen_deficient:
            choices += [Choice("add_sensor", j) for j in inactive_sen]
        return choices
    if nA < fc.act_max:
        choices += [Choice("add_actuator", i) for i in inactive_act]
    if nS < fc.sen_max:
        choices += [Choice("add_sensor", j) for j in inactive_sen]
    if satisfies_constraints(arch, fc):
        choices.append(NO_UPDATE)
    return choices


def rejection_choices(arch: ArchitectureSet, constraints: ArchitectureConstraints,
                      num_actuators: int, num_sensors: int,
                      n_prime: int | None = None) -> list[Choice]:
    """Candidate removals for one forced-rejection iteration (unshifted bounds).

    High priority: any kind above its maximum returns removals for the
    violating kinds only.  Otherwise removals are offered for kinds above
    their minima, plus no-update iff the base bounds hold.
    """
    nA, nS = len(arch.actuators), len(arch.sensors)
    choices: list[Choice] = []
    act_over = nA > constraints.act_max
    sen_over = nS > constraints.sen_max
    if act_over or sen_over:
        if act_over:
            choices += [Choice("remove_actuator", i) for i in arch.actuators]
        if sen_over:
            choices += [Choice("remove_sensor", j) for j in arch.sensors]
        return choices
    if nA > constraints.act_min:
        choices += [Choice("remove_actuator", i) for i in arch.actuators]
    if nS > constraints.sen_min:
        choices += [Choice("remove_sensor", j) for j in arch.sensors]
    if satisfies_constraints(arch, constraints):
        choices.append(NO_UPDATE)
    return choices


def _cross_terms(K: np.ndarray, S: np.ndarray, Ys: list, l: int) -> np.ndarray:
    """sum_tau tr(G_tau Z_tau) = sum_tau <S_tau K_tau Phi_tau, K_tau Lam_tau>_F
    for q architectures, from the factors Ys (see factored_kalman).

    Either the q share a sensor set and an actuator-set size m: K (T, q m, n)
    stacks their gains row-wise, S is (q, T, m, m) and Ys holds the one
    factor, so each tau costs one GEMM; or they share an actuator set: K is
    (T, m, n), S (1, T, m, m) and Ys holds their q factors, whose blocks tau
    are stacked one tau at a time.
    """
    q, m = max(len(S), len(Ys)), S.shape[-1]
    out = np.zeros(q)
    if m == 0 or l == 0:
        return out
    for tau in range(1, len(K)):
        lo, w = l * tau * (tau - 1), l * tau
        blocks = np.stack([Y[:, lo:lo + 2 * w] for Y in Ys])            # [Phi, Lam]
        P = (K[tau] @ blocks).reshape(q, m, 2 * w)
        out += np.einsum("kij,kij->k", S[:, tau] @ P[:, :, :w], P[:, :, w:])
    return out


def _swap_metric_factory(system, arch_init, x_hat, E_t, params):
    """Metric for greedy_swap: prices a whole list of (actuators, sensors)
    index-tuple pairs at once.

    The LQR side depends only on the actuator set and the Kalman side only
    on the sensor set.  Before a list is priced, its uncached actuator sets
    are grouped by size and each group runs one stacked factored_lqr
    recursion; its uncached sensor sets likewise run one stacked
    factored_kalman recursion per size.  Both recursions are low-rank
    corrections to open-loop ones computed once per swap call.  The caches,
    and the priced pairs, last for the duration of one swap call.

    The predicted cost is computed in its completion-of-squares form
    J = x_hat' P_0 x_hat + sum tr(P_{tau+1} W) + sum tr(G_tau Sig_tau),
    G_tau = K_tau' S_tau K_tau,  S_tau = B' P_{tau+1} B + R,
    where Sig_tau is the error covariance injected over the horizon only
    (Sig_0 = 0, stepped by the closed estimator loop).  This is
    algebraically identical to pricing the augmented closed loop from the
    doubled estimate.  With Sig_tau = Gam_tau - Z_tau - Z_tau' (Gam_tau the
    injected covariance when no sensor is active) it splits into a
    per-actuator-set part (K, S and the cost c of the set without sensors),
    a per-sensor-set part (the factors Phi, Lam of Z = Phi Lam') and one
    cross term per architecture, J = c - 2 sum tr(G_tau Z_tau), priced from
    the factors by _cross_terms: neither G nor Z is formed.  Uncached pairs
    sharing a sensor set and an actuator-set size are priced together; the
    rest are priced in groups sharing an actuator set.  The running and
    switching costs are cached per set as float64 parts, added as
    running_cost and switching_cost add them.

    Returns evaluate, mapping a list of pairs to their (total, predicted)
    floats, total = predicted + running + switching.
    """
    price_lqr = factored_lqr(system.A, params.state_cost, params.terminal_cost,
                             system.W, x_hat, params.horizon)
    price_kalman = factored_kalman(system.A, system.W, E_t, params.horizon)
    lqr_cache: dict[tuple, tuple] = {}      # actuators -> (K, S, c, running, switching)
    kal_cache: dict[tuple, tuple] = {}      # sensors -> (Y, running, switching)
    full_cache: dict[tuple, tuple] = {}     # (actuators, sensors) -> (total, predicted)

    def device_costs(running, switching, prev):
        """Running and switching part of one set of one device kind."""
        prev_on = np.zeros(len(switching))
        prev_on[list(prev)] = 1.0

        def parts(s: tuple):
            on = np.zeros(len(switching))
            on[list(s)] = 1.0
            return running[list(s)].sum(), np.abs(on - prev_on) @ switching
        return parts

    act_costs = device_costs(params.actuator_running, params.actuator_switching,
                             arch_init.actuators)
    sen_costs = device_costs(params.sensor_running, params.sensor_switching,
                             arch_init.sensors)

    def fill_lqr(sets: list[tuple], m: int) -> None:
        idx = np.array(sets, dtype=int).reshape(len(sets), m)
        Bs = np.ascontiguousarray(np.moveaxis(system.actuator_pool[:, idx], 1, 0))
        K, S, c = price_lqr(Bs, input_cost_block(params.input_cost, idx))
        for j, acts in enumerate(sets):
            lqr_cache[acts] = (K[j], S[j], float(c[j])) + act_costs(acts)

    def fill_kalman(sets: list[tuple], l: int) -> None:
        idx = np.array(sets, dtype=int).reshape(len(sets), l)
        Vs = np.broadcast_to(system.v_var * np.eye(l), (len(sets), l, l))
        _, Y = price_kalman(system.sensor_pool[idx], Vs)
        for j, sens in enumerate(sets):
            kal_cache[sens] = (Y[j],) + sen_costs(sens)

    def store(pairs: list[tuple], cross: np.ndarray) -> None:
        for pair, x in zip(pairs, cross):
            _, _, c, ra, sa = lqr_cache[pair[0]]
            _, rs, ss = kal_cache[pair[1]]
            predicted = c - 2.0 * float(x)
            full_cache[pair] = (predicted + float(ra + rs) + float(sa + ss), predicted)

    def grouped(items, key) -> dict:
        """The distinct items, in first-seen order, grouped by key."""
        groups: dict = {}
        for item in dict.fromkeys(items):
            groups.setdefault(key(item), []).append(item)
        return groups

    def evaluate(pairs: list[tuple]) -> list[tuple]:
        for m, sets in grouped((a for a, _ in pairs if a not in lqr_cache), len).items():
            fill_lqr(sets, m)
        for l, sets in grouped((s for _, s in pairs if s not in kal_cache), len).items():
            fill_kalman(sets, l)
        new = (p for p in pairs if p not in full_cache)
        rest = []
        for (sens, _), group in grouped(new, lambda p: (p[1], len(p[0]))).items():
            if len(group) == 1:
                rest += group
                continue
            K = np.stack([lqr_cache[a][0] for a, _ in group], axis=1)   # (T, q, m, n)
            S = np.stack([lqr_cache[a][1] for a, _ in group])
            store(group, _cross_terms(K.reshape(len(K), -1, K.shape[3]), S,
                                      [kal_cache[sens][0]], len(sens)))
        for (acts, l), group in grouped(rest, lambda p: (p[0], len(p[1]))).items():
            K, S = lqr_cache[acts][:2]
            store(group, _cross_terms(K, S[None], [kal_cache[s][0] for _, s in group], l))
        return [full_cache[p] for p in pairs]

    return evaluate


def _added(s: tuple, i: int) -> tuple:
    k = bisect(s, i)
    return s[:k] + (i,) + s[k:]


def _removed(s: tuple, i: int) -> tuple:
    k = s.index(i)
    return s[:k] + s[k + 1:]


# the side of the (actuators, sensors) pair each kind of move changes, and how
_MOVES = {"add_actuator": (0, _added), "remove_actuator": (0, _removed),
          "add_sensor": (1, _added), "remove_sensor": (1, _removed)}


def _moved(arch: ArchitectureSet, choice: Choice) -> tuple[tuple, tuple]:
    """(actuators, sensors) of arch with the choice applied, both sorted."""
    pair = [arch.actuators, arch.sensors]
    if choice.kind != "no_update":
        side, move = _MOVES[choice.kind]
        pair[side] = move(pair[side], choice.index)
    return pair[0], pair[1]


def _pick_choice(evaluate, arch: ArchitectureSet, choices: list[Choice]):
    """Argmin over a choice list, priced as index-tuple pairs in one
    evaluate call; returns the choice and its architecture, the only one
    built.  The first minimizer wins except that an exact cost tie
    involving no-update resolves to no-update."""
    best = None
    for ch, (total, _) in zip(choices, evaluate([_moved(arch, ch) for ch in choices])):
        if best is None or total < best[1] or (total == best[1] and ch.kind == "no_update"):
            best = (ch, total)
    return best[0], apply_choice(arch, best[0])


def _forced_subsequence(evaluate, rule, arch: ArchitectureSet,
                        constraints: ArchitectureConstraints, M: int, L: int,
                        n_prime: int) -> ArchitectureSet:
    """One forced subsequence of rule (selection_choices or rejection_choices):
    apply the priced argmin of its choice list until no-update wins, the list
    is empty, or the architecture is 2 N' changes away from where it began."""
    start, changes = arch, 0
    while changes < 2 * n_prime:
        choices = rule(arch, constraints, M, L, n_prime)
        if not choices:
            break
        ch, arch = _pick_choice(evaluate, arch, choices)  # no-update keeps arch
        if ch.kind == "no_update":
            break
        changes = arch_change_count(start, arch)
    return arch


def greedy_swap(system: LinearNetworkSystem, arch_init: ArchitectureSet,
                x_hat: np.ndarray, E_t: np.ndarray, params: CostParameters,
                constraints: ArchitectureConstraints):
    """Architecture optimization by alternating forced selection and rejection.

    The metric is the total estimated cost (predicted + running + switching)
    with switching measured against arch_init, the architecture committed at
    the previous time step.  Each pass runs one forced subsequence over
    selection_choices, then one over rejection_choices that prunes back
    within the base bounds; each accepts at most 2 N' changes
    (arch_change_count against the subsequence entry).  The outer loop ends
    when the total change budget 2 N is reached (max_changes None =
    unbounded) or a pass ends where it or an earlier pass of the call began:
    with no net change, or on a cycle the passes would repeat for ever.
    Returns (architecture, its ledger entry, its gain schedule from
    synthesize_gains).
    """
    M, Lp = system.num_actuators, system.num_sensors
    if constraints.act_max > M or constraints.sen_max > Lp:
        raise ValueError("cardinality bounds exceed pool sizes")
    if not satisfies_constraints(arch_init, constraints):
        raise ValueError("arch_init violates the base constraints")
    x_hat = np.asarray(x_hat, dtype=float)
    E_t = np.asarray(E_t, dtype=float)
    check_psd(E_t, "E_t")
    n_prime = constraints.max_per_subsequence
    N = constraints.max_changes
    evaluate = _swap_metric_factory(system, arch_init, x_hat, E_t, params)

    current = arch_init
    n_count = 0
    # A pass is a function of its start alone (costs are cached for the
    # call), so a pass that ends where an earlier one began would cycle.
    seen = {arch_init}
    while N is None or n_count < 2 * N:
        for rule in (selection_choices, rejection_choices):
            current = _forced_subsequence(evaluate, rule, current, constraints, M, Lp,
                                          n_prime)
        if current in seen:
            break
        seen.add(current)
        n_count = arch_change_count(arch_init, current)
    if not satisfies_constraints(current, constraints):
        raise AssertionError("swap returned an infeasible architecture")
    _, predicted = evaluate([(current.actuators, current.sensors)])[0]
    return (current, ledger_entry(predicted, current, arch_init, params),
            synthesize_gains(system, current, E_t, params))


@dataclass(frozen=True)
class IdentificationResult:
    """Least-squares dynamics estimate with its regressor rank report."""

    A_hat: np.ndarray
    rank: int
    rank_deficient: bool


def least_squares_identify(x_hist, u_hist, input_matrices_hist) -> IdentificationResult:
    """Estimate the dynamics matrix from recorded transitions.

    Solves min_A sum_tau ||x(tau+1) - A x(tau) - B_tau u(tau)||^2 by
    least squares on the state regressor; the input contribution is moved
    to the residual target.  A rank-deficient regressor still returns the
    minimum-norm solution, flagged.
    """
    x_hist = [np.asarray(x, dtype=float) for x in x_hist]
    T = len(x_hist) - 1
    n = x_hist[0].shape[0]
    if T < n:
        raise ValueError(f"need at least n={n} transitions, got {T}")
    if len(u_hist) < T or len(input_matrices_hist) < T:
        raise ValueError("u_hist and input_matrices_hist must cover every transition")
    X = np.stack(x_hist[:T])
    Y = np.stack([x_hist[t + 1] - input_matrices_hist[t] @ np.asarray(u_hist[t], dtype=float)
                  for t in range(T)])
    sol, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    return IdentificationResult(A_hat=sol.T, rank=int(rank), rank_deficient=rank < n)


def greedy_actuator_state_feedback(system: LinearNetworkSystem, x_t: np.ndarray,
                                   Q: np.ndarray, R: np.ndarray, cardinality: int,
                                   A_hat: np.ndarray | None = None,
                                   dare_cache: dict | None = None):
    """Greedy actuator selection for state feedback; returns (arch, K, u = K x).

    greedy_select over the actuator pool, scoring each candidate set by
    x' P x with P its infinite-horizon cost matrix (Diverged counts as
    +inf).  The uncached candidate sets of a round are solved together in
    one stacked solve_dare call.  Ties keep the lowest index; when every
    candidate diverges the lowest index is taken anyway (the set may become
    stabilizable later).  The returned gain is K = -(R + B'PB)^{-1} B'PA,
    i.e. u = K x directly; it is zero if even the final set has no finite
    solution.  R is the pool-sized input cost (M x M) or a scalar rate;
    dare_cache (optional) memoizes P across calls keyed by the actuator set.
    """
    M = system.num_actuators
    if cardinality > M:
        raise ValueError(f"cardinality {cardinality} exceeds pool size {M}")
    A = system.A if A_hat is None else np.asarray(A_hat, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    cache = dare_cache if dare_cache is not None else {}

    def solve(candidates: list[tuple[int, ...]]) -> list:
        """P of every candidate; the uncached ones solved in one stacked call."""
        missing = [c for c in candidates if c not in cache]
        if missing:
            idx = np.array(missing, dtype=int).reshape(len(missing), -1)
            Bs = np.moveaxis(system.actuator_pool[:, idx], 1, 0)
            cache.update(zip(missing, solve_dare(A, Bs, Q, input_cost_block(R, idx))))
        return [cache[c] for c in candidates]

    def round_costs(candidates: list[tuple[int, ...]]) -> list[float]:
        return [math.inf if isinstance(P, Diverged) else float(x_t @ P @ x_t)
                for P in solve(candidates)]

    arch = ArchitectureSet(actuators=greedy_select(range(M), round_costs, cardinality),
                           sensors=())
    (P,) = solve([arch.actuators])
    B = system.actuator_pool[:, list(arch.actuators)]
    if isinstance(P, Diverged):
        K = np.zeros((cardinality, system.n))
    else:
        Rblk = input_cost_block(R, arch.actuators)
        K = -np.linalg.solve(Rblk + B.T @ P @ B, B.T @ P @ A)
    return arch, K, K @ x_t

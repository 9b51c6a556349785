"""Independent checks of a campaign's written artifacts.

Every expected value here is computed by this module from the artifacts and
the campaign config: DARE solutions come from scipy directly, and the gains,
the Kalman recursion, the horizon cost, the ledger and the device costs are
recomputed with this module's own code.  Nothing calls archtune's cost,
gain or selection functions; only the plant generators of `archtune.network`
are used, to rebuild the systems the config names.

`check_campaign` returns, per run, the list of failed checks.  Each entry
starts with the check's name:

- `gains`        state feedback: u = -(R + B'PB)^-1 B'PA x at every
                 self-tuning step, and A - BK is Schur stable;
- `greedy_pick`  state feedback: the step-0 set is the greedy pick by x'Px;
- `horizon_cost` output feedback: the predicted cost of the committed
                 architecture, priced by the dense augmented recursion, its
                 total with running and switching costs, and u = -K_0 x_hat;
- `ledger`       the final cumulative cost is the sum of the stage, running
                 and switching costs recomputed from the trace columns;
- `bounds`       every committed architecture lies within its bounds;
- `paper`        self-tuning beats the fixed run of the same seed; with device
                 costs, the active set size leaves the bounds at some step and
                 the running and switching totals are positive;
- `strict_json`  plotdata and summary files hold no NaN or Infinity.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

RTOL_COST = 1e-8      # recomputed costs against the trace
RTOL_INPUT = 1e-6     # recomputed inputs against the trace (norm-wise)
RTOL_LEDGER = 1e-9    # summed ledger against cumulative_true
DARE_GUARD = 1e12     # a solution beyond this norm counts as no solution


class CheckFailure(Exception):
    """One failed check; the message starts with the check's name."""


@dataclass
class Trace:
    """The columns of one `<run>.trace.csv`."""

    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    act: np.ndarray
    sen: np.ndarray
    predicted: np.ndarray
    running: np.ndarray
    switching: np.ndarray
    total_estimated: np.ndarray
    cumulative_true: np.ndarray

    def actuators(self, t: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.act[t])]

    def sensors(self, t: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.sen[t])]


def read_trace(path: Path) -> Trace:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) if v else math.nan for v in row] for row in rows[1:]])

    def block(prefix: str) -> np.ndarray:
        cols = [i for i, h in enumerate(header)
                if h.startswith(prefix) and h[len(prefix):].isdigit()]
        return data[:, cols]

    def col(name: str) -> np.ndarray:
        return data[:, header.index(name)]

    return Trace(x=block("x"), x_hat=block("xhat"), u=block("u"),
                 act=block("act") != 0, sen=block("sen") != 0,
                 predicted=col("predicted"), running=col("running"),
                 switching=col("switching"), total_estimated=col("total_estimated"),
                 cumulative_true=col("cumulative_true"))


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def load_strict_json(path: Path):
    """Parse a JSON file, refusing NaN, Infinity and -Infinity."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def check_strict_json(path: Path) -> None:
    try:
        load_strict_json(path)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"strict_json: {Path(path).name}: {exc}") from None


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), 1.0)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


# ---- the plant and the weights, rebuilt from the config ----

@dataclass
class Plant:
    A: np.ndarray
    act_pool: np.ndarray
    sen_pool: np.ndarray
    W: np.ndarray
    v_var: float


def build_plant(spec: dict, network) -> Plant:
    """The system a run document names, through archtune's plant generators."""
    if "random_network" in spec:
        d = spec["random_network"]
        n = int(d["n"])
        sys_ = network.random_network(n=n, eig_band=float(d["eig_band"]), seed=int(d["seed"]),
                                      W=float(d.get("W_scale", 0.0)) * np.eye(n),
                                      v_var=float(d.get("v_var", 0.0)))
    elif "random_network_localized" in spec:
        d = spec["random_network_localized"]
        n = int(d["n"])
        sys_ = network.random_network_localized(
            n=n, num_unstable=int(d["num_unstable"]), unstable_band=tuple(d["unstable_band"]),
            stable_band=tuple(d["stable_band"]), seed=int(d["seed"]),
            localization=float(d.get("localization", 0.2)),
            exclude_nodes=tuple(d.get("exclude_nodes", ())),
            W=float(d.get("W_scale", 0.0)) * np.eye(n), v_var=float(d.get("v_var", 0.0)))
    else:
        raise ValueError("the benchmark's checks support generated systems only")
    return Plant(A=sys_.A, act_pool=sys_.actuator_pool, sen_pool=sys_.sensor_pool,
                 W=sys_.W, v_var=float(sys_.v_var))


def _square(value, n: int) -> np.ndarray:
    return float(value) * np.eye(n) if isinstance(value, (int, float)) else np.asarray(value, float)


def _vector(value, n: int) -> np.ndarray:
    return np.full(n, float(value)) if isinstance(value, (int, float)) else np.asarray(value, float)


@dataclass
class Weights:
    Q: np.ndarray
    R: np.ndarray          # pool-sized input cost
    Q_T: np.ndarray
    act_run: np.ndarray
    sen_run: np.ndarray
    act_sw: np.ndarray
    sen_sw: np.ndarray
    horizon: int


def build_weights(run: dict, plant: Plant) -> Weights:
    n, M, L = plant.A.shape[0], plant.act_pool.shape[1], plant.sen_pool.shape[0]
    c = run["costs"]
    if c is None:                                  # state feedback, no device costs
        Q = np.eye(n) if run["state_Q"] is None else _square(run["state_Q"], n)
        return Weights(Q=Q, R=_square(run["state_R"], M), Q_T=Q,
                       act_run=np.zeros(M), sen_run=np.zeros(L),
                       act_sw=np.zeros(M), sen_sw=np.zeros(L), horizon=0)
    terminal = c["state_cost"] if c["terminal_cost"] is None else c["terminal_cost"]
    return Weights(Q=_square(c["state_cost"], n), R=_square(c["input_cost"], M),
                   Q_T=_square(terminal, n),
                   act_run=_vector(c["actuator_running"], M), sen_run=_vector(c["sensor_running"], L),
                   act_sw=_vector(c["actuator_switching"], M),
                   sen_sw=_vector(c["sensor_switching"], L), horizon=int(c["horizon"]))


def initial_architecture(run: dict, seed: int, M: int, L: int):
    """The architecture before step 0: the config's, or the seeded draw that
    the rollout documents (fourth child stream of SeedSequence(seed): actuator
    count, actuator subset, sensor count, sensor subset)."""
    if run["initial_arch"] is not None:
        a = run["initial_arch"]
        return sorted(a.get("actuators", ())), sorted(a.get("sensors", ()))
    c = run["constraints"]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    k_act = int(rng.integers(c["act_min"], c["act_max"] + 1))
    acts = rng.choice(M, size=k_act, replace=False)
    k_sen = int(rng.integers(c["sen_min"], c["sen_max"] + 1))
    sens = rng.choice(L, size=k_sen, replace=False)
    return sorted(int(a) for a in acts), sorted(int(s) for s in sens)


# ---- state feedback ----

class DareTable:
    """Stabilizing DARE solutions per actuator set, straight from scipy."""

    def __init__(self, plant: Plant, w: Weights) -> None:
        self.plant, self.w = plant, w
        self._cache: dict = {}

    def __call__(self, acts):
        key = tuple(acts)
        if key not in self._cache:
            B = self.plant.act_pool[:, list(key)]
            R = self.w.R[np.ix_(key, key)]
            try:
                P = _sym(scipy.linalg.solve_discrete_are(self.plant.A, B, self.w.Q, R))
            except (np.linalg.LinAlgError, ValueError):
                P = None
            if P is not None and (not np.all(np.isfinite(P))
                                  or np.linalg.norm(P, "fro") > DARE_GUARD):
                P = None
            self._cache[key] = P
        return self._cache[key]


def check_gains(tr: Trace, plant: Plant, w: Weights, dare: DareTable) -> None:
    A = plant.A
    for t in range(tr.x.shape[0]):
        acts = tr.actuators(t)
        P = dare(acts)
        if P is None:
            raise CheckFailure(f"gains: t={t}: no stabilizing DARE solution for {acts}")
        B = plant.act_pool[:, acts]
        R = w.R[np.ix_(acts, acts)]
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        expected = -K @ tr.x[t]
        got = tr.u[t, acts]
        if np.linalg.norm(got - expected) > RTOL_INPUT * max(np.linalg.norm(expected), 1e-300):
            raise CheckFailure(f"gains: t={t}: u={got} but -(R+B'PB)^-1 B'PA x={expected}")
        if np.any(np.delete(tr.u[t], acts)):
            raise CheckFailure(f"gains: t={t}: an inactive actuator has a nonzero input")
        radius = float(np.max(np.abs(np.linalg.eigvals(A - B @ K))))
        if not radius < 1.0:
            raise CheckFailure(f"gains: t={t}: closed loop of {acts} has spectral radius {radius}")


def greedy_pick(x: np.ndarray, M: int, cardinality: int, dare: DareTable) -> list[int]:
    """The paper's greedy rule: grow the set one actuator at a time, taking
    the candidate of least x'Px (no solution counts as +inf), ties to the
    lowest index."""
    selected: list[int] = []
    while len(selected) < cardinality:
        best, best_cost = None, math.inf
        for s in range(M):
            if s in selected:
                continue
            P = dare(sorted(selected + [s]))
            cost = math.inf if P is None else float(x @ P @ x)
            if cost < best_cost:
                best, best_cost = s, cost
        if best is None:
            best = min(s for s in range(M) if s not in selected)
        selected.append(best)
    return sorted(selected)


def check_greedy_pick(tr: Trace, plant: Plant, run: dict, dare: DareTable) -> None:
    expected = greedy_pick(tr.x[0], plant.act_pool.shape[1], int(run["cardinality"]), dare)
    if tr.actuators(0) != expected:
        raise CheckFailure(f"greedy_pick: step 0 committed {tr.actuators(0)}, "
                           f"the greedy rule picks {expected}")


# ---- output feedback ----

def _kalman_step(A, C, W, V, E):
    if C.shape[0] == 0:
        return np.zeros((A.shape[0], 0)), _sym(A @ E @ A.T + W)
    L = E @ C.T @ np.linalg.inv(C @ E @ C.T + V)
    return L, _sym(A @ (E - L @ C @ E) @ A.T + W)


def dense_horizon_cost(plant: Plant, w: Weights, acts, sens, x_hat, E):
    """Price one architecture over the horizon from x_hat and E on the dense
    2n x 2n augmented closed loop of [x; x_hat]; returns (cost, K_0)."""
    A, W, v = plant.A, plant.W, plant.v_var
    n = A.shape[0]
    B = plant.act_pool[:, acts]
    C = plant.sen_pool[sens, :]
    R = w.R[np.ix_(acts, acts)]
    V = v * np.eye(len(sens))
    T = w.horizon
    Ks = [None] * T
    P = w.Q_T
    for tau in reversed(range(T)):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P = _sym(A.T @ P @ A - (B.T @ P @ A).T @ K + w.Q)
        Ks[tau] = K
    Ls = []
    for _ in range(T):
        L, E = _kalman_step(A, C, W, V, E)
        Ls.append(L)
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n] = w.Q_T
    noise = 0.0
    for tau in reversed(range(T)):
        BK = B @ Ks[tau]
        ALC = A @ Ls[tau] @ C
        A_bar = np.block([[A, -BK], [ALC, A - ALC - BK]])
        AL = A @ Ls[tau]
        W_bar = np.zeros((2 * n, 2 * n))
        W_bar[:n, :n] = W
        W_bar[n:, n:] = v * (AL @ AL.T)
        Q_bar = np.zeros((2 * n, 2 * n))
        Q_bar[:n, :n] = w.Q
        Q_bar[n:, n:] = Ks[tau].T @ R @ Ks[tau]
        noise += float(np.trace(Z @ W_bar))
        Z = _sym(A_bar.T @ Z @ A_bar + Q_bar)
    X = np.concatenate([x_hat, x_hat])
    return float(X @ Z @ X) + noise, Ks[0]


def device_costs(w: Weights, acts, sens, prev_acts, prev_sens) -> tuple[float, float]:
    M, L = len(w.act_run), len(w.sen_run)

    def ind(idx, size):
        v = np.zeros(size)
        v[list(idx)] = 1.0
        return v

    running = float(w.act_run[acts].sum() + w.sen_run[sens].sum())
    switching = float(np.abs(ind(acts, M) - ind(prev_acts, M)) @ w.act_sw
                      + np.abs(ind(sens, L) - ind(prev_sens, L)) @ w.sen_sw)
    return running, switching


def check_horizon_cost(tr: Trace, plant: Plant, w: Weights, run: dict, seed: int) -> None:
    n = plant.A.shape[0]
    E = float(run["E0_scale"]) * np.eye(n)
    prev = initial_architecture(run, seed, plant.act_pool.shape[1], plant.sen_pool.shape[0])
    for t in range(tr.x.shape[0]):
        acts, sens = tr.actuators(t), tr.sensors(t)
        cost, K0 = dense_horizon_cost(plant, w, acts, sens, tr.x_hat[t], E)
        if not _close(tr.predicted[t], cost, RTOL_COST):
            raise CheckFailure(f"horizon_cost: t={t}: predicted {tr.predicted[t]!r}, "
                               f"the dense recursion gives {cost!r}")
        running, switching = device_costs(w, acts, sens, *prev)
        if not (_close(tr.running[t], running, RTOL_COST)
                and _close(tr.switching[t], switching, RTOL_COST)):
            raise CheckFailure(f"horizon_cost: t={t}: running/switching "
                               f"{tr.running[t]}/{tr.switching[t]}, expected {running}/{switching}")
        total = tr.predicted[t] + tr.running[t] + tr.switching[t]
        if not _close(tr.total_estimated[t], total, RTOL_COST):
            raise CheckFailure(f"horizon_cost: t={t}: total_estimated {tr.total_estimated[t]!r} "
                               f"is not predicted + running + switching = {total!r}")
        expected_u = -K0 @ tr.x_hat[t]
        if (np.linalg.norm(tr.u[t, acts] - expected_u)
                > RTOL_INPUT * max(np.linalg.norm(expected_u), 1e-300)
                or np.any(np.delete(tr.u[t], acts))):
            raise CheckFailure(f"horizon_cost: t={t}: u is not -K_0 x_hat")
        C = plant.sen_pool[sens, :]
        _, E = _kalman_step(plant.A, C, plant.W, plant.v_var * np.eye(len(sens)), E)
        prev = (acts, sens)


# ---- every run ----

def ledger_total(tr: Trace, w: Weights) -> float:
    total = 0.0
    prev = None
    for t in range(tr.x.shape[0]):
        acts, sens = tr.actuators(t), tr.sensors(t)
        u = tr.u[t, acts]
        stage = float(tr.x[t] @ w.Q @ tr.x[t] + u @ w.R[np.ix_(acts, acts)] @ u)
        running, switching = device_costs(w, acts, sens, *(prev or (acts, sens)))
        total += stage + running + (switching if t > 0 else 0.0)
        prev = (acts, sens)
    return total


def check_ledger(tr: Trace, w: Weights) -> None:
    total = ledger_total(tr, w)
    if not _close(tr.cumulative_true[-1], total, RTOL_LEDGER):
        raise CheckFailure(f"ledger: final cumulative_true {tr.cumulative_true[-1]!r}, "
                           f"the trace columns sum to {total!r}")


def check_bounds(tr: Trace, run: dict) -> None:
    c = run["constraints"]
    for t in range(tr.x.shape[0]):
        na, ns = len(tr.actuators(t)), len(tr.sensors(t))
        if c is not None:
            ok = c["act_min"] <= na <= c["act_max"] and c["sen_min"] <= ns <= c["sen_max"]
        elif run["mode"] == "self_tuning":
            ok = na == int(run["cardinality"]) and ns == 0
        else:
            ok = tr.actuators(t) == sorted(run["initial_arch"]["actuators"])
        if not ok:
            raise CheckFailure(f"bounds: t={t}: {na} actuators and {ns} sensors are "
                               f"outside the run's bounds")


def check_device_tradeoff(tr: Trace, run: dict) -> None:
    """With device costs, the active set size must float off the bounds."""
    c = run["constraints"]
    inside = any(c["act_min"] < len(tr.actuators(t)) < c["act_max"]
                 or c["sen_min"] < len(tr.sensors(t)) < c["sen_max"]
                 for t in range(tr.x.shape[0]))
    if not inside:
        raise CheckFailure("paper: the active set size never lies strictly inside the bounds")
    if not (tr.running.sum() > 0 and tr.switching[1:].sum() > 0):
        raise CheckFailure("paper: running or switching total is not positive")


def _has_device_costs(run: dict) -> bool:
    c = run["costs"]
    return c is not None and any(
        np.any(np.asarray(c[k]) > 0) for k in ("actuator_running", "sensor_running",
                                              "actuator_switching", "sensor_switching"))


def check_campaign(runs: list[dict], base_seed: int, out_dir: Path, experiment: str,
                   network) -> dict[str, list[str]]:
    """Run every check on one campaign's artifacts; returns run -> failures."""
    out_dir = Path(out_dir)
    failures: dict[str, list[str]] = {run["name"]: [] for run in runs}
    plants: dict = {}
    finals: dict = {}

    def attempt(name: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailure as exc:
            failures[name].append(str(exc))
        except Exception as exc:                       # a check that cannot run fails
            failures[name].append(f"error: {type(exc).__name__}: {exc}")

    for run in runs:
        name = run["name"]
        seed = base_seed + int(run["seed"])
        attempt(name, check_strict_json, out_dir / f"{name}.plotdata.json")
        try:
            tr = read_trace(out_dir / f"{name}.trace.csv")
            key = json.dumps(run["system"], sort_keys=True)
            if key not in plants:
                plants[key] = build_plant(run["system"], network)
            plant = plants[key]
            w = build_weights(run, plant)
        except Exception as exc:
            failures[name].append(f"error: {type(exc).__name__}: {exc}")
            continue
        finals[name] = (run["seed"], run["mode"], tr.cumulative_true[-1])
        attempt(name, check_bounds, tr, run)
        attempt(name, check_ledger, tr, w)
        if run["feedback"] == "state" and run["mode"] == "self_tuning":
            dare = DareTable(plant, w)
            attempt(name, check_greedy_pick, tr, plant, run, dare)
            attempt(name, check_gains, tr, plant, w, dare)
        elif run["feedback"] == "output":
            attempt(name, check_horizon_cost, tr, plant, w, run, seed)
            if run["mode"] == "self_tuning" and _has_device_costs(run):
                attempt(name, check_device_tradeoff, tr, run)

    # self-tuning must beat the fixed run of the same seed
    for name, (seed, mode, cost) in finals.items():
        if mode != "self_tuning":
            continue
        for other, (seed2, mode2, cost2) in finals.items():
            if seed2 == seed and mode2 == "fixed" and not cost < cost2:
                failures[name].append(f"paper: self-tuning cost {cost:.6g} is not below "
                                      f"the fixed run {other}'s {cost2:.6g}")
    try:
        check_strict_json(out_dir / f"{experiment}.summary.json")
    except CheckFailure as exc:
        for name in failures:
            failures[name].append(str(exc))
    return failures

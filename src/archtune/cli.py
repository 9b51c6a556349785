"""Experiment runner: config parsing, campaign execution, artifact emission.

Configs are JSON documents (schema_version 1) holding an experiment name, an
output directory, emit flags, and a list of runs; each run nests a system
spec (explicit matrices or a generator directive), optional constraints and
cost parameters, and a seed.  Artifacts per run: a CSV trace with a fixed
column order and 17-significant-digit floats (byte-stable for a given config
and seed), a plot-data JSON, and a wall-clock timing sidecar.  All
nondeterministic content (timestamps, compute times) lives in the sidecar so
the other files replay bit for bit.

Exit codes: 0 success, 1 validation failure, 2 parse error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .costs import CostParameters
from .network import (
    ArchitectureConstraints,
    ArchitectureSet,
    LinearNetworkSystem,
    indicator,
    random_network,
    random_network_localized,
)
from .simulation import SimulationConfig, SimulationTrace, simulate

__all__ = [
    "SCHEMA_VERSION",
    "PRESETS",
    "ConfigError",
    "ExperimentConfig",
    "parse_experiment",
    "serialize_experiment",
    "normalize_config",
    "validate_experiment",
    "build_simulation_config",
    "run_experiment",
    "main",
]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ConfigError(Exception):
    """Config problem tagged with the field path it was found at."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---- schema: defaults and normalization ----

_RUN_DEFAULTS = {
    "initial_arch": None,
    "constraints": None,
    "costs": None,
    "x0_std": 1.0,
    "E0_scale": 1.0,
    "cardinality": None,
    "state_Q": None,
    "state_R": 1.0,
    "identify": False,
    "diverged_policy": "last_gain",
}

_CONSTRAINT_DEFAULTS = {"max_changes": None, "max_per_subsequence": 1}

_COST_DEFAULTS = {
    "state_cost": 1.0,
    "input_cost": 1.0,
    "terminal_cost": None,
    "actuator_running": 0.0,
    "sensor_running": 0.0,
    "actuator_switching": 0.0,
    "sensor_switching": 0.0,
}


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return doc[key]


def _normalize_run(doc, idx: int) -> dict:
    path = f"runs[{idx}]"
    if not isinstance(doc, dict):
        raise ConfigError(path, "each run must be an object")
    out = dict(doc)
    name = _require(doc, "name", path)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError(f"{path}.name", "run names use [A-Za-z0-9._-] only")
    for key in ("seed", "mode", "feedback", "T_sim", "system"):
        _require(doc, key, path)
    for key, default in _RUN_DEFAULTS.items():
        out.setdefault(key, copy.deepcopy(default))
    if out["constraints"] is not None:
        if not isinstance(out["constraints"], dict):
            raise ConfigError(f"{path}.constraints", "must be an object")
        c = dict(out["constraints"])
        for key, default in _CONSTRAINT_DEFAULTS.items():
            c.setdefault(key, default)
        out["constraints"] = c
    if out["costs"] is not None:
        if not isinstance(out["costs"], dict):
            raise ConfigError(f"{path}.costs", "must be an object")
        c = dict(out["costs"])
        _require(c, "horizon", f"{path}.costs")
        for key, default in _COST_DEFAULTS.items():
            c.setdefault(key, default)
        out["costs"] = c
    return out


@dataclass
class ExperimentConfig:
    """A parsed, normalized campaign: metadata plus one normalized run
    document per rollout (the document is the source of truth; simulation
    configs are built from it on demand)."""

    name: str
    output_dir: str
    base_seed: int
    emit: dict
    runs: list

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "output_dir": self.output_dir,
            "base_seed": self.base_seed,
            "emit": copy.deepcopy(self.emit),
            "runs": copy.deepcopy(self.runs),
        }


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Normalize a raw config document; raises ConfigError on structural
    problems (semantic checks live in validate_experiment)."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
    name = _require(doc, "name", "$")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError("name", "experiment names use [A-Za-z0-9._-] only")
    emit = {"trace": True, "summary": True, "plotdata": True}
    emit.update(doc.get("emit", {}))
    for key, value in emit.items():
        if key not in ("trace", "summary", "plotdata") or not isinstance(value, bool):
            raise ConfigError(f"emit.{key}", "emit flags are booleans trace/summary/plotdata")
    runs_doc = doc.get("runs", [])
    if not isinstance(runs_doc, list):
        raise ConfigError("runs", "must be a list")
    runs = [_normalize_run(r, i) for i, r in enumerate(runs_doc)]
    seen = set()
    for i, r in enumerate(runs):
        if r["name"] in seen:
            raise ConfigError(f"runs[{i}].name", f"duplicate run name {r['name']!r}")
        seen.add(r["name"])
    return ExperimentConfig(
        name=name,
        output_dir=str(doc.get("output_dir", "archtune-out")),
        base_seed=int(doc.get("base_seed", 0)),
        emit=emit,
        runs=runs,
    )


def serialize_experiment(exp: ExperimentConfig) -> str:
    """Canonical JSON text (sorted keys, two-space indent, trailing newline)."""
    return json.dumps(exp.to_doc(), indent=2, sort_keys=True) + "\n"


def normalize_config(doc: dict) -> str:
    return serialize_experiment(parse_experiment(doc))


# ---- building runtime objects from documents ----

def _as_square(value, n: int, path: str) -> np.ndarray:
    """Scalar s means s * I_n; otherwise an n x n row-list matrix."""
    if isinstance(value, (int, float)):
        return float(value) * np.eye(n)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"not a numeric matrix: {exc}") from None
    if arr.shape != (n, n):
        raise ConfigError(path, f"expected shape ({n},{n}), got {arr.shape}")
    return arr


def _as_vector(value, length: int, path: str) -> np.ndarray:
    """Scalar s means a constant vector of the given length."""
    if isinstance(value, (int, float)):
        return np.full(length, float(value))
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"not a numeric vector: {exc}") from None
    if arr.shape != (length,):
        raise ConfigError(path, f"expected length {length}, got shape {arr.shape}")
    return arr


def _build_system(doc, path: str) -> LinearNetworkSystem:
    if not isinstance(doc, dict):
        raise ConfigError(path, "system must be an object")
    if "random_network" in doc:
        d = doc["random_network"]
        n = int(_require(d, "n", f"{path}.random_network"))
        W = float(d.get("W_scale", 0.0)) * np.eye(n)
        return random_network(n=n, eig_band=float(_require(d, "eig_band", f"{path}.random_network")),
                              seed=int(_require(d, "seed", f"{path}.random_network")),
                              W=W, v_var=float(d.get("v_var", 0.0)))
    if "random_network_localized" in doc:
        d = doc["random_network_localized"]
        p = f"{path}.random_network_localized"
        n = int(_require(d, "n", p))
        W = float(d.get("W_scale", 0.0)) * np.eye(n)
        return random_network_localized(
            n=n, num_unstable=int(_require(d, "num_unstable", p)),
            unstable_band=tuple(_require(d, "unstable_band", p)),
            stable_band=tuple(_require(d, "stable_band", p)),
            seed=int(_require(d, "seed", p)),
            localization=float(d.get("localization", 0.2)),
            exclude_nodes=tuple(d.get("exclude_nodes", ())),
            W=W, v_var=float(d.get("v_var", 0.0)))
    A = np.asarray(_require(doc, "A", path), dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"{path}.A", f"A must be square, got {A.shape}")
    n = A.shape[0]
    act_pool = doc.get("actuator_pool")
    act_pool = np.eye(n) if act_pool is None else np.asarray(act_pool, dtype=float)
    sen_pool = doc.get("sensor_pool")
    sen_pool = np.eye(n) if sen_pool is None else np.asarray(sen_pool, dtype=float)
    W = _as_square(doc.get("W", 0.0), n, f"{path}.W")
    try:
        return LinearNetworkSystem(A=A, actuator_pool=act_pool, sensor_pool=sen_pool,
                                   W=W, v_var=float(doc.get("v_var", 0.0)))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _build_costs(doc: dict, n: int, M: int, L: int, path: str) -> CostParameters:
    horizon = doc["horizon"]
    terminal = doc["terminal_cost"]
    if terminal is None:
        terminal = doc["state_cost"]
    try:
        return CostParameters(
            state_cost=_as_square(doc["state_cost"], n, f"{path}.state_cost"),
            input_cost=_as_square(doc["input_cost"], M, f"{path}.input_cost"),
            terminal_cost=_as_square(terminal, n, f"{path}.terminal_cost"),
            actuator_running=_as_vector(doc["actuator_running"], M, f"{path}.actuator_running"),
            sensor_running=_as_vector(doc["sensor_running"], L, f"{path}.sensor_running"),
            actuator_switching=_as_vector(doc["actuator_switching"], M, f"{path}.actuator_switching"),
            sensor_switching=_as_vector(doc["sensor_switching"], L, f"{path}.sensor_switching"),
            horizon=int(horizon),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def build_simulation_config(run_doc: dict, base_seed: int, idx: int = 0,
                            seed_base_override: int | None = None) -> SimulationConfig:
    """Turn one normalized run document into a SimulationConfig.

    The effective seed is (base_seed or its override) + the run's own seed,
    so a campaign can shift every rollout at once while runs keep distinct
    streams.
    """
    path = f"runs[{idx}]"
    system = _build_system(run_doc["system"], f"{path}.system")
    n, M, L = system.n, system.num_actuators, system.num_sensors
    base = base_seed if seed_base_override is None else seed_base_override
    constraints = None
    if run_doc["constraints"] is not None:
        c = run_doc["constraints"]
        try:
            constraints = ArchitectureConstraints(
                act_min=int(c["act_min"]), act_max=int(c["act_max"]),
                sen_min=int(c["sen_min"]), sen_max=int(c["sen_max"]),
                max_changes=c["max_changes"] if c["max_changes"] is None else int(c["max_changes"]),
                max_per_subsequence=int(c["max_per_subsequence"]))
        except KeyError as exc:
            raise ConfigError(f"{path}.constraints", f"missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ConfigError(f"{path}.constraints", str(exc)) from None
    params = None
    if run_doc["costs"] is not None:
        params = _build_costs(run_doc["costs"], n, M, L, f"{path}.costs")
    initial_arch = None
    if run_doc["initial_arch"] is not None:
        a = run_doc["initial_arch"]
        if not isinstance(a, dict):
            raise ConfigError(f"{path}.initial_arch", "must be an object with actuators/sensors lists")
        try:
            initial_arch = ArchitectureSet(actuators=tuple(a.get("actuators", ())),
                                           sensors=tuple(a.get("sensors", ())))
        except ValueError as exc:
            raise ConfigError(f"{path}.initial_arch", str(exc)) from None
    state_Q = run_doc["state_Q"]
    if state_Q is not None:
        state_Q = _as_square(state_Q, n, f"{path}.state_Q")
    state_R = run_doc["state_R"]
    if not isinstance(state_R, (int, float)):
        state_R = _as_square(state_R, M, f"{path}.state_R")
    try:
        return SimulationConfig(
            system=system,
            mode=str(run_doc["mode"]),
            feedback=str(run_doc["feedback"]),
            T_sim=int(run_doc["T_sim"]),
            seed=base + int(run_doc["seed"]),
            initial_arch=initial_arch,
            constraints=constraints,
            params=params,
            x0_std=float(run_doc["x0_std"]),
            E0_scale=float(run_doc["E0_scale"]),
            cardinality=None if run_doc["cardinality"] is None else int(run_doc["cardinality"]),
            state_Q=state_Q,
            state_R=state_R,
            identify=bool(run_doc["identify"]),
            diverged_policy=str(run_doc["diverged_policy"]),
            name=run_doc["name"],
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def validate_experiment(doc: dict) -> list[str]:
    """Full validation without execution; returns field-named diagnostics."""
    try:
        exp = parse_experiment(doc)
    except ConfigError as exc:
        return [str(exc)]
    diagnostics = []
    for i, run_doc in enumerate(exp.runs):
        try:
            build_simulation_config(run_doc, exp.base_seed, idx=i)
        except ConfigError as exc:
            diagnostics.append(str(exc))
    return diagnostics


# ---- artifact writers ----

def _finite_or_none(value):
    """The value with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(v) for v in value]
    return value


def _strict_json(data, **kwargs) -> str:
    """Strict JSON text (sorted keys): a non-finite float is written as null."""
    return json.dumps(_finite_or_none(data), sort_keys=True, allow_nan=False, **kwargs)


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _opt(value) -> str:
    return "" if value is None else _g17(value)


def write_trace_csv(trace: SimulationTrace, path: Path) -> None:
    """One row per time step, fixed column order: t, state, estimate,
    pool-embedded input, actuator/sensor indicator flags, ledger columns."""
    system = trace.config.system
    n, M, L = system.n, system.num_actuators, system.num_sensors
    T = trace.config.T_sim
    header = (["t"]
              + [f"x{i}" for i in range(n)]
              + [f"xhat{i}" for i in range(n)]
              + [f"u{j}" for j in range(M)]
              + [f"act{j}" for j in range(M)]
              + [f"sen{k}" for k in range(L)]
              + ["predicted", "running", "switching", "total_estimated",
                 "true_stage", "cumulative_true"])
    lines = [",".join(header)]
    for t in range(T):
        arch = trace.archs[t]
        u_pool = np.zeros(M)
        u_pool[list(arch.actuators)] = trace.inputs[t]
        entry = trace.ledger.entries[t]
        row = ([str(t)]
               + [_g17(v) for v in trace.x[t]]
               + [_g17(v) for v in trace.x_hat[t]]
               + [_g17(v) for v in u_pool]
               + [str(int(v)) for v in indicator(arch, "actuator", M)]
               + [str(int(v)) for v in indicator(arch, "sensor", L)]
               + [_opt(entry.predicted), _g17(entry.running), _g17(entry.switching),
                  _opt(entry.total_estimated), _opt(entry.true_stage),
                  _opt(entry.cumulative_true)])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_plotdata(trace: SimulationTrace, path: Path, timing_name: str) -> None:
    """Plot-ready series: costs vs t, state/estimate/error norms vs t, the
    active-architecture rasters, and per-step change counts.  Compute times
    sit in the timing sidecar (wall-clock, excluded from byte identity).
    Non-finite values, as a diverged rollout leaves them, are written as null."""
    system = trace.config.system
    M, L = system.num_actuators, system.num_sensors
    entries = trace.ledger.entries
    err = trace.x - trace.x_hat
    data = {
        "schema_version": SCHEMA_VERSION,
        "run": trace.config.name,
        "T_sim": trace.config.T_sim,
        "t": list(range(trace.config.T_sim)),
        "predicted": [e.predicted for e in entries],
        "running": [e.running for e in entries],
        "switching": [e.switching for e in entries],
        "total_estimated": [e.total_estimated for e in entries],
        "true_stage": [e.true_stage for e in entries],
        "cumulative_true": [e.cumulative_true for e in entries],
        "state_norm": [float(v) for v in np.linalg.norm(trace.x, axis=1)],
        "estimate_norm": [float(v) for v in np.linalg.norm(trace.x_hat, axis=1)],
        "error_norm": [float(v) for v in np.linalg.norm(err, axis=1)],
        "actuator_raster": [[int(f) for f in indicator(a, "actuator", M)] for a in trace.archs],
        "sensor_raster": [[int(f) for f in indicator(a, "sensor", L)] for a in trace.archs],
        "actuator_count": [len(a.actuators) for a in trace.archs],
        "sensor_count": [len(a.sensors) for a in trace.archs],
        "change_counts": trace.per_step_changes(),
        "compute_time_file": timing_name,
    }
    path.write_text(_strict_json(data, separators=(",", ":")) + "\n")


def write_timing(trace: SimulationTrace, path: Path, started: str, finished: str,
                 wall_s: float) -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "run": trace.config.name,
        "started_at": started,
        "finished_at": finished,
        "wall_time_s": wall_s,
        "compute_time_s": [float(v) for v in trace.compute_time],
    }
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _summary_record(trace: SimulationTrace, effective_seed: int) -> dict:
    cfg = trace.config
    return {
        "name": cfg.name,
        "seed": effective_seed,
        "mode": cfg.mode,
        "feedback": cfg.feedback,
        "T_sim": cfg.T_sim,
        "final_cumulative_true": trace.final_cumulative_cost,
        "final_state_norm": float(np.linalg.norm(trace.x[-1])),
        "max_state_norm": trace.max_state_norm,
        "total_changes": int(sum(trace.per_step_changes())),
        "min_actuators": min(len(a.actuators) for a in trace.archs),
        "max_actuators": max(len(a.actuators) for a in trace.archs),
        "min_sensors": min(len(a.sensors) for a in trace.archs),
        "max_sensors": max(len(a.sensors) for a in trace.archs),
        "warnings": list(trace.warnings),
    }


def _execute_run(payload: tuple) -> dict:
    """Worker entry: build, simulate, write artifacts, return the summary
    record.  Takes only JSON-ish data so it pickles cheaply."""
    run_doc, base_seed, idx, out_dir, emit = payload
    cfg = build_simulation_config(run_doc, base_seed, idx=idx)
    out = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat()
    tic = time.perf_counter()
    trace = simulate(cfg)
    wall = time.perf_counter() - tic
    finished = datetime.now(timezone.utc).isoformat()
    name = cfg.name
    if emit["trace"]:
        write_trace_csv(trace, out / f"{name}.trace.csv")
    if emit["plotdata"]:
        write_plotdata(trace, out / f"{name}.plotdata.json", f"{name}.timing.json")
    write_timing(trace, out / f"{name}.timing.json", started, finished, wall)
    return _summary_record(trace, cfg.seed)


def run_experiment(exp: ExperimentConfig, output_dir: str | None = None,
                   seed_base_override: int | None = None, jobs: int = 1) -> dict:
    """Execute a campaign and write its artifacts; returns the summary."""
    out = Path(output_dir if output_dir is not None else exp.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = exp.base_seed if seed_base_override is None else seed_base_override
    payloads = [(run_doc, base, i, str(out), exp.emit)
                for i, run_doc in enumerate(exp.runs)]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_execute_run, payloads))
    else:
        records = [_execute_run(p) for p in payloads]
    summary = {"schema_version": SCHEMA_VERSION, "experiment": exp.name,
               "num_runs": len(records), "runs": records}
    if exp.emit["summary"]:
        (out / f"{exp.name}.summary.json").write_text(_strict_json(summary, indent=2) + "\n")
    return summary


# ---- builtin presets ----

def _preset_lqr_50() -> dict:
    """State-feedback comparison on a 50-node network with a handful of
    unstable modes: a fixed two-actuator architecture against the greedy
    self-tuning one, five seeds each."""
    runs = []
    for s in (1, 2, 3, 4, 5):
        system = {"random_network_localized": {
            "n": 50, "num_unstable": 2, "unstable_band": [1.2, 1.4],
            "stable_band": [0.2, 0.8], "seed": s, "localization": 0.2,
            "exclude_nodes": [0, 1], "W_scale": 1e-4, "v_var": 0.0}}
        common = {"seed": s, "feedback": "state", "T_sim": 100,
                  "system": system, "x0_std": 5.0, "state_R": 1.0}
        runs.append({**common, "name": f"seed{s}-fixed", "mode": "fixed",
                     "initial_arch": {"actuators": [0, 1], "sensors": []}})
        runs.append({**common, "name": f"seed{s}-selftuning", "mode": "self_tuning",
                     "cardinality": 2})
    return {"schema_version": SCHEMA_VERSION, "name": "lqr-50",
            "output_dir": "archtune-out/lqr-50", "base_seed": 0, "runs": runs}


def _preset_lqg_50_tight() -> dict:
    """Output-feedback comparison with tight cardinality bounds (all 5):
    self-tuning against a held random architecture, five seeds each.  Both
    runs of a seed draw the same initial architecture; the fixed run simply
    never moves it."""
    runs = []
    constraints = {"act_min": 5, "act_max": 5, "sen_min": 5, "sen_max": 5,
                   "max_changes": None, "max_per_subsequence": 1}
    costs = {"horizon": 10, "state_cost": 1.0, "input_cost": 1.0,
             "terminal_cost": 1.0}
    for s in (1, 2, 3, 4, 5):
        system = {"random_network": {"n": 50, "eig_band": 0.1, "seed": s,
                                     "W_scale": 1.0, "v_var": 1.0}}
        common = {"seed": s, "feedback": "output", "T_sim": 100, "system": system,
                  "constraints": constraints, "costs": costs,
                  "x0_std": 5.0, "E0_scale": 25.0}
        runs.append({**common, "name": f"seed{s}-fixed", "mode": "fixed"})
        runs.append({**common, "name": f"seed{s}-selftuning", "mode": "self_tuning"})
    return {"schema_version": SCHEMA_VERSION, "name": "lqg-50-tight",
            "output_dir": "archtune-out/lqg-50-tight", "base_seed": 0, "runs": runs}


def _preset_lqg_50_costs() -> dict:
    """Output feedback with loose bounds (1..5) and heavy running/switching
    rates on every device, so the active set size floats with the cost
    trade-off instead of pinning to a bound."""
    constraints = {"act_min": 1, "act_max": 5, "sen_min": 1, "sen_max": 5,
                   "max_changes": 2, "max_per_subsequence": 1}
    costs = {"horizon": 10, "state_cost": 1.0, "input_cost": 1.0,
             "terminal_cost": 1.0, "actuator_running": 100.0,
             "sensor_running": 100.0, "actuator_switching": 100.0,
             "sensor_switching": 100.0}
    system = {"random_network": {"n": 50, "eig_band": 0.1, "seed": 1,
                                 "W_scale": 1.0, "v_var": 1.0}}
    runs = [{"name": "selftuning", "seed": 1, "mode": "self_tuning",
             "feedback": "output", "T_sim": 100, "system": system,
             "constraints": constraints, "costs": costs,
             "x0_std": 5.0, "E0_scale": 25.0}]
    return {"schema_version": SCHEMA_VERSION, "name": "lqg-50-costs",
            "output_dir": "archtune-out/lqg-50-costs", "base_seed": 0, "runs": runs}


PRESETS = {
    "lqr-50": _preset_lqr_50,
    "lqg-50-tight": _preset_lqg_50_tight,
    "lqg-50-costs": _preset_lqg_50_costs,
}

_PRESET_BLURBS = {
    "lqr-50": "state feedback, 50 nodes: fixed 2-actuator vs greedy self-tuning, 5 seeds",
    "lqg-50-tight": "output feedback, bounds all 5: held random architecture vs self-tuning, 5 seeds",
    "lqg-50-costs": "output feedback, bounds 1..5 with heavy device costs: variable active set size",
}


def preset_config(name: str) -> dict:
    return PRESETS[name]()


# ---- command-line surface ----

def _load_doc(source: str):
    """A preset name or a JSON file path; returns (doc, description)."""
    if source in PRESETS:
        return preset_config(source), f"preset {source}"
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return None, source
    try:
        return json.loads(text), str(path)
    except json.JSONDecodeError as exc:
        print(f"parse error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return None, str(path)


def _cmd_run(args) -> int:
    doc, desc = _load_doc(args.config)
    if doc is None:
        return EXIT_PARSE
    diagnostics = validate_experiment(doc)
    if diagnostics:
        for line in diagnostics:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_INVALID
    exp = parse_experiment(doc)
    summary = run_experiment(exp, output_dir=args.output_dir,
                             seed_base_override=args.seed, jobs=args.jobs)
    out = Path(args.output_dir if args.output_dir is not None else exp.output_dir)
    print(f"campaign {exp.name} ({desc}): {summary['num_runs']} run(s) -> {out}")
    for rec in summary["runs"]:
        print(f"  {rec['name']:<24} cumulative={rec['final_cumulative_true']:.6g}"
              f"  max|x|={rec['max_state_norm']:.6g}  changes={rec['total_changes']}")
        for w in rec["warnings"]:
            print(f"    warning: {w}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    doc, desc = _load_doc(args.config)
    if doc is None:
        return EXIT_PARSE
    diagnostics = validate_experiment(doc)
    if diagnostics:
        for line in diagnostics:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {desc} is valid")
    return EXIT_OK


def _cmd_list_presets(args) -> int:
    if args.show is not None:
        if args.show not in PRESETS:
            print(f"unknown preset {args.show!r}", file=sys.stderr)
            return EXIT_INVALID
        print(json.dumps(preset_config(args.show), indent=2, sort_keys=True))
        return EXIT_OK
    for name in sorted(PRESETS):
        print(f"{name:<16} {_PRESET_BLURBS[name]}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="archtune",
        description="Run self-tuning architecture experiments from JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign and write artifacts")
    p_run.add_argument("config", help="config file path or builtin preset name")
    p_run.add_argument("--seed", type=int, default=None,
                       help="replace the campaign base seed (run seeds stay relative)")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel rollout workers")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without executing it")
    p_val.add_argument("config", help="config file path or builtin preset name")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-presets", help="list builtin experiment presets")
    p_list.add_argument("--show", metavar="NAME", default=None,
                        help="print the full config of one preset as JSON")
    p_list.set_defaults(func=_cmd_list_presets)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

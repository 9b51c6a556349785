"""Experiment runner: config parsing, campaign execution, artifact emission.

Configs are JSON documents (schema_version 1) holding an experiment name, an
output directory, emit flags, and a list of runs; each run nests a system
spec (explicit matrices or a generator directive), optional constraints and
cost parameters, and a seed.  Artifacts per run: a CSV trace with a fixed
column order and 17-significant-digit floats (byte-stable for a given config
and seed), a plot-data JSON, and a wall-clock timing sidecar.  All
nondeterministic content (timestamps, compute times) lives in the sidecar so
the other files replay bit for bit.

Exit codes: 0 success, 1 validation failure (one diagnostic per malformed
field, named by its path), 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
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


# ---- field access: every conversion error becomes a ConfigError ----

@contextmanager
def _at(path: str):
    """Report a ValueError, TypeError or KeyError raised inside as a
    ConfigError at path; a ConfigError raised inside keeps its deeper path."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(path, f"missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return value


_REQUIRED = object()


def _field(doc, key: str, path: str, convert=lambda v: v, default=_REQUIRED):
    """doc[key], or the default when one is given and the key is absent,
    passed through convert; its errors are reported at path.key."""
    if key not in _object(doc, path) and default is _REQUIRED:
        raise ConfigError(f"{path}.{key}", "required field missing")
    with _at(f"{path}.{key}"):
        return convert(doc.get(key, default))


def _count(value) -> int:
    """An integer; an integral float such as 50.0 passes, while a fractional
    float or a bool is refused rather than truncated."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _indices(doc, key: str, path: str) -> tuple[int, ...]:
    """The optional list doc[key] of device indices, each a _count whose
    errors are reported at path.key[j]."""
    items = _field(doc, key, path, tuple, ())
    out = []
    for j, value in enumerate(items):
        with _at(f"{path}.{key}[{j}]"):
            out.append(_count(value))
    return tuple(out)


def _count_or_none(value) -> int | None:
    return None if value is None else _count(value)


def _band(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


_array = partial(np.asarray, dtype=float)


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


def _normalize_run(doc, idx: int) -> dict:
    path = f"runs[{idx}]"
    name = _field(doc, "name", path)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError(f"{path}.name", "run names use [A-Za-z0-9._-] only")
    for key in ("seed", "mode", "feedback", "T_sim", "system"):
        _field(doc, key, path)
    out = {**_RUN_DEFAULTS, **doc}
    if out["constraints"] is not None:
        out["constraints"] = {**_CONSTRAINT_DEFAULTS,
                              **_object(out["constraints"], f"{path}.constraints")}
    if out["costs"] is not None:
        _field(out["costs"], "horizon", f"{path}.costs")
        out["costs"] = {**_COST_DEFAULTS, **out["costs"]}
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


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Normalize a raw config document; raises ConfigError on structural
    problems (semantic checks live in validate_experiment)."""
    version = _object(doc, "$").get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
    name = _field(doc, "name", "$")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError("name", "experiment names use [A-Za-z0-9._-] only")
    emit = {"trace": True, "summary": True, "plotdata": True,
            **_object(doc.get("emit", {}), "emit")}
    for key, value in emit.items():
        if key not in ("trace", "summary", "plotdata") or not isinstance(value, bool):
            raise ConfigError(f"emit.{key}", "emit flags are booleans trace/summary/plotdata")
    with _at("base_seed"):
        base_seed = _count(doc.get("base_seed", 0))
    runs_doc = doc.get("runs", [])
    if not isinstance(runs_doc, list):
        raise ConfigError("runs", "must be a list")
    runs = [_normalize_run(r, i) for i, r in enumerate(runs_doc)]
    seen = set()
    for i, r in enumerate(runs):
        if r["name"] in seen:
            raise ConfigError(f"runs[{i}].name", f"duplicate run name {r['name']!r}")
        seen.add(r["name"])
    return ExperimentConfig(name=name, output_dir=str(doc.get("output_dir", "archtune-out")),
                            base_seed=base_seed, emit=emit, runs=runs)


# ---- building runtime objects from documents ----

def _as_array(value, shape: tuple, path: str) -> np.ndarray:
    """A scalar s means s * I for a square shape and a constant vector for a
    one-axis shape; anything else must be a numeric array of the shape."""
    with _at(path):
        if isinstance(value, (int, float)):
            return float(value) * (np.eye(shape[0]) if len(shape) == 2 else np.ones(shape))
        arr = _array(value)
    if arr.shape != shape:
        raise ConfigError(path, f"expected shape {str(shape).replace(' ', '')}, got {arr.shape}")
    return arr


# the required fields of each generator directive, with their converters;
# W_scale, v_var and the localized generator's options are optional
_GENERATOR_FIELDS = {
    "random_network": {"n": _count, "eig_band": float, "seed": _count},
    "random_network_localized": {"n": _count, "num_unstable": _count, "unstable_band": _band,
                                 "stable_band": _band, "seed": _count},
}


def _build_system(doc, path: str) -> LinearNetworkSystem:
    kind = next((k for k in _GENERATOR_FIELDS if k in _object(doc, path)), None)
    if kind is not None:
        d, p = doc[kind], f"{path}.{kind}"
        kwargs = {key: _field(d, key, p, convert)
                  for key, convert in _GENERATOR_FIELDS[kind].items()}
        if kind == "random_network_localized":
            kwargs.update(localization=_field(d, "localization", p, float, 0.2),
                          exclude_nodes=_field(d, "exclude_nodes", p, tuple, ()))
        W_scale, v_var = (_field(d, key, p, float, 0.0) for key in ("W_scale", "v_var"))
        generate = random_network if kind == "random_network" else random_network_localized
        with _at(p):
            return generate(W=W_scale * np.eye(kwargs["n"]), v_var=v_var, **kwargs)
    A = _field(doc, "A", path, _array)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"{path}.A", f"A must be square, got {A.shape}")
    n = A.shape[0]
    act_pool, sen_pool = (np.eye(n) if doc.get(key) is None else _field(doc, key, path, _array)
                          for key in ("actuator_pool", "sensor_pool"))
    W = _as_array(doc.get("W", 0.0), (n, n), f"{path}.W")
    v_var = _field(doc, "v_var", path, float, 0.0)
    with _at(path):
        return LinearNetworkSystem(A=A, actuator_pool=act_pool, sensor_pool=sen_pool,
                                   W=W, v_var=v_var)


def _build_costs(doc: dict, n: int, M: int, L: int, path: str) -> CostParameters:
    if doc["terminal_cost"] is None:
        doc = {**doc, "terminal_cost": doc["state_cost"]}
    shapes = {"state_cost": (n, n), "input_cost": (M, M), "terminal_cost": (n, n),
              "actuator_running": (M,), "sensor_running": (L,),
              "actuator_switching": (M,), "sensor_switching": (L,)}
    with _at(path):
        return CostParameters(**{key: _as_array(doc[key], shape, f"{path}.{key}")
                                 for key, shape in shapes.items()},
                              horizon=_field(doc, "horizon", path, _count))


# the run fields handed to SimulationConfig as they are, with their converters
_RUN_FIELDS = {"mode": str, "feedback": str, "T_sim": _count, "seed": _count,
               "x0_std": float, "E0_scale": float, "cardinality": _count_or_none,
               "identify": bool, "diverged_policy": str}


def build_simulation_config(run_doc: dict, base_seed: int, idx: int = 0) -> SimulationConfig:
    """Turn one normalized run document into a SimulationConfig.

    The effective seed is base_seed + the run's own seed, so a campaign can
    shift every rollout at once while runs keep distinct streams.
    """
    path = f"runs[{idx}]"
    system = _build_system(run_doc["system"], f"{path}.system")
    n, M, L = system.n, system.num_actuators, system.num_sensors
    constraints = params = initial_arch = None
    if run_doc["constraints"] is not None:
        c, p = run_doc["constraints"], f"{path}.constraints"
        with _at(p):
            constraints = ArchitectureConstraints(
                **{key: _field(c, key, p, _count)
                   for key in ("act_min", "act_max", "sen_min", "sen_max", "max_per_subsequence")},
                max_changes=_field(c, "max_changes", p, _count_or_none))
    if run_doc["costs"] is not None:
        params = _build_costs(run_doc["costs"], n, M, L, f"{path}.costs")
    if run_doc["initial_arch"] is not None:
        a, p = run_doc["initial_arch"], f"{path}.initial_arch"
        with _at(p):
            initial_arch = ArchitectureSet(actuators=_indices(a, "actuators", p),
                                           sensors=_indices(a, "sensors", p))
    state_Q = run_doc["state_Q"]
    if state_Q is not None:
        state_Q = _as_array(state_Q, (n, n), f"{path}.state_Q")
    state_R = run_doc["state_R"]
    if not isinstance(state_R, (int, float)):
        state_R = _as_array(state_R, (M, M), f"{path}.state_R")
    fields = {key: _field(run_doc, key, path, convert) for key, convert in _RUN_FIELDS.items()}
    fields["seed"] += base_seed
    with _at(path):
        return SimulationConfig(system=system, initial_arch=initial_arch,
                                constraints=constraints, params=params, state_Q=state_Q,
                                state_R=state_R, name=run_doc["name"], **fields)


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

def _load_valid(source: str, base_seed: int | None = None):
    """(doc, description, exit code) of a preset name or a JSON file path,
    with base_seed, when given, replacing the document's.  Read and parse
    errors and every validation diagnostic go to stderr; the code is EXIT_OK
    only for a document that validates."""
    if source in PRESETS:
        doc, desc = preset_config(source), f"preset {source}"
    else:
        desc = str(Path(source))
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return None, desc, EXIT_PARSE
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            print(f"parse error: {desc}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
            return None, desc, EXIT_PARSE
    if base_seed is not None and isinstance(doc, dict):
        doc = {**doc, "base_seed": base_seed}
    diagnostics = validate_experiment(doc)
    for line in diagnostics:
        print(f"invalid: {line}", file=sys.stderr)
    return doc, desc, EXIT_INVALID if diagnostics else EXIT_OK


def _cmd_run(args) -> int:
    doc, desc, code = _load_valid(args.config, base_seed=args.seed)
    if code != EXIT_OK:
        return code
    exp = parse_experiment(doc)
    summary = run_experiment(exp, output_dir=args.output_dir, jobs=args.jobs)
    out = Path(args.output_dir if args.output_dir is not None else exp.output_dir)
    print(f"campaign {exp.name} ({desc}): {summary['num_runs']} run(s) -> {out}")
    for rec in summary["runs"]:
        print(f"  {rec['name']:<24} cumulative={rec['final_cumulative_true']:.6g}"
              f"  max|x|={rec['max_state_norm']:.6g}  changes={rec['total_changes']}")
        for w in rec["warnings"]:
            print(f"    warning: {w}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _, desc, code = _load_valid(args.config)
    if code == EXIT_OK:
        print(f"ok: {desc} is valid")
    return code


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

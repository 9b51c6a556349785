"""Per-layer tracing of archtune from outside the program.

`Tracer.install` replaces every public function (every function whose name
has no leading underscore) defined in a layer module with a
wrapper that records one span (name, start, end, parent) per call.  A name
imported with `from .x import f` is a separate module attribute, so each
function is replaced at every module attribute that holds it; otherwise the
calls made through that name would be missed.  Spans are kept in memory in
flat arrays and written out once, when the run ends.  The wrappers return
what the wrapped function returns, so a traced campaign writes the same
artifacts as an untraced one.

A span's self time is its duration minus the time covered by its child
spans.  Spans are grouped in phases (the set-up, then one phase per campaign
round); `layer_metrics` adds the set-up phase to the median over the rounds.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from statistics import median

import numpy as np

LAYERS = ("network", "synthesis", "costs", "greedy", "simulation", "cli", "_lin")

# The two rollout loops are reached only through simulate; leaving them
# unwrapped makes simulate's self time the loop's own time.
UNWRAPPED = frozenset({"simulation.simulate_lqr", "simulation.simulate_lqg"})

# Private functions that are wrapped as well: the value-iteration fallback of
# solve_dare, whose riccati_step children are the fallback steps.
PRIVATE = ("synthesis._dare_fixed_point",)

SCIPY_DARE = "scipy.solve_discrete_are"


class Tracer:
    """Records spans for the functions it wraps until `uninstall`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.mark = array("q")
        self.phase_starts = [0]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _wrap(self, fn, qualname: str, mark=None):
        nid = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        name_id, parent, start, end, marks = (self.name_id, self.parent, self.start,
                                              self.end, self.mark)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            marks.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if mark is not None:
                marks[idx] = mark(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def new_phase(self) -> None:
        """Start a new phase: spans recorded from now on belong to it."""
        self.phase_starts.append(len(self.name_id))

    # ---- installing ----

    def install(self, package) -> None:
        """Wrap the public functions of every layer of `package` (archtune)."""
        import scipy.linalg

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        targets: dict = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                qualname = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and qualname not in UNWRAPPED):
                    targets[obj] = qualname
        for qualname in PRIVATE:
            layer, attr = qualname.split(".")
            targets[getattr(modules[layer], attr)] = qualname

        marks = _marks(modules)
        wrappers = {fn: self._wrap(fn, qn, marks.get(qn)) for fn, qn in targets.items()}
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        # solve_dare looks the scipy solver up on scipy.linalg at call time
        self._patch(scipy.linalg, "solve_discrete_are",
                    self._wrap(scipy.linalg.solve_discrete_are, SCIPY_DARE))

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # ---- output ----

    def save(self, path) -> None:
        """Write every span to one .npz file (names table plus flat arrays)."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), mark=np.asarray(self.mark),
                 phase_starts=np.asarray(self.phase_starts))

    def phase_stats(self, phase: int) -> dict:
        """Calls, seconds, self seconds and derived counts of one phase."""
        lo = self.phase_starts[phase]
        hi = (self.phase_starts[phase + 1] if phase + 1 < len(self.phase_starts)
              else len(self.name_id))
        k = len(self.names)
        nid = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        par = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        mark = np.asarray(self.mark[lo:hi], dtype=np.int64)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_s = dur - child
        pnid = np.full(hi - lo, -1)
        pnid[has_parent] = nid[par[has_parent]]
        gpnid = np.full(hi - lo, -1)
        gp = np.where(has_parent, par, 0)
        gp_ok = has_parent & (par[gp] >= 0)
        gpnid[gp_ok] = nid[par[gp[gp_ok]]]
        ids = {name: i for i, name in enumerate(self.names)}

        def under(name: str, parent_name: str, grand: str | None = None):
            sel = (nid == ids[name]) & (pnid == ids[parent_name])
            if grand is not None:
                sel &= gpnid == ids[grand]
            return sel

        stats = {name: {"calls": int(c), "s": float(s), "self_s": float(ss)}
                 for name, c, s, ss in zip(
                     self.names, np.bincount(nid, minlength=k),
                     np.bincount(nid, weights=dur, minlength=k),
                     np.bincount(nid, weights=self_s, minlength=k))}
        solve = nid == ids["synthesis.solve_dare"]
        greedy_sf = nid == ids["greedy.greedy_actuator_state_feedback"]
        stats["derived"] = {
            "dare_diverged": int(mark[solve].sum()),
            "dare_scipy_s": float(dur[under(SCIPY_DARE, "synthesis.solve_dare")].sum()),
            "dare_fallback_steps": int(under("synthesis.riccati_step",
                                             "synthesis._dare_fixed_point",
                                             "synthesis.solve_dare").sum()),
            "dare_lookups": int(mark[greedy_sf].sum()),
            "dare_misses": int(under("synthesis.solve_dare",
                                     "greedy.greedy_actuator_state_feedback").sum()),
            "candidate_evals": int(under("greedy.apply_choice", "greedy.greedy_swap").sum()),
            "lqr_misses": int(under("synthesis.lqr_backward", "greedy.greedy_swap").sum()),
            "kalman_misses": int(under("synthesis.kalman_forward", "greedy.greedy_swap").sum()),
        }
        return stats


def _marks(modules) -> dict:
    """Per-call integers kept beside a span: whether solve_dare returned the
    Diverged sentinel, and how many DARE-cache lookups one greedy state-feedback
    call makes (every candidate of each round, then the final set)."""
    diverged = modules["synthesis"].DIVERGED
    selector = inspect.signature(modules["greedy"].greedy_actuator_state_feedback)

    def dare_diverged(args, kwargs, result):
        return int(result is diverged)

    def dare_lookups(args, kwargs, result):
        bound = selector.bind(*args, **kwargs)
        m = bound.arguments["system"].num_actuators
        card = bound.arguments["cardinality"]
        return sum(m - k for k in range(card)) + 1

    return {"synthesis.solve_dare": dare_diverged,
            "greedy.greedy_actuator_state_feedback": dare_lookups}


def _calls(fn):
    return ("count", lambda st: st[fn]["calls"])


def _secs(fn, key="s"):
    return ("s", lambda st: st[fn][key])


def _ratio(num, den):
    """1 - num/den, or 0 when nothing was looked up."""
    return ("ratio", lambda st: 1.0 - st["derived"][num] / st["derived"][den]
            if st["derived"][den] else 0.0)


# name -> (unit, how to read it from the stats of one round plus set-up)
LAYER_METRICS = {
    "synthesis.solve_dare.calls": _calls("synthesis.solve_dare"),
    "synthesis.solve_dare.s": _secs("synthesis.solve_dare"),
    "synthesis.solve_dare.diverged": ("count", lambda st: st["derived"]["dare_diverged"]),
    "synthesis.solve_dare.scipy_s": ("s", lambda st: st["derived"]["dare_scipy_s"]),
    "synthesis.solve_dare.fallback_steps":
        ("count", lambda st: st["derived"]["dare_fallback_steps"]),
    "greedy.greedy_actuator_state_feedback.calls":
        _calls("greedy.greedy_actuator_state_feedback"),
    "greedy.greedy_actuator_state_feedback.s": _secs("greedy.greedy_actuator_state_feedback"),
    "greedy.dare_cache_hit_ratio": _ratio("dare_misses", "dare_lookups"),
    "greedy.greedy_swap.calls": _calls("greedy.greedy_swap"),
    "greedy.greedy_swap.s": _secs("greedy.greedy_swap"),
    "greedy.greedy_swap.self_s": _secs("greedy.greedy_swap", "self_s"),
    "greedy.candidate_evals": ("count", lambda st: st["derived"]["candidate_evals"]),
    "greedy.evals_per_step":
        ("count", lambda st: st["derived"]["candidate_evals"] / st["greedy.greedy_swap"]["calls"]
         if st["greedy.greedy_swap"]["calls"] else 0.0),
    "greedy.lqr_hit_ratio": _ratio("lqr_misses", "candidate_evals"),
    "greedy.kalman_hit_ratio": _ratio("kalman_misses", "candidate_evals"),
    "synthesis.lqr_backward.calls": _calls("synthesis.lqr_backward"),
    "synthesis.lqr_backward.s": _secs("synthesis.lqr_backward"),
    "synthesis.kalman_forward.calls": _calls("synthesis.kalman_forward"),
    "synthesis.kalman_forward.s": _secs("synthesis.kalman_forward"),
    "synthesis.riccati_step.calls": _calls("synthesis.riccati_step"),
    "synthesis.riccati_step.s": _secs("synthesis.riccati_step"),
    "synthesis.kalman_step.calls": _calls("synthesis.kalman_step"),
    "synthesis.kalman_step.s": _secs("synthesis.kalman_step"),
    "lin.check_psd.calls": _calls("_lin.check_psd"),
    "lin.check_psd.s": _secs("_lin.check_psd"),
    "costs.accumulate_true_cost.calls": _calls("costs.accumulate_true_cost"),
    "costs.accumulate_true_cost.s": _secs("costs.accumulate_true_cost"),
    "simulation.simulate.self_s": _secs("simulation.simulate", "self_s"),
    "synthesis.estimator_update.s": _secs("synthesis.estimator_update"),
    "cli.write_trace_csv.s": _secs("cli.write_trace_csv"),
    "cli.write_plotdata.s": _secs("cli.write_plotdata"),
    "cli.write_timing.s": _secs("cli.write_timing"),
    "network.random_network.s": _secs("network.random_network"),
    "network.random_network_localized.s": _secs("network.random_network_localized"),
    "cli.validate_experiment.s": _secs("cli.validate_experiment"),
    "cli.build_simulation_config.s": _secs("cli.build_simulation_config"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value: the set-up phase plus the median over the
    campaign rounds (counts repeat exactly from round to round)."""
    setup = tracer.phase_stats(0)
    rounds = [_combine(setup, tracer.phase_stats(p))
              for p in range(1, len(tracer.phase_starts))]
    return {name: (float(median(read(r) for r in rounds)), unit)
            for name, (unit, read) in LAYER_METRICS.items()}


def _combine(setup: dict, rnd: dict) -> dict:
    out = {name: {key: setup[name][key] + rnd[name][key] for key in rnd[name]}
           for name in rnd if name != "derived"}
    out["derived"] = {key: setup["derived"][key] + rnd["derived"][key]
                      for key in rnd["derived"]}
    return out

"""The benchmark's workloads: each builtin campaign cut to fit one timed run.

A workload keeps the runs of the first `systems` network seeds of the preset
of the same name and sets every kept run to `T_sim` steps.  Nothing else in
the preset changes, so the plant, the bounds, the costs and the noise are the
ones `archtune run <preset>` uses.

One round of a workload runs the cut campaign `campaigns` times, at the base
seeds `campaign_seeds` derives from the benchmark's seed.  The first is the
seed itself, as `archtune run --seed` takes it.  The per-step time of a
rollout depends on its trajectory, so pooling the steps of a few independent
trajectories keeps the figures of one run close to those of the next seed.
"""

from __future__ import annotations

# far apart, so that the campaigns of nearby benchmark seeds never share one
SEED_STRIDE = 1_000_000

WORKLOADS = {
    # state feedback: fixed two-actuator run beside the greedy selector; the
    # time is in solve_dare, the swap is never called.  A step is slow (about
    # 49 new DARE solves) only when the first greedy pick is one not seen
    # before; by step 100 that count has levelled off near 20, so the
    # campaign time varies little with the seed and the median step stays
    # in the fast mode while the 90th percentile stays in the slow one.
    "lqr-50": {"systems": 1, "T_sim": 100, "campaigns": 3},
    # output feedback, every bound 5: about 620 equal-shaped candidates per
    # step; solve_dare is never called.  Not in BENCHMARK.json: with no cap
    # on the swap passes its per-step time spreads too widely across seeds
    # for the runs that fit the time budget (see README.md).
    "lqg-50-tight": {"systems": 1, "T_sim": 60, "campaigns": 1},
    # output feedback, bounds 1..5, max_changes 2, heavy device rates:
    # candidates of mixed shapes, about 420 per step
    "lqg-50-costs": {"systems": 1, "T_sim": 60, "campaigns": 2},
}


def campaign_doc(preset_config, name: str) -> dict:
    """The cut campaign document of one workload.

    preset_config is `archtune.cli.preset_config`, passed in so that this
    module imports nothing from the program under test.
    """
    spec = WORKLOADS[name]
    doc = preset_config(name)
    keep = set(range(1, spec["systems"] + 1))
    doc["runs"] = [dict(run, T_sim=spec["T_sim"]) for run in doc["runs"]
                   if run["seed"] in keep]
    return doc


def campaign_seeds(name: str, seed: int) -> list[int]:
    """The base seeds of the campaigns of one round of a workload."""
    return [seed + j * SEED_STRIDE for j in range(WORKLOADS[name]["campaigns"])]

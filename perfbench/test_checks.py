"""Tests of the benchmark's own output checks.

Each test writes a short real campaign of one workload, corrupts one value in
a copy of its artifacts, and shows that the check meant to catch it fails.
Run from the root of an archtune checkout:

    python3 -m pytest perfbench/test_checks.py
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from archtune import cli, network  # noqa: E402

from checks import check_campaign  # noqa: E402
from workloads import campaign_doc  # noqa: E402

SEED = 3
# lqg-50-costs needs a few steps before a device switches, which its
# device-cost property asks for
STEPS = {"lqr-50": 3, "lqg-50-tight": 3, "lqg-50-costs": 10}


def _campaign(name: str, out_dir: Path):
    doc = campaign_doc(cli.preset_config, name)
    doc["runs"] = [dict(run, T_sim=STEPS[name]) for run in doc["runs"] if run["seed"] == 1]
    exp = cli.parse_experiment(doc)
    cli.run_experiment(exp, output_dir=str(out_dir), seed_base_override=SEED, jobs=1)
    return exp


@pytest.fixture(scope="module", params=["lqr-50", "lqg-50-tight", "lqg-50-costs"])
def campaign(request, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp(request.param)
    return _campaign(request.param, out_dir), out_dir


@pytest.fixture
def artifacts(campaign, tmp_path):
    """A fresh copy of one workload's artifacts and its experiment."""
    exp, out_dir = campaign
    copy = tmp_path / "artifacts"
    shutil.copytree(out_dir, copy)
    return exp, copy


def _failures(exp, out_dir: Path) -> list[str]:
    verdict = check_campaign(exp.runs, SEED, out_dir, exp.name, network)
    return [f for msgs in verdict.values() for f in msgs]


def _edit_trace(path: Path, t: int, column: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[t + 1][j] = edit(rows[t + 1][j])
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _self_tuning(exp):
    return next(r for r in exp.runs if r["mode"] == "self_tuning")


def _active(path: Path, t: int, kind: str) -> list[int]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [int(h[len(kind):]) for h, v in zip(rows[0], rows[t + 1])
            if h.startswith(kind) and h[len(kind):].isdigit() and v == "1"]


def _check_names(failures: list[str]) -> set[str]:
    return {f.split(":", 1)[0] for f in failures}


def test_untouched_artifacts_pass(artifacts):
    exp, out_dir = artifacts
    assert _failures(exp, out_dir) == []


def test_perturbed_input_fails(artifacts):
    exp, out_dir = artifacts
    run = _self_tuning(exp)
    path = out_dir / f"{run['name']}.trace.csv"
    j = _active(path, 1, "act")[0]
    _edit_trace(path, 1, f"u{j}", lambda v: repr(float(v) * (1 + 1e-4)))
    expected = "gains" if run["feedback"] == "state" else "horizon_cost"
    assert expected in _check_names(_failures(exp, out_dir))


def test_perturbed_predicted_fails(artifacts):
    exp, out_dir = artifacts
    run = _self_tuning(exp)
    if run["feedback"] != "output":
        pytest.skip("the horizon-cost check prices output-feedback runs")
    _edit_trace(out_dir / f"{run['name']}.trace.csv", 1, "predicted",
                lambda v: repr(float(v) * (1 + 1e-6)))
    assert "horizon_cost" in _check_names(_failures(exp, out_dir))


def test_bound_violating_row_fails(artifacts):
    exp, out_dir = artifacts
    run = _self_tuning(exp)
    path = out_dir / f"{run['name']}.trace.csv"
    for j in range(50):                  # every actuator on: past any bound
        _edit_trace(path, 2, f"act{j}", lambda v: "1")
    assert "bounds" in _check_names(_failures(exp, out_dir))


def test_nan_in_plotdata_fails(artifacts):
    exp, out_dir = artifacts
    run = _self_tuning(exp)
    path = out_dir / f"{run['name']}.plotdata.json"
    data = json.loads(path.read_text())
    data["state_norm"][1] = float("nan")
    path.write_text(json.dumps(data))
    assert "strict_json" in _check_names(_failures(exp, out_dir))


def test_swapped_greedy_pick_fails(artifacts):
    exp, out_dir = artifacts
    run = _self_tuning(exp)
    if run["feedback"] != "state":
        pytest.skip("the greedy-pick check covers the state-feedback selector")
    path = out_dir / f"{run['name']}.trace.csv"
    picked = _active(path, 0, "act")
    other = next(j for j in range(50) if j not in picked)
    _edit_trace(path, 0, f"act{picked[0]}", lambda v: "0")
    _edit_trace(path, 0, f"act{other}", lambda v: "1")
    assert "greedy_pick" in _check_names(_failures(exp, out_dir))

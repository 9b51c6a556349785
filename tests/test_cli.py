"""Config schema, artifact byte stability, and the command-line surface."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from archtune.cli import (
    ConfigError,
    PRESETS,
    build_simulation_config,
    main,
    parse_experiment,
    preset_config,
    run_experiment,
    validate_experiment,
    write_trace_csv,
)
from archtune.network import ArchitectureSet
from archtune.simulation import simulate


def minimal_doc(**overrides):
    """Smallest valid campaign: one fixed state-feedback run on a 2-node plant."""
    doc = {
        "schema_version": 1,
        "name": "mini",
        "output_dir": "out",
        "base_seed": 0,
        "runs": [{
            "name": "run0",
            "seed": 1,
            "mode": "fixed",
            "feedback": "state",
            "T_sim": 5,
            "system": {"A": [[0.9, 0.0], [0.0, 0.5]], "W": 0.01},
            "initial_arch": {"actuators": [0, 1], "sensors": []},
        }],
    }
    doc.update(overrides)
    return doc


MALFORMED_FILE = Path(__file__).parent / "data" / "malformed.json"

NETWORK = {"random_network": {"n": 4, "eig_band": 0.1, "seed": 1,
                              "W_scale": 1.0, "v_var": 1.0}}
LOCALIZED = {"random_network_localized": {"n": 4, "num_unstable": 1, "unstable_band": [1.2, 1.4],
                                          "stable_band": [0.2, 0.8], "seed": 1,
                                          "W_scale": 1.0, "v_var": 1.0}}

# (path the one diagnostic starts with, system replacing lqg_doc's or None,
#  dotted location of the malformed field, its value)
MALFORMED = [
    ("runs[0].system.random_network", NETWORK, "runs.0.system.random_network", 5),
    ("runs[0].system.random_network.n", NETWORK, "runs.0.system.random_network.n", "abc"),
    ("runs[0].system.random_network", NETWORK, "runs.0.system.random_network.n", 0),
    ("runs[0].system.random_network", NETWORK, "runs.0.system.random_network.eig_band", 1.5),
    ("runs[0].system.random_network.W_scale", NETWORK,
     "runs.0.system.random_network.W_scale", "x"),
    ("runs[0].system.random_network", NETWORK, "runs.0.system.random_network.W_scale", -1),
    ("runs[0].system.random_network_localized", LOCALIZED,
     "runs.0.system.random_network_localized.num_unstable", 5),
    ("runs[0].system.random_network_localized.unstable_band", LOCALIZED,
     "runs.0.system.random_network_localized.unstable_band", 1.3),
    ("runs[0].system.random_network_localized", LOCALIZED,
     "runs.0.system.random_network_localized.n", 0),
    ("runs[0].system.A", None, "runs.0.system.A", [[1.0, 0.0], [0.5]]),
    ("runs[0].system.A", None, "runs.0.system.A", [["a", 0.0], [0.0, 1.0]]),
    ("runs[0].T_sim", None, "runs.0.T_sim", None),
    ("runs[0].x0_std", None, "runs.0.x0_std", None),
    ("runs[0].costs.horizon", None, "runs.0.costs.horizon", None),
    ("runs[0].constraints.act_min", None, "runs.0.constraints.act_min", None),
    ("runs[0].initial_arch.actuators", None, "runs.0.initial_arch",
     {"actuators": None, "sensors": [0]}),
    ("base_seed", None, "base_seed", "x"),
    ("emit", None, "emit", [1]),
    # counts are integers, not truncated floats or bools
    ("runs[0].T_sim", None, "runs.0.T_sim", 2.5),
    ("runs[0].T_sim", None, "runs.0.T_sim", True),
    ("runs[0].costs.horizon", None, "runs.0.costs.horizon", 2.5),
    ("runs[0].constraints.max_changes", None, "runs.0.constraints.max_changes", 1.5),
    ("runs[0].system.random_network.seed", NETWORK, "runs.0.system.random_network.seed", 1.5),
    # accepted before, then failed in the rollout: bounds past the pools
    # (greedy_swap at step 0, or the initial draw) and a negative seed
    ("runs[0]", None, "runs.0.constraints.act_max", 3),
    ("runs[0]", None, "runs.0.constraints.sen_max", 3),
    ("runs[0]", None, "runs.0.constraints", {"act_min": 3, "act_max": 3,
                                              "sen_min": 1, "sen_max": 1}),
    ("runs[0]", None, "runs.0.seed", -3),
    # device indices are integers too: 0.7 ran as index 0 before
    ("runs[0].initial_arch.actuators[0]", None, "runs.0.initial_arch",
     {"actuators": [0.7, 1], "sensors": [0]}),
    ("runs[0].initial_arch.sensors[1]", None, "runs.0.initial_arch",
     {"actuators": [0], "sensors": [0, True]}),
]


def malformed_doc(system, where, value):
    doc = lqg_doc()
    if system is not None:
        doc["runs"][0]["system"] = copy.deepcopy(system)
    *parents, last = [int(k) if k.isdigit() else k for k in where.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def lqg_doc(name="lqgmini", T_sim=6):
    return {
        "schema_version": 1,
        "name": name,
        "output_dir": "out",
        "base_seed": 0,
        "runs": [{
            "name": "tuned",
            "seed": 2,
            "mode": "self_tuning",
            "feedback": "output",
            "T_sim": T_sim,
            "system": {"A": [[1.3, 0.0], [0.1, 0.5]], "W": 0.1, "v_var": 0.1},
            "constraints": {"act_min": 1, "act_max": 2, "sen_min": 1, "sen_max": 2},
            "costs": {"horizon": 3, "actuator_switching": 0.1,
                      "sensor_switching": 0.1},
            "x0_std": 2.0,
        }],
    }


class TestParseNormalize:
    def test_defaults_filled(self):
        exp = parse_experiment(minimal_doc())
        run = exp.runs[0]
        assert run["x0_std"] == 1.0
        assert run["state_R"] == 1.0
        assert run["identify"] is False
        assert run["diverged_policy"] == "last_gain"
        assert exp.emit == {"trace": True, "summary": True, "plotdata": True}

    def test_constraint_and_cost_defaults(self):
        exp = parse_experiment(lqg_doc())
        run = exp.runs[0]
        assert run["constraints"]["max_changes"] is None
        assert run["constraints"]["max_per_subsequence"] == 1
        assert run["costs"]["state_cost"] == 1.0
        assert run["costs"]["terminal_cost"] is None

    def test_schema_version_gate(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_experiment(minimal_doc(schema_version=99))

    def test_bad_names_rejected(self):
        with pytest.raises(ConfigError, match="name"):
            parse_experiment(minimal_doc(name="has space"))
        doc = minimal_doc()
        doc["runs"][0]["name"] = "run/0"
        with pytest.raises(ConfigError, match=r"runs\[0\]\.name"):
            parse_experiment(doc)

    def test_duplicate_run_names(self):
        doc = minimal_doc()
        doc["runs"].append(dict(doc["runs"][0]))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_experiment(doc)

    def test_missing_required_run_field(self):
        doc = minimal_doc()
        del doc["runs"][0]["seed"]
        with pytest.raises(ConfigError, match=r"runs\[0\]\.seed"):
            parse_experiment(doc)

    def test_bad_emit_flag(self):
        with pytest.raises(ConfigError, match="emit"):
            parse_experiment(minimal_doc(emit={"trace": "yes"}))


class TestValidateExperiment:
    def test_valid_docs_produce_no_diagnostics(self):
        assert validate_experiment(minimal_doc()) == []
        assert validate_experiment(lqg_doc()) == []
        for preset in PRESETS:
            assert validate_experiment(preset_config(preset)) == []

    def test_inverted_bounds_named_by_path(self):
        doc = lqg_doc()
        doc["runs"][0]["constraints"]["act_min"] = 3
        doc["runs"][0]["constraints"]["act_max"] = 1
        diags = validate_experiment(doc)
        assert len(diags) == 1
        assert "runs[0].constraints" in diags[0]

    def test_zero_horizon_named_by_path(self):
        doc = lqg_doc()
        doc["runs"][0]["costs"]["horizon"] = 0
        diags = validate_experiment(doc)
        assert len(diags) == 1
        assert "runs[0].costs" in diags[0]

    def test_shape_mismatch_diagnosed(self):
        doc = minimal_doc()
        doc["runs"][0]["state_Q"] = [[1.0]]
        diags = validate_experiment(doc)
        assert len(diags) == 1
        assert "state_Q" in diags[0]

    def test_state_R_diagnosed_by_path(self):
        doc = minimal_doc()
        doc["runs"][0]["state_R"] = [[1.0]]
        assert validate_experiment(doc) == [
            "runs[0].state_R: expected shape (2,2), got (1, 1)"]
        doc["runs"][0]["state_R"] = [[1.0, 0.0], [0.0, -1.0]]
        diags = validate_experiment(doc)
        assert len(diags) == 1
        assert diags[0].startswith("runs[0]: state_R is not positive definite")

    @pytest.mark.parametrize("prefix,system,where,value", MALFORMED,
                             ids=[f"{w}={v!r}" for _, _, w, v in MALFORMED])
    def test_malformed_field_named_by_path(self, prefix, system, where, value, tmp_path,
                                           capsys):
        doc = malformed_doc(system, where, value)
        diags = validate_experiment(doc)
        assert len(diags) == 1 and diags[0].startswith(f"{prefix}: "), diags
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"invalid: {diags[0]}\n"

    def test_integral_float_counts_accepted(self):
        doc = lqg_doc(T_sim=6.0)
        doc["runs"][0]["costs"]["horizon"] = 3.0
        assert validate_experiment(doc) == []
        cfg = build_simulation_config(parse_experiment(doc).runs[0], 0)
        assert (cfg.T_sim, cfg.params.horizon) == (6, 3)
        assert type(cfg.T_sim) is int

    def test_integral_float_indices_accepted(self):
        doc = lqg_doc()
        doc["runs"][0]["initial_arch"] = {"actuators": [1.0], "sensors": [0.0, 1]}
        assert validate_experiment(doc) == []
        arch = build_simulation_config(parse_experiment(doc).runs[0], 0).initial_arch
        assert arch == ArchitectureSet(actuators=(1,), sensors=(0, 1))
        assert all(type(i) is int for i in arch.actuators + arch.sensors)

    def test_structural_error_reported_once(self):
        diags = validate_experiment({"name": "x", "runs": "nope"})
        assert diags == ["runs: must be a list"]


    def test_noiseless_output_feedback_needs_definite_covariances(self):
        # without these rules validate passed and the run died in kalman_step
        doc = lqg_doc()
        doc["runs"][0].update(
            system={"random_network": {"n": 6, "eig_band": 0.1, "seed": 1,
                                       "W_scale": 0.0, "v_var": 0.0}},
            costs={"horizon": 4}, E0_scale=0.0)
        diags = validate_experiment(doc)
        assert len(diags) == 1 and "runs[0]" in diags[0] and "E0_scale" in diags[0]
        doc["runs"][0]["E0_scale"] = 1.0
        diags = validate_experiment(doc)
        assert len(diags) == 1 and "W" in diags[0] and "positive definite" in diags[0]
        doc["runs"][0]["system"]["random_network"]["W_scale"] = 0.1
        assert validate_experiment(doc) == []


class TestBuildSimulationConfig:
    def test_seed_composition(self):
        exp = parse_experiment(minimal_doc(base_seed=5))
        cfg = build_simulation_config(exp.runs[0], exp.base_seed)
        assert cfg.seed == 6

    def test_scalar_shorthands_expand(self):
        exp = parse_experiment(lqg_doc())
        cfg = build_simulation_config(exp.runs[0], 0)
        assert np.array_equal(cfg.params.state_cost, np.eye(2))
        assert np.array_equal(cfg.params.input_cost, np.eye(2))
        # terminal defaults to the running state cost
        assert np.array_equal(cfg.params.terminal_cost, np.eye(2))
        assert np.array_equal(cfg.system.W, 0.1 * np.eye(2))


class TestArtifacts:
    def test_run_writes_expected_files(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        summary = run_experiment(exp, output_dir=str(tmp_path))
        assert summary["num_runs"] == 1
        assert (tmp_path / "tuned.trace.csv").exists()
        assert (tmp_path / "tuned.plotdata.json").exists()
        assert (tmp_path / "tuned.timing.json").exists()
        assert (tmp_path / "lqgmini.summary.json").exists()
        rec = summary["runs"][0]
        assert rec["seed"] == 2
        assert rec["T_sim"] == 6
        assert np.isfinite(rec["final_cumulative_true"])

    def test_reruns_are_byte_identical(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_experiment(exp, output_dir=str(dir_a))
        run_experiment(exp, output_dir=str(dir_b))
        for fname in ("tuned.trace.csv", "tuned.plotdata.json",
                      "lqgmini.summary.json"):
            assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()
        # the timing sidecar holds the wall clock and may differ freely
        t_a = json.loads((dir_a / "tuned.timing.json").read_text())
        t_b = json.loads((dir_b / "tuned.timing.json").read_text())
        assert t_a["run"] == t_b["run"] == "tuned"

    def test_seed_override_changes_rollout(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        run_experiment(exp, output_dir=str(tmp_path / "base"))
        summary = run_experiment(exp, output_dir=str(tmp_path / "shift"),
                                 seed_base_override=1000)
        assert summary["runs"][0]["seed"] == 1002
        a = (tmp_path / "base" / "tuned.trace.csv").read_bytes()
        b = (tmp_path / "shift" / "tuned.trace.csv").read_bytes()
        assert a != b

    def test_emit_flags_suppress_artifacts(self, tmp_path):
        doc = lqg_doc()
        doc["emit"] = {"trace": False, "plotdata": False}
        exp = parse_experiment(doc)
        run_experiment(exp, output_dir=str(tmp_path))
        assert not (tmp_path / "tuned.trace.csv").exists()
        assert not (tmp_path / "tuned.plotdata.json").exists()
        assert (tmp_path / "tuned.timing.json").exists()
        assert (tmp_path / "lqgmini.summary.json").exists()

    def test_empty_campaign_succeeds(self, tmp_path):
        exp = parse_experiment(minimal_doc(runs=[]))
        summary = run_experiment(exp, output_dir=str(tmp_path))
        assert summary["num_runs"] == 0
        written = json.loads((tmp_path / "mini.summary.json").read_text())
        assert written["runs"] == []

    def test_trace_floats_round_trip(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        cfg = build_simulation_config(exp.runs[0], exp.base_seed)
        trace = simulate(cfg)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        n = cfg.system.n
        assert lines[1:] and len(lines) - 1 == cfg.T_sim
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == t
            for i in range(n):
                assert float(cells[1 + i]) == trace.x[t, i]
                assert float(cells[1 + n + i]) == trace.x_hat[t, i]
            cum = float(cells[header.index("cumulative_true")])
            assert cum == trace.ledger.entries[t].cumulative_true

    def test_plotdata_series_lengths(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        run_experiment(exp, output_dir=str(tmp_path))
        data = json.loads((tmp_path / "tuned.plotdata.json").read_text())
        T = data["T_sim"]
        assert data["t"] == list(range(T))
        for key in ("predicted", "cumulative_true", "true_stage",
                    "actuator_count", "change_counts"):
            assert len(data[key]) == T
        # norm series include the terminal state
        assert len(data["state_norm"]) == T + 1
        assert len(data["error_norm"]) == T + 1
        assert all(len(row) == 2 for row in data["actuator_raster"])
        assert data["compute_time_file"] == "tuned.timing.json"


class TestStrictJson:
    @staticmethod
    def _strict_load(path):
        def refuse(name):
            raise ValueError(f"non-finite constant {name}")
        return json.loads(path.read_text(), parse_constant=refuse)

    def test_diverged_run_writes_null_and_warns(self, tmp_path):
        # actuator 1 leaves the first node, growing 1e10-fold a step, unreached
        doc = minimal_doc()
        doc["runs"][0].update(T_sim=40, system={"A": [[1e10, 0.0], [0.0, 0.5]], "W": 0.01},
                              initial_arch={"actuators": [1], "sensors": []})
        with np.errstate(over="ignore", invalid="ignore"):
            run_experiment(parse_experiment(doc), output_dir=str(tmp_path))
        summary = self._strict_load(tmp_path / "mini.summary.json")
        rec = summary["runs"][0]
        assert rec["final_cumulative_true"] is None
        assert any(w.startswith("state diverged at step") for w in rec["warnings"])
        plot = self._strict_load(tmp_path / "run0.plotdata.json")
        assert plot["state_norm"][0] is not None and plot["state_norm"][-1] is None

    def test_finite_artifacts_unchanged_by_strict_writer(self, tmp_path):
        exp = parse_experiment(lqg_doc())
        run_experiment(exp, output_dir=str(tmp_path))
        for name in ("tuned.plotdata.json", "lqgmini.summary.json"):
            text = (tmp_path / name).read_text()
            data = json.loads(text)
            if name.endswith("plotdata.json"):
                expected = json.dumps(data, sort_keys=True, separators=(",", ":"))
            else:
                expected = json.dumps(data, sort_keys=True, indent=2)
            assert text == expected + "\n"


class TestCommandLine:
    def test_validate_preset_ok(self, capsys):
        assert main(["validate", "lqr-50"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_invalid_file_exits_1(self, tmp_path, capsys):
        doc = lqg_doc()
        doc["runs"][0]["costs"]["horizon"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid:" in err
        assert "runs[0].costs" in err

    def test_checked_in_malformed_config_exits_1(self, capsys):
        assert main(["validate", str(MALFORMED_FILE)]) == 1
        err = capsys.readouterr().err
        assert err == ("invalid: runs[0].system.random_network: "
                       "eig_band must lie in [0, 1)\n"
                       "invalid: runs[1].initial_arch.actuators[0]: "
                       "expected an integer, got 0.7\n")
        assert "Traceback" not in err

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": }\n')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert ":1:" in err          # line diagnostic

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("lqr-50", "lqg-50-tight", "lqg-50-costs"):
            assert name in out

    def test_show_preset_emits_json(self, capsys):
        assert main(["list-presets", "--show", "lqg-50-costs"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "lqg-50-costs"
        assert validate_experiment(doc) == []

    def test_show_unknown_preset_exits_1(self, capsys):
        assert main(["list-presets", "--show", "mystery"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_run_command_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(lqg_doc()))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "campaign lqgmini" in out
        assert "tuned" in out
        assert (tmp_path / "out" / "tuned.trace.csv").exists()

    def test_run_validates_with_the_seed_flag(self, tmp_path, capsys):
        # the run's own seed is 1, so a base of -5 makes it negative; this
        # used to pass validation and die in the run with a traceback
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_doc()))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o"),
                     "--seed", "-5"]) == 1
        assert capsys.readouterr().err == "invalid: runs[0]: seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_run_with_seed_flag(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_doc()))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o1"),
                     "--seed", "77"]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "o1" / "mini.summary.json").read_text())
        assert summary["runs"][0]["seed"] == 78

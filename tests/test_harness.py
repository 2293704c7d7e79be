"""Experiment-protocol and CLI tests on a small convex fixture."""

import argparse
import copy
import csv
import json
import os

import numpy as np
import pytest

import dfcvr
from dfcvr import cli, data, harness, influence, models, solvers
from dfcvr.data import SyntheticConfig
from dfcvr.errors import ConfigError, DataFormatError
from dfcvr.training import TrainConfig

DAY = 86400


def _tiny_config(output_dir=None, **overrides):
    base = dict(
        data=SyntheticConfig(
            n=4000, feature_dim=5, target_cvr=0.2227,
            delay_mean_tau=2 * DAY, horizon=12 * DAY,
            drift_angle_per_day=0.1, seed=0,
        ),
        t=8 * DAY, t_prime=11 * DAY, d_test=DAY,
        model=models.LogisticRegression(input_dim=5, l2_coeff=1e-2),
        train=TrainConfig(batch_size=512, learning_rate=5e-3, max_epochs=8,
                          early_stop_patience=8, seed=0),
        methods=("vanilla", "retrain", "ifdfm"),
        seeds=(0,),
        solver="cg",
        solver_config=solvers.SolverConfig(tol_rel_residual=1e-8),
        damping=1e-2,
        output_dir=output_dir,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def _strip_timings(report):
    out = copy.deepcopy(report)
    out.get("config", {}).pop("output_dir", None)
    for seed_block in out.get("per_seed", []):
        seed_block.pop("timings", None)
    for row in out.get("per_size", []):
        for key in list(row):
            if key.endswith("_s") or key == "update_over_train":
                row.pop(key)
    out.pop("ratios", None)
    return out


class TestExperimentConfig:
    def test_json_round_trip(self):
        config = _tiny_config(output_dir="/tmp/somewhere")
        blob = config.to_json_dict()
        rebuilt = harness.ExperimentConfig.from_json_dict(blob)
        assert rebuilt.to_json_dict() == blob

    def test_round_trip_with_mlp_and_solver_config(self):
        config = _tiny_config(
            model=models.Mlp(input_dim=5, hidden_dims=(16, 8), l2_coeff=0.0),
            solver="sq",
            solver_config=solvers.SolverConfig(
                tol_rel_residual=0.35, max_epochs=10, minibatch_size=2048,
                learning_rate=0.02,
            ),
        )
        blob = config.to_json_dict()
        rebuilt = harness.ExperimentConfig.from_json_dict(blob)
        assert rebuilt.to_json_dict() == blob
        assert rebuilt.model == config.model

    def test_minimal_dict_uses_defaults(self):
        raw = {
            "data": {"n": 4000, "feature_dim": 5, "target_cvr": 0.2,
                     "delay_mean_tau": 1000.0, "horizon": 12 * DAY},
            "t": 8 * DAY, "t_prime": 11 * DAY, "d_test": DAY,
            "model": {"kind": "logreg"},
        }
        config = harness.ExperimentConfig.from_json_dict(raw)
        assert config.model.input_dim == 5
        assert config.methods == ("vanilla", "retrain", "ifdfm")
        assert config.solver == "cg"

    def test_unknown_keys_rejected(self):
        raw = _tiny_config().to_json_dict()
        raw["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            harness.ExperimentConfig.from_json_dict(raw)
        raw = _tiny_config().to_json_dict()
        raw["model"]["depth"] = 3
        with pytest.raises(ConfigError, match="depth"):
            harness.ExperimentConfig.from_json_dict(raw)
        # The model spec is the one owner of the L2 coefficient.
        for block, key in (("data", "colour"), ("train", "momentum"),
                           ("train", "l2_coeff"),
                           ("solver_config", "restarts")):
            raw = _tiny_config().to_json_dict()
            raw[block][key] = 1
            with pytest.raises(ConfigError, match=f"{block} keys: {key}"):
                harness.ExperimentConfig.from_json_dict(raw)
        raw = _tiny_config().to_json_dict()
        raw["data"] = {"csv": "clicks.csv", "colour": 1}
        with pytest.raises(ConfigError, match="data keys: colour"):
            harness.ExperimentConfig.from_json_dict(raw)

    def test_mlp_without_hidden_widths_rejected(self):
        raw = {
            "data": {"n": 4000, "feature_dim": 5, "target_cvr": 0.2,
                     "delay_mean_tau": 1000.0, "horizon": 12 * DAY},
            "t": 8 * DAY, "t_prime": 11 * DAY, "d_test": DAY,
            "model": {"kind": "mlp", "hidden_dims": []},
        }
        with pytest.raises(ConfigError, match="at least one hidden width"):
            harness.ExperimentConfig.from_json_dict(raw)

    def test_csv_data_requires_input_dim(self):
        raw = {
            "data": {"csv": "clicks.csv"},
            "t": 8 * DAY, "t_prime": 11 * DAY, "d_test": DAY,
            "model": {"kind": "logreg"},
        }
        with pytest.raises(ConfigError, match="input_dim"):
            harness.ExperimentConfig.from_json_dict(raw)

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            _tiny_config(t=11 * DAY, t_prime=8 * DAY)
        with pytest.raises(ConfigError):
            _tiny_config(t_prime=8 * DAY + DAY // 2)
        with pytest.raises(ConfigError):
            _tiny_config(methods=("vanilla", "mystery"))
        with pytest.raises(ConfigError):
            _tiny_config(seeds=())
        with pytest.raises(ConfigError):
            _tiny_config(damping=-1.0)
        with pytest.raises(ConfigError):
            _tiny_config(solver="gmres")
        with pytest.raises(ConfigError):
            bad = solvers.SolverConfig(max_iters=0)
            _tiny_config(solver_config=bad)
        with pytest.raises(ConfigError):
            _tiny_config(timing_sizes=(0,))


# Pinned to_json_dict output of two configs, key order included: reports
# and config files written from it must not change.
_GOLDEN_CONFIGS = (
    (
        dict(
            data=SyntheticConfig(
                n=4000, feature_dim=5, target_cvr=0.2227,
                delay_mean_tau=2 * DAY, horizon=12 * DAY,
                drift_angle_per_day=0.1, seed=3,
            ),
            model=models.Mlp(input_dim=5, hidden_dims=(16, 8),
                             l2_coeff=1e-2),
            train=TrainConfig(seed=2),
            solver="neumann",
            solver_config=solvers.SolverConfig(max_iters=50),
            output_dir="results",
        ),
        '{"data": {"n": 4000, "feature_dim": 5, "target_cvr": 0.2227, '
        '"delay_mean_tau": 172800, "horizon": 1036800, '
        '"drift_angle_per_day": 0.1, "seed": 3}, "t": 691200, '
        '"t_prime": 950400, "d_test": 86400, "model": {"l2_coeff": 0.01, '
        '"input_dim": 5, "kind": "mlp", "hidden_dims": [16, 8]}, '
        '"train": {"batch_size": 1024, "learning_rate": 0.001, '
        '"max_epochs": 30, "early_stop_patience": 5, "seed": 2}, '
        '"methods": ["vanilla", "retrain", "ifdfm"], '
        '"seeds": [0], "solver": "neumann", "solver_config": '
        '{"tol_rel_residual": 0.0001, "max_iters": 50, "max_epochs": 5, '
        '"minibatch_size": 512, "learning_rate": 0.01, "seed": 0}, '
        '"damping": 0.001, "timing_sizes": [25000, 50000, 100000], '
        '"output_dir": "results"}',
    ),
    (
        dict(data="clicks.csv", model=models.LogisticRegression(input_dim=4)),
        '{"data": {"csv": "clicks.csv"}, "t": 691200, "t_prime": 950400, '
        '"d_test": 86400, "model": {"l2_coeff": 0.0, "input_dim": 4, '
        '"kind": "logreg"}, "train": {"batch_size": 1024, '
        '"learning_rate": 0.001, "max_epochs": 30, '
        '"early_stop_patience": 5, "seed": 0}, '
        '"methods": ["vanilla", "retrain", "ifdfm"], "seeds": [0], '
        '"solver": "cg", "solver_config": null, "damping": 0.001, '
        '"timing_sizes": [25000, 50000, 100000], "output_dir": null}',
    ),
)


@pytest.mark.parametrize("fields, golden", _GOLDEN_CONFIGS,
                         ids=["synthetic_mlp", "csv_logreg_defaults"])
def test_to_json_dict_matches_golden(fields, golden):
    config = harness.ExperimentConfig(
        t=8 * DAY, t_prime=11 * DAY, d_test=DAY, **fields
    )
    assert json.dumps(config.to_json_dict()) == golden
    assert harness.ExperimentConfig.from_json_dict(json.loads(golden)) == (
        config
    )


class TestOffline:
    def test_report_structure_and_outputs(self, tmp_path):
        config = _tiny_config(output_dir=str(tmp_path))
        report = harness.run_offline(config)
        assert report["protocol"] == "offline"
        assert report["schema_version"] == harness.SCHEMA_VERSION
        assert len(report["per_seed"]) == 1
        seed_block = report["per_seed"][0]
        assert set(seed_block["methods"]) == {"vanilla", "retrain", "ifdfm"}
        for mm in seed_block["methods"].values():
            assert 0.0 <= mm["auc"] <= 1.0
            assert mm["log_loss"] > 0.0
        assert set(seed_block["ri"]) == {"ifdfm"}
        assert "train_vanilla_s" in seed_block["timings"]
        assert "update_s" in seed_block["timings"]
        agg = report["aggregate"]
        assert agg["mean"]["methods"]["vanilla"]["auc"] == (
            seed_block["methods"]["vanilla"]["auc"]
        )
        assert agg["variance"]["methods"]["vanilla"]["auc"] == 0.0
        for name in ("offline_report.json", "offline_metrics.csv",
                     "vanilla_seed0.ckpt", "retrain_seed0.ckpt",
                     "ifdfm_seed0.ckpt"):
            assert (tmp_path / name).exists()
        spec, params = models.load_checkpoint(
            str(tmp_path / "ifdfm_seed0.ckpt")
        )
        assert spec == config.model
        assert params.shape == (models.num_params(spec),)
        with open(tmp_path / "offline_report.json") as fh:
            on_disk = json.load(fh)
        assert _strip_timings(on_disk) == _strip_timings(report)

    def test_vanilla_only_has_no_ri(self):
        report = harness.run_offline(_tiny_config(methods=("vanilla",)))
        seed_block = report["per_seed"][0]
        assert set(seed_block["methods"]) == {"vanilla"}
        assert seed_block["ri"] == {}

    def test_influence_method_trains_vanilla_implicitly(self):
        report = harness.run_offline(_tiny_config(methods=("ifdfm",)))
        seed_block = report["per_seed"][0]
        assert set(seed_block["methods"]) == {"ifdfm"}
        assert "train_vanilla_s" in seed_block["timings"]
        assert seed_block["ri"] == {}

    def test_both_influence_variants_share_the_offline_update(self):
        report = harness.run_offline(
            _tiny_config(methods=("vanilla", "retrain", "ifdfm",
                                  "ifdfm_wo_add"))
        )
        seed_block = report["per_seed"][0]
        assert seed_block["methods"]["ifdfm"] == (
            seed_block["methods"]["ifdfm_wo_add"]
        )

    def test_rerun_is_bit_identical_except_timings(self, tmp_path):
        config = _tiny_config(output_dir=str(tmp_path / "a"))
        first = harness.run_offline(config)
        second = harness.run_offline(
            _tiny_config(output_dir=str(tmp_path / "b"))
        )
        assert _strip_timings(first) == _strip_timings(second)
        for name in ("vanilla_seed0.ckpt", "ifdfm_seed0.ckpt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_multiple_seeds_aggregate(self):
        report = harness.run_offline(
            _tiny_config(seeds=(0, 1), methods=("vanilla", "retrain"))
        )
        assert len(report["per_seed"]) == 2
        aucs = [s["methods"]["vanilla"]["auc"] for s in report["per_seed"]]
        agg = report["aggregate"]
        np.testing.assert_allclose(
            agg["mean"]["methods"]["vanilla"]["auc"], np.mean(aucs)
        )
        np.testing.assert_allclose(
            agg["variance"]["methods"]["vanilla"]["auc"], np.var(aucs)
        )


class TestOnline:
    def test_quartet_and_references(self, tmp_path):
        config = _tiny_config(output_dir=str(tmp_path))
        report = harness.run_online(config)
        assert report["protocol"] == "online"
        seed_block = report["per_seed"][0]
        assert set(seed_block["methods"]) == {
            "pretrain", "ifdfm", "ifdfm_wo_add", "retrain_online"
        }
        assert set(seed_block["ri"]) == {"ifdfm", "ifdfm_wo_add"}
        for name in ("pretrain_seed0.ckpt", "ifdfm_seed0.ckpt",
                     "ifdfm_wo_add_seed0.ckpt", "retrain_online_seed0.ckpt",
                     "online_report.json", "online_metrics.csv"):
            assert (tmp_path / name).exists()
        timings = seed_block["timings"]
        assert "update_ifdfm_s" in timings
        assert "train_retrain_online_s" in timings
        for method in ("ifdfm", "ifdfm_wo_add"):
            assert timings[f"update_{method}_residual_rel"] >= 0.0

    def test_update_variants_differ_when_arrivals_exist(self):
        report = harness.run_online(_tiny_config())
        seed_block = report["per_seed"][0]
        assert seed_block["methods"]["ifdfm"] != (
            seed_block["methods"]["ifdfm_wo_add"]
        )

    def test_one_operator_build_per_seed(self, operator_builds):
        harness.run_online(_tiny_config(seeds=(0, 1)))
        assert len(operator_builds) == 2

    @pytest.mark.parametrize("solver, solver_config", [
        ("cg", solvers.SolverConfig(tol_rel_residual=1e-8)),
        ("neumann", solvers.SolverConfig(tol_rel_residual=1e-6)),
        ("sq", solvers.SolverConfig(tol_rel_residual=0.1, max_epochs=20,
                                    learning_rate=0.05)),
    ], ids=["cg", "neumann", "sq"])
    def test_shared_system_gives_the_one_shot_updates(self, tmp_path, solver,
                                                      solver_config):
        # Both online updates solve on one system; each must equal its own
        # delta_total, bit for bit.
        config = _tiny_config(output_dir=str(tmp_path), solver=solver,
                              solver_config=solver_config)
        harness.run_online(config)
        _, pretrain = models.load_checkpoint(str(tmp_path
                                                 / "pretrain_seed0.ckpt"))
        dataset = data.generate_synthetic(config.data)
        splits = data.window_split(dataset, config.t, config.t_prime,
                                   config.d_test)
        for method, include_add in (("ifdfm", True), ("ifdfm_wo_add", False)):
            request = influence.InfluenceRequest.for_window(
                splits.core, dataset, config.t, config.t_prime, include_add,
                solver=solver, solver_config=solver_config,
                damping=config.damping,
            )
            one_shot = influence.apply_update(pretrain, influence.delta_total(
                config.model, pretrain, splits.core,
                data.Observed(config.t), request,
            ))
            _, shared = models.load_checkpoint(
                str(tmp_path / f"{method}_seed0.ckpt"))
            assert shared.tobytes() == one_shot.tobytes(), method


@pytest.mark.parametrize("protocol", ["offline", "online"])
def test_metrics_csv_rows_match_the_report(tmp_path, protocol):
    config = _tiny_config(output_dir=str(tmp_path), seeds=(0, 1))
    report = getattr(harness, f"run_{protocol}")(config)
    with open(tmp_path / f"{protocol}_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    blocks = [(str(s["seed"]), s) for s in report["per_seed"]]
    blocks.append(("mean", report["aggregate"]["mean"]))
    expected = [(label, method, block) for label, block in blocks
                for method in block["methods"]]
    assert [(r["seed"], r["method"]) for r in rows] == [
        (label, method) for label, method, _ in expected
    ]
    blank_ri = 0
    assert list(rows[0]) == [
        "protocol", "seed", "method", "auc", "prauc", "log_loss", "ri_auc",
        "ri_prauc", "ri_log_loss"]
    for row, (_, method, block) in zip(rows, expected):
        assert row["protocol"] == protocol
        for k in ("auc", "prauc", "log_loss"):
            assert float(row[k]) == block["methods"][method][k]
            ri = block["ri"].get(method, {}).get(k)
            if ri is None:
                assert row[f"ri_{k}"] == ""
                blank_ri += 1
            else:
                assert float(row[f"ri_{k}"]) == ri
    # The two reference methods have no RI, in every seed and the mean.
    assert blank_ri >= 2 * 3 * len(blocks)


class TestTiming:
    def test_per_size_rows_and_csv(self, tmp_path):
        config = _tiny_config(
            output_dir=str(tmp_path), timing_sizes=(1500, 3000)
        )
        report = harness.run_timing(config)
        assert report["protocol"] == "timing"
        assert [row["n"] for row in report["per_size"]] == [1500, 3000]
        for row in report["per_size"]:
            assert row["train_vanilla_s"] > 0.0
            assert row["train_retrain_s"] > 0.0
            assert row["update_s"] > 0.0
            np.testing.assert_allclose(
                row["update_over_train"],
                row["update_s"] / row["train_vanilla_s"],
            )
        assert len(report["ratios"]) == 2
        assert (tmp_path / "timing.csv").exists()
        assert (tmp_path / "timing_report.json").exists()

    def test_requires_synthetic_data(self, tmp_path):
        config = _tiny_config(data=str(tmp_path / "clicks.csv"))
        with pytest.raises(ConfigError, match="synthetic"):
            harness.run_timing(config)


class TestCompareSolvers:
    def test_all_solvers_reported_with_traces(self, tmp_path,
                                              operator_builds):
        config = _tiny_config(output_dir=str(tmp_path), solver_config=None)
        report = harness.compare_solvers(config)
        # Every kind solves on the one system's operator.
        assert len(operator_builds) == 1
        assert set(report["solvers"]) == {"cg", "neumann", "sq"}
        for kind, summary in report["solvers"].items():
            assert "error" not in summary, (kind, summary)
            assert summary["residual_rel"] >= 0.0
            assert summary["iterations"] >= 1
        assert report["solvers"]["cg"]["converged"]
        trace_path = tmp_path / "solver_traces.csv"
        assert trace_path.exists()
        content = trace_path.read_text().splitlines()
        assert content[0] == "solver,step,rel_residual"
        solvers_seen = {line.split(",")[0] for line in content[1:]}
        assert solvers_seen == {"cg", "neumann", "sq"}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_diverged_kind_is_reported_and_the_rest_still_run(
        self, tmp_path
    ):
        # Only sq reads the learning rate; at 1e300 its first epoch
        # overflows.
        config = _tiny_config(
            output_dir=str(tmp_path),
            solver_config=solvers.SolverConfig(learning_rate=1e300))
        report = harness.compare_solvers(config)
        assert report["solvers"]["sq"] == {
            "error": "stochastic quadratic solve diverged at epoch 1; "
                     "lower the learning rate"}
        for kind in ("cg", "neumann"):
            assert report["solvers"][kind]["converged"], kind
        content = (tmp_path / "solver_traces.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in content[1:]} == {
            "cg", "neumann"}


def _write_csv(tmp_path, n=3000, seed=0):
    path = str(tmp_path / "clicks.csv")
    code = cli.main([
        "generate", "--n", str(n), "--feature-dim", "4",
        "--target-cvr", "0.2227", "--delay-mean-tau", str(2 * DAY),
        "--horizon", str(12 * DAY), "--drift-angle-per-day", "0.1",
        "--seed", str(seed), "--out", path,
    ])
    assert code == 0
    return path


class TestCliPipeline:
    def test_generate_train_update_evaluate(self, tmp_path, capsys):
        csv_path = _write_csv(tmp_path)
        ckpt = str(tmp_path / "vanilla.ckpt")
        code = cli.main([
            "train", "--data", csv_path, "--method", "vanilla",
            "--t", str(8 * DAY), "--t-prime", str(11 * DAY),
            "--d-test", str(DAY), "--model", "logreg",
            "--l2-coeff", "1e-2", "--batch-size", "512",
            "--learning-rate", "5e-3", "--max-epochs", "8",
            "--patience", "8", "--seed", "0", "--out", ckpt,
            "--metrics-log", str(tmp_path / "train_log.csv"),
        ])
        assert code == 0
        assert os.path.exists(ckpt)
        assert os.path.exists(tmp_path / "train_log.csv")

        updated = str(tmp_path / "updated.ckpt")
        report_path = str(tmp_path / "update.json")
        code = cli.main([
            "update", "--checkpoint", ckpt, "--data", csv_path,
            "--t", str(8 * DAY), "--t-prime", str(11 * DAY),
            "--solver", "cg", "--damping", "1e-2", "--tol", "1e-8",
            "--include-add", "--out", updated, "--report", report_path,
        ])
        assert code == 0
        capsys.readouterr()
        with open(report_path) as fh:
            update_report = json.load(fh)
        assert update_report["residual_rel"] <= 1e-8
        assert update_report["delta_norm"] > 0.0

        code = cli.main([
            "evaluate", "--checkpoint", updated, "--data", csv_path,
            "--t-prime", str(11 * DAY), "--d-test", str(DAY),
            "--report", str(tmp_path / "eval.json"),
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"auc", "prauc", "log_loss"}
        assert 0.0 <= printed["auc"] <= 1.0

    def test_update_report_holds_the_solve_of_delta_total(self, tmp_path,
                                                          capsys):
        csv_path = _write_csv(tmp_path)
        spec = models.LogisticRegression(input_dim=4, l2_coeff=1e-2)
        theta = 0.1 * np.random.default_rng(0).standard_normal(5)
        ckpt = str(tmp_path / "model.ckpt")
        models.save_checkpoint(ckpt, spec, theta)
        report_path = tmp_path / "update.json"
        code = cli.main([
            "update", "--checkpoint", ckpt, "--data", csv_path,
            "--t", str(8 * DAY), "--t-prime", str(11 * DAY),
            "--solver", "cg", "--damping", "1e-2", "--tol", "1e-8",
            "--include-add", "--out", str(tmp_path / "updated.ckpt"),
            "--report", str(report_path),
        ])
        assert code == 0
        capsys.readouterr()
        written = json.loads(report_path.read_text())
        assert set(written) == {"delta_norm", "residual_rel",
                                "solver_iterations", "wall_time_s"}

        log = dfcvr.load_csv(csv_path)
        core = log.subset(np.flatnonzero(log.click_ts < 8 * DAY))
        result = dfcvr.delta_total(
            spec, theta, core, dfcvr.Observed(8 * DAY),
            dfcvr.InfluenceRequest(
                reversal_indices=dfcvr.reversal_set(core, 8 * DAY, 11 * DAY),
                arrivals=dfcvr.arrival_set(log, 8 * DAY, 11 * DAY),
                include_add=True, solver="cg",
                solver_config=solvers.SolverConfig(tol_rel_residual=1e-8),
                damping=1e-2,
            ),
        )
        assert written["residual_rel"] == result.residual_rel
        assert written["solver_iterations"] == result.iterations
        assert written["delta_norm"] == float(np.linalg.norm(result.delta))

    def test_offline_protocol_via_config_file(self, tmp_path, capsys):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump(_tiny_config().to_json_dict(), fh)
        out_dir = str(tmp_path / "out")
        code = cli.main([
            "offline", "--config", config_path, "--out-dir", out_dir,
            "--methods", "vanilla,retrain", "--seeds", "0,1",
        ])
        assert code == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "offline_report.json")) as fh:
            report = json.load(fh)
        assert [s["seed"] for s in report["per_seed"]] == [0, 1]
        assert set(report["per_seed"][0]["methods"]) == {"vanilla", "retrain"}

    def test_module_entry_point_subprocess(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dfcvr.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_compare_solvers_via_cli(self, tmp_path, capsys):
        raw = _tiny_config().to_json_dict()
        raw["solver_config"] = None
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        code = cli.main([
            "compare-solvers", "--config", config_path,
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "solver_traces.csv").exists()


def _bad_input_argv(case, tmp_path):
    """CLI arguments for one bad-input case, with its files written."""
    csv_path = _write_csv(tmp_path, n=300)
    ckpt = str(tmp_path / "model.ckpt")
    spec = models.LogisticRegression(
        input_dim=3 if case.endswith("dim_mismatch") else 4
    )
    params = np.zeros(models.num_params(spec))
    if case.endswith("nan_checkpoint"):
        params[0] = np.nan
    models.save_checkpoint(ckpt, spec, params)
    if case.endswith("truncated_checkpoint"):
        with open(ckpt, "r+b") as fh:
            fh.truncate(6)
    if case.endswith("cut_in_payload"):
        # Mid-float: the payload length is no multiple of 8.
        with open(ckpt, "r+b") as fh:
            fh.truncate(os.path.getsize(ckpt) - 3)
    if case.endswith("without_input_dim"):
        # A renamed key keeps the header's length.
        with open(ckpt, "r+b") as fh:
            blob = fh.read().replace(b'"input_dim"', b'"input_dxm"')
            fh.seek(0)
            fh.write(blob)
    big_csv = tmp_path / "big.csv"
    big_csv.write_text("click_ts,pay_ts,f0\n99999999999999999999,-1,0.25\n")
    latin_csv = tmp_path / "latin.csv"
    latin_csv.write_bytes(b"click_ts,pay_ts,f0\n5,-1,0.25\xff\n")
    # One field longer than the csv module's limit of 131,072 characters.
    long_field_csv = tmp_path / "long_field.csv"
    long_field_csv.write_text(
        "click_ts,pay_ts,f0\n5,-1," + "1" * 200_000 + "\n")
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("")
    misnamed_csv = tmp_path / "misnamed.csv"
    misnamed_csv.write_text("click_ts,pay_ts,a,b\n5,-1,0.25,0.5\n")
    negative_click_csv = tmp_path / "negative_click.csv"
    negative_click_csv.write_text("click_ts,pay_ts,f0\n-5,-1,0.25\n")
    # 200 clicks, none converted: AUC is undefined on any window.
    one_class_csv = tmp_path / "one_class.csv"
    one_class_csv.write_text("click_ts,pay_ts,f0,f1,f2,f3\n" + "".join(
        f"{5 * i},-1,0.5,0.25,-0.5,1.0\n" for i in range(200)))
    config = str(tmp_path / "config.json")
    with open(config, "w") as fh:
        hidden_dims = [] if case.endswith("without_widths_config") else [0]
        json.dump({"data": csv_path, "t": 8 * DAY, "t_prime": 11 * DAY,
                   "d_test": DAY,
                   "model": {"input_dim": 4, "hidden_dims": hidden_dims}},
                  fh)
    # A config that runs, for the unwritable --out-dir cases, and the same
    # config with a NaN damping.
    logreg = {"data": csv_path, "t": 8 * DAY, "t_prime": 11 * DAY,
              "d_test": DAY, "model": {"kind": "logreg", "input_dim": 4},
              "train": {"max_epochs": 1}, "methods": ["vanilla"]}
    logreg_config = str(tmp_path / "logreg.json")
    nan_damping_config = str(tmp_path / "nan_damping.json")
    for path, raw in ((logreg_config, logreg),
                      (nan_damping_config, {**logreg, "damping": np.nan})):
        with open(path, "w") as fh:
            json.dump(raw, fh)
    if case in _WRONG_KIND_CONFIG:
        (tmp_path / "wrong_kind.json").write_text(
            json.dumps({**logreg, **_WRONG_KIND_CONFIG[case][0]}))
        return ["offline", "--config", str(tmp_path / "wrong_kind.json")]
    if case in _MALFORMED_CONFIG:
        (tmp_path / "malformed.json").write_text(
            json.dumps(_MALFORMED_CONFIG[case][0](logreg)))
        return ["offline", "--config", str(tmp_path / "malformed.json")]
    cnn_config = tmp_path / "cnn.json"
    cnn_config.write_text(json.dumps(
        {**logreg, "model": {"kind": "cnn", "input_dim": 4}}))
    # A size past int64 in a config's synthetic log and in its model.
    huge = 99999999999999999999
    huge_n_config = tmp_path / "huge_n.json"
    huge_n_config.write_text(json.dumps({**logreg, "data": {
        "n": huge, "feature_dim": 4, "target_cvr": 0.2,
        "delay_mean_tau": 1000.0, "horizon": 12 * DAY}}))
    huge_width_config = tmp_path / "huge_width.json"
    huge_width_config.write_text(json.dumps(
        {**logreg, "model": {"input_dim": 4, "hidden_dims": [huge]}}))
    for name in ("vanilla_seed0.ckpt", "offline_report.json"):
        (tmp_path / name / name).mkdir(parents=True)
    missing = tmp_path / "missing"
    windows = ["--t", str(8 * DAY), "--t-prime", str(11 * DAY)]
    train = ["train", "--data", csv_path, *windows, "--d-test", str(DAY),
             "--out", str(tmp_path / "x.ckpt")]
    evaluate = ["evaluate", "--checkpoint", ckpt, "--data", csv_path,
                "--t-prime", str(11 * DAY), "--d-test", str(DAY)]
    update = ["update", "--checkpoint", ckpt, "--data", csv_path, *windows,
              "--out", str(tmp_path / "u.ckpt")]
    generate = ["generate", "--n", "10", "--feature-dim", "2",
                "--target-cvr", "0.2", "--delay-mean-tau", "10",
                "--horizon", "100", "--out", str(tmp_path / "g.csv")]
    return {
        "train_missing_csv": [
            "train", "--data", str(tmp_path / "missing.csv"), *windows,
            "--d-test", str(DAY), "--out", str(tmp_path / "x.ckpt"),
        ],
        "evaluate_missing_checkpoint": [
            "evaluate", "--checkpoint", str(tmp_path / "nope.ckpt"),
            *evaluate[3:],
        ],
        "evaluate_truncated_checkpoint": evaluate,
        "evaluate_checkpoint_cut_in_payload": evaluate,
        "evaluate_dim_mismatch": evaluate,
        "update_dim_mismatch": update,
        "evaluate_nan_checkpoint": evaluate,
        "update_negative_damping": [*update, "--damping=-1"],
        "update_sq_zero_minibatch": [
            *update, "--solver", "sq", "--solver-minibatch", "0"],
        "update_sq_zero_learning_rate": [
            *update, "--solver", "sq", "--solver-learning-rate", "0"],
        "update_neumann_zero_terms": [
            *update, "--solver", "neumann", "--solver-max-iters", "0"],
        "update_nan_damping": [*update, "--damping", "nan"],
        "update_inf_damping": [*update, "--damping", "inf"],
        "update_nan_tol": [*update, "--tol", "nan"],
        "update_train_end_zero": [*update, "--train-end", "0"],
        "update_train_end_beyond_t": [*update, "--train-end", str(9 * DAY)],
        "update_no_clicks_before_train_end": [*update, "--train-end", "1"],
        "update_sq_nan_learning_rate": [
            *update, "--solver", "sq", "--solver-learning-rate", "nan"],
        "train_nan_learning_rate": [*train, "--learning-rate", "nan"],
        "train_seed_beyond_32_bits": [*train, "--seed", str(2**64)],
        "generate_seed_beyond_32_bits": [*generate, "--seed", str(2**128)],
        "generate_nan_delay": [*generate, "--delay-mean-tau", "nan"],
        "generate_nan_drift": [*generate, "--drift-angle-per-day", "nan"],
        "generate_horizon_beyond_int64": [
            *generate, "--horizon", "99999999999999999999"],
        "generate_pay_ts_beyond_int64": [
            *generate, "--delay-mean-tau", "1e30"],
        "generate_n_beyond_int64": [*generate, "--n", str(huge)],
        "generate_feature_dim_beyond_int64": [
            *generate, "--feature-dim", str(huge)],
        "generate_features_beyond_intp": [*generate, "--n", str(2**62)],
        "train_width_beyond_int64": [
            *train, "--model", "mlp", "--hidden-dims", str(huge)],
        "train_parameters_beyond_intp": [
            *train, "--model", "mlp", "--hidden-dims", str(2**62)],
        "offline_n_beyond_int64_config": [
            "offline", "--config", str(huge_n_config)],
        "offline_width_beyond_int64_config": [
            "offline", "--config", str(huge_width_config)],
        "evaluate_zero_d_test": [*evaluate[:-1], "0"],
        "evaluate_negative_d_test": [*evaluate[:-1], "-5"],
        "offline_nan_damping_config": [
            "offline", "--config", nan_damping_config],
        "train_negative_width": [*train, "--hidden-dims=-5"],
        "train_zero_width": [*train, "--hidden-dims", "0"],
        "offline_zero_width_config": ["offline", "--config", config],
        "offline_mlp_without_widths_config": ["offline", "--config", config],
        "train_csv_timestamp_beyond_int64": [
            "train", "--data", str(big_csv), *train[3:]],
        "train_csv_not_utf8": [
            "train", "--data", str(latin_csv), *train[3:]],
        "train_empty_csv": ["train", "--data", str(empty_csv), *train[3:]],
        "train_csv_misnamed_features": [
            "train", "--data", str(misnamed_csv), *train[3:]],
        "train_csv_negative_click": [
            "train", "--data", str(negative_click_csv), *train[3:]],
        "offline_unknown_model_kind_config": [
            "offline", "--config", str(cnn_config)],
        "evaluate_checkpoint_without_input_dim": evaluate,
        "offline_bad_seeds": [
            "offline", "--config", logreg_config, "--seeds", "1,x"],
        "train_negative_l2_coeff": [
            *train, "--model", "logreg", "--l2-coeff=-5"],
        "train_mlp_without_widths": [
            *train, "--model", "mlp", "--hidden-dims", ""],
        "evaluate_csv_field_beyond_limit": [
            "evaluate", "--checkpoint", ckpt, "--data", str(long_field_csv),
            *evaluate[5:]],
        "evaluate_one_class_window": [
            "evaluate", "--checkpoint", ckpt, "--data", str(one_class_csv),
            "--t-prime", "600", "--d-test", "300"],
        "generate_out_in_missing_dir": [
            "generate", "--n", "10", "--feature-dim", "2", "--target-cvr",
            "0.2", "--delay-mean-tau", "10", "--horizon", "100",
            "--out", str(missing / "x.csv")],
        "train_out_in_missing_dir": [*train[:-1], str(missing / "x.ckpt")],
        "train_metrics_log_in_missing_dir": [
            *train, "--metrics-log", str(missing / "log.csv")],
        "update_out_in_missing_dir": [*update[:-1], str(missing / "u.ckpt")],
        "update_report_in_missing_dir": [
            *update, "--report", str(missing / "u.json")],
        "evaluate_report_in_missing_dir": [
            *evaluate, "--report", str(missing / "e.json")],
        "offline_out_dir_is_a_file": [
            "offline", "--config", logreg_config, "--out-dir", csv_path],
        "offline_checkpoint_is_a_directory": [
            "offline", "--config", logreg_config,
            "--out-dir", str(tmp_path / "vanilla_seed0.ckpt")],
        "offline_report_is_a_directory": [
            "offline", "--config", logreg_config,
            "--out-dir", str(tmp_path / "offline_report.json")],
    }[case]


# Bad-input cases that set a number out of its range, NaN and inf
# included, and the field the error must name.
_OUT_OF_RANGE_SETTING = {
    "update_nan_damping": "damping",
    "update_inf_damping": "damping",
    "update_nan_tol": "tol_rel_residual",
    "update_sq_nan_learning_rate": "learning_rate",
    "train_nan_learning_rate": "learning_rate",
    "generate_nan_delay": "delay_mean_tau",
    "generate_nan_drift": "drift_angle_per_day",
    "offline_nan_damping_config": "damping",
    "train_seed_beyond_32_bits": "seed",
    "generate_seed_beyond_32_bits": "seed",
    "generate_horizon_beyond_int64": "horizon",
    "generate_n_beyond_int64": "n",
    "generate_feature_dim_beyond_int64": "feature_dim",
    "train_width_beyond_int64": "hidden_dims",
    "offline_n_beyond_int64_config": "n",
    "offline_width_beyond_int64_config": "hidden_dims",
    "evaluate_zero_d_test": "d_test",
    "evaluate_negative_d_test": "d_test",
}


# Bad-input cases whose one-line error must hold these words.
_MESSAGE = {
    "train_empty_csv": "empty.csv:1: file is empty",
    "train_csv_misnamed_features":
        "misnamed.csv:1: feature columns must be named f0..f1",
    "train_csv_negative_click":
        "negative_click.csv:2: click_ts must be non-negative",
    "offline_unknown_model_kind_config": "unknown model kind 'cnn'",
    "evaluate_checkpoint_without_input_dim": "bad model header",
    "offline_bad_seeds": "bad seeds list: '1,x'",
    "generate_pay_ts_beyond_int64":
        "delay_mean_tau 1e+30 puts payment times past the int64 range",
    # Sizes below int64 whose float64 arrays numpy still cannot size.
    "generate_features_beyond_intp":
        "n * feature_dim must be finite and addressable as float64",
    "train_parameters_beyond_intp": "the parameter count of input_dim and "
        "hidden_dims must be finite and addressable as float64",
}


# Bad-input cases for the update's training window, and their messages.
_TRAIN_END = {
    "update_train_end_zero": "error: train-end must lie in (0, t]",
    "update_train_end_beyond_t": "error: train-end must lie in (0, t]",
    "update_no_clicks_before_train_end": "error: no samples before train-end",
}


# Bad-input cases that give a config setting a value of the wrong JSON
# kind, as the keys they override, and the field the error must name. An
# integer setting takes only an integer and a number setting an integer or
# a float; neither takes a boolean or a string, and a tuple needs a list.
_WRONG_KIND_CONFIG = {
    "offline_fractional_t_config": ({"t": 8 * DAY + 0.9}, "t"),
    "offline_fractional_seed_config": ({"seeds": [0.9]}, "seeds"),
    "offline_fractional_width_config": (
        {"model": {"input_dim": 4, "hidden_dims": [4.7]}}, "hidden_dims"),
    "offline_logreg_string_widths_config": (
        {"model": {"kind": "logreg", "input_dim": 4, "hidden_dims": "abc"}},
        "hidden_dims"),
    "offline_logreg_fractional_width_config": (
        {"model": {"kind": "logreg", "input_dim": 4, "hidden_dims": [4.7]}},
        "hidden_dims"),
    "offline_fractional_epochs_config": (
        {"train": {"max_epochs": 2.5}}, "train.max_epochs"),
    "offline_boolean_damping_config": ({"damping": True}, "damping"),
    "offline_string_damping_config": ({"damping": "0.02"}, "damping"),
    "offline_string_methods_config": ({"methods": "ifdfm"}, "methods"),
    # A block that is not an object, rather than read key by key.
    "offline_list_train_config": ({"train": []}, "train"),
    "offline_list_solver_config_config": (
        {"solver_config": []}, "solver_config"),
    "offline_string_solver_config_config": (
        {"solver_config": "x"}, "solver_config"),
    "offline_list_data_config": ({"data": []}, "data"),
}



def _without(raw, key):
    return {k: v for k, v in raw.items() if k != key}


# Bad-input configs, as a function of a config that runs, that leave out a
# key without a default or are not an object, and their whole error.
_MALFORMED_CONFIG = {
    "offline_config_without_t": (
        lambda raw: _without(raw, "t"), "missing config keys: t"),
    "offline_config_without_data": (
        lambda raw: _without(raw, "data"), "missing config keys: data"),
    "offline_data_without_n_config": (
        lambda raw: {**raw, "data": {
            "feature_dim": 4, "target_cvr": 0.2, "delay_mean_tau": 1000.0,
            "horizon": 12 * DAY}},
        "missing data keys: n"),
    "offline_list_config": (
        lambda raw: [1, 2], "config must be an object, got [1, 2]"),
    "offline_list_model_config": (
        lambda raw: {**raw, "model": [1]}, "model must be an object, got [1]"),
}


class TestCliExitCodes:
    @pytest.mark.parametrize("case", [
        "train_missing_csv", "evaluate_missing_checkpoint",
        "evaluate_truncated_checkpoint",
        "evaluate_checkpoint_cut_in_payload", "evaluate_dim_mismatch",
        "update_dim_mismatch", "evaluate_nan_checkpoint",
        "update_negative_damping", "update_sq_zero_minibatch",
        "update_sq_zero_learning_rate", "update_neumann_zero_terms",
        "train_negative_width",
        "train_zero_width", "offline_zero_width_config",
        "offline_mlp_without_widths_config",
        "train_csv_timestamp_beyond_int64", "train_negative_l2_coeff",
        "train_mlp_without_widths", "train_csv_not_utf8",
        "evaluate_csv_field_beyond_limit",
        "evaluate_one_class_window", "generate_out_in_missing_dir",
        "train_out_in_missing_dir", "train_metrics_log_in_missing_dir",
        "update_out_in_missing_dir", "update_report_in_missing_dir",
        "evaluate_report_in_missing_dir", "offline_out_dir_is_a_file",
        "offline_checkpoint_is_a_directory", "offline_report_is_a_directory",
        *_OUT_OF_RANGE_SETTING, *_WRONG_KIND_CONFIG, *_MALFORMED_CONFIG,
        *_TRAIN_END, *_MESSAGE,
    ])
    def test_bad_input_file_is_one_without_traceback(
        self, tmp_path, capsys, case
    ):
        argv = _bad_input_argv(case, tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("dfcvr: error")
        assert "Traceback" not in err
        if "missing_dir" in case or "_is_a_" in case:
            assert ": cannot write: " in err
        if case in _OUT_OF_RANGE_SETTING:
            assert f"{_OUT_OF_RANGE_SETTING[case]} must be finite" in err
        if case in _WRONG_KIND_CONFIG:
            assert f"error: {_WRONG_KIND_CONFIG[case][1]} must be " in err
        if case == "evaluate_csv_field_beyond_limit":
            assert err == (f"dfcvr: error: {tmp_path / 'long_field.csv'}:2: "
                           "field larger than field limit (131072)\n")
        if case in _TRAIN_END:
            assert err == f"dfcvr: {_TRAIN_END[case]}\n"
        if case in _MALFORMED_CONFIG:
            assert err == f"dfcvr: error: {_MALFORMED_CONFIG[case][1]}\n"
        if case in _MESSAGE:
            assert _MESSAGE[case] in err

    @pytest.mark.parametrize("protocol", ["offline", "online",
                                          "compare-solvers"])
    def test_missing_csv_in_a_config_fails_in_stage_data(
        self, tmp_path, capsys, protocol
    ):
        missing = str(tmp_path / "missing.csv")
        config = _tiny_config(
            data=missing, model=models.LogisticRegression(input_dim=4))
        run = {"offline": harness.run_offline, "online": harness.run_online,
               "compare-solvers": harness.compare_solvers}[protocol]
        with pytest.raises(DataFormatError) as info:
            run(config)
        assert info.value.stage == "data"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json_dict()))
        capsys.readouterr()
        assert cli.main([protocol, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"dfcvr: error in stage 'data': {missing}: cannot read: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["generate", "offline"])
    def test_an_allocation_the_host_refuses_is_one(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # What numpy raises for a log that passes every size check but not
        # the host's memory, without allocating it here.
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000000000,) and data type int64")

        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        monkeypatch.setattr(harness, "generate_synthetic", refuse)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_tiny_config().to_json_dict()))
        argv = {"generate": [
                    "generate", "--n", "1000000000000", "--feature-dim", "2",
                    "--target-cvr", "0.2", "--delay-mean-tau", "10",
                    "--horizon", "100", "--out", str(tmp_path / "huge.csv")],
                "offline": ["offline", "--config", str(path)]}[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        # A protocol names the stage that asked, as for its other errors.
        prefix = {"generate": "dfcvr: error: ",
                  "offline": "dfcvr: error in stage 'data': "}[command]
        assert capsys.readouterr().err == f"{prefix}{message}\n"
        assert not (tmp_path / "huge.csv").exists()

    def test_solver_choices_are_the_registry(self, capsys):
        choices = "--solver {" + ",".join(solvers.SOLVERS) + "}"
        assert cli.main(["update", "--help"]) == 0
        out = capsys.readouterr().out
        assert choices in out
        assert "--neumann" not in out

    def test_protocols_take_only_the_config_and_its_overrides(self):
        commands = next(
            action.choices for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        # Only offline reads the config's methods; the other protocols run
        # a fixed set.
        for command in ("offline", "online", "timing", "compare-solvers"):
            flags = {flag for action in commands[command]._actions
                     for flag in action.option_strings}
            methods = {"--methods"} if command == "offline" else set()
            assert flags == {"-h", "--help", "--config", "--out-dir",
                             "--seeds", *methods}, command

    @pytest.mark.parametrize("flags", [
        ["update", "--checkpoint", "c", "--data", "d", "--t", "1",
         "--t-prime", "2", "--out", "o", "--neumann-scale", "0.5"],
        ["offline", "--config", "config.json", "--n", "100"],
        ["online", "--config", "config.json", "--methods", "ifdfm"],
    ], ids=["update_neumann_scale", "offline_n", "online_methods"])
    def test_removed_flags_are_usage_errors(self, capsys, flags):
        assert cli.main(flags) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_error_is_one(self, capsys):
        assert cli.main(["generate", "--n", "10"]) == 1
        assert cli.main(["bogus"]) == 1
        capsys.readouterr()

    def test_missing_config_is_one(self, tmp_path, capsys):
        code = cli.main([
            "offline", "--config", str(tmp_path / "nope.json"),
        ])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["offline", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_bad_data_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("click_ts,pay_ts,f0\n1,0,abc\n")
        code = cli.main([
            "train", "--data", str(path), "--t", str(8 * DAY),
            "--t-prime", str(11 * DAY), "--d-test", str(DAY),
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_train_l2_coeff_in_a_config_is_one(self, tmp_path, capsys):
        raw = _tiny_config().to_json_dict()
        raw["train"]["l2_coeff"] = 1e-3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["offline", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dfcvr: error: ")
        assert "unknown train keys: l2_coeff" in err

    def test_neumann_setting_in_a_config_is_one(self, tmp_path, capsys):
        raw = _tiny_config().to_json_dict()
        raw["solver_config"]["neumann_scale"] = 0.5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["compare-solvers", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dfcvr: error: ")
        assert "unknown solver_config keys: neumann_scale" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_training_is_two(self, tmp_path, capsys):
        csv_path = _write_csv(tmp_path)
        code = cli.main([
            "train", "--data", csv_path, "--t", str(8 * DAY),
            "--t-prime", str(11 * DAY), "--d-test", str(DAY),
            "--model", "logreg", "--l2-coeff", "1e-2",
            "--learning-rate", "1e300", "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert "training diverged" in capsys.readouterr().err

    def test_unconverged_update_is_two(self, tmp_path, capsys):
        csv_path = _write_csv(tmp_path)
        ckpt = str(tmp_path / "vanilla.ckpt")
        assert cli.main([
            "train", "--data", csv_path, "--t", str(8 * DAY),
            "--t-prime", str(11 * DAY), "--d-test", str(DAY),
            "--model", "logreg", "--l2-coeff", "1e-2",
            "--max-epochs", "3", "--patience", "3", "--out", ckpt,
        ]) == 0
        code = cli.main([
            "update", "--checkpoint", ckpt, "--data", csv_path,
            "--t", str(8 * DAY), "--t-prime", str(11 * DAY),
            "--solver", "sq", "--damping", "1e-2",
            "--tol", "1e-14", "--solver-max-epochs", "1",
            "--solver-learning-rate", "1e-9",
            "--out", str(tmp_path / "u.ckpt"),
        ])
        assert code == 2
        assert "residual" in capsys.readouterr().err


def test_every_exported_name_resolves():
    for name in dfcvr.__all__:
        assert getattr(dfcvr, name) is not None, name

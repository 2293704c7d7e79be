"""The three workloads. Each is a closed loop: one caller, one op at a time.

Every workload starts from the acceptance fixture (a 50k-click synthetic
log with d=20, t=8d, t'=11d and one test day; an MLP 64-64 with l2=1e-2
trained for 30 epochs at batch 1024; damping 2e-2). The fixture's data
and training seed (``fixture_seed``, 0 by default) pick the problem. The
workload seed only changes inputs that leave the work the same:

- ``update_cg``: a permutation of the training rows handed to the solve;
- ``cli_files``: the minibatch-order seed of the logistic checkpoint
  that ``dfcvr update`` corrects; the model is convex, so every
  checkpoint solves in the same 4 cg iterations;
- ``online``: nothing. Its only input is the protocol config, and every
  seed in it (data, training, sq minibatch order) changes the number of
  sq epochs, by up to twice, or makes the update fail.

``setup`` may run several times; ``op`` is the timed call; ``check``
runs outside the timed region and raises ``CheckError`` on a wrong
output; ``summary`` computes the quality figures once after the loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from dfcvr import cli, data, harness, influence, metrics, models, solvers
from dfcvr import training

DAY = data.SECONDS_PER_DAY
T, T_PRIME, D_TEST, HORIZON = 8 * DAY, 11 * DAY, DAY, 12 * DAY


class CheckError(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Scale:
    """Problem size; the benchmark runs at the default, the test smaller."""

    n: int = 50_000
    feature_dim: int = 20
    hidden_dims: tuple[int, ...] = (64, 64)
    max_epochs: int = 30
    damping: float = 2e-2
    sq_tol: float = 0.35


FULL = Scale()


def _synthetic(scale: Scale, seed: int) -> data.SyntheticConfig:
    return data.SyntheticConfig(
        n=scale.n, feature_dim=scale.feature_dim, target_cvr=0.2227,
        delay_mean_tau=2 * DAY, horizon=HORIZON, drift_angle_per_day=0.1,
        seed=seed,
    )


def _fixture(scale: Scale, fixture_seed: int,
             output_dir: str | None) -> harness.ExperimentConfig:
    """The acceptance fixture with the README's sq settings."""
    return harness.ExperimentConfig(
        data=_synthetic(scale, fixture_seed),
        t=T, t_prime=T_PRIME, d_test=D_TEST,
        model=models.Mlp(input_dim=scale.feature_dim,
                         hidden_dims=scale.hidden_dims, l2_coeff=1e-2),
        train=training.TrainConfig(
            batch_size=1024, learning_rate=1e-3, max_epochs=scale.max_epochs,
            early_stop_patience=scale.max_epochs, seed=fixture_seed),
        seeds=(fixture_seed,),
        solver="sq",
        solver_config=solvers.SolverConfig(
            tol_rel_residual=scale.sq_tol, max_epochs=10, minibatch_size=2048,
            learning_rate=0.02, seed=0),
        damping=scale.damping,
        output_dir=output_dir,
    )


def _core_split(log: data.Dataset):
    """(core, fit_valid, test): the training window without its last day,
    that day for early stopping, and the test day."""
    train_full, _, test = data.temporal_split(log, T, T_PRIME, D_TEST)
    border = T - D_TEST
    core = train_full.subset(np.flatnonzero(train_full.click_ts < border))
    fit = train_full.subset(np.flatnonzero(train_full.click_ts >= border))
    return core, fit, test


def _request(core: data.Dataset, log: data.Dataset, solver: str,
             config: solvers.SolverConfig | None,
             damping: float) -> influence.InfluenceRequest:
    return influence.InfluenceRequest(
        reversal_indices=data.reversal_set(core, T, T_PRIME),
        arrivals=data.arrival_set(log, T, T_PRIME),
        include_add=True, solver=solver, solver_config=config,
        damping=damping,
    )


def true_residual(spec, theta, core, request, delta) -> float:
    """``||b - (H + lam I) delta|| / ||b||`` with one extra HVP."""
    b = influence.build_rhs(spec, theta, core, data.Observed(T), request).b
    operator = solvers.DampedHessianOperator(
        spec, theta, core.features, data.labels_of(core, data.Observed(T)),
        lam=request.damping, hvp_batch_size=request.hvp_batch_size)
    return float(np.linalg.norm(b - operator.matvec(delta))
                 / np.linalg.norm(b))


# Figures a workload does not have read 0.
_ABSENT = {"quality.ri_auc": 0.0, "quality.update_over_train": 0.0,
           "data.csv_mb": 0.0}


def _finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise CheckError(f"{name} has non-finite entries")


class Online:
    """``harness.run_online``: pretrain, sq update with and without
    arrivals, online retrain, four evaluations."""

    name = "online"
    op_metric = "online_s"

    def __init__(self, scale: Scale, seed: int, fixture_seed: int,
                 workdir: str) -> None:
        self.config = _fixture(scale, fixture_seed, workdir)
        self.workdir = workdir
        self.reports: list[dict] = []
        self._canonical: str | None = None

    def setup(self) -> None:
        # run_online makes its own data; this is the copy the checks
        # after the loop use, and it states the input sizes.
        self.log = data.generate_synthetic(self.config.data)
        self.core, _, _ = _core_split(self.log)

    def op(self, rec):
        return harness.run_online(self.config)

    def check(self, report: dict) -> None:
        per_seed = report["per_seed"][0]
        for method in harness.ONLINE_METHODS:
            if not np.isfinite(per_seed["methods"][method]["auc"]):
                raise CheckError(f"{method} AUC is not finite")
        stripped = dict(report, per_seed=[
            {k: v for k, v in s.items() if k != "timings"}
            for s in report["per_seed"]])
        canonical = json.dumps(stripped, sort_keys=True)
        if self._canonical is None:
            self._canonical = canonical
        elif canonical != self._canonical:
            raise CheckError("report differs from the first op's")
        self.reports.append(report)

    def _checkpoint(self, method: str) -> str:
        seed = self.config.seeds[0]
        return os.path.join(self.workdir, f"{method}_seed{seed}.ckpt")

    def summary(self) -> dict:
        per_seed = self.reports[0]["per_seed"][0]
        spec, theta = models.load_checkpoint(self._checkpoint("pretrain"))
        _, updated = models.load_checkpoint(self._checkpoint("ifdfm"))
        request = _request(self.core, self.log, "sq", None,
                           self.config.damping)
        ratios = [r["per_seed"][0]["timings"] for r in self.reports]
        return {
            **_ABSENT,
            "auc_updated": per_seed["methods"]["ifdfm"]["auc"],
            "quality.residual_rel": true_residual(
                spec, theta, self.core, request, updated - theta),
            "quality.ri_auc": per_seed["ri"]["ifdfm"]["auc"],
            "quality.update_over_train": float(np.median(
                [t["update_ifdfm_s"] / t["train_pretrain_s"]
                 for t in ratios])),
        }


class UpdateCg:
    """The README quickstart's ``delta_total``: reversals plus arrivals,
    cg to 1e-4, then ``apply_update``."""

    name = "update_cg"
    op_metric = "update_s"

    def __init__(self, scale: Scale, seed: int, fixture_seed: int,
                 workdir: str) -> None:
        self.config = _fixture(scale, fixture_seed, None)
        self.seed = seed
        self._first: np.ndarray | None = None
        self.updated: np.ndarray | None = None

    def setup(self) -> None:
        cfg = self.config
        self.log = data.generate_synthetic(cfg.data)
        core, fit, self.test = _core_split(self.log)
        self.theta = training.train(core, data.Observed(T), cfg.model,
                                    cfg.train, fit)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        self.core = core.subset(rng.permutation(len(core)))
        self.request = _request(self.core, self.log, "cg",
                                solvers.SolverConfig(tol_rel_residual=1e-4),
                                cfg.damping)

    def op(self, rec):
        report = influence.delta_total(self.config.model, self.theta,
                                       self.core, data.Observed(T),
                                       self.request)
        return report, influence.apply_update(self.theta, report)

    def check(self, out) -> None:
        report, updated = out
        _finite("delta", report.delta)
        _finite("updated theta", updated)
        if self._first is None:
            self._first = report.delta
            self.updated = updated
        elif report.delta.tobytes() != self._first.tobytes():
            raise CheckError("delta differs from the first op's")

    def summary(self) -> dict:
        spec = self.config.model
        scores = models.predict(spec, self.updated, self.test.features)
        return {
            **_ABSENT,
            "auc_updated": metrics.auc(
                scores, data.labels_of(self.test, data.Oracle())),
            "quality.residual_rel": true_residual(
                spec, self.theta, self.core, self.request, self._first),
        }


class CliFiles:
    """``dfcvr generate``, ``update --solver cg --include-add`` and
    ``evaluate`` over the whole log, in-process, through files."""

    name = "cli_files"
    op_metric = "cli_s"

    def __init__(self, scale: Scale, seed: int, fixture_seed: int,
                 workdir: str) -> None:
        self.scale = scale
        self.seed = seed
        self.fixture_seed = fixture_seed
        self.workdir = workdir
        self._digest: str | None = None
        self.updated: np.ndarray | None = None

    def setup(self) -> None:
        self.log = data.generate_synthetic(
            _synthetic(self.scale, self.fixture_seed))
        core, fit, _ = _core_split(self.log)
        self.spec = models.LogisticRegression(
            input_dim=self.scale.feature_dim, l2_coeff=1e-2)
        # The trainer keys its shuffles by (seed << 32) + epoch.
        train_cfg = training.TrainConfig(seed=self.seed % 2**32)
        self.theta = training.train(core, data.Observed(T), self.spec,
                                    train_cfg, fit)
        models.save_checkpoint(self.path("base.ckpt"), self.spec, self.theta)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _commands(self) -> list[tuple[str, list[str]]]:
        p, s = self.path, self.scale
        return [
            ("cli.generate", [
                "generate", "--n", str(s.n), "--feature-dim",
                str(s.feature_dim), "--target-cvr", "0.2227",
                "--delay-mean-tau", str(2 * DAY), "--horizon", str(HORIZON),
                "--drift-angle-per-day", "0.1",
                "--seed", str(self.fixture_seed),
                "--out", p("clicks.csv")]),
            ("cli.update", [
                "update", "--checkpoint", p("base.ckpt"),
                "--data", p("clicks.csv"), "--t", str(T),
                "--t-prime", str(T_PRIME), "--solver", "cg",
                "--damping", str(s.damping), "--include-add",
                "--out", p("updated.ckpt"), "--report", p("update.json")]),
            ("cli.evaluate", [
                "evaluate", "--checkpoint", p("updated.ckpt"),
                "--data", p("clicks.csv"), "--t-prime", "0",
                "--d-test", str(HORIZON), "--report", p("evaluate.json")]),
        ]

    def op(self, rec):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for span, argv in self._commands():
                with rec.span(span):
                    codes.append(cli.main(argv))
        return codes

    def check(self, codes: list[int]) -> None:
        if codes != [0, 0, 0]:
            raise CheckError(f"exit codes {codes}, expected [0, 0, 0]")
        with open(self.path("clicks.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self._digest is None:
            # The first CSV is reloaded in full; later ones must match it
            # byte for byte.
            loaded = data.load_csv(self.path("clicks.csv"))
            for col in ("features", "click_ts", "pay_ts"):
                if not np.array_equal(getattr(loaded, col),
                                      getattr(self.log, col)):
                    raise CheckError(f"CSV reload differs in {col}")
            self._digest = digest
        elif digest != self._digest:
            raise CheckError("CSV differs from the first op's")
        spec, updated = models.load_checkpoint(self.path("updated.ckpt"))
        if spec != self.spec or updated.shape != self.theta.shape:
            raise CheckError("updated checkpoint has the wrong model")
        _finite("updated checkpoint", updated)
        self.updated = updated

    def summary(self) -> dict:
        with open(self.path("evaluate.json")) as fh:
            evaluated = json.load(fh)
        core = self.log.subset(np.flatnonzero(self.log.click_ts < T))
        request = _request(core, self.log, "cg", None, self.scale.damping)
        return {
            **_ABSENT,
            "auc_updated": evaluated["auc"],
            "quality.residual_rel": true_residual(
                self.spec, self.theta, core, request,
                self.updated - self.theta),
            "data.csv_mb": os.path.getsize(self.path("clicks.csv")) / 1e6,
        }


WORKLOADS = {w.name: w for w in (Online, UpdateCg, CliFiles)}

"""Experiment protocols: offline correction, online update, timing.

The offline protocol trains each baseline on the same pre-cutoff core
window and evaluates everything on the held-out test day with true
labels. The online protocol starts from the stale pretrained model and
applies influence updates (with and without integrating newly arrived
samples) against a full retrain reference. The timing protocol measures
update cost versus training cost across dataset sizes.

Every method validates on the last pre-cutoff day under its own label
view; :func:`dfcvr.data.window_split` says why.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import influence, metrics, models, solvers
from .data import (
    Dataset,
    Observed,
    Oracle,
    Retrain,
    SyntheticConfig,
    WindowSplit,
    arrival_set,
    baseline_view,
    generate_synthetic,
    labels_of,
    load_csv,
    reversal_set,
    window_split,
)
from .errors import ConfigError, DataFormatError, DfcvrError
from .training import TrainConfig, train

SCHEMA_VERSION = 1

VALID_METHODS = ("vanilla", "retrain", "oracle", "ifdfm", "ifdfm_wo_add")
ONLINE_METHODS = ("pretrain", "ifdfm", "ifdfm_wo_add", "retrain_online")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``data`` is either synthetic generator settings or a CSV path. ``t``
    is the training cutoff, ``t_prime`` the evaluation time, ``d_test``
    the test-window length; all in seconds, windows half-open.
    """

    data: SyntheticConfig | str
    t: int
    t_prime: int
    d_test: int
    model: models.ModelSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    methods: tuple[str, ...] = ("vanilla", "retrain", "ifdfm")
    seeds: tuple[int, ...] = (0,)
    solver: str = influence.InfluenceRequest.solver
    solver_config: solvers.SolverConfig | None = None
    damping: float = influence.InfluenceRequest.damping
    timing_sizes: tuple[int, ...] = (25_000, 50_000, 100_000)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.data, (SyntheticConfig, str)):
            raise ConfigError("data must be synthetic settings or a CSV path")
        if not self.t < self.t_prime:
            raise ConfigError("need t < t_prime")
        if self.d_test <= 0:
            raise ConfigError("d_test must be positive")
        if self.t > self.t_prime - self.d_test:
            raise ConfigError(
                "validation window [t_prime - d_test, t_prime) overlaps "
                "the training window"
            )
        if self.t <= self.d_test:
            raise ConfigError(
                "training window too short to carve a validation day"
            )
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ConfigError(
                    f"unknown method {m!r}; valid: {', '.join(VALID_METHODS)}"
                )
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.solver not in solvers.SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.damping < 0:
            raise ConfigError("damping must be non-negative")
        if not self.timing_sizes or any(s <= 0 for s in self.timing_sizes):
            raise ConfigError("timing_sizes must be positive")

    def to_json_dict(self) -> dict:
        out = _to_json(self)
        if isinstance(self.data, str):
            out["data"] = {"csv": self.data}
        return out

    @classmethod
    def from_json_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            data = _data_from_json(raw["data"])
            return _from_json(cls, raw, "config", data=data,
                              model=_model_from_json(raw["model"], data))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from None


# The JSON codec for experiment configs. Every block is a dataclass read
# field by field: keys it does not declare are rejected, absent keys take
# the field default, and values are coerced to the annotated types.


def _to_json(value: Any) -> Any:
    """JSON form of a config value.

    Dataclasses become objects keyed by field name, model specs their
    checkpoint header, and tuples lists.
    """
    if isinstance(value, models.ModelSpec):
        return models._spec_header(value)
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _check_keys(raw: dict, allowed: Iterable[str], where: str) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} keys: {', '.join(sorted(unknown))}"
        )


def _from_json(cls: type, raw: dict, where: str, **given: Any) -> Any:
    """Dataclass ``cls`` from its JSON object ``raw``.

    ``given`` holds fields already decoded by the caller.
    """
    _check_keys(raw, (f.name for f in fields(cls)), where)
    hints = get_type_hints(cls)
    decoded = {k: _coerce(hints[k], v, k)
               for k, v in raw.items() if k not in given}
    return cls(**decoded, **given)


def _coerce(tp: Any, value: Any, where: str) -> Any:
    """``value`` as annotated type ``tp``: a dataclass, ``X | None``,
    ``tuple[X, ...]`` or a scalar type."""
    if is_dataclass(tp):
        return _from_json(tp, value, where)
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _coerce(inner, value, where)
    if get_origin(tp) is tuple:
        return tuple(_coerce(args[0], v, where) for v in value)
    return tp(value)


def _data_from_json(raw: Any) -> SyntheticConfig | str:
    """Synthetic settings, or a CSV path given bare or as ``{"csv": path}``."""
    if isinstance(raw, str):
        return raw
    if "csv" in raw:
        _check_keys(raw, ("csv",), "data")
        return str(raw["csv"])
    return _from_json(SyntheticConfig, raw, "data")


# Model header fields a config, or ``dfcvr train``, may leave out;
# ``input_dim`` defaults to the synthetic feature dimension.
MODEL_DEFAULTS = {"kind": "mlp", "hidden_dims": (256, 256, 128),
                  "l2_coeff": 0.0}


def _model_from_json(raw: dict, data: SyntheticConfig | str):
    header = {**MODEL_DEFAULTS, **raw}
    _check_keys(header, ("kind", *(f.name for f in fields(models.Mlp))),
                "model")
    if header.get("input_dim") is None:
        if not isinstance(data, SyntheticConfig):
            raise ConfigError("model.input_dim is required for CSV data")
        header["input_dim"] = data.feature_dim
    try:
        return models.spec_from_header(header)
    except DataFormatError as exc:
        raise ConfigError(str(exc)) from None


@contextlib.contextmanager
def _stage(name: str):
    """Attach the failing stage to package errors raised inside."""
    try:
        yield
    except DfcvrError as exc:
        if not getattr(exc, "stage", None):
            exc.stage = name
        raise


def _load_data(config: ExperimentConfig) -> Dataset:
    if isinstance(config.data, SyntheticConfig):
        return generate_synthetic(config.data)
    return load_csv(config.data)


def _effective_spec(config: ExperimentConfig) -> models.ModelSpec:
    if config.train.l2_coeff is None:
        return config.model
    return replace(config.model, l2_coeff=config.train.l2_coeff)


def _train_baseline(
    config: ExperimentConfig,
    splits: WindowSplit,
    method: str,
    seed: int,
) -> tuple[np.ndarray, float]:
    view = baseline_view(method, config.t, config.t_prime)
    train_cfg = replace(config.train, seed=seed)
    start = time.perf_counter()
    params = train(
        splits.core, view, config.model, train_cfg, splits.fit_valid
    )
    return params, time.perf_counter() - start


def _influence_update(
    config: ExperimentConfig,
    splits: WindowSplit,
    dataset: Dataset,
    theta: np.ndarray,
    include_add: bool,
) -> tuple[np.ndarray, influence.UpdateReport]:
    spec = _effective_spec(config)
    arrivals = None
    if include_add:
        arrivals = arrival_set(dataset, config.t, config.t_prime)
    request = influence.InfluenceRequest(
        reversal_indices=reversal_set(splits.core, config.t, config.t_prime),
        arrivals=arrivals,
        include_delay=True,
        include_add=include_add,
        solver=config.solver,
        solver_config=config.solver_config,
        damping=config.damping,
    )
    report = influence.delta_total(
        spec, theta, splits.core, Observed(config.t), request
    )
    return influence.apply_update(theta, report), report


def _evaluate(
    config: ExperimentConfig, params: np.ndarray, test: Dataset
) -> metrics.MethodMetrics:
    spec = _effective_spec(config)
    scores = models.predict(spec, params, test.features)
    return metrics.compute_method_metrics(scores, labels_of(test, Oracle()))


def _aggregate(per_seed: list[dict]) -> dict:
    """Mean and variance of every per-method metric and RI across seeds.

    RI values that are None are left out; a metric with no known value
    aggregates to None.
    """
    mean: dict[str, Any] = {}
    variance: dict[str, Any] = {}
    for part in ("methods", "ri"):
        mean[part], variance[part] = {}, {}
        for m, first in per_seed[0][part].items():
            mean[part][m], variance[part][m] = {}, {}
            for k in first:
                known = [s[part][m][k] for s in per_seed
                         if s[part][m][k] is not None]
                mean[part][m][k] = float(np.mean(known)) if known else None
                variance[part][m][k] = float(np.var(known)) if known else None
    return {"mean": mean, "variance": variance}


def _json_default(obj: Any):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(config: ExperimentConfig, report: dict) -> None:
    if config.output_dir is None:
        return
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, f"{report['protocol']}_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def _write_metrics_csv(config: ExperimentConfig, report: dict) -> None:
    if config.output_dir is None or "per_seed" not in report:
        return
    path = os.path.join(config.output_dir,
                        f"{report['protocol']}_metrics.csv")
    fields = ["protocol", "seed", "method", "auc", "prauc", "log_loss",
              "ri_auc", "ri_prauc", "ri_log_loss"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        rows = [(str(s["seed"]), s) for s in report["per_seed"]]
        rows.append(("mean", report["aggregate"]["mean"]))
        for seed_label, block in rows:
            for method, vals in block["methods"].items():
                row = {
                    "protocol": report["protocol"],
                    "seed": seed_label,
                    "method": method,
                    **{k: vals[k] for k in ("auc", "prauc", "log_loss")},
                }
                ri_vals = block["ri"].get(method, {})
                for k in ("auc", "prauc", "log_loss"):
                    v = ri_vals.get(k)
                    row[f"ri_{k}"] = "" if v is None else v
                writer.writerow(row)


def _save_checkpoint(
    config: ExperimentConfig, name: str, seed: int, params: np.ndarray
) -> None:
    if config.output_dir is None:
        return
    os.makedirs(config.output_dir, exist_ok=True)
    models.save_checkpoint(
        os.path.join(config.output_dir, f"{name}_seed{seed}.ckpt"),
        _effective_spec(config),
        params,
    )


def run_offline(config: ExperimentConfig) -> dict:
    """Delay-correction experiment at a fixed training cutoff.

    Baselines are trained per seed on the shared core window under their
    own label views; influence methods update the vanilla parameters by
    label reversal only. Everything is scored on the test day with true
    labels, with RI computed against the vanilla/retrain gap.
    """
    with _stage("data"):
        dataset = _load_data(config)
        splits = window_split(dataset, config.t, config.t_prime,
                              config.d_test)
    methods = list(config.methods)
    need_vanilla = bool(
        {"vanilla", "ifdfm", "ifdfm_wo_add"} & set(methods)
    )
    per_seed = []
    for seed in config.seeds:
        method_metrics: dict[str, metrics.MethodMetrics] = {}
        timings: dict[str, float] = {}
        vanilla_params = None
        if need_vanilla:
            with _stage("train vanilla"):
                vanilla_params, wall = _train_baseline(
                    config, splits, "vanilla", seed
                )
            timings["train_vanilla_s"] = wall
            _save_checkpoint(config, "vanilla", seed, vanilla_params)
        for method in ("retrain", "oracle"):
            if method in methods:
                with _stage(f"train {method}"):
                    params, wall = _train_baseline(
                        config, splits, method, seed
                    )
                timings[f"train_{method}_s"] = wall
                _save_checkpoint(config, method, seed, params)
                method_metrics[method] = _evaluate(config, params, splits.test)
        if "vanilla" in methods:
            method_metrics["vanilla"] = _evaluate(
                config, vanilla_params, splits.test
            )
        # Offline influence has no arrivals, so both variants coincide.
        updated = None
        for method in ("ifdfm", "ifdfm_wo_add"):
            if method not in methods:
                continue
            if updated is None:
                with _stage("influence update"):
                    updated, report = _influence_update(
                        config, splits, dataset, vanilla_params,
                        include_add=False,
                    )
                timings["update_s"] = report.wall_time
                timings["update_residual_rel"] = report.residual_rel
            _save_checkpoint(config, method, seed, updated)
            method_metrics[method] = _evaluate(config, updated, splits.test)
        with _stage("evaluate"):
            ri = metrics.ri_block(method_metrics)
        per_seed.append({
            "seed": seed,
            "methods": {k: v.to_dict() for k, v in method_metrics.items()},
            "ri": ri,
            "timings": timings,
        })
    report = {
        "schema_version": SCHEMA_VERSION,
        "protocol": "offline",
        "config": config.to_json_dict(),
        "per_seed": per_seed,
        "aggregate": _aggregate(per_seed),
    }
    _write_report(config, report)
    _write_metrics_csv(config, report)
    return report


def run_online(config: ExperimentConfig) -> dict:
    """Update-versus-retrain experiment over the deployment gap.

    Runs the frozen pretrained model, influence updates with and without
    new-arrival integration, and a full retrain on all data before the
    evaluation time. RI is computed against the pretrain/retrain gap.
    """
    with _stage("data"):
        dataset = _load_data(config)
        splits = window_split(dataset, config.t, config.t_prime,
                              config.d_test)
    per_seed = []
    for seed in config.seeds:
        method_metrics: dict[str, metrics.MethodMetrics] = {}
        timings: dict[str, float] = {}
        with _stage("train pretrain"):
            pretrain_params, wall = _train_baseline(
                config, splits, "vanilla", seed
            )
        timings["train_pretrain_s"] = wall
        _save_checkpoint(config, "pretrain", seed, pretrain_params)
        method_metrics["pretrain"] = _evaluate(
            config, pretrain_params, splits.test
        )
        for method, include_add in (("ifdfm", True), ("ifdfm_wo_add", False)):
            with _stage(f"influence update {method}"):
                updated, report = _influence_update(
                    config, splits, dataset, pretrain_params,
                    include_add=include_add,
                )
            timings[f"update_{method}_s"] = report.wall_time
            _save_checkpoint(config, method, seed, updated)
            method_metrics[method] = _evaluate(config, updated, splits.test)
        with _stage("train retrain_online"):
            online_idx = np.flatnonzero(dataset.click_ts < config.t_prime)
            online_data = dataset.subset(online_idx)
            train_cfg = replace(config.train, seed=seed)
            start = time.perf_counter()
            retrain_params = train(
                online_data,
                Retrain(config.t_prime),
                config.model,
                train_cfg,
                splits.valid,
            )
            timings["train_retrain_online_s"] = time.perf_counter() - start
        _save_checkpoint(config, "retrain_online", seed, retrain_params)
        method_metrics["retrain_online"] = _evaluate(
            config, retrain_params, splits.test
        )
        ri = metrics.ri_block(
            method_metrics,
            vanilla_key="pretrain",
            retrain_key="retrain_online",
        )
        per_seed.append({
            "seed": seed,
            "methods": {k: v.to_dict() for k, v in method_metrics.items()},
            "ri": ri,
            "timings": timings,
        })
    report = {
        "schema_version": SCHEMA_VERSION,
        "protocol": "online",
        "config": config.to_json_dict(),
        "per_seed": per_seed,
        "aggregate": _aggregate(per_seed),
    }
    _write_report(config, report)
    _write_metrics_csv(config, report)
    return report


def run_timing(config: ExperimentConfig) -> dict:
    """Wall-clock comparison of influence updates against (re)training.

    Regenerates the synthetic dataset at each size in ``timing_sizes``,
    times vanilla training, retraining, and the influence update, and
    reports update/train ratios. Generation and IO are excluded from all
    timed stages.
    """
    if not isinstance(config.data, SyntheticConfig):
        raise ConfigError("the timing protocol requires synthetic data")
    seed = config.seeds[0]
    per_size = []
    for size in config.timing_sizes:
        sized = replace(config.data, n=size)
        with _stage("data"):
            dataset = generate_synthetic(sized)
            splits = window_split(dataset, config.t, config.t_prime,
                                  config.d_test)
        with _stage("train vanilla"):
            vanilla_params, train_s = _train_baseline(
                config, splits, "vanilla", seed
            )
        with _stage("train retrain"):
            _, retrain_s = _train_baseline(config, splits, "retrain", seed)
        with _stage("influence update"):
            start = time.perf_counter()
            _, report = _influence_update(
                config, splits, dataset, vanilla_params, include_add=False
            )
            update_s = time.perf_counter() - start
        per_size.append({
            "n": size,
            "train_vanilla_s": train_s,
            "train_retrain_s": retrain_s,
            "update_s": update_s,
            "update_over_train": update_s / train_s,
            "update_residual_rel": report.residual_rel,
        })
    ratios = [row["update_over_train"] for row in per_size]
    report_dict = {
        "schema_version": SCHEMA_VERSION,
        "protocol": "timing",
        "config": config.to_json_dict(),
        "per_size": per_size,
        "ratios": ratios,
    }
    _write_report(config, report_dict)
    if config.output_dir is not None:
        path = os.path.join(config.output_dir, "timing.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(per_size[0]))
            writer.writeheader()
            writer.writerows(per_size)
    return report_dict


def compare_solvers(config: ExperimentConfig) -> dict:
    """Run every registered solver on one shared system; record the traces.

    Trains the vanilla model once, builds the label-reversal right-hand
    side, and solves the same damped system with each kind in
    ``solvers.SOLVERS``, at its default settings unless the config sets
    ``solver_config``. Solver failures are recorded per solver instead of
    aborting the comparison.
    """
    seed = config.seeds[0]
    with _stage("data"):
        dataset = _load_data(config)
        splits = window_split(dataset, config.t, config.t_prime,
                              config.d_test)
    with _stage("train vanilla"):
        theta, _ = _train_baseline(config, splits, "vanilla", seed)
    spec = _effective_spec(config)
    view = Observed(config.t)
    request = influence.InfluenceRequest(
        reversal_indices=reversal_set(splits.core, config.t, config.t_prime),
        damping=config.damping,
    )
    rhs = influence.build_rhs(spec, theta, splits.core, view, request)
    operator = solvers.DampedHessianOperator(
        spec, theta, splits.core.features, labels_of(splits.core, view),
        lam=config.damping,
    )
    summary: dict[str, Any] = {}
    traces: dict[str, list[float]] = {}
    for kind in solvers.SOLVERS:
        try:
            result = solvers.solve(kind, operator, rhs.b, config.solver_config)
        except solvers.SolverError as exc:
            summary[kind] = {"error": str(exc)}
            traces[kind] = []
            continue
        summary[kind] = {
            "residual_rel": result.residual_rel,
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "wall_time_s": result.wall_time,
            "delta_norm": float(np.linalg.norm(result.delta)),
        }
        traces[kind] = result.trace
    report = {
        "schema_version": SCHEMA_VERSION,
        "protocol": "compare_solvers",
        "config": config.to_json_dict(),
        "solvers": summary,
    }
    _write_report(config, report)
    if config.output_dir is not None:
        path = os.path.join(config.output_dir, "solver_traces.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "step", "rel_residual"])
            for kind, trace in traces.items():
                for step, rel in enumerate(trace, start=1):
                    writer.writerow([kind, step, rel])
    return report

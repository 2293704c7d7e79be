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
    LabelView,
    Observed,
    Oracle,
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
from .errors import ConfigError, DfcvrError
from .training import TrainConfig, train

SCHEMA_VERSION = 2

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
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be non-negative")
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
    return models.spec_from_header(header)


@contextlib.contextmanager
def _stage(name: str):
    """Attach the failing stage to package errors raised inside."""
    try:
        yield
    except DfcvrError as exc:
        if not getattr(exc, "stage", None):
            exc.stage = name
        raise


def _load_splits(
    config: ExperimentConfig, source: SyntheticConfig | str | None = None
) -> tuple[Dataset, WindowSplit]:
    """The log read from ``source`` (default ``config.data``), and its
    windows."""
    source = config.data if source is None else source
    with _stage("data"):
        if isinstance(source, SyntheticConfig):
            dataset = generate_synthetic(source)
        else:
            dataset = load_csv(source)
        return dataset, window_split(dataset, config.t, config.t_prime,
                                     config.d_test)


def _train(config: ExperimentConfig, name: str, seed: int, dataset: Dataset,
           view: LabelView, valid: Dataset, timings: dict) -> np.ndarray:
    """Train ``name`` in stage ``train <name>``, timed as ``train_<name>_s``."""
    with _stage(f"train {name}"):
        train_cfg = replace(config.train, seed=seed)
        start = time.perf_counter()
        params = train(dataset, view, config.model, train_cfg, valid)
        timings[f"train_{name}_s"] = time.perf_counter() - start
    return params


def _train_baseline(config: ExperimentConfig, splits: WindowSplit,
                    method: str, seed: int, timings: dict) -> np.ndarray:
    view = baseline_view(method, config.t, config.t_prime)
    return _train(config, method, seed, splits.core, view, splits.fit_valid,
                  timings)


def _influence_update(
    config: ExperimentConfig,
    splits: WindowSplit,
    dataset: Dataset,
    theta: np.ndarray,
    include_add: bool,
    timings: dict,
    method: str | None = None,
) -> np.ndarray:
    """``theta`` corrected in stage ``influence update[ <method>]``.

    ``update[_<method>]_s`` in ``timings`` is the wall time of
    :func:`influence.delta_total` (RHS, operator build and solve), and
    ``update[_<method>]_residual_rel`` the residual it reached.
    """
    stage, key = "influence update", "update"
    if method is not None:
        stage, key = f"{stage} {method}", f"{key}_{method}"
    with _stage(stage):
        arrivals = None
        if include_add:
            arrivals = arrival_set(dataset, config.t, config.t_prime)
        request = influence.InfluenceRequest(
            reversal_indices=reversal_set(splits.core, config.t,
                                          config.t_prime),
            arrivals=arrivals,
            include_delay=True,
            include_add=include_add,
            solver=config.solver,
            solver_config=config.solver_config,
            damping=config.damping,
        )
        report = influence.delta_total(
            config.model, theta, splits.core, Observed(config.t),
            request,
        )
        timings[f"{key}_s"] = report.wall_time
        timings[f"{key}_residual_rel"] = report.residual_rel
        return influence.apply_update(theta, report)


def evaluate_test_window(
    spec: models.ModelSpec,
    params: np.ndarray,
    test: Dataset,
    t_prime: int,
    d_test: int,
) -> metrics.MethodMetrics:
    """Metrics of ``params`` on ``test``, the clicks of ``[t_prime, t_prime
    + d_test)``, against their eventual labels.

    Raises :class:`ConfigError` when the window lacks converted or
    unconverted clicks, since AUC is undefined there.
    """
    scores = models.predict(spec, params, test.features)
    labels = labels_of(test, Oracle())
    converted = int(labels.sum())
    if not 0 < converted < labels.size:
        raise ConfigError(
            f"test window [{t_prime}, {t_prime + d_test}) has {labels.size} "
            f"clicks, {converted} of them converted; scoring needs both "
            "converted and unconverted clicks"
        )
    return metrics.compute_method_metrics(scores, labels)


def _seed_block(config: ExperimentConfig, seed: int, params: dict,
                test: Dataset, timings: dict, scored: tuple[str, ...],
                **ri_refs: str) -> dict:
    """One seed's report block: a checkpoint of every entry of ``params``,
    and the metrics and RI (against ``ri_refs``) of those in ``scored``."""
    method_metrics = {}
    for name, theta in params.items():
        _save_checkpoint(config, name, seed, theta)
        if name in scored:
            with _stage("evaluate"):
                method_metrics[name] = evaluate_test_window(
                    config.model, theta, test, config.t_prime, config.d_test
                )
    return {
        "seed": seed,
        "methods": {k: v.to_dict() for k, v in method_metrics.items()},
        "ri": metrics.ri_block(method_metrics, **ri_refs),
        "timings": timings,
    }


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


def _finish_seeds(config: ExperimentConfig, protocol: str,
                  per_seed: list[dict]) -> dict:
    """:func:`_finish` with the seed blocks and their aggregate; the CSV
    has a row per seed and method, then the mean rows."""
    aggregate = _aggregate(per_seed)
    blocks = [(str(s["seed"]), s) for s in per_seed]
    blocks.append(("mean", aggregate["mean"]))
    names = [f.name for f in fields(metrics.MethodMetrics)]
    rows = []
    for label, block in blocks:
        for method, values in block["methods"].items():
            ri = block["ri"].get(method, {})
            rows.append({
                "protocol": protocol, "seed": label, "method": method,
                **values,
                **{f"ri_{k}": "" if ri.get(k) is None else ri[k]
                   for k in names},
            })
    columns = ["protocol", "seed", "method", *names,
               *(f"ri_{k}" for k in names)]
    return _finish(config, protocol,
                   {"per_seed": per_seed, "aggregate": aggregate},
                   f"{protocol}_metrics.csv", columns, rows)


def _finish(config: ExperimentConfig, protocol: str, body: dict,
            csv_name: str, csv_fields: list[str], rows: list[dict]) -> dict:
    """The versioned ``protocol`` report around ``body``.

    With an ``output_dir``, the report is also written there as
    ``<protocol>_report.json``, and ``rows`` as the table ``csv_name``.
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "protocol": protocol,
        "config": config.to_json_dict(),
        **body,
    }
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
        path = os.path.join(config.output_dir, f"{protocol}_report.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        path = os.path.join(config.output_dir, csv_name)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=csv_fields)
            writer.writeheader()
            writer.writerows(rows)
    return report


def _save_checkpoint(
    config: ExperimentConfig, name: str, seed: int, params: np.ndarray
) -> None:
    if config.output_dir is None:
        return
    os.makedirs(config.output_dir, exist_ok=True)
    models.save_checkpoint(
        os.path.join(config.output_dir, f"{name}_seed{seed}.ckpt"),
        config.model,
        params,
    )


def run_offline(config: ExperimentConfig) -> dict:
    """Delay-correction experiment at a fixed training cutoff.

    Baselines are trained per seed on the shared core window under their
    own label views; influence methods update the vanilla parameters by
    label reversal only. Everything is scored on the test day with true
    labels, with RI computed against the vanilla/retrain gap.
    """
    dataset, splits = _load_splits(config)
    updates = [m for m in ("ifdfm", "ifdfm_wo_add") if m in config.methods]
    need_vanilla = bool(updates) or "vanilla" in config.methods
    per_seed = []
    for seed in config.seeds:
        timings: dict[str, Any] = {}
        params = {}
        if need_vanilla:
            vanilla = _train_baseline(config, splits, "vanilla", seed, timings)
        for method in ("retrain", "oracle"):
            if method in config.methods:
                params[method] = _train_baseline(config, splits, method,
                                                 seed, timings)
        if need_vanilla:
            params["vanilla"] = vanilla
        if updates:
            # Offline influence has no arrivals, so both variants coincide.
            updated = _influence_update(config, splits, dataset, vanilla,
                                        False, timings)
            params.update(dict.fromkeys(updates, updated))
        per_seed.append(_seed_block(config, seed, params, splits.test,
                                    timings, config.methods))
    return _finish_seeds(config, "offline", per_seed)


def run_online(config: ExperimentConfig) -> dict:
    """Update-versus-retrain experiment over the deployment gap.

    Runs the frozen pretrained model, influence updates with and without
    new-arrival integration, and a full retrain on all data before the
    evaluation time. RI is computed against the pretrain/retrain gap.
    """
    dataset, splits = _load_splits(config)
    per_seed = []
    for seed in config.seeds:
        timings: dict[str, Any] = {}
        pretrain = _train(config, "pretrain", seed, splits.core,
                          Observed(config.t), splits.fit_valid, timings)
        params = {"pretrain": pretrain}
        for method, include_add in (("ifdfm", True), ("ifdfm_wo_add", False)):
            params[method] = _influence_update(
                config, splits, dataset, pretrain, include_add, timings, method
            )
        params["retrain_online"] = _train(
            config, "retrain_online", seed, dataset.window(0, config.t_prime),
            Observed(config.t_prime), splits.valid, timings,
        )
        per_seed.append(_seed_block(
            config, seed, params, splits.test, timings, ONLINE_METHODS,
            vanilla_key="pretrain", retrain_key="retrain_online",
        ))
    return _finish_seeds(config, "online", per_seed)


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
        dataset, splits = _load_splits(config, replace(config.data, n=size))
        row: dict[str, Any] = {"n": size}
        vanilla = _train_baseline(config, splits, "vanilla", seed, row)
        _train_baseline(config, splits, "retrain", seed, row)
        _influence_update(config, splits, dataset, vanilla, False, row)
        row["update_over_train"] = row["update_s"] / row["train_vanilla_s"]
        per_size.append(row)
    ratios = [row["update_over_train"] for row in per_size]
    fields = ["n", "train_vanilla_s", "train_retrain_s", "update_s",
              "update_over_train", "update_residual_rel"]
    return _finish(config, "timing", {"per_size": per_size, "ratios": ratios},
                   "timing.csv", fields, per_size)


def compare_solvers(config: ExperimentConfig) -> dict:
    """Run every registered solver on one shared system; record the traces.

    Trains the vanilla model once, builds the label-reversal right-hand
    side, and solves the same damped system with each kind in
    ``solvers.SOLVERS``, at its default settings unless the config sets
    ``solver_config``. Solver failures are recorded per solver instead of
    aborting the comparison.
    """
    _, splits = _load_splits(config)
    theta = _train_baseline(config, splits, "vanilla", config.seeds[0], {})
    view = Observed(config.t)
    request = influence.InfluenceRequest(
        reversal_indices=reversal_set(splits.core, config.t, config.t_prime),
        damping=config.damping,
    )
    rhs = influence.build_rhs(config.model, theta, splits.core, view, request)
    operator = solvers.DampedHessianOperator(
        config.model, theta, splits.core.features,
        labels_of(splits.core, view), lam=config.damping,
    )
    summary: dict[str, Any] = {}
    rows = []
    for kind in solvers.SOLVERS:
        try:
            result = solvers.solve(kind, operator, rhs.b, config.solver_config)
        except solvers.SolverError as exc:
            summary[kind] = {"error": str(exc)}
            continue
        summary[kind] = {
            "residual_rel": result.residual_rel,
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "wall_time_s": result.wall_time,
            "delta_norm": float(np.linalg.norm(result.delta)),
        }
        rows += [{"solver": kind, "step": step, "rel_residual": rel}
                 for step, rel in enumerate(result.trace, start=1)]
    return _finish(config, "compare_solvers", {"solvers": summary},
                   "solver_traces.csv", ["solver", "step", "rel_residual"],
                   rows)

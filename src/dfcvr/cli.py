"""Command-line interface.

Exit codes: 0 on success, 1 for usage, configuration or data-format
errors, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import influence, models, solvers
from .data import (
    Dataset,
    Observed,
    SyntheticConfig,
    baseline_view,
    generate_synthetic,
    load_csv,
    save_csv,
    window_split,
)
from .errors import (ConfigError, DataFormatError, DfcvrError,
                     NumericalError, writing)
from .harness import (
    MODEL_DEFAULTS,
    ExperimentConfig,
    compare_solvers,
    evaluate_test_window,
    run_offline,
    run_online,
    run_timing,
)
from .training import TrainConfig, train


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dfcvr",
        description=(
            "Delayed-feedback conversion modeling: train, correct stale "
            "labels with influence updates, and run experiment protocols."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a synthetic click log")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--feature-dim", type=int, required=True)
    gen.add_argument("--target-cvr", type=float, required=True)
    gen.add_argument("--delay-mean-tau", type=float, required=True,
                     help="mean conversion delay in seconds")
    gen.add_argument("--horizon", type=int, required=True,
                     help="click timestamps are uniform on [0, horizon)")
    gen.add_argument("--drift-angle-per-day", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    tr = sub.add_parser("train", help="train one baseline from a CSV log")
    tr.add_argument("--data", required=True, help="input CSV path")
    tr.add_argument("--method", choices=("vanilla", "retrain", "oracle"),
                    default="vanilla")
    tr.add_argument("--t", type=int, required=True,
                    help="training cutoff (seconds)")
    tr.add_argument("--t-prime", type=int, required=True,
                    help="evaluation time (seconds)")
    tr.add_argument("--d-test", type=int, required=True,
                    help="test/validation window length (seconds)")
    tr.add_argument("--model", choices=("logreg", "mlp"),
                    default=MODEL_DEFAULTS["kind"])
    tr.add_argument("--hidden-dims",
                    default=",".join(map(str, MODEL_DEFAULTS["hidden_dims"])),
                    help="comma-separated MLP widths")
    tr.add_argument("--l2-coeff", type=float,
                    default=MODEL_DEFAULTS["l2_coeff"])
    tr.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--learning-rate", type=float,
                    default=TrainConfig.learning_rate)
    tr.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    tr.add_argument("--patience", type=int, dest="early_stop_patience",
                    metavar="PATIENCE",
                    default=TrainConfig.early_stop_patience)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--out", required=True, help="output checkpoint path")
    tr.add_argument("--metrics-log", default=None,
                    help="optional per-epoch CSV log path")

    up = sub.add_parser("update",
                        help="apply an influence update to a checkpoint")
    up.add_argument("--checkpoint", required=True)
    up.add_argument("--data", required=True, help="input CSV path")
    up.add_argument("--t", type=int, required=True)
    up.add_argument("--t-prime", type=int, required=True)
    up.add_argument("--train-end", type=int, default=None,
                    help="end of the checkpoint's training window "
                         "(default: t)")
    up.add_argument("--include-add", action="store_true",
                    help="also integrate samples arriving in [t, t_prime)")
    up.add_argument("--solver", choices=tuple(solvers.SOLVERS),
                    default=influence.InfluenceRequest.solver)
    up.add_argument("--damping", type=float,
                    default=influence.InfluenceRequest.damping)
    # Each solver flag is stored under the SolverConfig field it sets.
    for flag, name, kind, text in (
        ("--tol", "tol_rel_residual", float, "relative-residual tolerance"),
        ("--solver-max-iters", "max_iters", int, None),
        ("--solver-max-epochs", "max_epochs", int, None),
        ("--solver-minibatch", "minibatch_size", int, None),
        ("--solver-learning-rate", "learning_rate", float, None),
    ):
        up.add_argument(flag, dest=name, type=kind, default=None, help=text,
                        metavar=flag[2:].replace("-", "_").upper())
    up.add_argument("--out", required=True,
                    help="output checkpoint path for updated parameters")
    up.add_argument("--report", default=None,
                    help="optional JSON report path")

    ev = sub.add_parser("evaluate",
                        help="score a checkpoint on the held-out test day")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="input CSV path")
    ev.add_argument("--t-prime", type=int, required=True)
    ev.add_argument("--d-test", type=int, required=True)
    ev.add_argument("--report", default=None,
                    help="optional JSON report path")

    for name, description in (
        ("offline", "offline delay-correction experiment"),
        ("online", "online update-versus-retrain experiment"),
        ("timing", "update-versus-training wall-clock comparison"),
        ("compare-solvers", "solver residual traces on one shared system"),
    ):
        proto = sub.add_parser(name, help=description)
        proto.add_argument("--config", required=True,
                           help="experiment config JSON path")
        proto.add_argument("--out-dir", default=None,
                           help="override the config's output_dir")
        proto.add_argument("--seeds", default=None,
                           help="override seeds, comma-separated")
        if name == "offline":  # the one protocol that reads the methods
            proto.add_argument("--methods", default=None,
                               help="override methods, comma-separated")
    return parser


def _parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad {what} list: {raw!r}") from None


def _flags(settings: type, args: argparse.Namespace) -> dict:
    """The flags stored under the fields of the ``settings`` class, except
    those left unset (None)."""
    return {f.name: getattr(args, f.name) for f in fields(settings)
            if getattr(args, f.name, None) is not None}


def _cmd_generate(args: argparse.Namespace) -> int:
    config = SyntheticConfig(**_flags(SyntheticConfig, args))
    save_csv(generate_synthetic(config), args.out)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data)
    splits = window_split(dataset, args.t, args.t_prime, args.d_test)
    spec = models.spec_from_header({
        "kind": args.model, "input_dim": dataset.feature_dim,
        "hidden_dims": _parse_int_list(args.hidden_dims, "hidden-dims"),
        "l2_coeff": args.l2_coeff,
    })
    params = train(
        splits.core,
        baseline_view(args.method, args.t, args.t_prime),
        spec,
        TrainConfig(**_flags(TrainConfig, args)),
        splits.fit_valid,
        metrics_log_path=args.metrics_log,
    )
    models.save_checkpoint(args.out, spec, params)
    print(f"wrote checkpoint to {args.out}")
    return 0


def _load_model_and_data(
    args: argparse.Namespace,
) -> tuple[models.ModelSpec, np.ndarray, Dataset]:
    """The checkpoint and the CSV log, checked to fit each other."""
    spec, params = models.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    if dataset.feature_dim != spec.input_dim:
        raise DataFormatError(
            f"{args.data} has {dataset.feature_dim} feature columns, but the "
            f"model in {args.checkpoint} takes {spec.input_dim}"
        )
    return spec, params, dataset


def _emit(payload: dict, report_path: str | None) -> None:
    """Print ``payload`` as JSON, and also write it to ``report_path``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if report_path is not None:
        with writing(report_path), open(report_path, "w") as fh:
            fh.write(text + "\n")


def _cmd_update(args: argparse.Namespace) -> int:
    spec, params, dataset = _load_model_and_data(args)
    train_end = args.t if args.train_end is None else args.train_end
    if not 0 < train_end <= args.t:
        raise ConfigError("train-end must lie in (0, t]")
    core = dataset.window(0, train_end)
    if len(core) == 0:
        raise ConfigError("no samples before train-end")

    solver_config = replace(solvers.default_solver_config(args.solver),
                            **_flags(solvers.SolverConfig, args))
    request = influence.InfluenceRequest.for_window(
        core, dataset, args.t, args.t_prime, args.include_add,
        solver=args.solver, solver_config=solver_config, damping=args.damping,
    )
    report = influence.delta_total(spec, params, core, Observed(args.t),
                                   request)
    updated = influence.apply_update(params, report)
    models.save_checkpoint(args.out, spec, updated)
    _emit({
        "delta_norm": float(np.linalg.norm(report.delta)),
        "residual_rel": report.residual_rel,
        "solver_iterations": report.iterations,
        "wall_time_s": report.wall_time,
    }, args.report)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    spec, params, dataset = _load_model_and_data(args)
    test = dataset.window(args.t_prime, args.t_prime + args.d_test)
    _emit(evaluate_test_window(spec, params, test, args.t_prime, args.d_test),
          args.report)
    return 0


def _load_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
    config = ExperimentConfig.from_json_dict(raw)
    if args.out_dir is not None:
        config = replace(config, output_dir=args.out_dir)
    if args.seeds is not None:
        config = replace(config, seeds=_parse_int_list(args.seeds, "seeds"))
    if getattr(args, "methods", None) is not None:
        config = replace(
            config,
            methods=tuple(m for m in args.methods.split(",") if m.strip()),
        )
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "update": _cmd_update,
        "evaluate": _cmd_evaluate,
    }
    protocols = {
        "offline": run_offline,
        "online": run_online,
        "timing": run_timing,
        "compare-solvers": compare_solvers,
    }
    try:
        if args.command in commands:
            return commands[args.command](args)
        config = _load_experiment_config(args)
        _emit(protocols[args.command](config), None)
        return 0
    # A size that passes every check can still be more than the host can
    # allocate; numpy's message says how much was asked for.
    except (DfcvrError, MemoryError) as exc:
        _print_error(exc)
        return 2 if isinstance(exc, NumericalError) else 1


def _print_error(exc: DfcvrError | MemoryError) -> None:
    stage = getattr(exc, "stage", None)
    prefix = f"dfcvr: error in stage '{stage}': " if stage else "dfcvr: error: "
    print(f"{prefix}{str(exc) or 'out of memory'}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

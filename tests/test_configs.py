"""Every settings object checks itself when it is built.

For each bad value of each checked field, both building the object and
``dataclasses.replace`` on a valid instance raise ``ConfigError`` naming
that field, so an invalid config never exists for a run to start from.
"""

import dataclasses

import numpy as np
import pytest

from dfcvr import cli, data, harness, influence, models, solvers, training
from dfcvr.errors import ConfigError

DAY = 86400


def _synthetic():
    return data.SyntheticConfig(n=100, feature_dim=3, target_cvr=0.2,
                                delay_mean_tau=DAY, horizon=12 * DAY)


_VALID = {
    "SyntheticConfig": _synthetic,
    "TrainConfig": training.TrainConfig,
    "SolverConfig": solvers.SolverConfig,
    "ExperimentConfig": lambda: harness.ExperimentConfig(
        data=_synthetic(), t=8 * DAY, t_prime=11 * DAY, d_test=DAY,
        model=models.LogisticRegression(input_dim=3)),
    "InfluenceRequest": lambda: influence.InfluenceRequest(
        reversal_indices=np.array([], dtype=np.int64)),
    "Mlp": lambda: models.Mlp(input_dim=3, hidden_dims=(4,)),
}

# (type, field, bad value, pattern the error message must match)
_BAD = [
    ("SyntheticConfig", "n", 0, "n must"),
    ("SyntheticConfig", "n", 2**63, "n must"),
    ("SyntheticConfig", "feature_dim", 0, "feature_dim"),
    ("SyntheticConfig", "feature_dim", 1, "feature_dim"),
    ("SyntheticConfig", "feature_dim", 2**63, "feature_dim"),
    # Below 2**63 each, but more float64 features than numpy can size.
    ("SyntheticConfig", "n", 2**62, r"n \* feature_dim must"),
    ("SyntheticConfig", "feature_dim", 2**61, r"n \* feature_dim must"),
    ("SyntheticConfig", "target_cvr", 0.0, "target_cvr"),
    ("SyntheticConfig", "target_cvr", 1.0, "target_cvr"),
    ("SyntheticConfig", "delay_mean_tau", 0.0, "delay_mean_tau"),
    ("SyntheticConfig", "delay_mean_tau", np.nan, "delay_mean_tau"),
    ("SyntheticConfig", "delay_mean_tau", np.inf, "delay_mean_tau"),
    ("SyntheticConfig", "horizon", 0, "horizon"),
    ("SyntheticConfig", "horizon", 2**63 + 1, "horizon"),
    ("SyntheticConfig", "seed", -1, "seed"),
    ("SyntheticConfig", "seed", 2**32, "seed"),
    ("SyntheticConfig", "drift_angle_per_day", np.nan, "drift_angle"),
    ("SyntheticConfig", "drift_angle_per_day", np.inf, "drift_angle"),
    ("SyntheticConfig", "drift_angle_per_day", -np.inf, "drift_angle"),
    ("TrainConfig", "batch_size", 0, "batch_size"),
    ("TrainConfig", "learning_rate", 0.0, "learning_rate"),
    ("TrainConfig", "learning_rate", np.nan, "learning_rate"),
    ("TrainConfig", "learning_rate", np.inf, "learning_rate"),
    ("TrainConfig", "max_epochs", 0, "max_epochs"),
    ("TrainConfig", "early_stop_patience", 0, "early_stop_patience"),
    ("TrainConfig", "seed", -1, "seed"),
    ("TrainConfig", "seed", 2**32, "seed"),
    ("SolverConfig", "tol_rel_residual", -1e-3, "tol_rel_residual"),
    ("SolverConfig", "tol_rel_residual", np.nan, "tol_rel_residual"),
    ("SolverConfig", "tol_rel_residual", np.inf, "tol_rel_residual"),
    ("SolverConfig", "max_iters", 0, "max_iters"),
    ("SolverConfig", "max_epochs", 0, "max_epochs"),
    ("SolverConfig", "minibatch_size", 0, "minibatch_size"),
    ("SolverConfig", "learning_rate", 0.0, "learning_rate"),
    ("SolverConfig", "learning_rate", np.nan, "learning_rate"),
    ("SolverConfig", "learning_rate", np.inf, "learning_rate"),
    ("SolverConfig", "seed", -1, "seed"),
    ("SolverConfig", "seed", 2**32, "seed"),
    ("ExperimentConfig", "data", 3, "data must"),
    ("ExperimentConfig", "t", 11 * DAY, "t < t_prime"),
    ("ExperimentConfig", "t", DAY, "training window too short"),
    ("ExperimentConfig", "t_prime", 8 * DAY + DAY // 2, "overlaps"),
    ("ExperimentConfig", "d_test", 0, "d_test"),
    ("ExperimentConfig", "methods", (), "methods"),
    ("ExperimentConfig", "methods", ("vanilla", "mystery"), "method"),
    ("ExperimentConfig", "seeds", (), "seeds"),
    ("ExperimentConfig", "seeds", (-1,), "seeds"),
    ("ExperimentConfig", "seeds", (0, 2**32), "seeds"),
    ("ExperimentConfig", "solver", "gmres", "solver"),
    ("ExperimentConfig", "damping", -1.0, "damping"),
    ("ExperimentConfig", "damping", np.nan, "damping"),
    ("ExperimentConfig", "damping", np.inf, "damping"),
    ("ExperimentConfig", "timing_sizes", (0,), "timing_sizes"),
    ("ExperimentConfig", "timing_sizes", (), "timing_sizes"),
    ("InfluenceRequest", "solver", "gmres", "solver"),
    ("InfluenceRequest", "damping", -1.0, "damping"),
    ("InfluenceRequest", "damping", np.nan, "damping"),
    ("InfluenceRequest", "damping", np.inf, "damping"),
    # A parameter vector larger than numpy can size.
    ("Mlp", "input_dim", 2**62, "parameter count of input_dim and"),
    ("Mlp", "hidden_dims", (2**62,), "parameter count of input_dim and"),
    ("Mlp", "hidden_dims", (4, 2**31, 2**31), "parameter count of input_dim"),
]
_IDS = [f"{kind}-{field}-{value!r}" for kind, field, value, _ in _BAD]


@pytest.mark.parametrize("kind, field, value, pattern", _BAD, ids=_IDS)
def test_constructor_rejects(kind, field, value, pattern):
    valid = _VALID[kind]()
    kwargs = {f.name: getattr(valid, f.name)
              for f in dataclasses.fields(valid)}
    with pytest.raises(ConfigError, match=pattern):
        type(valid)(**{**kwargs, field: value})


@pytest.mark.parametrize("kind, field, value, pattern", _BAD, ids=_IDS)
def test_replace_rejects(kind, field, value, pattern):
    valid = _VALID[kind]()
    with pytest.raises(ConfigError, match=pattern):
        dataclasses.replace(valid, **{field: value})


@pytest.mark.parametrize("kind", list(_VALID))
def test_settings_cannot_be_changed_in_place(kind):
    valid = _VALID[kind]()
    field = dataclasses.fields(valid)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(valid, field, getattr(valid, field))


def test_protocols_and_cli_take_the_request_defaults():
    request = _VALID["InfluenceRequest"]()
    config = _VALID["ExperimentConfig"]()
    args = cli._build_parser().parse_args([
        "update", "--checkpoint", "c", "--data", "d", "--t", "1",
        "--t-prime", "2", "--out", "o"])
    for settings in (config, args):
        assert (settings.solver, settings.damping) == (request.solver,
                                                       request.damping)
    assert request.hvp_batch_size == solvers.HVP_BATCH_SIZE


def test_cli_train_takes_the_library_training_defaults():
    args = cli._build_parser().parse_args([
        "train", "--data", "d", "--t", "2", "--t-prime", "3",
        "--d-test", "1", "--out", "o"])
    train = training.TrainConfig()
    assert (args.batch_size, args.learning_rate, args.max_epochs,
            args.early_stop_patience, args.seed) == (
        train.batch_size, train.learning_rate, train.max_epochs,
        train.early_stop_patience, train.seed)
    model = harness.MODEL_DEFAULTS
    assert args.model == model["kind"]
    assert cli._parse_int_list(args.hidden_dims, "hidden-dims") == (
        model["hidden_dims"])
    assert args.l2_coeff == model["l2_coeff"]

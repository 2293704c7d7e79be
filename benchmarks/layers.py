"""Where the traced run puts its spans, and the per-layer metrics built from them.

Every wrapper sits at the attribute the program's callers look the
function up by: a module global for calls inside that module
(``compute_method_metrics`` calling ``auc``), the importing module's
attribute for names imported with ``from ... import`` (``harness.train``,
``cli.load_csv``), and the class for methods (``Adam.step``,
``DampedHessianOperator.matvec``). A span's name is the metric prefix:
span ``models.hvp`` yields ``models.hvp_s`` and ``models.hvp_calls``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from dfcvr import cli, harness, influence, metrics, models, optim
from dfcvr import solvers, training

from spans import Recorder, Span

LAYERS = ("data", "models", "optim", "training", "solvers", "influence",
          "metrics", "harness", "cli")
SOLVE_SPANS = ("solvers.cg_solve", "solvers.sq_solve")


def hvp_flops_per_row(spec: models.ModelSpec) -> int:
    """Multiply-adds of one forward-over-reverse HVP sweep, times two.

    Per layer the forward and the gradient step each take two matmuls;
    every layer but the first also takes two in the reverse sweep.
    Element-wise work is left out.
    """
    shapes = models.layer_shapes(spec)
    return sum(8 * o * i for o, i in shapes) + sum(
        4 * o * i for o, i in shapes[1:])


def state_bytes_per_row(spec: models.ModelSpec) -> int:
    """Bytes of the cached ``BatchState`` per training row.

    Layer inputs and pre-activation deltas are float64, ReLU masks are
    bool, and the curvature ``h`` and per-row losses add two float64.
    """
    shapes = models.layer_shapes(spec)
    inputs = sum(i for _, i in shapes)
    deltas = sum(o for o, _ in shapes)
    masks = sum(o for o, _ in shapes[:-1])
    return 8 * (inputs + deltas + 2) + masks


def _hvp_attrs(args, kwargs, result):
    spec, state = args[0], args[2]
    rows = kwargs.get("rows", args[4] if len(args) > 4 else None)
    if rows is None:
        count = state.n
    elif isinstance(rows, slice):
        count = len(range(*rows.indices(state.n)))
    else:
        count = len(rows)
    return {"rows": count, "flops": count * hvp_flops_per_row(spec)}


def _operator_attrs(args, kwargs, result):
    spec, x = args[1], args[3]
    return {"rows": len(x), "state_bytes": len(x) * state_bytes_per_row(spec)}


def _matvec_batch_attrs(args, kwargs, result):
    return {"n": args[0].n_samples, "rows": len(args[2])}


def _solve_attrs(args, kwargs, result):
    residual = result.residual_rel
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged),
            "residual_rel": None if residual is None else float(residual)}


def _rhs_attrs(args, kwargs, result):
    request = args[4]
    rows = 0
    if request.include_delay:
        rows += len(request.reversal_indices)
    if request.include_add and request.arrivals is not None:
        rows += len(request.arrivals[0])
    return {"rows": rows}


def _scored_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _valid_loss(args, kwargs, result):
    return {"value": float(result)}


_OP = solvers.DampedHessianOperator
WRAPS = (
    (harness, "generate_synthetic", "data.generate", None),
    (cli, "generate_synthetic", "data.generate", None),
    (cli, "save_csv", "data.save_csv", None),
    (cli, "load_csv", "data.load_csv", None),
    (harness, "load_csv", "data.load_csv", None),
    (models, "loss_and_grad", "models.loss_and_grad", None),
    (models, "build_state", "models.build_state", None),
    (models, "hvp_from_state", "models.hvp", _hvp_attrs),
    (models, "predict", "models.predict", None),
    (models, "save_checkpoint", "models.checkpoint_save", None),
    (models, "load_checkpoint", "models.checkpoint_load", None),
    (optim.Adam, "step", "optim.adam_step", None),
    (harness, "train", "training.train", None),
    (cli, "train", "training.train", None),
    (training, "log_loss", "metrics.log_loss", _valid_loss),
    (_OP, "__init__", "solvers.operator_build", _operator_attrs),
    (_OP, "matvec", "solvers.matvec", None),
    (_OP, "matvec_batch", "solvers.matvec_batch", _matvec_batch_attrs),
    (solvers, "cg_solve", "solvers.cg_solve", _solve_attrs),
    (solvers, "sq_solve", "solvers.sq_solve", _solve_attrs),
    (influence, "build_rhs", "influence.build_rhs", _rhs_attrs),
    (influence, "delta_total", "influence.delta_total", None),
    (influence, "apply_update", "influence.apply_update", None),
    (metrics, "auc", "metrics.auc", _scored_rows),
    (metrics, "prauc", "metrics.prauc", None),
    (metrics, "log_loss", "metrics.log_loss", None),
    (harness, "run_online", "harness.run_online", None),
)
# Spans the workloads open themselves, around their calls into ``cli.main``.
CLI_SPANS = ("cli.generate", "cli.update", "cli.evaluate")
SPAN_NAMES = sorted({w[2] for w in WRAPS} | set(CLI_SPANS))


def install(rec: Recorder) -> None:
    """Wrap every traced function; ``rec.uninstall()`` undoes it."""
    for owner, attr, name, observe in WRAPS:
        rec.wrap(owner, attr, name, observe)


def _op_metrics(spans: list[Span], self_t: dict[int, float]) -> dict:
    """Sums and counts over the spans of one op."""
    m: dict[str, float] = defaultdict(float)
    for name in SPAN_NAMES:
        m[name + "_s"] = m[name + "_calls"] = 0.0
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        m[s.name + "_s"] += s.dur
        m[s.name + "_calls"] += 1
        children[s.parent].append(s)
        if s.error:
            m[s.name.split(".")[0] + ".errors"] += 1
    solves = [s for s in spans if s.name in SOLVE_SPANS]
    m["solvers.solve_s"] = sum(s.dur for s in solves)
    m["solvers.self_s"] = sum(self_t[s.sid] for s in solves)
    done = [s for s in solves if s.attrs]
    m["solvers.iterations"] = sum(s.attrs["iterations"] for s in done)
    for name, key in (("solvers.cg_solve", "solvers.cg_iterations"),
                      ("solvers.sq_solve", "solvers.sq_epochs")):
        m[key] = sum(s.attrs["iterations"] for s in done if s.name == name)
    m["solvers.converged_frac"] = (
        sum(bool(s.attrs.get("converged")) for s in solves) / len(solves)
        if solves else 0.0)
    first = next((s.attrs["residual_rel"] for s in done
                  if s.attrs["residual_rel"] is not None), None)
    m["solvers.residual_reported"] = 0.0 if first is None else first
    # Full-pass equivalents: a matvec is one; minibatch rows are summed per
    # operator size first, so whole epochs come out as whole numbers.
    batch_rows: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == "solvers.matvec_batch" and s.attrs:
            batch_rows[s.attrs["n"]] += s.attrs["rows"]
    m["solvers.hvp_equiv"] = m["solvers.matvec_calls"] + sum(
        rows / n for n, rows in batch_rows.items())
    hvps = [s for s in spans if s.name == "models.hvp" and s.attrs]
    m["models.hvp_rows"] = sum(s.attrs["rows"] for s in hvps)
    m["models.hvp_gflop"] = sum(s.attrs["flops"] for s in hvps) / 1e9
    m["models.state_mb"] = max(
        (s.attrs["state_bytes"] / 1e6 for s in spans
         if s.name == "solvers.operator_build" and s.attrs), default=0.0)
    m["influence.rhs_rows"] = sum(
        s.attrs["rows"] for s in spans
        if s.name == "influence.build_rhs" and s.attrs)
    m["metrics.rows"] = sum(
        s.attrs["rows"] for s in spans if s.name == "metrics.auc" and s.attrs)
    for prefix, names in (("influence", ("influence.delta_total",)),
                          ("harness", ("harness.run_online",)),
                          ("cli", CLI_SPANS)):
        m[prefix + ".self_s"] = sum(
            self_t[s.sid] for s in spans if s.name in names)
    epochs = best = 0
    for s in spans:
        if s.name != "training.train":
            continue
        losses = [c.attrs["value"] for c in children[s.sid]
                  if c.name == "metrics.log_loss" and c.attrs]
        if not losses:  # failed before its first validation pass
            continue
        epochs += len(losses) - 1
        best += min(range(len(losses)), key=losses.__getitem__)
    m["training.epochs"] = epochs
    m["training.useful_epoch_frac"] = best / epochs if epochs else 0.0
    return m


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (percentile, value). With 20 samples or fewer no percentile
    above the median qualifies, and the median is returned.
    """
    n = len(values)
    if n <= 20:
        return 50.0, statistics.median(values)
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def per_layer(rec: Recorder) -> tuple[dict[str, float], list[dict]]:
    """Per-op medians of every span sum and count, plus run-wide figures.

    Also returns each op's own figures, so that the caller can check that
    counts repeat from op to op.
    """
    self_t = rec.self_times()
    by_op = {op: spans for op, spans in rec.by_op().items() if op >= 0}
    ops = [_op_metrics(spans, self_t) for _, spans in sorted(by_op.items())]
    keys = set().union(*ops)
    out = {k: statistics.median(o.get(k, 0.0) for o in ops) for k in keys}
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(o.get(f"{layer}.errors", 0) for o in ops)
    totals = [s.dur for s in rec.spans if s.name == "influence.delta_total"]
    out["influence.delta_total_samples"] = len(totals)
    out["influence.delta_total_s"] = statistics.median(totals) if totals else 0.0
    out["influence.delta_total_tail_pct"], out["influence.delta_total_tail_s"] = (
        tail(totals) if totals else (50, 0.0))
    out["trace.spans_per_op"] = statistics.median(
        len(spans) for spans in by_op.values())
    return out, ops

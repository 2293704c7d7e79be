"""Binary cross-entropy models: ReLU MLPs, with logistic regression as the
MLP without hidden layers.

Parameters live in one flat float64 vector, laid out layer by layer as the
row-major weight matrix followed by the bias vector. Gradients and exact
Hessian-vector products (HVPs) share a cached forward/backward state so
that repeated HVPs at a frozen parameter vector skip the forward pass.
Gauss-Newton products, which updates solve with, read a cache of the
logit Jacobian's layer factors instead: one matmul per layer each way,
in the cache's precision, float64 or float32. Every array, a batch-sized
sweep or a parameter-sized vector, is built by plain expressions; none is
written into in place, but a float32 factor cache, which its build fills
block by block before handing it out.

Predictions, training and both caches read one forward sweep and one
clamp rule: logits are clamped to ``[-LOGIT_CLAMP, LOGIT_CLAMP]`` and
probabilities clipped to ``[PROB_CLIP, 1 - PROB_CLIP]``; derivatives are
zero where a clamp binds, so gradients stay consistent with the coded
loss. The L2 penalty ``(l2_coeff / 2) * sum(W**2)`` covers weight matrices
only, never biases.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataFormatError, decode, reading, require,
                     writing)
from .optim import keyed_rng

LOGIT_CLAMP = 30.0
PROB_CLIP = 1e-7

_CHECKPOINT_MAGIC = b"DFC1"


@dataclass(frozen=True)
class Mlp:
    """A ReLU MLP; ``hidden_dims == ()`` is logistic regression."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    l2_coeff: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        require("in [1, 2**63)", input_dim=self.input_dim,
                hidden_dims=self.hidden_dims)
        require("addressable as float64",
                **{"the parameter count of input_dim and hidden_dims":
                   num_params(self)})
        require("non-negative", l2_coeff=self.l2_coeff)


ModelSpec = Mlp


def LogisticRegression(input_dim: int, l2_coeff: float = 0.0) -> Mlp:
    """Logistic regression: the MLP without hidden layers."""
    return Mlp(input_dim, (), l2_coeff)


def layer_shapes(spec: ModelSpec) -> list[tuple[int, int]]:
    """(out_dim, in_dim) per layer, ending with the scalar output layer."""
    dims = [spec.input_dim, *spec.hidden_dims, 1]
    return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


def num_params(spec: ModelSpec) -> int:
    return sum(o * i + o for o, i in layer_shapes(spec))


def unpack_params(
    spec: ModelSpec, theta: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into the flat vector, no copies."""
    if theta.shape != (num_params(spec),):
        raise ConfigError(
            f"parameter vector has shape {theta.shape}, "
            f"expected ({num_params(spec)},)"
        )
    out = []
    pos = 0
    for o, i in layer_shapes(spec):
        w = theta[pos : pos + o * i].reshape(o, i)
        pos += o * i
        b = theta[pos : pos + o]
        pos += o
        out.append((w, b))
    return out


def pack_params(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """He-uniform hidden layers, Xavier-uniform output, zero biases.

    Without hidden layers (logistic regression) the start is the zero
    vector: the BCE objective is convex, so no symmetry breaking is needed.
    """
    if not spec.hidden_dims:
        return np.zeros(num_params(spec))
    rng = keyed_rng(seed)
    shapes = layer_shapes(spec)
    layers = []
    for idx, (o, i) in enumerate(shapes):
        if idx < len(shapes) - 1:
            limit = np.sqrt(6.0 / i)
        else:
            limit = np.sqrt(6.0 / (i + o))
        w = rng.uniform(-limit, limit, size=(o, i))
        layers.append((w, np.zeros(o)))
    return pack_params(layers)


def predict(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conversion probabilities in [PROB_CLIP, 1 - PROB_CLIP] of an
    ``(n, input_dim)`` feature batch, one per row."""
    return _link(_sweep(spec, params, np.asarray(x, dtype=np.float64))[2])[0]


@dataclass(frozen=True)
class BatchState:
    """Forward and backward quantities at a frozen parameter vector.

    ``inputs[l]`` feeds layer ``l`` (``inputs[0]`` is the feature batch;
    after it, each is a ReLU output, positive exactly where its unit is
    active), and ``deltas[l]`` is the per-sample loss derivative w.r.t.
    layer ``l``'s pre-activation. ``h`` is the per-sample second
    derivative of the loss in the logit. Rows can be sliced to evaluate
    minibatch HVPs against the cached full-batch state.
    """

    inputs: list[np.ndarray]
    deltas: list[np.ndarray]
    h: np.ndarray
    losses: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs[0].shape[0]


@dataclass(frozen=True)
class GgnFactors:
    """The logit Jacobian ``J`` at a frozen parameter vector, by layer.

    ``jacobians[l]`` is the logit's derivative in hidden layer ``l``'s
    pre-activation, ReLU mask folded in (the output layer's is 1). Row
    ``r`` of ``J`` is ``jacobians[l][r]`` outer ``inputs[l][r]`` for each
    layer's weights and ``jacobians[l][r]`` for its biases.
    """

    inputs: list[np.ndarray]
    jacobians: list[np.ndarray]
    h: np.ndarray


def _check_features(spec: ModelSpec, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ConfigError(f"feature batch has shape {x.shape}, expected "
                          f"(n, input_dim) = (n, {spec.input_dim})")


def _sweep(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """The forward sweep of :func:`predict`, :func:`build_state` and
    :func:`build_ggn_factors`: the layers, each layer's input and the
    logits. A hidden layer's ReLU mask is its output's ``> 0``: like the
    pre-activation's, it is false at NaN and at zero of either sign."""
    _check_features(spec, x)
    layers = unpack_params(spec, params)
    inputs = [x]
    z = x
    for w, b in layers[:-1]:
        # A NaN pre-activation propagates through the ReLU.
        z = np.maximum(z @ w.T + b, 0.0)
        inputs.append(z)
    w, b = layers[-1]
    return layers, inputs, (z @ w.T + b)[:, 0]


def _link(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clamp rule: clipped probabilities of the clamped logits, and
    the rows where neither clamp binds."""
    f_raw = 1.0 / (1.0 + np.exp(-np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)))
    smooth = ((np.abs(logits) < LOGIT_CLAMP) & (f_raw > PROB_CLIP)
              & (f_raw < 1.0 - PROB_CLIP))
    return np.clip(f_raw, PROB_CLIP, 1.0 - PROB_CLIP), smooth


def _check_labels(x: np.ndarray, y: np.ndarray) -> None:
    if y.shape != x.shape[:1]:
        raise ConfigError("label vector length does not match the batch")


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
             y: np.ndarray):
    """The sweep and clamp rule on a labelled batch, with the loss and its
    first two derivatives in the logit: layers, inputs, g, h and losses."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    layers, inputs, logits = _sweep(spec, params, x)
    _check_labels(x, y)
    f, smooth = _link(logits)
    losses = -(y * np.log(f) + (1.0 - y) * np.log1p(-f))
    # Where a clamp binds the coded loss is flat in the logit.
    g = np.where(smooth, f - y, 0.0)
    h = np.where(smooth, f * (1.0 - f), 0.0)
    return layers, inputs, g, h, losses


def _backward(layers, inputs, top: np.ndarray) -> list[np.ndarray]:
    """Send the per-sample logit derivative ``top`` (n, 1) back to every
    layer's pre-activation, through the weights and the ReLU masks, read
    off the hidden outputs ``inputs[1:]``."""
    out = [top]
    for (w, _), z in zip(layers[:0:-1], inputs[:0:-1]):
        out.insert(0, (out[0] @ w) * (z > 0.0))
    return out


def build_state(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> BatchState:
    layers, inputs, g, h, losses = _forward(spec, params, x, y)
    deltas = _backward(layers, inputs, g[:, None])
    return BatchState(inputs, deltas, h, losses)


def _ggn_sweep(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
               y: np.ndarray):
    """The float64 factors of one batch: inputs, jacobians and h."""
    layers, inputs, _, h, _ = _forward(spec, params, x, y)
    ones = np.ones((len(h), 1))
    return inputs, _backward(layers, inputs, ones)[:-1], h


# Rows per block of a float32 factor build, whose float64 temporaries stay
# small beside the cache. Over 29,192 rows at 20-64-64 the build raised
# peak RSS by 33 MB in blocks of 2,048 rows, by 53 MB in blocks of 8,192
# and by 93 MB as one float64 sweep cast afterwards.
FACTOR_BLOCK = 2048


def build_ggn_factors(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
    dtype: type = np.float64,
) -> GgnFactors:
    """The factors of ``(x, y)`` at ``params``, stored as ``dtype``.

    A float64 cache is one sweep over every row, ``x`` itself its first
    input. Any other dtype is swept in blocks of ``FACTOR_BLOCK`` rows,
    each cast into arrays allocated once, so that the cache never has a
    float64 copy of every row beside it. Blocks would change a float64
    cache's bytes: BLAS splits a product's rows between its threads by
    the batch's length, and a row's last bit can follow the split.
    """
    if np.dtype(dtype) == np.float64:
        return GgnFactors(*_ggn_sweep(spec, params, x, y))
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_features(spec, x)
    _check_labels(x, y)
    n = len(x)
    inputs = [x.astype(dtype)]
    inputs += [np.empty((n, width), dtype) for width in spec.hidden_dims]
    jacobians = [np.empty((n, width), dtype) for width in spec.hidden_dims]
    h = np.empty(n, dtype)
    for start in range(0, max(n, 1), FACTOR_BLOCK):
        rows = slice(start, start + FACTOR_BLOCK)
        block, block_jacobians, block_h = _ggn_sweep(spec, params, x[rows],
                                                     y[rows])
        for cache, values in zip(inputs[1:] + jacobians + [h],
                                 block[1:] + block_jacobians + [block_h]):
            cache[rows] = values
    return GgnFactors(inputs, jacobians, h)


def _grad_sum(state: BatchState) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer sums of the per-sample BCE gradients over the batch."""
    return [(delta.T @ x, delta.sum(axis=0))
            for x, delta in zip(state.inputs, state.deltas)]


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean BCE plus L2 penalty, and its gradient, over the batch."""
    state = build_state(spec, params, x, y)
    layers = unpack_params(spec, params)
    reg = 0.5 * spec.l2_coeff * sum(float(np.sum(w * w)) for w, _ in layers)
    loss = float(np.mean(state.losses)) + reg
    grad = pack_params([(dw / state.n + spec.l2_coeff * w, db / state.n)
                        for (dw, db), (w, _) in zip(_grad_sum(state), layers)])
    return loss, grad


def bce_grad_sum(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Sum of per-sample BCE gradients, excluding the L2 penalty."""
    return pack_params(_grad_sum(build_state(spec, params, x, y)))


def hvp_from_state(
    spec: ModelSpec,
    params: np.ndarray,
    state: BatchState,
    v: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Exact Hessian-vector product via a forward-over-reverse sweep.

    Uses the cached state at the parameters it was built with; ``rows``
    restricts the product to a subset of the cached batch (the mean is
    then over that subset), and None selects every cached row. The ReLU
    second derivative vanishes almost everywhere, so only the activity
    masks are needed, read off the cached hidden outputs. Updates solve
    with :func:`ggn_from_factors` instead; this is the tests' reference.
    """
    layers = unpack_params(spec, params)
    vs = unpack_params(spec, v)

    if rows is None:
        rows = slice(None)  # a view of every row, not a copy
    inputs = [arr[rows] for arr in state.inputs]
    masks = [z > 0.0 for z in inputs[1:]]
    # deltas[0] is not read: it pairs with the all-zero input tangent.
    deltas = [np.empty(0)] + [arr[rows] for arr in state.deltas[1:]]
    h = state.h[rows]
    n = inputs[0].shape[0]

    # Forward sweep: directional derivatives of activations. The input
    # layer's tangent is zero, so its products with it are skipped.
    r_inputs: list[np.ndarray] = [np.empty(0)]
    for l, ((w_l, _), (vw_l, vb_l)) in enumerate(zip(layers, vs)):
        if l == 0:
            ra = inputs[0] @ vw_l.T + vb_l
        else:
            ra = r_inputs[l] @ w_l.T + inputs[l] @ vw_l.T + vb_l
        if l < len(layers) - 1:
            r_inputs.append(ra * masks[l])

    # Reverse sweep: directional derivatives of the deltas.
    r_deltas = [np.empty(0)] * len(layers)
    r_deltas[-1] = ra * h[:, None]
    for l in range(len(layers) - 1, 0, -1):
        r_deltas[l - 1] = ((r_deltas[l] @ layers[l][0] + deltas[l] @ vs[l][0])
                           * masks[l - 1])

    out = []
    for l, (vw_l, _) in enumerate(vs):
        rdw = r_deltas[l].T @ inputs[l]
        if l > 0:
            rdw = rdw + deltas[l].T @ r_inputs[l]
        out.append((rdw / n + spec.l2_coeff * vw_l,
                    r_deltas[l].sum(axis=0) / n))
    return pack_params(out)


def ggn_from_factors(
    spec: ModelSpec,
    factors: GgnFactors,
    v: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Gauss-Newton-vector product ``J^T Diag(h) J v / n`` plus the L2 term.

    ``rows`` selects cached rows as in :func:`hvp_from_state`. ``s = J v``
    and each layer's share of ``J^T (h s / n)`` take one matmul per layer:
    the factor times ``V`` row-dotted with the input, then the factor's
    transpose times the input scaled by ``s``. The product is computed,
    and returned, in the cache's dtype.
    """
    vs = unpack_params(spec, v.astype(factors.h.dtype, copy=False))
    rows = slice(None) if rows is None else rows  # None: a view, no copy
    inputs = [arr[rows] for arr in factors.inputs]
    jacobians = [arr[rows] for arr in factors.jacobians]

    # The output layer's factor is 1.
    s = inputs[-1] @ vs[-1][0][0] + vs[-1][1]
    for in_l, d_l, (vw, vb) in zip(inputs, jacobians, vs):
        s = s + np.einsum("ij,ij->i", d_l @ vw, in_l) + d_l @ vb
    h = factors.h[rows]
    s = s * (h / len(h))

    out = [(d_l.T @ (in_l * s[:, None]) + spec.l2_coeff * vw, s @ d_l)
           for in_l, d_l, (vw, _) in zip(inputs, jacobians, vs)]
    vw, _ = vs[-1]
    out.append(((s @ inputs[-1])[None] + spec.l2_coeff * vw,
                s.sum(keepdims=True)))
    return pack_params(out)


def _spec_header(spec: ModelSpec) -> dict:
    """JSON form of a spec, shared by checkpoints and experiment configs.

    A spec without hidden layers is written as ``kind: "logreg"``. The key
    order is the one experiment configs have always been written in;
    checkpoints sort their keys.
    """
    header = {"l2_coeff": spec.l2_coeff, "input_dim": spec.input_dim}
    if not spec.hidden_dims:
        return dict(header, kind="logreg")
    return dict(header, kind="mlp", hidden_dims=list(spec.hidden_dims))


def spec_from_header(header: dict) -> ModelSpec:
    """Inverse of :func:`_spec_header`, and the one reader of a model
    description: checkpoint headers, experiment configs and ``dfcvr
    train`` all build their spec here.

    ``hidden_dims`` must be a list of integers wherever it is given.
    ``"logreg"`` has no hidden layers and ignores its value; ``"mlp"``
    needs at least one. Raises :class:`ConfigError`.
    """
    try:
        kind = header["kind"]
        if kind not in ("logreg", "mlp"):
            raise ConfigError(f"unknown model kind {kind!r}")
        hidden = decode(tuple[int, ...], header.get("hidden_dims", ()),
                        "hidden_dims")
        if kind == "mlp" and not hidden:
            raise ConfigError('model kind "mlp" needs at least one hidden '
                              'width; kind "logreg" has none')
        return Mlp(decode(int, header["input_dim"], "input_dim"),
                   hidden if kind == "mlp" else (),
                   decode(float, header["l2_coeff"], "l2_coeff"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model header: {exc}") from None


def save_checkpoint(path: str, spec: ModelSpec, params: np.ndarray) -> None:
    """Binary checkpoint: magic, JSON header, float64 little-endian params."""
    if params.shape != (num_params(spec),):
        raise ConfigError("parameter vector does not match the model spec")
    header = dict(_spec_header(spec), num_params=int(num_params(spec)))
    blob = json.dumps(header, sort_keys=True).encode()
    with writing(path), open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ModelSpec, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`DataFormatError` for an unreadable, truncated or
    corrupt file and for parameters that are not all finite.
    """
    with reading(path), open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a model checkpoint")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataFormatError(f"{path}: truncated header")
        (blob_len,) = struct.unpack("<I", raw_len)
        try:
            header = json.loads(fh.read(blob_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: corrupt header: {exc}") from None
        try:
            spec = spec_from_header(header)
        except ConfigError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
        payload = fh.read()
    expected = num_params(spec)
    if header.get("num_params") != expected or len(payload) != 8 * expected:
        raise DataFormatError(
            f"{path}: parameter payload does not match the declared model"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise DataFormatError(f"{path}: parameters contain non-finite values")
    return spec, params

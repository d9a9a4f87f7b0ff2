"""Dense feedforward model, combined backpropagation, and mini-batch SGD.

The model is a chain of fully connected layers (the fixed layout is on
``Model``) whose final output Z feeds the auto-clustering head.
Each training step combines the supervised parent-label gradient with the
activity-regularization gradient, the latter masked by the relu indicator
so that entries with Z <= 0 receive no regularization signal.

Per-batch convention: the supervised loss is averaged over the batch, the
affinity/balance ratios are scale-normalized batch statistics as defined,
and the squared-Frobenius term is divided by the batch size so its
coefficient keeps the same meaning across batch sizes.

Checkpoint container: an ASCII header (the tag line, then one ``key = value``
line per ``CheckpointHeader`` field, written and read by the config format's
``serialize_config`` and ``parse_config``, then a blank line) followed by raw
little-endian float64 blocks, one per layer in order, weights (row-major)
then bias.
"""

import ctypes
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import datasets, evaluation
from .config import ExperimentConfig, _key, check_fields, parse_config, serialize_config
from .head import AcolHead, head_forward, supervised_grad
from .regularizers import gar_value_and_grad

CHECKPOINT_TAG = "acol checkpoint v3"


@dataclass(frozen=True)
class CheckpointHeader:
    """The header lines after the tag, in the order written; checked when made."""

    layer_sizes: tuple = _key("layer_sizes", rule=(">=", 1))
    feature_scale: float = _key("feature_scale", rule=(">", 0))
    n_parents: int = _key("n_parents")  # with k, checked by the rules of ``head``
    k: int = _key("k")
    seed: int = _key("seed", rule=(">=", 0))
    epoch: int = _key("epoch", rule=(">=", 0))

    def __post_init__(self) -> None:
        check_fields(self)
        check_layer_sizes(self.layer_sizes, self.head.n)

    @cached_property
    def head(self) -> AcolHead:
        """The model's head, made once; ``AcolHead`` holds the rules of n_parents and k."""
        return AcolHead(self.n_parents, self.k)


def check_layer_sizes(sizes, n: int) -> None:
    """The layer-size rules of a model and of its checkpoint: an input and an
    output size at least, and a last layer as wide as the head's n nodes."""
    if len(sizes) < 2:
        raise ValueError(f"layer_sizes needs at least 2 entries, got {len(sizes)}")
    if sizes[-1] != n:
        raise ValueError(f"header mismatch, last layer {sizes[-1]} vs head n {n}")


@dataclass
class DenseLayer:
    """One layer's weights and bias, or their gradients or momentum velocity."""

    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)


@dataclass
class Model:
    """A dense chain whose layout is fixed: every layer but the last is
    relu, and the last is linear and produces Z."""

    layers: list[DenseLayer]
    head: AcolHead
    rng_seed: int
    feature_scale: float = 1.0  # the input multiplier, applied by forward()

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].weights.shape[0]] + [l.weights.shape[1] for l in self.layers]


@dataclass
class EpochRecord:
    epoch: int
    sup_loss: float
    affinity: float
    balance: float
    frobenius: float
    train_parent_acc: float
    val_parent_acc: float


@dataclass
class TrainReport:
    records: list[EpochRecord]
    selected_epoch: int


def init_model(layer_sizes, head: AcolHead, seed: int) -> Model:
    """Uniform Glorot initialization, biases zero, fully seed-deterministic.

    ``layer_sizes`` runs from the input dimension to the head width n, the
    width of Z (see ``Model`` for the layout). Every duplicate column is
    drawn independently so random initialization breaks the symmetry
    between a parent's k nodes.
    """
    sizes = [int(s) for s in layer_sizes]
    check_layer_sizes(sizes, head.n)
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            DenseLayer(weights=rng.uniform(-scale, scale, size=(fan_in, fan_out)), bias=np.zeros(fan_out))
        )
    return Model(layers=layers, head=head, rng_seed=seed)


@dataclass
class LayerBuffers:
    """Scratch that lives for a run, made by ``layer_buffers``."""

    x: np.ndarray                  # (rows, d): the converted input rows
    outputs: list[np.ndarray]      # (rows, width) per layer output, and per hidden layer's gradient
    grads: list[DenseLayer]        # per layer, its weight and bias gradient, for backward()


def layer_buffers(model: Model, rows: int, gradients: bool = True) -> LayerBuffers:
    """Buffers ``rows`` deep for ``model``: one per layer output, which backward
    reuses for that layer's gradient; without ``gradients``, no weight and bias
    gradients are made."""
    sizes, layers = model.layer_sizes, (model.layers if gradients else [])
    return LayerBuffers(
        x=np.empty((rows, sizes[0])),
        outputs=[np.empty((rows, w)) for w in sizes[1:]],
        grads=[DenseLayer(np.empty_like(l.weights), np.empty_like(l.bias)) for l in layers],
    )


def forward(model: Model, x, buffers=None) -> list[np.ndarray]:
    """Outputs of the layer chain, ``[X, a_1, ..., Z]``: everything backward() needs.

    ``X`` is the input times ``model.feature_scale``, the one place the
    scale is applied. Each layer's output is computed in one buffer: ``a @ W``,
    then the bias added and relu applied in place. That buffer is a new array,
    or the leading rows of ``buffers.outputs[i]``.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {a.shape}")
    if a.shape[1] != model.layers[0].weights.shape[0]:
        raise ValueError(
            f"input has {a.shape[1]} features, first layer expects {model.layers[0].weights.shape[0]}"
        )
    if model.feature_scale != 1.0:
        a = a * model.feature_scale
    outputs = [a]
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        a = np.matmul(a, layer.weights, out=None if buffers is None else buffers.outputs[i][: len(a)])
        a += layer.bias
        if i < last:
            np.maximum(0.0, a, out=a)
        outputs.append(a)
    return outputs


def backward(model: Model, outputs, d_z, buffers=None) -> list[DenseLayer]:
    """Backpropagate d_z (gradient at Z) through the layer outputs of forward().

    The caller passes the outputs of one forward() of this model and a d_z
    shaped like Z, which is left as it is. A relu output is > 0 exactly where
    its pre-activation is, so its mask, taken once its weight gradient is
    formed, is applied in place to the gradient at that output: a new array,
    or with ``buffers`` the output's own buffer, so the hidden outputs are
    consumed and the input rows and Z are left as they were. The parameter
    gradients are new ``DenseLayer``s, or ``buffers.grads`` written in place.
    Gradients are unnormalized: any 1/batch factors must already be inside
    d_z. The gradient at the model input is not formed.
    """
    d_out = d_z
    grads = [DenseLayer(None, None) for _ in model.layers] if buffers is None else buffers.grads
    for i in reversed(range(len(model.layers))):
        a_in, g = outputs[i], grads[i]
        g.weights = np.matmul(a_in.T, d_out, out=g.weights)
        g.bias = np.sum(d_out, axis=0, out=g.bias)
        if i > 0:
            mask = a_in > 0
            d_out = np.matmul(d_out, model.layers[i].weights.T,
                              out=None if buffers is None else buffers.outputs[i - 1][: len(d_out)])
            np.multiply(d_out, mask, out=d_out)
    return grads


def combined_step(model: Model, x, t, cfg: ExperimentConfig, buffers=None):
    """One forward/backward evaluation of the combined objective, weighted by
    ``cfg``'s ``gar.*`` values, with ``gar.c_f`` divided by the batch rows;
    ``buffers`` is None or the ``layer_buffers`` to compute in, whose hidden
    outputs backward() then consumes (``x`` and Z are left as they were).

    Returns ``(loss, grads, sums)`` where grads mirror the layer parameters
    and ``sums`` maps each ``EpochRecord`` field a batch feeds to its plain
    Python sum over the batch rows; ``train_parent_acc`` counts the rows whose
    argmax parent under the current parameters equals t. The regularization
    gradient reaches Z only through the relu mask.
    """
    outputs = forward(model, x, buffers)
    z = outputs[-1]
    sup_loss, d_z, parent_probs = supervised_grad(z, t, model.head)
    terms, gar_d_z = gar_value_and_grad(np.maximum(0.0, z), cfg.c_alpha, cfg.c_beta, cfg.c_f / len(x))
    d_z = d_z + gar_d_z * (z > 0)
    grads = backward(model, outputs, d_z, buffers)
    return sup_loss + terms.loss, grads, {
        "sup_loss": sup_loss * len(x),
        "affinity": terms.affinity * len(x),
        "balance": terms.balance * len(x),
        "frobenius": terms.frobenius_sq,  # summed over the rows already
        "train_parent_acc": evaluation.parent_hits(parent_probs, t),
    }


def validation_block(model: Model) -> int:
    """Rows per block of ``forward_rows``: 64 Ki floats at the widest layer
    output, 512 KB, so that a block's activations stay in a core's cache."""
    return max(1, 65536 // max(model.layer_sizes[1:]))


def forward_rows(model: Model, data: datasets.LabeledDataset, buffers=None) -> np.ndarray:
    """Z of every row of ``data``, the one evaluation pass: ``validation_block``
    rows at a time, converted by ``data.features(rows)`` into ``buffers.x`` and
    forwarded through ``buffers`` (at least a block deep; a block-deep set when
    None), so stored uint8 pixels are never converted all at once. The short
    last block's tail is zeroed, so every product has one shape and a row's Z
    does not depend on the rows scored with it."""
    block = validation_block(model)
    buffers = layer_buffers(model, block, gradients=False) if buffers is None else buffers
    x = buffers.x[:block]
    z = np.empty((len(data), model.layer_sizes[-1]))
    for start in range(0, len(data), block):
        rows = len(data.features(slice(start, start + block), x))
        x[rows:] = 0.0
        z[start : start + rows] = forward(model, x, buffers)[-1][:rows]
    return z


def parent_accuracy_of(model: Model, data: datasets.LabeledDataset, buffers=None) -> float:
    """Share of the rows whose pooled argmax parent of ``forward_rows``' Z is t:
    the per-epoch validation pass, which ``bench/spans.py`` times by this name."""
    _, parent_probs = head_forward(forward_rows(model, data, buffers), model.head)
    return evaluation.parent_accuracy(parent_probs, data.t)


def train(model: Model, data: datasets.LabeledDataset, cfg: ExperimentConfig):
    """Mini-batch SGD with momentum on the combined objective.

    ``cfg``'s ``train.*`` and ``gar.*`` values and its seed drive the run.
    Each epoch shuffles the training rows with the seeded stream, walks
    batches of ``cfg.batch_size`` (final short batch included), converts
    each by ``data.features(idx)`` into the run's input buffer, and takes one
    gradient step per batch. When ``cfg.validation_size`` > 0 that many
    examples are split off (seeded) and kept as stored, and each epoch's
    ``parent_accuracy_of`` converts them a block at a time; the returned
    model's layers are then a copy of the parameters from the epoch with the
    highest validation parent accuracy (latest on ties, so the regularizers
    keep refining the latent structure after the supervised task saturates);
    otherwise of the final epoch. The batch features, layer outputs,
    gradients, velocity and snapshot live in arrays made once per run.

    Like the loss columns, an epoch's ``train_parent_acc`` is a running
    value over its batches: the share of training rows whose argmax parent,
    under the parameters their batch was stepped from, equals t. Only the
    validation rows get a pass of their own.

    Raises ``ValueError`` when ``train.validation_size`` leaves no row or
    ``train.batch_size`` exceeds the rows left for training, when a parent
    of the model's head has no training row, naming the epoch and the
    1-based batch when a batch loss is not finite, and naming the layer
    when a parameter is not finite after an epoch.

    Returns ``(model, report)``; the given model is updated in place.
    """
    n_p = model.head.n_parents
    if len(data) == 0:
        raise ValueError("empty dataset")
    if data.t.min() < 1 or data.t.max() > n_p:
        raise ValueError(f"parent labels must lie in 1..{n_p}")

    if cfg.validation_size >= len(data):
        raise ValueError(
            f"train.validation_size must be < {len(data)} (the rows of the data), "
            f"got {cfg.validation_size}"
        )
    m = len(data) - cfg.validation_size
    if cfg.batch_size > m:
        raise ValueError(
            f"train.batch_size must be <= {m} (the rows left for training), got {cfg.batch_size}"
        )
    if cfg.validation_size > 0:
        train_idx, val_idx = datasets.split_validation(len(data), cfg.validation_size, cfg.seed)
        val_data = datasets.LabeledDataset(X=data.X[val_idx], t=data.t[val_idx])
    else:
        train_idx, val_data = np.arange(len(data)), None
    empty = np.flatnonzero(np.bincount(data.t[train_idx], minlength=n_p + 1)[1:] == 0)
    if empty.size:
        raise ValueError(f"head.n_p = {n_p}, but parent {empty[0] + 1} has no training rows")

    rng = np.random.default_rng(cfg.seed)
    buffers = layer_buffers(model, max(cfg.batch_size, validation_block(model)))
    velocity = [
        DenseLayer(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers
    ]
    records: list[EpochRecord] = []
    best_acc = -np.inf
    best_epoch = 0
    best_layers = [DenseLayer(l.weights.copy(), l.bias.copy()) for l in model.layers]
    x = grads = None  # the last step's batch and gradients, in the buffers; freed before the trim

    for epoch in range(1, cfg.epochs + 1):
        order = train_idx[rng.permutation(m)]
        totals = {}
        # a diverging step overflows; the two finiteness checks report it
        with np.errstate(over="ignore", invalid="ignore"):
            for batch, start in enumerate(range(0, m, cfg.batch_size), start=1):
                idx = order[start : start + cfg.batch_size]
                x = data.features(idx, buffers.x)
                loss, grads, sums = combined_step(model, x, data.t[idx], cfg, buffers)
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged: epoch {epoch}, batch {batch} has loss {loss}"
                    )
                # in place, with the rounding of v = momentum * v - lr * g
                for layer, vel, g in zip(model.layers, velocity, grads):
                    vel.weights *= cfg.momentum
                    g.weights *= cfg.learning_rate
                    vel.weights -= g.weights
                    layer.weights += vel.weights
                    vel.bias *= cfg.momentum
                    g.bias *= cfg.learning_rate
                    vel.bias -= g.bias
                    layer.bias += vel.bias
                for name, value in sums.items():
                    totals[name] = totals.get(name, 0.0) + value
        for i, layer in enumerate(model.layers, start=1):
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
                raise ValueError(f"training diverged: layer {i} is not finite after epoch {epoch}")

        val_acc = parent_accuracy_of(model, val_data, buffers) if val_data is not None else float("nan")
        means = {name: total / m for name, total in totals.items()}
        records.append(EpochRecord(epoch=epoch, **means, val_parent_acc=val_acc))
        if val_data is None or val_acc >= best_acc:
            best_acc, best_epoch = val_acc, epoch
            for best, layer in zip(best_layers, model.layers):
                np.copyto(best.weights, layer.weights)
                np.copyto(best.bias, layer.bias)

    model.layers = best_layers
    # glibc keeps the pages of freed arrays in its heap; whether the caller's
    # next, larger array reuses them depends on the heap's layout, so the peak
    # memory would move from run to run.
    del val_data, buffers, grads, x, velocity
    if sys.platform == "linux":
        getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)(0)
    return model, TrainReport(records=records, selected_epoch=best_epoch)


def save_checkpoint(model: Model, path, epoch: int = 0) -> None:
    """Write the documented header-plus-float64-blocks container."""
    header = CheckpointHeader(tuple(model.layer_sizes), float(model.feature_scale), int(model.head.n_parents),
                              int(model.head.k), int(model.rng_seed), int(epoch))
    with datasets.artifact(path, "wb") as f:
        f.write(f"{CHECKPOINT_TAG}\n{serialize_config(header)}\n".encode("ascii"))
        for layer in model.layers:
            f.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns ``(model, epoch)``.

    Validates the tag, the header (``parse_config`` into a ``CheckpointHeader``),
    the payload length, and parameter finiteness.
    """
    with open(str(path), "rb") as f:
        blob = f.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing checkpoint header terminator")
    # a non-ASCII byte reads as a backslash escape, so its value is rejected by line and key
    tag, _, text = blob[:sep].decode("ascii", "backslashreplace").partition("\n")
    if tag != CHECKPOINT_TAG:
        raise ValueError(f"{path}: not a checkpoint file (missing '{CHECKPOINT_TAG}')")
    try:
        header = parse_config("\n" + text, CheckpointHeader)  # the tag is line 1
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    sizes, head = header.layer_sizes, header.head

    payload = blob[sep + 2 :]
    expected = sum((fi + 1) * fo for fi, fo in zip(sizes[:-1], sizes[1:])) * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: parameter payload is {len(payload)} bytes, expected {expected}")
    params = np.frombuffer(payload, dtype="<f8")
    layers, offset = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]), 1):
        weights = params[offset : offset + fan_in * fan_out]
        bias = params[offset + fan_in * fan_out : offset + (fan_in + 1) * fan_out]
        offset += (fan_in + 1) * fan_out
        for name, block in (("weights", weights), ("bias", bias)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{path}: layer {i} {name} contains non-finite entries")
        layers.append(DenseLayer(weights=weights.reshape(fan_in, fan_out).copy(), bias=bias.copy()))
    return Model(layers=layers, head=head, rng_seed=header.seed, feature_scale=header.feature_scale), header.epoch

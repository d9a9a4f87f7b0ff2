"""Model init, forward/backward, training loop, checkpoint container."""

import copy
import dataclasses
import math
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acol.config import ExperimentConfig, parse_config, serialize_config
from acol.datasets import (
    LabeledDataset,
    images_to_features,
    pool_to_dataset,
    split_validation,
    synthetic_blobs,
    write_idx_images,
    write_idx_labels,
)
from acol import cli, evaluation, network
from acol.head import AcolHead, head_forward, supervised_grad
from acol.network import (
    CHECKPOINT_TAG,
    CheckpointHeader,
    DenseLayer,
    EpochRecord,
    Model,
    backward,
    combined_step,
    forward,
    init_model,
    load_checkpoint,
    parent_accuracy_of,
    save_checkpoint,
    train,
)
from acol.regularizers import gar_value_and_grad


def small_model(seed=0, sizes=(3, 5, 4), n_p=2, k=2):
    head = AcolHead(n_p, k)
    assert sizes[-1] == head.n
    return init_model(list(sizes), head, seed)


# --- initialization ---------------------------------------------------------


def test_init_deterministic_and_glorot_bounded():
    a = small_model(seed=9)
    b = small_model(seed=9)
    c = small_model(seed=10)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)
    for layer in a.layers:
        fan_in, fan_out = layer.weights.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.weights) <= bound)
        assert np.array_equal(layer.bias, np.zeros(fan_out))


def test_init_activations_and_sizes():
    model = init_model([4, 8, 6, 6], AcolHead(2, 3), seed=0)
    outputs = forward(model, np.random.default_rng(0).normal(size=(50, 4)))
    assert all((a >= 0).all() for a in outputs[1:-1]) and (outputs[-1] < 0).any()
    assert model.layer_sizes == [4, 8, 6, 6]
    with pytest.raises(ValueError, match="head.n"):
        init_model([4, 5], AcolHead(2, 3), seed=0)
    with pytest.raises(ValueError, match="at least"):
        init_model([4], AcolHead(2, 2), seed=0)


def test_init_duplicate_columns_differ():
    # symmetry breaking: the k duplicate columns of a parent must not be equal
    model = init_model([3, 4], AcolHead(2, 2), seed=0)
    w = model.layers[0].weights
    assert not np.allclose(w[:, 0], w[:, 2])
    assert not np.allclose(w[:, 1], w[:, 3])


# --- forward ----------------------------------------------------------------


def test_forward_hand_computation():
    head = AcolHead(2, 1)
    model = Model(
        layers=[
            DenseLayer(
                weights=np.array([[1.0, -1.0], [0.5, 2.0]]),
                bias=np.array([0.0, -1.0]),
            ),
            DenseLayer(
                weights=np.array([[2.0, 0.0], [1.0, -1.0]]),
                bias=np.array([0.5, 0.0]),
            ),
        ],
        head=head,
        rng_seed=0,
    )
    x = np.array([[1.0, 2.0]])
    # hidden pre = [2.0, 2.0], relu -> [2.0, 2.0]; z = [2*2+2*1+0.5, -2.0]
    outputs = forward(model, x)
    assert len(outputs) == 3 and outputs[0] is x
    assert np.allclose(outputs[1], np.array([[2.0, 2.0]]))
    assert np.allclose(outputs[2], np.array([[6.5, -2.0]]))


def test_forward_rejects_wrong_feature_count():
    """Where data first meets a model: the one check of the feature count."""
    model = small_model(sizes=(4, 5, 4))
    with pytest.raises(ValueError) as err:
        forward(model, np.zeros((2, 9)))
    assert str(err.value) == "input has 9 features, first layer expects 4"


def test_forward_rejects_other_ranks_and_coerces_to_float64():
    model = small_model(sizes=(4, 5, 4))
    for x, shape in ((np.ones(4), "(4,)"), (np.ones((2, 4, 2)), "(2, 4, 2)")):
        with pytest.raises(ValueError) as err:
            forward(model, x)
        assert str(err.value) == f"X must be 2-D, got shape {shape}"
    assert forward(model, [[1, 2, 3, 4]])[0].dtype == np.float64


def _reference_outputs(model, x):
    """Out-of-place ``relu(a @ W + b)`` chain: the outputs forward() must give."""
    outputs = [x]
    for i, layer in enumerate(model.layers):
        pre = outputs[-1] @ layer.weights + layer.bias
        outputs.append(np.maximum(0.0, pre) if i < len(model.layers) - 1 else pre)
    return outputs


def test_forward_equals_out_of_place_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for seed, sizes in enumerate([(3, 5, 4), (6, 9, 7, 4), (2, 4), (5, 16, 6)]):
        head = AcolHead(2, sizes[-1] // 2)
        model = init_model(list(sizes), head, seed)
        for layer in model.layers:
            layer.bias = rng.normal(size=layer.bias.shape)
        x = rng.normal(size=(40, sizes[0]))
        x[::3] = 0.0  # whole rows of exact zeros
        x[1::4, 0] = 0.0
        x[2::5] *= -1.0
        x_before = x.copy()
        expected = _reference_outputs(model, x)
        got = forward(model, x)
        assert np.array_equal(x, x_before)
        assert len(got) == len(expected) == len(sizes)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("rows, depth", [(32, 32), (13, 32), (32, 80)])
def test_forward_and_backward_in_layer_buffers_equal_them_without(rows, depth):
    """A full batch, a short one, and a buffer deeper than the batch: the run's
    buffers change where outputs and gradients live, not one bit of them.
    Backward through them writes each hidden gradient over its layer's
    output and leaves the input rows, Z and the caller's d_z as they were;
    without them it writes into none of the caller's arrays. The weight and
    bias gradients are written into the run's ``DenseLayer`` buffers, byte
    for byte the new arrays of an unbuffered pass, however often they are
    written."""
    rng = np.random.default_rng(rows + depth)
    model = init_model([6, 40, 24, 8], AcolHead(2, 4), seed=3)
    for layer in model.layers:
        layer.bias = rng.normal(size=layer.bias.shape)
    buffers = network.layer_buffers(model, depth)
    for _ in range(2):
        x, d_z = rng.normal(size=(rows, 6)), rng.normal(size=(rows, 8))
        got, want = forward(model, x, buffers), forward(model, x)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert all(np.shares_memory(a, buf) for a, buf in zip(got[1:], buffers.outputs))
        kept = [a.copy() for a in (x, got[-1], d_z, *want)]
        got_grads, want_grads = backward(model, got, d_z, buffers), backward(model, want, d_z)
        assert got[0] is x
        assert [a.tobytes() for a in (x, got[-1], d_z, *want)] == [a.tobytes() for a in kept]
        assert [(g.weights.tobytes(), g.bias.tobytes()) for g in got_grads] == [
            (g.weights.tobytes(), g.bias.tobytes()) for g in want_grads
        ]
        assert all(g is buf for g, buf in zip(got_grads, buffers.grads))


# --- backward ---------------------------------------------------------------


def test_backward_single_linear_layer_closed_form():
    head = AcolHead(2, 1)
    model = init_model([3, 2], head, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    d_z = rng.normal(size=(6, 2))
    grads = backward(model, forward(model, x), d_z)
    assert np.allclose(grads[0].weights, x.T @ d_z, atol=1e-12)
    assert np.allclose(grads[0].bias, d_z.sum(axis=0), atol=1e-12)


def _frozen_pre_activation_backward(model, caches, d_z):
    """backward() as it was when the cache held each layer's (input,
    pre-activation) pair and the relu mask was ``pre > 0``."""
    grads = [None] * len(model.layers)
    d_out = d_z
    for i in reversed(range(len(model.layers))):
        a_in, pre = caches[i]
        d_pre = d_out * (pre > 0) if i < len(model.layers) - 1 else d_out
        grads[i] = (a_in.T @ d_pre, d_pre.sum(axis=0))
        if i > 0:
            d_out = d_pre @ model.layers[i].weights.T
    return grads


def test_backward_on_outputs_equals_pre_activation_backward_bit_for_bit():
    rng = np.random.default_rng(21)
    for seed, sizes in enumerate([(3, 5, 4), (6, 9, 7, 4), (2, 4), (5, 16, 8, 6)]):
        head = AcolHead(2, sizes[-1] // 2)
        model = init_model(list(sizes), head, seed)
        for layer in model.layers:
            layer.bias = rng.normal(size=layer.bias.shape)
        x = rng.normal(size=(40, sizes[0]))
        x[::3] = 0.0
        d_z = rng.normal(size=(40, sizes[-1]))
        d_z[::5] = 0.0
        outputs, pres = [x], []
        for i, layer in enumerate(model.layers):
            pre = outputs[-1] @ layer.weights + layer.bias
            pre[::4, :2] = 0.0  # exact zeros of both signs in every layer
            pre[1::4, :2] = -0.0
            pres.append(pre)
            outputs.append(np.maximum(0.0, pre) if i < len(model.layers) - 1 else pre)
        expected = _frozen_pre_activation_backward(model, list(zip(outputs, pres)), d_z)
        got = backward(model, outputs, d_z)
        for g, (w, b) in zip(got, expected):
            assert np.array_equal(g.weights, w) and np.array_equal(np.signbit(g.weights), np.signbit(w))
            assert np.array_equal(g.bias, b) and np.array_equal(np.signbit(g.bias), np.signbit(b))
        # on a chain forward() computes itself, the frozen path agrees too
        outputs = forward(model, x)
        pres = [a @ l.weights + l.bias for a, l in zip(outputs, model.layers)]
        expected = _frozen_pre_activation_backward(model, list(zip(outputs, pres)), d_z)
        for g, (w, b) in zip(backward(model, outputs, d_z), expected):
            assert np.array_equal(g.weights, w) and np.array_equal(g.bias, b)


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    cfg = ExperimentConfig(c_alpha=0.1, c_beta=0.1, c_f=0.0003)
    for trial in range(5):
        n_p = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        head = AcolHead(n_p, k)
        sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), head.n]
        model = init_model(sizes, head, seed=trial)
        m = int(rng.integers(3, 9))
        x = rng.normal(size=(m, sizes[0]))
        t = rng.integers(1, n_p + 1, size=m)
        _, grads, _ = combined_step(model, x, t, cfg)
        eps = 1e-6
        for layer, g in zip(model.layers, grads):
            for arr, garr in ((layer.weights, g.weights), (layer.bias, g.bias)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + eps
                    lp = combined_step(model, x, t, cfg)[0]
                    arr[idx] = old - eps
                    lm = combined_step(model, x, t, cfg)[0]
                    arr[idx] = old
                    fd = (lp - lm) / (2 * eps)
                    if abs(fd) < 1e-8 and abs(garr[idx]) < 1e-8:
                        continue
                    assert garr[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_regularizer_gradient_respects_relu_mask():
    # with no supervised signal possible to isolate, compare combined_step
    # against supervised-only: the difference must vanish wherever z <= 0
    head = AcolHead(2, 2)
    model = init_model([3, head.n], head, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    t = rng.integers(1, 3, size=6)
    z = forward(model, x)[-1]
    cfg = ExperimentConfig(c_alpha=0.5, c_beta=0.5, c_f=0.01)
    _, grads_full, _ = combined_step(model, x, t, cfg)
    _, grads_sup, _ = combined_step(model, x, t, ExperimentConfig(c_alpha=0.0, c_beta=0.0, c_f=0.0))
    # reconstruct d_z difference through the single linear layer: columns of
    # the weight gradient difference are x^T @ (masked gar grad); entries of
    # the gar grad at z <= 0 contribute nothing
    masked = gar_value_and_grad(np.maximum(0.0, z), 0.5, 0.5, 0.01 / len(x))[1] * (z > 0)
    assert np.allclose(
        grads_full[0].weights - grads_sup[0].weights, x.T @ masked, atol=1e-10
    )


# --- training loop ----------------------------------------------------------


def toy_data(seed=0):
    pool = synthetic_blobs(4, per_cluster=30, dim=4, separation=8.0, seed=seed)
    return LabeledDataset(X=pool.X, t=(pool.fine - 1) % 2 + 1, t_star=pool.fine)


def test_train_learns_separable_parents():
    data = toy_data()
    head = AcolHead(2, 2)
    model = init_model([4, 16, head.n], head, seed=0)
    cfg = ExperimentConfig(epochs=15, batch_size=16, learning_rate=0.02, momentum=0.9,
                           seed=0, validation_size=20)
    model, report = train(model, data, cfg)
    assert parent_accuracy_of(model, data) >= 0.95
    assert len(report.records) == 15
    assert 1 <= report.selected_epoch <= 15


def test_train_zero_epochs_keeps_initial_parameters():
    data = toy_data()
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=1)
    before = copy.deepcopy(model.layers)
    model, report = train(model, data, ExperimentConfig(epochs=0, batch_size=16, seed=0,
                                                        validation_size=20))
    assert report.records == []
    assert report.selected_epoch == 0
    for la, lb in zip(model.layers, before):
        assert np.array_equal(la.weights, lb.weights)


def test_train_is_deterministic():
    data = toy_data()
    head = AcolHead(2, 2)
    runs = []
    for _ in range(2):
        model = init_model([4, 8, head.n], head, seed=2)
        model, report = train(model, data, ExperimentConfig(epochs=5, batch_size=16, seed=2,
                                                            validation_size=20))
        runs.append((model, report))
    (m1, r1), (m2, r2) = runs
    for la, lb in zip(m1.layers, m2.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert [rec.sup_loss for rec in r1.records] == [rec.sup_loss for rec in r2.records]


def test_train_restores_best_validation_snapshot():
    data = toy_data(seed=4)
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=5)
    cfg = ExperimentConfig(epochs=8, batch_size=16, seed=5, validation_size=24)
    model, report = train(model, data, cfg)
    val_accs = [r.val_parent_acc for r in report.records]
    best = max(val_accs)
    # latest epoch achieving the maximum
    assert report.selected_epoch == len(val_accs) - val_accs[::-1].index(best)
    # restored parameters actually score that accuracy on the same split
    _, val_idx = split_validation(len(data), cfg.validation_size, cfg.seed)
    val_data = LabeledDataset(X=data.X[val_idx], t=data.t[val_idx])
    assert parent_accuracy_of(model, val_data) == pytest.approx(best, abs=1e-12)


def test_train_returns_a_copy_of_the_best_epoch_not_the_stepped_layers():
    """The snapshot lives in arrays of its own: the returned layers share no
    memory with the layers that were stepped, and hold the bits of a run that
    stops at the selected epoch."""
    pool = synthetic_blobs(4, per_cluster=30, dim=4, separation=2.0, seed=5)
    data = LabeledDataset(X=pool.X, t=(pool.fine - 1) % 2 + 1)
    head = AcolHead(2, 2)
    cfg = ExperimentConfig(epochs=8, batch_size=16, seed=5, validation_size=24)
    model = init_model([4, 8, head.n], head, seed=5)
    stepped = list(model.layers)
    model, report = train(model, data, cfg)
    assert report.selected_epoch == 4
    for best, live in zip(model.layers, stepped):
        assert not (np.shares_memory(best.weights, live.weights) or np.shares_memory(best.bias, live.bias))
    stopped, _ = train(init_model([4, 8, head.n], head, seed=5), data, replace(cfg, epochs=report.selected_epoch))
    for a, b in zip(model.layers, stopped.layers):
        assert (a.weights.tobytes(), a.bias.tobytes()) == (b.weights.tobytes(), b.bias.tobytes())


def test_train_steps_in_the_runs_buffers(monkeypatch):
    """Every batch is converted into the run's one input buffer, and its
    gradients are the run's gradient buffers."""
    seen = []

    def recording(model, x, t, cfg, buffers=None):
        loss, grads, sums = combined_step(model, x, t, cfg, buffers)
        seen.append((id(buffers), np.shares_memory(x, buffers.x), grads is buffers.grads))
        return loss, grads, sums

    monkeypatch.setattr(network, "combined_step", recording)
    head = AcolHead(2, 2)
    cfg = ExperimentConfig(epochs=2, batch_size=16, seed=0, validation_size=20)
    train(init_model([4, 8, head.n], head, seed=0), toy_data(), cfg)
    assert len(seen) == 2 * 7 and len({b for b, _, _ in seen}) == 1
    assert all(shared and same for _, shared, same in seen)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _hits(z, t, head) -> int:
    """Rows whose argmax parent of Z equals t."""
    return int(np.sum(np.argmax(head_forward(z, head)[1], axis=1) + 1 == t))


def _reference_train(model, data, cfg):
    """train() written out of place on a copy of ``model``: the seeded split
    into copied training and validation parts, v = momentum * v - lr * g,
    each batch's hits and loss columns recomputed before its step from a
    forward pass of its own, supervised_grad and gar_value_and_grad, and
    the latest best-validation epoch kept. Returns
    ``(layers, records, selected_epoch)``."""
    model = copy.deepcopy(model)
    perm = np.random.default_rng(cfg.seed).permutation(len(data))
    rows = perm[cfg.validation_size :] if cfg.validation_size else np.arange(len(data))
    part = LabeledDataset(X=data.X[rows], t=data.t[rows])
    val = LabeledDataset(X=data.X[perm[: cfg.validation_size]], t=data.t[perm[: cfg.validation_size]])
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]
    rng = np.random.default_rng(cfg.seed)
    records, best = [], (-np.inf, 0, model.layers)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(part))
        sums, hits = [0.0] * 4, 0
        for start in range(0, len(part), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = part.X[idx], part.t[idx]
            z = _reference_outputs(model, x)[-1]
            hits += _hits(z, t, model.head)
            sup_loss = supervised_grad(z, t, model.head)[0]
            terms = gar_value_and_grad(np.maximum(0.0, z), cfg.c_alpha, cfg.c_beta, cfg.c_f / len(x))[0]
            parts = (sup_loss * len(x), terms.affinity * len(x), terms.balance * len(x), terms.frobenius_sq)
            sums = [total + value for total, value in zip(sums, parts)]
            _, grads, _ = combined_step(model, x, t, cfg)
            for i, (layer, g) in enumerate(zip(model.layers, grads)):
                v_w = cfg.momentum * velocity[i][0] - cfg.learning_rate * g.weights
                v_b = cfg.momentum * velocity[i][1] - cfg.learning_rate * g.bias
                velocity[i] = (v_w, v_b)
                layer.weights += v_w
                layer.bias += v_b
        val_acc = float("nan")
        if len(val):
            val_acc = _hits(_reference_outputs(model, val.X)[-1], val.t, model.head) / len(val)
        records.append(EpochRecord(epoch, *(total / len(part) for total in sums), hits / len(part), val_acc))
        if not len(val) or val_acc >= best[0]:
            best = (val_acc, epoch, copy.deepcopy(model.layers))
    return best[2], records, best[1]


def _assert_train_equals_reference(model, data, cfg):
    """train() and _reference_train() agree bit for bit on the parameters,
    every record field (each a plain int or float) and the selected epoch.
    Returns the records."""
    assert (len(data) - cfg.validation_size) % cfg.batch_size != 0  # the epoch ends on a short batch
    layers, records, selected = _reference_train(model, data, cfg)

    model, report = train(model, data, cfg)

    assert report.selected_epoch == selected
    for la, lb in zip(model.layers, layers, strict=True):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    for new, old in zip(report.records, records, strict=True):
        for field in fields(EpochRecord):
            value = getattr(new, field.name)
            assert type(value) in (int, float), field.name  # metrics.csv writes repr()
            assert _bits(value) == _bits(getattr(old, field.name)), field.name
    return report.records


@pytest.mark.parametrize("momentum", [0.0, 0.9])  # 0.0 is plain SGD: v = -lr * g
@pytest.mark.parametrize(
    "sizes, validation_size, batch_size",
    [
        ((4, 8, 4), 20, 16),       # relu, linear
        ((4, 8, 4), 0, 16),
        ((4, 6, 8, 4), 24, 40),    # relu, relu, linear
        ((4, 4), 20, 30),          # a single linear layer
    ],
)
def test_train_equals_the_out_of_place_reference_bit_for_bit(sizes, validation_size, batch_size, momentum):
    cfg = ExperimentConfig(epochs=6, batch_size=batch_size, learning_rate=0.05, momentum=momentum,
                           seed=4, validation_size=validation_size)
    model = init_model(list(sizes), AcolHead(2, 2), seed=4)
    records = _assert_train_equals_reference(model, toy_data(seed=9), cfg)
    assert len({r.train_parent_acc for r in records}) > 1


def test_train_momentum_update_equals_out_of_place_reference():
    """The in-place momentum update rounds exactly like v = mu*v - lr*g."""
    cfg = ExperimentConfig(epochs=4, batch_size=16, learning_rate=0.05, momentum=0.9,
                           seed=8, validation_size=0)
    model = init_model([4, 8, 4], AcolHead(2, 2), seed=8)
    _assert_train_equals_reference(model, toy_data(seed=6), cfg)


@pytest.mark.parametrize("validation_size", [0, 20])
def test_train_parent_acc_is_the_running_pre_step_share(validation_size):
    """Each batch's hits are counted under the parameters it is stepped from."""
    cfg = ExperimentConfig(epochs=4, batch_size=28, learning_rate=0.1, momentum=0.5,
                           seed=1, validation_size=validation_size)
    model = init_model([4, 8, 4], AcolHead(2, 2), seed=1)
    records = _assert_train_equals_reference(model, toy_data(seed=5), cfg)
    assert len({r.train_parent_acc for r in records}) > 1


@pytest.mark.parametrize(
    "sizes, validation_size, batch_size",
    [
        ((4, 8, 4), 20, 16),       # relu, linear; short final batch
        ((4, 8, 4), 0, 16),
    ],
)
def test_train_steps_like_the_frozen_two_pass_loop(sizes, validation_size, batch_size):
    cfg = ExperimentConfig(epochs=6, batch_size=batch_size, learning_rate=0.05, momentum=0.9,
                           seed=3, validation_size=validation_size)
    model = init_model(list(sizes), AcolHead(2, 2), seed=3)
    _assert_train_equals_reference(model, toy_data(seed=2), cfg)


def _assert_same_training(got, want, epochs: int) -> None:
    """Two ``train`` results agree bit for bit: parameters, every record
    field and the selected epoch."""
    (got, got_report), (want, want_report) = got, want
    assert got_report.selected_epoch == want_report.selected_epoch
    for la, lb in zip(got.layers, want.layers, strict=True):
        assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
    bits = [[[_bits(v) for v in astuple(r)] for r in report.records] for report in (got_report, want_report)]
    assert bits[0] == bits[1] and len(bits[0]) == epochs
    assert len({r.train_parent_acc for r in got_report.records}) > 1


def _unscaled_data(kind: str) -> LabeledDataset:
    """A dataset of uint8 pixels, or of the float64 blobs of the synthetic pool."""
    if kind == "uint8":
        pixels = np.random.default_rng(7).integers(0, 256, size=(120, 3, 3), dtype=np.uint8)
        return LabeledDataset(X=pixels.reshape(120, 9), t=1 + (pixels[:, 0, 0] > 127).astype(np.int64))
    cfg = ExperimentConfig(per_cluster=20)
    return pool_to_dataset(cli.load_pool(cfg, test=False), cli.default_partition(cfg))


@pytest.mark.parametrize("validation_size", [0, 20])
def test_train_on_uint8_pixels_equals_train_on_their_float64_features(validation_size):
    """Converting each batch, and the validation part once, as they are needed
    gives the bits of training on the whole pool converted beforehand."""
    data = _unscaled_data("uint8")
    cfg = ExperimentConfig(epochs=4, batch_size=16, learning_rate=0.05, momentum=0.9,
                           seed=2, validation_size=validation_size)
    model = init_model([9, 8, 4], AcolHead(2, 2), seed=2)
    converted = LabeledDataset(X=images_to_features(data.X), t=data.t)
    _assert_same_training(*(train(copy.deepcopy(model), d, cfg) for d in (data, converted)), cfg.epochs)


SCALED = pytest.mark.parametrize("kind, scale", [("uint8", 0.5), ("synthetic", 0.32)])


@SCALED
def test_forward_of_a_scaled_model_equals_forward_at_scale_1_on_scaled_features(kind, scale):
    """forward multiplies its input by the model's feature scale: on the
    unscaled features of a pool it gives every output, the scaled input
    included, bit for bit as the same weights at scale 1 on features
    multiplied by the scale beforehand, and leaves its input as it was."""
    data = _unscaled_data(kind)
    model = init_model([data.X.shape[1], 8, 4], AcolHead(2, 2), seed=2)
    scaled = replace(model, feature_scale=scale)
    for rows in (slice(None), slice(3, 17), np.array([29, 0, 5, 5, 12])):
        x = data.features(rows)
        got, want = forward(scaled, x), forward(model, x * scale)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert np.array_equal(x, data.features(rows))


@SCALED
def test_train_of_a_scaled_model_equals_train_at_scale_1_on_scaled_features(kind, scale):
    """Batches, the validation part and its per-epoch pass all see the
    model's scale: training at scale s on unscaled features gives the bits of
    training at scale 1 on features multiplied by s."""
    data = _unscaled_data(kind)
    cfg = ExperimentConfig(epochs=4, batch_size=16, learning_rate=0.05, momentum=0.9,
                           seed=2, validation_size=20)
    model = init_model([data.X.shape[1], 8, 4], AcolHead(2, 2), seed=2)
    runs = (
        train(replace(copy.deepcopy(model), feature_scale=scale), data, cfg),
        train(copy.deepcopy(model), LabeledDataset(X=data.features() * scale, t=data.t), cfg),
    )
    _assert_same_training(*runs, cfg.epochs)


@pytest.mark.parametrize("rows, padded", [(37, 48), (9, 16)])
def test_blocked_parent_accuracy_equals_the_whole_pass(monkeypatch, rows, padded):
    """Widest layer 4,096: blocks of 16 rows. 37 rows end in a short block and
    9 fit in one, each padded to a full block; with the run's buffers or
    without, every row is counted once and the hit share is the one pass's."""
    rng = np.random.default_rng(rows)
    model = init_model([3, 4096, 4], AcolHead(2, 2), seed=1)
    data = LabeledDataset(X=rng.normal(size=(rows, 3)), t=rng.integers(1, 3, size=rows))
    assert network.validation_block(model) == 16
    _, parent_probs = head_forward(forward(model, data.X)[-1], model.head)
    whole = evaluation.parent_accuracy(parent_probs, data.t)
    assert 0 < whole < 1
    evaluated = []

    def counting(model, x, buffers=None):
        evaluated.append(len(x))
        return forward(model, x, buffers)

    monkeypatch.setattr(network, "forward", counting)
    for buffers in (None, network.layer_buffers(model, 16)):
        evaluated.clear()
        assert parent_accuracy_of(model, data, buffers) == whole
        assert sum(evaluated) == padded and set(evaluated) == {16}


def test_train_holds_no_whole_validation_activation():
    """The default synthetic config: the validation pass walks 32-row blocks
    through the run's buffers, so ``train`` never holds the 1,000 x 2,048
    float64 activation (16.4 MB) of one whole pass."""
    cfg = ExperimentConfig(epochs=3)
    data = pool_to_dataset(cli.load_pools(cfg)[0], cli.default_partition(cfg))
    head = AcolHead(cfg.n_parents, cfg.k)
    model = init_model([data.X.shape[1], *cfg.resolved("hidden"), head.n], head, cfg.seed)
    tracemalloc.start()
    try:
        train(model, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.validation_size * 2048 * 8


def test_train_holds_one_buffer_per_layer_output():
    """The default synthetic layout, 8->2048->6, for 2 epochs: backward writes
    each hidden gradient over the layer output whose relu mask it has taken,
    so ``train`` holds no second 128 x 2,048 float64 array (2 MB) for it. Its
    traced peak above its start (3.29 MB on numpy 2.4.6) stays under the
    5.39 MB of a run that keeps such a buffer, less half that array."""
    cfg = ExperimentConfig(epochs=2)
    data = pool_to_dataset(cli.load_pools(cfg)[0], cli.default_partition(cfg))
    head = AcolHead(cfg.n_parents, cfg.k)
    model = init_model([data.X.shape[1], *cfg.resolved("hidden"), head.n], head, cfg.seed)
    assert model.layer_sizes == [8, 2048, 6] and cfg.batch_size == 128
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(model, data, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 5_390_000 - 128 * 2048 * 8 // 2


def test_score_holds_no_whole_pool_activation():
    """The default synthetic eval pool, 1,200 rows: ``cli.score`` walks
    32-row blocks, so it never holds the 1,200 x 2,048 float64 activation
    (19.7 MB) of one whole pass."""
    cfg = ExperimentConfig()
    data = pool_to_dataset(cli.load_pool(cfg, test=True), cli.default_partition(cfg))
    head = AcolHead(cfg.n_parents, cfg.k)
    model = init_model([data.X.shape[1], *cfg.resolved("hidden"), head.n], head, cfg.seed)
    tracemalloc.start()
    try:
        cli.score(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 1200 and peak < len(data) * 2048 * 8


def test_train_keeps_the_validation_rows_as_stored_pixels():
    """784->256->128->10 on 1,500 generated uint8 rows, 1,000 of them for
    validation: ``train`` holds them as their 784,000 stored bytes, and each
    epoch converts a block at a time. Its traced peak (9.84 MB on numpy 2.4.6)
    is under the 16.22 MB of a ``train`` that holds the rows as float64
    features and makes its snapshots, batches and gradients as it goes, less
    those features' 6,272,000 bytes; with 500 more validation rows it grows
    by about their stored bytes, not by their features."""
    rng = np.random.default_rng(0)
    data = LabeledDataset(X=rng.integers(0, 256, size=(1500, 784), dtype=np.uint8), t=1 + np.arange(1500) % 2)
    peaks = {}
    for rows in (500, 1000):
        cfg = ExperimentConfig(dataset_type="idx", images="i", labels="l", epochs=1, validation_size=rows)
        head = AcolHead(cfg.n_parents, cfg.k)
        model = init_model([784, *cfg.resolved("hidden"), head.n], head, cfg.seed)
        tracemalloc.start()
        try:
            train(model, data, cfg)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] < 16_219_000 - 1000 * 784 * 8
    assert peaks[1000] - peaks[500] < 500 * 784 * 2


_POOLS = {}


def _scored_pool(layout: str):
    """A model with random biases and a 1,000-row pool: float64 rows for
    8->2048->6, uint8 rows for 784->256->128->10."""
    if layout not in _POOLS:
        rng = np.random.default_rng(5)
        if layout == "synthetic":
            sizes, head, x = [8, 2048, 6], AcolHead(2, 3), rng.normal(size=(1000, 8))
        else:
            sizes, head = [784, 256, 128, 10], AcolHead(2, 5)
            x = rng.integers(0, 256, size=(1000, 784), dtype=np.uint8)
        model = init_model(sizes, head, seed=3)
        for layer in model.layers:
            layer.bias = rng.normal(scale=0.5, size=layer.bias.shape)
        pool = LabeledDataset(X=x, t=rng.integers(1, 3, size=1000), t_star=rng.integers(0, 10, size=1000))
        _POOLS[layout] = model, pool, cli.score(model, pool)["z"]
    return _POOLS[layout]


@pytest.mark.parametrize("layout", ["synthetic", "digits"])
@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(size=st.integers(1, 999), seed=st.integers(0, 2**32 - 1))
def test_a_rows_z_does_not_depend_on_the_rows_scored_with_it(layout, size, seed):
    """Any subset of the pool's rows, in any order, scores each row's Z with
    the bits of the whole pool's pass: ``forward_rows`` and ``cli.score``."""
    model, pool, whole = _scored_pool(layout)
    rows = np.random.default_rng(seed).choice(len(pool), size, replace=False)
    subset = LabeledDataset(X=pool.X[rows], t=pool.t[rows], t_star=pool.t_star[rows])
    assert cli.score(model, subset)["z"].tobytes() == whole[rows].tobytes()
    assert network.forward_rows(model, subset).tobytes() == whole[rows].tobytes()


def test_evaluation_pads_a_short_block_with_zero_rows_whatever_its_buffer_held():
    """A buffer left full of inf by earlier work: the short last block's tail
    is zeroed, so no product meets inf * 0 or inf - inf, and the Z of the
    rows scored is a new buffer set's."""
    rng = np.random.default_rng(2)
    model = init_model([3, 4096, 4], AcolHead(2, 2), seed=1)
    data = LabeledDataset(X=rng.normal(size=(37, 3)), t=rng.integers(1, 3, size=37))
    buffers = network.layer_buffers(model, 16, gradients=False)
    buffers.x.fill(np.inf)
    with np.errstate(invalid="raise", over="raise"):
        z = network.forward_rows(model, data, buffers)
    assert z.tobytes() == network.forward_rows(model, data).tobytes()
    assert not buffers.x[37 % 16:].any()


@pytest.mark.parametrize("validation_size", [0, 20])
def test_train_evaluates_only_the_validation_rows(monkeypatch, validation_size):
    evaluated = []

    def counting(model, data, buffers=None):
        evaluated.append(len(data))
        return parent_accuracy_of(model, data, buffers)

    monkeypatch.setattr(network, "parent_accuracy_of", counting)
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    cfg = ExperimentConfig(epochs=5, batch_size=16, seed=0, validation_size=validation_size)
    train(model, toy_data(), cfg)
    assert sum(evaluated) == cfg.epochs * validation_size


_HEAP_PROBE = """
import ctypes, os, sys
from acol import cli
from acol.config import ExperimentConfig
from acol.datasets import pool_to_dataset

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

cfg = ExperimentConfig(dataset_type="idx", images=sys.argv[1], labels=sys.argv[2], epochs=2)
data = pool_to_dataset(cli.load_pools(cfg)[0], cli.default_partition(cfg))
model, report = cli.fit(cfg, data)
before = resident()
ctypes.CDLL(None).malloc_trim(0)
print(before - resident())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_train_hands_the_freed_validation_pages_back(tmp_path):
    """An idx run of 10,000 images: ``train`` holds its 1,000 stored validation
    rows, its buffers (an input block of 256 x 784 float64, the layer outputs
    and gradients) and its velocity until it returns.
    The IDX read has freed a larger block first, so glibc serves them from its
    heap and would keep their pages; whether the caller's next, larger array
    could reuse them depends on the heap's layout, so the peak memory would
    move by that much from run to run. ``train`` frees the validation rows,
    the buffers, the last step's batch and gradients, which live in them, and
    the velocity, and hands the pages back: a second ``malloc_trim`` after it
    returns finds under 300 KB of them (0.18 MB here; 0.43 MB when the
    gradients are freed after the trim, 1.1 MB when nothing is, and 1.6 MB
    without the trim)."""
    rng = np.random.default_rng(0)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx_images(rng.integers(0, 256, size=(10_000, 28, 28), dtype=np.uint8), images)
    write_idx_labels(np.tile(np.arange(10, dtype=np.uint8), 1_000), labels)
    src = str(Path(network.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, str(images), str(labels)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 300_000


@pytest.mark.parametrize(
    "change, message",
    [
        ({"batch_size": 1}, "train.batch_size must be >= 2, got 1"),
        ({"learning_rate": 0.0}, "train.lr must be finite and > 0, got 0.0"),
        ({"momentum": 1.0}, "train.momentum must be in [0, 1), got 1.0"),
        ({"validation_size": -5}, "train.validation_size must be >= 0, got -5"),
        ({"c_alpha": -0.1}, "gar.c_alpha must be finite and >= 0, got -0.1"),
        ({"c_f": float("nan")}, "gar.c_f must be finite and >= 0, got nan"),
    ],
)
def test_train_rejects_config_values_under_their_key(change, message):
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    with pytest.raises(ValueError) as err:
        train(model, toy_data(), ExperimentConfig(epochs=1, **change))
    assert str(err.value) == message


def test_train_rejects_a_head_parent_without_rows():
    data = toy_data()
    head = AcolHead(3, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    with pytest.raises(ValueError) as err:
        train(model, data, ExperimentConfig(epochs=1, batch_size=16, validation_size=0))
    assert str(err.value) == "head.n_p = 3, but parent 3 has no training rows"
    data.t[data.t == 1] = 3  # parent 1 is now the empty one
    with pytest.raises(ValueError) as err:
        train(model, data, ExperimentConfig(epochs=1, batch_size=16, validation_size=0))
    assert str(err.value) == "head.n_p = 3, but parent 1 has no training rows"
    # parent 2's one row falls in the validation split
    data = LabeledDataset(X=np.random.default_rng(0).normal(size=(50, 4)), t=np.ones(50, dtype=np.int64))
    cfg = ExperimentConfig(epochs=2, batch_size=4, validation_size=40, seed=0)
    data.t[split_validation(len(data), cfg.validation_size, cfg.seed)[1][0]] = 2
    head = AcolHead(2, 2)
    with pytest.raises(ValueError) as err:
        train(init_model([4, 8, head.n], head, seed=0), data, cfg)
    assert str(err.value) == "head.n_p = 2, but parent 2 has no training rows"


@pytest.mark.parametrize("label", [0, 3])
def test_train_rejects_parent_labels_outside_the_head(label):
    """The one range check of the parent labels: supervised_grad relies on it."""
    data = toy_data()
    data.t[7] = label
    head = AcolHead(2, 2)
    with pytest.raises(ValueError) as err:
        train(init_model([4, 8, head.n], head, seed=0), data, ExperimentConfig(epochs=1, validation_size=0))
    assert str(err.value) == "parent labels must lie in 1..2"


def test_train_rejects_bad_labels_and_oversized_batch():
    data = toy_data()
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    bad = copy.deepcopy(data)
    bad.t[0] = 9
    with pytest.raises(ValueError, match="parent labels"):
        train(model, bad, ExperimentConfig(epochs=1, batch_size=16, validation_size=0))
    with pytest.raises(ValueError) as err:
        train(model, data, ExperimentConfig(epochs=1, batch_size=4096, validation_size=0))
    assert str(err.value) == (
        "train.batch_size must be <= 120 (the rows left for training), got 4096"
    )


def test_train_rejects_an_empty_dataset():
    head = AcolHead(2, 2)
    data = LabeledDataset(X=np.zeros((0, 4)), t=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError) as err:
        train(init_model([4, 8, head.n], head, seed=0), data, ExperimentConfig(epochs=1))
    assert str(err.value) == "empty dataset"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"validation_size": 120}, "train.validation_size must be < 120 (the rows of the data), got 120"),
        ({"validation_size": 1000}, "train.validation_size must be < 120 (the rows of the data), got 1000"),
        ({"validation_size": 100, "batch_size": 21},
         "train.batch_size must be <= 20 (the rows left for training), got 21"),
    ],
)
def test_train_names_the_key_of_a_data_size_error(change, message):
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    with pytest.raises(ValueError) as err:
        train(model, toy_data(), ExperimentConfig(epochs=1, **change))
    assert str(err.value) == message
    # the largest sizes that fit are trained on
    train(model, toy_data(), ExperimentConfig(epochs=1, validation_size=100, batch_size=20))


def test_train_raises_on_a_non_finite_batch_loss():
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    cfg = ExperimentConfig(epochs=3, batch_size=16, learning_rate=1e200, validation_size=0)
    with pytest.raises(ValueError) as err:
        train(model, toy_data(), cfg)
    assert str(err.value) == "training diverged: epoch 1, batch 2 has loss nan"


def test_train_raises_when_a_parameter_is_not_finite_after_an_epoch():
    # a -inf bias silences its relu unit, so every batch loss stays finite
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    model.layers[0].bias[3] = -np.inf
    cfg = ExperimentConfig(epochs=3, batch_size=16, validation_size=0)
    with pytest.raises(ValueError) as err:
        train(model, toy_data(), cfg)
    assert str(err.value) == "training diverged: layer 1 is not finite after epoch 1"


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip_exact(tmp_path):
    model = small_model(seed=11, sizes=(3, 5, 4))
    # make parameters less trivial than init
    for layer in model.layers:
        layer.bias += 0.25
    model.feature_scale = 0.1 + 0.2  # 0.30000000000000004: every bit must survive
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=17)
    loaded, epoch = load_checkpoint(path)
    assert epoch == 17
    assert loaded.head == model.head
    assert loaded.rng_seed == model.rng_seed
    assert loaded.feature_scale == model.feature_scale
    assert loaded.layer_sizes == model.layer_sizes
    for la, lb in zip(loaded.layers, model.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    # numpy integers are written as the integers they hold
    save_checkpoint(small_model(seed=np.int64(5)), path, epoch=np.int64(2))
    loaded, epoch = load_checkpoint(path)
    assert (loaded.rng_seed, epoch) == (5, 2) and type(loaded.rng_seed) is int


def test_checkpoint_header_is_readable_ascii(tmp_path):
    model = small_model(seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=3)
    blob = path.read_bytes()
    header = blob[: blob.find(b"\n\n")].decode("ascii")
    assert header.splitlines()[0] == CHECKPOINT_TAG
    assert header.splitlines()[1:] == [
        "layer_sizes = 3,5,4", "feature_scale = 1.0", "n_parents = 2", "k = 2", "seed = 0", "epoch = 3"
    ]


def test_checkpoint_rejects_corruption(tmp_path):
    model = small_model(seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    bad_tag = tmp_path / "tag.ckpt"
    bad_tag.write_bytes(b"not a checkpoint" + blob[len(CHECKPOINT_TAG):])
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(bad_tag)

    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(short)

    long = tmp_path / "long.ckpt"
    long.write_bytes(blob + bytes(8))
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(long)

    headerless = tmp_path / "headerless.ckpt"
    headerless.write_bytes(blob.replace(b"\n\n", b"\n", 1))
    with pytest.raises(ValueError):
        load_checkpoint(headerless)


def test_checkpoint_last_layer_must_be_the_head_width(tmp_path):
    """The reader's one check that Z is as wide as the head: nothing downstream repeats it."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_model(seed=0), path)
    blob = path.read_bytes().replace(b"layer_sizes = 3,5,4\n", b"layer_sizes = 3,4,5\n", 1)
    path.write_bytes(blob.replace(b"k = 2\n", b"k = 3\n", 1))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: header mismatch, last layer 5 vs head n 6"


def test_checkpoint_rejects_nonfinite_parameters(tmp_path):
    model = small_model(seed=0)
    model.layers[0].weights[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_rejects_infinite_parameters(tmp_path):
    path = tmp_path / "inf.ckpt"
    for bad in (np.inf, -np.inf):
        for name in ("weights", "bias"):
            model = small_model(seed=0)
            getattr(model.layers[0], name).flat[0] = bad
            save_checkpoint(model, path)
            with pytest.raises(ValueError, match="non-finite"):
                load_checkpoint(path)


def test_checkpoint_non_finite_error_names_the_file_and_the_layer(tmp_path):
    model = small_model(seed=0)
    model.layers[1].bias[2] = np.inf
    path = tmp_path / "inf.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: layer 2 bias contains non-finite entries"
    model.layers[0].weights[1, 1] = np.nan
    save_checkpoint(model, path)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: layer 1 weights contains non-finite entries"


@pytest.mark.parametrize(
    "line, bad, message",
    [
        (b"k = 2\n", b"k = x\n", "line 5: bad value for 'k': invalid literal for int() with base 10: 'x'"),
        (b"k = 2\n", b"k = 0\n", "k must be >= 1, got 0"),
        (b"n_parents = 2\n", b"n_parents = 1\n", "n_parents must be >= 2, got 1"),
        (b"layer_sizes = 3,5,4\n", b"layer_sizes = \n", "layer_sizes needs at least 2 entries, got 0"),
        (b"layer_sizes = 3,5,4\n", b"layer_sizes = 3,0,4\n", "layer_sizes widths must each be >= 1, got 3,0,4"),
        (b"layer_sizes = 3,5,4\n", b"layer_sizes = 4\n", "layer_sizes needs at least 2 entries, got 1"),
        (b"seed = 0\n", b"seed = -1\n", "seed must be >= 0, got -1"),
        (b"feature_scale = 1.0\n", b"feature_scale = abc\n",
         "line 3: bad value for 'feature_scale': could not convert string to float: 'abc'"),
        *[
            (b"feature_scale = 1.0\n", b"feature_scale = " + text + b"\n",
             f"feature_scale must be finite and > 0, got {text.decode()}")
            for text in (b"nan", b"inf", b"0.0", b"-1.0")
        ],
        (b"seed = 0\n", b"seed = 0\xe9\n", "line 6: bad value for 'seed': invalid literal for int() with base 10: '0\\\\xe9'"),
        (b"epoch = 0\n", b"epoch = -1\n", "epoch must be >= 0, got -1"),
        (b"epoch = 0\n", b"epoch = 0\nseed = 9\n", "line 8: key 'seed' repeats line 6"),
        (b"epoch = 0\n", b"epoch = 0\nfoo = 1\n", "line 8: unknown key 'foo'"),
        (b"epoch = 0\n", b"epoch = 0\ngarbage\n", "line 8: expected 'key = value', got 'garbage'"),
    ],
)
def test_checkpoint_header_errors_name_the_file_and_the_field(tmp_path, line, bad, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_model(seed=0), path)
    blob = path.read_bytes()
    assert line in blob
    path.write_bytes(blob.replace(line, bad, 1))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


_HEADER_KEYS = [f.metadata["key"] for f in fields(CheckpointHeader)]


@pytest.mark.parametrize("key", _HEADER_KEYS)
def test_checkpoint_header_without_a_line_names_its_key(tmp_path, key):
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_model(seed=0), path)
    blob = path.read_bytes()
    (line,) = [l for l in blob[: blob.find(b"\n\n")].split(b"\n") if l.startswith(f"{key} = ".encode())]
    path.write_bytes(blob.replace(line + b"\n", b"", 1))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: missing key '{key}'"


def test_checkpoint_header_errors_count_the_lines_of_the_file(tmp_path):
    """The tag is line 1, a ``#`` line is skipped but counted, as in a config file,
    and only ``\\n`` ends a line (a form feed does not)."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_model(seed=0), path)
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    tag, *lines = blob[:sep].split(b"\n")
    for comments in ([], [b"# a note"], [b"# one", b"  # two"], [b"# form\x0cfeed"]):
        for lineno, key in enumerate(_HEADER_KEYS, start=2 + len(comments)):
            bad = [f"{key} = x".encode() if l.startswith(f"{key} = ".encode()) else l for l in lines]
            path.write_bytes(b"\n".join([tag, *comments, *bad]) + blob[sep:])
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
            assert str(err.value).startswith(f"{path}: line {lineno}: bad value for '{key}': ")


def test_checkpoint_header_comment_lines_load_the_same_model(tmp_path):
    model = small_model(seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=2)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\nk = ", b"\n# k: duplicates per parent\n  #\nk = ", 1))
    loaded, epoch = load_checkpoint(path)
    assert (epoch, loaded.head, loaded.rng_seed, loaded.layer_sizes) == (2, model.head, 4, model.layer_sizes)
    for la, lb in zip(loaded.layers, model.layers):
        assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)


def test_every_header_field_declares_its_key_and_its_bound_holds():
    """Each header field is required and bounded; the bound is accepted and a
    value just past it is rejected with the config reader's message. The
    bounds of n_parents and k have one home, ``AcolHead``, which the header
    makes once and the model takes."""
    base = {"layer_sizes": (3, 5, 6), "feature_scale": 0.5, "n_parents": 3, "k": 2, "seed": 4, "epoch": 5}
    declared = fields(CheckpointHeader)
    assert [f.name for f in declared] == _HEADER_KEYS == list(base)
    head_rules = {f.name: f.metadata["rule"] for f in fields(AcolHead)}
    assert [f.name for f in declared if f.metadata["rule"] is None] == list(head_rules) == ["n_parents", "k"]
    for f in declared:
        key, (op, bound) = f.metadata["key"], f.metadata["rule"] or head_rules[f.name]
        assert f.default is dataclasses.MISSING
        if f.type is tuple:
            assert op == ">="
            inside, past = (bound, 6), f"{bound - 1},6"
            message = f"{key} widths must each be >= {bound}, got {past}"
        elif f.type is int:
            assert op == ">="
            inside, past, message = bound, str(bound - 1), f"{key} must be >= {bound}, got {bound - 1}"
        else:
            assert op == ">"
            inside, past = math.nextafter(bound, math.inf), repr(float(bound))
            message = f"{key} must be finite and > {bound}, got {past}"
        values = {**base, f.name: inside}
        if f.type is int:
            values["layer_sizes"] = (3, 5, values["n_parents"] * values["k"])
        header = CheckpointHeader(**values)
        text = serialize_config(header)
        assert parse_config(text, CheckpointHeader) == header
        lines = [f"{key} = {past}" if l.startswith(f"{key} = ") else l for l in text.splitlines()]
        with pytest.raises(ValueError) as err:
            parse_config("\n".join(lines), CheckpointHeader)
        assert str(err.value) == message
    # the rules that join fields, and the type of a header built in code
    for change, message in [
        ({"layer_sizes": (6,)}, "layer_sizes needs at least 2 entries, got 1"),
        ({"k": 3}, "header mismatch, last layer 6 vs head n 9"),
        ({"seed": 4.0}, "seed must be an int, got 4.0"),
        ({"layer_sizes": [3, 5, 6]}, "layer_sizes must be a tuple of ints, got [3, 5, 6]"),
    ]:
        with pytest.raises(ValueError) as err:
            CheckpointHeader(**{**base, **change})
        assert str(err.value) == message


def test_checkpoint_of_one_layer_size_and_no_payload_is_rejected(tmp_path):
    """One size is no layer: with an empty payload such a header would
    otherwise load as a model without layers."""
    path = tmp_path / "m.ckpt"
    header = f"{CHECKPOINT_TAG}\nlayer_sizes = 6\nfeature_scale = 1.0\nn_parents = 2\nk = 3\nseed = 0\nepoch = 0\n\n"
    path.write_bytes(header.encode("ascii"))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: layer_sizes needs at least 2 entries, got 1"


def test_checkpoint_of_format_v1_or_v2_is_rejected_at_its_tag(tmp_path):
    """A v1 file (with its 'activations' line and no feature scale) and a v2
    file (``key: value`` lines) are not read."""
    path = tmp_path / "old.ckpt"
    for header in (
        b"acol checkpoint v1\nlayer_sizes: 3,5,4\nactivations: relu,linear\n"
        b"n_parents: 2\nk: 2\nseed: 0\nepoch: 0\n\n",
        b"acol checkpoint v2\nlayer_sizes: 3,5,4\nfeature_scale: 1.0\n"
        b"n_parents: 2\nk: 2\nseed: 0\nepoch: 0\n\n",
    ):
        path.write_bytes(header + bytes(8 * (4 * 5 + 6 * 4)))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: not a checkpoint file (missing 'acol checkpoint v3')"


_HEADER_VALUES = st.one_of(
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.lists(st.integers(min_value=-3, max_value=10**12), min_size=1, max_size=4).map(
        lambda sizes: ",".join(map(str, sizes))
    ),
    st.sampled_from(["3,5,4", "0.32", "nan", "1e400", "-0.0", "", "99999999999999999999"]),
    st.text(max_size=8),
)
# (key, new value); None drops the key's line
_HEADER_EDITS = st.lists(
    st.tuples(st.sampled_from(_HEADER_KEYS), st.none() | _HEADER_VALUES), min_size=1, max_size=3
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(edits=_HEADER_EDITS)
def test_checkpoint_reader_loads_or_names_the_file(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(small_model(seed=0), path)
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    lines = blob[:sep].split(b"\n")
    for key, value in edits:
        prefix = key.encode() + b" = "
        lines = [l for l in lines if not l.startswith(prefix)]
        if value is not None:
            lines.append(prefix + value.encode())
    path.write_bytes(b"\n".join(lines) + blob[sep:])
    try:
        model, epoch = load_checkpoint(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: ")
    else:
        assert model.layer_sizes[-1] == model.head.n and epoch >= 0
        assert np.isfinite(model.feature_scale) and model.feature_scale > 0

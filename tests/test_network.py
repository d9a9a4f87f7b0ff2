"""Model init, forward/backward, training loop, checkpoint container."""

import copy

import numpy as np
import pytest

from acol.datasets import split_validation, synthetic_blobs
from acol.head import AcolHead
from acol.network import (
    CHECKPOINT_TAG,
    DenseLayer,
    Model,
    TrainConfig,
    backward,
    combined_loss,
    combined_step,
    forward,
    infer,
    init_model,
    load_checkpoint,
    parent_accuracy_of,
    save_checkpoint,
    train,
)
from acol.regularizers import GarCoefficients


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
    assert [l.activation for l in model.layers] == ["relu", "relu", "linear"]
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
                activation="relu",
            ),
            DenseLayer(
                weights=np.array([[2.0, 0.0], [1.0, -1.0]]),
                bias=np.array([0.5, 0.0]),
                activation="linear",
            ),
        ],
        head=head,
        rng_seed=0,
    )
    x = np.array([[1.0, 2.0]])
    # hidden pre = [2.0, 2.0], relu -> [2.0, 2.0]; z = [2*2+2*1+0.5, -2.0]
    caches, z = forward(model, x)
    assert np.allclose(caches[0][1], np.array([[2.0, 2.0]]))
    assert np.allclose(z, np.array([[6.5, -2.0]]))


def test_forward_rejects_wrong_feature_count():
    model = small_model()
    with pytest.raises(ValueError, match="features"):
        forward(model, np.zeros((2, 7)))


def test_infer_equals_forward_bit_for_bit():
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
        expected = forward(model, x)[1]
        got = infer(model, x)
        assert np.array_equal(x, x_before)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_infer_rejects_wrong_feature_count_like_forward():
    model = small_model()
    with pytest.raises(ValueError) as from_forward:
        forward(model, np.zeros((2, 7)))
    with pytest.raises(ValueError) as from_infer:
        infer(model, np.zeros((2, 7)))
    assert str(from_infer.value) == str(from_forward.value)


# --- backward ---------------------------------------------------------------


def test_backward_single_linear_layer_closed_form():
    head = AcolHead(2, 1)
    model = init_model([3, 2], head, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    d_z = rng.normal(size=(6, 2))
    caches, _ = forward(model, x)
    grads = backward(model, caches, d_z)
    assert np.allclose(grads[0].weights, x.T @ d_z, atol=1e-12)
    assert np.allclose(grads[0].bias, d_z.sum(axis=0), atol=1e-12)


def test_backward_stale_cache_detected():
    model = small_model()
    caches, _ = forward(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="stale cache"):
        backward(model, caches, np.zeros((5, 4)))
    with pytest.raises(ValueError, match="cache holds"):
        backward(model, caches[:1], np.zeros((4, 4)))


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    coeffs = GarCoefficients(0.1, 0.1, 0.0003)
    for trial in range(5):
        n_p = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        head = AcolHead(n_p, k)
        sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), head.n]
        model = init_model(sizes, head, seed=trial)
        m = int(rng.integers(3, 9))
        x = rng.normal(size=(m, sizes[0]))
        t = rng.integers(1, n_p + 1, size=m)
        _, grads, _, _ = combined_step(model, x, t, coeffs)
        eps = 1e-6
        for layer, g in zip(model.layers, grads):
            for arr, garr in ((layer.weights, g.weights), (layer.bias, g.bias)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + eps
                    lp = combined_loss(model, x, t, coeffs)
                    arr[idx] = old - eps
                    lm = combined_loss(model, x, t, coeffs)
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
    caches, z = forward(model, x)
    coeffs = GarCoefficients(0.5, 0.5, 0.01)
    _, grads_full, _, _ = combined_step(model, x, t, coeffs)
    _, grads_sup, _, _ = combined_step(model, x, t, GarCoefficients(0.0, 0.0, 0.0))
    # reconstruct d_z difference through the single linear layer: columns of
    # the weight gradient difference are x^T @ (masked gar grad); entries of
    # the gar grad at z <= 0 contribute nothing
    from acol.linalg import relu
    from acol.regularizers import gar_value_and_grad

    masked = gar_value_and_grad(relu(z), coeffs)[1] * (z > 0)
    assert np.allclose(
        grads_full[0].weights - grads_sup[0].weights, x.T @ masked, atol=1e-10
    )


# --- training loop ----------------------------------------------------------


def toy_data(seed=0):
    return synthetic_blobs(n_parents=2, k=2, per_cluster=30, dim=4, separation=8.0, seed=seed)


def test_train_learns_separable_parents():
    data = toy_data()
    head = AcolHead(2, 2)
    model = init_model([4, 16, head.n], head, seed=0)
    cfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.02, momentum=0.9,
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
    model, report = train(model, data, TrainConfig(epochs=0, batch_size=16, seed=0,
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
        model, report = train(model, data, TrainConfig(epochs=5, batch_size=16, seed=2,
                                                       validation_size=20))
        runs.append((model, report))
    (m1, r1), (m2, r2) = runs
    for la, lb in zip(m1.layers, m2.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert [rec.sup_loss for rec in r1.records] == [rec.sup_loss for rec in r2.records]


def _out_of_place_momentum_replay(model, data, cfg):
    """train()'s batch walk with the velocity formed out of place,
    v = momentum * v - lr * g; returns the replayed copy."""
    replay = copy.deepcopy(model)
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in replay.layers]
    rng = np.random.default_rng(cfg.seed)
    m = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            scaled = GarCoefficients(cfg.gar.c_alpha, cfg.gar.c_beta, cfg.gar.c_f / len(idx))
            _, grads, _, _ = combined_step(replay, data.X[idx], data.t[idx], scaled)
            for i, (layer, g) in enumerate(zip(replay.layers, grads)):
                v_w = cfg.momentum * velocity[i][0] - cfg.learning_rate * g.weights
                v_b = cfg.momentum * velocity[i][1] - cfg.learning_rate * g.bias
                velocity[i] = (v_w, v_b)
                layer.weights += v_w
                layer.bias += v_b
    return replay


def test_train_momentum_zero_equals_plain_sgd():
    """Independent plain-SGD replay must match train() exactly at momentum 0."""
    data = toy_data(seed=3)
    head = AcolHead(2, 2)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, momentum=0.0,
                      seed=7, validation_size=0)
    model = init_model([4, 8, head.n], head, seed=7)
    replay = copy.deepcopy(model)
    with_velocity = _out_of_place_momentum_replay(model, data, cfg)

    model, _ = train(model, data, cfg)

    rng = np.random.default_rng(cfg.seed)
    m = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rows = len(idx)
            scaled = GarCoefficients(cfg.gar.c_alpha, cfg.gar.c_beta, cfg.gar.c_f / rows)
            _, grads, _, _ = combined_step(replay, data.X[idx], data.t[idx], scaled)
            for layer, g in zip(replay.layers, grads):
                layer.weights += -cfg.learning_rate * g.weights
                layer.bias += -cfg.learning_rate * g.bias

    for la, lb, lc in zip(model.layers, replay.layers, with_velocity.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert np.array_equal(la.weights, lc.weights)
        assert np.array_equal(la.bias, lc.bias)


def test_train_momentum_update_equals_out_of_place_reference():
    """The in-place momentum update rounds exactly like v = mu*v - lr*g."""
    data = toy_data(seed=6)
    head = AcolHead(2, 2)
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, momentum=0.9,
                      seed=8, validation_size=0)
    model = init_model([4, 8, head.n], head, seed=8)
    replay = _out_of_place_momentum_replay(model, data, cfg)

    model, _ = train(model, data, cfg)

    for la, lb in zip(model.layers, replay.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_train_restores_best_validation_snapshot():
    data = toy_data(seed=4)
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=5)
    cfg = TrainConfig(epochs=8, batch_size=16, seed=5, validation_size=24)
    model, report = train(model, data, cfg)
    val_accs = [r.val_parent_acc for r in report.records]
    best = max(val_accs)
    # latest epoch achieving the maximum
    assert report.selected_epoch == len(val_accs) - val_accs[::-1].index(best)
    # restored parameters actually score that accuracy on the same split
    _, val_data = split_validation(data, cfg.validation_size, cfg.seed)
    assert parent_accuracy_of(model, val_data) == pytest.approx(best, abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(epochs=1, batch_size=1)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(epochs=1, momentum=1.0)
    with pytest.raises(ValueError, match="validation_size must be >= 0"):
        TrainConfig(epochs=1, validation_size=-5)


def test_train_rejects_bad_labels_and_oversized_batch():
    data = toy_data()
    head = AcolHead(2, 2)
    model = init_model([4, 8, head.n], head, seed=0)
    bad = copy.deepcopy(data)
    bad.t[0] = 9
    with pytest.raises(ValueError, match="parent labels"):
        train(model, bad, TrainConfig(epochs=1, batch_size=16, validation_size=0))
    with pytest.raises(ValueError, match="exceeds"):
        train(model, data, TrainConfig(epochs=1, batch_size=4096, validation_size=0))


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip_exact(tmp_path):
    model = small_model(seed=11, sizes=(3, 5, 4))
    # make parameters less trivial than init
    for layer in model.layers:
        layer.bias += 0.25
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=17)
    loaded, epoch = load_checkpoint(path)
    assert epoch == 17
    assert loaded.head == model.head
    assert loaded.rng_seed == model.rng_seed
    assert loaded.layer_sizes == model.layer_sizes
    for la, lb in zip(loaded.layers, model.layers):
        assert la.activation == lb.activation
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_checkpoint_header_is_readable_ascii(tmp_path):
    model = small_model(seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, epoch=3)
    blob = path.read_bytes()
    header = blob[: blob.find(b"\n\n")].decode("ascii")
    assert header.splitlines()[0] == CHECKPOINT_TAG
    assert "layer_sizes: 3,5,4" in header
    assert "epoch: 3" in header


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

    headerless = tmp_path / "headerless.ckpt"
    headerless.write_bytes(blob.replace(b"\n\n", b"\n", 1))
    with pytest.raises(ValueError):
        load_checkpoint(headerless)


def test_checkpoint_rejects_nonfinite_parameters(tmp_path):
    model = small_model(seed=0)
    model.layers[0].weights[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_activation(tmp_path):
    model = small_model(seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert b"activations: relu,linear\n" in blob
    bad = tmp_path / "lineax.ckpt"
    bad.write_bytes(blob.replace(b"activations: relu,linear\n", b"activations: relu,lineax\n", 1))
    with pytest.raises(ValueError, match=r"lineax\.ckpt: .*'activations'.*'lineax'"):
        load_checkpoint(bad)

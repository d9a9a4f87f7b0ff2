"""End-to-end acceptance gate.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (run with -s to
see them live) and asserts the stated tolerance. The two image-dataset checks
need the four canonical MNIST IDX files under data/mnist/ and skip loudly
when they are absent.
"""

import csv
import itertools
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from acol import cli, network
from acol.config import ExperimentConfig, serialize_config
from acol.datasets import (
    IMAGES_MAGIC,
    IdxFormatError,
    interparent_partition,
    load_idx,
    load_idx_images,
    pool_to_dataset,
    write_idx_images,
    write_idx_labels,
)
from acol.evaluation import clustering_accuracy, kmeans_per_parent
from acol.head import AcolHead, node_to_parent_sub
from acol.network import combined_step, init_model
from acol.regularizers import gar_value_and_grad
from test_evaluation import exhaustive_accuracy
from test_golden_digests import bench_digits


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- 1: analytic gradients vs central finite differences ---------------------


def _smooth_instance(seed: int, step: float):
    """Random (model, x, t) whose rectifier inputs all sit >= 100 steps from
    zero, so a +-step probe stays inside one smooth piece of the objective."""
    head_shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
    for attempt in itertools.count():
        rng = np.random.default_rng(seed * 1000 + attempt)
        n_p, k = head_shapes[seed % len(head_shapes)]
        head = AcolHead(n_p, k)
        sizes = [
            int(rng.integers(3, 9)),
            int(rng.integers(4, 17)),
            int(rng.integers(4, 17)),
            head.n,
        ]
        model = init_model(sizes, head, seed=seed)
        m = int(rng.integers(2, 17))
        x = rng.standard_normal((m, sizes[0])) * rng.uniform(0.5, 2.0)
        t = rng.integers(1, n_p + 1, size=m)
        outputs = network.forward(model, x)
        hidden_pre = [a @ layer.weights + layer.bias for a, layer in zip(outputs[:-2], model.layers)]
        margins = [np.abs(pre).min() for pre in hidden_pre] + [np.abs(outputs[-1]).min()]
        if min(margins) > 100.0 * step:
            return model, x, t
        if attempt > 200:
            raise AssertionError(f"no kink-free instance found for seed {seed}")


def test_acceptance_gradients_match_central_differences():
    """Every parameter gradient of the combined objective, 20 random models."""
    start = time.time()
    worst = 0.0
    checked = 0
    step = 1e-5
    for seed in range(20):
        model, x, t = _smooth_instance(seed, step)
        cfg = ExperimentConfig(c_alpha=0.1, c_beta=0.1, c_f=0.0003)
        _, grads, _ = combined_step(model, x, t, cfg)
        for layer, grad in zip(model.layers, grads):
            for arr, g in ((layer.weights, grad.weights), (layer.bias, grad.bias)):
                flat, analytic = arr.ravel(), np.asarray(g, dtype=float).ravel()
                for i in range(flat.size):
                    kept = flat[i]
                    flat[i] = kept + step
                    up = combined_step(model, x, t, cfg)[0]
                    flat[i] = kept - step
                    down = combined_step(model, x, t, cfg)[0]
                    flat[i] = kept
                    fd = (up - down) / (2.0 * step)
                    if abs(analytic[i]) < 1e-8 and abs(fd) < 1e-8:
                        continue
                    worst = max(worst, abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd)))
                    checked += 1
    elapsed = time.time() - start
    _report(
        "combined-objective gradients vs central differences",
        worst <= 1e-4 and elapsed < 30.0,
        f"20 models, {checked} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- 2: regularizer hand values, bounds, scale invariance --------------------


def _ratios(b):
    """(affinity, balance) of the fused pass that every training step runs."""
    terms = gar_value_and_grad(b, 0.1, 0.1, 0.0003)[0]
    return terms.affinity, terms.balance


def test_acceptance_regularizer_values_and_invariances():
    start = time.time()
    a_hand, b_hand = _ratios(np.array([[1.0, 1.0], [0.0, 2.0]]))
    hand_ok = abs(a_hand - 1.0 / 3.0) <= 1e-12 and abs(b_hand - 5.0 / 13.0) <= 1e-12
    bounds_ok = True
    drift = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        mat = rng.uniform(0.0, 5.0, size=(int(rng.integers(1, 21)), int(rng.integers(2, 9))))
        a_val, b_val = _ratios(mat)
        bounds_ok = bounds_ok and 0.0 <= a_val <= 1.0 and 0.0 <= b_val <= 1.0
        for c in (0.5, 3.0):
            a_c, b_c = _ratios(c * mat)
            drift = max(drift, abs(a_c - a_val), abs(b_c - b_val))
    elapsed = time.time() - start
    _report(
        "affinity 1/3 and balance 5/13 hand values, [0,1] bounds, scale invariance",
        hand_ok and bounds_ok and drift <= 1e-9 and elapsed < 5.0,
        f"hand values to 1e-12: {hand_ok}, 1000 matrices in bounds: {bounds_ok}, "
        f"worst scale drift {drift:.1e}, {elapsed:.1f}s",
    )


# --- 3: matching accuracy equals exhaustive mapping search -------------------


def test_acceptance_matching_accuracy_equals_exhaustive():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 51))
        nodes = rng.integers(1, int(rng.integers(1, 7)) + 1, size=m)
        truth = rng.integers(1, int(rng.integers(1, 7)) + 1, size=m)
        fast = clustering_accuracy(nodes, truth)
        worst_gap = max(worst_gap, abs(fast - exhaustive_accuracy(nodes, truth)))
    elapsed = time.time() - start
    _report(
        "matching accuracy equals exhaustive mapping search",
        worst_gap <= 1e-12 and elapsed < 10.0,
        f"200 instances, worst gap {worst_gap:.1e}, {elapsed:.1f}s",
    )


# --- 4: synthetic end-to-end sub-class recovery ------------------------------


def _fit_and_score(cfg: ExperimentConfig, partition):
    """Train with ``cli.fit`` on the train pool; score on the test pool."""
    train_pool, test_pool = cli.load_pools(cfg)
    train_data = pool_to_dataset(train_pool, partition)
    test_data = pool_to_dataset(test_pool, partition)
    model, _ = cli.fit(cfg, train_data)
    return cli.score(model, test_data), test_data


def _run_default_synthetic(seed: int):
    """One default-config run; returns (accuracy, per-node shares, seconds)."""
    t0 = time.time()
    cfg = ExperimentConfig(seed=seed)
    result, test_data = _fit_and_score(cfg, cli.default_partition(cfg))
    nodes = result["annotations"][0]
    all_nodes = np.arange(1, cfg.n_parents * cfg.k + 1)
    parents, _ = node_to_parent_sub(all_nodes, cfg.n_parents)
    shares = [
        float(np.mean(nodes[test_data.t == parent] == node))
        for node, parent in zip(all_nodes, parents)
    ]
    return result["acc"], shares, time.time() - t0


def test_acceptance_synthetic_end_to_end():
    """Default config, 10 seeds: fine clusters recovered without fine labels."""
    passes = 0
    slowest = 0.0
    details = []
    for seed in range(10):
        acc, shares, elapsed = _run_default_synthetic(seed)
        slowest = max(slowest, elapsed)
        ok = acc >= 0.95 and min(shares) >= 0.05
        passes += ok
        details.append(f"s{seed}:{acc:.3f}{'+' if ok else '-'}")
        assert elapsed < 120.0, f"seed {seed} took {elapsed:.0f}s"
    _report(
        "synthetic sub-class recovery, 10 seeds",
        passes >= 8,
        f"{passes}/10 seeds with acc >= 0.95 and every node >= 5% of its parent "
        f"(slowest {slowest:.1f}s): " + " ".join(details),
    )


# --- 5 and 6: MNIST desk-scale checks (need data/mnist/) ----------------------

_ROOT = Path(__file__).resolve().parent.parent
_MNIST_DIR = _ROOT / "data" / "mnist"
_MNIST_NAMES = {
    "images": "train-images-idx3-ubyte",
    "labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _mnist_config(**overrides) -> ExperimentConfig:
    missing = [n for n in _MNIST_NAMES.values() if not (_MNIST_DIR / n).exists()]
    if missing:
        pytest.skip(
            f"MNIST IDX files missing under {_MNIST_DIR}: {', '.join(missing)}. "
            "Download the four canonical files (raw, not gzipped) to enable this check."
        )
    return ExperimentConfig(
        dataset_type="idx",
        images=str(_MNIST_DIR / _MNIST_NAMES["images"]),
        labels=str(_MNIST_DIR / _MNIST_NAMES["labels"]),
        test_images=str(_MNIST_DIR / _MNIST_NAMES["test_images"]),
        test_labels=str(_MNIST_DIR / _MNIST_NAMES["test_labels"]),
        train_limit=10000,
        **overrides,
    )


def test_acceptance_digit_subclasses_beat_kmeans():
    """10k-digit subset, parents below/above 5, k=5: error <= 15% and better
    than per-parent k-means on the same examples."""
    start = time.time()
    cfg = _mnist_config(n_parents=2, k=5)
    result, test_data = _fit_and_score(cfg, cli.default_partition(cfg))
    baseline_nodes = kmeans_per_parent(test_data, cfg.k, seed=cfg.seed)
    kmeans_acc = clustering_accuracy(baseline_nodes, test_data.t_star)
    error = 1.0 - result["acc"]
    elapsed = time.time() - start
    _report(
        "digit sub-class recovery on a 10k subset",
        error <= 0.15 and result["acc"] > kmeans_acc and elapsed < 1200.0,
        f"clustering error {error:.3f} (target <= 0.15), "
        f"k-means per-parent acc {kmeans_acc:.3f} vs model {result['acc']:.3f}, {elapsed:.0f}s",
    )


def test_acceptance_first_parent_accuracy_grows_with_second_parent():
    """Richer second parent -> better sub-classes inside the first parent.
    Direction only, 5 seeds: full {5..9} beats {5} alone in at least 4."""
    wins = 0
    details = []
    for seed in range(5):
        full_cfg = _mnist_config(n_parents=2, k=5, seed=seed)
        full_result, _ = _fit_and_score(full_cfg, interparent_partition(()))
        lone_cfg = _mnist_config(n_parents=2, k=5, seed=seed)
        lone_result, _ = _fit_and_score(lone_cfg, interparent_partition((6, 7, 8, 9)))
        full_acc = full_result["first_parent_acc"]
        lone_acc = lone_result["first_parent_acc"]
        wins += full_acc > lone_acc
        details.append(f"s{seed}:{full_acc:.3f}vs{lone_acc:.3f}")
    _report(
        "first-parent accuracy grows with second-parent variety",
        wins >= 4,
        f"{wins}/5 seeds improved: " + " ".join(details),
    )


# --- 7: same-seed reruns are byte-identical -----------------------------------


def test_acceptance_same_seed_runs_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(ExperimentConfig()))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    same_csv = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_ckpt = (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
    _report(
        "same-seed reruns byte-identical",
        same_csv and same_ckpt,
        f"metrics.csv identical: {same_csv}, model.ckpt identical: {same_ckpt}",
    )


def test_acceptance_same_seed_sweeps_and_baselines_byte_identical(tmp_path, capsys):
    # overlapping blobs, so the k-means restarts disagree and the WSS choice matters
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "dataset.per_cluster = 40\ndataset.test_per_cluster = 40\ndataset.dim = 4\n"
        "dataset.separation = 2.0\nhead.k = 2\ntrain.epochs = 3\ntrain.batch_size = 16\n"
        "train.validation_size = 32\ntrain.hidden = 16\nseed = 3\n"
        "scenario.mode = random-partitions\nscenario.count = 2\n"
    )
    csvs, stdouts = [], []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["scenarios", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["baseline", "--config", str(cfg_path)]) == 0
        csvs.append((out / "scenarios.csv").read_bytes())
        stdouts.append(capsys.readouterr().out.encode())
    same_csv, same_stdout = csvs[0] == csvs[1], stdouts[0] == stdouts[1]
    _report(
        "same-seed sweeps and baselines byte-identical",
        same_csv and same_stdout and stdouts[0].count(b"\n") == 4,
        f"scenarios.csv identical: {same_csv}, stdout identical: {same_stdout}",
    )


# --- 8: idx files round-trip bit-exactly and reject malformed input -----------


def test_acceptance_idx_bit_exact_and_failure_modes(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(5, 3, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    img_a, lab_a = tmp_path / "a_imgs.idx", tmp_path / "a_labs.idx"
    write_idx_images(pixels, img_a)
    write_idx_labels(labels, lab_a)
    read_pixels, read_labels = load_idx(img_a, lab_a)
    img_b, lab_b = tmp_path / "b_imgs.idx", tmp_path / "b_labs.idx"
    write_idx_images(read_pixels, img_b)
    write_idx_labels(read_labels, lab_b)
    exact = (
        img_a.read_bytes() == img_b.read_bytes()
        and lab_a.read_bytes() == lab_b.read_bytes()
    )

    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(struct.pack(">iiii", 0x00000999, 1, 2, 2) + bytes(4))
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx_images(bad_magic)

    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(struct.pack(">iiii", IMAGES_MAGIC, 2, 2, 2) + bytes(5))
    with pytest.raises(IdxFormatError, match="truncated payload"):
        load_idx_images(truncated)

    lab_short = tmp_path / "short_labs.idx"
    write_idx_labels(labels[:4], lab_short)
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(img_a, lab_short)

    _report(
        "idx round-trip bit-exact plus three failure modes",
        exact,
        f"bytes identical after parse/reserialize: {exact}; "
        "bad magic, truncated payload, count mismatch all rejected",
    )


# --- 9 and 10: generated digits, GAR and the transfer between parents ---------


@pytest.fixture(scope="module")
def generated_digits(tmp_path_factory):
    """3,000/1,000 digits from bench/digits.py (generator seeds 41 and 42),
    made once for checks 9 and 10: ``(config, train pool, test pool)`` with
    k=5, 10 epochs and 500 validation rows."""
    work = tmp_path_factory.mktemp("digits")
    digits = bench_digits()
    paths = {}
    for stem, count, seed, keys in (("train", 3000, 41, ("images", "labels")),
                                    ("t10k", 1000, 42, ("test_images", "test_labels"))):
        paths.update(zip(keys, digits.write_pair(count, np.random.default_rng(seed), str(work / stem))))
    base = ExperimentConfig(dataset_type="idx", **paths, k=5, epochs=10, validation_size=500)
    return (base, *cli.load_pools(base))


def test_acceptance_generated_digit_subclasses_need_gar(generated_digits):
    """Parents below/above 5, 3 model seeds: the GAR terms beat all GAR terms
    off by 0.15 on every seed. ACOL against per-parent k-means is printed,
    not gated."""
    start = time.time()
    base, *pools = generated_digits
    partition = cli.default_partition(base)
    train_data, test_data = (pool_to_dataset(pool, partition) for pool in pools)
    scores = [  # (GAR, GAR off) per model seed
        tuple(
            cli.score(cli.fit(replace(base, seed=seed, **terms), train_data)[0], test_data)["acc"]
            for terms in ({}, {"c_alpha": 0.0, "c_beta": 0.0, "c_f": 0.0})
        )
        for seed in range(3)
    ]
    gap = min(gar - off for gar, off in scores)
    nodes = kmeans_per_parent(test_data, base.k, seed=base.seed)
    kmeans_acc = clustering_accuracy(nodes, test_data.t_star)
    elapsed = time.time() - start
    _report(
        "generated-digit sub-classes, GAR vs GAR off",
        gap >= 0.15,
        f"3 seeds, smallest gap {gap:.3f} (target >= 0.15): "
        + " ".join(f"s{seed}:{gar:.3f}vs{off:.3f}" for seed, (gar, off) in enumerate(scores))
        + f"; not gated: mean ACOL {np.mean([gar for gar, _ in scores]):.3f}"
        f" vs per-parent k-means {kmeans_acc:.3f}, {elapsed:.0f}s",
    )


def test_acceptance_first_parent_subclasses_fall_as_parent_2_loses_digits(generated_digits, tmp_path):
    """The abstract's transfer claim, run through ``acol scenarios``, which
    trains every scenario with the run's seed: parent 1 (digits 0-4) has its
    sub-classes recovered worse when parent 2 keeps digit 5 alone than when
    it keeps 5-9, by at least 0.05 on each of 3 model seeds."""
    start = time.time()
    groups = ("none", "6,7,8,9")  # the digits dropped from parent 2
    sweep = replace(generated_digits[0], scenario_mode="inter-parent", scenario_exclusions=";".join(groups))
    config = tmp_path / "sweep.txt"
    config.write_text(serialize_config(sweep))
    pairs = []  # (parent 2 keeps 5-9, keeps 5 alone) per model seed
    for seed in range(3):
        out = tmp_path / f"seed-{seed}"
        argv = ["scenarios", "--config", str(config), "--out", str(out), "--seed", str(seed), "--quiet"]
        assert cli.main(argv) == 0
        with (out / "scenarios.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))[: len(groups)]
        pairs.append(tuple(float(row["first_parent_acc"]) for row in rows))
    falls = [full - lone for full, lone in pairs]
    means = np.mean(pairs, axis=0)
    elapsed = time.time() - start
    _report(
        "first-parent sub-classes fall as parent 2 loses digits",
        min(falls) >= 0.05,
        f"3 seeds, smallest fall {min(falls):.3f} (target >= 0.05): "
        + " ".join(f"s{seed}:{full:.3f}vs{lone:.3f}" for seed, (full, lone) in enumerate(pairs))
        + "; mean first-parent acc "
        + ", ".join(f"drops {group} {mean:.3f}" for group, mean in zip(groups, means))
        + f", {elapsed:.0f}s",
    )

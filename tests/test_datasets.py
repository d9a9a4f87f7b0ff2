"""IDX round trips, parent partitions, synthetic blobs, validation splits."""

import operator
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acol import cli, network
from acol.config import ExperimentConfig
from acol.datasets import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    IdxFormatError,
    LabeledDataset,
    ParentPartition,
    FinePool,
    images_to_features,
    interparent_partition,
    load_idx,
    load_idx_images,
    load_idx_labels,
    pool_to_dataset,
    random_partition,
    split_validation,
    synthetic_blobs,
    threshold_partition,
    write_idx_images,
    write_idx_labels,
)
from acol.head import AcolHead


def make_image_bytes(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    m, r, c = pixels.shape
    return struct.pack(">iiii", IMAGES_MAGIC, m, r, c) + pixels.tobytes()


def make_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", LABELS_MAGIC, labels.shape[0]) + labels.tobytes()


@pytest.fixture
def tiny_idx(tmp_path):
    """Two 2x2 images with extreme pixel values, labels 3 and 7."""
    pixels = np.array(
        [[[0, 255], [255, 0]], [[255, 255], [0, 0]]], dtype=np.uint8
    )
    labels = np.array([3, 7], dtype=np.uint8)
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(make_image_bytes(pixels))
    lp.write_bytes(make_label_bytes(labels))
    return ip, lp, pixels, labels


def test_load_idx_pair(tiny_idx):
    ip, lp, pixels, labels = tiny_idx
    read_pixels, read_labels = load_idx(ip, lp)
    assert np.array_equal(read_pixels, pixels)
    assert np.array_equal(read_labels, labels.astype(np.int64))
    assert read_labels.dtype == np.int64


def test_images_to_features_scaling(tiny_idx):
    ip, lp, _, _ = tiny_idx
    x = images_to_features(load_idx(ip, lp)[0])
    assert x.shape == (2, 4)
    assert np.array_equal(x[0], np.array([0.0, 1.0, 1.0, 0.0]))
    assert np.array_equal(x[1], np.array([1.0, 1.0, 0.0, 0.0]))


def test_idx_round_trip_is_bit_exact(tmp_path, tiny_idx):
    ip, lp, _, _ = tiny_idx
    original_images = ip.read_bytes()
    original_labels = lp.read_bytes()
    pixels = load_idx_images(ip)
    labels = load_idx_labels(lp)
    ip2 = tmp_path / "imgs2.idx"
    lp2 = tmp_path / "labs2.idx"
    write_idx_images(pixels, ip2)
    write_idx_labels(labels, lp2)
    assert ip2.read_bytes() == original_images
    assert lp2.read_bytes() == original_labels


def test_idx_round_trip_random_payload(tmp_path):
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(7, 3, 5), endpoint=False).astype(np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    ip = tmp_path / "r.idx"
    lp = tmp_path / "rl.idx"
    ip.write_bytes(make_image_bytes(pixels))
    lp.write_bytes(make_label_bytes(labels))
    write_idx_images(load_idx_images(ip), tmp_path / "r2.idx")
    write_idx_labels(load_idx_labels(lp), tmp_path / "rl2.idx")
    assert (tmp_path / "r2.idx").read_bytes() == ip.read_bytes()
    assert (tmp_path / "rl2.idx").read_bytes() == lp.read_bytes()


@pytest.mark.parametrize(
    "write, values, bad",
    [
        (write_idx_labels, [256, -1, 3], "256"),
        (write_idx_labels, np.array([3, -1]), "-1"),
        (write_idx_images, [[[300.7, -1]]], "300.7"),
        (write_idx_images, [[[2.0, 1.5]]], "1.5"),
        (write_idx_labels, [0, np.nan], "nan"),
    ],
)
def test_idx_writers_reject_values_outside_a_byte(tmp_path, write, values, bad):
    """A cast to uint8 would wrap them: 256 read back as 0, -1 as 255, 300.7 as 44."""
    path = tmp_path / "out.idx"
    with pytest.raises(ValueError) as err:
        write(values, path)
    assert str(err.value) == f"{path}: IDX values must be integers in 0..255, got {bad}"
    assert not path.exists()


@pytest.mark.parametrize(
    "write, values, message",
    [
        (write_idx_labels, np.zeros((2, 3)), "IDX magic 0x00000801 needs a 1-D array, got shape (2, 3)"),
        (write_idx_images, np.zeros((2, 3)), "IDX magic 0x00000803 needs a 3-D array, got shape (2, 3)"),
    ],
)
def test_idx_writers_reject_an_array_of_another_rank(tmp_path, write, values, message):
    path = tmp_path / "out.idx"
    with pytest.raises(ValueError) as err:
        write(values, path)
    assert str(err.value) == message
    assert not path.exists()


def test_idx_writers_accept_integral_floats(tmp_path):
    write_idx_images([[[0.0, 255.0]]], tmp_path / "i.idx")
    assert load_idx_images(tmp_path / "i.idx").tolist() == [[[0, 255]]]


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">iiii", 0x00000999, 1, 2, 2) + bytes(4))
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx_images(p)
    p.write_bytes(struct.pack(">ii", 0x00000999, 1) + bytes(1))
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx_labels(p)


def test_idx_truncated_payload(tmp_path):
    p = tmp_path / "short.idx"
    p.write_bytes(struct.pack(">iiii", IMAGES_MAGIC, 2, 2, 2) + bytes(7))  # needs 8
    with pytest.raises(IdxFormatError, match="truncated payload") as err:
        load_idx_images(p)
    assert str(err.value) == f"{p}: truncated payload, expected 8 pixel bytes, got 7"
    p.write_bytes(struct.pack(">iiii", IMAGES_MAGIC, 2, 2, 2) + bytes(9))  # one byte too many
    with pytest.raises(IdxFormatError, match="truncated payload") as err:
        load_idx_images(p)
    assert str(err.value) == f"{p}: truncated payload, expected 8 pixel bytes, got 9"
    p.write_bytes(struct.pack(">ii", LABELS_MAGIC, 5) + bytes(3))
    with pytest.raises(IdxFormatError, match="truncated payload") as err:
        load_idx_labels(p)
    assert str(err.value) == f"{p}: truncated payload, expected 5 label bytes, got 3"


def test_idx_count_mismatch(tmp_path):
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    ip.write_bytes(make_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
    lp.write_bytes(make_label_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(IdxFormatError, match="count mismatch") as err:
        load_idx(ip, lp)
    assert str(err.value) == "image/label count mismatch: 3 images vs 2 labels"


def test_idx_readers_accept_a_pair_with_no_rows(tmp_path):
    """Count 0 is valid IDX; rejecting an empty pool is the CLI's job."""
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(np.zeros((0, 28, 28), dtype=np.uint8), ip)
    write_idx_labels(np.zeros(0, dtype=np.uint8), lp)
    pixels, labels = load_idx(ip, lp)
    assert pixels.shape == (0, 28, 28) and labels.shape == (0,)


def test_idx_negative_sizes_are_rejected(tmp_path):
    p = tmp_path / "neg.idx"
    p.write_bytes(struct.pack(">iiii", IMAGES_MAGIC, -1, -1, 2) + bytes(2))
    with pytest.raises(IdxFormatError) as err:
        load_idx_images(p)
    assert str(err.value) == f"{p}: negative size -1x-1x2 in header"
    p.write_bytes(struct.pack(">ii", LABELS_MAGIC, -1))
    with pytest.raises(IdxFormatError) as err:
        load_idx_labels(p)
    assert str(err.value) == f"{p}: negative size -1 in header"


_IDX_HEADERS = st.builds(
    lambda magic, sizes: struct.pack(f">{1 + len(sizes)}i", magic, *sizes),
    st.sampled_from([IMAGES_MAGIC, LABELS_MAGIC, 0, -1]),
    st.lists(st.integers(min_value=-3, max_value=4), max_size=3),
)
_IDX_BYTES = st.one_of(
    st.binary(max_size=48),
    st.builds(operator.add, _IDX_HEADERS, st.binary(max_size=48)),
)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(blob=_IDX_BYTES)
def test_idx_readers_parse_or_raise_idx_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.idx"
    path.write_bytes(blob)
    try:
        pixels = load_idx_images(path)
    except IdxFormatError:
        pass
    else:
        assert pixels.dtype == np.uint8 and pixels.tobytes() == blob[16:]
    try:
        labels = load_idx_labels(path)
    except IdxFormatError:
        pass
    else:
        assert labels.dtype == np.int64 and labels.tolist() == list(blob[8:])


# --- stored values and their features --------------------------------------

FEATURE_ROWS = [slice(None), slice(3, 17), np.array([29, 0, 5, 5, 12]), np.arange(30) % 3 == 0]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


def _idx_pool_config(tmp_path, pixels, **entries) -> ExperimentConfig:
    write_idx_images(pixels, tmp_path / "imgs.idx")
    write_idx_labels(np.arange(len(pixels)) % 10, tmp_path / "labs.idx")
    return ExperimentConfig(dataset_type="idx", images=str(tmp_path / "imgs.idx"),
                            labels=str(tmp_path / "labs.idx"), **entries)


def test_idx_features_equal_converting_the_whole_pool_first(tmp_path):
    """A few rows at a time, features() gives the bits of converting every
    pixel of the pool before any row is taken; a configured feature scale is
    the model's, so it does not change them."""
    pixels = np.random.default_rng(1).integers(0, 256, size=(30, 4, 5), dtype=np.uint8)
    cfg = _idx_pool_config(tmp_path, pixels, feature_scale=0.5)
    data = pool_to_dataset(cli.load_pool(cfg, test=False), threshold_partition())
    whole = images_to_features(pixels)
    for rows in FEATURE_ROWS:
        assert _same_bits(data.features(rows), whole[rows])


def test_synthetic_features_are_the_blobs_of_the_pool():
    """The synthetic default scale, 0.32, is applied by the model, not here."""
    cfg = ExperimentConfig(per_cluster=5)
    data = pool_to_dataset(cli.load_pool(cfg, test=False), cli.default_partition(cfg))
    blobs = synthetic_blobs(cfg.n_parents * cfg.k, cfg.per_cluster, cfg.dim, cfg.separation, cfg.seed)
    for rows in FEATURE_ROWS:
        assert _same_bits(data.features(rows), blobs.X[rows])


def test_features_into_a_buffer_equal_a_new_conversion():
    """``features(rows, out)`` writes into the leading rows of ``out`` the bits
    that a new conversion gives: the float64 cast then ``/ 255`` of every
    uint8 value, or the stored float64 rows, and leaves the rest of ``out``."""
    pixels = np.random.default_rng(3).permutation(np.arange(600) % 256).astype(np.uint8).reshape(30, 4, 5)
    blobs = np.random.default_rng(4).normal(size=(30, 20))
    reference = pixels.reshape(30, 20).astype(np.float64) / 255.0
    assert _same_bits(images_to_features(pixels), reference)
    for stored, want in ((pixels.reshape(30, 20), reference), (blobs, blobs)):
        data = LabeledDataset(X=stored, t=np.ones(30, dtype=np.int64))
        for rows in FEATURE_ROWS:
            out = np.full((40, 20), np.nan)
            got = data.features(rows, out)
            assert _same_bits(got, want[rows]) and np.shares_memory(got, out)
            assert _same_bits(got, data.features(rows))
            assert np.isnan(out[len(got):]).all()


def test_an_idx_pool_holds_its_pixels_and_no_float64_matrix(tmp_path):
    m, d = 2000, 64
    pixels = np.random.default_rng(2).integers(0, 256, size=(m, 8, 8), dtype=np.uint8)
    cfg = _idx_pool_config(tmp_path, pixels)
    tracemalloc.start()
    try:
        pool = cli.load_pool(cfg, test=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool.X.dtype == np.uint8 and pool.X.shape == (m, d) and pool.X.nbytes == m * d
    assert np.array_equal(pool.X, pixels.reshape(m, d))
    assert peak < 2 * m * d  # a float64 copy of the pixels takes 8 * m * d


def test_a_dataset_without_rows_converts_to_an_empty_float64_matrix():
    data = LabeledDataset(X=np.zeros((0, 6), dtype=np.uint8), t=np.zeros(0, dtype=np.int64))
    x = data.features()
    assert x.dtype == np.float64 and x.shape == (0, 6)


# --- parent partitions ------------------------------------------------------


def test_threshold_partition_default():
    p = threshold_partition()
    for d in range(10):
        assert p.mapping[d] == (1 if d < 5 else 2)
    assert p.exclude == frozenset()
    assert "0" in p.describe() and "vs" in p.describe()


def test_random_partition_is_seeded_and_near_equal():
    a = random_partition(42)
    b = random_partition(42)
    c = random_partition(43)
    assert a.mapping == b.mapping
    assert any(a.mapping[d] != c.mapping[d] for d in range(10))
    sizes = [sum(1 for v in a.mapping.values() if v == p) for p in (1, 2)]
    assert sizes == [5, 5]
    three = random_partition(1, fine_labels=range(9), n_parents=3)
    sizes = [sum(1 for v in three.mapping.values() if v == p) for p in (1, 2, 3)]
    assert sizes == [3, 3, 3]


def test_interparent_partition_drops_only_high_digits():
    p = interparent_partition({9})
    assert p.exclude == frozenset({9})
    assert p.mapping[4] == 1 and p.mapping[5] == 2
    full = interparent_partition()
    assert full.exclude == frozenset()
    with pytest.raises(ValueError, match="5-9"):
        interparent_partition({3})


def test_partition_requires_two_parents():
    with pytest.raises(ValueError):
        ParentPartition(mapping={0: 1, 1: 1})


def test_pool_to_dataset_maps_and_excludes():
    pixels = np.arange(24, dtype=np.uint8).reshape(6, 2, 2)
    labels = np.array([0, 5, 9, 3, 9, 7], dtype=np.int64)
    pool = FinePool(X=images_to_features(pixels), fine=labels)
    data = pool_to_dataset(pool, interparent_partition({9}))
    assert len(data) == 4
    assert np.array_equal(data.t, np.array([1, 2, 1, 2]))
    assert np.array_equal(data.t_star, np.array([0, 5, 3, 7]))
    assert np.array_equal(data.X, pool.X[[0, 1, 3, 5]])
    with pytest.raises(ValueError, match="no parent"):
        pool_to_dataset(pool, ParentPartition(mapping={0: 1, 5: 2}))


def test_pool_to_dataset_equals_per_row_mapping():
    rng = np.random.default_rng(3)
    fine = rng.integers(0, 10, size=500)
    pool = FinePool(X=rng.normal(size=(500, 3)), fine=fine)
    for partition in (random_partition(4), interparent_partition({8, 9}), threshold_partition(3)):
        data = pool_to_dataset(pool, partition)
        keep = np.array([int(f) not in partition.exclude for f in fine])
        assert data.t.dtype == np.int64
        assert np.array_equal(data.t, [partition.mapping[int(f)] for f in fine[keep]])
        assert np.array_equal(data.t_star, fine[keep])
        assert np.array_equal(data.X, pool.X[keep])


def test_pool_to_dataset_empty_exclude_keeps_every_row():
    fine = np.array([7, 2, 2, 9, 7], dtype=np.uint8)
    pool = FinePool(X=np.arange(10.0).reshape(5, 2), fine=fine)
    data = pool_to_dataset(pool, ParentPartition(mapping={2: 1, 7: 2, 9: 2}))
    assert np.array_equal(data.X, pool.X)
    assert np.array_equal(data.t, [2, 1, 1, 2, 2]) and data.t.dtype == np.int64


def test_pool_to_dataset_unmapped_label_message():
    pool = FinePool(X=np.zeros((4, 1)), fine=np.array([0, 6, 5, 3]))
    with pytest.raises(ValueError) as err:
        pool_to_dataset(pool, ParentPartition(mapping={0: 1, 5: 2}))
    assert str(err.value) == "fine label 3 has no parent in the partition"


def test_pool_to_dataset_t_star_does_not_alias_the_pool():
    fine = np.array([0, 5, 0, 5])
    pool = FinePool(X=np.zeros((4, 1)), fine=fine)
    for partition in (ParentPartition(mapping={0: 1, 5: 2}), interparent_partition({9})):
        data = pool_to_dataset(pool, partition)
        data.t_star[0] = 4
        assert pool.fine[0] == 0
        pool.fine[1] = 6
        assert data.t_star[1] == 5
        pool.fine[1] = 5


def test_pool_to_dataset_shares_the_pool_features_only_when_no_row_is_dropped():
    fine = np.array([0, 5, 9, 3, 9, 7])
    pool = FinePool(X=np.arange(12.0).reshape(6, 2), fine=fine)
    whole = pool_to_dataset(pool, threshold_partition())
    assert whole.X is pool.X and np.shares_memory(whole.X, pool.X)
    assert not np.shares_memory(whole.t_star, pool.fine)
    part = pool_to_dataset(pool, interparent_partition({9}))
    assert not np.shares_memory(part.X, pool.X)
    assert not np.shares_memory(part.t_star, pool.fine)


def test_pool_to_dataset_identity_on_fine_labels():
    # with a mapping that sends each fine label to itself, t equals t_star
    pixels = np.zeros((4, 1, 1), dtype=np.uint8)
    labels = np.array([1, 2, 1, 2], dtype=np.int64)
    pool = FinePool(X=images_to_features(pixels), fine=labels)
    data = pool_to_dataset(pool, ParentPartition(mapping={1: 1, 2: 2}))
    assert np.array_equal(data.t, data.t_star)


# --- synthetic blobs --------------------------------------------------------


def test_synthetic_blobs_contract():
    data = synthetic_blobs(6, per_cluster=50, dim=8, separation=10.0, seed=0)
    assert data.X.shape == (300, 8)
    assert set(np.unique(data.fine)) == set(range(1, 7))
    # each cluster has exactly per_cluster examples
    assert all(np.sum(data.fine == c) == 50 for c in range(1, 7))
    # noise comes from one seeded stream drawn cluster after cluster: taking
    # it away leaves each cluster's fixed center on every one of its rows
    rng = np.random.default_rng(0)
    noise = np.vstack([rng.standard_normal((50, 8)) for _ in range(6)])
    centers = data.X - noise
    for c in range(1, 7):
        rows = centers[data.fine == c]
        assert np.allclose(rows, rows[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_parents, k", [(2, 3), (3, 2), (4, 1)])
def test_synthetic_parents_follow_the_interleaved_node_rule(n_parents, k):
    """The CLI's default partition alone assigns synthetic parents: cluster
    c -> parent (c-1) % n_p + 1, the head's node-to-parent rule."""
    cfg = ExperimentConfig(n_parents=n_parents, k=k)
    pool = synthetic_blobs(n_parents * k, per_cluster=5, dim=8, separation=10.0, seed=0)
    data = pool_to_dataset(pool, cli.default_partition(cfg))
    assert np.array_equal(data.t, (pool.fine - 1) % n_parents + 1)
    assert np.array_equal(data.t_star, pool.fine)


def test_synthetic_blobs_center_separation_and_purity():
    """Nearest-center oracle: with separation 10 and unit variance, almost
    every point is closest to its own cluster's empirical center."""
    for seed in range(3):
        data = synthetic_blobs(6, per_cluster=100, dim=8, separation=10.0, seed=seed)
        centers = np.stack([data.X[data.fine == c].mean(axis=0) for c in range(1, 7)])
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        off = gaps[~np.eye(6, dtype=bool)]
        assert off.min() >= 9.0
        d2 = ((data.X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1) + 1
        assert (nearest == data.fine).mean() >= 0.999


def test_synthetic_blobs_equidistant_centered_layout():
    """With dim >= cluster count the centers form a regular simplex: every
    pair exactly ``separation`` apart and the centroid at the origin."""
    for seed in range(3):
        data = synthetic_blobs(6, per_cluster=400, dim=8, separation=10.0, seed=seed)
        centers = np.stack([data.X[data.fine == c].mean(axis=0) for c in range(1, 7)])
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        off = gaps[~np.eye(6, dtype=bool)]
        # empirical centers wobble by ~1/sqrt(400) per coordinate
        assert np.all(np.abs(off - 10.0) < 0.5)
        assert np.linalg.norm(centers.mean(axis=0)) < 0.5


def test_synthetic_blobs_lattice_fallback_when_dim_is_small():
    # 4 clusters in 3 dims cannot form a centered-identity simplex
    data = synthetic_blobs(4, per_cluster=200, dim=3, separation=8.0, seed=0)
    centers = np.stack([data.X[data.fine == c].mean(axis=0) for c in range(1, 5)])
    gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    off = gaps[~np.eye(4, dtype=bool)]
    assert off.min() >= 7.0


def test_synthetic_blobs_deterministic_per_seed():
    a = synthetic_blobs(4, 10, 3, 6.0, seed=5)
    b = synthetic_blobs(4, 10, 3, 6.0, seed=5)
    c = synthetic_blobs(4, 10, 3, 6.0, seed=6)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


# --- validation split -------------------------------------------------------


def test_split_validation_partitions_dataset():
    train, val = split_validation(100, size=20, seed=3)
    assert len(train) == 80 and len(val) == 20
    assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(100))
    # validation takes the first entries of the seeded permutation
    perm = np.random.default_rng(3).permutation(100)
    assert np.array_equal(val, perm[:20]) and np.array_equal(train, perm[20:])
    # deterministic
    train2, val2 = split_validation(100, size=20, seed=3)
    assert np.array_equal(train, train2) and np.array_equal(val, val2)
    # different seed shuffles differently
    _, val3 = split_validation(100, size=20, seed=4)
    assert not np.array_equal(val, val3)


def test_labeled_dataset_len():
    data = LabeledDataset(X=np.zeros((7, 2)), t=np.ones(7, dtype=np.int64))
    assert len(data) == 7
    assert data.t_star is None


@pytest.mark.parametrize("labels", [130, 70])
def test_fit_rejects_parent_labels_that_miss_the_rows_of_x(labels):
    """The one row-count check of a dataset, made where it is built. Without
    it 130 labels for 100 rows trained normally and 70 failed with an
    IndexError deep inside a batch."""
    cfg = ExperimentConfig(epochs=1, batch_size=16, validation_size=0)
    with pytest.raises(ValueError) as err:
        cli.fit(cfg, LabeledDataset(X=np.zeros((100, 8)), t=np.arange(labels) % 2 + 1))
    assert str(err.value) == f"100 rows of X, but {labels} entries in t"


@pytest.mark.parametrize(
    "t_star, found",
    [(np.ones(130, dtype=np.int64), "130 entries"), (np.ones((100, 1), dtype=np.int64), "shape (100, 1)")],
)
def test_labeled_dataset_rejects_fine_labels_that_miss_the_rows_of_x(t_star, found):
    with pytest.raises(ValueError) as err:
        LabeledDataset(X=np.zeros((100, 8)), t=np.ones(100, dtype=np.int64), t_star=t_star)
    assert str(err.value) == f"100 rows of X, but {found} in t_star"


def test_score_names_missing_fine_labels():
    head = AcolHead(2, 3)
    model = network.init_model([8, head.n], head, seed=0)
    with pytest.raises(ValueError, match="t_star"):
        cli.score(model, LabeledDataset(X=np.zeros((5, 8)), t=np.ones(5, dtype=np.int64)))

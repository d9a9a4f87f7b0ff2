"""Dataset ingestion and construction.

Covers the IDX container format used by MNIST-style digit files, the
mapping of fine labels onto coarse parent classes, a synthetic Gaussian
blob generator for desk-scale runs, and seeded train/validation splits.

IDX layout (all integers big-endian):
    images: i32 magic 0x00000803, i32 count, i32 rows, i32 cols, u8 pixels
    labels: i32 magic 0x00000801, i32 count, u8 labels
"""

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from .head import node_to_parent_sub

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised for malformed IDX files and mismatched image/label pairs."""


@dataclass
class RawDigits:
    """A parsed IDX image/label pair, kept byte-exact for re-serialization."""

    pixels: np.ndarray  # uint8, (m, rows, cols)
    labels: np.ndarray  # int64, (m,)


@dataclass
class LabeledDataset:
    """Features plus coarse parent labels, with optional hidden fine labels.

    ``t`` holds 1-based parent classes and is the only label ever seen by
    training. ``t_star``, when present, is the fine ground truth kept for
    evaluation only.
    """

    X: np.ndarray                 # float64, (m, d), values in [0, 1] for image data
    t: np.ndarray                 # int64, (m,)
    t_star: np.ndarray | None = None
    meta: str = ""

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass
class FinePool:
    """Features plus fine labels, before any parent assignment."""

    X: np.ndarray     # float64, (m, d)
    fine: np.ndarray  # int64, (m,)


@dataclass(frozen=True)
class ParentPartition:
    """Mapping from fine-label value to 1-based parent index.

    Fine labels in ``exclude`` are dropped entirely; every retained fine
    label must be mapped.
    """

    mapping: dict[int, int]
    exclude: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        retained = {f: p for f, p in self.mapping.items() if f not in self.exclude}
        if len(set(retained.values())) < 2:
            raise ValueError("partition must map retained fine labels onto at least 2 parents")

    @property
    def n_parents(self) -> int:
        return max(p for f, p in self.mapping.items() if f not in self.exclude)

    def describe(self) -> str:
        groups: dict[int, list[int]] = {}
        for fine, parent in sorted(self.mapping.items()):
            if fine not in self.exclude:
                groups.setdefault(parent, []).append(fine)
        return " vs ".join(
            "{" + ",".join(str(f) for f in groups[p]) + "}" for p in sorted(groups)
        )


def _read_be32(buf: bytes, offset: int, path: str) -> int:
    if len(buf) < offset + 4:
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack_from(">i", buf, offset)[0]


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a uint8 (m, rows, cols) array."""
    path = str(path)
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be32(buf, 0, path)
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(f"{path}: bad magic {magic:#010x}, expected {IMAGES_MAGIC:#010x}")
    count = _read_be32(buf, 4, path)
    rows = _read_be32(buf, 8, path)
    cols = _read_be32(buf, 12, path)
    if min(count, rows, cols) < 0:
        raise IdxFormatError(f"{path}: negative size {count}x{rows}x{cols} in header")
    expected = count * rows * cols
    if len(buf) - 16 != expected:
        raise IdxFormatError(
            f"{path}: truncated payload, expected {expected} pixel bytes, got {len(buf) - 16}"
        )
    # read in place from the file's bytes; slicing them first would copy the payload
    return np.frombuffer(buf, dtype=np.uint8, count=expected, offset=16).reshape(count, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an int64 (m,) array."""
    path = str(path)
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be32(buf, 0, path)
    if magic != LABELS_MAGIC:
        raise IdxFormatError(f"{path}: bad magic {magic:#010x}, expected {LABELS_MAGIC:#010x}")
    count = _read_be32(buf, 4, path)
    if count < 0:
        raise IdxFormatError(f"{path}: negative size {count} in header")
    if len(buf) - 8 != count:
        raise IdxFormatError(
            f"{path}: truncated payload, expected {count} label bytes, got {len(buf) - 8}"
        )
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=8).astype(np.int64)


def write_idx_images(pixels: np.ndarray, path) -> None:
    """Serialize a uint8 (m, rows, cols) array back to IDX bytes."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    m, rows, cols = pixels.shape
    with open(str(path), "wb") as f:
        f.write(struct.pack(">iiii", IMAGES_MAGIC, m, rows, cols))
        f.write(pixels.tobytes())


def write_idx_labels(labels: np.ndarray, path) -> None:
    """Serialize labels back to IDX bytes."""
    labels = np.asarray(labels)
    with open(str(path), "wb") as f:
        f.write(struct.pack(">ii", LABELS_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def load_idx(images_path, labels_path) -> RawDigits:
    """Load a matching IDX image/label pair."""
    pixels = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image/label count mismatch: {pixels.shape[0]} images vs {labels.shape[0]} labels"
        )
    return RawDigits(pixels=pixels, labels=labels)


def images_to_features(pixels: np.ndarray) -> np.ndarray:
    """Flatten images row-major and scale to [0, 1] by dividing by 255."""
    m = pixels.shape[0]
    return pixels.reshape(m, -1).astype(np.float64) / 255.0


def threshold_partition(threshold: int = 5) -> ParentPartition:
    """Two parents over digits 0-9: parent 1 below the threshold, parent 2 at or above."""
    return ParentPartition(mapping={d: (1 if d < threshold else 2) for d in range(10)})


def random_partition(seed: int, fine_labels=range(10), n_parents: int = 2) -> ParentPartition:
    """Seeded near-equal split of the fine labels into n_parents groups."""
    labels = list(fine_labels)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    mapping = {labels[int(j)]: (i % n_parents) + 1 for i, j in enumerate(order)}
    return ParentPartition(mapping=mapping)


def interparent_partition(dropped=()) -> ParentPartition:
    """Digits {0-4} as parent 1 vs {5-9} minus ``dropped`` as parent 2."""
    dropped = frozenset(int(d) for d in dropped)
    if not dropped <= set(range(5, 10)):
        raise ValueError(f"can only drop digits 5-9, got {sorted(dropped)}")
    return ParentPartition(
        mapping={d: (1 if d < 5 else 2) for d in range(10)},
        exclude=dropped,
    )


def pool_to_dataset(pool: FinePool, partition: ParentPartition, meta: str = "") -> LabeledDataset:
    """Label a fine-labeled pool with parents under ``partition``.

    Excluded fine labels are dropped; any other unmapped fine label is an
    error. The fine labels are kept as ``t_star`` for evaluation only, in a
    copy that never aliases the pool. When no row is dropped, ``X`` is the
    pool's own feature matrix, not a copy.
    """
    keep = ~np.isin(pool.fine, list(partition.exclude))
    if keep.all():
        X, fine = pool.X, pool.fine.copy()
    else:
        X, fine = pool.X[keep], pool.fine[keep]  # boolean indexing copies
    values, inverse = np.unique(fine, return_inverse=True)
    for value in values:
        if int(value) not in partition.mapping:
            raise ValueError(f"fine label {int(value)} has no parent in the partition")
    parents = np.array([partition.mapping[int(v)] for v in values], dtype=np.int64)
    return LabeledDataset(X=X, t=parents[inverse], t_star=fine, meta=meta)


def _simplex_centers(count: int, dim: int, separation: float) -> np.ndarray:
    """Regular-simplex vertices with edge length ``separation``, centroid 0.

    Built from a mean-centered identity block (needs dim >= count). Every
    pair of centers is exactly ``separation`` apart and no coordinate
    carries a common offset, so no cluster pairing is geometrically
    privileged over another.
    """
    eye = np.eye(count)
    eye -= eye.mean(axis=0)
    centers = np.zeros((count, dim))
    centers[:, :count] = eye * (separation / np.sqrt(2.0))
    return centers


def _lattice_centers(count: int, dim: int, separation: float) -> np.ndarray:
    """First ``count`` points of a lattice with spacing ``separation``.

    Fallback for dim < count. Distinct lattice points differ by at least
    one step in some coordinate, so all pairwise distances are >= separation.
    """
    side = 1
    while side**dim < count:
        side += 1
    points = itertools.islice(itertools.product(range(side), repeat=dim), count)
    return separation * np.array(list(points), dtype=np.float64)


def synthetic_blobs(
    n_parents: int,
    k: int,
    per_cluster: int,
    dim: int,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian clusters with known sub-class truth.

    Generates ``n_parents * k`` clusters whose centers sit at mutual
    distance >= separation: a centered regular simplex when the feature
    dimension allows (all pairs exactly ``separation`` apart), a lattice
    otherwise. Centers are fixed; only the noise depends on the seed.
    ``t_star`` is the 1-based cluster id; the parent label interleaves
    clusters over parents by the head's node-to-parent rule (cluster c ->
    parent ``(c-1) % n_parents + 1``, see ``node_to_parent_sub``).
    """
    if separation <= 0:
        raise ValueError("separation must be positive")
    count = n_parents * k
    if dim >= count:
        centers = _simplex_centers(count, dim, separation)
    else:
        centers = _lattice_centers(count, dim, separation)
    t_star = np.repeat(np.arange(1, count + 1, dtype=np.int64), per_cluster)
    noise = np.random.default_rng(seed).standard_normal((count * per_cluster, dim))
    return LabeledDataset(
        X=centers[t_star - 1] + noise,
        t=node_to_parent_sub(t_star, n_parents)[0],
        t_star=t_star,
        meta=f"synthetic blobs {n_parents}x{k}, dim {dim}, separation {separation}, seed {seed}",
    )


def split_validation(m: int, size: int, seed: int):
    """Seeded (train, validation) index arrays over ``m`` rows.

    The validation rows are the first ``size`` entries of a seeded
    permutation and the training rows the rest, in permutation order; each
    row lands in exactly one of the two.
    """
    if size >= m:
        raise ValueError(f"validation size {size} must be smaller than the dataset ({m})")
    perm = np.random.default_rng(seed).permutation(m)
    return perm[size:], perm[:size]

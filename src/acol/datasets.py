"""Dataset ingestion and construction.

Covers the IDX container format used by MNIST-style digit files, the
mapping of fine labels onto coarse parent classes, a synthetic Gaussian
blob generator for small desk runs, and seeded train/validation splits.

IDX layout (all integers big-endian):
    images: i32 magic 0x00000803, i32 count, i32 rows, i32 cols, u8 pixels
    labels: i32 magic 0x00000801, i32 count, u8 labels
"""

import contextlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised for malformed IDX files and mismatched image/label pairs."""


@contextlib.contextmanager
def artifact(path, mode: str):
    """Yield ``<name>.<pid>.tmp`` beside ``path``, its directory made, opened in ``mode`` (text
    ends lines in ``\\n``); a clean exit renames it over ``path``, an exception deletes it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    f = open(f"{path}.{os.getpid()}.tmp", mode, newline=None if "b" in mode else "")
    try:
        with f:
            yield f
        os.replace(f.name, path)
    except BaseException:
        os.remove(f.name)
        raise


@dataclass
class LabeledDataset:
    """Stored values plus coarse parent labels, with optional hidden fine labels.

    ``t`` holds 1-based parent classes and is the only label ever seen by
    training. ``t_star``, when present, is the fine ground truth kept for
    evaluation only. Each has one entry per row of ``X``, checked here.
    """

    X: np.ndarray                 # (m, d): uint8 pixels, or float64 features
    t: np.ndarray                 # int64, (m,)
    t_star: np.ndarray | None = None

    def __post_init__(self):
        for name, labels in (("t", self.t), ("t_star", self.t_star)):
            if labels is not None and np.shape(labels) != (len(self.X),):
                found = f"{len(labels)} entries" if np.ndim(labels) == 1 else f"shape {np.shape(labels)}"
                raise ValueError(f"{len(self.X)} rows of X, but {found} in {name}")

    def __len__(self) -> int:
        return self.X.shape[0]

    def features(self, rows=slice(None), out=None) -> np.ndarray:
        """float64 features of ``X[rows]``, a new array or the leading rows of
        ``out``: ``images_to_features`` of uint8 pixels; elementwise, so the
        bits do not depend on which rows are converted together."""
        x = self.X[rows]
        out = None if out is None else out[: len(x)]
        if x.dtype == np.uint8:
            return images_to_features(x, out)
        if out is None:
            return x
        np.copyto(out, x)
        return out


@dataclass
class FinePool:
    """Stored values plus fine labels, before any parent assignment."""

    X: np.ndarray       # (m, d): uint8 pixels, or float64 features
    fine: np.ndarray    # int64, (m,)


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

    def describe(self) -> str:
        groups: dict[int, list[int]] = {}
        for fine, parent in sorted(self.mapping.items()):
            if fine not in self.exclude:
                groups.setdefault(parent, []).append(fine)
        return " vs ".join(
            "{" + ",".join(str(f) for f in groups[p]) + "}" for p in sorted(groups)
        )


def _read_idx(path, magic: int, unit: str) -> np.ndarray:
    """Read an IDX file of uint8 values whose dimension count is the low byte
    of ``magic``; ``unit`` names the values in the payload-length error."""
    with open(path, "rb") as f:
        buf = f.read()
    header = 4 * (1 + (magic & 0xFF))
    if len(buf) >= 4 and (found := struct.unpack_from(">i", buf)[0]) != magic:
        raise IdxFormatError(f"{path}: bad magic {found:#010x}, expected {magic:#010x}")
    if len(buf) < header:
        raise IdxFormatError(f"{path}: truncated header")
    sizes = struct.unpack_from(f">{magic & 0xFF}i", buf, 4)
    if min(sizes) < 0:
        raise IdxFormatError(f"{path}: negative size {'x'.join(map(str, sizes))} in header")
    expected = math.prod(sizes)
    if len(buf) - header != expected:
        raise IdxFormatError(
            f"{path}: truncated payload, expected {expected} {unit} bytes, got {len(buf) - header}"
        )
    # read in place from the file's bytes; slicing them first would copy the payload
    return np.frombuffer(buf, dtype=np.uint8, count=expected, offset=header).reshape(sizes)


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a uint8 (m, rows, cols) array."""
    return _read_idx(path, IMAGES_MAGIC, "pixel")


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an int64 (m,) array."""
    return _read_idx(path, LABELS_MAGIC, "label").astype(np.int64)


def _write_idx(path, magic: int, values) -> None:
    """Write ``values``, integers in 0..255 whose ndim must be the low byte of
    ``magic``, as IDX; any other value is rejected before the file is opened."""
    values = np.asarray(values)
    if values.ndim != magic & 0xFF:
        raise ValueError(f"IDX magic {magic:#010x} needs a {magic & 0xFF}-D array, got shape {values.shape}")
    with np.errstate(invalid="ignore"):  # nan and out-of-range floats: the comparison rejects them
        as_bytes = values.astype(np.uint8)
    bad = np.flatnonzero(as_bytes != values)
    if bad.size:
        raise ValueError(f"{path}: IDX values must be integers in 0..255, got {values.flat[bad[0]]}")
    with artifact(path, "wb") as f:
        f.write(struct.pack(f">{1 + values.ndim}i", magic, *values.shape))
        f.write(as_bytes.tobytes())


def write_idx_images(pixels, path) -> None:
    """Serialize (m, rows, cols) pixels in 0..255 back to IDX bytes."""
    _write_idx(path, IMAGES_MAGIC, pixels)


def write_idx_labels(labels, path) -> None:
    """Serialize labels in 0..255 back to IDX bytes."""
    _write_idx(path, LABELS_MAGIC, labels)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load a matching IDX image/label pair as ``(pixels, labels)``."""
    pixels = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image/label count mismatch: {pixels.shape[0]} images vs {labels.shape[0]} labels"
        )
    return pixels, labels


def images_to_features(pixels: np.ndarray, out=None) -> np.ndarray:
    """Flatten images row-major and divide by 255 into [0, 1], in a new array or
    ``out``; 0 images give (0, d). Each pixel is cast to float64 and divided,
    the arithmetic of ``astype(np.float64) / 255.0``."""
    return np.divide(pixels.reshape(len(pixels), math.prod(pixels.shape[1:])), 255.0, out=out)


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
    return replace(threshold_partition(5), exclude=dropped)


def pool_to_dataset(pool: FinePool, partition: ParentPartition) -> LabeledDataset:
    """Label a fine-labeled pool with parents under ``partition``.

    Excluded fine labels are dropped; any other unmapped fine label is an
    error. The fine labels are kept as ``t_star`` for evaluation only, in a
    copy that never aliases the pool. When no row is dropped, ``X`` is the
    pool's own matrix, not a copy.
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
    return LabeledDataset(X=X, t=parents[inverse], t_star=fine)


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


def synthetic_blobs(count: int, per_cluster: int, dim: int, separation: float, seed: int) -> FinePool:
    """Isotropic unit-variance Gaussian clusters whose fine label is the
    1-based cluster id.

    Generates ``count`` clusters whose centers sit at mutual distance >=
    separation: a centered regular simplex when the feature dimension allows
    (all pairs exactly ``separation`` apart), a lattice otherwise. Centers
    are fixed; only the noise depends on the seed. Parents are assigned
    later, by a partition.
    """
    if dim >= count:
        centers = _simplex_centers(count, dim, separation)
    else:
        centers = _lattice_centers(count, dim, separation)
    fine = np.repeat(np.arange(1, count + 1, dtype=np.int64), per_cluster)
    noise = np.random.default_rng(seed).standard_normal((count * per_cluster, dim))
    return FinePool(X=centers[fine - 1] + noise, fine=fine)


def split_validation(m: int, size: int, seed: int):
    """Seeded (train, validation) index arrays over ``m`` rows.

    The validation rows are the first ``size`` entries of a seeded
    permutation and the training rows the rest, in permutation order; each
    row lands in exactly one of the two. The caller keeps ``size < m``, as
    ``network.train`` does for ``train.validation_size``.
    """
    perm = np.random.default_rng(seed).permutation(m)
    return perm[size:], perm[:size]

"""Experiment configuration: a flat ``key = value`` text format.

Lines are ``dotted.key = value``; blank lines and ``#`` comments are
ignored. Unknown keys are rejected. ``serialize_config`` writes every key
in a fixed order with full-precision floats, so parse/serialize round-trips
are lossless.

Keys (defaults in parentheses):
    dataset.type (synthetic)        synthetic | idx
    dataset.images / dataset.labels             IDX paths for training data
    dataset.test_images / dataset.test_labels   optional IDX test pair
    dataset.train_limit (0)         keep only the first N training examples
    dataset.per_cluster (200)       synthetic: examples per cluster
    dataset.test_per_cluster (200)  synthetic: test examples per cluster
    dataset.dim (8)                 synthetic: feature dimension
    dataset.separation (10.0)       synthetic: minimum center distance
    dataset.feature_scale (0)       multiply features by this before training;
                                    0 = auto (0.32 synthetic, 1.0 idx)
    partition.type (threshold)      threshold | random  (idx datasets)
    partition.threshold (5)         digits below -> parent 1, rest -> parent 2
    head.n_p (2)                    parent-class count
    head.k (3)                      softmax duplicates per parent
    gar.c_alpha (0.1)  gar.c_beta (0.1)  gar.c_f (0.0003)
    train.batch_size (128)  train.epochs (100)  train.lr (0.01)
    train.momentum (0.9)  train.validation_size (1000)
    train.hidden (empty)            hidden layer widths, comma separated;
                                    empty = auto (2048 synthetic, 256,128 idx)
    seed (0)
    output.dir (out)
    scenario.mode (single)          single | random-partitions | inter-parent
    scenario.count (4)              random-partitions: number of repetitions
    scenario.exclusions (none;9;8,9)  inter-parent: ;-separated drop groups
"""

import math
from dataclasses import dataclass

_INT, _FLOAT, _STR, _INTS = "int", "float", "str", "ints"

# (file key, attribute, type tag)
_KEYS = [
    ("dataset.type", "dataset_type", _STR),
    ("dataset.images", "images", _STR),
    ("dataset.labels", "labels", _STR),
    ("dataset.test_images", "test_images", _STR),
    ("dataset.test_labels", "test_labels", _STR),
    ("dataset.train_limit", "train_limit", _INT),
    ("dataset.per_cluster", "per_cluster", _INT),
    ("dataset.test_per_cluster", "test_per_cluster", _INT),
    ("dataset.dim", "dim", _INT),
    ("dataset.separation", "separation", _FLOAT),
    ("dataset.feature_scale", "feature_scale", _FLOAT),
    ("partition.type", "partition_type", _STR),
    ("partition.threshold", "partition_threshold", _INT),
    ("head.n_p", "n_parents", _INT),
    ("head.k", "k", _INT),
    ("gar.c_alpha", "c_alpha", _FLOAT),
    ("gar.c_beta", "c_beta", _FLOAT),
    ("gar.c_f", "c_f", _FLOAT),
    ("train.batch_size", "batch_size", _INT),
    ("train.epochs", "epochs", _INT),
    ("train.lr", "learning_rate", _FLOAT),
    ("train.momentum", "momentum", _FLOAT),
    ("train.validation_size", "validation_size", _INT),
    ("train.hidden", "hidden", _INTS),
    ("seed", "seed", _INT),
    ("output.dir", "output_dir", _STR),
    ("scenario.mode", "scenario_mode", _STR),
    ("scenario.count", "scenario_count", _INT),
    ("scenario.exclusions", "scenario_exclusions", _STR),
]

# Lower bounds of integer keys: (file key, minimum)
_MINIMUMS = [
    ("dataset.train_limit", 0),
    ("dataset.per_cluster", 1),
    ("dataset.test_per_cluster", 1),
    ("dataset.dim", 1),
    ("head.n_p", 2),
    ("head.k", 1),
    ("train.batch_size", 2),
    ("train.epochs", 0),
    ("train.validation_size", 0),
    ("scenario.count", 1),
]

# Float keys that must be finite and satisfy a bound: (file key, ">" or ">=", bound)
_FLOAT_BOUNDS = [
    ("dataset.separation", ">", 0),
    ("dataset.feature_scale", ">=", 0),
    ("gar.c_alpha", ">=", 0),
    ("gar.c_beta", ">=", 0),
    ("gar.c_f", ">=", 0),
]


@dataclass
class ExperimentConfig:
    dataset_type: str = "synthetic"
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_limit: int = 0
    per_cluster: int = 200
    test_per_cluster: int = 200
    dim: int = 8
    separation: float = 10.0
    feature_scale: float = 0.0
    partition_type: str = "threshold"
    partition_threshold: int = 5
    n_parents: int = 2
    k: int = 3
    c_alpha: float = 0.1
    c_beta: float = 0.1
    c_f: float = 0.0003
    batch_size: int = 128
    epochs: int = 100
    learning_rate: float = 0.01
    momentum: float = 0.9
    validation_size: int = 1000
    hidden: tuple = ()
    seed: int = 0
    output_dir: str = "out"
    scenario_mode: str = "single"
    scenario_count: int = 4
    scenario_exclusions: str = "none;9;8,9"

    def validate(self) -> None:
        if self.dataset_type not in ("synthetic", "idx"):
            raise ValueError(f"dataset.type must be 'synthetic' or 'idx', got '{self.dataset_type}'")
        if self.dataset_type == "idx" and not (self.images and self.labels):
            raise ValueError("idx datasets need dataset.images and dataset.labels paths")
        if self.partition_type not in ("threshold", "random"):
            raise ValueError(f"partition.type must be 'threshold' or 'random', got '{self.partition_type}'")
        if self.dataset_type == "idx" and self.partition_type == "threshold" and self.n_parents != 2:
            raise ValueError("a threshold partition produces 2 parents; set head.n_p = 2")
        if self.scenario_mode not in ("single", "random-partitions", "inter-parent"):
            raise ValueError(f"unknown scenario.mode '{self.scenario_mode}'")
        attrs = {key: attr for key, attr, _ in _KEYS}
        for key, minimum in _MINIMUMS:
            value = getattr(self, attrs[key])
            if value < minimum:
                raise ValueError(f"{key} must be >= {minimum}, got {value}")
        for key, op, bound in _FLOAT_BOUNDS:
            value = getattr(self, attrs[key])
            if not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
                raise ValueError(f"{key} must be finite and {op} {bound}, got {value}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(
                f"train.hidden widths must each be >= 1, got {','.join(map(str, self.hidden))}"
            )
        if not self.learning_rate > 0:
            raise ValueError(f"train.lr must be > 0, got {self.learning_rate}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"train.lr must be finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"train.momentum must be in [0, 1), got {self.momentum}")
        groups = self.exclusion_groups()
        if self.scenario_mode == "inter-parent" and not all(
            5 <= digit <= 9 for group in groups for digit in group
        ):
            raise ValueError(
                "scenario.exclusions can only drop digits 5-9 in inter-parent mode, "
                f"got '{self.scenario_exclusions}'"
            )

    def resolved_hidden(self) -> tuple:
        """Hidden widths, with the empty tuple meaning the per-dataset default.

        A single wide layer suits the low-dimensional synthetic protocol
        (plenty of first-layer directions for the duplicate nodes to claim);
        image runs use the narrower two-layer stack.
        """
        if self.hidden:
            return self.hidden
        return (2048,) if self.dataset_type == "synthetic" else (256, 128)

    def resolved_feature_scale(self) -> float:
        """Input multiplier, with 0 meaning the per-dataset default.

        Synthetic features are shrunk so first-layer activations start small
        and the regularizers steer the duplicate race before the supervised
        margins saturate; idx features are already in [0,1] and stay as-is.
        """
        if self.feature_scale > 0:
            return self.feature_scale
        return 0.32 if self.dataset_type == "synthetic" else 1.0

    def exclusion_groups(self) -> list[tuple[int, ...]]:
        """Parse scenario.exclusions: ';'-separated comma lists, 'none' = empty."""
        groups = []
        for part in self.scenario_exclusions.split(";"):
            part = part.strip()
            if part in ("", "none"):
                groups.append(())
                continue
            try:
                groups.append(tuple(int(v) for v in part.split(",")))
            except ValueError:
                raise ValueError(
                    "scenario.exclusions must be ';'-separated groups of comma-separated "
                    f"integers or 'none', got '{self.scenario_exclusions}'"
                ) from None
        return groups


def _parse_value(tag: str, raw: str):
    if tag == _INT:
        return int(raw)
    if tag == _FLOAT:
        return float(raw)
    if tag == _INTS:
        return tuple(int(v) for v in raw.split(",")) if raw else ()
    return raw


def _format_value(tag: str, value) -> str:
    if tag == _INTS:
        return ",".join(str(v) for v in value)
    if tag == _FLOAT:
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and malformed lines are errors."""
    by_key = {key: (attr, tag) for key, attr, tag in _KEYS}
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key = key.strip()
        if key not in by_key:
            raise ValueError(f"line {lineno}: unknown config key '{key}'")
        attr, tag = by_key[key]
        try:
            setattr(cfg, attr, _parse_value(tag, raw.strip()))
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for '{key}': {e}") from e
    cfg.validate()
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key, attr, tag in _KEYS:
        lines.append(f"{key} = {_format_value(tag, getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(str(path)) as f:
        return parse_config(f.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(str(path), "w") as f:
        f.write(serialize_config(cfg))


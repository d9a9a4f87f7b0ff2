"""Experiment configuration: a flat ``key = value`` text format.

Lines are ``dotted.key = value``; blank lines and ``#`` comments are
ignored. Unknown keys are rejected. ``serialize_config`` writes every key
in field order with full-precision floats, so parse/serialize round-trips
are lossless.

Each ``ExperimentConfig`` field declares its file key, its default and its
range rule in one place; parsing, serializing and ``validate`` walk the
fields, and a value's type is its field's type.
"""

import math
from dataclasses import dataclass, field, fields


def _key(name: str, default, rule=None):
    """A config field read from file key ``name``; ``rule`` is ``(op, bound)``
    with op ``">"`` or ``">="`` (floats must also be finite)."""
    return field(default=default, metadata={"key": name, "rule": rule})


@dataclass
class ExperimentConfig:
    dataset_type: str = _key("dataset.type", "synthetic")  # synthetic | idx
    images: str = _key("dataset.images", "")  # IDX training pair
    labels: str = _key("dataset.labels", "")
    test_images: str = _key("dataset.test_images", "")  # optional IDX test pair
    test_labels: str = _key("dataset.test_labels", "")
    # keep only the first N training examples; 0 = all
    train_limit: int = _key("dataset.train_limit", 0, (">=", 0))
    # synthetic: examples per cluster, feature dimension, minimum center distance
    per_cluster: int = _key("dataset.per_cluster", 200, (">=", 1))
    test_per_cluster: int = _key("dataset.test_per_cluster", 200, (">=", 1))
    dim: int = _key("dataset.dim", 8, (">=", 1))
    separation: float = _key("dataset.separation", 10.0, (">", 0))
    # multiply features by this before training; 0 = auto (0.32 synthetic, 1.0 idx)
    feature_scale: float = _key("dataset.feature_scale", 0.0, (">=", 0))
    # threshold | random (idx datasets); threshold 1..9: digits below -> parent 1
    partition_type: str = _key("partition.type", "threshold")
    partition_threshold: int = _key("partition.threshold", 5)
    n_parents: int = _key("head.n_p", 2, (">=", 2))
    k: int = _key("head.k", 3, (">=", 1))  # softmax duplicates per parent
    c_alpha: float = _key("gar.c_alpha", 0.1, (">=", 0))
    c_beta: float = _key("gar.c_beta", 0.1, (">=", 0))
    c_f: float = _key("gar.c_f", 0.0003, (">=", 0))
    batch_size: int = _key("train.batch_size", 128, (">=", 2))
    epochs: int = _key("train.epochs", 100, (">=", 0))
    learning_rate: float = _key("train.lr", 0.01, (">", 0))
    momentum: float = _key("train.momentum", 0.9)
    validation_size: int = _key("train.validation_size", 1000, (">=", 0))
    # hidden widths, comma separated; empty = auto (2048 synthetic, 256,128 idx)
    hidden: tuple = _key("train.hidden", ())
    seed: int = _key("seed", 0, (">=", 0))
    output_dir: str = _key("output.dir", "out")
    # single | random-partitions | inter-parent
    scenario_mode: str = _key("scenario.mode", "single")
    scenario_count: int = _key("scenario.count", 4, (">=", 1))  # random-partitions repetitions
    # inter-parent: ;-separated groups of fine labels dropped from parent 2
    scenario_exclusions: str = _key("scenario.exclusions", "none;9;8,9")

    def validate(self) -> None:
        if self.dataset_type not in ("synthetic", "idx"):
            raise ValueError(f"dataset.type must be 'synthetic' or 'idx', got '{self.dataset_type}'")
        if self.dataset_type == "idx" and not (self.images and self.labels):
            raise ValueError("idx datasets need dataset.images and dataset.labels paths")
        if self.partition_type not in ("threshold", "random"):
            raise ValueError(f"partition.type must be 'threshold' or 'random', got '{self.partition_type}'")
        if self.dataset_type == "idx" and self.partition_type == "threshold":
            if self.n_parents != 2:
                raise ValueError("a threshold partition produces 2 parents; set head.n_p = 2")
            if not 1 <= self.partition_threshold <= 9:
                raise ValueError(f"partition.threshold must be in 1..9, got {self.partition_threshold}")
        if self.scenario_mode not in ("single", "random-partitions", "inter-parent"):
            raise ValueError(f"unknown scenario.mode '{self.scenario_mode}'")
        for f in fields(self):
            if f.metadata["rule"] is None:
                continue
            key, (op, bound), value = f.metadata["key"], f.metadata["rule"], getattr(self, f.name)
            ok = value > bound if op == ">" else value >= bound
            if f.type is float and not (math.isfinite(value) and ok):
                raise ValueError(f"{key} must be finite and {op} {bound}, got {value}")
            if not ok:
                raise ValueError(f"{key} must be {op} {bound}, got {value}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(
                f"train.hidden widths must each be >= 1, got {','.join(map(str, self.hidden))}"
            )
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


def _parse_value(kind: type, raw: str):
    if kind is tuple:
        return tuple(int(v) for v in raw.split(",")) if raw else ()
    return kind(raw)


def _format_value(kind: type, value) -> str:
    if kind is tuple:
        return ",".join(str(v) for v in value)
    return repr(float(value)) if kind is float else str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and malformed lines are errors."""
    by_key = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
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
        f = by_key[key]
        try:
            setattr(cfg, f.name, _parse_value(f.type, raw.strip()))
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for '{key}': {e}") from e
    cfg.validate()
    return cfg


def format_key_values(entries: dict) -> str:
    """One ``key = value`` line per entry, in order; the format of config.txt,
    summary.txt and eval_summary.txt."""
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def serialize_config(cfg: ExperimentConfig) -> str:
    values = {f.metadata["key"]: _format_value(f.type, getattr(cfg, f.name)) for f in fields(cfg)}
    return format_key_values(values)


def load_config(path) -> ExperimentConfig:
    with open(str(path)) as f:
        return parse_config(f.read())


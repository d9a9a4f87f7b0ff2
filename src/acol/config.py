"""Experiment configuration and its flat ``key = value`` text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown and repeated keys are rejected, and so is a missing key of a field
without a default. ``serialize_config`` writes every key in field order with
full-precision floats, so parse/serialize round-trips are lossless.

Each field of a ``_key`` dataclass (``ExperimentConfig``, and the checkpoint
header of ``network``) declares its key, its default, its rule (a bound or a
set of choices) and its per-dataset default in one place; parsing, serializing
and ``check_fields`` walk the fields. A config is frozen and checked when it
is made: ``dataclasses.replace`` makes a checked copy.
"""

import math
from dataclasses import MISSING, dataclass, field, fields


def _key(name: str, default=MISSING, rule=None, auto=None):
    """A field read from file key ``name``, required when it has no default. ``rule``
    is ``("in", choices)`` or ``(op, bound)`` with op ``">"`` or ``">="`` (floats must
    also be finite, and each entry of a tuple must hold it). ``auto`` maps each
    ``dataset.type`` to the value that 0 or empty stands for; see ``ExperimentConfig.resolved``."""
    return field(default=default, metadata={"key": name, "rule": rule, "auto": auto})


# what a field of each type holds (a tuple: ints), and its name in messages;
# a bool is not a number here
_TYPES = {int: (int, "an int"), float: ((int, float), "a float"), str: (str, "a str"),
          tuple: (int, "a tuple of ints")}


def check_fields(obj) -> None:
    """Check each field of a ``_key`` dataclass, in field order: its type, then its rule."""
    for f in fields(obj):
        key, value, (kinds, name) = f.metadata["key"], getattr(obj, f.name), _TYPES[f.type]
        items = value if f.type is tuple and isinstance(value, tuple) else (value,)
        if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in items):
            raise ValueError(f"{key} must be {name}, got {value!r}")
        op, bound = f.metadata["rule"] or (None, None)
        if op == "in" and value not in bound:
            raise ValueError(f"{key} must be {' or '.join(map(repr, bound))}, got '{value}'")
        if op not in (">", ">="):
            continue
        ok = all(v > bound if op == ">" else v >= bound for v in items)
        if f.type is float and not (math.isfinite(value) and ok):
            raise ValueError(f"{key} must be finite and {op} {bound}, got {value}")
        if f.type is tuple and not ok:
            raise ValueError(f"{key} widths must each be {op} {bound}, got {','.join(map(str, value))}")
        if not ok:
            raise ValueError(f"{key} must be {op} {bound}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_type: str = _key("dataset.type", "synthetic", ("in", ("synthetic", "idx")))
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
    # the model multiplies its inputs by this. Synthetic inputs are shrunk so that
    # first-layer activations start small and GAR steers the duplicate race before the
    # supervised margins saturate; idx pixels are already in [0, 1] and stay as they are
    feature_scale: float = _key("dataset.feature_scale", 0.0, (">=", 0), {"synthetic": 0.32, "idx": 1.0})
    # idx datasets; threshold 1..9: digits below -> parent 1
    partition_type: str = _key("partition.type", "threshold", ("in", ("threshold", "random")))
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
    # hidden widths, comma separated. One wide layer gives the low-dimensional synthetic
    # data plenty of first-layer directions for the duplicate nodes to claim
    hidden: tuple = _key("train.hidden", (), (">=", 1), {"synthetic": (2048,), "idx": (256, 128)})
    seed: int = _key("seed", 0, (">=", 0))
    output_dir: str = _key("output.dir", "out")
    scenario_mode: str = _key("scenario.mode", "single", ("in", ("single", "random-partitions", "inter-parent")))
    scenario_count: int = _key("scenario.count", 4, (">=", 1))  # random-partitions repetitions
    # inter-parent: ;-separated groups of fine labels dropped from parent 2
    scenario_exclusions: str = _key("scenario.exclusions", "none;9;8,9")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dataset_type == "idx" and not (self.images and self.labels):
            raise ValueError("idx datasets need dataset.images and dataset.labels paths")
        if self.dataset_type == "idx" and self.partition_type == "threshold":
            if self.n_parents != 2:
                raise ValueError("a threshold partition produces 2 parents; set head.n_p = 2")
            if not 1 <= self.partition_threshold <= 9:
                raise ValueError(f"partition.threshold must be in 1..9, got {self.partition_threshold}")
        if self.train_limit and self.dataset_type == "synthetic":
            raise ValueError(
                f"dataset.train_limit applies to idx data only, got {self.train_limit} "
                "with dataset.type = synthetic"
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
        for group in groups if self.scenario_mode == "inter-parent" else ():
            if set(group) == set(range(5, 10)):
                text = ",".join(map(str, group))
                raise ValueError(f"scenario.exclusions group '{text}' drops every digit of parent 2")

    def resolved(self, name: str):
        """Field ``name``'s value, or its ``auto`` entry for this ``dataset.type``
        when the value is 0 or empty."""
        return getattr(self, name) or self.__dataclass_fields__[name].metadata["auto"][self.dataset_type]

    def resolved_hidden(self) -> tuple:
        """``resolved("hidden")``, the name ``bench/run.py`` calls."""
        return self.resolved("hidden")

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


def parse_config(text: str, cls=ExperimentConfig):
    """Parse ``key = value`` text into ``cls``, a ``_key`` dataclass; unknown, repeated
    and missing keys and malformed lines are errors. Line numbers count ``\\n`` only."""
    by_key = {f.metadata["key"]: f for f in fields(cls)}
    values, lines = {}, {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key = key.strip()
        if key not in by_key:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        if key in lines:
            raise ValueError(f"line {lineno}: key '{key}' repeats line {lines[key]}")
        lines[key] = lineno
        f = by_key[key]
        try:
            values[f.name] = _parse_value(f.type, raw.strip())
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for '{key}': {e}") from e
    for key, f in by_key.items():
        if f.default is MISSING and key not in lines:
            raise ValueError(f"missing key '{key}'")
    return cls(**values)


def format_key_values(entries: dict) -> str:
    """One ``key = value`` line per entry, in order; the format of config.txt,
    summary.txt and eval_summary.txt."""
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def serialize_config(cfg) -> str:
    values = {f.metadata["key"]: _format_value(f.type, getattr(cfg, f.name)) for f in fields(cfg)}
    return format_key_values(values)


def load_config(path) -> ExperimentConfig:
    """``parse_config`` of a file; its errors name the file first."""
    try:
        with open(str(path), encoding="utf-8-sig") as f:  # a byte-order mark is not part of a key
            return parse_config(f.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


"""Config format round-trips and the command-line entry points."""

import csv
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acol import cli, evaluation, network
from acol.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from acol.datasets import (
    load_idx_labels,
    pool_to_dataset,
    write_idx_images,
    write_idx_labels,
)
from test_golden_digests import bench_digits

FAST_SYNTH = """
dataset.type = synthetic
dataset.per_cluster = 40
dataset.test_per_cluster = 40
dataset.dim = 4
dataset.separation = 8.0
head.n_p = 2
head.k = 2
train.epochs = 8
train.batch_size = 16
train.lr = 0.05
train.validation_size = 32
train.hidden = 16
seed = 1
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(FAST_SYNTH)
    return path


# --- config format ----------------------------------------------------------

IDX_THRESHOLD = "dataset.type = idx\ndataset.images = a\ndataset.labels = b\npartition.type = threshold\n"


def test_parse_defaults_and_overrides():
    cfg = parse_config(FAST_SYNTH)
    assert cfg.dataset_type == "synthetic"
    assert cfg.per_cluster == 40
    assert cfg.k == 2
    assert cfg.hidden == (16,)
    # untouched keys keep their defaults
    assert cfg.c_alpha == 0.1 and cfg.c_f == 0.0003
    assert cfg.momentum == 0.9


def test_serialize_parse_round_trip():
    cfg = parse_config(FAST_SYNTH)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # floats survive exactly, including awkward ones
    cfg = replace(cfg, learning_rate=0.1 + 0.2, separation=1e-7)
    again = parse_config(serialize_config(cfg))
    assert again.learning_rate == cfg.learning_rate
    assert again.separation == cfg.separation


def test_save_load_round_trip(tmp_path):
    cfg = parse_config(FAST_SYNTH)
    (tmp_path / "c.txt").write_text(serialize_config(cfg))
    assert load_config(tmp_path / "c.txt") == cfg


def test_a_config_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    """An editor's UTF-8 byte-order mark is not read as part of the first key."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"seed = 1\nhead.k = 4\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(marked) == load_config(plain) == replace(ExperimentConfig(), seed=1, k=4)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2: unknown key 'train.lrr'"):
        parse_config("seed = 1\ntrain.lrr = 0.1\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("seed 1\n")
    with pytest.raises(ValueError, match="bad value for 'seed'"):
        parse_config("seed = one\n")


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 4\n   # indented comment\n")
    assert cfg.seed == 4


def test_validate_rules():
    with pytest.raises(ValueError, match="dataset.images"):
        parse_config("dataset.type = idx\n")
    with pytest.raises(ValueError, match="head.n_p = 2"):
        parse_config(
            "dataset.type = idx\ndataset.images = a\ndataset.labels = b\nhead.n_p = 3\n"
        )
    # synthetic datasets may use any n_p regardless of partition.type
    cfg = parse_config("dataset.type = synthetic\nhead.n_p = 3\n")
    assert cfg.n_parents == 3
    # range rules name the key and the bound
    for line, message in [
        ("dataset.type = csv", "dataset.type must be 'synthetic' or 'idx', got 'csv'"),
        ("scenario.mode = sweep",
         "scenario.mode must be 'single' or 'random-partitions' or 'inter-parent', got 'sweep'"),
        ("train.epochs = -3", "train.epochs must be >= 0, got -3"),
        ("train.hidden = 16,0", "train.hidden widths must each be >= 1, got 16,0"),
        ("dataset.per_cluster = 0", "dataset.per_cluster must be >= 1, got 0"),
        ("dataset.test_per_cluster = 0", "dataset.test_per_cluster must be >= 1, got 0"),
        ("dataset.dim = 0", "dataset.dim must be >= 1, got 0"),
        ("dataset.train_limit = -1", "dataset.train_limit must be >= 0, got -1"),
        (
            "dataset.train_limit = 50",
            "dataset.train_limit applies to idx data only, got 50 with dataset.type = synthetic",
        ),
        ("scenario.count = 0", "scenario.count must be >= 1, got 0"),
        ("head.n_p = 1", "head.n_p must be >= 2, got 1"),
        ("head.k = 0", "head.k must be >= 1, got 0"),
        ("partition.type = foo", "partition.type must be 'threshold' or 'random', got 'foo'"),
        ("train.validation_size = -5", "train.validation_size must be >= 0, got -5"),
        ("train.batch_size = 1", "train.batch_size must be >= 2, got 1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("train.lr = -1", "train.lr must be finite and > 0, got -1.0"),
        ("train.lr = 0", "train.lr must be finite and > 0, got 0.0"),
        ("train.lr = nan", "train.lr must be finite and > 0, got nan"),
        ("train.momentum = 1", "train.momentum must be in [0, 1), got 1.0"),
        ("train.momentum = -0.1", "train.momentum must be in [0, 1), got -0.1"),
        ("train.lr = inf", "train.lr must be finite and > 0, got inf"),
        ("dataset.separation = 0", "dataset.separation must be finite and > 0, got 0.0"),
        ("dataset.separation = nan", "dataset.separation must be finite and > 0, got nan"),
        ("dataset.feature_scale = nan", "dataset.feature_scale must be finite and >= 0, got nan"),
        ("dataset.feature_scale = inf", "dataset.feature_scale must be finite and >= 0, got inf"),
        ("dataset.feature_scale = -1", "dataset.feature_scale must be finite and >= 0, got -1.0"),
        ("gar.c_alpha = -1", "gar.c_alpha must be finite and >= 0, got -1.0"),
        ("gar.c_beta = nan", "gar.c_beta must be finite and >= 0, got nan"),
        ("gar.c_f = inf", "gar.c_f must be finite and >= 0, got inf"),
        (
            "scenario.exclusions = a;b",
            "scenario.exclusions must be ';'-separated groups of comma-separated integers "
            "or 'none', got 'a;b'",
        ),
        (
            "scenario.mode = random-partitions\nscenario.exclusions = 9;8,x",
            "scenario.exclusions must be ';'-separated groups of comma-separated integers "
            "or 'none', got '9;8,x'",
        ),
        (
            "scenario.mode = inter-parent\nscenario.exclusions = 0,1,2,3,4",
            "scenario.exclusions can only drop digits 5-9 in inter-parent mode, "
            "got '0,1,2,3,4'",
        ),
        (
            "scenario.mode = inter-parent\nscenario.exclusions = none;9;8,10",
            "scenario.exclusions can only drop digits 5-9 in inter-parent mode, "
            "got 'none;9;8,10'",
        ),
        (
            "scenario.mode = inter-parent\nscenario.exclusions = none;5,6,7,8,9",
            "scenario.exclusions group '5,6,7,8,9' drops every digit of parent 2",
        ),
        (IDX_THRESHOLD + "partition.threshold = 0", "partition.threshold must be in 1..9, got 0"),
        (IDX_THRESHOLD + "partition.threshold = 10", "partition.threshold must be in 1..9, got 10"),
        (IDX_THRESHOLD + "partition.threshold = 99", "partition.threshold must be in 1..9, got 99"),
        (IDX_THRESHOLD + "partition.threshold = -3", "partition.threshold must be in 1..9, got -3"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_config(line + "\n")
        assert str(err.value) == message
    # the bounds themselves are accepted
    cfg = parse_config("train.epochs = 0\ndataset.train_limit = 0\nscenario.count = 1\n")
    assert (cfg.epochs, cfg.train_limit, cfg.scenario_count) == (0, 0, 1)
    assert parse_config(IDX_THRESHOLD + "dataset.train_limit = 50\n").train_limit == 50
    cfg = parse_config(
        "train.validation_size = 0\ntrain.batch_size = 2\ntrain.lr = 1e-300\ntrain.momentum = 0\n"
    )
    assert (cfg.validation_size, cfg.batch_size, cfg.learning_rate, cfg.momentum) == (
        0, 2, 1e-300, 0.0
    )
    cfg = parse_config(
        "dataset.separation = 1e-300\ndataset.feature_scale = 0\n"
        "gar.c_alpha = 0\ngar.c_beta = 0\ngar.c_f = 0\n"
    )
    assert (cfg.separation, cfg.feature_scale, cfg.c_alpha, cfg.c_beta, cfg.c_f) == (
        1e-300, 0.0, 0.0, 0.0, 0.0
    )
    # the 5-9 range, and the digit parent 2 must keep, bind only the inter-parent sweep
    cfg = parse_config("scenario.exclusions = 0,1;5,6,7,8,9\n")
    assert cfg.exclusion_groups() == [(0, 1), (5, 6, 7, 8, 9)]
    cfg = parse_config("scenario.mode = inter-parent\nscenario.exclusions = 5,6,7,8;6,7,8,9;none\n")
    assert cfg.exclusion_groups() == [(5, 6, 7, 8), (6, 7, 8, 9), ()]
    # partition.threshold binds only the threshold partition of idx data
    for threshold in (1, 9):
        cfg = parse_config(IDX_THRESHOLD + f"partition.threshold = {threshold}\n")
        assert cfg.partition_threshold == threshold
    for text in (IDX_THRESHOLD.replace("threshold", "random"), ""):
        assert parse_config(text + "partition.threshold = 0\n").partition_threshold == 0


def test_every_field_declares_one_key_and_its_bound_holds():
    declared = fields(ExperimentConfig)
    keys = [f.metadata["key"] for f in declared]
    assert len(set(keys)) == len(keys)
    # config.txt lists every key once, in field order
    assert [line.partition(" = ")[0] for line in serialize_config(ExperimentConfig()).splitlines()] == keys
    bounded = [f for f in declared if f.metadata["rule"] is not None]
    assert {f.metadata["key"] for f in bounded} >= {"seed", "head.n_p", "gar.c_f", "dataset.type", "train.hidden"}
    paths = "dataset.images = a\ndataset.labels = b\n"  # what an idx choice needs besides its key
    for f in bounded:
        key, (op, bound) = f.metadata["key"], f.metadata["rule"]
        if op == "in":
            for choice in bound:
                assert getattr(parse_config(f"{paths}{key} = {choice}\n"), f.name) == choice
            past, message = "other", f"{key} must be {' or '.join(map(repr, bound))}, got 'other'"
        elif f.type is tuple:
            assert op == ">="
            assert getattr(parse_config(f"{key} = {bound}\n"), f.name) == (bound,)
            past, message = bound - 1, f"{key} widths must each be >= {bound}, got {bound - 1}"
        elif f.type is int:
            assert op == ">="
            assert getattr(parse_config(f"{key} = {bound}\n"), f.name) == bound
            past, message = bound - 1, f"{key} must be >= {bound}, got {bound - 1}"
        else:
            inside = bound if op == ">=" else math.nextafter(bound, math.inf)
            assert getattr(parse_config(f"{key} = {inside!r}\n"), f.name) == inside
            past = math.nextafter(bound, -math.inf) if op == ">=" else float(bound)
            past, message = repr(past), f"{key} must be finite and {op} {bound}, got {past}"
        with pytest.raises(ValueError) as err:
            parse_config(f"{key} = {past}\n")
        assert str(err.value) == message
    # 0 or empty stands for the field's auto entry for each dataset.type; config.txt keeps it as written
    dataset_types = ExperimentConfig.__dataclass_fields__["dataset_type"].metadata["rule"][1]
    auto = {f.metadata["key"]: f for f in declared if f.metadata["auto"] is not None}
    assert {key: f.metadata["auto"] for key, f in auto.items()} == {
        "dataset.feature_scale": {"synthetic": 0.32, "idx": 1.0},
        "train.hidden": {"synthetic": (2048,), "idx": (256, 128)},
    }
    written = {"dataset.feature_scale": ("0.0", "2.5", 2.5), "train.hidden": ("", "7,3", (7, 3))}
    for key, f in auto.items():
        assert set(f.metadata["auto"]) == set(dataset_types)
        zero, raw, value = written[key]
        for dataset_type in dataset_types:
            cfg = parse_config(f"{paths}dataset.type = {dataset_type}\n")
            assert cfg.resolved(f.name) == f.metadata["auto"][dataset_type]
            assert f"\n{key} = {zero}\n" in serialize_config(cfg)
            cfg = parse_config(f"{paths}dataset.type = {dataset_type}\n{key} = {raw}\n")
            assert cfg.resolved(f.name) == value
            assert f"\n{key} = {raw}\n" in serialize_config(cfg)
    for cfg in (ExperimentConfig(), parse_config(FAST_SYNTH), parse_config(IDX_THRESHOLD)):
        assert parse_config(serialize_config(cfg)) == cfg


def test_the_first_bad_bounded_key_in_field_order_is_reported():
    for text, message in [
        ("head.n_p = 1\ndataset.separation = 0\n", "dataset.separation must be finite and > 0, got 0.0"),
        ("seed = -1\ntrain.hidden = 16,0\n", "train.hidden widths must each be >= 1, got 16,0"),
        ("scenario.mode = sweep\npartition.type = foo\n",
         "partition.type must be 'threshold' or 'random', got 'foo'"),
        # every field's own rule comes before the rules that join fields
        ("dataset.type = idx\nseed = -1\n", "seed must be >= 0, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == message


KEY_NAMES = [line.partition(" = ")[0] for line in serialize_config(ExperimentConfig()).splitlines()]
_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["idx", "threshold", "random", "inter-parent", "none;9;8,9", "16,0", ""]),
)
_CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        st.sampled_from(KEY_NAMES),
        st.sampled_from([" = ", "=", " "]),
        _CONFIG_VALUES,
    ),
)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(text=st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
def test_config_parser_parses_or_names_the_line_or_the_key(text):
    try:
        cfg = parse_config(text)
    except ValueError as err:
        message = str(err)
        assert re.match(r"line \d+: ", message) or any(k in message for k in KEY_NAMES), message
    else:
        assert parse_config(serialize_config(cfg)) == cfg


def test_exclusion_groups_parsing():
    cfg = ExperimentConfig()
    assert cfg.exclusion_groups() == [(), (9,), (8, 9)]
    cfg = replace(cfg, scenario_exclusions="none;9;8,9;7,8,9")
    assert cfg.exclusion_groups()[-1] == (7, 8, 9)


def test_a_config_is_checked_when_it_is_made_and_cannot_change():
    """Every way of making a config runs the checks that parsing runs; no
    reader has to check one again, and none can change one afterwards."""
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.dim = 0
    assert cfg.dim == 8
    for make, message in [
        (lambda: replace(cfg, dim=0), "dataset.dim must be >= 1, got 0"),
        (lambda: replace(cfg, seed=-1), "seed must be >= 0, got -1"),
        (
            lambda: ExperimentConfig(dataset_type="idx"),
            "idx datasets need dataset.images and dataset.labels paths",
        ),
        (lambda: ExperimentConfig(per_cluster=0), "dataset.per_cluster must be >= 1, got 0"),
        (lambda: ExperimentConfig(k=0), "head.k must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
        ({"epochs": 2.0}, "train.epochs must be an int, got 2.0"),
        ({"dim": 8.7}, "dataset.dim must be an int, got 8.7"),
        ({"k": True}, "head.k must be an int, got True"),
        ({"k": "3"}, "head.k must be an int, got '3'"),
        ({"c_f": False}, "gar.c_f must be a float, got False"),
        ({"separation": "2"}, "dataset.separation must be a float, got '2'"),
        ({"dataset_type": None}, "dataset.type must be a str, got None"),
        ({"hidden": [16]}, "train.hidden must be a tuple of ints, got [16]"),
        ({"hidden": (16, 8.0)}, "train.hidden must be a tuple of ints, got (16, 8.0)"),
    ],
)
def test_a_config_built_in_code_is_type_checked_under_its_key(tmp_path, change, message):
    """A value no config file could hold is rejected when the config is made,
    naming the key, not later inside a loader or as an unhashable config;
    a float field takes an int, and every parsed file passes."""
    with pytest.raises(ValueError) as err:
        ExperimentConfig(**change)
    assert str(err.value) == message
    assert ExperimentConfig(c_f=1, separation=3).c_f == 1
    path = tmp_path / "config.txt"
    path.write_text(serialize_config(ExperimentConfig(hidden=(16, 8))))
    assert load_config(path).hidden == (16, 8)


# --- CLI --------------------------------------------------------------------


def test_cli_train_writes_artifacts(tmp_path, fast_cfg, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(fast_cfg), "--out", str(out)])
    assert rc == 0
    for name in ("model.ckpt", "metrics.csv", "embeddings.csv", "summary.txt", "config.txt"):
        assert (out / name).exists(), name
    line = capsys.readouterr().out.strip()
    assert line.startswith("train ") and "parent_acc=" in line and "acc=" in line
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,sup_loss,affinity,balance,frobenius,train_parent_acc,val_parent_acc"
    assert header.split(",") == [f.name for f in fields(network.EpochRecord)]
    assert len((out / "metrics.csv").read_text().splitlines()) == 9  # header + 8 epochs


@pytest.mark.parametrize("command", ["train", "eval", "scenarios", "baseline", "export-graph"])
def test_cli_prints_its_summary_line_last_unless_quiet(tmp_path, capsys, command):
    """The last stdout line is the command's summary; --quiet leaves stdout
    empty, the per-scenario lines included."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        FAST_SYNTH.replace("train.epochs = 8", "train.epochs = 1")
        + "scenario.mode = random-partitions\nscenario.count = 2\n"
    )
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "fit"), "--quiet"]) == 0
    argv = [command, "--config", str(cfg)]
    if command in ("eval", "export-graph"):
        argv += ["--checkpoint", str(tmp_path / "fit" / "model.ckpt")]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "loud")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{command} ")
    assert cli.main([*argv, "--out", str(tmp_path / "quiet"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_train_metrics_are_byte_identical_across_runs(tmp_path, fast_cfg):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()


def test_cli_seed_override_changes_outcome(tmp_path, fast_cfg):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(
        ["train", "--config", str(fast_cfg), "--out", str(out2), "--seed", "99", "--quiet"]
    ) == 0
    assert (out1 / "model.ckpt").read_bytes() != (out2 / "model.ckpt").read_bytes()


def test_cli_eval_matches_train_summary(tmp_path, fast_cfg, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out)]) == 0
    train_line = capsys.readouterr().out.strip()
    assert cli.main(
        ["eval", "--config", str(fast_cfg), "--checkpoint", str(out / "model.ckpt"), "--out", str(out)]
    ) == 0
    eval_line = capsys.readouterr().out.strip()

    def field(line, key):
        return dict(p.split("=", 1) for p in line.split()[1:])[key]

    # eval on the same config reproduces the training-time evaluation
    assert field(eval_line, "parent_acc") == field(train_line, "parent_acc")
    assert field(eval_line, "acc") == field(train_line, "acc")
    assert (out / "eval_summary.txt").exists()


def test_cli_eval_rejects_head_mismatch(tmp_path, fast_cfg, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out), "--quiet"]) == 0
    other = tmp_path / "other.txt"
    other.write_text(FAST_SYNTH.replace("head.k = 2", "head.k = 3"))
    rc = cli.main(
        ["eval", "--config", str(other), "--checkpoint", str(out / "model.ckpt"), "--quiet"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'model.ckpt'}: checkpoint head (n_p=2, k=2) does not match config (n_p=2, k=3)\n"
    )


@pytest.mark.parametrize("command", ["eval", "export-graph"])
def test_cli_rejects_a_checkpoint_of_another_seed(tmp_path, fast_cfg, capsys, command):
    """The seed draws the synthetic pools and a random partition, so a seed
    other than the checkpoint's would score data that train never saw."""
    ckpt = tmp_path / "train" / "model.ckpt"
    trained = ["train", "--config", str(fast_cfg), "--out", str(ckpt.parent), "--seed", "2", "--quiet"]
    assert cli.main(trained) == 0
    argv = [command, "--config", str(fast_cfg), "--checkpoint", str(ckpt), "--out", str(tmp_path / command)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: trained with seed 2, but the config's seed is 1; pass --seed 2\n"
    assert not (tmp_path / command).exists()
    assert cli.main([*argv, "--seed", "2", "--quiet"]) == 0


@pytest.mark.parametrize("command", ["eval", "export-graph"])
def test_cli_scores_a_checkpoint_with_its_own_feature_scale(tmp_path, fast_cfg, capsys, command):
    """The model multiplies its inputs by the scale it was trained with, so
    a config of another scale scores what the training config scores."""
    train = tmp_path / "train"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(train), "--quiet"]) == 0
    other = tmp_path / "other.txt"
    other.write_text(FAST_SYNTH + "dataset.feature_scale = 1.0\n")
    argv = [command, "--checkpoint", str(train / "model.ckpt"), "--quiet"]
    for name, cfg in (("trained", fast_cfg), ("other", other)):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    if command == "eval":
        trained, scored = (
            dict(line.split(" = ", 1) for line in path.read_text().splitlines())
            for path in (train / "summary.txt", tmp_path / "other" / "eval_summary.txt")
        )
        assert (scored["acc"], scored["parent_acc"]) == (trained["acc"], trained["parent_acc"])
    else:
        edges = [(tmp_path / name / "graph.edges").read_bytes() for name in ("trained", "other")]
        assert edges[0] == edges[1]


def test_cli_baseline_on_separable_blobs(tmp_path, fast_cfg, capsys):
    rc = cli.main(["baseline", "--config", str(fast_cfg)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    acc = float(dict(p.split("=", 1) for p in line.split()[1:])["acc"])
    assert acc >= 0.99  # well-separated blobs are easy for k-means


def test_cli_scenarios_random_partitions(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        FAST_SYNTH.replace("train.epochs = 8", "train.epochs = 2")
        + "scenario.mode = random-partitions\nscenario.count = 2\n"
    )
    out = tmp_path / "sweep"
    rc = cli.main(["scenarios", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "scenarios.csv").read_text().splitlines()
    assert lines[0].startswith("scenario,description,")
    assert len(lines) == 1 + 2 + 4  # header, 2 scenarios, 4 aggregate rows
    assert lines[-4].startswith("worst,aggregate")
    assert lines[-1].startswith("mean,aggregate")
    stdout = capsys.readouterr().out
    assert stdout.count("scenario ") == 2
    assert "scenarios mode=random-partitions count=2" in stdout


@pytest.mark.parametrize("k, seed", [(5, 1), (2, 9)])
def test_cli_random_partitions_on_synthetic_data_split_the_cluster_ids(tmp_path, k, seed):
    """On synthetic data the sweep splits the cluster ids 1..n_p*k near-equally:
    10 clusters have no digit rule, and seed 9 puts all four of k = 2 in one
    group when digits 0-9 are split instead."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        FAST_SYNTH.replace("head.k = 2", f"head.k = {k}").replace("seed = 1", f"seed = {seed}")
        .replace("train.epochs = 8", "train.epochs = 1")
        + "scenario.mode = random-partitions\nscenario.count = 2\n"
    )
    out = tmp_path / "sweep"
    assert cli.main(["scenarios", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    with open(out / "scenarios.csv", newline="") as f:
        rows = list(csv.DictReader(f))[:2]
    for row in rows:
        groups = [set(re.findall(r"\d+", part)) for part in row["description"].split(" vs ")]
        assert sorted(len(g) for g in groups) == [k, k]
        assert set.union(*groups) == {str(c) for c in range(1, 2 * k + 1)}


def test_cli_scenarios_csv_reads_back_with_csv_module(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        FAST_SYNTH.replace("train.epochs = 8", "train.epochs = 1")
        + "scenario.mode = random-partitions\nscenario.count = 2\n"
    )
    out = tmp_path / "sweep"
    assert cli.main(["scenarios", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    with open(out / "scenarios.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert len(reader.fieldnames) == 8
    assert len(rows) == 2 + 4
    for row in rows:
        assert None not in row and len(row) == 8  # no overflow columns
    assert all(" vs " in row["description"] for row in rows[:2])
    assert [row["description"] for row in rows[2:]] == ["aggregate"] * 4
    assert 0.0 <= float(rows[0]["acc"]) <= 1.0  # a number, not a split fragment


def test_cli_sweep_scenario_scores_what_train_and_baseline_score(tmp_path, capsys):
    """Every scenario trains and clusters with the run's seed, so the `none`
    scenario of an inter-parent sweep, listed second, reproduces `acol train`
    and `acol baseline` on the threshold partition."""
    digits, rng, paths = bench_digits(), np.random.default_rng(7), {}
    for stem, count, keys in (("train", 600, ("images", "labels")),
                              ("t10k", 200, ("test_images", "test_labels"))):
        paths.update(zip(keys, digits.write_pair(count, rng, str(tmp_path / stem))))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(serialize_config(ExperimentConfig(
        dataset_type="idx", **paths, k=5, epochs=2, validation_size=100, seed=7,
        scenario_mode="inter-parent", scenario_exclusions="9;none",
    )))
    lines = {}  # the key=value fields of each stdout line, per command
    for command in ("train", "baseline", "scenarios"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        out = capsys.readouterr().out
        lines[command] = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in out.splitlines()]
    (train,), (baseline,), (_, none, _) = lines.values()
    assert none["scenario"] == "1" and none["m_eval"] == baseline["m"] == train["m_eval"]
    assert (none["parent_acc"], none["acc"]) == (train["parent_acc"], train["acc"])
    assert none["kmeans_acc"] == baseline["acc"]


def test_cli_random_partitions_scenario_0_is_the_partition_train_draws(tmp_path, capsys):
    """`partition.type = random` and the random-partitions sweep split digits
    0-9 by one rule, so on a pool that holds only digits 0-7, scenario 0
    (drawn from the run's seed) is `acol train`'s partition and scores what
    `acol train` scores."""
    pixels, labels = bench_digits().generate(720, np.random.default_rng(4))
    keep = labels < 8
    write_idx_images(pixels[keep], tmp_path / "imgs.idx")
    write_idx_labels(labels[keep], tmp_path / "labs.idx")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(serialize_config(ExperimentConfig(
        dataset_type="idx", images=str(tmp_path / "imgs.idx"), labels=str(tmp_path / "labs.idx"),
        partition_type="random", k=4, epochs=2, validation_size=100, seed=4,
        scenario_mode="random-partitions", scenario_count=1,
    )))
    lines = {}  # the key=value fields of each stdout line, per command
    for command in ("train", "scenarios"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        out = capsys.readouterr().out
        lines[command] = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in out.splitlines()]
    (train,), (scenario, _) = lines.values()
    summary = dict(line.split(" = ", 1) for line in (tmp_path / "train" / "summary.txt").read_text().splitlines())
    with open(tmp_path / "scenarios" / "scenarios.csv", newline="") as f:
        assert next(csv.DictReader(f))["description"] == summary["partition"]
    assert scenario["scenario"] == "0"
    for key in ("m_train", "m_eval", "parent_acc", "acc"):
        assert scenario[key] == train[key], key


def test_cli_export_graph(tmp_path, fast_cfg, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out), "--quiet"]) == 0
    rc = cli.main(
        [
            "export-graph",
            "--config", str(fast_cfg),
            "--checkpoint", str(out / "model.ckpt"),
            "--out", str(out),
            "--limit", "30",
            "--threshold", "0.1",
        ]
    )
    assert rc == 0
    lines = (out / "graph.edges").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert len(comments) == 30
    for l in lines:
        if not l.startswith("#"):
            i, j, w = l.split()
            assert int(i) < int(j) and float(w) > 0.1
    assert "export-graph rows=30" in capsys.readouterr().out


def test_cli_train_imports_no_scipy(tmp_path, fast_cfg):
    """A fresh process trains and scores without loading scipy, whose import
    alone costs more than a small run."""
    script = (
        "import sys\n"
        "import acol.cli\n"
        f"rc = acol.cli.main(['train', '--config', {str(fast_cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize(
    "lines, extra, message",
    [
        ("seed = -1\n", [], "seed must be >= 0, got -1"),
        ("", ["--seed", "-3"], "seed must be >= 0, got -3"),
        ("dataset.per_cluster = 20\n", [],
         "train.validation_size must be < 120 (the rows of the data), got 1000"),
        ("train.batch_size = 4096\n", [],
         "train.batch_size must be <= 200 (the rows left for training), got 4096"),
        ("seed = 1\nfoo = 2\n", [], "line 2: unknown key 'foo'"),
        ("seed = 1\n\nseed = 2\n", [], "line 3: key 'seed' repeats line 1"),
    ],
)
def test_cli_train_names_the_key_of_a_bad_value(tmp_path, capsys, lines, extra, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out), *extra]) == 1
    captured = capsys.readouterr()
    try:
        parse_config(lines)
    except ValueError:
        message = f"{cfg}: {message}"  # a value the file itself breaks is named under its path
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_cli_export_graph_checks_its_flags(tmp_path, fast_cfg, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(fast_cfg), "--out", str(out), "--quiet"]) == 0
    for flags, message in [
        (["--limit", "-5"], "--limit must be >= 1, got -5"),
        (["--limit", "0"], "--limit must be >= 1, got 0"),
        (["--threshold", "nan"], "--threshold must be finite, got nan"),
    ]:
        argv = ["export-graph", "--config", str(fast_cfg), "--checkpoint", str(out / "model.ckpt")]
        assert cli.main([*argv, "--out", str(out / "graph"), *flags]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not (out / "graph").exists()


def _cap_address_space():
    cap = 2 * 2**30  # in the child only: far below the 17.9 GiB the config asks for
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_cli_out_of_memory_is_one_error_line(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dataset.dim = 2000000\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "acol.cli", "train", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: Unable to allocate 17.9 GiB")
    assert len(done.stderr.splitlines()) == 1


def test_cli_missing_config_reports_error(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.txt"), "--quiet"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_idx_dataset_path(tmp_path, capsys):
    """End-to-end on a tiny IDX pair exercising the digits pipeline."""
    rng = np.random.default_rng(50)
    # two fine classes per parent, trivially separable 2x2 images
    patterns = {
        0: [[255, 0], [0, 0]],
        2: [[0, 255], [0, 0]],
        5: [[0, 0], [255, 0]],
        7: [[0, 0], [0, 255]],
    }
    digits = rng.choice([0, 2, 5, 7], size=240)
    pixels = np.stack([np.array(patterns[int(d)], dtype=np.uint8) for d in digits])
    noise = rng.integers(0, 40, size=pixels.shape).astype(np.uint8)
    pixels = np.where(pixels > 0, pixels - noise, noise)
    write_idx_images(pixels, tmp_path / "imgs.idx")
    write_idx_labels(digits.astype(np.uint8), tmp_path / "labs.idx")
    assert np.array_equal(load_idx_labels(tmp_path / "labs.idx"), digits)

    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "dataset.type = idx\n"
        f"dataset.images = {tmp_path / 'imgs.idx'}\n"
        f"dataset.labels = {tmp_path / 'labs.idx'}\n"
        "partition.type = threshold\n"
        "head.n_p = 2\n"
        "head.k = 2\n"
        "train.epochs = 10\n"
        "train.batch_size = 16\n"
        "train.lr = 0.1\n"
        "train.validation_size = 40\n"
        "train.hidden = 8\n"
        "seed = 2\n"
    )
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    fieldmap = dict(p.split("=", 1) for p in line.split()[1:])
    assert fieldmap["dataset"] == "idx"
    assert fieldmap["eval_on"] == "train"  # no test pair configured
    assert float(fieldmap["parent_acc"]) >= 0.9  # separable patterns


def _write_pattern_pair(tmp_path, stem, count, seed):
    """An IDX pair of noisy 2x2 patterns, one per fine label 0, 2, 5, 7."""
    rng = np.random.default_rng(seed)
    patterns = np.array(
        [[[255, 0], [0, 0]], [[0, 255], [0, 0]], [[0, 0], [255, 0]], [[0, 0], [0, 255]]],
        dtype=np.uint8,
    )
    which = rng.integers(0, 4, size=count)
    noise = rng.integers(0, 40, size=(count, 2, 2)).astype(np.uint8)
    pixels = np.where(patterns[which] > 0, patterns[which] - noise, noise)
    paths = (tmp_path / f"{stem}-images.idx", tmp_path / f"{stem}-labels.idx")
    write_idx_images(pixels, paths[0])
    write_idx_labels(np.array([0, 2, 5, 7], dtype=np.uint8)[which], paths[1])
    return paths


def _idx_config(tmp_path, train_pair, test_pair=None):
    lines = [
        "dataset.type = idx",
        f"dataset.images = {train_pair[0]}",
        f"dataset.labels = {train_pair[1]}",
        "head.n_p = 2",
        "head.k = 2",
        "train.epochs = 3",
        "train.batch_size = 16",
        "train.lr = 0.1",
        "train.validation_size = 40",
        "train.hidden = 8",
        "seed = 3",
    ]
    if test_pair is not None:
        lines += [f"dataset.test_images = {test_pair[0]}", f"dataset.test_labels = {test_pair[1]}"]
    path = tmp_path / "idx.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("train", "head.n_p = 11\n", "head.n_p = 11, but parent 11 has no training rows"),
        ("scenarios", "head.n_p = 3\nscenario.mode = inter-parent\n",
         "head.n_p = 3, but parent 3 has no training rows"),
    ],
)
def test_cli_rejects_a_head_parent_without_rows(tmp_path, capsys, command, lines, message):
    rng = np.random.default_rng(4)
    write_idx_images(rng.integers(0, 256, size=(80, 2, 2), dtype=np.uint8), tmp_path / "imgs.idx")
    write_idx_labels(np.tile(np.arange(10, dtype=np.uint8), 8), tmp_path / "labs.idx")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"dataset.type = idx\ndataset.images = {tmp_path / 'imgs.idx'}\n"
        f"dataset.labels = {tmp_path / 'labs.idx'}\npartition.type = random\n"
        "train.epochs = 1\ntrain.batch_size = 16\ntrain.validation_size = 20\n" + lines
    )
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (out / "model.ckpt").exists() and not (out / "scenarios.csv").exists()


@pytest.mark.parametrize("dataset", ["synthetic", "idx"])
@pytest.mark.parametrize(
    "lines, message",
    [
        ("scenario.mode = single\n", "scenario.mode 'single' is not a sweep mode"),
        ("scenario.mode = inter-parent\nscenario.exclusions = none;5,6,7,8,9\n",
         "{cfg}: scenario.exclusions group '5,6,7,8,9' drops every digit of parent 2"),
    ],
    ids=["single", "parent-2-emptied"],
)
def test_cli_scenarios_rejects_a_config_it_cannot_sweep_before_reading_data(
    tmp_path, capsys, dataset, lines, message
):
    """The mode is checked first, and the exclusions when the config is made:
    no pool is read, so missing IDX files go unreported, and no output
    directory is made."""
    cfg = tmp_path / "cfg.txt"
    missing = tmp_path / "missing"
    idx = f"dataset.type = idx\ndataset.images = {missing}-images\ndataset.labels = {missing}-labels\n"
    cfg.write_text((idx if dataset == "idx" else "") + lines)
    out = tmp_path / "run"
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


def test_load_pools_are_read_only_and_shared_by_datasets(tmp_path, fast_cfg):
    idx_cfg = _idx_config(
        tmp_path,
        _write_pattern_pair(tmp_path, "train", 60, seed=1),
        _write_pattern_pair(tmp_path, "test", 20, seed=2),
    )
    for cfg in (load_config(fast_cfg), load_config(idx_cfg)):
        pools = cli.load_pools(cfg)
        assert pools[1] is not None
        for pool in pools:
            assert not pool.X.flags.writeable
            data = pool_to_dataset(pool, cli.default_partition(cfg))
            assert np.shares_memory(data.X, pool.X)
            with pytest.raises(ValueError, match="read-only"):
                data.X[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                data.X *= 2.0


def test_load_pool_is_none_for_an_idx_config_without_a_test_pair(tmp_path):
    cfg = load_config(_idx_config(tmp_path, _write_pattern_pair(tmp_path, "train", 60, seed=1)))
    assert cli.load_pool(cfg, test=True) is None
    assert cli.load_pools(cfg)[1] is None
    assert len(cli.load_pool(cfg, test=False).fine) == 60


def _write_square_pair(tmp_path, stem, side, labels):
    """An IDX pair of random side x side images with the given labels."""
    rng = np.random.default_rng(side)
    paths = (tmp_path / f"{stem}-images.idx", tmp_path / f"{stem}-labels.idx")
    write_idx_images(rng.integers(0, 256, size=(len(labels), side, side), dtype=np.uint8), paths[0])
    write_idx_labels(np.asarray(labels, dtype=np.uint8), paths[1])
    return paths


@pytest.mark.parametrize("command, extra", [("train", ""), ("scenarios", "scenario.mode = inter-parent\n")])
def test_cli_rejects_a_test_pair_of_another_width_before_training(tmp_path, capsys, command, extra):
    train_pair = _write_pattern_pair(tmp_path, "train", 120, seed=1)
    test_pair = _write_square_pair(tmp_path, "wide", 3, np.arange(20) % 10)
    cfg = _idx_config(tmp_path, train_pair, test_pair)
    cfg.write_text(cfg.read_text() + extra)
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: test images {test_pair[0]} have 9 features per row, "
        f"training images {train_pair[0]} have 4\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "export-graph"])
def test_cli_rejects_a_checkpoint_of_another_width(tmp_path, capsys, command):
    train_pair = _write_pattern_pair(tmp_path, "train", 120, seed=1)
    out = tmp_path / "run"
    trained = ["train", "--config", str(_idx_config(tmp_path, train_pair)), "--out", str(out / "train")]
    assert cli.main([*trained, "--quiet"]) == 0
    ckpt = out / "train" / "model.ckpt"
    cfg = _idx_config(tmp_path, train_pair, _write_square_pair(tmp_path, "wide", 3, np.arange(20) % 10))
    argv = [command, "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out / command)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: first layer expects 4 features, the data has 9\n"
    assert not (out / command).exists()


@pytest.mark.parametrize(
    "command, side, rows, message",
    [
        pytest.param("train", 2, 0, "the IDX pair has no rows", id="train"),
        pytest.param("baseline", 2, 0, "the IDX pair has no rows", id="baseline"),
        pytest.param("train", 0, 300, "the images have no pixels", id="train-no-pixels"),
        pytest.param("baseline", 0, 300, "the images have no pixels", id="baseline-no-pixels"),
    ],
)
def test_cli_rejects_an_idx_pair_with_no_rows(tmp_path, capsys, command, side, rows, message):
    """A pair of 0x0 images is rejected too: unchecked, it trained a head
    whose every row landed on one node, and exited 0."""
    train_pair = _write_pattern_pair(tmp_path, "train", 120, seed=1)
    empty = _write_square_pair(tmp_path, "empty", side, np.arange(rows) % 10)
    # 0-pixel test images next to 4-pixel training ones would fail the width check instead
    cfg = _idx_config(tmp_path, train_pair if side else empty, empty)
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty[0]}: {message}\n"
    assert not out.exists()


def test_cli_sweep_scores_a_scenario_without_eval_rows_as_nan(tmp_path, capsys):
    """Dropping 9 from a test pair of nines leaves that scenario no eval rows;
    the sweep completes and the row reads nan."""
    train_pair = _write_square_pair(tmp_path, "train", 2, np.arange(120) % 10)
    cfg = _idx_config(tmp_path, train_pair, _write_square_pair(tmp_path, "nines", 2, [9] * 40))
    cfg.write_text(cfg.read_text() + "scenario.mode = inter-parent\nscenario.exclusions = none;9\n")
    out = tmp_path / "run"
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.DictReader((out / "scenarios.csv").open()))
    assert [r["m_eval"] for r in rows[:2]] == ["40", "0"]
    assert [rows[1][key] for key in ("parent_acc", "acc", "first_parent_acc", "kmeans_acc")] == ["nan"] * 4
    assert "m_eval=0 parent_acc=nan acc=nan first_parent_acc=nan kmeans_acc=nan" in captured.out


def _too_few_nines_config(tmp_path, extra=""):
    """head.k = 5 over a test pair of 40 zeros and 3 nines: parent 2 of the
    threshold partition has fewer rows than a per-parent k-means needs."""
    train_pair = _write_square_pair(tmp_path, "train", 2, np.arange(120) % 10)
    cfg = _idx_config(tmp_path, train_pair, _write_square_pair(tmp_path, "few", 2, [0] * 40 + [9] * 3))
    cfg.write_text(cfg.read_text().replace("head.k = 2", "head.k = 5") + extra)
    return cfg


def test_cli_sweep_scores_a_parent_with_fewer_rows_than_k_as_nan_kmeans(tmp_path, capsys):
    cfg = _too_few_nines_config(tmp_path, "scenario.mode = inter-parent\nscenario.exclusions = none;9\n")
    out = tmp_path / "run"
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((out / "scenarios.csv").open()))
    assert [r["m_eval"] for r in rows[:2]] == ["43", "40"]
    assert rows[0]["kmeans_acc"] == "nan" and not math.isnan(float(rows[1]["kmeans_acc"]))
    assert rows[0]["acc"] != "nan"


@pytest.mark.parametrize("exclusions", ["none;9", "none"])
def test_cli_sweep_aggregates_skip_nan_scenarios(tmp_path, capsys, exclusions):
    """Scenario 0 reads kmeans_acc nan; each aggregate row takes the column
    over the scenarios that scored a number, and reads nan when none did."""
    cfg = _too_few_nines_config(tmp_path, f"scenario.mode = inter-parent\nscenario.exclusions = {exclusions}\n")
    out = tmp_path / "run"
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "scenarios.csv").open()))
    scored, aggregates = rows[:-4], rows[-4:]
    numbers = [r["kmeans_acc"] for r in scored if r["kmeans_acc"] != "nan"]
    assert len(numbers) == len(scored) - 1
    expected = numbers[0] if numbers else "nan"
    assert [r["kmeans_acc"] for r in aggregates] == [expected] * 4
    assert "nan" not in [r["acc"] for r in aggregates]
    assert f"kmeans_mean={float(expected):.6f}" in capsys.readouterr().out


def test_cli_sweep_stops_on_any_other_k_means_error(tmp_path, capsys, monkeypatch):
    """Only a parent with too few rows reads as a nan baseline; any other
    error from k-means is the sweep's error."""

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("acol.evaluation.kmeans", boom)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        FAST_SYNTH.replace("train.epochs = 8", "train.epochs = 1")
        + "scenario.mode = random-partitions\nscenario.count = 1\n"
    )
    out = tmp_path / "run"
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: boom\n")
    assert not (out / "scenarios.csv").exists()


@pytest.mark.parametrize("sweep, calls", [
    ({"scenario_mode": "inter-parent", "scenario_exclusions": "none;9;8,9"}, 4),
    ({"scenario_mode": "random-partitions", "scenario_count": 2}, 4),
], ids=["inter-parent", "random-partitions"])
def test_cli_sweep_clusters_each_distinct_parent_subset_once(tmp_path, monkeypatch, sweep, calls):
    """Parent 1 (digits 0-4) keeps its rows and its seed in every
    inter-parent scenario, so the sweep clusters it once: 1 + 3 calls, not
    6. Each random partition gives both parents new rows: 2 per scenario."""
    digits, rng, paths = bench_digits(), np.random.default_rng(8), {}
    for stem, count, keys in (("train", 300, ("images", "labels")),
                              ("t10k", 150, ("test_images", "test_labels"))):
        paths.update(zip(keys, digits.write_pair(count, rng, str(tmp_path / stem))))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(serialize_config(ExperimentConfig(
        dataset_type="idx", **paths, k=5, epochs=1, validation_size=50, seed=2, **sweep,
    )))
    kmeans, rows = evaluation.kmeans, []
    monkeypatch.setattr("acol.evaluation.kmeans", lambda x, *a, **kw: rows.append(len(x)) or kmeans(x, *a, **kw))
    assert cli.main(["scenarios", "--config", str(cfg), "--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert len(rows) == calls


def test_cli_baseline_stops_before_clustering_a_parent_with_fewer_rows_than_k(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("acol.evaluation.kmeans", lambda *args, **kwargs: pytest.fail("k-means ran"))
    out = tmp_path / "run"
    assert cli.main(["baseline", "--config", str(_too_few_nines_config(tmp_path)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parent 2 has 3 rows, fewer than head.k = 5\n"
    assert not out.exists()


def test_cli_scoring_commands_read_only_the_test_pool(tmp_path, capsys):
    train_pair = _write_pattern_pair(tmp_path, "train", 200, seed=4)
    cfg = str(_idx_config(tmp_path, train_pair, _write_pattern_pair(tmp_path, "test", 80, seed=5)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out / "train"), "--quiet"]) == 0
    ckpt = str(out / "train" / "model.ckpt")
    commands = {
        "eval": ["eval", "--checkpoint", ckpt],
        "baseline": ["baseline"],
        "export-graph": ["export-graph", "--checkpoint", ckpt, "--limit", "50"],
    }

    def run_all(label):
        outputs = {}
        for name, argv in commands.items():
            target = out / label / name
            assert cli.main([*argv, "--config", cfg, "--out", str(target)]) == 0, name
            stdout = capsys.readouterr().out.replace(str(out / label), "<out>")
            files = {p.name: p.read_bytes() for p in target.glob("*")}
            outputs[name] = (stdout, files)
        return outputs

    before = run_all("before")
    for path in train_pair:
        path.unlink()
    after = run_all("after")
    assert after == before
    assert set(before["eval"][1]) == {"eval_summary.txt"}
    assert set(before["export-graph"][1]) == {"graph.edges"}
    assert before["baseline"][0].startswith("baseline m=80 ")


def test_cli_train_rejects_a_diverging_run(tmp_path, fast_cfg, capsys):
    cfg = tmp_path / "diverge.txt"
    cfg.write_text(fast_cfg.read_text().replace("train.lr = 0.05", "train.lr = 1e200"))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: training diverged: epoch 1, batch 2 has loss nan"
    assert not (out / "model.ckpt").exists()
    assert not (out / "metrics.csv").exists()


def test_cli_diverging_run_prints_only_the_error_line(tmp_path):
    """numpy's overflow warnings from the diverging steps stay off stderr."""
    cfg = tmp_path / "diverge.txt"
    cfg.write_text(
        "dataset.per_cluster = 60\ndataset.test_per_cluster = 20\nhead.k = 2\n"
        "train.hidden = 32\ntrain.epochs = 3\ntrain.validation_size = 40\n"
        "train.batch_size = 32\ntrain.lr = 1e200\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "acol.cli", "train", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: training diverged: epoch 1, batch 2 has loss nan\n"

"""Every artifact is absent or whole.

Each file acol writes goes through ``datasets.artifact``: the writer fills
``<name>.<pid>.tmp`` beside the target, and only a clean exit renames it
over the target. So a run that stops early, by an error or a kill, leaves
each artifact either as it was before the run or as the run meant it.
"""

import csv
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from acol import cli, datasets, evaluation, network
from acol.head import AcolHead

SRC = Path(cli.__file__).resolve().parents[1]
TRAIN_ARTIFACTS = ("model.ckpt", "metrics.csv", "embeddings.csv", "summary.txt", "config.txt")
# 120 training rows and 6 x test_per_cluster evaluated rows (head.k = 3, 2 parents)
TINY = """
dataset.per_cluster = 20
dataset.test_per_cluster = {test_per_cluster}
train.epochs = {epochs}
train.validation_size = 0
train.hidden = 16
train.batch_size = 32
"""
PREVIOUS = b"the previous run's bytes\n"


def _boom(*args, **kwargs):
    raise ValueError("boom")


def _unencodable(*args):
    """Text whose write raises UnicodeEncodeError, a ValueError."""
    return "key = \ud800\n"


def test_artifact_renames_a_whole_file_over_the_target(tmp_path):
    target = tmp_path / "new" / "dir" / "a.txt"
    with datasets.artifact(target, "w") as f:
        f.write("one\n")
        assert Path(f.name) == target.with_name(f"a.txt.{os.getpid()}.tmp")
        assert not target.exists()
        f.write("two\n")
    assert target.read_bytes() == b"one\ntwo\n"
    assert os.listdir(target.parent) == ["a.txt"]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_artifact_that_raises_keeps_the_previous_file(tmp_path, error):
    target = tmp_path / "a.bin"
    target.write_bytes(PREVIOUS)
    with pytest.raises(error):
        with datasets.artifact(target, "wb") as f:
            f.write(b"partial")
            f.flush()
            raise error()
    assert target.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["a.bin"]


def _train(tmp_path, out) -> int:
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY.format(test_per_cluster=20, epochs=1))
    return cli.main(["train", "--config", str(cfg), "--out", str(out), "--quiet"])


def _fail_summary(tmp_path, out, monkeypatch):
    monkeypatch.setattr(cli, "format_key_values", _unencodable)
    assert _train(tmp_path, out) == 1


def _fail_config(tmp_path, out, monkeypatch):
    monkeypatch.setattr(cli, "serialize_config", _unencodable)
    assert _train(tmp_path, out) == 1


def _fail_eval_summary(tmp_path, out, monkeypatch):
    assert _train(tmp_path, tmp_path / "run") == 0
    monkeypatch.setattr(cli, "format_key_values", _unencodable)
    checkpoint = tmp_path / "run" / "model.ckpt"
    argv = ["eval", "--config", str(tmp_path / "cfg.txt"), "--checkpoint", str(checkpoint), "--out", str(out)]
    assert cli.main([*argv, "--quiet"]) == 1


def _fail_csv(tmp_path, out, monkeypatch):
    def rows():
        yield [1]
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        evaluation.write_csv(out / "a.csv", ["a"], rows())


class _Truth:
    """Fine labels whose second row raises."""

    def __getitem__(self, v):
        return 1 if v == 0 else _boom()


def _fail_graph(tmp_path, out, monkeypatch):
    with pytest.raises(ValueError, match="boom"):
        evaluation.export_graph(np.eye(3), 0.0, out / "graph.edges", truth=_Truth())


def _fail_checkpoint(tmp_path, out, monkeypatch):
    model = network.init_model([4, 3, 6], AcolHead(2, 3), 0)
    model.layers[-1].bias = np.array(["not a float"] * 6)  # after the header and the first layer
    with pytest.raises(ValueError):
        network.save_checkpoint(model, out / "model.ckpt")


def _fail_idx(tmp_path, out, monkeypatch):
    monkeypatch.setattr(datasets, "struct", SimpleNamespace(pack=_boom))
    with pytest.raises(ValueError, match="boom"):
        datasets.write_idx_labels(np.arange(3), out / "labels.idx")


WRITE_SITES = {
    "summary.txt": _fail_summary,
    "config.txt": _fail_config,
    "eval_summary.txt": _fail_eval_summary,
    "a.csv": _fail_csv,
    "graph.edges": _fail_graph,
    "model.ckpt": _fail_checkpoint,
    "labels.idx": _fail_idx,
}


@pytest.mark.parametrize("name", WRITE_SITES)
def test_writer_that_raises_mid_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    """Each of the seven write sites, failing after its file is opened."""
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(PREVIOUS)
    WRITE_SITES[name](tmp_path, out, monkeypatch)
    assert (out / name).read_bytes() == PREVIOUS
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_run_that_fails_before_writing_leaves_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "diverge.txt"
    cfg.write_text(TINY.format(test_per_cluster=20, epochs=1) + "train.lr = 1e30\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: training diverged" in capsys.readouterr().err
    assert not out.exists()


# Forks one `acol train` per trial from a process that has imported acol once
# (a fresh interpreter costs about 0.3 s of imports), waits until the trial's
# first file appears, and kills it after the trial's share of the clean run's
# write phase. argv: config, root directory, trials.
KILLER = """
import os, signal, sys, time
from acol import cli

config, root, trials = sys.argv[1], sys.argv[2], int(sys.argv[3])

def start(out):
    pid = os.fork()
    if pid == 0:
        os._exit(cli.main(["train", "--config", config, "--out", out, "--quiet"]))
    return pid

def first_file(out):
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.isdir(out) and os.listdir(out):
            return time.monotonic()
    raise TimeoutError(out)

pid = start(os.path.join(root, "clean"))
began = first_file(os.path.join(root, "clean"))
assert os.waitpid(pid, 0)[1] == 0
window = time.monotonic() - began
for i in range(trials):
    out = os.path.join(root, f"trial-{i}")
    pid = start(out)
    first_file(out)
    time.sleep(window * i / trials)
    os.kill(pid, signal.SIGKILL)
    print(os.waitpid(pid, 0)[1])
"""


def test_killed_train_leaves_each_artifact_absent_or_whole(tmp_path):
    """SIGKILL at 20 staggered times through the write phase of `acol train`."""
    per_cluster, trials = 2000, 20
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY.format(test_per_cluster=per_cluster, epochs=2))
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", KILLER, str(cfg), str(tmp_path), str(trials)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    statuses = [int(s) for s in done.stdout.split()]
    assert len(statuses) == trials
    assert any(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses)

    clean = tmp_path / "clean"
    m = 2 * 3 * per_cluster
    for trial in (tmp_path / f"trial-{i}" for i in range(trials)):
        for name in TRAIN_ARTIFACTS:
            path = trial / name
            if not path.exists():
                continue
            if name == "model.ckpt":
                network.load_checkpoint(path)
            elif name == "metrics.csv":
                names = [f.name for f in fields(network.EpochRecord)]
                with open(path, newline="") as f:
                    rows = list(csv.reader(f))
                assert rows[:1] == [names] and [len(row) for row in rows[1:]] == [len(names)] * 2, path
            elif name == "embeddings.csv":
                assert len(path.read_bytes().splitlines()) == m + 1, path
            assert path.read_bytes() == (clean / name).read_bytes(), path

"""Golden sha256 digests of every artifact and stdout of two CLI sessions.

The sessions are the default synthetic run (``train --seed 1``, then
``eval``, ``export-graph`` and ``export-graph --source parents``) and a
few-hundred-row session on generated digits (``bench/digits.write_pair``:
train, eval, export-graph, inter-parent scenarios, baseline, then
random-partitions scenarios and a ``dataset.train_limit`` train, each from
a config of its own). Each file the commands write and each command's
stdout is hashed with the session's temp dir replaced by a fixed token, and
the hashes are compared with ``golden_digests.json``.

The bits depend on the BLAS kernel and on its thread count, so the table is
keyed by the OpenBLAS core name, the numpy version and the number of
OpenBLAS threads; on a key the table lacks, the test skips and names the
key. Tier-1 checks the current thread count in-process and each other
thread count the table holds for this core and numpy version in a
subprocess, by

    OPENBLAS_NUM_THREADS=1 python3 tests/test_golden_digests.py --check

which exits 1 naming each changed file. A change that alters bits on purpose
regenerates the entry of the current key, and of each other thread count, with

    python3 tests/test_golden_digests.py --write
    OPENBLAS_NUM_THREADS=1 python3 tests/test_golden_digests.py --write
"""

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_digests.json"
TOKEN = b"<TMP>"

DIGITS_ROWS = (600, 200)  # generated (train, test) digits
DIGITS_CONFIG = {
    "dataset.type": "idx",
    "partition.type": "threshold",
    "partition.threshold": "5",
    "head.n_p": "2",
    "head.k": "5",
    "train.epochs": "2",
    "train.validation_size": "100",
    "scenario.mode": "inter-parent",
    "seed": "7",
}


def blas_key() -> str:
    """``<OpenBLAS core name>/numpy-<version>/threads-<n>`` of numpy's bundled
    OpenBLAS, ``n`` being its thread count (``OPENBLAS_NUM_THREADS``)."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    core, threads = "unknown-blas", "unknown"
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        core = lib.scipy_openblas_get_corename64_().decode("ascii")
        threads = lib.scipy_openblas_get_num_threads64_()
    return f"{core}/numpy-{np.__version__}/threads-{threads}"


def _write_config(path: Path, entries: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return str(path)


def _run_session(work: Path, commands) -> dict:
    """Run ``(label, argv)`` commands in-process; sha256 of stdout and files."""
    from acol import cli

    token = str(work).encode()
    digests = {}
    for label, argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0, label
        digests[f"stdout:{label}"] = stdout.getvalue().encode()
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(work))] = path.read_bytes()
    return {
        name: hashlib.sha256(data.replace(token, TOKEN)).hexdigest()
        for name, data in digests.items()
    }


def _commands(config: str, out: Path, names, seed_args=(), label=None):
    """One ``(label, argv)`` per command name; the label (default: the name)
    names the output directory and the stdout digest."""
    ckpt = str(out / "train" / "model.ckpt")
    extra = {"eval": ["--checkpoint", ckpt], "export-graph": ["--checkpoint", ckpt]}
    commands = []
    for name in names:
        tag = label or name
        argv = [name, "--config", config, "--out", str(out / tag), *seed_args, *extra.get(name, [])]
        commands.append((tag, argv))
    return commands


def synthetic_session(work: Path) -> dict:
    config = _write_config(work / "config.txt", {})
    out, seed = work / "out", ("--seed", "1")
    commands = _commands(config, out, ("train", "eval", "export-graph"), seed)
    commands += _commands(
        config, out, ("export-graph",), (*seed, "--source", "parents"), label="export-graph-parents"
    )
    return _run_session(work, commands)


def bench_digits():
    """``bench/digits.py``, the digit generator of the benchmark, as a module."""
    spec = importlib.util.spec_from_file_location("bench_digits", ROOT / "bench" / "digits.py")
    digits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digits)
    return digits


def digits_session(work: Path) -> dict:
    digits = bench_digits()
    rng = np.random.default_rng(7)
    entries = dict(DIGITS_CONFIG)
    pairs = (("train", "dataset.images", "dataset.labels"),
             ("t10k", "dataset.test_images", "dataset.test_labels"))
    for (stem, *keys), count in zip(pairs, DIGITS_ROWS):
        entries.update(zip(keys, digits.write_pair(count, rng, str(work / stem))))
    config = _write_config(work / "config.txt", entries)
    out = work / "out"
    names = ("train", "eval", "export-graph", "scenarios", "baseline")
    commands = _commands(config, out, names)
    random = {**entries, "scenario.mode": "random-partitions", "scenario.count": "2"}
    commands += _commands(
        _write_config(work / "random.txt", random), out, ("scenarios",), label="scenarios-random"
    )
    limited = {**entries, "dataset.train_limit": "300"}
    commands += _commands(
        _write_config(work / "limited.txt", limited), out, ("train",), label="train-limit"
    )
    return _run_session(work, commands)


SESSIONS = {"synthetic": synthetic_session, "digits": digits_session}


def _table() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


def _changed(expected: dict, got: dict) -> list[str]:
    return sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_artifacts_match_the_golden_digests(tmp_path, session):
    key = blas_key()
    expected = _table().get(key, {}).get(session)
    if expected is None:
        pytest.skip(f"no golden digests for key '{key}'; run tests/test_golden_digests.py --write")
    assert _changed(expected, SESSIONS[session](tmp_path)) == []


def test_artifacts_match_the_golden_digests_at_the_other_thread_counts():
    """Each other thread count the table holds for this core and numpy
    version, checked by ``--check`` in a subprocess on this checkout's src."""
    key = blas_key()
    prefix = key.rpartition("/threads-")[0] + "/threads-"
    others = [k for k in sorted(_table()) if k.startswith(prefix) and k != key]
    if not others:
        pytest.skip(f"no golden digests for another thread count of '{prefix}*'")
    for other in others:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": other.removeprefix(prefix), "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, __file__, "--check"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1] == f"{other}: match"


def main(argv) -> int:
    if argv not in (["--write"], ["--check"]):
        print("usage: python3 tests/test_golden_digests.py --write|--check", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    table = _table()
    key = blas_key()
    if argv == ["--check"] and key not in table:
        print(f"no golden digests for key '{key}'")
        return 1
    entry = {}
    for name, session in sorted(SESSIONS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            entry[name] = session(Path(tmp))
    if argv == ["--check"]:
        changed = [f"{name}/{file}" for name in entry for file in _changed(table[key].get(name, {}), entry[name])]
        for line in changed:
            print(f"changed: {line}")
        print(f"{key}: {'differ' if changed else 'match'}")
        return 1 if changed else 0
    table[key] = entry
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, entry.values()))} digests for key '{key}' to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

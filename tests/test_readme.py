"""The README's examples run as written.

The ``python`` blocks run in a subprocess with ``src/`` on the path. The
minimal-run shell block runs line by line in a temporary directory: an
``acol`` line through ``cli.main``, any other line through the shell. Its
run must write the files that the "Artifacts" section lists for
``acol train``.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from acol import cli
from acol.config import load_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
PYTHON_BLOCKS = [code for lang, code in BLOCKS if lang == "python"]


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block-{i + 1}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(tmp_path, code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), "the example prints its result"


def test_readme_minimal_run_writes_the_listed_artifacts(tmp_path, monkeypatch, capsys):
    (shell,) = [code for lang, code in BLOCKS if lang == "" and "printf" in code]
    # the bullet list under "## Artifacts" that follows "`acol train` writes ..."
    bullets = README.split("\n## Artifacts\n", 1)[1].split("\n\n")[1]
    listed = re.findall(r"^- ((?:`[^`]+`(?: / )?)+) - ", bullets, flags=re.M)
    names = [name for bullet in listed for name in re.findall(r"`([^`]+)`", bullet)]
    assert len(names) >= 4
    monkeypatch.chdir(tmp_path)
    for line in shell.splitlines():
        argv = shlex.split(line)
        if argv[0] == "acol":
            assert cli.main(argv[1:]) == 0, capsys.readouterr().err
        else:
            subprocess.run(line, shell=True, check=True, cwd=tmp_path)
    out = tmp_path / load_config(tmp_path / "cfg.txt").output_dir
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(names)
    assert capsys.readouterr().out.startswith("train ")

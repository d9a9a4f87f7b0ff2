"""Every mutant of ``tests/mutants.py`` still applies to the source.

A mutant whose old text no longer occurs exactly once in its file is
reported ``stale`` by the mutation run and tests nothing. This checks that
rule (``mutants.applies``) for the whole list without running tier-1 per
mutant, so a refactor that rewrites a mutated line fails here at once. The
mutation run leaves this file out of its tier-1 runs: in a mutated copy the
old text is gone by design. It also checks that each run's ordered list of
test files is the whole of tier-1, so a survivor has passed every test.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_exactly_once():
    mutants = _load_mutants()
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS)
    stale = [name for name, rel, old, _ in mutants.MUTANTS if not mutants.applies(rel, old)]
    assert stale == []


def test_each_mutant_run_orders_exactly_the_tier1_test_files():
    mutants = _load_mutants()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = {line.partition("::")[0] for line in done.stdout.splitlines() if "::" in line}
    assert "tests/test_mutants.py" in collected
    for rel in {rel for _, rel, _, _ in mutants.MUTANTS} | {"pyproject.toml"}:
        order = mutants.tier1_files(rel)
        assert sorted(order) == sorted(collected - {"tests/test_mutants.py"}), rel
        assert order[-1] == "tests/test_acceptance.py"
    assert mutants.tier1_files("src/acol/config.py")[:2] == ["tests/test_config_cli.py", "tests/test_golden_digests.py"]
    assert mutants.tier1_files("src/acol/network.py")[0] == "tests/test_network.py"

"""Every mutant of ``tests/mutants.py`` still applies to the source.

A mutant whose old text no longer occurs exactly once in its file is
reported ``stale`` by the mutation run and tests nothing. This checks that
rule (``mutants.applies``) for the whole list without running tier-1 per
mutant, so a refactor that rewrites a mutated line fails here at once. The
mutation run leaves this file out of its tier-1 runs: in a mutated copy the
old text is gone by design.
"""

import importlib.util
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

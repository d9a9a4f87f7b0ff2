"""Source checks: only ``datasets.py`` reads rows of a dataset's ``X``, and
a rule written once stays written once."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "acol"


def test_no_module_but_datasets_indexes_x():
    """A dataset built from a pool shares the pool's ``X`` and selects its own
    rows by ``rows``, so ``X[...]`` reads the pool's rows where the set's are
    meant. Every other module reads a set's rows through ``stored``,
    ``features`` or ``subset``: no ``.X[`` occurs outside ``datasets.py``."""
    found = [
        f"{p.name}:{n}: {line.strip()}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "datasets.py"
        for n, line in enumerate(p.read_text().splitlines(), start=1)
        if ".X[" in line
    ]
    assert found == []


@pytest.mark.parametrize("text", [
    "first layer expects",  # the width rule, network.check_features; eval and export-graph reach it
    "*= cfg.momentum",      # the momentum step, one loop over each layer's weights and bias
])
def test_a_rule_has_one_home_in_src(text):
    assert sum(p.read_text().count(text) for p in SRC.glob("*.py")) == 1

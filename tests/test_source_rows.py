"""Only ``datasets.py`` reads rows of a dataset's ``X``."""

from pathlib import Path

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

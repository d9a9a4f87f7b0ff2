"""The size bar of the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acol"
LIMIT = 1800
WIDTH = 114


def test_package_source_stays_within_its_line_budget():
    """``src/acol/*.py`` stays at or under 1,800 lines in total.

    The aim is the same behaviour from less code. The planned run
    diagnostics (per-node occupancy, ``mapping.csv``, ``timings.json``) add
    lines, so each addition has to be paid for by deleting code that no
    program path needs, such as a check that an earlier one already made.
    This bound makes that trade visible in review instead of letting the
    package grow one small addition at a time.
    """
    sizes = {p.name: len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}
    assert sum(sizes.values()) <= LIMIT, f"src/acol is {sum(sizes.values())} lines: {sizes}"


def test_package_source_lines_stay_within_their_width():
    """No line of ``src/acol/*.py`` is wider than 114 characters, so the line
    budget above cannot be met by packing more code into each line."""
    wide = [
        f"{p.name}:{n}: {len(line)}"
        for p in sorted(SRC.glob("*.py"))
        for n, line in enumerate(p.read_text().splitlines(), start=1)
        if len(line) > WIDTH
    ]
    assert wide == []

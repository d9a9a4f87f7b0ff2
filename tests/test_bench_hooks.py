"""Every span of the benchmark's hook table still names a function of acol.

The benchmark times acol by wrapping the functions its hook table names; a
hook none of whose targets exists is reported as absent, so a rename here
would silently drop a per-layer metric. The table is read, not installed:
installing would wrap acol's functions for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exists(target: str) -> bool:
    module_name, _, attr = target.rpartition(".")
    module = importlib.import_module(f"acol.{module_name}")
    return callable(getattr(module, attr, None))


def test_every_bench_hook_resolves_to_an_acol_function():
    hooks = _load_spans().HOOKS
    assert hooks
    absent = {h.span: h.targets for h in hooks if not any(_exists(t) for t in h.targets)}
    assert absent == {}

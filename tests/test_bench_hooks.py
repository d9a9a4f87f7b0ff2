"""Every acol name the benchmark calls still exists.

The benchmark times acol by wrapping the functions its hook table names; a
hook none of whose targets exists is reported as absent, so a rename here
would silently drop a per-layer metric. The table is read, not installed:
installing would wrap acol's functions for the rest of the session. The
benchmark also calls a few acol names itself, outside the table; a rename of
one of those fails every benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from acol.config import ExperimentConfig

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


def test_every_acol_name_the_benchmark_calls_directly_exists():
    # bench/child.py, bench/run.py and bench/digits.py
    direct = ["cli.main", "config.load_config", "network.load_checkpoint",
              "datasets.write_idx_images", "datasets.write_idx_labels"]
    assert [t for t in direct if not _exists(t)] == []
    # bench/run.py sizes each workload's layers from the resolved hidden widths
    assert ExperimentConfig().resolved_hidden() == (2048,)
    assert ExperimentConfig(dataset_type="idx", images="a", labels="b").resolved_hidden() == (256, 128)

"""Spans around calls into acol's modules, recorded from outside the program.

``HOOKS`` is the one table of hook points. Each entry names a span
``<layer>.<what>`` and the acol functions (``<module>.<function>``) whose
calls it times. Every listed function that exists is wrapped; an entry none
of whose functions exist is reported as absent, so a renamed or merged
function shows up as a missing metric, never as a crash or a zero. Several
names per entry let the table cover both today's functions and their
planned successors (a fused GAR pass, one partition-to-dataset function).

Wrapping replaces the function in every ``acol`` module that holds it,
including names bound by ``from .x import f``. ``acol.linalg`` is not
hooked: it is called by bound name inside ``network`` and ``head`` and its
time lands in their spans.

Spans stay in memory; the child process writes them out when its command
ends. The analysis helpers below work on one command's spans at a time.
"""

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("config", "datasets", "network", "head", "regularizers", "evaluation", "cli")
COMMAND_SPAN = "cli.command"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _idx_bytes(args, kwargs, result):
    paths = (_arg(args, kwargs, 0, "images_path"), _arg(args, kwargs, 1, "labels_path"))
    return {"bytes": sum(os.path.getsize(str(p)) for p in paths)}


def _step_shape(args, kwargs, result):
    model, x = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "x")
    return {"rows": len(x), "sizes": list(model.layer_sizes)}


def _data_rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "data"))}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(str(_arg(args, kwargs, 1, "path")))}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(str(_arg(args, kwargs, 0, "path")))}


def _degenerate(args, kwargs, result):
    for item in result if isinstance(result, tuple) else (result,):
        flag = getattr(item, "degenerate", None)
        if flag is not None:
            return {"degenerate": bool(flag)}
    return None


@dataclass(frozen=True)
class Hook:
    span: str
    targets: tuple[str, ...]
    attrs: Callable | None = None  # (args, kwargs, result) -> dict of counts


HOOKS = (
    Hook("config.load", ("config.load_config",)),
    Hook("datasets.load_idx", ("datasets.load_idx",), _idx_bytes),
    Hook("datasets.images_to_features", ("datasets.images_to_features",)),
    Hook("datasets.synthetic_blobs", ("datasets.synthetic_blobs",)),
    Hook("datasets.split_validation", ("datasets.split_validation",)),
    Hook("datasets.pool_to_dataset", ("datasets.pool_to_dataset", "cli.pool_to_dataset")),
    Hook("network.train", ("network.train",)),
    Hook("network.train_step", ("network.combined_step",), _step_shape),
    Hook("network.forward", ("network.forward",)),
    Hook("network.backward", ("network.backward",)),
    Hook("network.epoch_eval", ("network.parent_accuracy_of",), _data_rows),
    Hook("network.checkpoint_write", ("network.save_checkpoint",), _written_bytes),
    Hook("network.checkpoint_read", ("network.load_checkpoint",), _read_bytes),
    Hook("head.supervised_grad", ("head.supervised_grad",)),
    Hook("head.assign_annotations", ("head.assign_annotations",)),
    Hook(
        "regularizers.gar",
        ("regularizers.gar_value_and_grad", "regularizers.gar_terms", "regularizers.gar_grad"),
        _degenerate,
    ),
    Hook("evaluation.kmeans", ("evaluation.kmeans",)),
    Hook("evaluation.clustering_accuracy", ("evaluation.clustering_accuracy",)),
    Hook("evaluation.export_embeddings", ("evaluation.export_embeddings",)),
    Hook("evaluation.export_graph", ("evaluation.export_graph",)),
    Hook("cli.score", ("cli.score",)),
    Hook("cli.fit", ("cli.fit", "cli._fit")),
)


class Tracer:
    """Records spans of one command: name, start, end, parent, counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn`` inside a span; a call nested in a span of the same name
        is folded into the outer span, so a merged function is counted once."""
        kwargs = kwargs or {}
        if self._stack and self._stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
        record = {"run": self.run_id, "id": span_id, "name": name,
                  "start": start, "end": end, "parent": parent}
        counts = attrs(args, kwargs, result) if attrs else None
        if counts:
            record["attrs"] = counts
        self.spans.append(record)
        return result

    def install(self, package: str, hooks=HOOKS) -> dict[str, list[str]]:
        """Wrap every hook target found in ``package``; return the absent hooks
        as span name -> the target names that were looked for."""
        names = sorted({t.rpartition(".")[0] for h in hooks for t in h.targets})
        by_name = {name: _module(f"{package}.{name}") for name in names}
        modules = [m for m in by_name.values() if m is not None] + [_module(package)]
        absent = {}
        for hook in hooks:
            found = False
            for target in hook.targets:
                module_name, _, attr = target.rpartition(".")
                fn = getattr(by_name[module_name], attr, None)
                if not callable(fn):
                    continue
                found = True
                wrapper = self._wrapper(hook.span, fn, hook.attrs)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is fn]:
                        setattr(module, key, wrapper)
            if not found:
                absent[hook.span] = [f"{package}.{t}" for t in hook.targets]
        return absent

    def _wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def duration_ns(span: dict) -> int:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the time its child spans cover.

    One command is single-threaded, so children never overlap each other.
    """
    covered = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration_ns(span)
    return {s["id"]: duration_ns(s) - covered[s["id"]] for s in spans}


def layer_of(span_name: str) -> str:
    return span_name.partition(".")[0]

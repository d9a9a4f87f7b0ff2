"""acol benchmark: the acol CLI on seeded generated inputs.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

acol is imported from the ``src`` directory next to this one and from
nowhere else; without it the benchmark exits 2. Every command of a workload
runs in its own process (``child.py``), one at a time, with the BLAS thread
count fixed at ``BLAS_THREADS``. A run generates its inputs from ``--seed``,
repeats the workload for ``--seconds`` seconds and reports medians; every
repeat's artifacts must match the first repeat's byte for byte. With ``--trace 1``
the repeats alternate traced and untraced, and the per-layer metrics come
from the traced ones. Every command's outputs are checked; a command with
any failed check counts as failed. The last line of stdout is the JSON
result; the lines before it (starting with ``#``) are the human report. See
README.md in this directory for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import digits
import facts
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
BLAS_THREADS = 1
DEADLINE_S = 165.0    # one invocation must exit within 180 s
CHECKS_MARGIN_S = 25.0  # room kept for the checks that follow the timed loop


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                      # config keys set on top of the defaults
    session: tuple                    # commands timed together, in order
    digits: tuple | None = None       # (train rows, test rows) of generated digits


DIGITS_CONFIG = {
    "dataset.type": "idx",
    "partition.type": "threshold",
    "partition.threshold": "5",
    "head.n_p": "2",
    "head.k": "5",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synthetic-train",
            "the default config (8->2048->6, 1,200-row pool, 100 epochs): "
            "per-epoch eval at width 2048 dominates, SGD steps are small",
            {},
            ("train",),
        ),
        Workload(
            "digits-train",
            "784->256->128->10 on 10,000 generated digits, 5 epochs: bound by SGD "
            "steps (forward, backward, momentum); IDX read and feature conversion",
            {**DIGITS_CONFIG, "train.epochs": "5"},
            ("train",),
            digits=(10000, 2000),
        ),
        Workload(
            "digits-sweep",
            "train, eval, export-graph, inter-parent scenarios and baseline on 5,000 "
            "generated digits: k-means, checkpoint reads, scoring, partition builds",
            {**DIGITS_CONFIG, "train.epochs": "2", "scenario.mode": "inter-parent"},
            ("train", "eval", "export-graph", "scenarios", "baseline"),
            digits=(5000, 1000),
        ),
    )
}


@dataclass
class Command:
    """One CLI command run in a child process, with its measurements."""

    name: str
    out: Path
    code: int | None = None
    wall_s: float = math.nan
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    setup_s: float = math.nan
    stdout: str = ""
    summary: dict = field(default_factory=dict)  # the parsed stdout summary line
    report: dict = field(default_factory=dict)   # what child.py wrote
    problems: list = field(default_factory=list)


def parse_summary(line: str):
    """``command key=value ...`` -> (command, fields); values may hold spaces."""
    command, *tokens = line.split(" ")
    fields, key = {}, None
    for token in tokens:
        name, sep, value = token.partition("=")
        if sep and name.isidentifier():
            key, fields[name] = name, value
        elif key is None:
            raise ValueError(f"unparsable summary line: {line!r}")
        else:
            fields[key] += " " + token
    return command, fields


def read_key_values(path: Path) -> dict:
    """``key = value`` lines of summary.txt / eval_summary.txt."""
    pairs = (line.partition(" = ") for line in path.read_text().splitlines())
    return {key: value for key, _, value in pairs}


def csv_rows(path: Path) -> list[dict]:
    """Rows of metrics.csv / scenarios.csv as column -> text.

    scenarios.csv writes its description column unquoted although it holds
    commas, so extra fields are folded back into column 1.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        extra = len(parts) - len(header)
        if extra > 0:
            parts[1 : 2 + extra] = [",".join(parts[1 : 2 + extra])]
        rows.append(dict(zip(header, parts)))
    return rows


def digest_tree(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Session:
    """Runs one workload's commands for one seed inside a work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        for var in facts.THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.inputs: dict[str, str] = {}
        self.config = work / "config.txt"
        self.commands: list[Command] = []

    def prepare(self) -> None:
        """Generate the seeded inputs and write the workload's config."""
        import numpy as np

        lines = {"seed": str(self.seed), "output.dir": "out", **self.workload.config}
        if self.workload.digits:
            rng = np.random.default_rng(self.seed)
            inputs = self.work / "inputs"
            inputs.mkdir()
            pairs = (("train", "dataset.images", "dataset.labels"),
                     ("t10k", "dataset.test_images", "dataset.test_labels"))
            for (stem, *keys), count in zip(pairs, self.workload.digits):
                written = digits.write_pair(count, rng, str(inputs / stem))  # images, then labels
                self.inputs.update(written)
                lines.update(zip(keys, written))
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))

    def argv(self, name: str, label: str) -> list[str]:
        argv = [name, "--config", str(self.config), "--out", str(self.work / label / name)]
        if name in ("eval", "export-graph"):
            argv += ["--checkpoint", str(self.work / label / "train" / "model.ckpt")]
        return argv

    def run(self, name: str, label: str, trace: bool) -> Command:
        """Run one command in a child process and check what it wrote."""
        cmd = Command(name=name, out=self.work / label / name)
        logs = self.work / "logs" / label
        logs.mkdir(parents=True, exist_ok=True)
        report = logs / f"{name}.json"
        child = [sys.executable, str(HERE / "child.py"), str(SRC), str(report), str(int(trace)), f"{label}/{name}"]
        with open(logs / f"{name}.out", "w") as out, open(logs / f"{name}.err", "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(child + self.argv(name, label), stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = cmd.code = os.waitstatus_to_exitcode(status)
        cmd.wall_s = end - start
        cmd.cpu_s = usage.ru_utime + usage.ru_stime
        cmd.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        cmd.stdout = (logs / f"{name}.out").read_text()
        if cmd.code != 0:
            tail = (logs / f"{name}.err").read_text().strip().splitlines()[-1:]
            cmd.problems.append(f"exit code {cmd.code}: {' '.join(tail)}")
        try:
            cmd.report = json.loads(report.read_text())
            cmd.setup_s = cmd.report["ready"] - start
        except (OSError, ValueError, KeyError) as e:
            cmd.problems.append(f"no child report: {e}")
        if cmd.code == 0:
            self._check(cmd)
        self.commands.append(cmd)
        return cmd

    def _check(self, cmd: Command) -> None:
        lines = cmd.stdout.strip().splitlines()
        try:
            command, cmd.summary = parse_summary(lines[-1]) if lines else ("", {})
            if command != cmd.name:
                raise ValueError(f"last stdout line is {lines[-1:]!r}, not a {cmd.name} summary")
            if cmd.name == "train":
                for row in csv_rows(cmd.out / "metrics.csv"):
                    if not all(math.isfinite(float(v)) for v in row.values()):
                        raise ValueError(f"metrics.csv has a non-finite value in epoch {row['epoch']}")
                from acol.network import load_checkpoint

                load_checkpoint(cmd.out / "model.ckpt")
                read_key_values(cmd.out / "summary.txt")
            elif cmd.name == "eval":
                read_key_values(cmd.out / "eval_summary.txt")
            elif cmd.name == "export-graph":
                if not (cmd.out / "graph.edges").is_file():
                    raise ValueError("graph.edges was not written")
            elif cmd.name == "scenarios":
                for row in csv_rows(cmd.out / "scenarios.csv"):
                    if not all(math.isfinite(float(row[k])) for k in ("acc", "kmeans_acc")):
                        raise ValueError(f"scenarios.csv row {row['scenario']} is not finite")
            elif cmd.name == "baseline":
                if not math.isfinite(float(cmd.summary["acc"])):
                    raise ValueError("baseline accuracy is not finite")
        except (OSError, ValueError, KeyError, IndexError) as e:
            cmd.problems.append(str(e))

    def check_eval_matches_train(self, train: Command, evaluation: Command) -> None:
        """``acol eval`` on the train-time checkpoint and eval rows must
        reproduce the train summary's acc and parent_acc exactly."""
        if train.problems or evaluation.problems:
            return
        trained = read_key_values(train.out / "summary.txt")
        scored = read_key_values(evaluation.out / "eval_summary.txt")
        for key in ("acc", "parent_acc"):
            if trained.get(key) != scored.get(key):
                evaluation.problems.append(f"eval {key}={scored.get(key)} but train {key}={trained.get(key)}")

    def iteration(self, label: str, trace: bool) -> list[Command]:
        cmds = [self.run(name, label, trace) for name in self.workload.session]
        by_name = {c.name: c for c in cmds}
        if "eval" in by_name:
            self.check_eval_matches_train(by_name["train"], by_name["eval"])
        return cmds

    def check_identical(self, cmds: list[Command], reference: list[Command]) -> None:
        """Same-seed repeats must write byte-identical artifacts."""
        for cmd, ref in zip(cmds, reference):
            if cmd.out.is_dir() and ref.out.is_dir():
                mine, theirs = digest_tree(cmd.out), digest_tree(ref.out)
                for path in sorted(set(mine) | set(theirs)):
                    if mine.get(path) != theirs.get(path):
                        cmd.problems.append(f"{cmd.name}/{path} differs from the first run's")

    def out_of_time(self, estimate: float) -> bool:
        return time.monotonic() + 1.3 * estimate > self.deadline - CHECKS_MARGIN_S


def median(values):
    """The median; 0 for a span that was never called."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest of p99.9/p99/p95/p90/p75 with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(pct / 100 * n) - 1]
    return None


def describe(values, unit: str) -> str:
    found = tail(values)
    spread = f"p{found[0]:g}={found[1]:.4g}" if found else "no percentile has 10 samples above it"
    return f"median={median(values):.4g} {unit}, {spread}, n={len(values)}"


def accuracies(reference: list[Command], baseline: Command | None) -> dict:
    """subclass_acc / parent_acc / kmeans_acc of the reference (first) run."""
    by_name = {c.name: c for c in reference}
    if "scenarios" in by_name:
        rows = [r for r in csv_rows(by_name["scenarios"].out / "scenarios.csv") if r["description"] != "aggregate"]
        return {
            "subclass_acc": statistics.fmean(float(r["acc"]) for r in rows),
            "parent_acc": statistics.fmean(float(r["parent_acc"]) for r in rows),
            "kmeans_acc": statistics.fmean(float(r["kmeans_acc"]) for r in rows),
        }
    summary = read_key_values(by_name["train"].out / "summary.txt")
    return {
        "subclass_acc": float(summary["acc"]),
        "parent_acc": float(summary["parent_acc"]),
        "kmeans_acc": float(baseline.summary["acc"]) if baseline and not baseline.problems else math.nan,
    }


def end_to_end(timed: list[list[Command]], accs: dict, lines: list[str]) -> dict:
    walls = [sum(c.wall_s for c in it) for it in timed]
    cpus = [sum(c.cpu_s for c in it) for it in timed]
    rss = [max(c.rss_mb for c in it) for it in timed]
    setups = [c.setup_s for it in timed for c in it]
    lines.append(f"wall_s {describe(walls, 's')} (iterations): {' '.join(f'{w:.3f}' for w in walls)}")
    lines.append(f"setup_s {describe(setups, 's')} (commands)")
    lines.append(f"cpu_s {describe(cpus, 's')}")
    lines.append(f"peak_rss_mb {describe(rss, 'MB')}")
    values = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "subclass_acc": (accs["subclass_acc"], "fraction"),
        "parent_acc": (accs["parent_acc"], "fraction"),
        "kmeans_acc": (accs["kmeans_acc"], "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# Spans reported as a per-call median (<span>_ms) and calls per repeat (<span>_calls).
PER_CALL = (
    "config.load",
    "datasets.load_idx",
    "datasets.images_to_features",
    "datasets.synthetic_blobs",
    "datasets.split_validation",
    "datasets.pool_to_dataset",
    "network.checkpoint_write",
    "network.checkpoint_read",
    "head.supervised_grad",
    "head.assign_annotations",
    "evaluation.kmeans",
    "evaluation.clustering_accuracy",
    "evaluation.export_embeddings",
    "evaluation.export_graph",
    "cli.score",
    "cli.fit",
)

# Derived metrics and the spans each needs; absent when one of them is absent.
DERIVED = {
    "network.train_step_ms": ("network.train_step",),
    "network.train_steps": ("network.train_step",),
    "network.forward_ms": ("network.forward", "network.train_step"),
    "network.backward_ms": ("network.backward",),
    "network.step_gflops_per_s": ("network.train_step",),
    "network.update_ms": ("network.train", "network.train_step"),
    "network.epoch_eval_ms": ("network.train", "network.epoch_eval"),
    "network.eval_rows": ("network.epoch_eval",),
    "network.checkpoint_bytes": ("network.checkpoint_write",),
    "datasets.load_idx_mb_per_s": ("datasets.load_idx",),
    "regularizers.gar_ms": ("regularizers.gar", "network.train_step"),
    "regularizers.degenerate_batches": ("regularizers.gar", "network.train_step"),
    "cli.command_self_ms": (),
    "cli.commands": (),
}


def unit_of(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_gflops_per_s", "GFLOP/s"), ("_ms", "ms"),
                         ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced: list[list[Command]], overhead_s: float, lines: list[str]) -> dict:
    """Per-layer metrics of the traced iterations; absent hooks are left out."""
    n = len(traced)
    absent = {}
    for it in traced:
        for cmd in it:
            absent.update(cmd.report.get("absent", {}))
    per_call = defaultdict(list)       # span name -> ms per call
    layer_self = defaultdict(float)    # layer -> self ms over all traced iterations
    step_ms, forward_ms, backward_ms, command_self = [], [], [], []
    gar_ns, degenerate, flagged = defaultdict(int), set(), set()
    update_ms, epoch_eval_ms = [], []
    flops = step_ns = eval_rows = idx_bytes = idx_ns = 0
    checkpoint_bytes = []
    for i, it in enumerate(traced):
        for j, cmd in enumerate(it):
            recorded = cmd.report.get("spans", [])
            by_id = {s["id"]: s for s in recorded}
            own = spans.self_times(recorded)
            for s in recorded:
                name, ms = s["name"], spans.duration_ns(s) / 1e6
                parent = by_id.get(s["parent"], {}).get("name")
                attrs = s.get("attrs", {})
                per_call[name].append(ms)
                layer_self[spans.layer_of(name)] += own[s["id"]] / 1e6
                if name == "network.train_step":
                    step_ms.append(ms)
                    flops += facts.step_flops(attrs["sizes"], attrs["rows"])
                    step_ns += spans.duration_ns(s)
                elif name == "network.forward" and parent == "network.train_step":
                    forward_ms.append(ms)
                elif name == "network.backward":
                    backward_ms.append(ms)
                elif name == "regularizers.gar" and parent == "network.train_step":
                    key = (i, j, s["parent"])
                    gar_ns[key] += spans.duration_ns(s)
                    if "degenerate" in attrs:
                        flagged.add(key)
                        if attrs["degenerate"]:
                            degenerate.add(key)
                elif name == "network.epoch_eval":
                    eval_rows += attrs["rows"]
                elif name == "network.checkpoint_write":
                    checkpoint_bytes.append(attrs["bytes"])
                elif name == "datasets.load_idx":
                    idx_bytes += attrs["bytes"]
                    idx_ns += spans.duration_ns(s)
                elif name == spans.COMMAND_SPAN:
                    command_self.append(own[s["id"]] / 1e6)
            for train in (s for s in recorded if s["name"] == "network.train"):
                # an epoch's evaluation is the run of epoch_eval calls after its steps
                kids = sorted((s for s in recorded if s["parent"] == train["id"]), key=lambda s: s["start"])
                evaluated = 0
                for kid in kids + [None]:
                    if kid is not None and kid["name"] == "network.epoch_eval":
                        evaluated += spans.duration_ns(kid)
                    elif evaluated:
                        epoch_eval_ms.append(evaluated / 1e6)
                        evaluated = 0
                steps = sum(1 for s in kids if s["name"] == "network.train_step")
                if steps:
                    update_ms.append(own[train["id"]] / 1e6 / steps)

    metrics = {}
    for name in PER_CALL:
        if name not in absent:
            metrics[f"{name}_ms"] = median(per_call[name])
            metrics[f"{name}_calls"] = len(per_call[name]) / n
    derived = {
        "network.train_step_ms": median(step_ms),
        "network.train_steps": len(step_ms) / n,
        "network.forward_ms": median(forward_ms),
        "network.backward_ms": median(backward_ms),
        "network.step_gflops_per_s": flops / step_ns if step_ns else 0.0,
        "network.update_ms": median(update_ms),
        "network.epoch_eval_ms": median(epoch_eval_ms),
        "network.eval_rows": eval_rows / n,
        "network.checkpoint_bytes": median(checkpoint_bytes),
        "datasets.load_idx_mb_per_s": idx_bytes / 1e3 / (idx_ns / 1e6) if idx_ns else 0.0,
        "regularizers.gar_ms": median(list(gar_ns.values())) / 1e6,
        "regularizers.degenerate_batches": len(degenerate) / n,
        "cli.command_self_ms": median(command_self),
        "cli.commands": len(command_self) / n,
    }
    if gar_ns and not flagged:
        absent["regularizers.degenerate_batches"] = ["a 'degenerate' field in the GAR result"]
    for name, value in derived.items():
        if name not in absent and not any(dep in absent for dep in DERIVED[name]):
            metrics[name] = value
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self[layer] / n
    metrics["bench.trace_overhead_s"] = overhead_s

    lines.append(f"per-layer spans over {n} traced iteration(s): calls per iteration, per-call ms")
    for name in sorted(per_call):
        if per_call[name]:
            lines.append(f"  {name:32s} calls={len(per_call[name]) / n:<9g} {describe(per_call[name], 'ms')}")
    if forward_ms:
        lines.append(f"  {'network.forward (train batches)':32s} {describe(forward_ms, 'ms')}")
    for span, targets in sorted(absent.items()):
        lines.append(f"absent {span}: looked for {', '.join(targets)}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path, lines: list[str],
            deadline: float) -> dict:
    """Run one benchmark invocation; returns the JSON result object."""
    session = Session(workload, seed, work, deadline)
    session.prepare()
    for path, digest in session.inputs.items():
        lines.append(f"input {Path(path).name} sha256={digest}")

    reference, timed, traced = None, [], []
    estimate = 0.0
    loop_start = time.monotonic()
    while not timed or (time.monotonic() - loop_start < seconds and not session.out_of_time(estimate)):
        for tracing in ((True, False) if trace else (False,)):
            label = f"run{len(timed) + len(traced)}"
            cmds = session.iteration(label, trace=tracing)
            (traced if tracing else timed).append(cmds)
            estimate = max(estimate, sum(c.wall_s for c in cmds))
            if reference is None:
                reference, reference_label = cmds, label
            else:
                session.check_identical(cmds, reference)
                shutil.rmtree(work / label, ignore_errors=True)

    names = [c.name for c in reference]
    if "eval" not in names:
        evaluation = session.run("eval", reference_label, trace=False)
        session.check_eval_matches_train(reference[0], evaluation)
    baseline = None if "baseline" in names else session.run("baseline", reference_label, trace=False)

    problems = [f"{c.name}: {p}" for c in session.commands for p in c.problems]
    lines.extend(f"FAILED {p}" for p in problems)
    accs = accuracies(reference, baseline) if not any(c.problems for c in reference) else {
        "subclass_acc": math.nan, "parent_acc": math.nan, "kmeans_acc": math.nan}
    e2e = end_to_end(timed, accs, lines)
    if trace:
        untraced_wall = median([sum(c.wall_s for c in it) for it in timed])
        traced_wall = median([sum(c.wall_s for c in it) for it in traced])
        lines.append(f"tracing overhead: traced wall_s {traced_wall:.4f} - untraced {untraced_wall:.4f}"
                     f" = {traced_wall - untraced_wall:+.4f} s")
        metrics = per_layer(traced, traced_wall - untraced_wall, lines)
    else:
        metrics = e2e
    failed = sum(1 for c in session.commands if c.problems)
    attempted = len(session.commands)
    lines.append(f"error_rate {failed}/{attempted} = {failed / attempted:.4f} (failed/attempted commands)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(workload: Workload, seed: int, seconds: float, trace: bool) -> None:
    """One benchmark invocation: the human report, then the JSON result line."""
    deadline = time.monotonic() + DEADLINE_S
    lines = [f"workload {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             f"why: {workload.why}"]
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    try:
        result = measure(workload, seed, seconds, trace, work, lines, deadline)
        machine = facts.machine({var: str(BLAS_THREADS) for var in facts.THREAD_VARS})
        lines.append("machine " + json.dumps(machine))
        lines.append("computed " + json.dumps(computed_counts(workload, work, machine)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print("# " + line)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acol" / "__init__.py").is_file():
        print(f"error: {SRC / 'acol'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        for workload in WORKLOADS.values():
            for trace in (False, True):
                report(workload, args.seed, args.seconds, trace)
    else:
        report(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


def computed_counts(workload: Workload, work: Path, machine: dict) -> dict:
    """FLOPs and bytes per step and per eval row for this workload's sizes."""
    from acol.config import load_config

    cfg = load_config(work / "config.txt")
    n_in = 28 * 28 if workload.digits else cfg.dim
    sizes = [n_in, *cfg.resolved_hidden(), cfg.n_parents * cfg.k]
    pool = workload.digits[0] if workload.digits else cfg.n_parents * cfg.k * cfg.per_cluster
    passes = (pool - cfg.validation_size, cfg.validation_size)
    return facts.counts(sizes, cfg.batch_size, passes, machine)


if __name__ == "__main__":
    sys.exit(main())

"""Mutation check: does tier-1 fail on each listed change to the source?

usage: python3 tests/mutants.py [--list] [NAME ...]

Each mutant is a source file, an exact text that occurs once in it, and the
text that replaces it. For each one, the repository (without ``.git`` and
caches) is copied to a temporary directory, the text is replaced in the
copy, and tier-1 runs there, less ``tests/test_mutants.py`` (which checks
that each old text is present), stopping at its first failure. Its test
files run in the order of ``tier1_files``: the mutated module's own tests
and the golden digests first, the slow acceptance gate last. The mutant is
``killed`` when tier-1 fails and ``survived`` when it passes; the working
tree is never changed. An unmutated copy runs first and must pass, or
nothing else runs. Names pick mutants; no name runs them all. Exits 1 when
a mutant survived or its text no longer occurs exactly once, 2 when the
unmutated copy fails, 0 otherwise.

Run by hand; pytest does not collect this file. A survivor is either a
missing test, which the change that finds it adds, or an equivalent mutant,
whose reason belongs next to the mutant below.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", "_runs", ".hypothesis", ".pytest_cache")
TIMEOUT_S = 900

# (name, file, old text, new text)
MUTANTS = (
    # the stdout summary line and the artifact writers
    ("quiet-ignored", "src/acol/cli.py",
     "if not args.quiet:\n        print(_summary_line(args.command",
     "if True:\n        print(_summary_line(args.command"),
    ("train-line-keeps-partition", "src/acol/cli.py",
     '    del summary["partition"]  # summary.txt only\n', ""),
    ("csv-crlf", "src/acol/evaluation.py", 'lineterminator="\\n"', 'lineterminator="\\r\\n"'),
    ("key-value-no-spaces", "src/acol/config.py", 'f"{key} = {value}\\n"', 'f"{key}={value}\\n"'),
    ("aggregates-keep-nan", "src/acol/cli.py",
     "columns = [c[~np.isnan(c)] for c in columns]", "columns = [c for c in columns]"),
    ("aggregates-min-max-swapped", "src/acol/cli.py",
     '("worst", np.min), ("median", np.median), ("best", np.max)',
     '("worst", np.max), ("median", np.median), ("best", np.min)'),
    ("first-parent-mask-all-rows", "src/acol/cli.py", "first = data.t == 1", "first = data.t >= 1"),
    # training
    ("gar-affinity-grad-sign", "src/acol/regularizers.py",
     "(d_off * s_diag - s_off * d_diag)", "(d_off * s_diag + s_off * d_diag)"),
    ("pooling-blocked", "src/acol/head.py",
     "np.eye(self.n_parents)[parents - 1]", "np.repeat(np.eye(self.n_parents), self.k, axis=0)"),
    ("relu-mask-dropped", "src/acol/network.py",
     "np.multiply(d_out, a_out > 0, out=d_out)", "np.multiply(d_out, a_out >= 0, out=d_out)"),
    ("momentum-step-before-velocity", "src/acol/network.py",
     "vel.weights -= g.weights\n                    layer.weights += vel.weights",
     "layer.weights += vel.weights\n                    vel.weights -= g.weights"),
    ("snapshot-earliest-on-ties", "src/acol/network.py", "or val_acc >= best_acc:", "or val_acc > best_acc:"),
    # scoring, k-means and readers
    ("hungarian-row-potential-sign", "src/acol/evaluation.py",
     "u[row_of[used]] += delta", "u[row_of[used]] -= delta"),
    ("kmeans-reseed-nearest", "src/acol/evaluation.py",
     "worst = np.argmax(np.min(dist_sq, axis=1))", "worst = np.argmin(np.min(dist_sq, axis=1))"),
    ("kmeans-zero-distance-draw-row-0", "src/acol/evaluation.py",
     "centers[i] = x[rng.integers(m)]\n            continue", "centers[i] = x[0]\n            continue"),
    ("idx-magic-unchecked", "src/acol/datasets.py",
     "if len(buf) >= 4 and (found", "if len(buf) >= 4 and False and (found"),
    ("idx-long-payload-accepted", "src/acol/datasets.py",
     "if len(buf) - header != expected:", "if len(buf) - header < expected:"),
    ("checkpoint-long-payload-accepted", "src/acol/network.py",
     "if len(payload) != expected:", "if len(payload) < expected:"),
    # the checks that each hold a shape fact alone: nothing downstream repeats them
    ("dataset-row-count-unchecked", "src/acol/datasets.py",
     "if labels is not None and np.shape(labels)", "if False and np.shape(labels)"),
    ("forward-width-unchecked", "src/acol/network.py",
     "if a.shape[1] != model.layers[0].weights.shape[0]:", "if False:"),
    ("checkpoint-last-width-unchecked", "src/acol/network.py",
     "check_layer_sizes(self.layer_sizes, self.head.n)",
     "check_layer_sizes(self.layer_sizes, self.layer_sizes[-1])"),
    ("init-head-width-unchecked", "src/acol/network.py",
     "check_layer_sizes(sizes, head.n)", "check_layer_sizes(sizes, sizes[-1])"),
    ("label-range-admits-0", "src/acol/network.py", "if data.t.min() < 1 or", "if data.t.min() < 0 or"),
    ("score-without-fine-labels", "src/acol/cli.py", "if data.t_star is None:", "if False:"),
    # the numpy calls that replaced one-caller wrappers, and the plain values returned
    ("softmax-row-max-shift-dropped", "src/acol/head.py",
     "e = np.exp(z - z.max(axis=1, keepdims=True))", "e = np.exp(z)"),
    ("checkpoint-finiteness-unchecked", "src/acol/network.py", "if not np.all(np.isfinite(block)):", "if False:"),
    ("forward-rank-unchecked", "src/acol/network.py", "if a.ndim != 2:", "if False:"),
    ("accuracy-of-no-rows-zero", "src/acol/evaluation.py", 'if m else float("nan")', "if m else 0.0"),
    ("accuracy-numpy-scalar", "src/acol/evaluation.py",
     "return float(table[rows, cols].sum()) / m", "return table[rows, cols].sum() / m"),
    ("idx-count-mismatch-unchecked", "src/acol/datasets.py",
     "if pixels.shape[0] != labels.shape[0]:", "if False:"),
    ("train-limit-ignored", "src/acol/cli.py",
     "pixels, fine = pixels[: cfg.train_limit], fine[: cfg.train_limit]", "pass"),
    # the one training step, the zero-pixel check and the shared digit split
    ("step-c-f-unscaled", "src/acol/network.py", "cfg.c_f / len(x))", "cfg.c_f)"),
    ("zero-pixel-images-accepted", "src/acol/cli.py", "if pixels.size == 0:", "if False:"),
    ("interparent-keeps-dropped-digits", "src/acol/datasets.py",
     "replace(threshold_partition(5), exclude=dropped)", "threshold_partition(5)"),
    # the batch's share of the epoch record, the parent check after the split, the IDX byte range
    ("record-sup-loss-unscaled", "src/acol/network.py",
     '"sup_loss": sup_loss * len(x),', '"sup_loss": sup_loss,'),
    ("record-frobenius-scaled", "src/acol/network.py",
     '"frobenius": terms.frobenius_sq,', '"frobenius": terms.frobenius_sq * len(x),'),
    ("record-totals-keep-last-batch", "src/acol/network.py",
     "totals[name] = totals.get(name, 0.0) + value", "totals[name] = value"),
    ("parent-check-counts-all-rows", "src/acol/network.py", "np.bincount(data.t[train_idx],", "np.bincount(data.t,"),
    ("idx-writer-range-unchecked", "src/acol/datasets.py", "if bad.size:", "if False:"),
    # stored pixels made features one batch at a time, and the edge selection of export-graph
    ("features-divide-by-256", "src/acol/datasets.py", "255.0, out=out)", "256.0, out=out)"),
    ("features-uint8-unconverted", "src/acol/datasets.py",
     "            return images_to_features(x, out)\n", "            return x\n"),
    ("features-of-no-rows-unshaped", "src/acol/datasets.py", "math.prod(pixels.shape[1:])", "-1"),
    ("graph-keeps-self-edges", "src/acol/evaluation.py",
     "np.triu(sim > threshold, 1)", "np.triu(sim > threshold, 0)"),
    # a config is checked once, when it is made, and cannot change afterwards
    ("config-checked-only-when-parsed", "src/acol/config.py",
     "def __post_init__(self) -> None:", "def validate(self) -> None:"),
    ("config-mutable", "src/acol/config.py", "@dataclass(frozen=True)", "@dataclass"),
    ("scenarios-mode-checked-after-load", "src/acol/cli.py",
     '    if cfg.scenario_mode == "single":\n'
     '        raise ValueError(f"scenario.mode \'{cfg.scenario_mode}\' is not a sweep mode")\n'
     "    partitions = _scenario_partitions(cfg)\n"
     "    train_pool, test_pool = load_pools(cfg)\n",
     "    partitions = _scenario_partitions(cfg)\n"
     "    train_pool, test_pool = load_pools(cfg)\n"
     '    if cfg.scenario_mode == "single":\n'
     '        raise ValueError(f"scenario.mode \'{cfg.scenario_mode}\' is not a sweep mode")\n'),
    ("fit-init-ignores-seed", "src/acol/cli.py",
     "network.init_model(sizes, head, cfg.seed)", "network.init_model(sizes, head, 0)"),
    # the checkpoint header's rules and the type check of a config built in code
    ("checkpoint-header-k-floor", "src/acol/network.py",
     "check_layer_sizes(self.layer_sizes, self.head.n)",
     "check_layer_sizes(self.layer_sizes, self.n_parents * self.k)"),
    ("config-types-unchecked", "src/acol/config.py",
     "if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in items):", "if False:"),
    # eval and export-graph score under the checkpoint's seed; train_limit binds idx data only
    ("eval-seed-unchecked", "src/acol/cli.py", "if model.rng_seed != cfg.seed:", "if False:"),
    ("train-limit-synthetic-accepted", "src/acol/config.py",
     'if self.train_limit and self.dataset_type == "synthetic":', "if False:"),
    # one model seed per sweep; key-value lines read once; config errors under the file's path
    ("scenarios-seed-per-index", "src/acol/cli.py",
     "model, _ = fit(cfg, train_data)", "model, _ = fit(replace(cfg, seed=cfg.seed + index), train_data)"),
    ("scenarios-kmeans-seed-per-index", "src/acol/cli.py",
     "eval_data.t, cfg.k, cfg.seed, memo)", "eval_data.t, cfg.k, cfg.seed + index, memo)"),
    ("checkpoint-header-extra-line-accepted", "src/acol/config.py",
     "raise ValueError(f\"line {lineno}: unknown key '{key}'\")", "continue"),
    ("config-error-path-dropped", "src/acol/config.py", 'raise ValueError(f"{path}: {e}") from e', "raise"),
    # checkpoint v2: no stored layout, one size is no layer, the header's seed floor and feature scale
    ("checkpoint-one-size-accepted", "src/acol/network.py", "if len(sizes) < 2:", "if False:"),
    ("checkpoint-header-seed-floor", "src/acol/network.py",
     '_key("seed", rule=(">=", 0))', '_key("seed", rule=(">=", -1))'),
    ("checkpoint-header-scale-unchecked", "src/acol/network.py",
     '_key("feature_scale", rule=(">", 0))', '_key("feature_scale")'),
    ("fit-scale-unrecorded", "src/acol/cli.py",
     'feature_scale=cfg.resolved("feature_scale"))', "feature_scale=1.0)"),
    # the model applies its own input scale; one rule for a random partition; parent 2 keeps a digit
    ("forward-scale-dropped", "src/acol/network.py", "if model.feature_scale != 1.0:", "if False:"),
    ("exclusions-empty-parent-accepted", "src/acol/config.py",
     "if set(group) == set(range(5, 10)):", "if False:"),
    ("scenario-random-labels-of-pool", "src/acol/cli.py",
     "    eval_pool = test_pool if test_pool is not None else train_pool\n",
     "    eval_pool = test_pool if test_pool is not None else train_pool\n"
     '    if cfg.scenario_mode == "random-partitions":\n'
     "        labels = sorted(int(v) for v in np.unique(train_pool.fine))\n"
     "        partitions = [datasets.random_partition(cfg.seed + i, labels, cfg.n_parents)\n"
     "                      for i in range(cfg.scenario_count)]\n"),
    # restarts seeded first and iterated in lockstep; one clustering per distinct
    # parent subset in a sweep; only too few rows read as a nan baseline.
    # Equivalent, so not listed: computing the seeding distances to the last
    # center too (`if i + 1 < n_clusters:` -> `if True:`) costs time, but
    # nothing reads them and no draw moves.
    ("kmeans-restarts-share-centers", "src/acol/evaluation.py",
     "[_plus_plus_centers(x, n_clusters, rng, buf) for _ in range(restarts)]",
     "[_plus_plus_centers(x, n_clusters, rng, buf)] * restarts"),
    ("kmeans-lockstep-columns-of-first-restart", "src/acol/evaluation.py",
     "products[:, col * n_clusters:(col + 1) * n_clusters]", "products[:, :n_clusters]"),
    ("kmeans-memo-key-drops-seed", "src/acol/evaluation.py", "key = (seed + i, k, ", "key = (k, "),
    ("scenarios-kmeans-memo-dropped", "src/acol/cli.py",
     "eval_data.t, cfg.k, cfg.seed, memo)", "eval_data.t, cfg.k, cfg.seed)"),
    ("scenarios-kmeans-catches-any-value-error", "src/acol/cli.py",
     "except evaluation.TooFewRowsError:", "except ValueError:"),
    # every artifact reaches disk through datasets.artifact, whole or not at all;
    # each mutant writes one site in place, as the writers did before
    ("summary-written-in-place", "src/acol/cli.py",
     'datasets.artifact(args.out / "summary.txt", "w")', 'open(args.out / "summary.txt", "w")'),
    ("config-txt-written-in-place", "src/acol/cli.py",
     'datasets.artifact(args.out / "config.txt", "w")', 'open(args.out / "config.txt", "w")'),
    ("eval-summary-written-in-place", "src/acol/cli.py",
     'datasets.artifact(args.out / "eval_summary.txt", "w")', 'open(args.out / "eval_summary.txt", "w")'),
    ("csv-written-in-place", "src/acol/evaluation.py",
     'with artifact(path, "w") as f:\n        writer', 'with open(path, "w", newline="") as f:\n        writer'),
    ("graph-written-in-place", "src/acol/evaluation.py",
     'with artifact(path, "w") as f:\n        f.writelines', 'with open(path, "w") as f:\n        f.writelines'),
    ("checkpoint-written-in-place", "src/acol/network.py",
     'datasets.artifact(path, "wb")', 'open(path, "wb")'),
    ("idx-written-in-place", "src/acol/datasets.py",
     'with artifact(path, "wb") as f:', 'with open(path, "wb") as f:'),
    ("artifact-keeps-temporary-on-error", "src/acol/datasets.py",
     "        os.remove(f.name)\n        raise\n", "        raise\n"),
    # each config field declares its choices, bound and per-dataset default; a key is read once
    ("config-choice-unchecked", "src/acol/config.py", 'if op == "in" and value not in bound:', "if False:"),
    ("config-tuple-rule-first-entry-only", "src/acol/config.py",
     'v >= bound for v in items)', 'v >= bound for v in items[:1])'),
    ("idx-feature-scale-auto-shrunk", "src/acol/config.py",
     '{"synthetic": 0.32, "idx": 1.0}', '{"synthetic": 0.32, "idx": 0.32}'),
    ("config-repeated-key-accepted", "src/acol/config.py", "if key in lines:", "if False:"),
    # one reader for config files and checkpoint headers: a required key, a byte-order mark,
    # header errors under the checkpoint's path, line numbers that count only "\n"
    ("header-missing-key-accepted", "src/acol/config.py",
     "if f.default is MISSING and key not in lines:", "if False:"),
    ("config-byte-order-mark-read-as-key", "src/acol/config.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    ("checkpoint-header-error-path-dropped", "src/acol/network.py", 'raise ValueError(f"{path}: {e}") from e', "raise"),
    ("key-value-lines-split-at-form-feed", "src/acol/config.py", 'text.split("\\n")', "text.splitlines()"),
    # the run's layer buffers and the validation pass that walks blocks through them
    ("validation-block-drops-short-tail", "src/acol/network.py",
     "for start in range(0, len(data), block):", "for start in range(0, len(data) - block + 1, block):"),
    ("forward-writes-previous-layer-buffer", "src/acol/network.py",
     "else buffers.outputs[i][: len(a)])", "else buffers.outputs[i - 1][: len(a)])"),
    ("backward-gradient-over-forward-output", "src/acol/network.py",
     "else buffers.d_outputs[i - 1][: len(d_out)])", "else buffers.outputs[i - 1][: len(d_out)])"),
    ("train-trims-before-freeing-validation", "src/acol/network.py",
     "    del val_data, buffers, grads, x, velocity\n", ""),
    ("train-trims-before-freeing-gradients", "src/acol/network.py",
     "del val_data, buffers, grads, x, velocity", "del val_data, buffers, x, velocity"),
    # the one evaluation pass and the head's rules
    ("evaluation-last-block-unpadded", "src/acol/network.py",
     "forward(model, x, buffers)[-1][:rows]", "forward(model, x[:rows], buffers)[-1]"),
    ("head-k-floor-0", "src/acol/head.py", '_key("k", rule=(">=", 1))', '_key("k", rule=(">=", 0))'),
    # a run that allocates once: the input, gradient and snapshot buffers, stored
    # validation rows, and k-means on one parent's converted rows at a time.
    # Equivalent, so not listed: k-means on a parent's unscaled pixels
    # (`data.features(idx)` -> `data.X[idx]`) gives the same labels, since
    # scaling every feature by 255 moves only rounding in k-means.
    ("features-out-unscaled", "src/acol/datasets.py",
     "            return images_to_features(x, out)\n",
     "            return images_to_features(x) if out is None else np.add(x, 0.0, out=out)\n"),
    ("features-out-float-unwritten", "src/acol/datasets.py", "        np.copyto(out, x)\n", ""),
    ("evaluation-tail-not-zeroed", "src/acol/network.py", "        x[rows:] = 0.0\n", ""),
    ("train-batch-outside-input-buffer", "src/acol/network.py",
     "x = data.features(idx, buffers.x)", "x = data.features(idx)"),
    ("backward-gradients-unbuffered", "src/acol/network.py",
     "if buffers is None else buffers.grads", "if True else buffers.grads"),
    ("snapshot-aliases-stepped-layers", "src/acol/network.py",
     "best_layers = [DenseLayer(l.weights.copy(), l.bias.copy()) for l in model.layers]",
     "best_layers = model.layers"),
    ("snapshot-weights-not-refreshed", "src/acol/network.py",
     "                np.copyto(best.weights, layer.weights)\n", ""),
    ("train-validation-rows-converted-up-front", "src/acol/network.py",
     "LabeledDataset(X=data.X[val_idx], t=data.t[val_idx])",
     "LabeledDataset(X=data.features(val_idx), t=data.t[val_idx])"),
    ("kmeans-converts-the-whole-pool", "src/acol/evaluation.py",
     "LabeledDataset(X=np.asarray(x), t=np.asarray(t))",
     "LabeledDataset(X=np.asarray(x, dtype=np.float64), t=np.asarray(t))"),
    ("kmeans-row-norms-outside-scratch", "src/acol/evaluation.py",
     "np.sum(np.multiply(x, x, out=buf), axis=1)", "np.sum(x * x, axis=1)"),
)


def tier1_files(rel: str) -> list[str]:
    """Tier-1's test files (``testpaths`` of ``pyproject.toml``) less this
    module's test, in the order a mutant of ``rel`` runs them: the mutated
    module's own test file, the golden digests, the rest, and the acceptance
    gate last. The order only decides how soon a failure is found."""
    stem = Path(rel).stem
    own = "tests/test_config_cli.py" if stem in ("cli", "config") else f"tests/test_{stem}.py"
    first = [f for f in (own, "tests/test_golden_digests.py") if (ROOT / f).exists()]
    last = ["tests/test_acceptance.py"]
    found = sorted(
        p.relative_to(ROOT).as_posix() for d in ("tests", "bench") for p in (ROOT / d).glob("test_*.py")
    )
    return first + [f for f in found if f not in first + last + ["tests/test_mutants.py"]] + last


def applies(rel: str, old: str) -> bool:
    """True when ``old`` occurs exactly once in ``rel`` under the repository root."""
    return (ROOT / rel).read_text().count(old) == 1


def run(name: str, rel: str, old: str, new: str) -> str:
    """``killed``, ``survived`` or ``stale`` (old text not found exactly once)."""
    if not applies(rel, old):
        return "stale"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        path = copy / rel
        path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        # test_mutants checks each old text in the copy, where the mutant has replaced it
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", "--ignore=tests/test_mutants.py", *tier1_files(rel)]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a hang is a failure
        return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    if args.list:
        print("\n".join(known))
        return 0
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    if run("control", "pyproject.toml", "[project]", "[project]") != "survived":
        print("tier-1 fails on the unmutated copy; no mutant was run")
        return 2
    failed = False
    for name in args.names or list(known):
        start = time.monotonic()
        outcome = run(*known[name])
        failed |= outcome != "killed"
        print(f"{outcome:8} {name} ({time.monotonic() - start:.0f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

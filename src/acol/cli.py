"""Experiment runner tying the stack together.

Subcommands:
    train         train one model, write checkpoint + metrics + embeddings + summary
    eval          load a checkpoint and score a dataset
    scenarios     partition sweeps (random-partitions | inter-parent) with a
                  per-parent k-means baseline on the identical subsets
    baseline      per-parent k-means only
    export-graph  similarity edge list of a trained model's activities

Every run is driven by a config file (see ``acol.config``); ``--seed`` and
``--out`` override the config. Each subcommand prints a one-line
machine-parsable ``key=value`` summary to stdout unless ``--quiet``.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets, evaluation, network
from .config import ExperimentConfig, load_config, save_config
from .datasets import FinePool, pool_to_dataset
from .head import AcolHead, assign_annotations, head_forward, node_to_parent_sub
from .linalg import relu

# Test-noise stream for synthetic data; keeps test blobs disjoint from
# training blobs while sharing the same (deterministic) centers.
TEST_SEED_OFFSET = 1009


def _synthetic_pool(cfg: ExperimentConfig, per_cluster: int, seed: int) -> FinePool:
    data = datasets.synthetic_blobs(
        cfg.n_parents, cfg.k, per_cluster, cfg.dim, cfg.separation, seed
    )
    return FinePool(X=data.X, fine=data.t_star)


def has_test_pool(cfg: ExperimentConfig) -> bool:
    """Synthetic runs always draw a test pool; idx runs need a test IDX pair."""
    return cfg.dataset_type == "synthetic" or bool(cfg.test_images and cfg.test_labels)


def load_pool(cfg: ExperimentConfig, test: bool) -> FinePool:
    """The train or the test pool of fine-labeled examples.

    Features are multiplied by the configured feature scale, so training,
    evaluation, and baselines all see the same preprocessing, and are then
    marked read-only: datasets built from the pool may share them.
    """
    if cfg.dataset_type == "synthetic":
        if test:
            pool = _synthetic_pool(cfg, cfg.test_per_cluster, cfg.seed + TEST_SEED_OFFSET)
        else:
            pool = _synthetic_pool(cfg, cfg.per_cluster, cfg.seed)
    else:
        if test:
            raw = datasets.load_idx(cfg.test_images, cfg.test_labels)
        else:
            raw = datasets.load_idx(cfg.images, cfg.labels)
            if cfg.train_limit > 0:
                raw = datasets.RawDigits(raw.pixels[: cfg.train_limit], raw.labels[: cfg.train_limit])
        pool = FinePool(X=datasets.images_to_features(raw.pixels), fine=raw.labels)
    scale = cfg.resolved_feature_scale()
    if scale != 1.0:
        pool = FinePool(X=pool.X * scale, fine=pool.fine)
    pool.X.flags.writeable = False
    return pool


def load_pools(cfg: ExperimentConfig):
    """(train, test) pools, see ``load_pool``; test is None without a test pair."""
    train = load_pool(cfg, test=False)
    return train, load_pool(cfg, test=True) if has_test_pool(cfg) else None


def default_partition(cfg: ExperimentConfig) -> datasets.ParentPartition:
    """Partition for single-mode runs on fine-labeled pools."""
    if cfg.dataset_type == "synthetic":
        clusters = np.arange(1, cfg.n_parents * cfg.k + 1)
        parents, _ = node_to_parent_sub(clusters, cfg.n_parents)
        return datasets.ParentPartition(mapping=dict(zip(clusters.tolist(), parents.tolist())))
    if cfg.partition_type == "threshold":
        return datasets.threshold_partition(cfg.partition_threshold)
    return datasets.random_partition(cfg.seed, n_parents=cfg.n_parents)


def fit(cfg: ExperimentConfig, data: datasets.LabeledDataset, seed: int):
    """Train a fresh model on ``data`` with the config's head, layers and SGD
    settings; returns ``network.train``'s ``(model, report)``.

    ``seed`` drives the initialization, the validation split and the batch
    order.
    """
    head = AcolHead(cfg.n_parents, cfg.k)
    sizes = [data.X.shape[1], *cfg.resolved_hidden(), head.n]
    return network.train(network.init_model(sizes, head, seed), data, replace(cfg, seed=seed))


def score(model: network.Model, data: datasets.LabeledDataset) -> dict:
    """Annotations plus metrics of a frozen model on one dataset."""
    z = network.forward(model, data.X)[-1]
    annotations = assign_annotations(z, model.head)
    nodes = annotations[0]
    _, parent_probs = head_forward(z, model.head)
    result = {
        "m": len(data),
        "parent_acc": evaluation.parent_accuracy(parent_probs, data.t),
        "z": z,
        "annotations": annotations,
        "nodes": nodes,
    }
    if data.t_star is not None:
        result["acc"] = evaluation.clustering_accuracy(nodes, data.t_star).accuracy
        first = data.t == 1
        if first.any():
            result["first_parent_acc"] = evaluation.clustering_accuracy(
                nodes[first], data.t_star[first]
            ).accuracy
    return result


def write_metrics_csv(report: network.TrainReport, path) -> None:
    """One row per epoch; floats via repr so reruns are byte-identical."""
    with open(str(path), "w") as f:
        f.write("epoch,sup_loss,affinity,balance,frobenius,train_parent_acc,val_parent_acc\n")
        for r in report.records:
            f.write(
                f"{r.epoch},{r.sup_loss!r},{r.affinity!r},{r.balance!r},"
                f"{r.frobenius!r},{r.train_parent_acc!r},{r.val_parent_acc!r}\n"
            )


def _write_summary(path, entries: dict) -> None:
    with open(str(path), "w") as f:
        for key, value in entries.items():
            f.write(f"{key} = {value}\n")


def _summary_line(command: str, entries: dict) -> str:
    parts = [command]
    for key, value in entries.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6f}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def run_train(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> dict:
    """Train one model and persist checkpoint, metrics, embeddings, summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_pool, test_pool = load_pools(cfg)
    partition = default_partition(cfg)
    train_data = pool_to_dataset(train_pool, partition)
    eval_data = pool_to_dataset(test_pool, partition) if test_pool is not None else train_data

    model, report = fit(cfg, train_data, cfg.seed)
    network.save_checkpoint(model, out / "model.ckpt", epoch=report.selected_epoch)
    write_metrics_csv(report, out / "metrics.csv")

    result = score(model, eval_data)
    evaluation.export_embeddings(
        result["z"], result["annotations"], eval_data.t_star, out / "embeddings.csv"
    )
    summary = {
        "dataset": cfg.dataset_type,
        "partition": partition.describe(),
        "m_train": len(train_data),
        "m_eval": result["m"],
        "eval_on": "test" if test_pool is not None else "train",
        "selected_epoch": report.selected_epoch,
        "parent_acc": result["parent_acc"],
    }
    if "acc" in result:
        summary["acc"] = result["acc"]
    _write_summary(out / "summary.txt", summary)
    save_config(cfg, out / "config.txt")
    if not quiet:
        print(_summary_line("train", {k: v for k, v in summary.items() if k != "partition"}))
    return summary


def _eval_inputs(cfg: ExperimentConfig, checkpoint_path):
    """Shared setup of eval, baseline and export-graph: ``(model, epoch, data)``.

    The checkpoint is loaded when a path is given (model and epoch are None
    otherwise) and must match the configured head. ``data`` is the test pool,
    or the train pool when no test pool is configured, under
    ``default_partition``; the other pool is never read.
    """
    model = epoch = None
    if checkpoint_path is not None:
        model, epoch = network.load_checkpoint(checkpoint_path)
        if (model.head.n_parents, model.head.k) != (cfg.n_parents, cfg.k):
            raise ValueError(
                f"checkpoint head (n_p={model.head.n_parents}, k={model.head.k}) does not match "
                f"config (n_p={cfg.n_parents}, k={cfg.k})"
            )
    pool = load_pool(cfg, test=has_test_pool(cfg))
    return model, epoch, pool_to_dataset(pool, default_partition(cfg))


def run_eval(cfg: ExperimentConfig, checkpoint_path, out_dir=None, quiet: bool = False) -> dict:
    """Score a saved checkpoint on the configured dataset."""
    model, epoch, data = _eval_inputs(cfg, checkpoint_path)
    result = score(model, data)
    summary = {"checkpoint_epoch": epoch, "m": result["m"], "parent_acc": result["parent_acc"]}
    if "acc" in result:
        summary["acc"] = result["acc"]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(out / "eval_summary.txt", summary)
    if not quiet:
        print(_summary_line("eval", summary))
    return summary


def _scenario_partitions(cfg: ExperimentConfig, fine_labels) -> list[datasets.ParentPartition]:
    if cfg.scenario_mode == "random-partitions":
        return [
            datasets.random_partition(cfg.seed + i, fine_labels=fine_labels, n_parents=cfg.n_parents)
            for i in range(cfg.scenario_count)
        ]
    if cfg.scenario_mode == "inter-parent":
        return [datasets.interparent_partition(group) for group in cfg.exclusion_groups()]
    raise ValueError(f"scenario.mode '{cfg.scenario_mode}' is not a sweep mode")


def run_scenarios(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> list[dict]:
    """Partition sweep; each scenario trains afresh with seed base+index.

    The k-means baseline clusters the identical test subset that the model
    is scored on, pre-divided by the same parent labels.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_pool, test_pool = load_pools(cfg)
    eval_pool = test_pool if test_pool is not None else train_pool
    partitions = _scenario_partitions(cfg, sorted(int(v) for v in np.unique(train_pool.fine)))

    rows = []
    for index, partition in enumerate(partitions):
        seed = cfg.seed + index
        train_data = pool_to_dataset(train_pool, partition)
        eval_data = pool_to_dataset(eval_pool, partition)
        model, _ = fit(cfg, train_data, seed)
        result = score(model, eval_data)
        baseline_nodes = evaluation.kmeans_per_parent(eval_data.X, eval_data.t, cfg.k, seed=seed)
        kmeans_acc = evaluation.clustering_accuracy(baseline_nodes, eval_data.t_star).accuracy
        row = {
            "scenario": index,
            "description": partition.describe(),
            "m_train": len(train_data),
            "m_eval": len(eval_data),
            "parent_acc": result["parent_acc"],
            "acc": result["acc"],
            "first_parent_acc": result.get("first_parent_acc", float("nan")),
            "kmeans_acc": kmeans_acc,
        }
        rows.append(row)
        if not quiet:
            print(_summary_line("scenario", row))

    accs = np.array([r["acc"] for r in rows])
    base = np.array([r["kmeans_acc"] for r in rows])
    aggregate = {
        "worst": (float(accs.min()), float(base.min())),
        "median": (float(np.median(accs)), float(np.median(base))),
        "best": (float(accs.max()), float(base.max())),
        "mean": (float(accs.mean()), float(base.mean())),
    }

    columns = [
        "scenario", "description", "m_train", "m_eval",
        "parent_acc", "acc", "first_parent_acc", "kmeans_acc",
    ]
    # csv quotes the description, which holds commas; floats are written via repr
    with open(out / "scenarios.csv", "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        for name, (acc, kacc) in aggregate.items():
            writer.writerow([name, "aggregate", "", "", "", acc, "", kacc])

    if not quiet:
        print(
            _summary_line(
                "scenarios",
                {
                    "mode": cfg.scenario_mode,
                    "count": len(rows),
                    "acc_mean": float(accs.mean()),
                    "kmeans_mean": float(base.mean()),
                },
            )
        )
    return rows


def run_baseline(cfg: ExperimentConfig, quiet: bool = False) -> dict:
    """Per-parent k-means on the configured dataset, no model involved."""
    _, _, data = _eval_inputs(cfg, None)
    nodes = evaluation.kmeans_per_parent(data.X, data.t, cfg.k, seed=cfg.seed)
    acc = evaluation.clustering_accuracy(nodes, data.t_star).accuracy
    summary = {"m": len(data), "k": cfg.k, "acc": acc}
    if not quiet:
        print(_summary_line("baseline", summary))
    return summary


def run_export_graph(
    cfg: ExperimentConfig,
    checkpoint_path,
    out_dir,
    source: str = "activities",
    threshold: float = 0.0,
    limit: int = 250,
    quiet: bool = False,
) -> dict:
    """Edge list of the similarity graph on the first ``limit`` eval rows."""
    if limit < 1:
        raise ValueError(f"--limit must be >= 1, got {limit}")
    if not np.isfinite(threshold):
        raise ValueError(f"--threshold must be finite, got {threshold}")
    model, _, data = _eval_inputs(cfg, checkpoint_path)
    take = min(limit, len(data))
    z = network.forward(model, data.X[:take])[-1]
    rows = relu(z) if source == "activities" else head_forward(z, model.head)[1]
    truth = data.t_star[:take] if data.t_star is not None else data.t[:take]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "graph.edges"
    evaluation.export_graph(rows, threshold, path, truth=truth)
    summary = {"rows": take, "source": source, "threshold": threshold, "path": str(path)}
    if not quiet:
        print(_summary_line("export-graph", summary))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")

    common(sub.add_parser("train", help="train a model and write artifacts"))
    p_eval = sub.add_parser("eval", help="score a checkpoint on the configured dataset")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    common(sub.add_parser("scenarios", help="run the configured partition sweep"))
    common(sub.add_parser("baseline", help="per-parent k-means baseline"))
    p_graph = sub.add_parser("export-graph", help="write a similarity edge list")
    common(p_graph)
    p_graph.add_argument("--checkpoint", required=True)
    p_graph.add_argument("--source", choices=["activities", "parents"], default="activities")
    p_graph.add_argument("--threshold", type=float, default=0.0)
    p_graph.add_argument("--limit", type=int, default=250)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            cfg.validate()
        out = args.out if args.out is not None else cfg.output_dir
        if args.command == "train":
            run_train(cfg, out, quiet=args.quiet)
        elif args.command == "eval":
            run_eval(cfg, args.checkpoint, out_dir=out, quiet=args.quiet)
        elif args.command == "scenarios":
            run_scenarios(cfg, out, quiet=args.quiet)
        elif args.command == "baseline":
            run_baseline(cfg, quiet=args.quiet)
        elif args.command == "export-graph":
            run_export_graph(
                cfg,
                args.checkpoint,
                out,
                source=args.source,
                threshold=args.threshold,
                limit=args.limit,
                quiet=args.quiet,
            )
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner tying the stack together.

Subcommands:
    train         train one model, write checkpoint + metrics + embeddings + summary
    eval          load a checkpoint and score a dataset
    scenarios     partition sweeps (random-partitions | inter-parent) with a
                  per-parent k-means baseline on the identical subsets
    baseline      per-parent k-means only
    export-graph  similarity edge list of a trained model's activities

Every run is driven by a config file (see ``acol.config``); ``--seed`` and
``--out`` override the config. Each subcommand returns its summary, and
``main`` prints it to stdout as one machine-parsable ``<command> key=value``
line unless ``--quiet``.
"""

import argparse
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import datasets, evaluation, network
from .config import ExperimentConfig, format_key_values, load_config, serialize_config
from .datasets import FinePool, pool_to_dataset
from .head import AcolHead, assign_annotations, head_forward, node_to_parent_sub

# Test-noise stream for synthetic data; keeps test blobs disjoint from
# training blobs while sharing the same (deterministic) centers.
TEST_SEED_OFFSET = 1009


def load_pool(cfg: ExperimentConfig, test: bool) -> FinePool | None:
    """The train or the test pool of fine-labeled examples; the test pool of
    an idx config without a test pair is None.

    Synthetic pools keep their blobs, fine-labeled by cluster id; an IDX pool
    keeps its uint8 pixels as read, one row per image, and a pair with no rows
    or no pixels is rejected. ``X`` is read-only: datasets may share it.
    """
    if cfg.dataset_type == "synthetic":
        per_cluster = cfg.test_per_cluster if test else cfg.per_cluster
        seed = cfg.seed + TEST_SEED_OFFSET if test else cfg.seed
        pool = datasets.synthetic_blobs(cfg.n_parents * cfg.k, per_cluster, cfg.dim, cfg.separation, seed)
    else:
        images, labels = (cfg.test_images, cfg.test_labels) if test else (cfg.images, cfg.labels)
        if not (images and labels):
            return None
        pixels, fine = datasets.load_idx(images, labels)
        if len(fine) == 0:
            raise ValueError(f"{images}: the IDX pair has no rows")
        if pixels.size == 0:
            raise ValueError(f"{images}: the images have no pixels")
        if not test and cfg.train_limit > 0:
            pixels, fine = pixels[: cfg.train_limit], fine[: cfg.train_limit]
        pool = FinePool(X=pixels.reshape(len(pixels), -1), fine=fine)
    pool.X.flags.writeable = False
    return pool


def load_pools(cfg: ExperimentConfig):
    """(train, test) pools, see ``load_pool``; test is None without a test pair.

    A test pool whose feature width differs from the training pool's is
    rejected here, before anything is trained.
    """
    train, test = load_pool(cfg, test=False), load_pool(cfg, test=True)
    if test is not None and test.X.shape[1] != train.X.shape[1]:
        raise ValueError(
            f"test images {cfg.test_images} have {test.X.shape[1]} features per row, "
            f"training images {cfg.images} have {train.X.shape[1]}"
        )
    return train, test


def default_partition(cfg: ExperimentConfig) -> datasets.ParentPartition:
    """Partition for single-mode runs on fine-labeled pools."""
    if cfg.dataset_type == "synthetic":
        clusters = np.arange(1, cfg.n_parents * cfg.k + 1)
        parents, _ = node_to_parent_sub(clusters, cfg.n_parents)
        return datasets.ParentPartition(mapping=dict(zip(clusters.tolist(), parents.tolist())))
    if cfg.partition_type == "threshold":
        return datasets.threshold_partition(cfg.partition_threshold)
    return datasets.random_partition(cfg.seed, n_parents=cfg.n_parents)


def fit(cfg: ExperimentConfig, data: datasets.LabeledDataset):
    """Train a fresh model on ``data`` with the config's head, layers and SGD
    settings; returns ``network.train``'s ``(model, report)``. ``cfg.seed``
    drives the initialization, the validation split and the batch order."""
    head = AcolHead(cfg.n_parents, cfg.k)
    sizes = [data.X.shape[1], *cfg.resolved("hidden"), head.n]
    model = replace(network.init_model(sizes, head, cfg.seed), feature_scale=cfg.resolved("feature_scale"))
    return network.train(model, data, cfg)


def score(model: network.Model, data: datasets.LabeledDataset) -> dict:
    """Annotations plus metrics of a frozen model on one dataset, which must
    carry its fine labels ``t_star``."""
    if data.t_star is None:
        raise ValueError("score needs the fine labels t_star of the dataset")
    z = network.forward_rows(model, data)
    annotations = assign_annotations(z, model.head)
    nodes = annotations[0]
    _, parent_probs = head_forward(z, model.head)
    result = {
        "parent_acc": evaluation.parent_accuracy(parent_probs, data.t),
        "acc": evaluation.clustering_accuracy(nodes, data.t_star),
        "z": z,
        "annotations": annotations,
    }
    first = data.t == 1
    result["first_parent_acc"] = evaluation.clustering_accuracy(nodes[first], data.t_star[first])
    return result


def _summary_line(command: str, entries: dict) -> str:
    parts = [command]
    for key, value in entries.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6f}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def run_train(cfg: ExperimentConfig, args) -> dict:
    """Train one model and persist checkpoint, metrics, embeddings, summary."""
    train_pool, test_pool = load_pools(cfg)
    partition = default_partition(cfg)
    train_data = pool_to_dataset(train_pool, partition)
    eval_data = pool_to_dataset(test_pool, partition) if test_pool is not None else train_data

    model, report = fit(cfg, train_data)
    network.save_checkpoint(model, args.out / "model.ckpt", epoch=report.selected_epoch)
    names = [f.name for f in fields(network.EpochRecord)]
    evaluation.write_csv(args.out / "metrics.csv", names, map(astuple, report.records))

    result = score(model, eval_data)
    evaluation.export_embeddings(
        result["z"], result["annotations"], eval_data.t_star, args.out / "embeddings.csv"
    )
    summary = {
        "dataset": cfg.dataset_type,
        "partition": partition.describe(),
        "m_train": len(train_data),
        "m_eval": len(eval_data),
        "eval_on": "test" if test_pool is not None else "train",
        "selected_epoch": report.selected_epoch,
        "parent_acc": result["parent_acc"],
        "acc": result["acc"],
    }
    with datasets.artifact(args.out / "summary.txt", "w") as f:
        f.write(format_key_values(summary))
    with datasets.artifact(args.out / "config.txt", "w") as f:
        f.write(serialize_config(cfg))
    del summary["partition"]  # summary.txt only
    return summary


def _eval_inputs(cfg: ExperimentConfig, checkpoint_path):
    """Shared setup of eval, baseline and export-graph: ``(model, epoch, data)``.

    The checkpoint is loaded when a path is given (model and epoch are None
    otherwise) and must match the configured head, seed and data width; the
    model applies its own feature scale.
    ``data`` is the test pool, or the train pool when no test pool is
    configured, under ``default_partition``; the other pool is never read.
    """
    model = epoch = None
    if checkpoint_path is not None:
        model, epoch = network.load_checkpoint(checkpoint_path)
        if (model.head.n_parents, model.head.k) != (cfg.n_parents, cfg.k):
            raise ValueError(
                f"{checkpoint_path}: checkpoint head (n_p={model.head.n_parents}, k={model.head.k}) "
                f"does not match config (n_p={cfg.n_parents}, k={cfg.k})"
            )
        if model.rng_seed != cfg.seed:
            raise ValueError(
                f"{checkpoint_path}: trained with seed {model.rng_seed}, but the config's seed is "
                f"{cfg.seed}; pass --seed {model.rng_seed}"
            )
    pool = load_pool(cfg, test=True) or load_pool(cfg, test=False)
    if model is not None and model.layer_sizes[0] != pool.X.shape[1]:
        raise ValueError(
            f"{checkpoint_path}: first layer expects {model.layer_sizes[0]} features, "
            f"the data has {pool.X.shape[1]}"
        )
    return model, epoch, pool_to_dataset(pool, default_partition(cfg))


def run_eval(cfg: ExperimentConfig, args) -> dict:
    """Score a saved checkpoint on the configured dataset."""
    model, epoch, data = _eval_inputs(cfg, args.checkpoint)
    result = score(model, data)
    summary = {
        "checkpoint_epoch": epoch,
        "m": len(data),
        "parent_acc": result["parent_acc"],
        "acc": result["acc"],
    }
    with datasets.artifact(args.out / "eval_summary.txt", "w") as f:
        f.write(format_key_values(summary))
    return summary


def _scenario_partitions(cfg: ExperimentConfig) -> list[datasets.ParentPartition]:
    if cfg.scenario_mode == "random-partitions":
        labels = sorted(default_partition(cfg).mapping)  # digits 0-9, or the synthetic cluster ids
        return [datasets.random_partition(cfg.seed + i, labels, cfg.n_parents) for i in range(cfg.scenario_count)]
    return [datasets.interparent_partition(group) for group in cfg.exclusion_groups()]


def run_scenarios(cfg: ExperimentConfig, args) -> dict:
    """Partition sweep; each scenario trains afresh with the run's seed.

    The k-means baseline clusters the identical test subset that the model
    is scored on, pre-divided by the same parent labels, with the same seed.
    """
    if cfg.scenario_mode == "single":
        raise ValueError(f"scenario.mode '{cfg.scenario_mode}' is not a sweep mode")
    partitions = _scenario_partitions(cfg)
    train_pool, test_pool = load_pools(cfg)
    eval_pool = test_pool if test_pool is not None else train_pool

    rows, memo = [], {}  # the memo clusters each distinct parent subset once per sweep
    for index, partition in enumerate(partitions):
        train_data = pool_to_dataset(train_pool, partition)
        eval_data = pool_to_dataset(eval_pool, partition)
        model, _ = fit(cfg, train_data)
        result = score(model, eval_data)
        try:
            nodes = evaluation.kmeans_per_parent(eval_data.X, eval_data.t, cfg.k, cfg.seed, memo)
        except evaluation.TooFewRowsError:  # no baseline, as with no rows
            kmeans_acc = float("nan")
        else:
            kmeans_acc = evaluation.clustering_accuracy(nodes, eval_data.t_star)
        row = {
            "scenario": index,
            "description": partition.describe(),
            "m_train": len(train_data),
            "m_eval": len(eval_data),
            "parent_acc": result["parent_acc"],
            "acc": result["acc"],
            "first_parent_acc": result["first_parent_acc"],
            "kmeans_acc": kmeans_acc,
        }
        rows.append(row)
        if not args.quiet:
            print(_summary_line("scenario", row))

    # each aggregate row reduces a column over the scenarios that scored a
    # number, and reads nan where none did; stdout takes the last, the mean
    columns = [np.array([r[key] for r in rows]) for key in ("acc", "kmeans_acc")]
    columns = [c[~np.isnan(c)] for c in columns]
    header, table = list(rows[0]), list(rows)
    for name, reduce in (("worst", np.min), ("median", np.median), ("best", np.max), ("mean", np.mean)):
        acc, kacc = (float(reduce(c)) if c.size else float("nan") for c in columns)
        table.append({"scenario": name, "description": "aggregate", "acc": acc, "kmeans_acc": kacc})
    evaluation.write_csv(args.out / "scenarios.csv", header, ([r.get(k, "") for k in header] for r in table))
    return {"mode": cfg.scenario_mode, "count": len(rows), "acc_mean": acc, "kmeans_mean": kacc}


def run_baseline(cfg: ExperimentConfig, args) -> dict:
    """Per-parent k-means on the configured dataset, no model involved."""
    _, _, data = _eval_inputs(cfg, None)
    nodes = evaluation.kmeans_per_parent(data.X, data.t, cfg.k, seed=cfg.seed)
    acc = evaluation.clustering_accuracy(nodes, data.t_star)
    return {"m": len(data), "k": cfg.k, "acc": acc}


def run_export_graph(cfg: ExperimentConfig, args) -> dict:
    """Edge list of the similarity graph on the first ``--limit`` eval rows."""
    if args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    if not np.isfinite(args.threshold):
        raise ValueError(f"--threshold must be finite, got {args.threshold}")
    model, _, data = _eval_inputs(cfg, args.checkpoint)
    take = min(args.limit, len(data))
    z = network.forward_rows(model, datasets.LabeledDataset(X=data.X[:take], t=data.t[:take]))
    rows = np.maximum(0.0, z) if args.source == "activities" else head_forward(z, model.head)[1]
    path = args.out / "graph.edges"
    evaluation.export_graph(rows, args.threshold, path, truth=data.t_star[:take])
    return {"rows": take, "source": args.source, "threshold": args.threshold, "path": str(path)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        return p

    command("train", run_train, "train a model and write artifacts")
    p_eval = command("eval", run_eval, "score a checkpoint on the configured dataset")
    p_eval.add_argument("--checkpoint", required=True)
    command("scenarios", run_scenarios, "run the configured partition sweep")
    command("baseline", run_baseline, "per-parent k-means baseline")
    p_graph = command("export-graph", run_export_graph, "write a similarity edge list")
    p_graph.add_argument("--checkpoint", required=True)
    p_graph.add_argument("--source", choices=["activities", "parents"], default="activities")
    p_graph.add_argument("--threshold", type=float, default=0.0)
    p_graph.add_argument("--limit", type=int, default=250)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        cfg = config if args.seed is None else replace(config, seed=args.seed)
        args.out = Path(cfg.output_dir if args.out is None else args.out)
        summary = args.run(cfg, args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(_summary_line(args.command, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Clustering metrics, the k-means baseline, and graph/embedding exports.

Unsupervised clustering accuracy is the best fraction of examples whose
assigned cluster maps onto their true label under a one-to-one mapping,
computed as a maximum-weight matching on the cluster/label contingency
table. When there are more clusters than labels, unmatched clusters
contribute nothing.
"""

from dataclasses import dataclass

import numpy as np

from .regularizers import check_activities


@dataclass
class ClusterMapping:
    """Optimal one-to-one cluster-to-label mapping and its accuracy."""

    mapping: dict[int, int]   # matched cluster id -> true label
    unmatched: list[int]      # cluster ids left without a label
    accuracy: float


def clustering_accuracy(assignments, truth) -> ClusterMapping:
    """Best one-to-one accuracy between cluster assignments and true labels.

    Works on arbitrary (hashable-as-int) label values and allows more
    clusters than labels. The matching maximizes the total count on the
    contingency table, which equals an exhaustive search over injective
    mappings.
    """
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    if assignments.shape != truth.shape or assignments.ndim != 1:
        raise ValueError(
            f"assignments and truth must be equal-length vectors, got {assignments.shape} vs {truth.shape}"
        )
    m = assignments.shape[0]
    clusters, a_idx = np.unique(assignments, return_inverse=True)
    labels, t_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((len(clusters), len(labels)), dtype=np.int64)
    np.add.at(table, (a_idx, t_idx), 1)
    rows, cols = _max_weight_matching(table)
    mapping = {int(clusters[r]): int(labels[c]) for r, c in zip(rows, cols)}
    unmatched = [int(c) for c in clusters if int(c) not in mapping]
    accuracy = float(table[rows, cols].sum()) / m
    return ClusterMapping(mapping=mapping, unmatched=unmatched, accuracy=accuracy)


def _max_weight_matching(table: np.ndarray):
    """Maximum-weight one-to-one matching of a table's rows and columns.

    Hungarian method by shortest augmenting paths with row/column
    potentials, on the negated table so that the minimum-cost matching is
    the maximum-weight one. A tall table is solved transposed, so every row
    of the solved table is matched. Returns ``(rows, cols)`` index arrays
    sorted by row. Small integer tables stay exact in float64.
    """
    transposed = table.shape[0] > table.shape[1]
    cost = -np.asarray(table.T if transposed else table, dtype=np.float64)
    n, m = cost.shape
    # 1-based: column 0 is the virtual start of each search; row 0 means free
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            closer = ~used[1:] & (reduced < minv[1:])
            minv[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            j1 = 1 + int(np.argmin(np.where(used[1:], np.inf, minv[1:])))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.nonzero(row_of[1:])[0]
    rows = row_of[1:][cols] - 1
    if transposed:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]


def parent_hits(parent_probs, t) -> int:
    """Number of rows whose argmax parent (ties to lowest index) equals t."""
    parent_probs = np.asarray(parent_probs, dtype=np.float64)
    t = np.asarray(t)
    if parent_probs.ndim != 2 or parent_probs.shape[0] != t.shape[0]:
        raise ValueError(
            f"probability rows {parent_probs.shape} do not match {t.shape[0]} labels"
        )
    return int(np.count_nonzero(np.argmax(parent_probs, axis=1) + 1 == t))


def parent_accuracy(parent_probs, t) -> float:
    """Fraction of rows whose argmax parent (ties to lowest index) equals t;
    NaN for no rows."""
    hits = parent_hits(parent_probs, t)
    return hits / len(t) if len(t) else float("nan")


def _sq_dist_to(x: np.ndarray, center: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Row-wise squared distance of ``x`` to one center, computed in ``buf``."""
    np.subtract(x, center, out=buf)
    np.square(buf, out=buf)
    return np.sum(buf, axis=1)


def _within_ss(x: np.ndarray, centers: np.ndarray, labels: np.ndarray, buf: np.ndarray) -> float:
    """Sum of squared distances of ``x`` to its assigned centers, in ``buf``."""
    # labels index centers by construction; "clip" skips the copy that the
    # default mode makes of ``out`` to keep it intact on a bad index
    np.take(centers, labels, axis=0, out=buf, mode="clip")
    np.subtract(x, buf, out=buf)
    np.square(buf, out=buf)
    return float(np.sum(buf))


def _plus_plus_centers(x: np.ndarray, n_clusters: int, rng, buf: np.ndarray) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center.

    ``buf`` is scratch space shaped like ``x``.
    """
    m = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    dist_sq = _sq_dist_to(x, centers[0], buf)
    for i in range(1, n_clusters):
        total = dist_sq.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(m)]
            continue
        centers[i] = x[rng.choice(m, p=dist_sq / total)]
        dist_sq = np.minimum(dist_sq, _sq_dist_to(x, centers[i], buf))
    return centers


def kmeans(x, n_clusters: int, seed: int = 0, max_iter: int = 100, restarts: int = 10):
    """Lloyd's algorithm with k-means++ seeding; best of ``restarts`` by WSS.

    Deterministic for a fixed seed, whatever the memory layout of ``x``.
    Returns 1-based assignments.
    """
    # C order fixes the reduction order of every row and total sum below
    x = np.ascontiguousarray(x, dtype=np.float64)
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"cannot form {n_clusters} clusters from {m} points")
    rng = np.random.default_rng(seed)
    # the row norms and one m x d scratch buffer serve every restart and
    # iteration; each in-place step rounds exactly as the expression it replaces
    x_sq = np.sum(x * x, axis=1)[:, None]
    buf = np.empty_like(x)
    best_labels, best_wss = None, np.inf
    for _ in range(restarts):
        centers = _plus_plus_centers(x, n_clusters, rng, buf)
        labels = None
        for _ in range(max_iter):
            dist_sq = (
                x_sq
                - 2.0 * (x @ centers.T)
                + np.sum(centers * centers, axis=1)[None, :]
            )
            new_labels = np.argmin(dist_sq, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(n_clusters):
                mask = labels == j
                if mask.any():
                    centers[j] = x[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster at the point farthest from its center
                    worst = np.argmax(np.min(dist_sq, axis=1))
                    centers[j] = x[worst]
        wss = _within_ss(x, centers, labels, buf)
        if wss < best_wss:
            best_wss, best_labels = wss, labels
    return best_labels + 1


def kmeans_per_parent(x, t, k: int, seed: int = 0, **kwargs):
    """Baseline matching the comparison protocol: cluster within each parent.

    The data is pre-divided by the provided parent labels, each subset is
    clustered into k clusters, and the clusterings are combined with
    disjoint ids ``(parent-1)*k + local``.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t)
    combined = np.zeros(len(t), dtype=np.int64)
    for i, parent in enumerate(np.unique(t)):
        idx = np.nonzero(t == parent)[0]
        local = kmeans(x[idx], k, seed=seed + i, **kwargs)
        combined[idx] = (int(parent) - 1) * k + local
    return combined


def export_graph(rows, threshold: float, path, truth=None) -> None:
    """Write the similarity graph of the given rows as an edge list.

    Edges are the upper-triangle entries of ``rows @ rows.T`` strictly above
    the threshold, one ``i j weight`` line each (1-based, 6 significant
    digits). When ``truth`` labels are given, ``# vertex i label`` comment
    lines precede the edges. Intended for small subsets; the matrix is
    quadratic in the number of rows.
    """
    rows = check_activities(rows)
    sim = rows @ rows.T
    m = sim.shape[0]
    with open(str(path), "w") as f:
        if truth is not None:
            truth = np.asarray(truth)
            if truth.shape[0] != m:
                raise ValueError(f"{truth.shape[0]} truth labels for {m} rows")
            for i in range(m):
                f.write(f"# vertex {i + 1} {int(truth[i])}\n")
        for i in range(m):
            for j in range(i + 1, m):
                if sim[i, j] > threshold:
                    f.write(f"{i + 1} {j + 1} {sim[i, j]:.6g}\n")


def export_embeddings(z, annotations, truth, path) -> None:
    """Write one CSV row per example: n Z-values, node, parent, sub, truth.

    ``annotations`` is the ``(node, parent, sub)`` array triple of
    ``assign_annotations``. Values carry 12 significant digits so a
    round-trip parse reproduces them. ``truth`` may be None, in which case
    the column holds -1.
    """
    z = np.asarray(z, dtype=np.float64)
    m, n = z.shape
    node, parent, sub = annotations
    if len(node) != m:
        raise ValueError(f"{len(node)} annotations for {m} rows")
    if truth is None:
        truth = np.full(m, -1, dtype=np.int64)
    else:
        truth = np.asarray(truth)
        if truth.shape[0] != m:
            raise ValueError(f"{truth.shape[0]} truth labels for {m} rows")
    labels = np.column_stack([node, parent, sub, truth]).astype(np.int64).tolist()
    with open(str(path), "w") as f:
        f.write(",".join([f"z{j}" for j in range(n)] + ["node", "parent", "sub", "truth"]) + "\n")
        for values, ids in zip(z, labels):
            f.write(",".join([f"{v:.12g}" for v in values] + [str(i) for i in ids]) + "\n")

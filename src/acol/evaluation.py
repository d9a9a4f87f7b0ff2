"""Clustering metrics, the k-means baseline, and graph/embedding exports.

Unsupervised clustering accuracy is the best fraction of examples whose
assigned cluster maps onto their true label under a one-to-one mapping,
computed as a maximum-weight matching on the cluster/label contingency
table. When there are more clusters than labels, unmatched clusters
contribute nothing.
"""

import csv

import numpy as np

from .datasets import LabeledDataset, artifact


def clustering_accuracy(assignments, truth) -> float:
    """Best one-to-one accuracy between cluster assignments and true labels.

    The caller passes two equal-length vectors of int-valued labels; there
    may be more clusters than labels. The matching maximizes the total count
    on the contingency table, which equals an exhaustive search over
    injective mappings. The accuracy is NaN for no rows.
    """
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    m = assignments.shape[0]
    clusters, a_idx = np.unique(assignments, return_inverse=True)
    labels, t_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((len(clusters), len(labels)), dtype=np.int64)
    np.add.at(table, (a_idx, t_idx), 1)
    rows, cols = _max_weight_matching(table)
    return float(table[rows, cols].sum()) / m if m else float("nan")


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
    """Number of rows whose argmax parent (ties to lowest index) equals t;
    the caller passes an m x n_parents array and m labels."""
    return int(np.count_nonzero(np.argmax(parent_probs, axis=1) + 1 == t))


def parent_accuracy(parent_probs, t) -> float:
    """Fraction of rows whose argmax parent (ties to lowest index) equals t;
    NaN for no rows."""
    hits = parent_hits(parent_probs, t)
    return hits / len(t) if len(t) else float("nan")


def _sq_diff(x: np.ndarray, c: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``(x - c) ** 2`` computed in ``buf``, which is returned."""
    np.subtract(x, c, out=buf)
    return np.square(buf, out=buf)


def _plus_plus_centers(x: np.ndarray, n_clusters: int, rng, buf: np.ndarray) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center.

    ``buf`` is scratch space shaped like ``x``.
    """
    m = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    dist_sq = np.sum(_sq_diff(x, centers[0], buf), axis=1)
    for i in range(1, n_clusters):
        total = dist_sq.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(m)]
            continue
        centers[i] = x[rng.choice(m, p=dist_sq / total)]
        if i + 1 < n_clusters:  # nothing reads the distances to the last center
            dist_sq = np.minimum(dist_sq, np.sum(_sq_diff(x, centers[i], buf), axis=1))
    return centers


def kmeans(x, n_clusters: int, seed: int = 0, restarts: int = 10):
    """Lloyd's algorithm, at most 100 iterations after k-means++ seeding; best of ``restarts`` by WSS.

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
    buf = np.empty_like(x)
    x_sq = np.sum(np.multiply(x, x, out=buf), axis=1)[:, None]
    # Lloyd draws nothing, so seeding every restart first draws what seeding
    # each one before its own loop would
    centers = [_plus_plus_centers(x, n_clusters, rng, buf) for _ in range(restarts)]
    labels = [None] * restarts
    running = list(range(restarts))
    for _ in range(100):
        # the running restarts iterate in lockstep and share one product: a
        # product only k columns wide would repack all of x for each restart
        products = x @ np.concatenate([centers[r] for r in running]).T
        still_running = []
        for col, r in enumerate(running):
            c = centers[r]
            dist_sq = (
                x_sq
                - 2.0 * products[:, col * n_clusters:(col + 1) * n_clusters]
                + np.sum(c * c, axis=1)[None, :]
            )
            new_labels = np.argmin(dist_sq, axis=1)
            if labels[r] is not None and np.array_equal(new_labels, labels[r]):
                continue
            labels[r] = new_labels
            still_running.append(r)
            for j in range(n_clusters):
                mask = new_labels == j
                if mask.any():
                    c[j] = x[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster at the point farthest from its center
                    worst = np.argmax(np.min(dist_sq, axis=1))
                    c[j] = x[worst]
        running = still_running
        if not running:
            break
    best_labels, best_wss = None, np.inf
    for c, assigned in zip(centers, labels):
        # labels index centers by construction; "clip" skips the copy that the
        # default mode makes of ``out`` to keep it intact on a bad index
        np.take(c, assigned, axis=0, out=buf, mode="clip")
        wss = float(np.sum(_sq_diff(x, buf, buf)))
        if wss < best_wss:
            best_wss, best_labels = wss, assigned
    return best_labels + 1


class TooFewRowsError(ValueError):
    """Raised when a parent has fewer rows than the clusters asked of it."""


def kmeans_per_parent(x, t, k: int, seed: int = 0, memo=None):
    """Baseline matching the comparison protocol: cluster within each parent.

    The data is pre-divided by the provided parent labels. Each subset is
    converted by ``LabeledDataset.features`` when it is clustered, so ``x``
    may hold stored uint8 pixels, and clustered into k clusters; the
    clusterings are combined with disjoint ids ``(parent-1)*k + local``. A
    parent with fewer than k rows raises ``TooFewRowsError`` before any
    clustering. ``memo``, a dict the caller keeps across calls, holds each
    parent's clustering under its seed, k and rows, so that a subset met
    again is not clustered again.
    """
    data = LabeledDataset(X=np.asarray(x), t=np.asarray(t))
    t = data.t
    parents, counts = np.unique(t, return_counts=True)
    for parent, count in zip(parents, counts):
        if count < k:
            raise TooFewRowsError(f"parent {parent} has {count} rows, fewer than head.k = {k}")
    if memo is not None:
        import hashlib  # here: at module top it adds ~5 ms to every command's start
    combined = np.zeros(len(t), dtype=np.int64)
    for i, parent in enumerate(parents):
        idx = np.nonzero(t == parent)[0]
        rows = data.features(idx)
        if memo is None:
            local = kmeans(rows, k, seed=seed + i)
        else:
            key = (seed + i, k, rows.shape, hashlib.sha256(rows).hexdigest())
            if key not in memo:
                memo[key] = kmeans(rows, k, seed=seed + i)
            local = memo[key]
        combined[idx] = (int(parent) - 1) * k + local
    return combined


def export_graph(rows, threshold: float, path, truth) -> None:
    """Write the similarity graph of the given rows as an edge list.

    Edges are the upper-triangle entries of ``rows @ rows.T`` strictly above
    the threshold, one ``i j weight`` line each (1-based, 6 significant
    digits), after one ``# vertex i label`` line per row. The caller passes
    relu(Z) or parent probabilities, and the fine label of every row in
    ``truth`` (every CLI dataset carries ``t_star``). Intended for small
    subsets; the matrix is quadratic in the number of rows.
    """
    sim = rows @ rows.T
    i, j = np.nonzero(np.triu(sim > threshold, 1))  # row-major, as a loop over i, then j > i
    with artifact(path, "w") as f:
        f.writelines(f"# vertex {v + 1} {int(truth[v])}\n" for v in range(len(sim)))
        f.writelines(f"{a + 1} {b + 1} {w:.6g}\n" for a, b, w in zip(i.tolist(), j.tolist(), sim[i, j].tolist()))


def export_embeddings(z, annotations, truth, path) -> None:
    """Write one CSV row per example: n Z-values, node, parent, sub, truth.

    ``annotations`` is the ``(node, parent, sub)`` triple of
    ``assign_annotations`` on z and ``truth`` the fine labels, which the caller
    passes for every row: every CLI dataset carries ``t_star``. Values carry
    12 significant digits so a round-trip parse reproduces them.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[1]
    labels = np.column_stack([*annotations, truth]).astype(np.int64).tolist()
    header = [f"z{j}" for j in range(n)] + ["node", "parent", "sub", "truth"]
    write_csv(path, header, ([*(f"{v:.12g}" for v in values), *ids] for values, ids in zip(z, labels)))


def write_csv(path, header, rows) -> None:
    """Write the header, then each row as it comes, as CSV lines ending in
    ``\\n``; the csv module quotes only a value holding a comma, a quote or a
    line break, and writes floats by repr."""
    with artifact(path, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

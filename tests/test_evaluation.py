"""Clustering accuracy vs exhaustive search, k-means baseline, exports."""

import itertools
import tracemalloc

import numpy as np
import pytest

from acol.datasets import LabeledDataset, images_to_features, synthetic_blobs
from acol.evaluation import (
    _max_weight_matching,
    _plus_plus_centers,
    _sq_diff,
    clustering_accuracy,
    export_embeddings,
    export_graph,
    kmeans,
    kmeans_per_parent,
    parent_accuracy,
)
from acol.head import AcolHead, assign_annotations


def exhaustive_accuracy(assignments, truth):
    """Brute-force best injective cluster-to-label mapping accuracy."""
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    clusters = sorted(set(int(v) for v in assignments))
    labels = sorted(set(int(v) for v in truth))
    counts = {
        (c, l): int(np.sum((assignments == c) & (truth == l)))
        for c in clusters
        for l in labels
    }
    best = 0
    if len(clusters) <= len(labels):
        for perm in itertools.permutations(labels, len(clusters)):
            best = max(best, sum(counts[c, l] for c, l in zip(clusters, perm)))
    else:
        for perm in itertools.permutations(clusters, len(labels)):
            best = max(best, sum(counts[c, l] for c, l in zip(perm, labels)))
    return best / len(assignments)


def test_accuracy_equals_exhaustive_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(60):
        m = int(rng.integers(2, 51))
        n_clusters = int(rng.integers(1, 7))
        n_labels = int(rng.integers(1, 7))
        assignments = rng.integers(1, n_clusters + 1, size=m)
        truth = rng.integers(0, n_labels, size=m)
        acc = clustering_accuracy(assignments, truth)
        assert type(acc) is float
        assert acc == pytest.approx(exhaustive_accuracy(assignments, truth), abs=1e-12)


def test_accuracy_perfect_relabeling():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assignments = np.array([5, 5, 3, 3, 9, 9])  # a pure relabeling
    assert clustering_accuracy(assignments, truth) == 1.0


def test_accuracy_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(22)
    truth = rng.integers(0, 4, size=40)
    assignments = rng.integers(1, 5, size=40)
    base = clustering_accuracy(assignments, truth)
    relabel = {1: 17, 2: 3, 3: 99, 4: 8}
    shuffled = np.array([relabel[int(a)] for a in assignments])
    assert clustering_accuracy(shuffled, truth) == pytest.approx(base, abs=1e-12)


def test_accuracy_beats_every_random_injective_mapping():
    rng = np.random.default_rng(23)
    truth = rng.integers(0, 5, size=60)
    assignments = rng.integers(1, 6, size=60)
    opt = clustering_accuracy(assignments, truth)
    labels = list(range(5))
    for _ in range(50):
        perm = rng.permutation(labels)
        acc = np.mean([perm[int(a) - 1] == t for a, t in zip(assignments, truth)])
        assert acc <= opt + 1e-12


def test_accuracy_more_clusters_than_labels():
    truth = np.array([0, 0, 0, 1, 1, 1])
    assignments = np.array([1, 1, 2, 3, 3, 4])  # 4 clusters, 2 labels
    assert clustering_accuracy(assignments, truth) == pytest.approx(4 / 6)


def test_accuracy_of_no_rows_is_nan():
    """Like ``parent_accuracy``: a scenario whose filter drops every eval row
    scores NaN instead of dividing by zero."""
    empty = np.array([], dtype=np.int64)
    acc = clustering_accuracy(empty, empty)
    assert type(acc) is float and np.isnan(acc)


def _tables():
    """Square, wide (more clusters than labels) and tall contingency tables,
    random ones plus all-tie and all-zero ones."""
    rng = np.random.default_rng(24)
    for shape in [(1, 1), (3, 3), (5, 5), (2, 5), (3, 6), (5, 2), (6, 3), (1, 4), (4, 1)]:
        for high in (1, 3, 50):
            yield rng.integers(0, high + 1, size=shape)
        yield np.full(shape, 7)
        yield np.zeros(shape, dtype=np.int64)


def test_matching_is_one_to_one_and_sorted_by_row():
    for table in _tables():
        rows, cols = _max_weight_matching(table)
        assert len(rows) == min(table.shape)
        assert len(set(rows.tolist())) == len(rows)
        assert len(set(cols.tolist())) == len(cols)
        assert np.all(np.diff(rows) > 0)
        assert rows.min() >= 0 and rows.max() < table.shape[0]
        assert cols.min() >= 0 and cols.max() < table.shape[1]


def test_matching_weight_equals_exhaustive_optimum():
    for table in _tables():
        rows, cols = _max_weight_matching(table)
        weight = int(table[rows, cols].sum())
        if not table.any():
            assert weight == 0
            continue
        # examples whose contingency table is ``table``; all-zero rows and
        # columns drop out, which leaves the optimum unchanged
        r, c = np.nonzero(table)
        assignments = np.repeat(r + 1, table[r, c])
        truth = np.repeat(c, table[r, c])
        exhaustive = exhaustive_accuracy(assignments, truth)
        assert weight / len(truth) == exhaustive
        assert clustering_accuracy(assignments, truth) == exhaustive


def test_matching_agrees_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(25)
    tables = list(_tables()) + [
        rng.integers(0, 200, size=(int(rng.integers(1, 11)), int(rng.integers(1, 11))))
        for _ in range(300)
    ]
    for table in tables:
        rows, cols = _max_weight_matching(table)
        ref_rows, ref_cols = optimize.linear_sum_assignment(table, maximize=True)
        assert table[rows, cols].sum() == table[ref_rows, ref_cols].sum()


def test_parent_accuracy_argmax_rule():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])  # tie -> parent 1
    t = np.array([1, 2, 1])
    assert parent_accuracy(probs, t) == 1.0
    assert parent_accuracy(probs, np.array([2, 2, 2])) == pytest.approx(1 / 3)


# --- k-means ----------------------------------------------------------------


def within_cluster_ss(x, assignments):
    """Within-cluster sum of squares of the given assignments."""
    return sum(
        float(np.sum((x[assignments == c] - x[assignments == c].mean(axis=0)) ** 2))
        for c in np.unique(assignments)
    )


def _oracle_plus_plus_centers(x, n_clusters, rng):
    """Frozen copy of the out-of-place k-means++ seeding (the reference)."""
    m = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    dist_sq = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = dist_sq.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(m)]
            continue
        centers[i] = x[rng.choice(m, p=dist_sq / total)]
        dist_sq = np.minimum(dist_sq, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def oracle_kmeans(x, n_clusters: int, seed: int = 0, max_iter: int = 100, restarts: int = 10):
    """Frozen copy of the out-of-place Lloyd loop (the reference)."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"cannot form {n_clusters} clusters from {m} points")
    rng = np.random.default_rng(seed)
    best_labels, best_wss = None, np.inf
    for _ in range(restarts):
        centers = _oracle_plus_plus_centers(x, n_clusters, rng)
        labels = None
        for _ in range(max_iter):
            dist_sq = (
                np.sum(x * x, axis=1)[:, None]
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
        wss = float(np.sum((x - centers[labels]) ** 2))
        if wss < best_wss:
            best_wss, best_labels = wss, labels
    return best_labels + 1


def _oracle_cases():
    """(name, x, k, seed, restarts) for 25 mixes of shape, width, seed and k."""
    rng = np.random.default_rng(40)
    cases = []
    for seed in (0, 1, 2):
        for m, d, k in [(60, 2, 3), (120, 2, 7), (40, 784, 4), (90, 784, 5), (25, 17, 25)]:
            cases.append((f"gauss-{m}x{d}-k{k}-s{seed}", rng.normal(size=(m, d)), k, seed, 10))
    # digit-like: sparse non-negative pixels in [0, 1]
    pixels = np.where(rng.random((200, 784)) < 0.2, rng.random((200, 784)), 0.0)
    cases += [(f"pixels-k5-s{s}", pixels, 5, s, 10) for s in (3, 4)]
    # duplicated rows: k-means++ hits a zero total and re-draws uniformly
    dup = np.repeat(rng.normal(size=(2, 6)), 10, axis=0)
    cases += [(f"duplicates-k4-s{s}", dup, 4, s, 10) for s in (5, 6)]
    # all rows equal: every seeding draw after the first re-draws
    cases.append(("constant-k3", np.ones((12, 784)), 3, 7, 3))
    # a far pair 1e-9 apart, which the expanded distance cannot resolve,
    # leaves a cluster empty
    empty = np.vstack([np.zeros((8, 2)), [[1e6, 0.0], [1e6, 1e-9]]])
    cases.append(("empty-cluster-k3", empty, 3, 0, 10))
    # the same at 1e8 with a pair 0.5 apart, beside spread rows: the re-seed
    # must take the row farthest from its center, not any row
    spread = np.vstack([np.random.default_rng(44).normal(size=(6, 2)), [[1e8, 0.0], [1e8, 0.5]]])
    cases.append(("empty-cluster-spread-k3", spread, 3, 4, 1))
    # pixel-like subsets on either side of m*d*k = 1e6: below it, a restart's
    # k columns of the shared product can differ from its own narrow product
    # in the last bit
    for m, k in ((300, 3), (510, 5)):
        big = np.where(rng.random((m, 784)) < 0.2, rng.random((m, 784)), 0.0)
        cases += [(f"pixels-{m}x784-k{k}-s{s}", big, k, s, 10) for s in (8, 9)]
    return cases


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
def test_kmeans_equals_frozen_oracle(case):
    _, x, k, seed, restarts = case
    expected = oracle_kmeans(x, k, seed=seed, restarts=restarts)
    assert np.array_equal(kmeans(x, k, seed=seed, restarts=restarts), expected)


def test_kmeans_oracle_cases_cover_both_edge_branches(monkeypatch):
    cases = {name: (x, k, seed, restarts) for name, x, k, seed, restarts in _oracle_cases()}
    assert len(cases) >= 20
    # the re-draw branch: with fewer distinct rows than k, seeding runs out of D^2 mass
    x, k, _, _ = cases["duplicates-k4-s5"]
    assert len(np.unique(x, axis=0)) < k
    # the re-seed branch is the oracle's only np.argmax call
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda a, *args, **kw: calls.append(1) or argmax(a, *args, **kw))
    x, k, seed, restarts = cases["empty-cluster-k3"]
    oracle_kmeans(x, k, seed=seed, restarts=restarts)
    monkeypatch.undo()
    assert calls


def test_restarts_are_seeded_in_order_from_one_stream(monkeypatch):
    """All restarts are seeded before they iterate together: restart r starts
    from the r-th seeding of the oracle's one generator."""
    x = np.random.default_rng(45).normal(size=(90, 6))
    seeded = []

    def record(*args):
        centers = _plus_plus_centers(*args)
        seeded.append(centers.copy())
        return centers

    monkeypatch.setattr("acol.evaluation._plus_plus_centers", record)
    labels = kmeans(x, 4, seed=3, restarts=5)
    rng = np.random.default_rng(3)
    assert len(seeded) == 5
    for got in seeded:
        assert got.tobytes() == _oracle_plus_plus_centers(x, 4, rng).tobytes()
    assert np.array_equal(labels, oracle_kmeans(x, 4, seed=3, restarts=5))


def test_plus_plus_seeding_redraws_a_uniform_row_when_no_distance_is_left():
    """With every row on a center, the next center is a uniform draw, as in
    the oracle. kmeans' labels cannot show which row was drawn: every
    restart then scores 0 and the first one is kept."""
    x = np.array([[0.0], [1.0], [1.0], [1.0]])
    for seed in range(10):
        expected = _oracle_plus_plus_centers(x, 3, np.random.default_rng(seed))
        assert np.array_equal(_plus_plus_centers(x, 3, np.random.default_rng(seed), np.empty_like(x)), expected)


def test_in_place_distances_round_like_the_expressions_they_replace():
    # labels rarely expose a last-bit change, so the two in-place reductions
    # k-means makes through _sq_diff (the seeding's row sums and a restart's
    # WSS) are pinned to their out-of-place expressions byte for byte
    rng = np.random.default_rng(41)
    base = rng.normal(size=(300, 784)) * 3.0
    for x in (base, base[:, :2].copy(), base[::2, ::3].copy()):
        buf = np.empty_like(x)
        centers = x[rng.choice(x.shape[0], 5, replace=False)]
        labels = rng.integers(0, 5, size=x.shape[0])
        for c in centers:
            expected = np.sum((x - c) ** 2, axis=1)
            assert np.sum(_sq_diff(x, c, buf), axis=1).tobytes() == expected.tobytes()
        np.take(centers, labels, axis=0, out=buf, mode="clip")
        assert float(np.sum(_sq_diff(x, buf, buf))) == float(np.sum((x - centers[labels]) ** 2))


def test_kmeans_ignores_memory_layout():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(120, 784))
    expected = kmeans(x, 4, seed=9)
    for view in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
        assert np.array_equal(kmeans(view, 4, seed=9), expected)


def test_kmeans_recovers_separated_blobs():
    pool = synthetic_blobs(6, per_cluster=60, dim=5, separation=10.0, seed=31)
    labels = kmeans(pool.X, 6, seed=0)
    assert labels.min() == 1 and labels.max() <= 6
    assert clustering_accuracy(labels, pool.fine) >= 0.99


def test_kmeans_each_point_its_own_cluster():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(5, 3)) * 10.0
    labels = kmeans(x, 5, seed=1)
    assert sorted(labels) == [1, 2, 3, 4, 5]
    assert within_cluster_ss(x, labels) == pytest.approx(0.0, abs=1e-18)


def test_kmeans_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(80, 4))
    a = kmeans(x, 4, seed=7)
    b = kmeans(x, 4, seed=7)
    assert np.array_equal(a, b)


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ValueError, match="cannot form"):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_wss_no_worse_than_random_assignment():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(90, 3))
    labels = kmeans(x, 5, seed=2)
    wss = within_cluster_ss(x, labels)
    for trial in range(10):
        random_labels = rng.integers(1, 6, size=90)
        assert wss <= within_cluster_ss(x, random_labels) + 1e-9


def test_kmeans_restarts_never_hurt():
    rng = np.random.default_rng(35)
    x = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 4.0])
    one = within_cluster_ss(x, kmeans(x, 3, seed=4, restarts=1))
    ten = within_cluster_ss(x, kmeans(x, 3, seed=4, restarts=10))
    assert ten <= one + 1e-9


def test_kmeans_per_parent_id_ranges():
    pool = synthetic_blobs(4, per_cluster=40, dim=4, separation=9.0, seed=36)
    t = (pool.fine - 1) % 2 + 1
    combined = kmeans_per_parent(LabeledDataset(pool.X, t), k=2, seed=0)
    for parent in (1, 2):
        ids = set(int(v) for v in combined[t == parent])
        low, high = (parent - 1) * 2 + 1, parent * 2
        assert ids <= set(range(low, high + 1))
    # separable blobs: the combined clustering matches the fine truth
    assert clustering_accuracy(combined, pool.fine) >= 0.99


def test_kmeans_per_parent_converts_one_parent_of_stored_pixels_at_a_time():
    """On a uint8 pool of four parents, each parent's rows are converted as
    they are clustered: the labels are those of the pool converted first, and
    the peak stays under the whole pool's float64 features."""
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(2000, 784), dtype=np.uint8)
    t = 1 + np.arange(2000) % 4
    want = kmeans_per_parent(LabeledDataset(images_to_features(pixels), t), k=3, seed=2)
    tracemalloc.start()
    try:
        got = kmeans_per_parent(LabeledDataset(pixels, t), k=3, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < pixels.size * 8


def test_kmeans_forms_its_row_norms_in_its_scratch_buffer():
    """Besides the caller's rows, kmeans holds one scratch buffer shaped like
    them and one cluster's gathered rows at a time: its traced peak stays
    under twice the rows' bytes, which a separate ``x * x`` product reaches."""
    x = images_to_features(np.random.default_rng(8).integers(0, 256, size=(1000, 784), dtype=np.uint8))
    tracemalloc.start()
    try:
        kmeans(x, 5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * x.nbytes


def _counting_kmeans(monkeypatch):
    """Patch ``evaluation.kmeans`` to log the row count of each call."""
    calls = []
    monkeypatch.setattr("acol.evaluation.kmeans", lambda x, *a, **kw: calls.append(len(x)) or kmeans(x, *a, **kw))
    return calls


def test_kmeans_per_parent_memo_clusters_each_subset_once(monkeypatch):
    pool = synthetic_blobs(4, per_cluster=30, dim=3, separation=6.0, seed=37)
    t = (pool.fine - 1) % 2 + 1
    expected = kmeans_per_parent(LabeledDataset(pool.X, t), k=2, seed=5)
    calls, memo = _counting_kmeans(monkeypatch), {}
    assert np.array_equal(kmeans_per_parent(LabeledDataset(pool.X, t), k=2, seed=5, memo=memo), expected)
    assert np.array_equal(kmeans_per_parent(LabeledDataset(pool.X, t), k=2, seed=5, memo=memo), expected)
    assert calls == [60, 60] and len(memo) == 2
    # parent 2 loses a row: only its subset is new
    keep = np.arange(len(t)) != np.nonzero(t == 2)[0][0]
    kmeans_per_parent(LabeledDataset(pool.X[keep], t[keep]), k=2, seed=5, memo=memo)
    assert calls == [60, 60, 59]


def test_kmeans_per_parent_memo_hit_converts_nothing(monkeypatch):
    """The memo is keyed on the stored rows: a parent's uint8 pixels are
    converted only when its clustering is missing, so a second call over the
    same parents converts no row, and its labels are the first call's."""
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=(300, 64), dtype=np.uint8)
    t = 1 + np.arange(300) % 3
    converted = []
    monkeypatch.setattr("acol.datasets.images_to_features",
                        lambda x, out=None: converted.append(len(x)) or images_to_features(x, out))
    memo = {}
    first = kmeans_per_parent(LabeledDataset(pixels, t), k=2, seed=4, memo=memo)
    assert converted == [100, 100, 100] and len(memo) == 3
    converted.clear()
    assert np.array_equal(kmeans_per_parent(LabeledDataset(pixels, t), k=2, seed=4, memo=memo), first)
    assert converted == [] and len(memo) == 3


@pytest.mark.parametrize("seed, k", [(6, 2), (5, 3)])
def test_kmeans_per_parent_memo_misses_another_seed_or_k(monkeypatch, seed, k):
    pool = synthetic_blobs(4, per_cluster=30, dim=3, separation=6.0, seed=37)
    t = (pool.fine - 1) % 2 + 1
    memo = {}
    kmeans_per_parent(LabeledDataset(pool.X, t), k=2, seed=5, memo=memo)
    calls = _counting_kmeans(monkeypatch)
    combined = kmeans_per_parent(LabeledDataset(pool.X, t), k=k, seed=seed, memo=memo)
    assert calls == [60, 60]
    assert np.array_equal(combined, kmeans_per_parent(LabeledDataset(pool.X, t), k=k, seed=seed))


# --- exports ----------------------------------------------------------------


def parse_graph(path):
    vertices, edges = {}, {}
    for line in open(path):
        parts = line.split()
        if line.startswith("#"):
            vertices[int(parts[2])] = int(parts[3])
        else:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            edges[i, j] = w
    return vertices, edges


def test_export_graph_recomputes_oracle(tmp_path):
    rng = np.random.default_rng(41)
    rows = rng.uniform(0.0, 1.5, size=(12, 4))
    truth = rng.integers(0, 3, size=12)
    path = tmp_path / "g.edges"
    threshold = 1.0
    export_graph(rows, threshold, path, truth=truth)
    vertices, edges = parse_graph(path)
    assert vertices == {i + 1: int(truth[i]) for i in range(12)}
    sim = rows @ rows.T
    for i in range(12):
        for j in range(i + 1, 12):
            if sim[i, j] > threshold:
                assert (i + 1, j + 1) in edges
                assert edges[i + 1, j + 1] == pytest.approx(sim[i, j], rel=1e-5)
            else:
                assert (i + 1, j + 1) not in edges
    # no self-loops, no lower triangle
    assert all(i < j for i, j in edges)


@pytest.mark.parametrize("m, threshold", [(15, -1.0), (15, 0.5), (15, 1.0), (15, 9.0), (1, 0.0), (0, 0.0)])
def test_export_graph_writes_the_lines_of_the_double_loop_in_its_order(tmp_path, m, threshold):
    rng = np.random.default_rng(43)
    rows = rng.uniform(0.0, 1.0, size=(m, 3))
    truth = rng.integers(0, 3, size=m)
    sim = rows @ rows.T
    lines = [f"# vertex {i + 1} {int(truth[i])}\n" for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if sim[i, j] > threshold:
                lines.append(f"{i + 1} {j + 1} {sim[i, j]:.6g}\n")
    export_graph(rows, threshold, tmp_path / "g.edges", truth=truth)
    assert (tmp_path / "g.edges").read_text() == "".join(lines)


def test_export_embeddings_round_trip(tmp_path):
    head = AcolHead(2, 2)
    rng = np.random.default_rng(42)
    z = rng.normal(size=(9, head.n))
    node, parent, sub = assign_annotations(z, head)
    truth = rng.integers(1, 5, size=9)
    path = tmp_path / "e.csv"
    export_embeddings(z, (node, parent, sub), truth, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z0,z1,z2,z3,node,parent,sub,truth"
    assert len(lines) == 10
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        back = np.array([float(v) for v in cells[: head.n]])
        assert np.allclose(back, z[i], rtol=1e-11)
        assert [int(c) for c in cells[head.n :]] == [node[i], parent[i], sub[i], truth[i]]

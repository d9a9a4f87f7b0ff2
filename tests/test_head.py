"""Output head: pooling structure, supervised gradient, annotation readout."""

import numpy as np
import pytest

from acol.head import (
    PROB_FLOOR,
    AcolHead,
    assign_annotations,
    head_forward,
    node_to_parent_sub,
    supervised_grad,
)


def test_pooling_matrix_structure():
    w = AcolHead(3, 2).pooling
    expect = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(w, expect)
    # general invariants: one 1 per row, column sums equal k
    rng = np.random.default_rng(3)
    for _ in range(10):
        n_p = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        w = AcolHead(n_p, k).pooling
        assert w.shape == (n_p * k, n_p)
        assert np.array_equal(w.sum(axis=1), np.ones(n_p * k))
        assert np.array_equal(w.sum(axis=0), np.full(n_p, float(k)))


def test_pooling_validation():
    with pytest.raises(ValueError, match="at least 2 parent"):
        AcolHead(1, 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        AcolHead(2, 0)
    with pytest.raises(ValueError):
        AcolHead(1, 2)


def test_node_decomposition():
    # n_parents=2: nodes 1..6 alternate parents, duplicates advance every 2
    expected = {1: (1, 1), 2: (2, 1), 3: (1, 2), 4: (2, 2), 5: (1, 3), 6: (2, 3)}
    for node, (parent, sub) in expected.items():
        assert node_to_parent_sub(node, 2) == (parent, sub)
    # round trip for arbitrary sizes: node = (sub-1)*n_p + parent
    for n_p in (2, 3, 5):
        for node in range(1, n_p * 4 + 1):
            parent, sub = node_to_parent_sub(node, n_p)
            assert (sub - 1) * n_p + parent == node
        # the array form agrees with the scalar form entry by entry
        nodes = np.arange(1, n_p * 4 + 1)
        parents, subs = node_to_parent_sub(nodes, n_p)
        assert list(zip(parents, subs)) == [node_to_parent_sub(int(j), n_p) for j in nodes]


def test_head_forward_shapes_and_pooled_sum():
    head = AcolHead(2, 3)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(5, head.n))
    probs, parent_probs = head_forward(z, head)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert parent_probs.shape == (5, 2)
    assert np.allclose(parent_probs.sum(axis=1), 1.0, atol=1e-12)
    # parent probability = sum of its duplicate columns
    assert np.allclose(parent_probs[:, 0], probs[:, [0, 2, 4]].sum(axis=1), atol=1e-12)
    assert np.allclose(parent_probs[:, 1], probs[:, [1, 3, 5]].sum(axis=1), atol=1e-12)


def test_head_forward_softmax_properties():
    head = AcolHead(7, 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.normal(scale=3.0, size=(5, head.n))
        p = head_forward(z, head)[0]
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)
        # invariant to a per-row shift
        shifted = head_forward(z + rng.normal(size=(5, 1)), head)[0]
        assert np.allclose(p, shifted, atol=1e-12)


def test_head_forward_softmax_stable_for_large_inputs():
    p = head_forward(np.array([[1000.0, 1001.0], [-1000.0, -999.0]]), AcolHead(2, 1))[0]
    assert np.all(np.isfinite(p))
    expect = 1.0 / (1.0 + np.e)
    assert np.allclose(p[:, 0], expect, atol=1e-12)


def test_head_forward_softmax_matches_direct_formula_small_values():
    z = np.array([[0.1, 0.2, -0.3]])
    direct = np.exp(z) / np.exp(z).sum()
    assert np.allclose(head_forward(z, AcolHead(3, 1))[0], direct, atol=1e-14)


def test_supervised_loss_hand_value():
    head = AcolHead(2, 1)  # k=1 reduces to plain softmax cross-entropy
    z = np.array([[np.log(3.0), 0.0]])  # probs (0.75, 0.25)
    loss, d_z, _ = supervised_grad(z, np.array([1]), head)
    assert loss == pytest.approx(-np.log(0.75), abs=1e-12)
    # classic softmax-CE gradient: p - onehot
    assert np.allclose(d_z, np.array([[0.75 - 1.0, 0.25]]), atol=1e-12)


def test_supervised_grad_rows_sum_to_zero():
    head = AcolHead(3, 2)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(8, head.n))
    t = rng.integers(1, 4, size=8)
    _, d_z, _ = supervised_grad(z, t, head)
    assert np.allclose(d_z.sum(axis=1), 0.0, atol=1e-12)


def test_supervised_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n_p = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        head = AcolHead(n_p, k)
        m = int(rng.integers(2, 7))
        z = rng.normal(scale=2.0, size=(m, head.n))
        t = rng.integers(1, n_p + 1, size=m)
        _, d_z, _ = supervised_grad(z, t, head)
        eps = 1e-6
        for i in range(m):
            for j in range(head.n):
                zp = z.copy()
                zp[i, j] += eps
                zm = z.copy()
                zm[i, j] -= eps
                lp, _, _ = supervised_grad(zp, t, head)
                lm, _, _ = supervised_grad(zm, t, head)
                fd = (lp - lm) / (2 * eps)
                assert d_z[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_supervised_grad_floor_region_is_flat():
    head = AcolHead(2, 1)
    # drive the true parent's probability far below the floor
    z = np.array([[-80.0, 80.0]])
    loss, d_z, _ = supervised_grad(z, np.array([1]), head)
    assert loss == pytest.approx(-np.log(PROB_FLOOR), abs=1e-9)
    assert np.array_equal(d_z, np.zeros((1, 2)))
    # and stays finite / identical slightly deeper into the region
    loss2, _, _ = supervised_grad(np.array([[-90.0, 90.0]]), np.array([1]), head)
    assert loss2 == pytest.approx(loss, abs=1e-9)


def test_assign_annotations_mapping_and_ties():
    head = AcolHead(2, 3)
    z = np.array(
        [
            [9.0, 0, 0, 0, 0, 0],  # node 1 -> parent 1, sub 1
            [0, 0, 0, 9.0, 0, 0],  # node 4 -> parent 2, sub 2
            [0, 0, 0, 0, 0, 9.0],  # node 6 -> parent 2, sub 3
            [5.0, 5.0, 0, 0, 0, 0],  # tie -> lowest index, node 1
        ]
    )
    node, parent, sub = assign_annotations(z, head)
    assert list(zip(node, parent, sub)) == [
        (1, 1, 1),
        (4, 2, 2),
        (6, 2, 3),
        (1, 1, 1),
    ]
    assert all(a.dtype.kind == "i" for a in (node, parent, sub))


def test_assign_annotations_consistent_with_decomposition():
    head = AcolHead(3, 4)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(40, head.n))
    node, parent, sub = assign_annotations(z, head)
    for j, p, s in zip(node, parent, sub):
        assert (p, s) == node_to_parent_sub(int(j), head.n_parents)
        assert 1 <= p <= 3 and 1 <= s <= 4

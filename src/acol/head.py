"""Auto-clustering output head: duplicated softmax nodes pooled into parents.

The augmented softmax layer has ``n = n_parents * k`` nodes. A fixed pooling
matrix (k vertically stacked identity blocks) sums the k duplicate
probabilities of each parent, so node j (1-based) belongs to parent
``(j-1) % n_parents + 1`` and duplicate ``(j-1) // n_parents + 1``. After
training the pooling layer is dropped and each example's annotation is read
directly off the argmax of the pre-softmax activities.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, softmax_rows

# Floor applied to parent probabilities before the log; avoids -inf loss on
# saturated wrong predictions.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AcolHead:
    """Parent count and duplicates per parent.

    ``pooling`` is the fixed n x n_parents matrix of k stacked identity
    blocks: every row has exactly one 1, every column sums to k. It is built
    on first use and never updated by training.
    """

    n_parents: int
    k: int

    def __post_init__(self):
        if self.n_parents < 2:
            raise ValueError(f"need at least 2 parent classes, got {self.n_parents}")
        if self.k < 1:
            raise ValueError(f"clustering coefficient k must be >= 1, got {self.k}")

    @property
    def n(self) -> int:
        """Total node count of the augmented softmax layer."""
        return self.n_parents * self.k

    @cached_property
    def pooling(self) -> np.ndarray:
        return np.tile(np.eye(self.n_parents), (self.k, 1))


def node_to_parent_sub(node, n_parents: int):
    """Decompose 1-based node indices (an int or an int array) into (parent, sub).

    Node j belongs to parent ``(j-1) % n_parents + 1``; the same interleave
    assigns synthetic clusters to parents.
    """
    return (node - 1) % n_parents + 1, (node - 1) // n_parents + 1


def head_forward(z, head: AcolHead):
    """Forward pass of the head on pre-softmax activities Z (m x n).

    Returns ``(probs, parent_probs)``: the softmax over all n nodes and the
    pooled m x n_parents parent probabilities (rows sum to 1).
    """
    z = as_matrix(z, "Z")
    if z.shape[1] != head.n:
        raise ValueError(f"Z has {z.shape[1]} columns, head expects n = {head.n}")
    probs = softmax_rows(z)
    return probs, probs @ head.pooling


def supervised_grad(z, t, head: AcolHead):
    """Mean negative log parent probability and its exact gradient at Z.

    ``t`` holds 1-based parent labels. Returns ``(loss, d_z, parent_probs)``:
    ``d_z`` differentiates through the pooling sum and the softmax, and its
    rows sum to zero; ``parent_probs`` are the pooled probabilities of
    ``head_forward``. Where the probability floor is active the loss is
    flat, so those rows contribute zero gradient.
    """
    z = as_matrix(z, "Z")
    t = np.asarray(t)
    m = z.shape[0]
    if t.shape != (m,):
        raise ValueError(f"labels have shape {t.shape}, expected ({m},)")
    bad = np.nonzero((t < 1) | (t > head.n_parents))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"parent label {t[i]} at example {i} outside 1..{head.n_parents}"
        )

    probs, parent_probs = head_forward(z, head)
    rows = np.arange(m)
    p = parent_probs[rows, t - 1]
    clamped = np.maximum(p, PROB_FLOOR)
    loss = float(-np.log(clamped).mean())

    d_parent = np.zeros_like(parent_probs)
    d_parent[rows, t - 1] = np.where(p >= PROB_FLOOR, -1.0 / (m * clamped), 0.0)
    d_probs = d_parent @ head.pooling.T
    # softmax Jacobian-vector product, row-wise
    d_z = probs * (d_probs - np.sum(probs * d_probs, axis=1, keepdims=True))
    return loss, d_z, parent_probs


def assign_annotations(z, head: AcolHead):
    """Per-example ``(node, parent, sub)`` int arrays: argmax node of Z, ties
    to the lowest index."""
    z = as_matrix(z, "Z")
    if z.shape[1] != head.n:
        raise ValueError(f"Z has {z.shape[1]} columns, head expects n = {head.n}")
    node = np.argmax(z, axis=1) + 1  # argmax takes the first maximum
    return (node, *node_to_parent_sub(node, head.n_parents))

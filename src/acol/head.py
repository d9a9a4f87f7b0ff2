"""Auto-clustering output head: duplicated softmax nodes pooled into parents.

The augmented softmax layer has ``n = n_parents * k`` nodes. Node j
(1-based) belongs to parent ``(j-1) % n_parents + 1`` and duplicate
``(j-1) // n_parents + 1`` (``node_to_parent_sub``), and a fixed pooling
matrix built from that rule sums the k duplicate probabilities of each
parent. After training the pooling layer is dropped and each example's
annotation is read directly off the argmax of the pre-softmax activities.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import _key, check_fields

# Floor applied to parent probabilities before the log; avoids -inf loss on
# saturated wrong predictions.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AcolHead:
    """Parent count and duplicates per parent, checked when made by the
    config's ``check_fields``, with the rules of the checkpoint header.

    ``pooling`` is the fixed n x n_parents matrix whose row j - 1 is the
    one-hot of node j's parent: k stacked identity blocks, every column
    summing to k. It is built on first use and never updated by training.
    """

    n_parents: int = _key("n_parents", rule=(">=", 2))
    k: int = _key("k", rule=(">=", 1))

    def __post_init__(self):
        check_fields(self)

    @property
    def n(self) -> int:
        """Total node count of the augmented softmax layer."""
        return self.n_parents * self.k

    @cached_property
    def pooling(self) -> np.ndarray:
        parents, _ = node_to_parent_sub(np.arange(1, self.n + 1), self.n_parents)
        return np.eye(self.n_parents)[parents - 1]


def node_to_parent_sub(node, n_parents: int):
    """Decompose 1-based node indices (an int or an int array) into (parent, sub).

    Node j belongs to parent ``(j-1) % n_parents + 1``; the pooling matrix
    and the synthetic clusters' parents use the same interleave.
    """
    return (node - 1) % n_parents + 1, (node - 1) // n_parents + 1


def head_forward(z, head: AcolHead):
    """Head forward pass; the caller passes the m x head.n Z of ``network.forward``.

    Returns ``(probs, parent_probs)``: the softmax over all n nodes, stable
    via row-max subtraction, and the pooled m x n_parents parent
    probabilities (rows sum to 1).
    """
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, probs @ head.pooling


def supervised_grad(z, t, head: AcolHead):
    """Mean negative log parent probability and its exact gradient at Z.

    The caller passes the Z of ``network.forward`` and ``t``, one 1-based
    parent label in 1..n_parents per row (``network.train`` checks them all).
    Returns ``(loss, d_z, parent_probs)``: ``d_z`` differentiates through the
    pooling sum and the softmax, and its rows sum to zero; ``parent_probs``
    are the pooled probabilities of ``head_forward``. Where the probability
    floor is active the loss is flat, so those rows contribute zero gradient.
    """
    m = z.shape[0]
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
    """Per-example ``(node, parent, sub)`` int arrays: argmax node of the Z of
    ``network.forward``, which the caller passes, ties to the lowest index."""
    node = np.argmax(z, axis=1) + 1  # argmax takes the first maximum
    return (node, *node_to_parent_sub(node, head.n_parents))

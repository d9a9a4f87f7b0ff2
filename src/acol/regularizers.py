"""Activity regularization terms and their analytic gradients.

All terms act on a nonnegative activity matrix ``B`` (one row per example,
one column per output node), through its column co-activation matrix
``N = B^T B``:

* ``affinity``   -- normalized off-diagonal mass of ``N``; 0 when columns
  have disjoint supports, 1 when all columns are identical and nonzero.
* ``balance``    -- normalized off-diagonal mass of ``V = v^T v`` where
  ``v = diag(N)``; 1 when all columns are equally active.
* ``frobenius_sq`` -- plain squared Frobenius norm, which keeps the two
  ratio denominators from collapsing toward zero.

The combined loss is ``c_alpha * affinity + c_beta * (1 - balance)
+ c_f * frobenius_sq``. ``gar_value_and_grad`` evaluates every term, the
loss and its hand-derived gradient (quotient rule on both ratios) in one
pass. ``tests/test_regularizers.py`` holds the definitional ``affinity`` and
``balance`` references that its ratios equal bit for bit, and pins the
gradient against central finite differences.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GarTerms:
    """One evaluation of all terms on a single activity matrix."""

    affinity: float
    balance: float
    frobenius_sq: float
    loss: float
    degenerate: bool


def gar_value_and_grad(b, c_alpha: float, c_beta: float, c_f: float):
    """All three terms, the combined loss, and its gradient in one pass.

    The caller passes B = relu(Z), float64 with m >= 1 rows and n >= 2
    columns. Returns ``(terms, grad)`` where ``grad`` is the analytic
    gradient of ``terms.loss`` at every entry of B. Both ratios are scale
    invariant, so they are evaluated on B / max(B), which keeps the squared
    sums representable for any scale; the gradient carries the 1/max(B)
    chain factor back. B^T B is formed once for the value and the gradient.

    Gradient: d/dB [sum_{i!=j} N_ij] = 2 B (11^T - I), d/dB [trace N] = 2B,
    the chain rule through v_j = sum_i B_ij^2 for the balance ratio, and the
    quotient rule for both ratios. A degenerate (all-zero) B has affinity
    and balance 0 and a zero gradient.
    """
    n = b.shape[1]
    with np.errstate(over="ignore"):  # inf when the true value exceeds float64
        fro = float(np.sum(b * b))
    peak = float(b.max())
    degenerate = peak == 0.0
    if degenerate:
        alpha = beta = 0.0
        grad = np.zeros_like(b)
    else:
        sb = b / peak
        sq = sb * sb
        coact = sb.T @ sb
        trace = float(np.trace(coact))
        s_off = float(coact.sum()) - trace
        alpha = s_off / ((n - 1) * trace)
        v = np.sum(sq, axis=0)
        v_total = float(v.sum())
        t_diag = float(np.sum(v * v))
        t_off = v_total * v_total - t_diag
        beta = t_off / ((n - 1) * t_diag)

        # affinity gradient with s_diag = ||B||_F^2 (scaled), which equals the
        # trace in exact arithmetic; the value above keeps the trace, as the
        # affinity() reference of tests/test_regularizers.py does, bit for bit
        s_diag = float(np.sum(sq))
        d_off = 2.0 * (sb.sum(axis=1, keepdims=True) - sb)  # 2 B (11^T - I)
        d_diag = 2.0 * sb
        d_affinity = (d_off * s_diag - s_off * d_diag) / ((n - 1) * s_diag * s_diag * peak)
        # balance through v = diag(B^T B); the 1/peak chain factor cancels
        # against the relative v scaling except for one net 1/peak
        dbeta_dv = ((2.0 * v_total - 2.0 * v) * t_diag - t_off * 2.0 * v) / ((n - 1) * t_diag * t_diag)
        d_balance = dbeta_dv[None, :] * (2.0 * sb) / peak
        grad = c_alpha * d_affinity - c_beta * d_balance + 2.0 * c_f * b

    loss = c_alpha * alpha + c_beta * (1.0 - beta)
    if c_f != 0.0:  # avoid 0 * inf when the Frobenius term overflows
        loss += c_f * fro
    terms = GarTerms(affinity=alpha, balance=beta, frobenius_sq=fro, loss=float(loss), degenerate=degenerate)
    return terms, grad

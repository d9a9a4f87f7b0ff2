"""The fused GAR pass against definitional references, hand-derived values
and finite differences."""

import numpy as np
import pytest

from acol.config import ExperimentConfig
from acol.regularizers import gar_value_and_grad

HAND_B = np.array([[1.0, 1.0], [0.0, 2.0]])
_DEFAULTS = ExperimentConfig()
DEFAULT_COEFFS = (_DEFAULTS.c_alpha, _DEFAULTS.c_beta, _DEFAULTS.c_f)


# --- definitional references: the oracle of the fused ratios ----------------


def affinity(b) -> float:
    """Off-diagonal mass of N = B^T B over (n-1) times its trace.

    Returns 0.0 for an all-zero B (degenerate case) instead of dividing
    by zero. The ratio is scale invariant, so B is normalized by its
    largest entry first; extreme activity scales cannot overflow.
    """
    n = b.shape[1]
    peak = float(b.max())
    if peak == 0.0:
        return 0.0
    scaled = b / peak
    coact = scaled.T @ scaled
    diag = float(np.trace(coact))
    off = float(coact.sum()) - diag
    return off / ((n - 1) * diag)


def balance(b) -> float:
    """Off-diagonal mass of v^T v over (n-1) times its diagonal, v = diag(B^T B).

    Returns 0.0 for an all-zero B (degenerate case). Scale invariant, so
    computed on B normalized by its largest entry (overflow safe).
    """
    n = b.shape[1]
    peak = float(b.max())
    if peak == 0.0:
        return 0.0
    scaled = b / peak
    v = np.sum(scaled * scaled, axis=0)
    diag = float(np.sum(v * v))
    total = float(v.sum())
    off = total * total - diag
    return off / ((n - 1) * diag)


def terms_of(b, coeffs=DEFAULT_COEFFS):
    return gar_value_and_grad(b, *coeffs)[0]


def grad_of(b, coeffs):
    return gar_value_and_grad(b, *coeffs)[1]


def fd_grad(b, coeffs, eps=1e-6):
    """Finite differences of the combined loss, entry by entry.

    Central where the entry can move both ways; second-order forward at
    entries too close to the nonnegativity boundary.
    """

    def at(mat):
        return terms_of(mat, coeffs).loss

    out = np.zeros_like(b)
    for i in range(b.shape[0]):
        for j in range(b.shape[1]):
            if b[i, j] >= eps:
                bp = b.copy()
                bp[i, j] += eps
                bm = b.copy()
                bm[i, j] -= eps
                out[i, j] = (at(bp) - at(bm)) / (2 * eps)
            else:
                b1 = b.copy()
                b1[i, j] += eps
                b2 = b.copy()
                b2[i, j] += 2 * eps
                out[i, j] = (-3 * at(b) + 4 * at(b1) - at(b2)) / (2 * eps)
    return out


# --- hand-derived anchor values -------------------------------------------
# For B = [[1,1],[0,2]]: N = [[1,1],[1,5]], trace 6, off-diagonal sum 2,
# so affinity = 2 / (1*6) = 1/3. v = (1,5), V = [[1,5],[5,25]], diagonal
# sum 26, off-diagonal sum 10, so balance = 10 / (1*26) = 5/13.


def test_affinity_hand_value_exact():
    assert affinity(HAND_B) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_balance_hand_value_exact():
    assert balance(HAND_B) == pytest.approx(5.0 / 13.0, abs=1e-12)


def test_gar_terms_loss_hand_value():
    coeffs = (0.1, 0.1, 0.0003)
    # 0.1/3 + 0.1*(8/13) + 0.0003*6
    expect = 0.1 / 3.0 + 0.1 * (8.0 / 13.0) + 0.0003 * 6.0
    terms = terms_of(HAND_B, coeffs)
    assert terms.loss == pytest.approx(expect, abs=1e-12)
    assert terms.affinity == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert terms.balance == pytest.approx(5.0 / 13.0, abs=1e-12)
    assert terms.frobenius_sq == pytest.approx(6.0, abs=1e-12)
    assert not terms.degenerate


# --- bounds and invariances of the fused pass on random matrices -----------


def test_bounds_on_random_nonnegative_matrices():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(2, 9))
        terms = terms_of(rng.uniform(0.0, 3.0, size=(m, n)))
        assert 0.0 <= terms.affinity <= 1.0 + 1e-12
        assert 0.0 <= terms.balance <= 1.0 + 1e-12


def test_scaling_invariance_of_ratio_terms():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = rng.uniform(0.0, 2.0, size=(6, 4)) + 0.01
        terms = terms_of(b)
        for scale in (0.25, 3.0, 117.5):
            scaled = terms_of(scale * b)
            assert scaled.affinity == pytest.approx(terms.affinity, rel=1e-10)
            assert scaled.balance == pytest.approx(terms.balance, rel=1e-10)
        # Frobenius term is NOT scale invariant; it anchors the magnitude
        assert terms_of(2.0 * b).frobenius_sq == pytest.approx(4.0 * terms.frobenius_sq, rel=1e-12)


def test_affinity_zero_for_disjoint_columns_one_for_identical():
    disjoint = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    assert terms_of(disjoint).affinity == 0.0
    identical = np.tile(np.array([[1.0], [2.0]]), (1, 3))
    assert terms_of(identical).affinity == pytest.approx(1.0, abs=1e-12)


def test_balance_one_for_equal_activity_columns():
    b = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    # all columns have v_j = 3, perfectly balanced
    assert terms_of(b).balance == pytest.approx(1.0, abs=1e-12)
    lopsided = np.array([[10.0, 0.1], [10.0, 0.0]])
    assert terms_of(lopsided).balance < 0.01


# --- degenerate all-zero activities ----------------------------------------


def test_degenerate_zero_matrix_flags_and_zero_grad():
    b = np.zeros((4, 3))
    coeffs = DEFAULT_COEFFS
    terms, g = gar_value_and_grad(b, *coeffs)
    assert terms.degenerate
    assert terms.affinity == 0.0 and terms.balance == 0.0 and terms.frobenius_sq == 0.0
    assert terms.loss == pytest.approx(coeffs[1], abs=1e-15)  # only the (1 - 0) term
    assert np.array_equal(g, np.zeros((4, 3)))
    assert np.all(np.isfinite(g))


def test_single_active_entry_not_degenerate():
    b = np.zeros((3, 3))
    b[1, 2] = 0.5
    terms = terms_of(b)
    assert not terms.degenerate
    assert terms.affinity == 0.0  # one column alone has no off-diagonal mass
    assert terms.balance == 0.0  # v has a single nonzero entry


def test_fused_ratios_equal_definitional_references():
    rng = np.random.default_rng(15)
    for _ in range(500):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(2, 10))
        b = rng.uniform(0.0, 3.0, size=(m, n)) * (rng.random((m, n)) < rng.uniform(0.1, 1.0))
        b *= 10.0 ** rng.integers(-200, 200)
        terms = terms_of(b)
        assert terms.affinity == affinity(b)
        assert terms.balance == balance(b)


# --- analytic gradient vs central finite differences -----------------------


def test_gar_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    coeffs = (0.17, 0.29, 0.003)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 7))
        b = rng.uniform(0.05, 2.0, size=(m, n))
        g = grad_of(b, coeffs)
        fd = fd_grad(b, coeffs)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_gar_grad_default_coefficients():
    coeffs = (0.1, 0.1, 0.0003)
    g = grad_of(HAND_B, coeffs)
    fd = fd_grad(HAND_B, coeffs)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_gar_grad_each_term_in_isolation():
    rng = np.random.default_rng(14)
    b = rng.uniform(0.1, 1.5, size=(5, 4))
    for coeffs in (
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ):
        assert np.allclose(grad_of(b, coeffs), fd_grad(b, coeffs), rtol=1e-5, atol=1e-8)
    # pure Frobenius gradient has the closed form 2B
    assert np.allclose(grad_of(b, (0.0, 0.0, 1.0)), 2.0 * b, atol=1e-12)


"""Numeric kernels against closed forms."""

import numpy as np
import pytest

from acol.linalg import as_matrix, relu, require_finite, softmax_rows


def test_as_matrix_rejects_other_ranks():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.ones((2, 2, 2)))
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64


def test_relu_clamps_negatives_only():
    z = np.array([[-1.0, 0.0, 2.5], [3.0, -0.1, 0.0]])
    out = relu(z)
    assert np.array_equal(out, np.array([[0.0, 0.0, 2.5], [3.0, 0.0, 0.0]]))
    assert np.all(relu(-np.abs(np.random.default_rng(1).normal(size=(4, 4)))) == 0.0)


def test_softmax_rows_properties():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.normal(scale=3.0, size=(5, 7))
        p = softmax_rows(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)
        # invariant to a per-row shift
        shifted = softmax_rows(z + rng.normal(size=(5, 1)))
        assert np.allclose(p, shifted, atol=1e-12)


def test_softmax_rows_stable_for_large_inputs():
    p = softmax_rows(np.array([[1000.0, 1001.0], [-1000.0, -999.0]]))
    assert np.all(np.isfinite(p))
    expect = 1.0 / (1.0 + np.e)
    assert np.allclose(p[:, 0], expect, atol=1e-12)


def test_softmax_rows_matches_direct_formula_small_values():
    z = np.array([[0.1, 0.2, -0.3]])
    direct = np.exp(z) / np.exp(z).sum()
    assert np.allclose(softmax_rows(z), direct, atol=1e-14)


def test_require_finite_passes_and_rejects():
    ok = require_finite(np.ones((2, 2)))
    assert ok.shape == (2, 2)
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.ones(3)
        arr[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            require_finite(arr, "params")

"""Minimal dense float64 kernels used by every other module."""

import numpy as np


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def relu(z) -> np.ndarray:
    """Entry-wise max(0, z) of a float64 matrix, such as ``network.forward``'s Z."""
    return np.maximum(0.0, z)


def softmax_rows(z) -> np.ndarray:
    """Row-wise softmax of a float64 matrix, stable via row-max subtraction."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def require_finite(a, name: str = "matrix") -> np.ndarray:
    """Reject NaN/Inf entries; used where corrupt values must not propagate."""
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr

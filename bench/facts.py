"""Machine facts and computed (not measured) work counts.

The FLOP and byte counts are arithmetic on the layer sizes, labelled
``computed`` wherever they are printed. A training step's useful FLOPs are
the forward pass, the weight gradients, and the input gradients of every
layer but the first (the input gradient of layer 0 is not needed).
"""

import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_BYTES = 8


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    value = out.stdout.strip()
    return int(value) if out.returncode == 0 and value.isdigit() else None


def machine(child_env: dict) -> dict:
    """nproc, cache sizes, BLAS build, thread settings, interpreter versions."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: child_env.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def step_flops(sizes, rows: int) -> int:
    """Useful FLOPs of one training step on ``rows`` examples."""
    pairs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return 2 * rows * (2 * sum(pairs) + sum(pairs[1:]))


def counts(sizes, batch: int, eval_pass_rows, cache: dict) -> dict:
    """Computed work per training step and per eval row, and the largest
    eval pass's working set against the caches."""
    params = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
    widest = max(sizes[1:])
    rows = max(eval_pass_rows)
    # a pass keeps a layer's pre-activation and its relu output alive together
    working_set = 2 * rows * widest * FLOAT_BYTES
    return {
        "layer_sizes": list(sizes),
        "params": params,
        "step_gflop": step_flops(sizes, batch) / 1e9,
        "step_param_bytes": params * FLOAT_BYTES,
        "step_activation_bytes": batch * (sum(sizes) + sum(sizes[1:])) * FLOAT_BYTES,
        "eval_row_flop": 2 * sum(a * b for a, b in zip(sizes[:-1], sizes[1:])),
        "eval_row_bytes": sum(sizes) * FLOAT_BYTES,
        "eval_pass_rows": list(eval_pass_rows),
        "eval_working_set_bytes": working_set,
        "working_set_over_l2": working_set / cache["l2_bytes"] if cache.get("l2_bytes") else None,
        "working_set_over_l3": working_set / cache["l3_bytes"] if cache.get("l3_bytes") else None,
    }

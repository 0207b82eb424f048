"""Dense numeric kernels shared by the whole runtime.

All kernels are pure functions over numpy arrays, compute in a fixed
reduction order (ascending index along the contracted axis), and never
let NaN/Inf escape silently.  float32 is the working dtype; float64 is
used only by oracle-side reference code.
"""

from __future__ import annotations

import numpy as np

# Additive mask sentinel: exp(-inf) == 0 exactly after softmax.
NEG_INF = np.float32(-np.inf)

# Scores per block of query rows: caps the [rows, keys] temporaries (peak RSS).
_BLOCK_SCORES = 1 << 16


def row_block(n_keys: int, rep: int) -> int:
    """Rows per block when ``rep`` heads score each row against ``n_keys`` keys."""
    return max(1, _BLOCK_SCORES // (n_keys * rep))


class ShapeError(ValueError):
    """Operand shapes are incompatible with the kernel's contract."""


class NumericError(FloatingPointError):
    """A kernel produced a non-finite value."""


def _check_finite(x: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite value produced by {where}")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with matching inner dimensions and dtypes."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype} vs {b.dtype}")
    return _check_finite(a @ b, "matmul")


def row_softmax(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``scale * x`` with max-subtraction.

    Entries equal to -inf are treated as masked and map to exactly 0.
    A row with every entry masked has no well-defined distribution and
    raises instead of returning NaNs.  ``x`` is left unchanged: the
    shift, exp and division run in place in one scratch array.
    """
    if x.shape[-1] < 1:
        raise ShapeError("row_softmax: empty rows")
    z = np.float32(scale) * x
    row_max = np.max(z, axis=-1, keepdims=True)
    if not np.isfinite(row_max).all():
        raise NumericError("row_softmax: fully masked row")
    z -= row_max
    np.exp(z, out=z)
    z /= np.sum(z, axis=-1, keepdims=True)
    return _check_finite(z.astype(x.dtype, copy=False), "row_softmax")


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """Root-mean-square normalization per row, scaled by ``gain``."""
    if eps <= 0:
        raise ValueError("rms_norm: eps must be positive")
    if gain.shape[-1] != x.shape[-1]:
        raise ShapeError(f"rms_norm: gain width {gain.shape} vs input {x.shape}")
    ms = np.mean(np.square(x, dtype=x.dtype), axis=-1, keepdims=True)
    out = x / np.sqrt(ms + np.asarray(eps, dtype=x.dtype)) * gain
    return _check_finite(out, "rms_norm")


def swiglu(x_gate: np.ndarray, x_up: np.ndarray) -> np.ndarray:
    """Gated activation: silu(x_gate) * x_up, elementwise."""
    if x_gate.shape != x_up.shape:
        raise ShapeError(f"swiglu: shape mismatch {x_gate.shape} vs {x_up.shape}")
    silu = x_gate / (1.0 + np.exp(-x_gate, dtype=x_gate.dtype))
    return _check_finite((silu * x_up).astype(x_gate.dtype, copy=False), "swiglu")

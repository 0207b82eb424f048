"""Dense numeric kernels shared by the whole runtime.

Kernels compute in a fixed reduction order (ascending index along the
contracted axis) and never let NaN/Inf escape silently.  ``row_softmax``
works in place in the caller's score buffer; the others are pure functions.
float32 is the working dtype; float64 is used only by oracle-side code.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Additive mask sentinel: exp(-inf) == 0 exactly after softmax.
NEG_INF = np.float32(-np.inf)

# Scores per block of query rows: caps the [rows, keys] score workspace and
# the row blocks an AttentionPlan lays out (peak RSS).
_BLOCK_SCORES = 1 << 16


def row_block(n_keys: int, rep: int) -> int:
    """Rows per block when ``rep`` heads score each row against ``n_keys`` keys."""
    return max(1, _BLOCK_SCORES // (n_keys * rep))


class ShapeError(ValueError):
    """Operand shapes are incompatible with the kernel's contract."""


class NumericError(FloatingPointError):
    """A kernel produced a non-finite value."""


@lru_cache(maxsize=16)
def softmax_scale(d_head: int) -> np.float32:
    """1/sqrt(d_head) as the float32 scalar both attention passes scale their queries by."""
    return np.float32(1.0 / np.sqrt(np.float32(d_head)))


def check_finite(x: np.ndarray, where: str) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(x), axis=None):  # x.all() without its wrapper
        raise NumericError(f"non-finite value produced by {where}")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with matching inner dimensions and dtypes."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype} vs {b.dtype}")
    return check_finite(a @ b, "matmul")


def row_softmax(x: np.ndarray, *, sums: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Unnormalized row-wise softmax of ``x``, in place: ``x``, the caller's
    already-scaled score buffer, is shifted by its row max and
    exponentiated, and ``(x, row sums)`` is returned, or ``(x, None)`` when
    ``sums`` is False; callers divide their small outputs by the sums.
    Masked (-inf) entries map to exactly 0 and each row's max to exactly 1.
    A fully masked row, or a NaN or +inf score, has no distribution and
    raises.
    """
    if x.shape[-1] < 1:
        raise ShapeError("row_softmax: empty rows")
    row_max = np.maximum.reduce(x, axis=-1, keepdims=True)  # np.max without its wrapper
    # a NaN anywhere in a row makes its max NaN
    if not np.logical_and.reduce(np.isfinite(row_max), axis=None):
        bad = (np.isnan(row_max) | np.isposinf(row_max)).any()
        raise NumericError(f"row_softmax: {'non-finite score' if bad else 'fully masked row'}")
    x -= row_max
    np.exp(x, out=x)
    return x, np.add.reduce(x, axis=-1, keepdims=True) if sums else None


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """Root-mean-square normalization per row, scaled by ``gain``, in one new array."""
    if eps <= 0:
        raise ValueError("rms_norm: eps must be positive")
    if gain.shape[-1] != x.shape[-1]:
        raise ShapeError(f"rms_norm: gain width {gain.shape} vs input {x.shape}")
    out = np.square(x, dtype=x.dtype)
    ms = np.add.reduce(out, axis=-1, keepdims=True)  # np.mean's sum and divide, without its wrapper
    ms /= np.float32(x.shape[-1])
    ms += np.asarray(eps, dtype=x.dtype)
    np.divide(x, np.sqrt(ms, out=ms), out=out)
    out *= gain
    return check_finite(out, "rms_norm")


def swiglu(x_gate: np.ndarray, x_up: np.ndarray) -> np.ndarray:
    """Gated activation: silu(x_gate) * x_up, elementwise, in one new array."""
    if x_gate.shape != x_up.shape:
        raise ShapeError(f"swiglu: shape mismatch {x_gate.shape} vs {x_up.shape}")
    out = np.negative(x_gate)
    np.exp(out, out=out)
    out += 1.0
    np.divide(x_gate, out, out=out)
    out *= x_up
    return check_finite(out, "swiglu")

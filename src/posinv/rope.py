"""Rotary position encoding.

Consecutive pairs (x[2i], x[2i+1]) of each head vector are rotated by
angle pos * theta**(-2i/d), so attention logits depend only on relative
positions.  Rotation preserves the vector norm.

Read as the complex number x[2i] + i·x[2i+1], a pair's rotation is one
multiply by the phase e^{i·pos·θ_i} = cos + i·sin (RoFormer's form).
``rotate`` gathers the phases from a read-only table of every position
below a power of two, built once per (d_head, theta, size), and makes
one complex multiply, broadcast over heads and over the positions a row
is rotated to.  Each element's product reads only its own pair and
phase, so a row gets the same bits alone, inside a block or broadcast.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernels import ShapeError

# Positions the smallest phase table holds; larger tables double it.
_MIN_TABLE = 64
# Positions below 2**24 are exact in the float32 angle.
_POSITION_BITS = 24


@lru_cache(maxsize=16)
def _inv_freq(d_head: int, theta: float) -> np.ndarray:
    """theta**(-2i/d) for each pair i; built once per (d_head, theta) and
    read-only, since every caller shares the cached array."""
    exponents = np.arange(0, d_head, 2, dtype=np.float32) / np.float32(d_head)
    inv_freq = np.float32(theta) ** (-exponents)
    inv_freq.flags.writeable = False
    return inv_freq


@lru_cache(maxsize=16)
def _phase_table(d_head: int, theta: float, size: int) -> np.ndarray:
    """[size, d_head // 2] complex64 phases cos + i·sin of the float32 angle
    pos * theta**(-2i/d), for every pos < size; read-only, like ``_inv_freq``."""
    ang = np.arange(size, dtype=np.float32)[:, None] * _inv_freq(d_head, theta)
    table = np.empty(ang.shape, dtype=np.complex64)
    table.real, table.imag = np.cos(ang), np.sin(ang)
    table.flags.writeable = False
    return table


def rotate(x: np.ndarray, positions, theta: float) -> np.ndarray:
    """Rotate float32 x [..., d_head] by integer ``positions``, whose shape is
    x's leading axes: each row of x gets its own position, and the axes of x
    after them (the heads) share it.  Where x has size 1 on a leading axis,
    it is rotated to each of the positions along it.  Positions that do not
    match x's leading axes raise ``ShapeError``."""
    d_head = x.shape[-1]
    if d_head % 2 != 0:
        raise ShapeError(f"rope: head dimension must be even, got {d_head}")
    pos = np.asarray(positions)
    if pos.ndim >= x.ndim or (x.shape[:pos.ndim] != pos.shape and any(
            a != b and a != 1 for a, b in zip(x.shape, pos.shape))):
        raise ShapeError(f"rope: positions of shape {pos.shape} do not match the "
                         f"leading axes of x {x.shape}")
    if pos.dtype.kind not in "iu":
        raise ShapeError(f"rope: positions must be integers, got {pos.dtype}")
    if x.dtype != np.float32:
        raise ShapeError(f"rope: x must be float32, got {x.dtype}")
    # one OR bounds both ends (a negative position sets the sign) and has the max's bit length
    bits = int(np.bitwise_or.reduce(pos, axis=None))
    if bits >> _POSITION_BITS:
        raise ValueError(f"rope: positions must lie in 0 .. {(1 << _POSITION_BITS) - 1}")
    table = _phase_table(d_head, theta, max(_MIN_TABLE, 1 << bits.bit_length()))
    phase = table[pos].reshape(pos.shape + (1,) * (x.ndim - 1 - pos.ndim) + (d_head // 2,))
    if x.strides[-1] != x.itemsize:  # the pairs must be adjacent to read as complex
        x = x.copy()
    return (x.view(np.complex64) * phase).view(np.float32)

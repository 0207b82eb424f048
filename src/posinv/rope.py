"""Rotary position encoding.

Consecutive pairs (x[2i], x[2i+1]) of each head vector are rotated by
angle pos * theta**(-2i/d), so attention logits depend only on relative
positions.  Rotation preserves the vector norm.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernels import ShapeError


def rope_angles(positions: np.ndarray, d_head: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape (len(positions), d_head // 2)."""
    if d_head % 2 != 0:
        raise ShapeError(f"rope: head dimension must be even, got {d_head}")
    ang = np.asarray(positions, dtype=np.float32)[:, None] * _inv_freq(d_head, theta)[None, :]
    return np.cos(ang), np.sin(ang)


@lru_cache(maxsize=16)
def _inv_freq(d_head: int, theta: float) -> np.ndarray:
    """theta**(-2i/d) for each pair i; built once per (d_head, theta) and
    read-only, since every caller shares the cached array."""
    exponents = np.arange(0, d_head, 2, dtype=np.float32) / np.float32(d_head)
    inv_freq = np.float32(theta) ** (-exponents)
    inv_freq.flags.writeable = False
    return inv_freq


def rotate(x: np.ndarray, positions, theta: float) -> np.ndarray:
    """Rotate rows of x ([t, d_head] or [t, n_heads, d_head]) by their
    positions; every head of a row shares its position."""
    x = np.atleast_2d(x)
    cos, sin = rope_angles(np.asarray(positions), x.shape[-1], theta)
    if x.ndim == 3:
        cos, sin = cos[:, None, :], sin[:, None, :]
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out

import numpy as np
import pytest

from posinv.kernels import ShapeError
from posinv import rope
from posinv.rope import rotate


class TestRotate:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        assert np.array_equal(rotate(x, [0, 0, 0], 10000.0), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 16)).astype(np.float32)
        out = rotate(x, [3, 11, 7, 100, 999], 10000.0)
        assert np.max(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(x, axis=-1))) < 1e-5

    def test_relative_position_identity(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 16)).astype(np.float32)
        k = rng.normal(size=(1, 16)).astype(np.float32)
        lhs = float(np.dot(rotate(q, [3], 10000.0)[0], rotate(k, [1], 10000.0)[0]))
        rhs = float(np.dot(rotate(q, [14], 10000.0)[0], rotate(k, [12], 10000.0)[0]))
        assert abs(lhs - rhs) < 1e-4

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ShapeError):
            rotate(np.zeros((1, 3), dtype=np.float32), [0], 10000.0)


class TestApplyRope:
    def test_multi_head_matches_per_head(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 8)).astype(np.float32)
        pos = [0, 2, 5, 9]
        out = rotate(x, pos, 10000.0)
        for h in range(2):
            assert np.array_equal(out[:, h, :], rotate(x[:, h, :], pos, 10000.0))


class TestRopeAngles:
    def test_frequency_table_cached_read_only_and_exact(self):
        table = rope._inv_freq(16, 10000.0)
        assert rope._inv_freq(16, 10000.0) is table
        assert not table.flags.writeable
        exponents = np.arange(0, 16, 2, dtype=np.float32) / np.float32(16)
        assert np.array_equal(table, np.float32(10000.0) ** (-exponents))
        pos = np.array([0, 3, 250, 4095])
        cos, sin = rope.rope_angles(pos, 16, 10000.0)
        ang = pos.astype(np.float32)[:, None] * (np.float32(10000.0) ** (-exponents))[None, :]
        assert np.array_equal(cos, np.cos(ang)) and np.array_equal(sin, np.sin(ang))

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

    @pytest.mark.parametrize("positions", [[3], [1, 2], [[0, 1]] * 5, np.zeros((5, 16, 1), int)])
    def test_positions_must_match_leading_axes(self, positions):
        # One position per row: a lone position is not shared by five rows.
        with pytest.raises(ShapeError, match="do not match"):
            rotate(np.ones((5, 16), dtype=np.float32), positions, 10000.0)

    def test_out_of_range_or_fractional_positions_rejected(self):
        x = np.ones((2, 8), dtype=np.float32)
        for bad in ([0, -1], [0, 1 << 24]):
            with pytest.raises(ValueError, match="must lie in"):
                rotate(x, bad, 10000.0)
        with pytest.raises(ShapeError, match="integers"):
            rotate(x, [0.0, 1.5], 10000.0)

    @pytest.mark.parametrize("bad", [np.array([3, -1]), np.array([3, 1 << 24]),
                                     np.array([3, 1 << 63], dtype=np.uint64)],
                             ids=["-1", "2**24", "uint64 2**63"])
    def test_positions_outside_24_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="must lie in 0 .. 16777215"):
            rotate(np.ones((2, 8), dtype=np.float32), bad, 10000.0)

    def test_largest_position_accepted(self, monkeypatch):
        # 2**24 - 1 is rotated from a table of 2**24 positions, stood in for
        # here by one that builds only the phases it is asked for.
        sizes = []

        class Phases:
            def __init__(self, d_head, theta, size):
                sizes.append(size)
                self.inv_freq = rope._inv_freq(d_head, theta)

            def __getitem__(self, pos):
                ang = pos.astype(np.float32)[..., None] * self.inv_freq
                return (np.cos(ang) + 1j * np.sin(ang)).astype(np.complex64)

        monkeypatch.setattr(rope, "_phase_table", Phases)
        x = np.ones((2, 8), dtype=np.float32)
        out = rotate(x, np.array([0, (1 << 24) - 1]), 10000.0)
        assert sizes == [1 << 24]
        assert out[0].tobytes() == x[0].tobytes()
        assert np.allclose(np.linalg.norm(out[1]), np.linalg.norm(x[1]), rtol=1e-6)


class TestRotationIsElementwise:
    """A row's rotation reads only its own pairs and phases, so it gives the
    same bits however it is batched: the argument behind every bitwise
    invariance claim, and behind keys rotated piecewise as the cache writes
    them."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(37, 3, 16)).astype(np.float32)
        self.pos = rng.integers(0, 200, size=37)
        self.block = rotate(self.x, self.pos, 10000.0)

    def test_alone_equals_inside_a_block(self):
        for i in range(len(self.x)):
            alone = rotate(self.x[i:i + 1], self.pos[i:i + 1], 10000.0)
            assert alone.tobytes() == self.block[i:i + 1].tobytes(), i
            for h in range(3):
                head = rotate(self.x[i:i + 1, h], self.pos[i:i + 1], 10000.0)
                assert head.tobytes() == self.block[i:i + 1, h].tobytes(), (i, h)
        for rows in (slice(None, None, 2), slice(None, None, -1)):
            strided = rotate(self.x[rows], self.pos[rows], 10000.0)
            assert strided.tobytes() == self.block[rows].tobytes(), rows

    def test_broadcast_over_heads_and_shifts(self):
        rng = np.random.default_rng(6)
        shifts = rng.integers(0, 200, size=(5, 37))
        shifts[0] = self.pos
        every = rotate(self.x[None], shifts, 10000.0)  # each row at 5 positions
        assert every.shape == (5, 37, 3, 16)
        assert every[0].tobytes() == self.block.tobytes()
        per_head = rotate(self.x, np.repeat(self.pos[:, None], 3, axis=1), 10000.0)
        assert per_head.tobytes() == self.block.tobytes()
        for s in range(5):
            for i in range(0, 37, 6):
                alone = rotate(self.x[i:i + 1], shifts[s, i:i + 1], 10000.0)
                assert every[s, i:i + 1].tobytes() == alone.tobytes(), (s, i)

    def test_tables_of_other_sizes_agree(self):
        # A position of 5000 makes the call gather from an 8192-row table.
        far = rotate(np.concatenate([self.x, self.x[:1]]), np.append(self.pos, 5000), 10000.0)
        assert far[:37].tobytes() == self.block.tobytes()

    def test_position_zero_is_identity_in_every_table(self):
        for top in (0, 63, 64, 5000):
            x = np.concatenate([self.x, self.x[:1]])
            out = rotate(x, np.append(np.zeros(37, int), top), 10000.0)
            assert out[:37].tobytes() == self.x.tobytes(), top


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
        phases = rope._phase_table(16, 10000.0, 4096)
        assert rope._phase_table(16, 10000.0, 4096) is phases
        assert not phases.flags.writeable
        pos = np.array([0, 3, 250, 4095])
        ang = pos.astype(np.float32)[:, None] * (np.float32(10000.0) ** (-exponents))[None, :]
        assert np.array_equal(phases[pos].real, np.cos(ang))
        assert np.array_equal(phases[pos].imag, np.sin(ang))

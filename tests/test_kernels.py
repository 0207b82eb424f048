import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv.kernels import NEG_INF, NumericError, ShapeError, matmul, rms_norm, row_softmax, swiglu


def f32(x):
    return np.asarray(x, dtype=np.float32)


class TestMatmul:
    def test_identity(self):
        out = matmul(f32([[1, 0], [0, 1]]), f32([[3, 4], [5, 6]]))
        assert np.array_equal(out, f32([[3, 4], [5, 6]]))

    def test_scalar(self):
        assert matmul(f32([[2]]), f32([[3]]))[0, 0] == 6

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        ref = np.zeros((5, 3), dtype=np.float64)
        for i in range(5):
            for j in range(3):
                for r in range(7):
                    ref[i, j] += float(a[i, r]) * float(b[r, j])
        assert np.max(np.abs(matmul(a, b) - ref)) < 1e-6

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(f32([[1, 2]]), f32([[1, 2]]))

    def test_dtype_error(self):
        with pytest.raises(ShapeError):
            matmul(f32([[1]]), np.asarray([[1.0]], dtype=np.float64))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 8)).astype(np.float32)
        b = rng.normal(size=(8, 8)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul(a, b))


def softmax_parts64(z):
    """Float64 reference of row_softmax: the exponentials and row sums."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e, e.sum(axis=-1, keepdims=True)


class TestRowSoftmax:
    def test_uniform_logits(self):
        e, sums = row_softmax(f32([[0, 0, 0]]))
        assert np.array_equal(e, f32([[1, 1, 1]]))
        assert np.array_equal(sums, f32([[3]]))

    def test_single_visible_key(self):
        e, sums = row_softmax(np.asarray([[NEG_INF, 0.0]], dtype=np.float32))
        assert e[0, 0] == 0.0
        assert e[0, 1] == 1.0
        assert sums[0, 0] == 1.0

    def test_float64_reference(self):
        row = np.asarray([[1.0, 2.0, 3.0]])
        ref_e = np.exp(row - 3.0)
        ref_sums = ref_e.sum(axis=-1, keepdims=True)
        e, sums = row_softmax(row.copy())
        assert e.dtype == sums.dtype == np.float64
        assert np.max(np.abs(e - ref_e)) < 1e-9
        assert np.max(np.abs(sums - ref_sums)) < 1e-9
        assert np.max(np.abs(e / sums - ref_e / ref_sums)) < 1e-9

    def test_float32_against_float64_reference(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=4.0, size=(9, 31)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = NEG_INF
        x[:, 5] = rng.normal(size=9)  # every row keeps a visible key
        x *= 1.0 / np.sqrt(np.float32(32))  # scores arrive scaled
        ref_e, ref_sums = softmax_parts64(x)
        e, sums = row_softmax(x.copy())
        assert np.max(np.abs(e - ref_e)) < 1e-6
        assert np.max(np.abs(sums / ref_sums - 1)) < 1e-6
        assert np.max(np.abs(e / sums - ref_e / ref_sums)) < 1e-6

    def test_masked_entries_exactly_zero_and_row_max_exactly_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=8.0, size=(40, 17)).astype(np.float32)
        hidden = rng.random(x.shape) < 0.5
        hidden[:, 3] = False
        x[hidden] = NEG_INF
        x *= np.float32(0.7)  # scores arrive scaled
        top = np.argmax(x, axis=-1)
        e, _ = row_softmax(x)
        assert (e[hidden] == 0).all()
        assert (e[np.arange(40), top] == 1).all()
        assert ((e >= 0) & (e <= 1)).all()

    def test_in_place_and_bitwise_the_out_of_place_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=4.0, size=(37, 53)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = NEG_INF
        x[:, 0] = rng.normal(size=37)  # every row keeps a visible key
        z = x * (1.0 / np.sqrt(np.float32(32)))  # scores arrive scaled
        ref_e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        e, sums = row_softmax(z)
        assert e is z
        assert e.tobytes() == ref_e.tobytes()
        assert sums.tobytes() == np.sum(ref_e, axis=-1, keepdims=True).tobytes()

    def test_without_row_sums(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=4.0, size=(6, 11)).astype(np.float32)
        ref_e, _ = row_softmax(x.copy())
        e, sums = row_softmax(x, sums=False)
        assert e is x and sums is None
        assert e.tobytes() == ref_e.tobytes()
        with pytest.raises(TypeError):
            row_softmax(x, 0.5)  # no scale argument: callers pass scaled scores

    def test_empty_rows(self):
        with pytest.raises(ShapeError, match="empty rows"):
            row_softmax(np.zeros((2, 0), dtype=np.float32))

    def test_fully_masked_row(self):
        with pytest.raises(NumericError, match="fully masked"):
            row_softmax(np.asarray([[NEG_INF, NEG_INF]], dtype=np.float32))
        with pytest.raises(NumericError, match="fully masked"):
            row_softmax(np.asarray([[0.0, 1.0], [NEG_INF, NEG_INF]], dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score(self, bad):
        for x in ([[bad, 0.0]], [[NEG_INF, bad]], [[NEG_INF, NEG_INF], [0.0, bad]]):
            with pytest.raises(NumericError, match="non-finite score"):
                row_softmax(np.asarray(x, dtype=np.float32))

    @given(
        st.lists(st.floats(-50, 50, width=32), min_size=1, max_size=8),
        st.floats(0.01, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_normalized(self, row, scale):
        e, sums = row_softmax(f32([row]) * np.float32(scale))  # scores arrive scaled
        assert ((e >= 0) & (e <= 1)).all()
        assert e.max() == 1
        assert abs(float((e / sums).sum()) - 1.0) < 1e-6


class TestRmsNorm:
    def test_zero_row(self):
        out = rms_norm(f32([[0, 0, 0, 0]]), f32([1, 1, 1, 1]), 1e-5)
        assert np.array_equal(out, np.zeros((1, 4), dtype=np.float32))

    def test_constant_row(self):
        c, eps = 2.5, 1e-5
        out = rms_norm(f32([[c] * 4]), f32([1] * 4), eps)
        assert np.allclose(out, c / np.sqrt(c * c + eps), atol=1e-6)

    def test_float64_reference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        g = rng.normal(size=8).astype(np.float32)
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        ref = x64 / np.sqrt(np.mean(x64**2, axis=-1, keepdims=True) + 1e-5) * g64
        assert np.max(np.abs(rms_norm(x, g, 1e-5) - ref)) < 1e-6

    def test_inputs_unchanged_and_output_the_out_of_place_formula(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=3.0, size=(983, 512)).astype(np.float32)
        g = rng.normal(size=512).astype(np.float32)
        held = x.tobytes(), g.tobytes()
        out = rms_norm(x, g, 1e-5)
        assert (x.tobytes(), g.tobytes()) == held
        ms = np.mean(np.square(x, dtype=x.dtype), axis=-1, keepdims=True)
        assert out.tobytes() == (x / np.sqrt(ms + np.float32(1e-5)) * g).tobytes()

    def test_bitwise_the_mean_formula_at_every_width(self):
        # rms_norm takes np.mean's sum and division without its wrapper: the
        # mean of squares is bitwise np.mean's, powers of two or not.
        rng = np.random.default_rng(7)
        for width in (1, 2, 3, 7, 31, 32, 100, 255, 256, 257, 511, 512, 983, 1000):
            x = rng.normal(scale=3.0, size=(5, width)).astype(np.float32)
            g = rng.normal(size=width).astype(np.float32)
            ms = np.mean(np.square(x, dtype=x.dtype), axis=-1, keepdims=True)
            ref = x / np.sqrt(ms + np.float32(1e-5)) * g
            assert rms_norm(x, g, 1e-5).tobytes() == ref.tobytes(), width
            assert rms_norm(x[:1], g, 1e-5).tobytes() == ref[:1].tobytes(), width

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            rms_norm(f32([[1.0]]), f32([1.0]), 0.0)


class TestSwiglu:
    def test_zero_gate(self):
        out = swiglu(f32([[0, 0]]), f32([[5, -3]]))
        assert np.array_equal(out, np.zeros((1, 2), dtype=np.float32))

    def test_large_gate_asymptote(self):
        u = f32([[0.7]])
        out = swiglu(f32([[20.0]]), u)
        assert abs(float(out[0, 0]) - 20.0 * 0.7) < 1e-4

    def test_float64_reference(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(2, 6)).astype(np.float32)
        u = rng.normal(size=(2, 6)).astype(np.float32)
        g64, u64 = g.astype(np.float64), u.astype(np.float64)
        ref = g64 / (1 + np.exp(-g64)) * u64
        assert np.max(np.abs(swiglu(g, u) - ref)) < 1e-6

    def test_inputs_unchanged_and_output_the_out_of_place_formula(self):
        rng = np.random.default_rng(7)
        g = rng.normal(scale=4.0, size=(983, 512)).astype(np.float32)
        u = rng.normal(size=(983, 512)).astype(np.float32)
        held = g.tobytes(), u.tobytes()
        out = swiglu(g, u)
        assert (g.tobytes(), u.tobytes()) == held
        assert out.dtype == np.float32
        assert out.tobytes() == (g / (1.0 + np.exp(-g, dtype=g.dtype)) * u).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            swiglu(f32([[1, 2]]), f32([[1, 2, 3]]))

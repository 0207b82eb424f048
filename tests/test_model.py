import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv import (
    AttentionMode,
    GenerationParams,
    Model,
    ModelConfig,
    SegmentedPrompt,
    WeightError,
    build_mask,
    decode_step,
    generate,
    init_random,
    load_weights,
    prefill,
    save_weights,
    tokenize,
)
from posinv import modes
from posinv.kernels import ShapeError
from posinv.model import load_config, load_tensors, save_tensors

VANILLA = AttentionMode("vanilla")
PINE = AttentionMode("pine")


def checksum(weights):
    return {name: float(np.sum(arr)) for name, arr in weights.tensors.items()}


class TestConfig:
    def test_dimension_invariant(self):
        with pytest.raises(WeightError):
            ModelConfig(n_layers=1, n_heads=2, n_kv_heads=1, d_model=30, d_head=16,
                        d_ff=32, vocab_size=260)

    def test_gqa_divisibility(self):
        with pytest.raises(WeightError):
            ModelConfig(n_layers=1, n_heads=3, n_kv_heads=2, d_model=48, d_head=16,
                        d_ff=32, vocab_size=260)

    def test_vocab_must_cover_bytes_and_specials(self):
        # Byte ids 0-255, BOS 256 and EOS 257 all need an embedding row.
        ModelConfig(n_layers=1, n_heads=2, n_kv_heads=1, d_model=32, d_head=16,
                    d_ff=32, vocab_size=258)
        with pytest.raises(WeightError, match="vocab_size"):
            ModelConfig(n_layers=1, n_heads=2, n_kv_heads=1, d_model=32, d_head=16,
                        d_ff=32, vocab_size=257)

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 0), ("n_layers", -1), ("n_heads", 0), ("n_kv_heads", 0), ("d_head", 0),
        ("d_ff", -4), ("max_seq_len", 0), ("norm_eps", 0.0), ("norm_eps", -1e-5),
        ("norm_eps", float("nan")), ("rope_theta", 0.0),
    ])
    def test_non_positive_size_or_constant_rejected(self, tiny_config, field, value):
        with pytest.raises(WeightError, match=field):
            ModelConfig(**{**vars(tiny_config), field: value})

    # Lines of known or arbitrary keys and values, mixed with raw bytes.
    _config_line = st.builds(
        lambda key, value: f"{key}={value}".encode("utf-8", "surrogatepass"),
        st.sampled_from([*ModelConfig.__dataclass_fields__, "bogus"]) | st.text(max_size=4),
        st.integers(-2, 300).map(str) | st.text(max_size=6),
    )

    @given(st.one_of(
        st.binary(max_size=64),
        st.lists(_config_line | st.binary(max_size=6), max_size=12).map(b"\n".join),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_load_or_raise_weight_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.txt"
            path.write_bytes(data)
            try:
                config = load_config(path)
            except WeightError:
                return
        assert isinstance(config, ModelConfig)


class TestWeightIO:
    def test_roundtrip(self, tmp_path, tiny_model):
        wpath, cpath = tmp_path / "w.bin", tmp_path / "c.txt"
        save_weights(wpath, cpath, tiny_model)
        config, weights = load_weights(wpath, cpath)
        assert config == tiny_model.config
        for name, arr in tiny_model.weights.tensors.items():
            assert np.array_equal(weights[name], arr)

    def test_missing_tensor_named(self, tmp_path, tiny_model):
        wpath, cpath = tmp_path / "w.bin", tmp_path / "c.txt"
        save_weights(wpath, cpath, tiny_model)
        tensors = load_tensors(wpath)
        del tensors["layers.0.q_proj.weight"]
        save_tensors(wpath, tensors)
        with pytest.raises(WeightError, match="layers.0.q_proj.weight"):
            load_weights(wpath, cpath)

    def test_shape_mismatch_named(self, tmp_path, tiny_model):
        wpath, cpath = tmp_path / "w.bin", tmp_path / "c.txt"
        save_weights(wpath, cpath, tiny_model)
        tensors = load_tensors(wpath)
        tensors["embed.weight"] = tensors["embed.weight"][:, :16]
        save_tensors(wpath, tensors)
        with pytest.raises(WeightError, match="embed.weight"):
            load_weights(wpath, cpath)



def write_container(path, header, payload=b"", header_len=None):
    blob = json.dumps(header).encode()
    n = len(blob) if header_len is None else header_len
    Path(path).write_bytes(struct.pack("<Q", n) + blob + payload)
    return path


F32_ENTRY = {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}


class TestMalformedContainer:
    @pytest.mark.parametrize("header, match", [
        ({"t": {"shape": [2], "data_offsets": [0, 8]}}, "dtype"),
        ([F32_ENTRY], "JSON object"),
        ({"t": {**F32_ENTRY, "shape": "ab"}}, "shape"),
        ({"t": {**F32_ENTRY, "shape": [-2]}}, "shape"),
        ({"t": {**F32_ENTRY, "dtype": ["F32"]}}, "dtype"),
        ({"t": {**F32_ENTRY, "data_offsets": [0, 16]}}, "data_offsets"),
        ({"t": {**F32_ENTRY, "data_offsets": [8, 0]}}, "data_offsets"),
        ({"t": {**F32_ENTRY, "data_offsets": [-4, 4]}}, "data_offsets"),
        ({"t": {**F32_ENTRY, "data_offsets": [0, 4]}}, "payload size"),
        ({"t": "F32"}, "entry"),
    ])
    def test_typed_error(self, tmp_path, header, match):
        path = write_container(tmp_path / "w.bin", header, bytes(8))
        with pytest.raises(WeightError, match=match):
            load_tensors(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        path = write_container(tmp_path / "w.bin", {"t": F32_ENTRY}, bytes(8), header_len=10_000)
        with pytest.raises(WeightError, match="past the end"):
            load_tensors(path)

    def test_well_formed_entry_loads(self, tmp_path):
        payload = np.asarray([1.5, -2.0], dtype="<f4").tobytes()
        path = write_container(tmp_path / "w.bin", {"t": F32_ENTRY}, payload)
        assert np.array_equal(load_tensors(path)["t"], [1.5, -2.0])

    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda header, payload, cut: struct.pack("<Q", len(header)) + header[:cut] + payload,
            st.dictionaries(
                st.sampled_from(["a", "b"]),
                st.fixed_dictionaries({}, optional={
                    "dtype": st.sampled_from(["F32", "F64", "I8", 4, None]),
                    "shape": st.one_of(st.lists(st.integers(-2, 4), max_size=3),
                                       st.text(max_size=2)),
                    "data_offsets": st.lists(st.integers(-4, 40), max_size=3),
                }),
                max_size=2,
            ).map(lambda h: json.dumps(h).encode()),
            st.binary(max_size=40),
            st.integers(0, 200),
        ),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_load_or_raise_weight_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "w.bin"
            path.write_bytes(data)
            try:
                tensors = load_tensors(path)
            except WeightError:
                return
        assert all(isinstance(arr, np.ndarray) for arr in tensors.values())


class TestInitRandom:
    def test_seed_determinism(self, tiny_config):
        assert checksum(init_random(tiny_config, 7)) == checksum(init_random(tiny_config, 7))

    def test_seed_sensitivity(self, tiny_config):
        assert checksum(init_random(tiny_config, 7)) != checksum(init_random(tiny_config, 8))

    def test_embedding_statistics(self):
        config = ModelConfig(n_layers=1, n_heads=2, n_kv_heads=1, d_model=64, d_head=32,
                             d_ff=64, vocab_size=300)
        emb = init_random(config, 0)["embed.weight"]
        assert emb.size >= 10_000
        assert abs(float(emb.mean())) < 0.002
        assert abs(float(emb.std()) - 0.02) < 0.002


class TestPrefill:
    def test_one_token_prompt_all_modes_bitwise(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("x", (), ""))
        _, base = prefill(tiny_model, tokens, layout, VANILLA)
        for variant in ("nia", "pcw", "sp", "pine", "pine_noreassign", "pine_reverse"):
            _, logits = prefill(tiny_model, tokens, layout, AttentionMode(variant))
            assert np.array_equal(base, logits), variant

    def test_no_documents_pine_is_vanilla(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("prefix", (), "suffix"))
        _, base = prefill(tiny_model, tokens, layout, VANILLA)
        _, logits = prefill(tiny_model, tokens, layout, PINE)
        assert np.array_equal(base, logits)

    def test_sequence_too_long(self, tiny_model):
        prompt = SegmentedPrompt("a" * (tiny_model.config.max_seq_len + 1), (), "")
        tokens, layout = tokenize(prompt)
        with pytest.raises(ShapeError):
            prefill(tiny_model, tokens, layout, VANILLA)

    def test_empty_prompt_rejected(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("", (), ""))
        with pytest.raises(ShapeError, match="empty"):
            prefill(tiny_model, tokens, layout, VANILLA)


class TestDecodeStep:
    @pytest.mark.parametrize("variant", ["vanilla", "pine"])
    def test_cache_consistency(self, tiny_model, variant):
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(tiny_model, tokens, layout, mode)
        appended = list(tokens)
        for _ in range(3):
            tok = int(np.argmax(logits))
            logits = decode_step(tiny_model, cache, tok, mode)
            appended.append(tok)
            _, ref = prefill(tiny_model, appended, layout.extend(len(appended) - layout.n), mode)
            assert np.max(np.abs(logits - ref)) < 1e-4

    def test_determinism(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("ab", "cd"), "q"))
        outs = []
        for _ in range(2):
            cache, logits = prefill(tiny_model, tokens, layout, PINE)
            outs.append(decode_step(tiny_model, cache, int(np.argmax(logits)), PINE))
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("variant", ["vanilla", "pine"])
    def test_decode_builds_only_the_new_mask_row(self, tiny_config, variant, monkeypatch):
        config = ModelConfig(**{**vars(tiny_config), "n_layers": 2})
        model = Model(config, init_random(config, 0))
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de"), "q"))
        cache, logits = prefill(model, tokens, layout, mode)
        shapes = []

        def recording_build_mask(*args):
            mask = build_mask(*args)
            shapes.append(mask.shape)
            return mask

        monkeypatch.setattr(modes, "build_mask", recording_build_mask)
        decode_step(model, cache, int(np.argmax(logits)), mode)
        assert shapes == [(1, layout.n + 1)] * config.n_layers

    def test_empty_cache_rejected(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", (), "q"))
        from posinv.model import KVCache

        with pytest.raises(ShapeError):
            decode_step(tiny_model, KVCache(layout=layout), 5, VANILLA)

    def test_overflow_rejected(self, tiny_config):
        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": 4})
        model = Model(config, init_random(config, 0))
        tokens, layout = tokenize(SegmentedPrompt("abcd", (), ""))
        cache, logits = prefill(model, tokens, layout, VANILLA)
        with pytest.raises(ShapeError):
            decode_step(model, cache, 0, VANILLA)


class TestGenerate:
    def test_empty_budget(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", (), "q"))
        params = GenerationParams(max_new_tokens=0, mode=VANILLA)
        assert generate(tiny_model, tokens, layout, params) == []

    def test_immediate_eos(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", (), "q"))
        _, logits = prefill(tiny_model, tokens, layout, VANILLA)
        eos = int(np.argmax(logits))
        params = GenerationParams(max_new_tokens=5, mode=VANILLA, eos_token=eos)
        out = generate(tiny_model, tokens, layout, params)
        assert out == [eos]

    def test_run_to_run_determinism(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("ab", "cd"), "q"))
        params = GenerationParams(max_new_tokens=6, mode=PINE)
        runs = [generate(tiny_model, tokens, layout, params) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestBaseRotatedCache:
    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_cached_keys_rotated_once_at_base_positions(self, tiny_model, variant):
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(tiny_model, tokens, layout, mode)
        for _ in range(2):
            logits = decode_step(tiny_model, cache, int(np.argmax(logits)), mode)
        theta = tiny_model.config.rope_theta
        for k_raw, k_base in zip(cache.k_raw, cache.k_base):
            assert np.array_equal(k_base, modes.rotate_keys(mode, layout, k_raw, 0, theta))

    def test_decode_under_another_mode_rotates_the_cache_for_it(self, tiny_model):
        # A cache filled under vanilla (input positions) decoded under pine
        # (document offsets) must hold pine's base-rotated keys.
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(tiny_model, tokens, layout, VANILLA)
        decode_step(tiny_model, cache, int(np.argmax(logits)), PINE)
        theta = tiny_model.config.rope_theta
        for k_raw, k_base in zip(cache.k_raw, cache.k_base):
            assert np.array_equal(k_base, modes.rotate_keys(PINE, layout, k_raw, 0, theta))


class TestTieEmbeddingsConfig:
    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("True", True), ("1", True), ("YES", True),
        ("false", False), ("FALSE", False), ("0", False), ("no", False),
    ])
    def test_boolean_spellings(self, tmp_path, tiny_config, value, expected):
        path = tmp_path / "c.txt"
        lines = [f"{k}={v}" for k, v in vars(tiny_config).items() if k != "tie_embeddings"]
        path.write_text("\n".join([*lines, f"tie_embeddings={value}"]) + "\n")
        assert load_config(path).tie_embeddings is expected

    @pytest.mark.parametrize("value", ["maybe", "", "2", "on", "yes please"])
    def test_other_values_rejected(self, tmp_path, tiny_config, value):
        path = tmp_path / "c.txt"
        lines = [f"{k}={v}" for k, v in vars(tiny_config).items() if k != "tie_embeddings"]
        path.write_text("\n".join([*lines, f"tie_embeddings={value}"]) + "\n")
        with pytest.raises(WeightError, match="tie_embeddings"):
            load_config(path)

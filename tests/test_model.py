import json
import os
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv import (
    AttentionMode,
    Model,
    ModelConfig,
    SegmentedPrompt,
    WeightError,
    Weights,
    build_mask,
    decode_step,
    dense_reference,
    generate,
    init_random,
    load_weights,
    permute_documents,
    prefill,
    save_weights,
    tokenize,
)
from posinv import kernels, modes, pine
from posinv import model as model_mod
from posinv.kernels import ShapeError, row_block
from posinv.model import load_config, load_tensors, save_tensors
from posinv.rope import rotate

from conftest import greedy_stream, key_panel, logits_digest

VANILLA = AttentionMode("vanilla")
PINE = AttentionMode("pine")
RAW_KEY_MODES = ("pine", "pine_reverse")  # importance scores read raw keys (k >= 2)


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

    def test_non_finite_tensor_named(self, tmp_path, tiny_model):
        wpath, cpath = tmp_path / "w.bin", tmp_path / "c.txt"
        save_weights(wpath, cpath, tiny_model)
        tensors = load_tensors(wpath)
        tensors["layers.0.v_proj.weight"][3, 5] = np.nan
        save_tensors(wpath, tensors)
        with pytest.raises(WeightError, match="layers.0.v_proj.weight.*non-finite"):
            load_weights(wpath, cpath)

    def test_shape_mismatch_named(self, tmp_path, tiny_model):
        wpath, cpath = tmp_path / "w.bin", tmp_path / "c.txt"
        save_weights(wpath, cpath, tiny_model)
        tensors = load_tensors(wpath)
        tensors["embed.weight"] = tensors["embed.weight"][:, :16]
        save_tensors(wpath, tensors)
        with pytest.raises(WeightError, match="embed.weight"):
            load_weights(wpath, cpath)

    def test_non_float32_tensor_refused(self, tmp_path, tiny_model):
        # The runtime computes in float32 only: neither validation nor the
        # container takes another dtype.
        tensors = dict(tiny_model.weights.tensors)
        tensors["layers.0.k_proj.weight"] = tensors["layers.0.k_proj.weight"].astype(np.float64)
        with pytest.raises(WeightError, match="layers.0.k_proj.weight.*float32"):
            Weights(tensors).validate(tiny_model.config)
        with pytest.raises(WeightError, match="unsupported dtype"):
            save_tensors(tmp_path / "w.bin", tensors)



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
        # Shapes numpy cannot hold: more than 64 dimensions, or a dimension
        # beyond its index range in an empty tensor.
        ({"t": {**F32_ENTRY, "shape": [1] * 70, "data_offsets": [0, 4]}}, "shape"),
        ({"t": {**F32_ENTRY, "shape": [0, 10**30], "data_offsets": [0, 0]}}, "shape"),
        ({"t": {**F32_ENTRY, "shape": [0, 2**62, 4], "data_offsets": [0, 0]}}, "shape"),
        # The runtime computes in float32 only.
        ({"t": {**F32_ENTRY, "dtype": "F64", "data_offsets": [0, 16]}}, "dtype"),
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

    def test_token_count_must_match_layout(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        with pytest.raises(ShapeError, match="layout.n"):
            prefill(tiny_model, tokens[:-1], layout, VANILLA)

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

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_decode_builds_no_mask(self, tiny_config, variant, monkeypatch):
        # A decoded row sees every earlier key in every mode: no mask at all.
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
        for _ in range(2):
            logits = decode_step(model, cache, int(np.argmax(logits)), mode)
        assert shapes == []

    def test_empty_cache_rejected(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", (), "q"))
        from posinv.model import KVCache
        from posinv.modes import AttentionPlan

        with pytest.raises(ShapeError):
            decode_step(tiny_model, KVCache(AttentionPlan(VANILLA, layout)), 5, VANILLA)

    def test_overflow_rejected(self, tiny_config):
        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": 4})
        model = Model(config, init_random(config, 0))
        tokens, layout = tokenize(SegmentedPrompt("abcd", (), ""))
        cache, logits = prefill(model, tokens, layout, VANILLA)
        with pytest.raises(ShapeError):
            decode_step(model, cache, 0, VANILLA)


class TestTokenIds:
    """Every token id needs an embedding row: a negative id would silently
    read a row counted from the end of the table."""

    @pytest.mark.parametrize("bad", [-5, -1, 260, 999, 2**70, 3.0])
    def test_prefill_refuses_ids_outside_the_vocabulary(self, tiny_model, bad):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de"), "q"))
        tokens[4] = bad
        with pytest.raises(ShapeError, match="token ids"):
            prefill(tiny_model, tokens, layout, PINE)

    @pytest.mark.parametrize("bad", [-1, 260, 999, 2**70])
    def test_refused_decode_step_leaves_the_cache_unchanged(self, tiny_model, bad):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de"), "q"))
        cache, logits = prefill(tiny_model, tokens, layout, PINE)
        held = [x.tobytes() for x in (*cache.buffers, *cache.k_raw)]  # headroom included
        with pytest.raises(ShapeError, match="token ids"):
            decode_step(tiny_model, cache, bad, PINE)
        assert cache.n_cached == layout.n
        assert [x.tobytes() for x in (*cache.buffers, *cache.k_raw)] == held
        tok = int(np.argmax(logits))
        fresh, _ = prefill(tiny_model, tokens, layout, PINE)
        assert decode_step(tiny_model, cache, tok, PINE).tobytes() == \
            decode_step(tiny_model, fresh, tok, PINE).tobytes()

    def test_largest_id_is_accepted(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de"), "q"))
        cache, _ = prefill(tiny_model, tokens, layout, PINE)
        last = tiny_model.config.vocab_size - 1
        assert np.isfinite(decode_step(tiny_model, cache, last, PINE)).all()


class TestRowBlocks:
    """Prefill runs query rows in blocks; each block scores and masks only
    the key blocks its rows can see."""

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_prefill_holds_no_n_by_n_mask(self, tiny_config, variant, monkeypatch):
        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": 512})
        model = Model(config, init_random(config, 0))
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", tuple(c * 48 for c in "abcdef"), " Q?"))
        shapes = []

        def recording_build_mask(*args):
            mask = build_mask(*args)
            shapes.append(mask.shape)
            return mask

        monkeypatch.setattr(modes, "build_mask", recording_build_mask)
        prefill(model, tokens, layout, AttentionMode(variant))
        block = row_block(layout.n, config.n_heads // config.n_kv_heads)
        assert block < layout.n  # several row blocks
        assert shapes and max(rows for rows, _ in shapes) <= block

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_masks_only_in_the_plan_and_one_block_plan_per_pass(self, tiny_config, variant,
                                                                 monkeypatch):
        # build_mask runs only while prefill builds the stream's AttentionPlan,
        # and a prefill plans its row blocks, and pine its query groups, once
        # for all its layers, however deep the model.  A lone row past
        # suffix_start (the prefill's last row, which its last layer runs
        # alone, and every decode step's) takes the plan's kept plan, whose
        # one query group the plan forms once: decoding plans nothing.
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha", "bravo two", "c"), " Q?"))
        mode = AttentionMode(variant)
        calls = {}
        init, mask, row_blocks = modes.AttentionPlan.__init__, build_mask, \
            modes.AttentionPlan.row_blocks
        query_groups = pine.query_groups

        def counting_init(self, *args):
            calls["plan"] += 1
            try:
                init(self, *args)
            finally:
                calls["plan"] -= 1

        def counting_mask(*args):
            calls["mask in plan" if calls["plan"] else "mask elsewhere"] += 1
            return mask(*args)

        def counting_row_blocks(self, *args):
            calls["row_blocks"] += 1
            return row_blocks(self, *args)

        def counting_groups(*args):
            calls["groups"] += 1
            return query_groups(*args)

        monkeypatch.setattr(modes.AttentionPlan, "__init__", counting_init)
        monkeypatch.setattr(modes, "build_mask", counting_mask)
        monkeypatch.setattr(modes.AttentionPlan, "row_blocks", counting_row_blocks)
        monkeypatch.setattr(pine, "query_groups", counting_groups)
        for n_layers in (1, 3):
            config = ModelConfig(**{**vars(tiny_config), "n_layers": n_layers})
            model = Model(config, init_random(config, 0))
            calls.update({"plan": 0, "mask in plan": 0, "mask elsewhere": 0, "row_blocks": 0,
                          "groups": 0})
            cache, logits = prefill(model, tokens, layout, mode)
            grouped = int(cache.plan.reorders)
            planned = {"plan": 0, "mask in plan": 1, "mask elsewhere": 0, "row_blocks": 1,
                       "groups": 2 * grouped}
            assert calls == planned
            for _ in range(3):
                logits = decode_step(model, cache, int(np.argmax(logits)), mode)
                assert calls == planned

    def test_blocks_that_cut_documents(self, monkeypatch):
        # Row blocks of 4 rows start and end inside documents.
        config = ModelConfig(n_layers=2, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                             d_ff=64, vocab_size=260, max_seq_len=128)
        model = Model(config, init_random(config, 1))
        prompt = SegmentedPrompt("SYS: ", ("alpha doc one", "bravo two!", "charlie three c"), " Q?")
        tokens, layout = tokenize(prompt)
        orders = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
        default = {v: prefill(model, tokens, layout, AttentionMode(v))[1] for v in modes.VARIANTS}
        monkeypatch.setattr(kernels, "_BLOCK_SCORES", 4 * 2 * layout.n)
        assert row_block(layout.n, 2) == 4
        for variant in modes.VARIANTS:
            mode = AttentionMode(variant)
            logits = [prefill(model, *tokenize(permute_documents(prompt, order)), mode)[1]
                      for order in orders]
            if mode.invariant:
                assert all(np.array_equal(logits[0], other) for other in logits[1:]), variant
            ref = dense_reference(model, tokens, layout, mode)
            assert np.max(np.abs(logits[0] - ref)) <= 1e-4, variant
            assert np.max(np.abs(logits[0] - default[variant])) <= 1e-6, variant


class TestLastLayerRows:
    """Only the last token's logits are read: when several rows end in the last
    column, the last layer runs that row alone past its keys and values."""

    CONFIG = ModelConfig(n_layers=3, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                         d_ff=64, vocab_size=260, max_seq_len=128)
    DOCS = ("zeta doc", "alpha", "mid text")

    @pytest.fixture(scope="class")
    def model(self):
        return Model(self.CONFIG, init_random(self.CONFIG, 4))

    @staticmethod
    def spy(model, monkeypatch):
        """Per layer call, the rows attention ran and the rows of the q_proj product."""
        seen = {"attention": [], "q_proj": []}
        attention, matmul = model_mod.attention_forward, model_mod.matmul
        q_weights = [model.weights[f"layers.{i}.q_proj.weight"]
                     for i in range(model.config.n_layers)]

        def spying_attention(plans, q_raw, k_raw, v, k_base, rows, rope_theta):
            (one_stream,) = rows
            seen["attention"].append(one_stream)
            return attention(plans, q_raw, k_raw, v, k_base, rows, rope_theta)

        def spying_matmul(a, b):
            if any(b is w for w in q_weights):
                seen["q_proj"].append(a.shape[0])
            return matmul(a, b)

        monkeypatch.setattr(model_mod, "attention_forward", spying_attention)
        monkeypatch.setattr(model_mod, "matmul", spying_matmul)
        return seen

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_suffix_prefill_runs_the_last_row_alone_in_the_last_layer(self, model, variant,
                                                                       monkeypatch):
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", self.DOCS, " Q?"))
        t, last = layout.n, model.config.n_layers - 1
        seen = self.spy(model, monkeypatch)
        cache, _ = prefill(model, tokens, layout, AttentionMode(variant))
        assert seen["q_proj"] == [t] * last + [1]
        assert [len(rows.index) for rows in seen["attention"]] == [t] * last + [1]
        tail = seen["attention"][-1]  # planned as a decode step at the last column is
        assert tail.start == t - 1 and tail.index.tolist() == [t - 1]
        assert len(tail.blocks) == 1 and tail.blocks[0].fills == []
        assert tail.groups == (pine.QueryGroups(0, [0], [-1], []) if cache.plan.reorders
                               else None)

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    @pytest.mark.parametrize("segments", [("SYS: ", DOCS, ""), ("x", (), "")],
                             ids=["empty-suffix", "one-token"])
    def test_prefill_without_a_suffix_row_runs_every_row(self, model, variant, segments,
                                                         monkeypatch):
        tokens, layout = tokenize(SegmentedPrompt(*segments))
        seen = self.spy(model, monkeypatch)
        prefill(model, tokens, layout, AttentionMode(variant))
        assert seen["q_proj"] == [layout.n] * model.config.n_layers
        assert [len(rows.index) for rows in seen["attention"]] == \
            [layout.n] * model.config.n_layers

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_decode_step_runs_one_row_per_layer(self, model, variant, monkeypatch):
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", self.DOCS, " Q?"))
        cache, logits = prefill(model, tokens, layout, mode)
        seen = self.spy(model, monkeypatch)
        decode_step(model, cache, int(np.argmax(logits)), mode)
        assert seen["q_proj"] == [1] * model.config.n_layers
        assert [rows.index.tolist() for rows in seen["attention"]] == \
            [[layout.n]] * model.config.n_layers

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_cache_equals_every_row_through_every_layer(self, model, variant):
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", self.DOCS, " Q?"))
        cache, logits = prefill(model, tokens, layout, mode)
        ref = model_mod.KVCache(modes.AttentionPlan(mode, layout))
        cfg = model.config
        rows = ref.plan.rows(0, layout.n, cfg.n_heads // cfg.n_kv_heads)
        x = model.weights["embed.weight"][np.asarray(tokens)[rows.index]]
        every = slice(0, layout.n)
        group = model_mod._Group((ref,), [ref.plan], (rows,), rows.base, every, (rows,), every)
        for layer in range(cfg.n_layers):
            x = model_mod._layer_forward(model, x, layer, [group])
        ref.n_cached = layout.n
        assert len(cache.k_base) == len(cache.v) == cfg.n_layers
        assert len(cache.k_raw) == len(ref.k_raw) == (cfg.n_layers if ref.plan.reorders else 0)
        for got, want in ((cache.k_base, ref.k_base), (cache.v, ref.v), (cache.k_raw, ref.k_raw)):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        h = kernels.rms_norm(x[-1:], model.weights["final_norm.weight"], cfg.norm_eps)
        assert np.max(np.abs(logits - kernels.matmul(h, model.head_matrix())[0])) <= 1e-6


class TestColumnOrder:
    """A forward pass runs its rows in column order from the embedding on;
    the logits are the last storage token's, which is not the last column
    when the suffix is empty and the last stored document is not the last
    one by content hash."""

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_empty_suffix_logits_match_dense_reference(self, variant, canonical):
        config = ModelConfig(n_layers=2, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                             d_ff=64, vocab_size=260, max_seq_len=128)
        model = Model(config, init_random(config, 5))
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", ("zeta doc", "alpha", "mid text"), ""))
        assert layout.k == 3 and layout.suffix_start == layout.n
        mode = AttentionMode(variant, canonical=canonical)
        plan = modes.AttentionPlan(mode, layout)
        assert plan.ranked[-1] != layout.k - 1
        if canonical:  # the last token's row is not the last column
            assert plan.order[-1] != layout.n - 1
        _, logits = prefill(model, tokens, layout, mode)
        ref = dense_reference(model, tokens, layout, mode)
        assert np.max(np.abs(logits - ref)) <= 1e-4


class TestGenerate:
    def test_empty_budget(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", (), "q"))
        assert generate(tiny_model, tokens, layout, VANILLA, 0) == []

    def test_run_to_run_determinism(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("ab", "cd"), "q"))
        runs = [generate(tiny_model, tokens, layout, PINE, 6) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestBaseRotatedCache:
    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_cached_keys_rotated_once_at_base_positions(self, tiny_config, variant, monkeypatch):
        # Each layer's raw keys, in column order, as its k_proj computes them.
        config = ModelConfig(**{**vars(tiny_config), "n_layers": 2})
        model = Model(config, init_random(config, 3))
        k_proj = {id(model.weights[f"layers.{i}.k_proj.weight"]): i for i in range(2)}
        raw = [[], []]

        def recording_matmul(a, b):
            out = kernels.matmul(a, b)
            if id(b) in k_proj:
                raw[k_proj[id(b)]].append(out.reshape(len(a), config.n_kv_heads, -1))
            return out

        monkeypatch.setattr(model_mod, "matmul", recording_matmul)
        mode = AttentionMode(variant)
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(model, tokens, layout, mode)
        for _ in range(2):
            logits = decode_step(model, cache, int(np.argmax(logits)), mode)
        s = layout.n + 2
        storage = cache.plan.columns(0, s)[0]  # each column's storage row
        assert sorted(storage) == list(range(s))
        positions = modes.base_positions(mode, layout, s)[storage]
        checked = 0
        for layer, k_base in enumerate(cache.k_base):  # [n_kv_heads, d_head, columns] panels
            k_raw = np.concatenate(raw[layer])
            assert np.array_equal(k_base, key_panel(rotate(k_raw, positions, config.rope_theta)))
            if variant in RAW_KEY_MODES:  # importance reads the prompt's, before the suffix
                assert cache.k_raw[layer].tobytes() == \
                    key_panel(k_raw[cache.plan.ranked_cols]).tobytes()
            checked += 1
        assert checked == config.n_layers
        assert len(cache.k_raw) == (config.n_layers if variant in RAW_KEY_MODES else 0)

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", sorted(RAW_KEY_MODES))
    def test_raw_keys_held_with_documents_in_ranked_order(self, tiny_config, variant, canonical):
        # The cache writes the raw keys before the suffix once, with the
        # documents in canonical order, so the importance pass reads them as
        # one slice whether or not the columns are in that order.
        model = Model(tiny_config, init_random(tiny_config, 3))
        mode = AttentionMode(variant, canonical=canonical)
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("zzz", "de", "abcd"), "qq"))
        cache, _ = prefill(model, tokens, layout, mode)
        plan = cache.plan
        ranked = [t for j in plan.ranked for t in tokens[slice(*layout.doc_spans[j])]]
        k_proj = model.weights["layers.0.k_proj.weight"]
        h = kernels.rms_norm(model.weights["embed.weight"][ranked],
                             model.weights["layers.0.attn_norm.weight"], tiny_config.norm_eps)
        doc_keys = cache.k_raw[0][:, :, layout.prefix_len:].transpose(2, 0, 1)
        assert doc_keys.shape[0] == layout.suffix_start - layout.prefix_len
        assert plan.ranked != list(range(layout.k))  # storage order would read other keys
        assert np.max(np.abs(doc_keys.reshape(len(ranked), -1) - kernels.matmul(h, k_proj))) < 1e-6
        assert canonical == isinstance(plan.ranked_cols, slice)

    def test_decode_under_another_mode_is_refused(self, tiny_model):
        # A cache keeps the plan it was prefilled under: a decode step under
        # another mode raises before it touches the cache.
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        for before, after in [(VANILLA, PINE), (PINE, AttentionMode("pine", canonical=False))]:
            cache, logits = prefill(tiny_model, tokens, layout, before)
            held = [[x.copy() for x in arrays] for arrays in (cache.k_raw, cache.k_base, cache.v)]
            with pytest.raises(ValueError, match="prefilled under"):
                decode_step(tiny_model, cache, int(np.argmax(logits)), after)
            assert cache.n_cached == layout.n
            assert cache.plan.mode == before
            for arrays, copies in zip((cache.k_raw, cache.k_base, cache.v), held):
                assert len(arrays) == len(copies)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(arrays, copies))


class TestCacheBuffer:
    """Each layer's keys and values live in one buffer that decode steps
    write into in place; a step counts only once every layer is done."""

    def test_failed_step_leaves_cache_unchanged(self, tiny_config, monkeypatch):
        config = ModelConfig(**{**vars(tiny_config), "n_layers": 3})
        model = Model(config, init_random(config, 2))
        tokens, layout = tokenize(SegmentedPrompt("S", ("ab", "cd"), "q"))
        cache, logits = prefill(model, tokens, layout, PINE)
        tok = int(np.argmax(logits))
        held = [[x.copy() for x in arrays] for arrays in (cache.k_raw, cache.k_base, cache.v)]
        calls = []

        def failing_swiglu(gate, up):
            calls.append(None)
            if len(calls) == 2:  # the second layer's FFN
                raise MemoryError("injected")
            return model_mod.swiglu(gate, up)

        with monkeypatch.context() as m:
            m.setattr(model_mod, "swiglu", failing_swiglu)
            with pytest.raises(MemoryError, match="injected"):
                decode_step(model, cache, tok, PINE)
        assert cache.n_cached == layout.n
        for arrays, copies, shape in zip((cache.k_raw, cache.k_base, cache.v), held,
                                         ((1, 16, layout.suffix_start), (1, 16, layout.n),
                                          (1, layout.n, 16))):
            assert [x.shape for x in arrays] == [shape] * 3
            assert all(x.tobytes() == y.tobytes() for x, y in zip(arrays, copies))
        fresh, _ = prefill(model, tokens, layout, PINE)
        assert decode_step(model, cache, tok, PINE).tobytes() == \
            decode_step(model, fresh, tok, PINE).tobytes()
        assert cache.n_cached == fresh.n_cached == layout.n + 1

    def test_decode_writes_in_place(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(tiny_model, tokens, layout, PINE)
        before = cache.k_base[0]
        held = before.copy()
        decode_step(tiny_model, cache, int(np.argmax(logits)), PINE)
        after = cache.k_base[0]
        assert np.shares_memory(before, after)
        assert after.shape[2] == layout.n + 1
        assert after[:, :, :layout.n].tobytes() == held.tobytes()

    def test_growth_is_geometric_and_keeps_the_columns(self, tiny_config):
        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": 512})
        model = Model(config, init_random(config, 0))
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", ("a" * 38, "b" * 38, "c" * 38,
                                                            "d" * 41), " Q?"))
        assert layout.n == 163
        cache, logits = prefill(model, tokens, layout, PINE)
        growths = 0
        for _ in range(192):
            buf, s = cache.buffers[0], cache.n_cached
            held = [x.tobytes() for x in (*cache.k_base, *cache.v)]
            logits = decode_step(model, cache, int(np.argmax(logits)), PINE)
            if cache.buffers[0] is not buf:
                growths += 1
                assert [x[..., :s].tobytes() for x in cache.k_base] + \
                    [x[:, :s].tobytes() for x in cache.v] == held
            assert cache.n_cached <= cache.capacity <= config.max_seq_len
        assert 1 <= growths <= 3

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_decode_across_a_growth_equals_a_cache_with_room(self, tiny_config, variant,
                                                              monkeypatch):
        # Decode steps take the plan's kept lone-row plan; a buffer that grows
        # under them must give the logits of one that never had to.
        model = Model(tiny_config, init_random(tiny_config, 0))
        tokens, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha", "bravo two", "c"), " Q?"))
        mode, steps = AttentionMode(variant), model_mod._HEADROOM + 6
        grown, logits = prefill(model, tokens, layout, mode)
        monkeypatch.setattr(model_mod, "_HEADROOM", tiny_config.max_seq_len)
        roomy, _ = prefill(model, tokens, layout, mode)
        buffer, capacity = grown.buffers[0], roomy.capacity
        assert capacity >= layout.n + steps
        for _ in range(steps):  # past the headroom: the first buffer grows
            tok = int(np.argmax(logits))
            logits = decode_step(model, grown, tok, mode)
            assert decode_step(model, roomy, tok, mode).tobytes() == logits.tobytes()
        assert grown.buffers[0] is not buffer and roomy.capacity == capacity

    def test_capacity_stops_at_max_seq_len(self, tiny_config):
        tokens, layout = tokenize(SegmentedPrompt("S", ("ab", "cd"), "q"))
        limit = layout.n + 80  # past the prefill's headroom, short of twice it
        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": limit})
        model = Model(config, init_random(config, 0))
        cache, logits = prefill(model, tokens, layout, PINE)
        while cache.n_cached < limit:
            logits = decode_step(model, cache, int(np.argmax(logits)), PINE)
            assert cache.capacity <= limit
        held = [x.copy() for x in (*cache.k_raw, *cache.k_base, *cache.v)]
        with pytest.raises(ShapeError, match="max_seq_len"):
            decode_step(model, cache, int(np.argmax(logits)), PINE)
        assert cache.n_cached == limit
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip((*cache.k_raw, *cache.k_base, *cache.v), held))


class TestCacheContents:
    """A cache holds rotated keys and values, which every mode reads, and raw
    keys only where importance reads them: the prompt's columns before the
    suffix, written once at prefill."""

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_raw_keys_only_where_importance_reads_them(self, tiny_config, variant):
        config = ModelConfig(**{**vars(tiny_config), "n_layers": 2})
        model = Model(config, init_random(config, 0))
        for docs in [("abc", "de", "fgh"), ("abc",), ()]:
            tokens, layout = tokenize(SegmentedPrompt("SYS", docs, "qq"))
            cache, _ = prefill(model, tokens, layout, AttentionMode(variant))
            assert [buf.shape[:2] for buf in cache.buffers] == [(2, 1)] * 2
            if variant in RAW_KEY_MODES and layout.k >= 2:
                assert [x.shape for x in cache.k_raw] == [(1, 16, layout.suffix_start)] * 2
            else:
                assert cache.k_raw == [], (variant, layout.k)

    def test_pine_raw_keys_written_once(self, tiny_config):
        config = ModelConfig(**{**vars(tiny_config), "n_layers": 2})
        model = Model(config, init_random(config, 0))
        tokens, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "qq"))
        cache, logits = prefill(model, tokens, layout, PINE)
        k_raw, buffer = list(cache.k_raw), cache.buffers[0]
        held = [x.tobytes() for x in k_raw]
        for _ in range(model_mod._HEADROOM + 6):  # past the headroom: the buffers grow
            logits = decode_step(model, cache, int(np.argmax(logits)), PINE)
            assert len(cache.k_raw) == 2
            assert all(x is y for x, y in zip(cache.k_raw, k_raw))
        assert cache.buffers[0] is not buffer
        assert [x.tobytes() for x in cache.k_raw] == held


# One stream served alone in a fresh process: its logits' digest per mode.
SOLO_CHILD = """
import json, sys
from posinv import AttentionMode, Model, ModelConfig, SegmentedPrompt, init_random, tokenize
from conftest import greedy_stream, key_panel, logits_digest

spec = json.loads(sys.argv[1])
config = ModelConfig(**spec["config"])
model = Model(config, init_random(config, 5))
prefix, docs, suffix = spec["prompt"]
tokens, layout = tokenize(SegmentedPrompt(prefix, tuple(docs), suffix))
print(json.dumps({v: logits_digest(greedy_stream(model, tokens, layout, AttentionMode(v),
                                                 spec["steps"])) for v in spec["modes"]}))
"""


class TestStreamIsolation:
    """Streams share no state: served interleaved step by step, or in two
    threads, each stream gives the logits it gives alone in a fresh process."""

    MODES = ("pine", "sp", "vanilla")
    # One layout, other contents: a stream that read the other's keys would
    # raise no error, only give other logits.
    PROMPTS = [("SYS: ", ["alpha bravo", "charlie", "delta echo fox"], " Q?"),
               ("sys: ", ["golf hotel", "india j", "kilo lima mike"], " Q!")]

    def test_interleaved_and_threaded_streams_match_solo(self):
        config = ModelConfig(n_layers=2, n_heads=4, n_kv_heads=2, d_model=64, d_head=16,
                             d_ff=128, vocab_size=260, max_seq_len=256)
        model = Model(config, init_random(config, 5))
        steps = model_mod._HEADROOM + 6  # past the headroom: the buffers grow
        paths = [str(Path(model_mod.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        inputs = [tokenize(SegmentedPrompt(a, tuple(b), c)) for a, b, c in self.PROMPTS]
        served = {}
        with ExitStack() as children:
            solo = [children.enter_context(subprocess.Popen(
                [sys.executable, "-c", SOLO_CHILD, json.dumps(
                    {"config": vars(config), "prompt": prompt, "steps": steps,
                     "modes": self.MODES})],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
                for prompt in self.PROMPTS]
            for variant in self.MODES:
                mode = AttentionMode(variant)
                streams = [greedy_stream(model, *tl, mode, steps) for tl in inputs]
                interleaved = list(zip(*streams))  # one step of each stream in turn
                served[variant, "interleaved"] = [logits_digest(run) for run in zip(*interleaved)]
                switch = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)  # hand the interpreter over often
                try:
                    with ThreadPoolExecutor(max_workers=2) as pool:
                        runs = [pool.submit(lambda tl=tl, mode=mode: logits_digest(
                            greedy_stream(model, *tl, mode, steps))) for tl in inputs]
                        served[variant, "threads"] = [run.result(timeout=300) for run in runs]
                finally:
                    sys.setswitchinterval(switch)
            for i, child in enumerate(solo):
                out, err = child.communicate(timeout=600)
                assert child.returncode == 0, err
                solo[i] = json.loads(out)
        for variant in self.MODES:
            assert solo[0][variant] != solo[1][variant]  # two streams that differ
            for how in ("interleaved", "threads"):
                assert served[variant, how] == [s[variant] for s in solo], (variant, how)


class TestBatchedStreams:
    """One forward pass serves several streams: each stream gets the logits
    and greedy tokens it gets alone, and one refused stream refuses the pass."""

    CONFIG = ModelConfig(n_layers=3, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                         d_ff=64, vocab_size=260, max_seq_len=64)
    # unequal lengths; the third has an empty suffix, so its last token sits
    # in a document and every row runs through the last layer
    PROMPTS = [("SYS: ", ("zeta doc", "alpha", "mid text"), " Q?"),
               ("sys: ", ("mid text", "zeta doc", "alpha"), " longer Q!"),
               ("s", ("one", "two words"), ""),
               ("only a prefix", (), " and a suffix")]

    @pytest.fixture(scope="class")
    def model(self):
        return Model(self.CONFIG, init_random(self.CONFIG, 6))

    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_each_stream_matches_its_single_stream_pass(self, model, variant, monkeypatch):
        mode = AttentionMode(variant)
        prompts = [tokenize(SegmentedPrompt(*p)) for p in self.PROMPTS]
        q_weights = model.weights[f"layers.{model.config.n_layers - 1}.q_proj.weight"]
        last_q_rows, matmul = [], model_mod.matmul

        def spying_matmul(a, b):
            if b is q_weights:
                last_q_rows.append(a.shape[0])
            return matmul(a, b)

        monkeypatch.setattr(model_mod, "matmul", spying_matmul)
        caches, logits = model_mod._prefill(model, prompts, mode)
        monkeypatch.undo()
        # one last-layer query row per stream with a suffix, every row otherwise
        assert last_q_rows == [sum([1, 1, prompts[2][1].n, 1])]
        solo = [prefill(model, tokens, layout, mode) for tokens, layout in prompts]
        for got, (_, want) in zip(logits, solo):
            assert np.max(np.abs(got - want)) <= 1e-6
        for _ in range(3):  # lockstep decode steps, each stream its own greedy token
            toks = [[int(np.argmax(x))] for x in logits]
            logits = model_mod._forward(model, caches, toks)
            for got, (cache, _), tok in zip(logits, solo, toks):
                assert np.max(np.abs(got - decode_step(model, cache, tok[0], mode))) <= 1e-6
        caches, logits = model_mod._prefill(model, prompts, mode)
        outs = model_mod._greedy_decode(model, caches, logits, 5)
        assert outs == [generate(model, tokens, layout, mode, 5) for tokens, layout in prompts]

    def test_one_stream_past_max_seq_len_refuses_the_pass_before_any_compute(self, model,
                                                                             monkeypatch):
        mode = AttentionMode("pine")
        prompts = [tokenize(SegmentedPrompt(*p)) for p in self.PROMPTS[:2]]
        caches, _ = model_mod._prefill(model, prompts, mode)
        full, _ = prefill(model, *tokenize(SegmentedPrompt("A" * self.CONFIG.max_seq_len, (), "")),
                          mode)
        caches.append(full)
        before = [(c.n_cached, c.capacity) for c in caches]
        products = []
        monkeypatch.setattr(model_mod, "matmul", lambda a, b: products.append(1))
        with pytest.raises(ShapeError, match="max_seq_len"):
            model_mod._forward(model, caches, [[65]] * len(caches))
        assert products == []
        assert [(c.n_cached, c.capacity) for c in caches] == before


class TestGroupedStreams:
    """Streams whose rows read the same plan (one shape, the same rows and, where
    ``row_blocks`` plans them, one ``sees``) share one key rotation and one
    attention call per layer.  A grouped call must give
    every stream bitwise what one call per stream gives it inside the same
    pass, and streams whose plans differ must never share a call."""

    CONFIG = ModelConfig(n_layers=2, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                         d_ff=64, vocab_size=260, max_seq_len=96)
    # Two document sets of equal lengths (so even canonical-off plans of the
    # modes that keep positions coincide, and one group holds streams of
    # different contents), one set of unequal lengths, and that set beside one
    # with an empty suffix, so that one pass's last layer runs grouped last
    # rows beside streams that run every row.
    SETS = {"equal": [("sys: ", ("abcd", "efgh", "ijkl"), " q?"),
                      ("sys: ", ("mnop", "qrst", "uvwx"), " q?")],
            "unequal": [("SYS: ", ("zeta doc", "alpha", "mid text"), " Q?")]}
    SETS["empty-suffix"] = [*SETS["unequal"], ("s: ", ("one", "two words", "three"), "")]

    @pytest.fixture(scope="class")
    def model(self):
        return Model(self.CONFIG, init_random(self.CONFIG, 8))

    @staticmethod
    def run(model, prompts, mode, steps, grouped, monkeypatch):
        """Prefill the prompts in one pass, then decode ``steps``, each a list
        of the streams still live (one stopped by EOS leaves the pass), with
        greedy tokens; returns every pass's logits, the caches and the
        streams of each attention call.  Ungrouped, every plan's shape is
        made its own, so each stream runs its own calls."""
        if not grouped:
            init = modes.AttentionPlan.__init__

            def own_shape(plan, *args):
                init(plan, *args)
                plan.shape = (plan.shape, id(plan))

            monkeypatch.setattr(modes.AttentionPlan, "__init__", own_shape)
        calls, attention = [], model_mod.attention_forward

        def spying(plans, *args):
            calls.append(plans)
            return attention(plans, *args)

        monkeypatch.setattr(model_mod, "attention_forward", spying)
        caches, logits = model_mod._prefill(model, prompts, mode)
        passes = [logits]
        for live in steps:
            passes.append(model_mod._forward(model, [caches[i] for i in live],
                                             [[int(np.argmax(passes[0][i]))] for i in live]))
        monkeypatch.undo()
        return passes, caches, calls

    @pytest.mark.parametrize("prompts", list(SETS))
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", modes.VARIANTS)
    def test_grouped_calls_equal_one_call_per_stream(self, model, variant, canonical, prompts,
                                                    monkeypatch):
        orders = ([0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 2, 1])
        streams = [tokenize(permute_documents(SegmentedPrompt(*p), order))
                   for p in self.SETS[prompts] for order in orders]
        mode = AttentionMode(variant, canonical=canonical)
        steps = [range(len(streams)), [0, 2, 3, 5, 6, 7][:len(streams) - 2], [0, 3]]
        for block_scores in (kernels._BLOCK_SCORES, 5 * 4 * 2):  # one row block, or several
            monkeypatch.setattr(kernels, "_BLOCK_SCORES", block_scores)
            got = self.run(model, streams, mode, steps, True, monkeypatch)
            monkeypatch.setattr(kernels, "_BLOCK_SCORES", block_scores)
            want = self.run(model, streams, mode, steps, False, monkeypatch)
            for a, b in zip(got[0], want[0]):
                assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
            for a, b in zip(got[1], want[1]):
                for panels in ("k_base", "v", "k_raw"):
                    assert ([x.tobytes() for x in getattr(a, panels)]
                            == [x.tobytes() for x in getattr(b, panels)]), panels
            assert all(len(plans) == 1 for plans in want[2])
            for plans in got[2]:  # a call's streams share one plan shape
                assert all(plan.shape == plans[0].shape for plan in plans)
            sizes = [len(plans) for plans in got[2]]
            vanilla = mode.doc_mask == "causal"
            if canonical and not vanilla or (not canonical and prompts == "equal"
                                             and not mode.reassigns):
                # one call serves every stream of equal lengths, the first set's orders
                assert sizes[0] == (len(streams) if prompts == "equal" else len(orders)), sizes
            if canonical and vanilla and prompts != "equal":
                # A prefill's rows read ``sees``, which differs per order: one call per
                # stream.  A decode step's lone rows read none, so neighbouring live
                # orders of one document set at one length share a call.
                prefill = self.CONFIG.n_layers * len(streams)
                assert sizes[:prefill] == [1] * prefill, sizes
                done, decode = [0] * len(streams), []  # decode steps each stream has taken
                for live in steps:
                    runs = groupby(live, key=lambda i: (i // len(orders), done[i]))
                    decode += [len(list(same)) for _, same in runs] * self.CONFIG.n_layers
                    for i in live:
                        done[i] += 1
                assert sizes[prefill:] == decode, sizes


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

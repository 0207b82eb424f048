import itertools

import numpy as np
import pytest

from posinv import (
    AttentionMode,
    SegmentedPrompt,
    assign_positions,
    attention_forward,
    build_mask,
    permute_documents,
    sp_rescale,
    tokenize,
)
from posinv import modes
from posinv.kernels import row_softmax
from posinv.modes import VARIANTS
from posinv.rope import rotate


def running_example():
    """1-token prefix, three 2-token documents, 1-token suffix."""
    return tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))


def mask_from_rows(rows):
    return np.asarray(rows, dtype=bool)


class TestBuildMask:
    def test_vanilla_lower_triangular(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("vanilla"), layout, 8)
        assert np.array_equal(m, np.tril(np.ones((8, 8), dtype=bool)))

    def test_pine_running_example_golden(self):
        # Doc tokens see all six doc tokens except later tokens of their
        # own document; prefix/suffix visibility is unchanged.
        _, layout = running_example()
        expected = mask_from_rows([
            [1, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 1],
        ])
        assert np.array_equal(build_mask(AttentionMode("pine"), layout, 8), expected)

    def test_pcw_first_token_of_second_doc(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("pcw"), layout, 8)
        # Token 3 (first token of the second doc) sees prefix and itself only.
        assert list(np.nonzero(m[3])[0]) == [0, 3]

    def test_nia_blocks_inter_document_pairs(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("nia"), layout, 8)
        for q, k in itertools.product(range(1, 7), range(1, 7)):
            dq, dk = layout.doc_of(q), layout.doc_of(k)
            if dq != dk:
                assert not m[q, k]

    def test_k1_pine_equals_vanilla(self):
        _, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        assert np.array_equal(
            build_mask(AttentionMode("pine"), layout, layout.n),
            build_mask(AttentionMode("vanilla"), layout, layout.n),
        )

    def test_every_query_sees_itself(self):
        _, layout = running_example()
        for variant in ("vanilla", "nia", "pcw", "sp", "pine"):
            m = build_mask(AttentionMode(variant), layout, 8)
            assert m.diagonal().all(), variant

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("docs", [("AB", "CD", "EF"), ("AB",)])
    def test_rows_from_q_start_are_the_full_matrix_rows(self, variant, docs):
        # Decoding extends the sequence past the prompt layout, so cover
        # total_len > layout.n as well.
        _, layout = tokenize(SegmentedPrompt("S", docs, "Q"))
        mode = AttentionMode(variant)
        for total_len in (layout.n, layout.n + 2):
            full = build_mask(mode, layout, total_len)
            for q in range(total_len + 1):
                assert np.array_equal(build_mask(mode, layout, total_len, q), full[q:]), q


class TestAssignPositions:
    def test_vanilla_identity(self):
        _, layout = running_example()
        pm = assign_positions(AttentionMode("vanilla"), layout, 5)
        assert pm.query_position == 5
        assert np.array_equal(pm.key_positions, np.arange(8))

    def test_pcw_running_example(self):
        _, layout = running_example()
        pm = assign_positions(AttentionMode("pcw"), layout, 7)
        # All three docs share positions {1, 2}; the suffix token gets 3.
        assert list(pm.key_positions) == [0, 1, 2, 1, 2, 1, 2, 3]
        assert pm.query_position == 3

    def test_pcw_k1_identity(self):
        _, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        pm = assign_positions(AttentionMode("pcw"), layout, 3)
        assert np.array_equal(pm.key_positions, np.arange(layout.n))

    def test_pine_requires_ordering(self):
        _, layout = running_example()
        with pytest.raises(ValueError, match="importance ordering"):
            assign_positions(AttentionMode("pine"), layout, 1)

    def test_pine_with_ordering_matches_proof_layout(self):
        _, layout = running_example()
        pm = assign_positions(AttentionMode("pine"), layout, 1, ordered_docs=[2, 1, 0])
        # D3 -> {1,2}, D2 -> {3,4}, D1 -> {5,6}; prefix stays at 0.
        assert list(pm.key_positions[:8]) == [0, 5, 6, 3, 4, 1, 2, 7]
        assert pm.query_position == 5


class TestSpRescale:
    def test_k1_unchanged(self):
        _, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        row = np.asarray([0.5, 0.25, 0.25, 0.0], dtype=np.float32)
        assert np.array_equal(sp_rescale(row, layout, 3, 1), row)

    def test_all_mass_on_documents_unchanged(self):
        _, layout = running_example()
        row = np.zeros(8, dtype=np.float32)
        row[1:7] = 1 / 6
        out = sp_rescale(row, layout, 7, 3)
        assert np.allclose(out, row, atol=1e-7)

    def test_arithmetic_oracle(self):
        # Row [doc: 0.6, prefix: 0.4] with k=2: scale doc mass by 1/2 and
        # renormalize -> [0.3, 0.4] / 0.7.
        _, layout = tokenize(SegmentedPrompt("p", ("ab", "cd"), "s"))
        row = np.zeros(layout.n, dtype=np.float32)
        row[1] = 0.6  # doc token
        row[0] = 0.4  # prefix token
        out = sp_rescale(row, layout, layout.suffix_start, 2)
        assert abs(float(out[1]) - 0.3 / 0.7) < 1e-6
        assert abs(float(out[0]) - 0.4 / 0.7) < 1e-6

    def test_non_suffix_query_passthrough(self):
        _, layout = running_example()
        row = np.full(8, 1 / 8, dtype=np.float32)
        assert np.array_equal(sp_rescale(row, layout, 2, 3), row)


def random_qkv(layout, n_heads, n_kv, d_head, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(layout.n, n_heads, d_head)).astype(np.float32)
    k = rng.normal(size=(layout.n, n_kv, d_head)).astype(np.float32)
    v = rng.normal(size=(layout.n, n_kv, d_head)).astype(np.float32)
    return q, k, v


class TestAttentionForward:
    def test_vanilla_matches_naive_causal_reference(self):
        _, layout = running_example()
        q, k, v = random_qkv(layout, 2, 1, 8, 0)
        out = attention_forward(AttentionMode("vanilla"), q, k, v, layout)
        for h in range(2):
            for qi in range(layout.n):
                qr = rotate(q[qi, h][None, :], [qi], 10000.0)[0].astype(np.float64)
                logits, vals = [], []
                for t in range(qi + 1):
                    kr = rotate(k[t, 0][None, :], [t], 10000.0)[0].astype(np.float64)
                    logits.append(np.dot(qr, kr) / np.sqrt(8.0))
                    vals.append(v[t, 0].astype(np.float64))
                e = np.exp(np.asarray(logits) - max(logits))
                w = e / e.sum()
                ref = sum(wi * vi for wi, vi in zip(w, vals))
                assert np.max(np.abs(out[qi, h] - ref)) < 1e-5

    def test_k1_pine_bitwise_vanilla(self):
        _, layout = tokenize(SegmentedPrompt("S", ("ABC",), "QR"))
        q, k, v = random_qkv(layout, 2, 1, 8, 1)
        a = attention_forward(AttentionMode("vanilla"), q, k, v, layout)
        b = attention_forward(AttentionMode("pine"), q, k, v, layout)
        assert np.array_equal(a, b)

    def test_nia_masked_independence(self):
        # Zeroing the second doc's values cannot change the first doc's
        # outputs: no attention path exists between them.
        _, layout = running_example()
        q, k, v = random_qkv(layout, 2, 1, 8, 2)
        v2 = v.copy()
        v2[3:5] = 0.0
        a = attention_forward(AttentionMode("nia"), q, k, v, layout)
        b = attention_forward(AttentionMode("nia"), q, k, v2, layout)
        assert np.array_equal(a[1:3], b[1:3])

    def test_prefix_rows_bitwise_vanilla_in_all_modes(self):
        _, layout = tokenize(SegmentedPrompt("SYS", ("ab", "cd", "ef"), "Q"))
        q, k, v = random_qkv(layout, 2, 1, 8, 3)
        base = attention_forward(AttentionMode("vanilla"), q, k, v, layout)
        for variant in ("nia", "pcw", "sp", "pine", "pine_noreassign", "pine_reverse"):
            out = attention_forward(AttentionMode(variant), q, k, v, layout)
            assert np.array_equal(out[: layout.prefix_len], base[: layout.prefix_len]), variant

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_keys_rotated_once_per_query_group(self, variant, monkeypatch):
        # Key positions change per query group, not per row: one rotation of
        # the keys and of the group's queries per (head, group), plus one
        # shared map for rows outside any group, bounds the rotated rows.
        _, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha doc", "bravo!", "charlie c"), " Q?"))
        n_heads = 4
        q, k, v = random_qkv(layout, n_heads, 2, 8, 5)
        rotated = []

        def counting_rotate(x, positions, theta):
            rotated.append(np.atleast_2d(x).shape[0])
            return rotate(x, positions, theta)

        monkeypatch.setattr(modes, "rotate", counting_rotate)
        mode = AttentionMode(variant)
        attention_forward(mode, q, k, v, layout)
        suffix_rows = layout.n - layout.suffix_start
        groups = 1 + layout.k + suffix_rows if mode.reassigns else 1
        assert sum(rotated) <= n_heads * (groups + 1) * layout.n

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_softmax_per_block_of_query_rows(self, variant, monkeypatch):
        # Rows go through the softmax in blocks, not one call per row.
        _, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha doc", "bravo!", "charlie c"), " Q?"))
        n_heads = 4
        q, k, v = random_qkv(layout, n_heads, 2, 8, 5)
        calls = []

        def counting_softmax(x, scale=1.0):
            calls.append(np.atleast_2d(x).shape[0])
            return row_softmax(x, scale)

        monkeypatch.setattr(modes, "row_softmax", counting_softmax)
        mode = AttentionMode(variant)
        attention_forward(mode, q, k, v, layout)
        suffix_rows = layout.n - layout.suffix_start
        groups = 1 + layout.k + suffix_rows if mode.reassigns else 1
        assert len(calls) <= n_heads * (groups + 1)
        assert sum(calls) == n_heads * layout.n

    def test_permutation_invariance_and_witness(self):
        prompt = SegmentedPrompt("S", ("ab", "cde", "fghi"), "Q")
        toks, layout = tokenize(prompt)
        perm = [2, 0, 1]
        permuted = permute_documents(prompt, perm)
        ptoks, playout = tokenize(permuted)

        def token_map():
            # storage index in permuted sequence for each original index
            mapping = {i: i for i in range(layout.prefix_len)}
            for new_j, old_j in enumerate(perm):
                s_old, e_old = layout.doc_spans[old_j]
                s_new, _ = playout.doc_spans[new_j]
                for o in range(e_old - s_old):
                    mapping[s_old + o] = s_new + o
            for t in range(layout.suffix_start, layout.n):
                mapping[t] = t
            return mapping

        rng = np.random.default_rng(4)
        emb = {t: rng.normal(size=(3, 2, 8)).astype(np.float32) for t in set(toks)}
        # build q/k/v as functions of token identity only
        def qkv_for(tokens):
            q = np.stack([emb[t][0] for t in tokens])
            k = np.stack([emb[t][1][:1] for t in tokens])
            v = np.stack([emb[t][2][:1] for t in tokens])
            return q, k, v

        mapping = token_map()
        for variant, invariant in [("pine", True), ("pcw", True), ("vanilla", False)]:
            a = attention_forward(AttentionMode(variant), *qkv_for(toks), layout)
            b = attention_forward(AttentionMode(variant), *qkv_for(ptoks), playout)
            aligned = np.stack([b[mapping[i]] for i in range(layout.n)])
            if invariant:
                assert np.array_equal(a, aligned), variant
            else:
                assert np.max(np.abs(a - aligned)) > 1e-6, variant


def four_doc_prompt(doc_bytes):
    """k=4 prompt whose length grows with doc_bytes (n = 4 * doc_bytes + 8)."""
    docs = tuple(chr(ord("a") + j) * (doc_bytes - 1) + "." for j in range(4))
    return tokenize(SegmentedPrompt("SYS: ", docs, " Q?"))


class TestBaseRotatedKeys:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_decode_step_rotations_independent_of_prompt_length(self, tiny_config, variant,
                                                                monkeypatch):
        # Cached keys are never rotated again: a decode step rotates the new
        # key and a fixed number of query rows per head, whatever n is.
        from posinv import Model, ModelConfig, decode_step, init_random, prefill

        config = ModelConfig(**{**vars(tiny_config), "max_seq_len": 512})
        model = Model(config, init_random(config, 0))
        mode = AttentionMode(variant)
        counts = []
        for doc_bytes in (13, 73):  # n = 60 and n = 300
            tokens, layout = four_doc_prompt(doc_bytes)
            cache, logits = prefill(model, tokens, layout, mode)
            rotated = []

            def counting_rotate(x, positions, theta):
                rotated.append(np.atleast_2d(x).shape[0])
                return rotate(x, positions, theta)

            with monkeypatch.context() as m:
                m.setattr(modes, "rotate", counting_rotate)
                decode_step(model, cache, int(np.argmax(logits)), mode)
            counts.append(sum(rotated))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cached_base_keys_equal_own_rotation_bitwise(self, variant, canonical):
        # Keys rotated piecewise as the cache writes them (prompt, then one
        # row per decode step) give the same attention, bitwise, as
        # attention_forward rotating the raw keys itself.
        _, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha doc", "bravo!", "charlie c"), " Q?"))
        n = layout.n
        q, k, v = random_qkv(layout.extend(2), 4, 2, 8, 6)
        mode = AttentionMode(variant)
        k_base = np.concatenate([modes.rotate_keys(mode, layout, k[:n], 0, 10000.0),
                                 modes.rotate_keys(mode, layout, k[n:n + 1], n, 10000.0),
                                 modes.rotate_keys(mode, layout, k[n + 1:], n + 1, 10000.0)])
        own = attention_forward(mode, q[:n], k[:n], v[:n], layout, canonical=canonical)
        cached = attention_forward(mode, q[:n], k[:n], v[:n], layout, canonical=canonical,
                                   k_base=k_base[:n])
        assert np.array_equal(own, cached)
        own = attention_forward(mode, q[-1:], k, v, layout, q_start=n + 1, canonical=canonical)
        cached = attention_forward(mode, q[-1:], k, v, layout, q_start=n + 1,
                                   canonical=canonical, k_base=k_base)
        assert np.array_equal(own, cached)

    def test_base_positions_shared_block(self):
        _, layout = running_example()  # S | AB CD EF | Q
        for variant in ("pcw", "sp"):
            pos = modes.base_positions(AttentionMode(variant), layout, layout.n + 2)
            assert pos.tolist() == [0, 1, 2, 1, 2, 1, 2, 3, 4, 5]

    def test_base_positions_pine_local_offsets(self):
        _, layout = running_example()
        for variant in ("pine", "pine_reverse"):
            pos = modes.base_positions(AttentionMode(variant), layout, layout.n + 1)
            assert pos.tolist() == [0, 0, 1, 0, 1, 0, 1, 7, 8]

    def test_base_positions_input_elsewhere(self):
        _, layout = running_example()
        for variant in ("vanilla", "nia", "pine_noreassign"):
            pos = modes.base_positions(AttentionMode(variant), layout, layout.n)
            assert pos.tolist() == list(range(layout.n))
        for docs in ((), ("ABC",)):  # k <= 1: nothing is re-assigned
            _, layout = tokenize(SegmentedPrompt("SY", docs, "QR"))
            for variant in ("pine", "pine_reverse"):
                pos = modes.base_positions(AttentionMode(variant), layout, layout.n)
                assert pos.tolist() == list(range(layout.n))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_base_positions_do_not_move_as_the_sequence_grows(self, variant):
        _, layout = tokenize(SegmentedPrompt("SYS", ("abc", "de", "fgh"), "q"))
        mode = AttentionMode(variant)
        grown = modes.base_positions(mode, layout, layout.n + 5)
        assert np.array_equal(grown[: layout.n], modes.base_positions(mode, layout, layout.n))

import itertools
from bisect import bisect_right

import numpy as np
import pytest

from posinv import (
    AttentionMode,
    AttentionPlan,
    SegmentedPrompt,
    assign_positions,
    attention_forward,
    build_mask,
    permute_documents,
    tokenize,
)
from posinv import kernels, modes
from posinv.kernels import row_block, row_softmax
from posinv.modes import VARIANTS
from posinv.pine import group_ordering, query_groups
from posinv.rope import rotate

from conftest import attend, attention, column_keys, doc_of, key_panel, ranked


def running_example():
    """1-token prefix, three 2-token documents, 1-token suffix."""
    return tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))


class TestAttentionModeSettings:
    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            AttentionMode("pine", aggregation="median")

    @pytest.mark.parametrize("canonical", [1, 0, "yes", None])
    def test_non_bool_canonical_rejected(self, canonical):
        with pytest.raises(ValueError, match="canonical"):
            AttentionMode("pine", canonical=canonical)


def mask_from_rows(rows):
    return np.asarray(rows, dtype=bool)


class TestBuildMask:
    def test_vanilla_lower_triangular(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("vanilla"), layout, range(8), range(8))
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
        m = build_mask(AttentionMode("pine"), layout, range(8), range(8))
        assert np.array_equal(m, expected)

    def test_pcw_first_token_of_second_doc(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("pcw"), layout, range(8), range(8))
        # Token 3 (first token of the second doc) sees prefix and itself only.
        assert list(np.nonzero(m[3])[0]) == [0, 3]

    def test_nia_blocks_inter_document_pairs(self):
        _, layout = running_example()
        m = build_mask(AttentionMode("nia"), layout, range(8), range(8))
        for q, k in itertools.product(range(1, 7), range(1, 7)):
            dq, dk = doc_of(layout, q), doc_of(layout, k)
            if dq != dk:
                assert not m[q, k]

    def test_k1_pine_equals_vanilla(self):
        _, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        assert np.array_equal(
            build_mask(AttentionMode("pine"), layout, range(layout.n), range(layout.n)),
            build_mask(AttentionMode("vanilla"), layout, range(layout.n), range(layout.n)),
        )

    def test_every_query_sees_itself(self):
        _, layout = running_example()
        for variant in ("vanilla", "nia", "pcw", "sp", "pine"):
            m = build_mask(AttentionMode(variant), layout, range(8), range(8))
            assert m.diagonal().all(), variant

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("docs", [("AB", "CD", "EF"), ("AB",)])
    def test_rows_from_q_start_are_the_full_matrix_rows(self, variant, docs):
        # Decoding extends the sequence past the prompt layout, so cover
        # total_len > layout.n as well.
        _, layout = tokenize(SegmentedPrompt("S", docs, "Q"))
        mode = AttentionMode(variant)
        # Rows and keys in any order, as a row block asks for its kept keys,
        # select the same entries.
        rng = np.random.default_rng(0)
        for total_len in (layout.n, layout.n + 2):
            full = build_mask(mode, layout, range(total_len), range(total_len))
            for q in range(total_len + 1):
                rows = range(q, total_len)
                assert np.array_equal(build_mask(mode, layout, rows, range(total_len)), full[q:]), q
            rows, keys = rng.permutation(total_len)[:5], rng.permutation(total_len)[:7]
            assert np.array_equal(build_mask(mode, layout, rows, keys), full[np.ix_(rows, keys)])


class TestAssignPositions:
    def test_vanilla_identity(self):
        _, layout = running_example()
        pos = assign_positions(AttentionMode("vanilla"), layout, 5)
        assert pos[5] == 5
        assert np.array_equal(pos, np.arange(8))

    def test_pcw_running_example(self):
        _, layout = running_example()
        pos = assign_positions(AttentionMode("pcw"), layout, 7)
        # All three docs share positions {1, 2}; the suffix token gets 3.
        assert list(pos) == [0, 1, 2, 1, 2, 1, 2, 3]
        assert pos[7] == 3

    def test_pcw_k1_identity(self):
        _, layout = tokenize(SegmentedPrompt("S", ("AB",), "Q"))
        pos = assign_positions(AttentionMode("pcw"), layout, 3)
        assert np.array_equal(pos, np.arange(layout.n))

    def test_pine_requires_ordering(self):
        _, layout = running_example()
        with pytest.raises(ValueError, match="importance ordering"):
            assign_positions(AttentionMode("pine"), layout, 1)

    @pytest.mark.parametrize("ordered", [[0], [0, 0, 1], [5, 1, 0]],
                             ids=["missing", "repeated", "out_of_range"])
    def test_pine_rejects_a_non_permutation(self, ordered):
        _, layout = running_example()
        with pytest.raises(ValueError, match="not a permutation"):
            assign_positions(AttentionMode("pine"), layout, 7, ordered_docs=ordered)

    def test_pine_with_ordering_matches_proof_layout(self):
        _, layout = running_example()
        pos = assign_positions(AttentionMode("pine"), layout, 1, ordered_docs=[2, 1, 0])
        # D3 -> {1,2}, D2 -> {3,4}, D1 -> {5,6}; prefix stays at 0.
        assert list(pos[:8]) == [0, 5, 6, 3, 4, 1, 2, 7]
        assert pos[1] == 5

    @pytest.mark.parametrize("docs, q_index, ordered, keys", [
        # prefix -> 0; D3 -> {1,2}; D2 -> {3,4}; D1 -> {5,6}
        (("AB", "CD", "EF"), 7, [2, 1, 0], [0, 5, 6, 3, 4, 1, 2, 7]),
        # the suffix query keeps its own position
        (("AB", "CD", "EF"), 7, [1, 0, 2], [0, 3, 4, 1, 2, 5, 6, 7]),
        # k = 1: nothing is re-assigned
        (("AB",), 2, [0], [0, 1, 2, 3]),
    ], ids=["proof_geometry", "suffix_keeps_own_position", "k1_identity"])
    def test_pine_layout(self, docs, q_index, ordered, keys):
        _, layout = tokenize(SegmentedPrompt("S", docs, "Q"))
        assert list(assign_positions(AttentionMode("pine"), layout, q_index, ordered)) == keys

    @pytest.mark.parametrize("variant", ["vanilla", "pine"])
    @pytest.mark.parametrize("q_index", [-1, 8], ids=["negative", "n"])
    def test_rejects_a_query_outside_the_tokens(self, variant, q_index):
        _, layout = running_example()
        with pytest.raises(ValueError, match="outside the 8 tokens"):
            assign_positions(AttentionMode(variant), layout, q_index, ordered_docs=[0, 1, 2])

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("prompt", [
        SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"),
        SegmentedPrompt("SYS: ", ("alpha", "be", "gamma!", "d", "epsilon"), " Q?"),
    ], ids=["running_example", "k5"])
    def test_is_the_runtime_rule(self, variant, prompt):
        # A prefix, a document and a suffix row of every query head, computed
        # at assign_positions' positions, match attention_forward's rows.
        _, layout = tokenize(prompt)
        mode = AttentionMode(variant)
        q, k, v = random_qkv(layout, 4, 2, 8, 3)
        out = attend(mode, q, k, v, layout)
        mask = build_mask(mode, layout, range(layout.n), range(layout.n))
        s1, e1 = layout.doc_spans[1]
        groups = {0: None, e1 - 1: (s1, e1, 1),
                  layout.suffix_start: (layout.suffix_start, layout.suffix_start + 1, -1)}
        for row, group in groups.items():
            for h in range(4):
                ordered = None
                if mode.reassigns and group is not None:
                    a, b, own = group
                    plan = AttentionPlan(mode, layout)
                    cols = plan.columns(0, len(k))[0]
                    keys = column_keys(plan, key_panel(k[cols][:, h // 2, None]))
                    ordered = group_ordering(q[a:b, h, None], keys, [plan], query_groups(
                        ranked(plan, np.full(b - a, own)), 0)).orders[0][0]
                pos = assign_positions(mode, layout, row, ordered)
                scores = (rotate(q[row, h][None], [pos[row]], 10000.0)
                          @ rotate(k[:, h // 2], pos, 10000.0).T)
                z = np.where(mask[row], scores[0].astype(np.float64) / np.sqrt(8.0), -np.inf)
                w = np.exp(z - z.max())
                w /= w.sum()
                if mode.rescales and row >= layout.suffix_start:
                    w = sp_weighted(w, layout)
                assert np.allclose(w @ v[:, h // 2], out[row, h], rtol=0, atol=1e-6), (row, h)


def sp_weighted(w, layout):
    """sp's weighting of float64 attention rows ``w`` of queries from
    ``suffix_start`` on, k >= 2: the document keys scaled by 1/k, then
    each row renormalized."""
    w = w.copy()
    w[..., layout.prefix_len:layout.suffix_start] /= layout.k
    return w / w.sum(axis=-1, keepdims=True)


class TestSpDeferredRescale:
    """sp weights the late rows' document keys by 1/k as a score bias of
    -log k before the softmax; those rows then take the division by their
    row sums that every row takes."""

    PROMPT = SegmentedPrompt("SYS: ", ("a" * 40, "b" * 41, "c" * 39), " Q?" + "x" * 120)

    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "storage"])
    def test_equals_normalize_then_rescale_in_float64(self, canonical):
        # Every prompt row, the last prompt row alone, and a row decoded at
        # a column past the prompt into a cache that has grown.
        _, layout = tokenize(self.PROMPT)
        n, n_heads, d, extra = layout.n, 4, 8, 4
        block = row_block(n, n_heads)
        assert layout.suffix_start // block < (n - 1) // block  # suffix rows in two row blocks
        assert layout.suffix_start % block  # a block holds document and suffix rows
        grown = layout.extend(extra)
        q, k, v = random_qkv(grown, n_heads, 1, d, 11)
        mode = AttentionMode("sp", canonical=canonical)
        out = attend(mode, q[:n], k[:n], v[:n], layout)
        plan = AttentionPlan(mode, layout)
        cols = plan.columns(0, n + extra)[0]
        last = attention(plan, q[n - 1:n], k[cols[:n]], v[cols[:n]], q_start=n - 1)
        decoded = attention(plan, q[-1:], k[cols], v[cols], q_start=n + extra - 1)
        pos = assign_positions(mode, grown, layout.suffix_start)
        keys = rotate(k[:, 0], pos, 10000.0).astype(np.float64)
        mask = build_mask(mode, layout, range(n + extra), range(n + extra))
        late = np.arange(n + extra) >= layout.suffix_start
        for h in range(n_heads):
            qr = rotate(q[:, h], pos, 10000.0).astype(np.float64)
            z = np.where(mask, qr @ keys.T / np.sqrt(d), -np.inf)
            w = np.exp(z - z.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            w[late] = sp_weighted(w[late], layout)
            ref = w @ v[:, 0].astype(np.float64)
            assert np.max(np.abs(out[:, h] - ref[:n])) < 1e-6, h
            assert np.max(np.abs(last[0, h] - ref[n - 1])) < 1e-6, h
            assert np.max(np.abs(decoded[0, h] - ref[-1])) < 1e-6, h

    @pytest.mark.parametrize("docs", [(), ("a" * 40,)], ids=["k0", "k1"])
    def test_k_at_most_1_bitwise_unrescaled(self, docs):
        _, layout = tokenize(SegmentedPrompt("SYS: ", docs, " Q?" + "x" * 200))
        n = layout.n
        assert layout.suffix_start // row_block(n, 4) < (n - 1) // row_block(n, 4)
        q, k, v = random_qkv(layout, 4, 1, 8, 12)
        assert np.array_equal(attend(AttentionMode("sp"), q, k, v, layout),
                              attend(AttentionMode("pcw"), q, k, v, layout))
        plans = [AttentionPlan(AttentionMode(m), layout) for m in ("sp", "pcw")]
        cols = plans[0].columns(0, n)[0]  # k <= 1: storage order in both plans
        sp_last, pcw_last = (attention(p, q[n - 1:], k[cols], v[cols], q_start=n - 1)
                             for p in plans)
        assert np.array_equal(sp_last, pcw_last)


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
        out = attend(AttentionMode("vanilla"), q, k, v, layout)
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
        a = attend(AttentionMode("vanilla"), q, k, v, layout)
        b = attend(AttentionMode("pine"), q, k, v, layout)
        assert np.array_equal(a, b)

    def test_nia_masked_independence(self):
        # Zeroing the second doc's values cannot change the first doc's
        # outputs: no attention path exists between them.
        _, layout = running_example()
        q, k, v = random_qkv(layout, 2, 1, 8, 2)
        v2 = v.copy()
        v2[3:5] = 0.0
        a = attend(AttentionMode("nia"), q, k, v, layout)
        b = attend(AttentionMode("nia"), q, k, v2, layout)
        assert np.array_equal(a[1:3], b[1:3])

    def test_prefix_rows_bitwise_vanilla_in_all_modes(self):
        _, layout = tokenize(SegmentedPrompt("SYS", ("ab", "cd", "ef"), "Q"))
        q, k, v = random_qkv(layout, 2, 1, 8, 3)
        base = attend(AttentionMode("vanilla"), q, k, v, layout)
        for variant in ("nia", "pcw", "sp", "pine", "pine_noreassign", "pine_reverse"):
            out = attend(AttentionMode(variant), q, k, v, layout)
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
        attend(mode, q, k, v, layout)
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

        def counting_softmax(x, **kwargs):
            calls.append(np.atleast_2d(x).shape[0])
            return row_softmax(x, **kwargs)

        monkeypatch.setattr(modes, "row_softmax", counting_softmax)
        mode = AttentionMode(variant)
        attend(mode, q, k, v, layout)
        suffix_rows = layout.n - layout.suffix_start
        groups = 1 + layout.k + suffix_rows if mode.reassigns else 1
        assert len(calls) <= n_heads * (groups + 1)
        assert sum(calls) == n_heads * layout.n

    @pytest.mark.parametrize("variant, ceiling", [
        ("vanilla", 0.7), ("nia", 0.35), ("pcw", 0.35), ("sp", 0.35),
        ("pine", 1.0), ("pine_noreassign", 1.0), ("pine_reverse", 1.0),
    ])
    def test_hidden_key_blocks_are_not_scored(self, variant, ceiling, monkeypatch):
        # Six documents over six row blocks: a block scores the key blocks some
        # of its rows see, and its own block up to its last row.  The ceiling
        # is the share of the [n, n] scores this prompt's plan keeps, rounded up.
        _, layout = tokenize(SegmentedPrompt("SYS: ", tuple(c * 48 for c in "abcdef"), " Q?"))
        n, n_heads = layout.n, 4
        q, k, v = random_qkv(layout, n_heads, 1, 8, 8)
        scored = []

        def recording_softmax(x, **kwargs):
            scored.append(x.size)
            return row_softmax(x, **kwargs)

        monkeypatch.setattr(modes, "row_softmax", recording_softmax)
        mode = AttentionMode(variant)
        attend(mode, q, k, v, layout)
        assert len(scored) == 6
        visible = int(build_mask(mode, layout, range(n), range(n)).sum())
        assert n_heads * visible <= sum(scored) < ceiling * n_heads * n * n

    def test_pine_softmax_calls_independent_of_query_groups(self, monkeypatch):
        # Pine scores every group at once: attention's softmax calls depend on
        # n, and the importance pass's on how many document columns it scores,
        # one ``row_block`` of rows a call, not on k or on the suffix rows
        # (each its own group), while the comparator sort still runs once per
        # (head, group).  The first two prompts have equally many document
        # columns; the third has fewer, so fewer, larger blocks.
        from posinv import pine

        n_heads = 4
        prompts = [
            SegmentedPrompt("SYS: ", ("a" * 146, "b" * 146), " Q?"),
            SegmentedPrompt("SYS: ", tuple(c * (49 if c < "e" else 48) for c in "abcdef"), " Q?"),
            SegmentedPrompt("SYS: ", ("a" * 116, "b" * 116), " Q?" + "x" * 60),
        ]
        counts = []
        for prompt in prompts:
            _, layout = tokenize(prompt)
            assert layout.n == 300  # several row blocks per KV head
            q, k, v = random_qkv(layout, n_heads, 1, 8, 7)
            calls = {"modes": 0, "pine": 0, "sort": 0}

            def counting(name, fn):
                def wrapped(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapped

            def counting_sorts(direction, ranked_sort=pine.ranked_sort):
                return counting("sort", ranked_sort(direction))  # each (group, head)'s sort

            with monkeypatch.context() as m:
                m.setattr(modes, "row_softmax", counting("modes", row_softmax))
                m.setattr(pine, "row_softmax", counting("pine", row_softmax))
                m.setattr(pine, "ranked_sort", counting_sorts)
                attend(AttentionMode("pine"), q, k, v, layout)
            assert calls["sort"] == n_heads * (layout.k + layout.n - layout.suffix_start)
            block = row_block(layout.suffix_start - layout.prefix_len, n_heads)
            assert calls["pine"] == -(-(layout.n - layout.prefix_len) // block)
            counts.append((calls["modes"], calls["pine"]))
        assert counts[0][0] > 1 and counts[2][1] > 1
        assert counts[0] == counts[1]  # the same columns: k and the groups do not count
        assert counts[2][0] == counts[0][0] and counts[2][1] < counts[0][1]  # fewer columns

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
            a = attend(AttentionMode(variant), *qkv_for(toks), layout)
            b = attend(AttentionMode(variant), *qkv_for(ptoks), playout)
            aligned = np.stack([b[mapping[i]] for i in range(layout.n)])
            if invariant:
                assert np.array_equal(a, aligned), variant
            else:
                assert np.max(np.abs(a - aligned)) > 1e-6, variant


def four_doc_prompt(doc_bytes):
    """k=4 prompt whose length grows with doc_bytes (n = 4 * doc_bytes + 8)."""
    docs = tuple(chr(ord("a") + j) * (doc_bytes - 1) + "." for j in range(4))
    return tokenize(SegmentedPrompt("SYS: ", docs, " Q?"))


class TestKVHeadsInOnePass:
    """A row block scores every KV head in one pass; each head's outputs
    equal, bitwise, a call on that head alone."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_attention_equals_one_call_per_kv_head(self, variant):
        _, layout = four_doc_prompt(73)  # n = 300
        assert row_block(layout.n, 2) < layout.n // 2  # several row blocks
        n = layout.n
        q, k, v = random_qkv(layout.extend(1), 4, 2, 8, 11)
        plan = AttentionPlan(AttentionMode(variant), layout)
        q, k, v = (x[plan.columns(0, len(x))[0]] for x in (q, k, v))
        for rows, q_start, s in ((q[:n], 0, n), (q[n:], n, n + 1)):  # prefill, one decode row
            both = attention(plan, rows, k[:s], v[:s], q_start=q_start)
            for g in range(2):
                heads, kv = slice(2 * g, 2 * g + 2), slice(g, g + 1)
                one = attention(plan, rows[:, heads], k[:s, kv], v[:s, kv], q_start=q_start)
                assert both[:, heads].tobytes() == one.tobytes(), (variant, q_start, g)

    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_group_ordering_equals_one_call_per_kv_head(self, aggregation):
        _, layout = four_doc_prompt(73)
        q, k, _ = random_qkv(layout, 4, 2, 8, 12)
        plan = AttentionPlan(AttentionMode("pine", aggregation), layout)
        q, k = (x[plan.columns(0, len(x))[0]] for x in (q, k))
        groups = query_groups(plan.col_rank, layout.prefix_len)
        p = layout.prefix_len
        both = group_ordering(q[p:], column_keys(plan, key_panel(k)), [plan], groups)
        for g in range(2):
            keys = column_keys(plan, key_panel(k[:, g:g + 1]))
            one = group_ordering(q[p:, 2 * g:2 * g + 2], keys, [plan], groups)
            assert [per_head[2 * g:2 * g + 2] for per_head in both.orders] == one.orders, g
            for got in ("scores", "starts"):
                part = getattr(both, got)[:, 2 * g:2 * g + 2]
                assert part.tobytes() == getattr(one, got).tobytes(), (g, got)


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
        # row per decode step) give the same attention, bitwise, as keys
        # rotated in one whole-sequence call.
        _, layout = tokenize(SegmentedPrompt("SYS: ", ("alpha doc", "bravo!", "charlie c"), " Q?"))
        n = layout.n
        q, k, v = random_qkv(layout.extend(2), 4, 2, 8, 6)
        mode = AttentionMode(variant, canonical=canonical)
        plan = AttentionPlan(mode, layout)
        q, k, v = (x[plan.columns(0, len(x))[0]] for x in (q, k, v))
        k_base = np.concatenate([rotate(k[c0:c1], plan.columns(c0, c1)[1], 10000.0)
                                 for c0, c1 in ((0, n), (n, n + 1), (n + 1, n + 2))])
        own = attention(plan, q[:n], k[:n], v[:n])
        cached = attention(plan, q[:n], k[:n], v[:n], k_base=k_base[:n])
        assert np.array_equal(own, cached)
        own = attention(plan, q[-1:], k, v, q_start=n + 1)
        cached = attention(plan, q[-1:], k, v, q_start=n + 1, k_base=k_base)
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


def k_doc_prompt(k):
    """k documents of 9, 16 or 23 bytes between a 5-byte prefix and an 11-byte suffix."""
    docs = tuple(chr(ord("a") + j) * (9 + 7 * (j % 3)) for j in range(k))
    return tokenize(SegmentedPrompt("SYS: ", docs, " Q? " + "x" * 7))


def hidden_by_fills(block):
    """The scores a block's fills hide, over its rows and kept columns."""
    hidden = np.zeros((block.rows.stop - block.rows.start, block.width), dtype=bool)
    for rows, cols, after in block.fills:
        if after is None:
            hidden[rows, cols] = True
        else:
            hidden[rows, cols] |= after
    return hidden


class TestBlockPlan:
    """A forward pass plans its row blocks once; each block's slice fills
    hide exactly what ``build_mask`` hides over its rows and kept columns."""

    REP = 2

    def check(self, plan, q_start, t):
        blocks = plan.row_blocks(q_start, t, self.REP)
        key_at = plan.columns(0, q_start + t)[0]
        assert blocks[0].rows.start == 0 and blocks[-1].rows.stop == t
        for block in blocks:
            r0, r1 = q_start + block.rows.start, q_start + block.rows.stop
            cols = np.concatenate([np.arange(c0, c1) for c0, c1, _ in block.runs])
            assert len(cols) == block.width
            assert [c for c0, c1 in block.spans for c in range(c0, c1)] == cols.tolist()
            expected = ~build_mask(plan.mode, plan.layout, plan.columns(r0, r1)[0], key_at[cols])
            assert np.array_equal(hidden_by_fills(block), expected), (r0, r1)
            if r1 > plan.layout.suffix_start:  # sp's late rows: columns 0 .. the last row
                assert block.spans == [(0, r1)]
        return blocks

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fills_are_the_mask(self, variant, canonical, k, monkeypatch):
        _, layout = k_doc_prompt(k)
        n = layout.n
        plan = AttentionPlan(AttentionMode(variant, canonical=canonical), layout)
        # 7-row blocks, which start and end inside key blocks
        monkeypatch.setattr(kernels, "_BLOCK_SCORES", 7 * self.REP * n)
        blocks = self.check(plan, 0, n)
        assert len(blocks) >= 3
        starts = [c0 for c0, _, _ in plan.key_blocks]
        straddle = [b for b in blocks
                    if len({bisect_right(starts, c) for c in range(b.rows.start, b.rows.stop)}) > 1]
        assert straddle
        self.check(plan, layout.suffix_start, n - layout.suffix_start)  # the suffix rows alone
        monkeypatch.undo()
        for q_start in (n, n + 3):  # a lone decoded row: one block, no fills
            (block,) = self.check(plan, q_start, 1)
            assert block.fills == [] and block.width == q_start + 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fills_are_the_mask_at_a_realistic_size(self, variant):
        _, layout = tokenize(SegmentedPrompt("SYS: ", tuple(c * (40 + 3 * i) for i, c in
                                                           enumerate("abcdefgh")), " Q?"))
        plan = AttentionPlan(AttentionMode(variant), layout)
        assert len(self.check(plan, 0, layout.n)) >= 3


class TestKeptLonePlan:
    """A lone row at or past suffix_start sees every key, so ``plan.rows``
    gives it the plan the AttentionPlan keeps: it must equal the plan that
    ``row_blocks``, ``columns`` and ``query_groups`` build for that row, at
    every column a decode step can reach."""

    MAX_SEQ_LEN = 96

    @pytest.mark.parametrize("prefix, suffix", [("SYS: ", " Q?"), ("", " Q?"), ("SYS: ", "")])
    @pytest.mark.parametrize("docs", [(), ("alpha",), ("alpha", "bravo two", "c")])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kept_plan_equals_the_general_plan(self, variant, canonical, docs, prefix, suffix):
        _, layout = tokenize(SegmentedPrompt(prefix, docs, suffix))
        plan = AttentionPlan(AttentionMode(variant, canonical=canonical), layout)
        rep = 2
        for c in range(max(layout.suffix_start, 1), self.MAX_SEQ_LEN):
            got = plan.rows(c, 1, rep)
            index, base, doc = plan.columns(c, c + 1)
            assert got.start == c
            for field, want in ((got.index, index), (got.base, base)):
                assert field.dtype == want.dtype and np.array_equal(field, want), c
            assert got.blocks == plan.row_blocks(c, 1, rep), c
            assert got.groups == (query_groups(doc, 0) if plan.reorders else None), c


class TestRowsMustNotCutDocuments:
    """Rows that start inside the prefix or the documents, or that stop
    short of the suffix, would read the wrong storage rows: ``plan.rows``
    refuses them, and attention refuses queries or keys that do not match
    the rows it is given."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_that_cut_documents_are_refused(self, variant):
        _, layout = tokenize(SegmentedPrompt("S", ("zzz", "aa", "mmmm"), "Q"))
        n = layout.n
        assert layout.suffix_start == n - 1
        q, k, v = random_qkv(layout, 2, 1, 8, 3)
        plan = AttentionPlan(AttentionMode(variant), layout)
        q, k, v = (x[plan.columns(0, len(x))[0]] for x in (q, k, v))
        for q_start, t in [(3, n - 3), (5, n - 5), (1, 2), (0, n - 2), (0, 1)]:
            with pytest.raises(ValueError, match="cut the documents"):
                plan.rows(q_start, t, 2)
            with pytest.raises(ValueError, match="cut the documents"):
                attention(plan, q[q_start:q_start + t], k, v, q_start=q_start)
        k_base = key_panel(rotate(k, plan.columns(0, n)[1], 10000.0))
        k_raw = column_keys(plan, key_panel(k[plan.ranked_cols]))
        values = np.ascontiguousarray(v.swapaxes(0, 1))
        whole, last = plan.rows(0, n, 2), plan.rows(n - 1, 1, 2)
        for rows, q_rows, keys, vals in [
                (whole, q[1:], k_base, values),  # a query short of the rows
                (last, q[n - 1:], k_base[..., :n - 1], values[:, :n - 1]),  # keys end too soon
                (whole, q, k_base[..., :n - 1], values)]:  # a key panel short of the values
            with pytest.raises(ValueError, match="do not match the"):
                attention_forward([plan], q_rows, k_raw, vals, keys, [rows], 10000.0)
        full = attention(plan, q, k, v)
        last = attention(plan, q[n - 1:], k, v, q_start=n - 1)
        assert np.max(np.abs(last - full[n - 1:])) < 1e-6


class TestKeyPanels:
    """The KV cache keeps rotated keys (and pine's raw prompt keys) as
    [n_kv_heads, d_head, columns] panels and values as [n_kv_heads, columns,
    d_head], and ``KVCache.write`` hands attention those panels: views of
    the cache, which attention and the importance pass read as they are, and
    which give the same bits as contiguous copies of them."""

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cache_views_and_contiguous_copies_agree_bitwise(self, variant, canonical,
                                                             monkeypatch):
        from posinv import KVCache, Model, ModelConfig, decode_step, init_random, prefill

        config = ModelConfig(n_layers=1, n_heads=4, n_kv_heads=2, d_model=32, d_head=8,
                             d_ff=64, vocab_size=260, max_seq_len=256)
        model = Model(config, init_random(config, 4))
        tokens, layout = four_doc_prompt(13)
        mode = AttentionMode(variant, canonical=canonical)
        written, write = [], KVCache.write

        def recording_write(cache, *args):
            panels = write(cache, *args)
            written.append(panels)
            return panels

        monkeypatch.setattr(KVCache, "write", recording_write)
        cache, logits = prefill(model, tokens, layout, mode)
        decode_step(model, cache, int(np.argmax(logits)), mode)
        plan, n, p = cache.plan, layout.n, layout.prefix_len
        assert cache.n_cached < cache.capacity  # the panels are views of a padded buffer
        rng = np.random.default_rng(9)
        q = rng.normal(size=(n + 1, 4, 8)).astype(np.float32)
        for rows, q_start, panels in ((q[:n], 0, written[0]), (q[n:], n, written[1])):
            k_raw, k_base, v = panels
            s = q_start + len(rows)
            assert k_base.shape == (2, 8, s) and v.shape == (2, s, 8)
            assert np.shares_memory(k_base, cache.buffers[0])  # no copy
            assert np.shares_memory(v, cache.buffers[0])
            assert k_raw is (cache.k_raw[0] if plan.reorders else None)
            for panel in (k_base, k_raw):  # keys: a unit-stride column axis
                assert panel is None or panel.strides[2] == panel.itemsize
            copies = [None if x is None else np.ascontiguousarray(x) for x in panels]
            planned = plan.rows(q_start, len(rows), 2)
            raw = [None if x[0] is None else column_keys(plan, x[0]) for x in (panels, copies)]
            got = [attention_forward([plan], rows, keys, x[2], x[1], [planned], 10000.0)
                   for keys, x in zip(raw, (panels, copies))]
            assert got[0].tobytes() == got[1].tobytes(), q_start
            # pine's query groups start after a prefill's prefix and at a decoded
            # row; a plan that does not reorder has none, and the importance pass
            # is run here with a pine plan's groups over the same columns.
            groups = planned.groups
            assert (groups is None) == (not plan.reorders)
            if groups is None:
                groups = AttentionPlan(AttentionMode("pine", canonical=canonical),
                                       layout).rows(q_start, len(rows), 2).groups
            assert groups.first == (0 if q_start else p)
            keys = [column_keys(plan, x[1] if x[0] is None else x[0]) for x in (panels, copies)]
            a, b = (group_ordering(rows[groups.first:], x, [plan], groups) for x in keys)
            assert a.orders == b.orders, q_start
            assert a.scores.tobytes() == b.scores.tobytes(), q_start
            assert a.starts.tobytes() == b.starts.tobytes(), q_start


class TestLoneDecodedRow:
    """A lone row at or past suffix_start, a decode step's, runs the block
    path as one block of one row and, under a plan that reorders, one query
    group of its own: it must give what the same row gets inside a 2-row
    call, in every mode."""

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_lone_row_equals_the_block_path(self, variant, aggregation, canonical, k):
        _, layout = k_doc_prompt(k)
        n = layout.n
        plan = AttentionPlan(AttentionMode(variant, aggregation, canonical), layout)
        cols = plan.columns(0, n + 2)[0]
        q, kk, v = (x[cols] for x in random_qkv(layout.extend(2), 4, 2, 8, 20 + k))
        pair = attention(plan, q[n:], kk, v, q_start=n)  # two decoded rows in one block
        assert len(plan.row_blocks(n, 2, 2)) == 1
        for r in range(2):
            one = attention(plan, q[n + r:n + r + 1], kk[:n + r + 1], v[:n + r + 1], q_start=n + r)
            assert np.max(np.abs(one[0] - pair[r])) < 1e-6, r

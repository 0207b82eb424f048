import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv import kernels, pine
from posinv import (
    AttentionMode,
    AttentionPlan,
    Model,
    ModelConfig,
    SegmentedPrompt,
    init_random,
    permute_documents,
    prefill,
    tokenize,
)
from posinv.pine import (
    comparison_count,
    group_ordering,
    laid_out,
    query_groups,
    ranked_sort,
)

from conftest import attend, doc_of, key_panel, ranked


def one_token_docs(k):
    """A 1-token prefix, k one-token documents and a 3-token suffix."""
    return tokenize(SegmentedPrompt("S", tuple("abcdefgh"[:k]), "QRT"))[1]


def one_suffix_row(q_row, doc_keys):
    """One-token documents keyed by ``doc_keys`` and the first suffix row
    querying them with ``q_row``, every other row zero: (layout, q, k, rows)."""
    layout = one_token_docs(len(doc_keys))
    q = np.zeros((layout.n, len(q_row)), dtype=np.float32)
    k = np.zeros_like(q)
    q[layout.suffix_start] = q_row
    k[layout.prefix_len:layout.suffix_start] = doc_keys
    return layout, q, k, (layout.suffix_start, layout.suffix_start + 1)


def group_scores(q, k, layout, rows, own, aggregation="mean"):
    """One head's scores of the query group at storage rows ``rows``, whose
    own document is ``own`` (-1: a single suffix row), from group_ordering:
    {candidate document: score}."""
    a, b = rows
    scores = ordering(q[a:b, None], k[:, None], layout, np.full(b - a, own), aggregation).scores
    return {j: s for j, s in enumerate(scores[0, 0].tolist()) if j != own}


def hand_loop_scores(q, k, layout, rows, own, aggregation):
    """Float64 pure-Python scores of every document but ``own`` for the
    query group at storage rows ``rows``, on one head: each row's softmax
    over the candidates' keys, summed (max: maximized) over each document's
    tokens and the group's rows, and for mean divided by the length."""
    cands = [j for j in range(layout.k) if j != own]
    keys = [(j, t) for j in cands for t in range(*layout.doc_spans[j])]
    d = q.shape[1]
    scores = {j: 0.0 for j in cands}
    for r in range(*rows):
        logits = [sum(float(q[r, i]) * float(k[t, i]) for i in range(d)) / math.sqrt(d)
                  for _, t in keys]
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        for (j, _), e in zip(keys, exps):
            p = e / sum(exps)
            scores[j] = max(scores[j], p) if aggregation == "max" else scores[j] + p
    if aggregation == "mean":
        scores = {j: v / layout.doc_len(j) for j, v in scores.items()}
    return scores


class TestTokenImportance:
    # With one-token documents and sum aggregation, a suffix row's scores
    # are its softmax probabilities over the candidate tokens.
    def test_singleton_softmax(self):
        _, layout = tokenize(SegmentedPrompt("S", ("a", "b"), "Q"))
        q = np.asarray([[1.0, 2.0]] * layout.n, dtype=np.float32)
        k = np.asarray([[0.5, 0.5]] * layout.n, dtype=np.float32)
        a, _ = layout.doc_spans[0]
        assert group_scores(q, k, layout, (a, a + 1), 0) == {1: 1.0}

    def test_orthogonal_queries_uniform(self):
        layout, q, k, rows = one_suffix_row([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
        scores = group_scores(q, k, layout, rows, -1)
        assert np.allclose(list(scores.values()), 0.5, atol=1e-7)

    def test_worked_two_candidate_example(self):
        # q=[1,0], k1=[1,0], k2=[0,1], d=2: logits [1/sqrt(2), 0].
        layout, q, k, rows = one_suffix_row([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        scores = group_scores(q, k, layout, rows, -1, "sum")
        z = math.exp(1.0 / math.sqrt(2.0)) + math.exp(0.0)
        expected = [math.exp(1.0 / math.sqrt(2.0)) / z, 1.0 / z]
        assert abs(expected[0] - 0.6698) < 1e-3
        assert abs(expected[1] - 0.3302) < 1e-3
        assert np.max(np.abs([scores[0] - expected[0], scores[1] - expected[1]])) < 1e-6

    def test_hand_loop_reference(self):
        layout = one_token_docs(5)
        rng = np.random.default_rng(0)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        a = layout.suffix_start
        orders = ordering(q[a:, None], k[:, None], layout, np.full(layout.n - a, -1), "sum")
        for i, scores in enumerate(orders.scores[:, 0]):
            ref = hand_loop_scores(q, k, layout, (a + i, a + i + 1), -1, "sum")
            assert max(abs(scores[j] - ref[j]) for j in ref) < 1e-6


class TestDocImportance:
    def test_continues_worked_example(self):
        # mean == sum == max for one row over one-token documents
        layout, q, k, rows = one_suffix_row([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        scores = group_scores(q, k, layout, rows, -1, "mean")
        z = math.exp(1.0 / math.sqrt(2.0)) + 1.0
        assert abs(scores[0] - math.exp(1.0 / math.sqrt(2.0)) / z) < 1e-6
        assert abs(scores[1] - 1.0 / z) < 1e-6
        assert scores == group_scores(q, k, layout, rows, -1, "sum")
        assert scores == group_scores(q, k, layout, rows, -1, "max")

    def test_identical_contents_equal_scores(self):
        _, layout = tokenize(SegmentedPrompt("S", ("XY", "XY", "Z"), "Q"))
        rng = np.random.default_rng(7)
        q = rng.normal(size=(layout.n, 3)).astype(np.float32)
        k = rng.normal(size=(layout.n, 3)).astype(np.float32)
        k[slice(*layout.doc_spans[1])] = k[slice(*layout.doc_spans[0])]
        s = group_scores(q, k, layout, (layout.suffix_start, layout.suffix_start + 1), -1)
        assert s[0] == s[1]

    def test_mean_aggregation_identity(self):
        # sum_j score_j * |D_j| == number of query rows, by row normalization
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            lengths = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            _, layout = tokenize(SegmentedPrompt("S", ("x" * m, *("y" * ln for ln in lengths)),
                                                 "Q"))
            q = rng.normal(size=(layout.n, 8)).astype(np.float32)
            k = rng.normal(size=(layout.n, 8)).astype(np.float32)
            scores = group_scores(q, k, layout, layout.doc_spans[0], 0)
            total = sum(s * layout.doc_len(j) for j, s in scores.items())
            assert abs(total - m) < 1e-5


class TestOrderDocuments:
    """``ranked_sort`` orders ranked positions (indices into the documents
    sorted by content hash, then input index) by a score row."""

    def test_proof_example(self):
        # For a query document D1 with Sim(D1,D2) > Sim(D1,D3), keys sort
        # [D3 | D2 | D1]; the candidate order here is D3 then D2.  The hashes
        # (111, 222, 333) rank the documents in input order.
        assert ranked_sort("closer")([0.0, 0.7, 0.3], [1, 2]) == [2, 1]

    def test_reversed_direction(self):
        assert ranked_sort("reversed")([0.0, 0.7, 0.3], [1, 2]) == [1, 2]

    def test_tie_break_by_content_hash(self):
        # hashes (500, 100, 300) rank documents 1, 2, 0: equal scores keep that order
        ranked = [1, 2, 0]
        order = ranked_sort("closer")([0.5, 0.5, 0.5], [0, 1, 2])
        assert [ranked[i] for i in order] == [1, 2, 0]

    @pytest.mark.parametrize("direction", ["close", "closest", "reverse", "", None, 1])
    def test_unknown_direction_rejected(self, direction):
        # Only "closer" sorts ascending and "reversed" descending; any other
        # direction is an error, not quietly the reversed sort.
        with pytest.raises(ValueError, match="unknown sort direction"):
            ranked_sort(direction)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ranked_sort_orders_by_score_then_content_hash(self, data):
        # group_ordering sorts ranked positions (content hash, then input
        # index) by a float64 row.  Scores are drawn from a few values and
        # contents from a few hashes, so exact ties reach both tie rules.
        k = data.draw(st.integers(2, 8))
        hashes = tuple(data.draw(st.lists(st.sampled_from([5, 17, 99]), min_size=k, max_size=k)))
        scores = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0, 1),
                                    min_size=k, max_size=k))
        own = data.draw(st.integers(-1, k - 1))  # -1: a group with no document of its own
        direction = data.draw(st.sampled_from(["closer", "reversed"]))
        ranked = sorted(range(k), key=lambda j: (hashes[j], j))
        got = ranked_sort(direction)([scores[j] for j in ranked],
                                     [i for i, j in enumerate(ranked) if j != own])
        got = [ranked[i] for i in got]
        candidates = {j: scores[j] for j in ranked if j != own}
        sign = 1 if direction == "closer" else -1
        assert got == sorted(candidates, key=lambda j: (sign * scores[j], hashes[j], j))

    def test_comparison_counter_grows(self):
        before = comparison_count()
        ranked_sort("closer")([float(i) for i in range(8)], list(range(8)))
        assert comparison_count() > before


def random_head(layout, seed, d=8):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(layout.n, d)).astype(np.float32)
    k = rng.normal(size=(layout.n, d)).astype(np.float32)
    v = rng.normal(size=(layout.n, d)).astype(np.float32)
    return q, k, v


def pine_attention(q, k, v, layout, variant="pine"):
    """Single-head full-sequence ``attend`` under the pine mode (or
    ``variant``) on storage-order queries, keys and values."""
    return attend(AttentionMode(variant), q[:, None], k[:, None], v[:, None], layout)[:, 0]


def ordering(q, k, layout, own, aggregation="mean"):
    """group_ordering of query rows against storage-order keys, laid out
    in the columns of pine's plan."""
    plan = AttentionPlan(AttentionMode("pine", aggregation), layout)
    return group_ordering(q, key_panel(k[plan.columns(0, len(k))[0]]), [plan],
                          query_groups(ranked(plan, own), 0))


class TestPineAttention:
    def test_degenerate_matches_vanilla_bitwise(self):
        for docs in ((), ("ABC",)):
            _, layout = tokenize(SegmentedPrompt("SY", docs, "QR"))
            q, k, v = random_head(layout, 0)
            h_pine = pine_attention(q, k, v, layout)
            h_van = pine_attention(q, k, v, layout, "vanilla")
            assert np.array_equal(h_pine, h_van)

    def test_identical_documents_swap_is_bitwise_noop(self):
        prompt = SegmentedPrompt("S", ("XY", "XY"), "Q")
        toks, layout = tokenize(prompt)
        # identical contents => identical rows; swapping changes nothing
        rng = np.random.default_rng(1)
        per_token = {t: rng.normal(size=(3, 8)).astype(np.float32) for t in set(toks)}
        q = np.stack([per_token[t][0] for t in toks])
        k = np.stack([per_token[t][1] for t in toks])
        v = np.stack([per_token[t][2] for t in toks])
        a = pine_attention(q, k, v, layout)
        b = pine_attention(q, k, v, layout)  # same inputs after swap by symmetry
        assert np.array_equal(a, b)

    def test_brute_force_reference(self):
        # Independent explicit-loop reimplementation of the grouped
        # importance/sort/re-rotate pipeline for one head.
        _, layout = tokenize(SegmentedPrompt("SY", ("abc", "de", "fgh"), "QR"))
        q, k, v = random_head(layout, 2)
        out = pine_attention(q, k, v, layout)
        d = q.shape[1]
        n = layout.n

        for qi in range(n):
            own = doc_of(layout, qi)
            if own is None and qi < layout.suffix_start:
                ordered = None  # prefix row: vanilla
            else:
                cands = sorted(
                    (j for j in range(layout.k) if j != own),
                    key=lambda j: (layout.doc_hashes[j], j),
                )
                if own is not None:
                    qa, qe = layout.doc_spans[own]
                    q_rows = list(range(qa, qe))
                else:
                    q_rows = [qi]
                key_idx = [t for j in cands for t in range(*layout.doc_spans[j])]
                sums = {j: 0.0 for j in cands}
                for r in q_rows:
                    logits = [float(np.dot(q[r], k[t])) / math.sqrt(d) for t in key_idx]
                    mx = max(logits)
                    exps = [math.exp(z - mx) for z in logits]
                    tot = sum(exps)
                    for e, t in zip(exps, key_idx):
                        sums[doc_of(layout, t)] += e / tot
                scores = {
                    j: sums[j] / (layout.doc_spans[j][1] - layout.doc_spans[j][0])
                    for j in cands
                }
                ordered = sorted(cands, key=lambda j: (scores[j], layout.doc_hashes[j], j))
                if own is not None:
                    ordered.append(own)
            pos = list(range(n))
            if ordered is not None:
                cursor = layout.prefix_len
                for j in ordered:
                    s, e = layout.doc_spans[j]
                    for o in range(e - s):
                        pos[s + o] = cursor + o
                    cursor += e - s
            vis = []
            for t in range(n):
                dq, dk = doc_of(layout, qi), doc_of(layout, t)
                if dq is not None and dk is not None and dq != dk:
                    vis.append(t)
                elif t <= qi:
                    vis.append(t)

            def rope(vec, p):
                o = np.empty(d)
                for i in range(0, d, 2):
                    ang = p * 10000.0 ** (-(i) / d)
                    c, s_ = math.cos(ang), math.sin(ang)
                    o[i] = vec[i] * c - vec[i + 1] * s_
                    o[i + 1] = vec[i] * s_ + vec[i + 1] * c
                return o

            qr = rope(q[qi].astype(np.float64), pos[qi])
            logits = [float(np.dot(qr, rope(k[t].astype(np.float64), pos[t]))) / math.sqrt(d)
                      for t in vis]
            mx = max(logits)
            exps = [math.exp(z - mx) for z in logits]
            w = [e / sum(exps) for e in exps]
            ref = sum(wi * v[t].astype(np.float64) for wi, t in zip(w, vis))
            assert np.max(np.abs(out[qi] - ref)) < 1e-5, qi


class TestComplexity:
    def test_ordering_cost_grows_as_k_log_k(self):
        # comparator invocations per ordering call across k
        ratios = []
        rng = np.random.default_rng(3)
        for k in (2, 4, 8, 16, 32):
            scores = [float(rng.random()) for _ in range(k)]
            before = comparison_count()
            ranked_sort("closer")(scores, list(range(k)))
            ratios.append((comparison_count() - before) / (k * math.log2(k)))
        assert max(ratios) / min(ratios) <= 2.0


class TestGroupOrdering:
    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_permutation_invariant_scores(self, aggregation):
        # Every query group of a GQA layout (4 query heads over 2 KV heads),
        # in column order as attention passes them: scores and orders, keyed
        # by content hash, are bitwise equal under every document order.
        prompt = SegmentedPrompt("S", ("abc", "de", "fgh", "ij", "klmn"), "QR")
        rng = np.random.default_rng(4)
        per_token = {t: (rng.normal(size=(4, 8)).astype(np.float32),
                         rng.normal(size=(2, 8)).astype(np.float32))
                     for t in sorted(set(tokenize(prompt)[0]))}

        def by_hash(perm):
            toks, layout = tokenize(permute_documents(prompt, perm))
            plan = AttentionPlan(AttentionMode("pine", aggregation), layout)
            cols = plan.columns(0, len(toks))[0]
            q = np.stack([per_token[t][0] for t in toks])[cols]
            k = np.stack([per_token[t][1] for t in toks])[cols]
            p = layout.prefix_len
            groups = query_groups(plan.col_rank, p)
            got = group_ordering(q[p:], key_panel(k), [plan], groups)
            h, owners = layout.doc_hashes, [plan.ranked[j] if j >= 0 else -1 for j in groups.docs]
            return [[([h[j] for j in ordered], {h[j]: v for j, v in enumerate(scores) if j != own})
                     for ordered, scores in zip(per_head, per_group)]
                    for own, per_head, per_group in zip(owners, got.orders, got.scores.tolist())]

        ref = by_hash([0, 1, 2, 3, 4])
        assert len(ref) == 5 + 2 and len(ref[0]) == 4
        for perm in ([4, 2, 0, 3, 1], [1, 0, 3, 4, 2], [2, 3, 4, 1, 0]):
            assert by_hash(perm) == ref, perm

    def test_own_document_pinned_last(self):
        _, layout = tokenize(SegmentedPrompt("S", ("ab", "cd", "ef"), "Q"))
        rng = np.random.default_rng(5)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        a, b = layout.doc_spans[1]
        got = ordering(q[a:b, None], k[:, None], layout, np.full(b - a, 1))
        assert got.orders[0][0][-1] == 1
        assert got.scores[0, 0, 1] == 0.0

    @pytest.mark.parametrize("group", ["suffix_row", "document_group"])
    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_matches_float64_hand_loop(self, aggregation, group):
        _, layout = tokenize(SegmentedPrompt("S", ("abc", "de", "fghi", "j"), "QR"))
        rng = np.random.default_rng(6)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        rows, own = {"suffix_row": ((layout.suffix_start, layout.suffix_start + 1), -1),
                     "document_group": (layout.doc_spans[2], 2)}[group]
        got = group_scores(q, k, layout, rows, own, aggregation)
        ref = hand_loop_scores(q, k, layout, rows, own, aggregation)
        assert got.keys() == ref.keys()
        assert np.allclose([got[j] for j in ref], list(ref.values()), rtol=1e-6, atol=0)

    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_groups_across_row_blocks_match_float64_hand_loop(self, aggregation, monkeypatch):
        # Row blocks of 3 rows: a group's rows, and the own document each
        # hides, run over several blocks.
        _, layout = tokenize(SegmentedPrompt("S", ("abcdefg", "de", "fghijklm", "j"), "QRS"))
        rng = np.random.default_rng(7)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        plan = AttentionPlan(AttentionMode("pine", aggregation), layout)
        monkeypatch.setattr(kernels, "_BLOCK_SCORES", 3 * layout.n)
        p = layout.prefix_len
        cols = plan.columns(0, layout.n)[0]
        orders = group_ordering(q[cols][p:, None], key_panel(k[cols][:, None]), [plan],
                                query_groups(plan.col_rank, p))
        suffix_rows = [(r, r + 1) for r in range(layout.suffix_start, layout.n)]
        groups = [(layout.doc_spans[j], j) for j in plan.docs] + [(r, -1) for r in suffix_rows]
        assert len(orders.orders) == len(groups)
        for (rows, own), got in zip(groups, orders.scores[:, 0]):
            ref = hand_loop_scores(q, k, layout, rows, own, aggregation)
            assert np.allclose([got[j] for j in ref], list(ref.values()), rtol=1e-6, atol=0)

    def test_one_group_blocks_skip_their_own_document(self, monkeypatch):
        # Row blocks of 3 rows: a block whose rows all lie in document j's
        # group is exponentiated over every document column but j's, while a
        # block straddling two groups, or holding suffix rows, takes them all.
        _, layout = tokenize(SegmentedPrompt("S", ("abcdefg", "de", "fghijklm", "j"), "QRS"))
        rng = np.random.default_rng(8)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        plan = AttentionPlan(AttentionMode("pine"), layout)
        monkeypatch.setattr(kernels, "_BLOCK_SCORES", 3 * layout.n)
        widths, row_softmax = [], pine.row_softmax

        def recording(x, *args, **kwargs):
            widths.append(x.shape[-1])
            return row_softmax(x, *args, **kwargs)

        monkeypatch.setattr(pine, "row_softmax", recording)
        p, n_cols = layout.prefix_len, layout.suffix_start - layout.prefix_len
        cols = plan.columns(0, layout.n)[0]
        group_ordering(q[cols][p:, None], key_panel(k[cols][:, None]), [plan],
                       query_groups(plan.col_rank, p))
        owners = plan.col_rank[p:].tolist()
        blocks = [owners[b:b + 3] for b in range(0, len(owners), 3)]
        assert len(widths) == len(blocks)
        kinds = set()
        for rows, width in zip(blocks, widths):
            if len(set(rows)) == 1 and rows[0] >= 0:  # inside one document's group
                kinds.add("one group")
                assert width == n_cols - plan.ranked_lens[rows[0]]
            else:
                kinds.add("suffix" if -1 in rows else "straddling")
                assert width == n_cols
        assert kinds == {"one group", "straddling", "suffix"}

    @pytest.mark.parametrize("docs", [(), ("ab",)], ids=["k0", "k1"])
    def test_fewer_than_two_documents_rejected(self, docs):
        # With k < 2 there is nothing to order; the runtime never asks.
        _, layout = tokenize(SegmentedPrompt("S", docs, "Q"))
        q = np.ones((1, 1, 8), dtype=np.float32)
        k = np.ones((layout.n, 1, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="k >= 2"):
            ordering(q, k, layout, np.full(1, -1))


def block_starts(layout, ordered):
    """Start of each document (indexed by document) when all are laid out
    contiguously from the prefix boundary in ``ordered`` order, by hand:
    the reference for ``pine.laid_out``."""
    at, cursor = [0] * layout.k, layout.prefix_len
    for j in ordered:
        s, e = layout.doc_spans[j]
        at[j], cursor = cursor, cursor + e - s
    return at


def row_starts(q, keys, plan, groups):
    """Each query row's start of every ranked position, [rows, heads, k]: its
    group's ``group_ordering`` starts, as attention takes them."""
    starts = group_ordering(q, keys, [plan], groups).starts
    return np.repeat(starts, np.diff([*groups.bounds, len(q)]), axis=0)


class TestOrderingGoldens:
    """Orders recorded before the ordering pass took one comparator per call
    over ranked positions, asserted bit for bit through ``row_starts``.
    Every document key is one raw key vector, so exact ties reach the hash
    rule; documents 0 and 2 have identical contents, so the input index
    decides between them.  A string lists one row's documents in key-block
    order, least important first: each storage row from the first
    document's on, then a decoded row."""

    GOLDEN = {
        ("pine", "mean"): "23410 23410 02341 02341 02341 03412 03412 02413 02413 02314 "
                          "02341 02341 02341",
        ("pine", "sum"): "42310 42310 40231 40231 40231 40312 40312 40213 40213 02314 "
                         "40231 40231 40231",
        ("pine", "max"): "23410 23410 02341 02341 02341 03412 03412 02413 02413 02314 "
                         "02341 02341 02341",
        ("pine_reverse", "mean"): "23410 23410 02341 02341 02341 03412 03412 02413 02413 10234 "
                                  "10234 10234 10234",
        ("pine_reverse", "sum"): "12340 12340 02341 02341 02341 10342 10342 10243 10243 10234 "
                                 "10234 10234 10234",
        ("pine_reverse", "max"): "23410 23410 02341 02341 02341 03412 03412 02413 02413 02314 "
                                 "02341 02341 02341",
    }

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant, aggregation", list(GOLDEN))
    def test_document_starts(self, variant, aggregation, canonical):
        _, layout = tokenize(SegmentedPrompt("S", ("ab", "cde", "ab", "fg", "h"), "QR"))
        rng = np.random.default_rng(26)
        q = rng.normal(size=(layout.n + 1, 4, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 2, 8)).astype(np.float32)
        k[layout.prefix_len:layout.suffix_start] = rng.normal(size=(2, 8)).astype(np.float32)
        plan = AttentionPlan(AttentionMode(variant, aggregation, canonical), layout)
        cols = plan.columns(0, layout.n)[0]
        keys = key_panel(k[cols][plan.ranked_cols])
        p = layout.prefix_len
        prefill = row_starts(q[cols][p:], keys, plan, query_groups(plan.col_rank, p))
        decoded = row_starts(q[layout.n:], keys, plan, query_groups(np.full(1, -1), 0))
        got = np.empty_like(prefill)
        got[cols[p:] - p] = prefill  # the rows back in storage order
        orders = self.GOLDEN[variant, aggregation].split()
        want = np.array([[block_starts(layout, map(int, o))] * 4 for o in orders], dtype=np.int64)
        by_document = np.concatenate([got, decoded]).take(plan.rank, axis=2)
        assert by_document.tobytes() == want.tobytes()


class TestDocumentStarts:
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_storage_order_gives_input_starts(self, k, canonical):
        docs = tuple("abcdefgh"[j] * (1 + (3 * j) % 4) for j in range(k))
        _, layout = tokenize(SegmentedPrompt("S", docs, "QR"))
        plan = AttentionPlan(AttentionMode("pine", canonical=canonical), layout)
        starts = laid_out(plan.rank, plan.ranked_lens, layout.prefix_len, [0] * k)  # ranked
        assert [starts[r] for r in plan.rank] == [s for s, _ in layout.doc_spans]

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("variant", ["pine", "pine_reverse"])
    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_block_starts_of_group_ordering(self, k, aggregation, variant, canonical):
        # The starts row_starts lays out for every row and head at once
        # are block_starts of the order group_ordering gives the row's group:
        # prefill rows (each document's rows one group, each suffix row its
        # own) and a lone decoded row, over 4 query heads and 2 KV heads.
        docs = tuple("abcdefgh"[j] * (1 + (3 * j) % 4) for j in range(k))
        _, layout = tokenize(SegmentedPrompt("S", docs, "QR"))
        plan = AttentionPlan(AttentionMode(variant, aggregation, canonical), layout)
        rng = np.random.default_rng(k)
        q = rng.normal(size=(layout.n + 1, 4, 8)).astype(np.float32)
        cols = plan.columns(0, layout.n)[0]
        keys = rng.normal(size=(layout.n, 2, 8)).astype(np.float32)[cols][plan.ranked_cols]
        keys = key_panel(keys)
        p = layout.prefix_len
        cases = [(q[cols][p:], plan.col_rank[p:]),  # prefill rows
                 (q[layout.n:], np.full(1, -1))]  # a decoded row
        for rows, own in cases:
            starts = row_starts(rows, keys, plan, query_groups(own, 0))
            starts = starts.take(plan.rank, axis=2)  # by document
            orders = group_ordering(rows, keys, [plan], query_groups(own, 0)).orders
            assert starts.shape == (len(rows), 4, k)
            group = -1
            for i, mine in enumerate(own.tolist()):
                group += mine < 0 or i == 0 or mine != own[i - 1]
                for head, ordered in enumerate(orders[group]):
                    assert starts[i, head].tolist() == block_starts(layout, ordered), (i, head)
            assert group == len(orders) - 1


def seeded_docs(k, seed):
    """k documents of seeded words, which share letters and spaces; each
    ends in a capital that only it holds."""
    rng = np.random.default_rng(seed)
    words = ("the", "river", "court", "data", "model", "bridge", "on", "a")
    return tuple(" ".join(rng.choice(words, size=int(rng.integers(1, 5)))) + " " + chr(65 + j)
                 for j in range(k))


class TestKeySet:
    """Layer 0's importance pass scores one raw key per distinct token
    (``pine.KeySet``) where the other layers score every document column."""

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_key_set_matches_the_column_path(self, k, aggregation, canonical):
        # The same queries through both paths, prefill rows and a decoded row,
        # 4 query heads over 2 KV heads: equal orders and scores within
        # rounding.  One document also holds a token no other holds, and its
        # rows' queries point along that token's key, with a logit about 140
        # above the rest: a row max that took that hidden token in would
        # leave every other exponential 0.
        toks, layout = tokenize(SegmentedPrompt("SYS: ", seeded_docs(k, k), " Q?"))
        plan = AttentionPlan(AttentionMode("pine", aggregation, canonical), layout)
        rng = np.random.default_rng(40 + k)
        table = rng.normal(size=(260, 2, 8)).astype(np.float32)
        table[:, :, 0] = 0
        table[ord("A"), :, 0] = 400  # the first document's own token
        cols = plan.columns(0, layout.n)[0]
        ids = np.asarray(toks)[cols]
        panel = key_panel(table[ids][plan.ranked_cols])
        key_set = pine.key_set(ids, plan)
        key_set = key_set._replace(keys=panel[:, :, key_set.first])
        q = rng.normal(size=(layout.n + 1, 4, 8)).astype(np.float32)
        q[:, :, 0] = 0
        q[slice(*layout.doc_spans[0]), :, 0] = 1
        p = layout.prefix_len
        cases = [(q[cols][p:], query_groups(plan.col_rank, p)),  # prefill rows
                 (q[layout.n:], query_groups(np.full(1, -1), 0))]  # a decoded row
        for rows, groups in cases:
            got = group_ordering(rows, key_set, [plan], groups)
            want = group_ordering(rows, panel, [plan], groups)
            assert got.orders == want.orders
            assert np.allclose(got.ranked_scores, want.ranked_scores, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("variant", ["pine", "pine_reverse"])
    def test_documents_tied_on_one_token_score_bitwise_equal(self, variant, monkeypatch):
        # 3-8 documents each hold "#", at column offsets that vary with the
        # layout, and suffix rows' queries point along its layer-0 raw key, so
        # under max aggregation "#" is every document's largest exponential:
        # the documents tie exactly, and must get one score, whichever column
        # they read it at, so that the content hash orders them.
        config = ModelConfig(n_layers=1, n_heads=8, n_kv_heads=2, d_model=256, d_head=32,
                             d_ff=64, vocab_size=260)
        model = Model(config, init_random(config, 0))
        mode, rows, scorer = AttentionMode(variant, "max"), 12, pine.group_ordering
        words = " ".join(seeded_docs(8, 3))
        for k, step in ((k, step) for k in range(3, 9) for step in range(1, 13)):
            docs = tuple(words[:1 + step * j] + "#" + "xyzw" * j for j in range(k))
            tokens, layout = tokenize(SegmentedPrompt("SYS: ", docs, " Q? abcdefgh"))
            calls = []

            def spying(q, keys, plans, groups):
                calls.append((keys, plans))
                return scorer(q, keys, plans, groups)

            monkeypatch.setattr(pine, "group_ordering", spying)
            cache, _ = prefill(model, tokens, layout, mode)
            monkeypatch.undo()
            (keys, plans), plan, p = calls[0], cache.plan, layout.prefix_len  # layer 0's
            ranked = np.asarray(tokens)[plan.order][plan.ranked_cols][p:]
            shared = cache.k_raw[0][:, :, p + ranked.tolist().index(ord("#"))]  # [KV heads, d]
            q = np.repeat(shared, 4, axis=0)[None] * np.linspace(0.5, 3, rows)[:, None, None]
            q = q.astype(np.float32)
            got = scorer(q, keys, plans, query_groups(np.full(rows, -1), 0))
            # "#" is every document's largest logit at every row and head
            logits = np.einsum("rkd,kdc->rkc", q[:, ::4].astype(np.float64),
                               cache.k_raw[0][:, :, p:].astype(np.float64))
            for j in range(k):
                c0 = plan.ranked_starts[j]
                c1 = c0 + plan.ranked_lens[j]
                assert (logits[:, :, c0:c1].argmax(axis=2)
                        == ranked[c0:c1].tolist().index(ord("#"))).all()
            scores = got.ranked_scores
            assert (scores == scores[:, :, :1]).all(), (k, step, np.ptp(scores, axis=2).max())
            assert got.orders == [[plan.ranked] * 8] * rows  # ties go by content hash either way

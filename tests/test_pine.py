import math

import numpy as np
import pytest

from posinv import (
    AttentionMode,
    AttentionPlan,
    SegmentedPrompt,
    attention_forward,
    doc_importance,
    order_documents,
    token_importance,
    tokenize,
)
from posinv.pine import (
    comparison_count,
    group_ordering,
    reset_comparison_count,
)
from posinv.prompts import content_hash


class TestTokenImportance:
    def test_singleton_softmax(self):
        q = np.asarray([[1.0, 2.0]], dtype=np.float32)
        k = np.asarray([[0.5, 0.5]], dtype=np.float32)
        probs = token_importance(q, k, 2)
        assert probs.shape == (1, 1)
        assert probs[0, 0] == 1.0

    def test_orthogonal_queries_uniform(self):
        q = np.asarray([[0.0, 0.0, 1.0]], dtype=np.float32)
        k = np.asarray([[1, 0, 0], [0, 1, 0]], dtype=np.float32)
        probs = token_importance(q, k, 3)
        assert np.allclose(probs, 0.5, atol=1e-7)

    def test_worked_two_candidate_example(self):
        # q=[1,0], k1=[1,0], k2=[0,1], d=2: logits [1/sqrt(2), 0].
        q = np.asarray([[1.0, 0.0]], dtype=np.float32)
        k = np.asarray([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        probs = token_importance(q, k, 2)
        z = math.exp(1.0 / math.sqrt(2.0)) + math.exp(0.0)
        expected = [math.exp(1.0 / math.sqrt(2.0)) / z, 1.0 / z]
        assert abs(expected[0] - 0.6698) < 1e-3
        assert abs(expected[1] - 0.3302) < 1e-3
        assert np.max(np.abs(probs[0] - expected)) < 1e-6

    def test_empty_candidates(self):
        q = np.zeros((2, 4), dtype=np.float32)
        probs = token_importance(q, np.zeros((0, 4), dtype=np.float32), 4)
        assert probs.shape == (2, 0)

    def test_hand_loop_reference(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(3, 8)).astype(np.float32)
        k = rng.normal(size=(5, 8)).astype(np.float32)
        probs = token_importance(q, k, 8)
        for i in range(3):
            logits = [sum(float(q[i, d]) * float(k[j, d]) for d in range(8)) / math.sqrt(8)
                      for j in range(5)]
            m = max(logits)
            exps = [math.exp(z - m) for z in logits]
            ref = [e / sum(exps) for e in exps]
            assert np.max(np.abs(probs[i] - ref)) < 1e-6


class TestDocImportance:
    def test_continues_worked_example(self):
        probs = np.asarray([[0.6698, 0.3302]], dtype=np.float32)
        scores = doc_importance(probs, [(0, 1), (1, 2)], "mean")
        assert abs(scores[0] - 0.6698) < 1e-6
        assert abs(scores[1] - 0.3302) < 1e-6
        # mean == sum == max for 1x1 blocks
        assert scores == doc_importance(probs, [(0, 1), (1, 2)], "sum")
        assert scores == doc_importance(probs, [(0, 1), (1, 2)], "max")

    def test_identical_contents_equal_scores(self):
        q = np.asarray([[0.3, -0.2, 0.9]], dtype=np.float32)
        k = np.asarray([[1, 2, 3], [1, 2, 3]], dtype=np.float32)
        probs = token_importance(q, k, 3)
        s = doc_importance(probs, [(0, 1), (1, 2)], "mean")
        assert s[0] == s[1]

    def test_mean_aggregation_identity(self):
        # sum_j score_j * |D_j| == number of query rows, by row normalization
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            lengths = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            q = rng.normal(size=(m, 8)).astype(np.float32)
            k = rng.normal(size=(sum(lengths), 8)).astype(np.float32)
            probs = token_importance(q, k, 8)
            blocks, c = [], 0
            for ln in lengths:
                blocks.append((c, c + ln))
                c += ln
            scores = doc_importance(probs, blocks, "mean")
            total = sum(s * ln for s, ln in zip(scores, lengths))
            assert abs(total - m) < 1e-5


class TestOrderDocuments:
    def test_proof_example(self):
        # For a query document D1 with Sim(D1,D2) > Sim(D1,D3), keys sort
        # [D3 | D2 | D1]; the candidate order here is D3 then D2.
        hashes = (111, 222, 333)
        assert order_documents({1: 0.7, 2: 0.3}, hashes, "closer") == [2, 1]

    def test_reversed_direction(self):
        hashes = (111, 222, 333)
        assert order_documents({1: 0.7, 2: 0.3}, hashes, "reversed") == [1, 2]

    def test_tie_break_by_content_hash(self):
        hashes = (500, 100, 300)
        assert order_documents({0: 0.5, 1: 0.5, 2: 0.5}, hashes, "closer") == [1, 2, 0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            order_documents({0: float("nan")}, (1,), "closer")

    def test_comparison_counter_grows(self):
        reset_comparison_count()
        order_documents({i: float(i) for i in range(8)}, tuple(range(8)), "closer")
        assert comparison_count() > 0


def random_head(layout, seed, d=8):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(layout.n, d)).astype(np.float32)
    k = rng.normal(size=(layout.n, d)).astype(np.float32)
    v = rng.normal(size=(layout.n, d)).astype(np.float32)
    return q, k, v


def pine_attention(q, k, v, layout, variant="pine"):
    """Single-head full-sequence attention under the pine mode (or ``variant``)
    on storage-order keys and values, laid out in the plan's columns."""
    plan = AttentionPlan(AttentionMode(variant), layout)
    return attention_forward(
        plan, q[:, None, :], plan.lay_out(k)[:, None, :], plan.lay_out(v)[:, None, :]
    )[:, 0, :]


def ordering(q, k, layout, own, aggregation="mean"):
    """group_ordering of query rows against storage-order keys, laid out
    in the columns of pine's plan."""
    plan = AttentionPlan(AttentionMode("pine", aggregation), layout)
    return group_ordering(q, plan.lay_out(k), plan, own)


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

        def doc_of(t):
            return layout.doc_of(t)

        for qi in range(n):
            own = doc_of(qi)
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
                        sums[doc_of(t)] += e / tot
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
                dq, dk = doc_of(qi), doc_of(t)
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
            scores = {i: float(rng.random()) for i in range(k)}
            reset_comparison_count()
            order_documents(scores, tuple(range(k)), "closer")
            ratios.append(comparison_count() / (k * math.log2(k)))
        assert max(ratios) / min(ratios) <= 2.0


class TestGroupOrdering:
    def test_permutation_invariant_scores(self):
        prompt = SegmentedPrompt("S", ("abc", "de", "fgh"), "Q")
        toks, layout = tokenize(prompt)
        rng = np.random.default_rng(4)
        per_token = {t: rng.normal(size=(2, 8)).astype(np.float32) for t in set(toks)}
        q = np.stack([per_token[t][0] for t in toks])
        k = np.stack([per_token[t][1] for t in toks])
        a = layout.suffix_start
        ordered, scores = ordering(q[a : a + 1, None], k[:, None], layout, np.full(1, -1))[0][0]

        from posinv import permute_documents

        p2 = permute_documents(prompt, [2, 0, 1])
        toks2, layout2 = tokenize(p2)
        q2 = np.stack([per_token[t][0] for t in toks2])
        k2 = np.stack([per_token[t][1] for t in toks2])
        a2 = layout2.suffix_start
        ordered2, scores2 = ordering(q2[a2 : a2 + 1, None], k2[:, None], layout2,
                                     np.full(1, -1))[0][0]
        # align by content hash: doc j in original == doc perm.index(j) in permuted
        for old_j, score in scores.items():
            new_j = [2, 0, 1].index(old_j)
            assert abs(score - scores2[new_j]) < 1e-6
        assert [layout.doc_hashes[j] for j in ordered] == [
            layout2.doc_hashes[j] for j in ordered2
        ]

    def test_own_document_pinned_last(self):
        _, layout = tokenize(SegmentedPrompt("S", ("ab", "cd", "ef"), "Q"))
        rng = np.random.default_rng(5)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        a, b = layout.doc_spans[1]
        ordered, scores = ordering(q[a:b, None], k[:, None], layout, np.full(b - a, 1))[0][0]
        assert ordered[-1] == 1
        assert 1 not in scores

    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_matches_token_and_doc_importance(self, aggregation):
        # The batched scorer's one-group case against the building blocks:
        # a suffix row scores bitwise as doc_importance(token_importance)
        # over the candidates in content-hash order; a document group agrees
        # to float32 rounding.
        _, layout = tokenize(SegmentedPrompt("S", ("abc", "de", "fghi", "j"), "QR"))
        rng = np.random.default_rng(6)
        q = rng.normal(size=(layout.n, 8)).astype(np.float32)
        k = rng.normal(size=(layout.n, 8)).astype(np.float32)
        groups = [(layout.suffix_start, layout.suffix_start + 1, -1), (*layout.doc_spans[2], 2)]
        for a, b, own in groups:
            cands = sorted((j for j in range(layout.k) if j != own),
                           key=lambda j: (layout.doc_hashes[j], j))
            idx = np.concatenate([np.arange(*layout.doc_spans[j]) for j in cands])
            probs = token_importance(q[a:b], k[idx], 8)
            lens = np.array([layout.doc_len(j) for j in cands])
            ends = np.cumsum(lens)
            ref = doc_importance(probs, list(zip(ends - lens, ends)), aggregation)
            _, scores = ordering(q[a:b, None], k[:, None], layout, np.full(b - a, own),
                                 aggregation)[0][0]
            got = [scores[j] for j in cands]
            if own < 0:
                assert got == ref
            else:
                assert np.allclose(got, ref, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("docs", [(), ("ab",)], ids=["k0", "k1"])
    def test_fewer_than_two_documents_rejected(self, docs):
        # With k < 2 there is nothing to order; the runtime never asks.
        _, layout = tokenize(SegmentedPrompt("S", docs, "Q"))
        q = np.ones((1, 1, 8), dtype=np.float32)
        k = np.ones((layout.n, 1, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="k >= 2"):
            ordering(q, k, layout, np.full(1, -1))

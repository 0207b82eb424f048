import math

import numpy as np
import pytest

from posinv import (
    AttentionMode,
    Model,
    SegmentedPrompt,
    dense_reference,
    enumerate_orders,
    init_random,
    permutation_vote,
    prefill,
    run_suite,
    tokenize,
)

ALL_MODES = ["vanilla", "nia", "pcw", "sp", "pine", "pine_noreassign", "pine_reverse"]


class TestEnumerateOrders:
    def test_small_k_full_enumeration(self):
        orders = enumerate_orders(3, 10)
        assert len(orders) == 6
        assert len(set(orders)) == 6

    def test_k0(self):
        assert enumerate_orders(0, 10) == [()]

    def test_sampled_distinct_and_reproducible(self):
        a = enumerate_orders(6, 20, seed=5)
        b = enumerate_orders(6, 20, seed=5)
        assert a == b
        assert len(a) == 20
        assert len(set(a)) == 20
        assert a[0] == (0, 1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def prompt():
    return SegmentedPrompt("SYS:", ("alpha", "bravo", "chr"), " Q?")


class TestRunSuite:
    def test_pine_invariant(self, tiny_model, prompt):
        rep = run_suite(tiny_model, prompt, AttentionMode("pine"), enumerate_orders(3, 10), 6)
        assert rep.outputs_identical
        assert rep.max_abs_logit_diff <= 1e-4

    def test_pcw_invariant(self, tiny_model, prompt):
        rep = run_suite(tiny_model, prompt, AttentionMode("pcw"), enumerate_orders(3, 10), 6)
        assert rep.outputs_identical

    def test_vanilla_witness_within_20_seeds(self, tiny_config, prompt):
        found = False
        for seed in range(20):
            model = Model(tiny_config, init_random(tiny_config, seed))
            rep = run_suite(model, prompt, AttentionMode("vanilla"), enumerate_orders(3, 10), 6)
            if not rep.outputs_identical or rep.max_abs_logit_diff > 1e-4:
                found = True
                assert rep.witness_pair is not None
                break
        assert found

    def test_report_shape(self, tiny_model, prompt):
        rep = run_suite(tiny_model, prompt, AttentionMode("sp"), enumerate_orders(3, 10), 4)
        d = rep.to_dict()
        assert d["permutations_tested"] == 6
        assert len(d["greedy_outputs"]) == 6
        assert d["max_abs_logit_diff"] >= 0


class TestDenseReference:
    def test_one_token_prompt(self, tiny_model):
        tokens, layout = tokenize(SegmentedPrompt("x", (), ""))
        _, logits = prefill(tiny_model, tokens, layout, AttentionMode("vanilla"))
        ref = dense_reference(tiny_model, tokens, layout, AttentionMode("vanilla"))
        assert np.max(np.abs(logits - ref)) < 1e-6

    @pytest.mark.parametrize("variant", ALL_MODES)
    def test_running_example_agreement(self, tiny_model, variant):
        tokens, layout = tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))
        mode = AttentionMode(variant)
        _, logits = prefill(tiny_model, tokens, layout, mode)
        ref = dense_reference(tiny_model, tokens, layout, mode)
        assert np.max(np.abs(logits - ref)) < 1e-4

    def test_size_cap(self, tiny_model):
        tokens = [0] * 600
        _, layout = tokenize(SegmentedPrompt("x", (), ""))
        with pytest.raises(ValueError, match="cap"):
            dense_reference(tiny_model, tokens, layout, AttentionMode("vanilla"))


class TestPermutationVote:
    def test_majority(self):
        assert permutation_vote(["[[A]]", "[[A]]", "[[B]]"], r"\[\[([AB])\]\]") == "A"

    def test_singleton(self):
        assert permutation_vote(["answer: B"], r"answer: ([AB])") == "B"

    def test_tie_lexicographic(self):
        assert permutation_vote(["B", "A"], r"[AB]") == "A"

    def test_no_match_error(self):
        with pytest.raises(ValueError):
            permutation_vote(["nothing here"], r"\[\[([AB])\]\]")


class TestRunSuitePrefills:
    def test_one_prefill_per_order_and_outputs_match_generate(self, tiny_model, prompt,
                                                              monkeypatch):
        from posinv import GenerationParams, generate, model, oracle, permute_documents

        mode = AttentionMode("pine")
        orders = enumerate_orders(3, 10)
        calls = []

        def counting_prefill(*args, **kwargs):
            calls.append(1)
            return prefill(*args, **kwargs)

        monkeypatch.setattr(oracle, "prefill", counting_prefill)
        monkeypatch.setattr(model, "prefill", counting_prefill)
        rep = run_suite(tiny_model, prompt, mode, orders, 5)
        assert len(calls) == len(orders)
        monkeypatch.undo()
        params = GenerationParams(max_new_tokens=5, mode=mode)
        for perm, out in zip(orders, rep.greedy_outputs):
            tokens, layout = tokenize(permute_documents(prompt, perm))
            assert out == generate(tiny_model, tokens, layout, params)

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from posinv import (
    AttentionMode,
    Model,
    ModelConfig,
    SegmentedPrompt,
    dense_reference,
    enumerate_orders,
    init_random,
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

    @pytest.mark.parametrize("variant", ALL_MODES)
    def test_tied_embeddings_agreement(self, tiny_config, variant):
        # The output head is the transposed embedding in both computations.
        config = replace(tiny_config, tie_embeddings=True)
        model = Model(config, init_random(config, 4))
        assert "lm_head.weight" not in model.weights.tensors
        tokens, layout = tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))
        mode = AttentionMode(variant)
        _, logits = prefill(model, tokens, layout, mode)
        ref = dense_reference(model, tokens, layout, mode)
        assert np.max(np.abs(logits - ref)) < 1e-4

    @pytest.mark.parametrize("variant", ["pine", "pine_reverse"])
    def test_sort_direction_not_shared_with_the_runtime(self, tiny_model, variant, monkeypatch):
        # The oracle takes pine's sort direction from the variant's name, so a
        # runtime whose mode table swaps the two directions disagrees with it.
        from posinv import modes

        for name, direction in (("pine", "reversed"), ("pine_reverse", "closer")):
            monkeypatch.setitem(modes._MODE_TABLE, name,
                                modes._MODE_TABLE[name]._replace(direction=direction))
        tokens, layout = tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))
        mode = AttentionMode(variant)
        _, logits = prefill(tiny_model, tokens, layout, mode)
        ref = dense_reference(tiny_model, tokens, layout, mode)
        assert np.max(np.abs(logits - ref)) > 1e-4

    def test_size_cap(self, tiny_model):
        tokens = [0] * 600
        _, layout = tokenize(SegmentedPrompt("x", (), ""))
        with pytest.raises(ValueError, match="cap"):
            dense_reference(tiny_model, tokens, layout, AttentionMode("vanilla"))


def permutation_vote(outputs: list[str], extractor: str) -> str:
    """Modal extracted answer across generated texts; ties go to the
    lexicographically smallest answer."""
    if not outputs:
        raise ValueError("permutation_vote: no outputs")
    pattern = re.compile(extractor)
    answers = []
    for text in outputs:
        m = pattern.search(text)
        if m:
            answers.append(m.group(1) if m.groups() else m.group(0))
    if not answers:
        raise ValueError(f"extractor {extractor!r} matched nothing in any output")
    counts = Counter(answers)
    best = max(counts.values())
    return min(a for a, c in counts.items() if c == best)


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
        calls, batched = [], model._prefill

        def counting_prefill(*args, **kwargs):
            calls.append(1)
            return prefill(*args, **kwargs)

        def counting_streams(model_, prompts, mode_):
            calls.extend(1 for _ in prompts)  # one per prefilled stream
            return batched(model_, prompts, mode_)

        monkeypatch.setattr(oracle, "prefill", counting_prefill)
        monkeypatch.setattr(model, "prefill", counting_prefill)
        monkeypatch.setattr(oracle, "_prefill", counting_streams)
        rep = run_suite(tiny_model, prompt, mode, orders, 5)
        assert len(calls) == len(orders)
        monkeypatch.undo()
        params = GenerationParams(max_new_tokens=5, mode=mode)
        for perm, out in zip(orders, rep.greedy_outputs):
            tokens, layout = tokenize(permute_documents(prompt, perm))
            assert out == generate(tiny_model, tokens, layout, params)


class TestRunSuiteBatches:
    """run_suite prefills and decodes its orders in batches of one size: a
    short last batch is padded with repeats of its last order, since a
    product of another size may round a row differently."""

    @pytest.mark.parametrize("variant", ["pcw", "sp", "pine", "pine_reverse"])
    def test_uneven_split_stays_bitwise(self, variant, monkeypatch):
        from posinv import model as model_mod
        from posinv import oracle

        config = ModelConfig(n_layers=2, n_heads=4, n_kv_heads=2, d_model=64, d_head=16,
                             d_ff=128, vocab_size=260, max_seq_len=256)
        model = Model(config, init_random(config, 5))
        prompt = SegmentedPrompt("system: answer it\n",
                                 ("alpha one", "bravo", "charlie three", "delta"), "\nwhich one?")
        n = tokenize(prompt)[1].n
        orders = enumerate_orders(4, 10, seed=1)
        sizes, batched = [], model_mod._prefill

        def recording(model_, prompts, mode_):
            sizes.append(len(prompts))
            return batched(model_, prompts, mode_)

        monkeypatch.setattr(oracle, "_BATCH_ROWS", 3 * n)  # 10 orders: 3, 3, 3 and 1
        monkeypatch.setattr(oracle, "_prefill", recording)
        rep = run_suite(model, prompt, AttentionMode(variant), orders, 3)
        assert sizes == [3, 3, 3, 3]
        assert rep.permutations_tested == len(rep.greedy_outputs) == 10
        assert rep.max_abs_logit_diff == 0.0
        assert rep.outputs_identical

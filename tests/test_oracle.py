import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

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

    @pytest.mark.parametrize("orders", [[], [(0, 1, 2)], [(2, 0, 1), (2, 0, 1)]])
    def test_fewer_than_two_distinct_orders_refused(self, tiny_model, prompt, orders):
        # One order, or one repeated, has no spread to measure: a verdict of
        # "identical" would pass without testing anything.
        with pytest.raises(ValueError, match="at least 2 distinct"):
            run_suite(tiny_model, prompt, AttentionMode("vanilla"), orders, 2)

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
        from posinv.oracle import _ORACLE_SIZE_CAP

        tokens = [0] * (_ORACLE_SIZE_CAP + 1)
        _, layout = tokenize(SegmentedPrompt("x", (), ""))
        with pytest.raises(ValueError, match="cap"):
            dense_reference(tiny_model, tokens, layout, AttentionMode("vanilla"))


class TestReferenceSize:
    """The runtime against the oracle at the benchmark's reference size:
    perfbench's rag_prefill prompt of seed 2, round 0 (n = 983, k = 8), on
    its reference model, with canonical reduction."""

    @pytest.fixture(scope="class")
    def case(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            from workloads import WORKLOADS, make_round
        prefix, docs, suffix, _ = make_round(WORKLOADS["rag_prefill"], 2, 0)
        tokens, layout = tokenize(SegmentedPrompt(prefix, docs, suffix))
        assert (layout.n, layout.k) == (983, 8)
        config = ModelConfig(n_layers=4, n_heads=8, n_kv_heads=2, d_model=256, d_head=32,
                             d_ff=512, vocab_size=260)
        return Model(config, init_random(config, 0)), tokens, layout

    @pytest.mark.parametrize("variant, aggregation", [
        *((v, "mean") for v in ALL_MODES),
        ("pine", "sum"), ("pine_reverse", "sum"), ("pine", "max"), ("pine_reverse", "max"),
    ])
    def test_runtime_agrees_with_the_oracle(self, case, variant, aggregation):
        model, tokens, layout = case
        mode = AttentionMode(variant, aggregation)
        _, logits = prefill(model, tokens, layout, mode)
        assert np.max(np.abs(logits - dense_reference(model, tokens, layout, mode))) <= 1e-4


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
        from posinv import generate, model, oracle, permute_documents

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
        for perm, out in zip(orders, rep.greedy_outputs):
            tokens, layout = tokenize(permute_documents(prompt, perm))
            assert out == generate(tiny_model, tokens, layout, mode, 5)


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


class TestSpread:
    """run_suite's spread is one reduction over the stacked logits: it must
    give what the loop over every pair of orders gives, the largest
    |difference| and the lexicographically first pair reaching it (None at 0)."""

    @staticmethod
    def pairwise(logit_sets):
        max_diff, witness = 0.0, None
        for a in range(len(logit_sets)):
            for b in range(a + 1, len(logit_sets)):
                d = float(np.max(np.abs(logit_sets[a] - logit_sets[b])))
                if d > max_diff:
                    max_diff, witness = d, (a, b)
        return max_diff, witness

    @pytest.mark.parametrize("kind", ["normal", "ties", "ulps", "large"])
    def test_equals_the_pairwise_loop(self, kind):
        from posinv.oracle import spread

        rng = np.random.default_rng(["normal", "ties", "ulps", "large"].index(kind))
        for _ in range(300):
            n, v = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            if kind == "normal":
                x = rng.normal(size=(n, v))
            elif kind == "ties":  # few distinct values: many pairs reach the maximum
                x = rng.integers(-3, 4, size=(n, v)) * 0.25
            elif kind == "ulps":  # differences of a few ulp
                x = 1.5 + rng.integers(-2, 3, size=(n, v)) * np.spacing(np.float32(1.5))
            else:  # differences that round: unequal pairs reach one float32 maximum
                x = 1e8 + rng.integers(0, 16, size=(n, v))
            rows = list(np.asarray(x, dtype=np.float32))
            got, want = spread(rows), self.pairwise(rows)
            assert got == want and type(got[0]) is float, (got, want)

    def test_all_equal_rows(self):
        from posinv.oracle import spread

        rows = [np.full(7, 0.375, dtype=np.float32)] * 5
        assert spread(rows) == (0.0, None) == self.pairwise(rows)


class TestRunSuiteAttentionCalls:
    """run_suite's orders of one document set share a plan shape under
    canonical reduction, so each forward pass makes one attention call per
    layer for its whole batch (pine and sp).  Canonical vanilla orders see
    each other's documents differently, so their prefill makes one call per
    stream; a decode step's lone rows read no visibility table, so each
    decode pass makes one call per layer for the batch."""

    @pytest.mark.parametrize("variant", ["pine", "sp", "vanilla"])
    def test_calls_per_layer_per_pass_per_batch(self, tiny_model, variant, monkeypatch):
        from posinv import model as model_mod
        from posinv import oracle

        prompt = SegmentedPrompt("system: answer it\n",
                                 ("alpha one", "bravo", "charlie three", "delta"), "\nwhich one?")
        n = tokenize(prompt)[1].n
        orders, new_tokens = enumerate_orders(4, 24), 3
        calls, batches, attention, batched = [], [], model_mod.attention_forward, oracle._prefill

        def spying(plans, *args):
            calls.append(len(plans))
            return attention(plans, *args)

        def recording(model_, prompts, mode_):
            batches.append(len(prompts))
            return batched(model_, prompts, mode_)

        monkeypatch.setattr(oracle, "_BATCH_ROWS", 8 * n)  # 24 orders: 3 batches of 8
        monkeypatch.setattr(model_mod, "attention_forward", spying)
        monkeypatch.setattr(oracle, "_prefill", recording)
        rep = run_suite(tiny_model, prompt, AttentionMode(variant), orders, new_tokens)
        assert batches == [8, 8, 8] and rep.permutations_tested == 24
        passes = new_tokens  # a prefill, then a decode pass per greedy token after the first
        layers = tiny_model.config.n_layers
        prefill = [1] * (layers * 8) if variant == "vanilla" else [8] * layers
        assert calls == (prefill + [8] * (layers * (passes - 1))) * 3

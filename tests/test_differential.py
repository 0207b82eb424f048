"""Property-based differential harness over random prompt layouts.

Draws k from 0 to 6 (1-token and duplicate documents included), empty and
non-empty prefix and suffix, BOS on and off, MQA/GQA/MHA head sharing and
every aggregation, and checks the runtime against itself and the oracle:

- pcw/sp/pine/pine_reverse give bitwise-equal logits over document
  orders: prefill when the suffix is non-empty (otherwise the last token
  belongs to a document), and two decode steps always;
- every mode agrees with the float64 ``dense_reference`` within 1e-4;
- with k <= 1 every mode is bitwise equal to vanilla.
"""

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from posinv import (
    AttentionMode,
    Model,
    ModelConfig,
    SegmentedPrompt,
    decode_step,
    dense_reference,
    init_random,
    permute_documents,
    prefill,
    tokenize,
)
from posinv.modes import VARIANTS

INVARIANT_MODES = ("pcw", "sp", "pine", "pine_reverse")
DECODED = (65, 66)  # fed as decode steps, so every order decodes the same tokens
N_HEADS = 4


@lru_cache(maxsize=None)
def model_for(n_kv_heads: int) -> Model:
    config = ModelConfig(n_layers=2, n_heads=N_HEADS, n_kv_heads=n_kv_heads, d_model=32,
                         d_head=8, d_ff=32, vocab_size=260, max_seq_len=128)
    return Model(config, init_random(config, 11 + n_kv_heads))


@st.composite
def cases(draw):
    k = draw(st.integers(0, 6))
    docs = []
    for _ in range(k):
        if docs and draw(st.booleans()):
            docs.append(draw(st.sampled_from(docs)))  # duplicate: equal content hashes
        else:
            docs.append(draw(st.text("abcdef ", min_size=1, max_size=5)))
    prompt = SegmentedPrompt(draw(st.sampled_from(["", "s:"])), tuple(docs),
                             draw(st.sampled_from(["", " q?"])))
    orders = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=3))
    return (prompt, draw(st.booleans()), draw(st.sampled_from([1, 2, N_HEADS])),
            draw(st.sampled_from(["mean", "sum", "max"])), orders)


def run(model, prompt, bos, mode):
    tokens, layout = tokenize(prompt, bos=bos)
    cache, logits = prefill(model, tokens, layout, mode)
    return [logits] + [decode_step(model, cache, tok, mode) for tok in DECODED]


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_layouts_invariant_oracle_and_degenerate(case):
    prompt, bos, n_kv_heads, aggregation, orders = case
    tokens, layout = tokenize(prompt, bos=bos)
    assume(layout.n > 0)
    model = model_for(n_kv_heads)
    for variant in INVARIANT_MODES:
        mode = AttentionMode(variant, aggregation)
        base = run(model, prompt, bos, mode)
        for order in orders:
            other = run(model, permute_documents(prompt, order), bos, mode)
            steps = range(len(base)) if prompt.suffix else range(1, len(base))
            for i in steps:
                assert np.array_equal(base[i], other[i]), (variant, order, i)
    vanilla = None
    for variant in VARIANTS:
        mode = AttentionMode(variant, aggregation)
        _, logits = prefill(model, tokens, layout, mode)
        ref = dense_reference(model, tokens, layout, mode)
        assert np.max(np.abs(logits - ref)) <= 1e-4, variant
        if layout.k <= 1:
            vanilla = logits if vanilla is None else vanilla
            assert np.array_equal(logits, vanilla), variant

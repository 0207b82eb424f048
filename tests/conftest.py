import hashlib

import numpy as np
import pytest

from posinv import (AttentionPlan, Model, ModelConfig, attention_forward, decode_step,
                    init_random, prefill)
from posinv.rope import rotate


@pytest.fixture(scope="session")
def tiny_config():
    return ModelConfig(
        n_layers=1, n_heads=2, n_kv_heads=1, d_model=32, d_head=16,
        d_ff=64, vocab_size=260, max_seq_len=256,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return Model(tiny_config, init_random(tiny_config, 3))


def random_config(rng: np.random.Generator) -> ModelConfig:
    n_layers = int(rng.integers(1, 3))
    n_heads = int(rng.choice([2, 4]))
    n_kv_heads = int(rng.choice([1, 2]))
    d_head = int(rng.choice([8, 16]))
    return ModelConfig(
        n_layers=n_layers, n_heads=n_heads, n_kv_heads=n_kv_heads,
        d_model=n_heads * d_head, d_head=d_head,
        d_ff=int(rng.choice([32, 64])), vocab_size=260, max_seq_len=256,
    )


def doc_of(layout, index):
    """Document number owning a storage index, or None outside the documents."""
    for j, (s, e) in enumerate(layout.doc_spans):
        if s <= index < e:
            return j
    return None


def greedy_stream(model, tokens, layout, mode, steps):
    """Yield one stream's prefill logits, then those of ``steps`` greedy decode steps."""
    cache, logits = prefill(model, tokens, layout, mode)
    yield logits
    for _ in range(steps):
        logits = decode_step(model, cache, int(np.argmax(logits)), mode)
        yield logits


def logits_digest(logits) -> str:
    """SHA-256 of a sequence of logit arrays, bitwise."""
    return hashlib.sha256(b"".join(x.tobytes() for x in logits)).hexdigest()


def key_panel(k):
    """[columns, KV heads, d_head] keys laid out as the KV cache holds them:
    one contiguous [KV heads, d_head, columns] panel."""
    return np.ascontiguousarray(k.transpose(1, 2, 0))


def column_keys(plan, panel):
    """What the importance pass reads at every layer but the first:
    ``plan.column_set`` over a raw key panel's document columns."""
    layout = plan.layout
    return plan.column_set._replace(keys=panel[:, :, layout.prefix_len:layout.suffix_start])


def ranked(plan, own):
    """Each own document of ``own`` (-1: none) as its ranked position in
    ``plan``, as query groups take it."""
    return np.append(plan.rank, -1)[own]


def attention(plan, q, k, v, q_start=0, k_base=None, k_raw=None):
    """``attention_forward`` of columns q_start .. q_start + len(q) - 1 of
    ``plan``, with q, k and v in column order, given what a forward pass
    gives it: the rows' ``plan.rows``, ``k_base``, by default k rotated at
    its base positions in one call, and ``k_raw``, by default k's columns
    in the order the KV cache holds raw keys (k may be None when ``k_base``
    is given and attention reads no raw key).  Keys and values are
    [columns, KV heads, d_head] here, and are laid out as the KV cache's
    panels, as the one stream of the call; a plan that reorders reads the
    raw keys as ``column_keys`` of their panel."""
    t, s = len(q), len(v)
    if k_base is None:
        k_base = rotate(k, plan.columns(0, s)[1], 10000.0)
    if k_raw is None and k is not None:
        k_raw = k[plan.ranked_cols]
    keys = column_keys(plan, key_panel(k_raw)) if plan.reorders and k_raw is not None else None
    return attention_forward([plan], q, keys,
                             np.ascontiguousarray(v.swapaxes(0, 1)), key_panel(k_base),
                             [plan.rows(q_start, t, q.shape[1] // v.shape[1])], 10000.0)


def attend(mode, q, k, v, layout):
    """``attention`` of the whole sequence on storage-order queries, keys
    and values, laid out in the columns of the stream's plan; its rows are
    read back in storage order."""
    plan = AttentionPlan(mode, layout)
    cols = plan.columns(0, len(q))[0]
    out = np.empty_like(q)
    out[cols] = attention(plan, q[cols], k[cols], v[cols])
    return out

"""Machinery that makes the invariance guarantees testable.

``dense_reference`` is a structurally independent float64 forward pass:
one visibility matrix, and per (layer, head, query group) one rotation
and one softmax product, all from its own rules.  It shares no attention,
masking, ordering, or rotation code with the runtime, so an agreement
within tolerance is meaningful evidence rather than a shared bug.
``run_suite`` serves every given order of one document set through the
runtime, a batch of orders per forward pass, and reports their spread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

# perfbench's tracer wraps oracle.prefill and oracle.generate by name, so they stay imported here.
from .model import Model, _greedy_decode, _prefill, generate, prefill  # noqa: F401
from .modes import AttentionMode
from .prompts import SegmentedPrompt, SequenceLayout, permute_documents, tokenize


@dataclass
class DivergenceReport:
    mode: str
    permutations_tested: int
    max_abs_logit_diff: float
    outputs_identical: bool
    greedy_outputs: list[list[int]] = field(default_factory=list)
    witness_pair: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def enumerate_orders(k: int, limit: int, seed: int = 0) -> list[tuple[int, ...]]:
    """All k! document orders when that fits in ``limit``, else ``limit``
    distinct seeded samples always including the identity."""
    if k == 0:
        return [()]
    total = math.factorial(k)
    if total <= limit:
        return list(itertools.permutations(range(k)))
    rng = np.random.default_rng(seed)
    orders: list[tuple[int, ...]] = [tuple(range(k))]
    seen = {orders[0]}
    while len(orders) < limit:
        p = tuple(int(i) for i in rng.permutation(k))
        if p not in seen:
            seen.add(p)
            orders.append(p)
    return orders


# Stacked prompt rows per batch of orders: at most this many, so that the
# stacked activations keep peak memory flat (all 24 orders of n = 55 in one
# batch raised the benchmark's peak RSS by about 11%).
_BATCH_ROWS = 512


def run_suite(
    model: Model,
    prompt: SegmentedPrompt,
    mode: AttentionMode,
    orders: list[tuple[int, ...]],
    new_tokens: int,
    bos: bool = False,
) -> DivergenceReport:
    """Prefill + greedy generation for every document order; measures the
    spread of final-prompt-token logits and greedy-output equality.  The
    mode also fixes the reduction order, so a mode that reduces documents
    in storage order is the control whose spread is float rounding.

    The orders run in batches of equal size, each prefilled in one forward
    pass and then decoded greedily in lockstep, so each weight product
    serves every order of a batch.  A batch holds at most ``_BATCH_ROWS``
    prompt rows.  The last batch is padded to full size with repeats of
    its last order, whose results are dropped: BLAS gives identical rows
    the same bits at any row offset of one product, but not across
    products of other sizes.  Fewer than two distinct orders compare
    nothing, and are refused with ``ValueError``."""
    if len(set(map(tuple, orders))) < 2:
        raise ValueError("run_suite needs at least 2 distinct document orders to compare")
    prompts = [tokenize(permute_documents(prompt, perm), bos=bos) for perm in orders]
    n_batches = max(1, -(-sum(layout.n for _, layout in prompts) // _BATCH_ROWS))
    size = -(-len(prompts) // n_batches)
    logit_sets, outputs = [], []
    for b in range(0, len(prompts), max(size, 1)):
        batch = prompts[b:b + size]
        caches, logits = _prefill(model, batch + batch[-1:] * (size - len(batch)), mode)
        logit_sets += logits[:len(batch)]
        outputs += _greedy_decode(model, caches, logits, new_tokens)[:len(batch)]
    max_diff, witness = spread(logit_sets)
    identical = all(o == outputs[0] for o in outputs)
    return DivergenceReport(
        mode=mode.variant,
        permutations_tested=len(orders),
        max_abs_logit_diff=max_diff,
        outputs_identical=identical,
        greedy_outputs=outputs,
        witness_pair=witness,
    )


def spread(logit_sets: list[np.ndarray]) -> tuple[float, tuple[int, int] | None]:
    """The largest |difference| between two of the rows, over every pair and
    entry, and the lexicographically first pair (a < b) that reaches it;
    None when every row is equal.  One reduction: float32 rounding is
    monotonic, so the largest rounded difference of an entry is its rounded
    max minus min, and only entries whose range reaches the maximum can
    give a pair that does.  Row a reaches it when its farthest later row,
    the later maximum or minimum, does in such an entry."""
    x = np.stack(logit_sets)
    ranges = np.max(x, axis=0) - np.min(x, axis=0)
    top = ranges.max()
    if not top > 0:
        return 0.0, None
    hot = x[:, ranges == top]  # [rows, the entries whose range reaches top]
    later_max = np.maximum.accumulate(hot[::-1], axis=0)[::-1][1:]
    later_min = np.minimum.accumulate(hot[::-1], axis=0)[::-1][1:]
    reach = np.maximum(later_max - hot[:-1], hot[:-1] - later_min) == top
    a = int(np.argmax(reach.any(axis=1)))
    b = a + 1 + int(np.argmax((np.abs(hot[a + 1:] - hot[a]) == top).any(axis=1)))
    return float(top), (a, b)


# ---------------------------------------------------------------------------
# Independent dense float64 reference.


_ORACLE_SIZE_CAP = 2048


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; -inf entries get weight 0."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rows of x turned pairwise: (x[2i], x[2i+1]) by the angle whose
    cos and sin are column i of that row's ``cos`` and ``sin``."""
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * cos - x[:, 1::2] * sin
    out[:, 1::2] = x[:, 0::2] * sin + x[:, 1::2] * cos
    return out


def _ref_order(q_rows: np.ndarray, keys: np.ndarray, inverse: np.ndarray, layout: SequenceLayout,
               own: int, aggregation: str, reverse: bool) -> list[int]:
    """Every document but ``own`` (-1: none) from least to most important
    (most to least when ``reverse``), equal scores by content hash, then
    ``own``.  A row's importance weights are its softmax over those
    documents' raw keys; a score aggregates them over the rows and tokens of
    a document.  ``keys`` are the distinct raw document keys and ``inverse``
    maps each document column to its key, so equal keys get equal bits."""
    z = (q_rows @ keys.T)[:, inverse] / math.sqrt(q_rows.shape[-1])
    starts = [s - layout.prefix_len for s, _ in layout.doc_spans]
    if own >= 0:
        s, e = layout.doc_spans[own]
        z[:, s - layout.prefix_len:e - layout.prefix_len] = -np.inf
    p = _softmax(z)
    if aggregation == "max":
        scores = np.maximum.reduceat(p.max(axis=0), starts)
    else:
        scores = np.add.reduceat(p.sum(axis=0), starts)
        if aggregation == "mean":
            scores = scores / [layout.doc_len(j) for j in range(layout.k)]
    ordered = sorted((j for j in range(layout.k) if j != own),
                     key=lambda j: (-scores[j] if reverse else scores[j], layout.doc_hashes[j], j))
    return ordered + ([own] if own >= 0 else [])


def dense_reference(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    mode: AttentionMode,
) -> np.ndarray:
    """Last-token logits from a float64 forward pass with its own rules.

    Rows whose keys sit at the same positions form a query group, and each
    (layer, head, query group) takes one product of its rotated queries
    with the rotated keys.  Only pine and pine_reverse with k >= 2 move
    positions per group: the prefix, each document's rows, and each suffix
    row alone.  The visibility, positions, rotation, importance order and
    sp's weighting after the softmax are all written out here."""
    n = len(tokens)
    if n > _ORACLE_SIZE_CAP:
        raise ValueError(f"dense_reference: sequence length {n} exceeds cap {_ORACLE_SIZE_CAP}")
    cfg = model.config
    variant = mode.variant
    reverse = variant == "pine_reverse"  # from the name, not the runtime's mode table
    w = {name: arr.astype(np.float64) for name, arr in model.weights.tensors.items()}
    d, rep, pre, suf = cfg.d_head, cfg.n_heads // cfg.n_kv_heads, layout.prefix_len, layout.suffix_start
    doc = np.full(n, -1)
    pos = np.arange(n)
    for j, (s, e) in enumerate(layout.doc_spans):
        doc[s:e] = j
        if variant in ("pcw", "sp"):
            pos[s:e] = pre + np.arange(e - s)
    if variant in ("pcw", "sp"):
        pos[suf:] = pre + max(map(layout.doc_len, range(layout.k)), default=0) + np.arange(n - suf)
    visible = np.arange(n)[None, :] <= np.arange(n)[:, None]
    across = (doc[:, None] >= 0) & (doc[None, :] >= 0) & (doc[:, None] != doc[None, :])
    if variant in ("nia", "pcw", "sp"):
        visible = visible & ~across
    elif variant.startswith("pine"):
        visible = visible | across
    # every position, given or re-assigned, lies in 0 .. n - 1
    angles = np.arange(n)[:, None] * cfg.rope_theta ** (-np.arange(0, d, 2) / d)
    cos, sin = np.cos(angles), np.sin(angles)
    reassigning = variant in ("pine", "pine_reverse") and layout.k >= 2
    groups = [(0, n)]
    if reassigning:  # the prefix, if any, each document's rows, each suffix row
        groups = [(0, pre)][:pre] + list(layout.doc_spans) + [(t, t + 1) for t in range(suf, n)]

    def norm(mat: np.ndarray, gain: np.ndarray) -> np.ndarray:
        return mat / np.sqrt(np.mean(mat * mat, axis=-1, keepdims=True) + cfg.norm_eps) * gain

    x = w["embed.weight"][tokens]
    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        h = norm(x, w[p + "attn_norm.weight"])
        q = (h @ w[p + "q_proj.weight"]).reshape(n, cfg.n_heads, d)
        k = (h @ w[p + "k_proj.weight"]).reshape(n, cfg.n_kv_heads, d)
        v = (h @ w[p + "v_proj.weight"]).reshape(n, cfg.n_kv_heads, d)
        attn = np.zeros((n, cfg.n_heads, d))
        for head in range(cfg.n_heads):
            g = head // rep
            if reassigning and head % rep == 0:  # the distinct raw document keys of KV head g
                keys, inverse = np.unique(k[pre:suf, g], axis=0, return_inverse=True)
                inverse = inverse.reshape(-1)
            for a, b in groups:
                at = pos
                if reassigning and a >= pre:
                    at = pos.copy()
                    cursor = pre
                    for j in _ref_order(q[a:b, head], keys, inverse, layout, int(doc[a]),
                                        mode.aggregation, reverse):
                        s, e = layout.doc_spans[j]
                        at[s:e] = cursor + np.arange(e - s)
                        cursor += e - s
                q_rot = _rotate(q[a:b, head], cos[at[a:b]], sin[at[a:b]])
                k_rot = _rotate(k[:, g], cos[at], sin[at])
                weights = _softmax(np.where(visible[a:b], q_rot @ k_rot.T / math.sqrt(d), -np.inf))
                if variant == "sp" and layout.k > 1:  # sp's one group holds every row
                    late = weights[suf:]
                    late[:, pre:suf] /= layout.k
                    late /= late.sum(axis=-1, keepdims=True)
                attn[a:b, head] = weights @ v[:, g]
        x = x + attn.reshape(n, -1) @ w[p + "o_proj.weight"]
        h2 = norm(x, w[p + "ffn_norm.weight"])
        gate = h2 @ w[p + "gate_proj.weight"]
        up = h2 @ w[p + "up_proj.weight"]
        act = gate / (1.0 + np.exp(-gate)) * up
        x = x + act @ w[p + "down_proj.weight"]
    final = norm(x[-1:], w["final_norm.weight"])
    head_mat = w["embed.weight"].T if cfg.tie_embeddings else w["lm_head.weight"]
    return (final @ head_mat)[0]

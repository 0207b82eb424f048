"""Brute-force machinery that makes the invariance guarantees testable.

``dense_reference`` is a deliberately slow, structurally independent
float64 forward pass built from explicit per-row loops.  It shares no
attention, masking, ordering, or rotation code with the runtime, so an
agreement within tolerance is meaningful evidence rather than a shared
bug.  ``run_suite`` serves every given order of one document set through
the runtime, a batch of orders per forward pass, and reports their spread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

# perfbench's tracer wraps oracle.prefill and oracle.generate by name, so they stay imported here.
from .model import (GenerationParams, Model, _greedy_decode, _prefill, generate,  # noqa: F401
                    prefill)
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
    params = GenerationParams(max_new_tokens=new_tokens, mode=mode)
    logit_sets, outputs = [], []
    for b in range(0, len(prompts), max(size, 1)):
        batch = prompts[b:b + size]
        caches, logits = _prefill(model, batch + batch[-1:] * (size - len(batch)), mode)
        logit_sets += logits[:len(batch)]
        outputs += _greedy_decode(model, caches, logits, params)[:len(batch)]
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


_ORACLE_SIZE_CAP = 512


def _ref_doc_of(layout: SequenceLayout, idx: int):
    for j, (s, e) in enumerate(layout.doc_spans):
        if s <= idx < e:
            return j
    return None


def _ref_visible(variant: str, layout: SequenceLayout, q: int, k: int) -> bool:
    dq = _ref_doc_of(layout, q)
    dk = _ref_doc_of(layout, k)
    if dq is not None and dk is not None and dq != dk:
        if variant in ("nia", "pcw", "sp"):
            return False
        if variant.startswith("pine"):
            return True
    return k <= q


def _ref_rope(vec: np.ndarray, pos: int, theta: float) -> np.ndarray:
    d = vec.shape[0]
    out = np.empty(d, dtype=np.float64)
    for i in range(0, d, 2):
        ang = pos * theta ** (-(i) / d)
        c, s = math.cos(ang), math.sin(ang)
        out[i] = vec[i] * c - vec[i + 1] * s
        out[i + 1] = vec[i] * s + vec[i + 1] * c
    return out


def _ref_softmax(logits: list[float]) -> list[float]:
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def _ref_ordering(
    q_rows: np.ndarray,
    k_head: np.ndarray,
    layout: SequenceLayout,
    own_doc,
    d_head: int,
    aggregation: str,
    reverse: bool,
) -> list[int]:
    """Importance-sorted candidate document order (least important first, or
    last when ``reverse``), with the query document (if any) appended last."""
    cands = sorted(
        (j for j in range(layout.k) if j != own_doc),
        key=lambda j: (layout.doc_hashes[j], j),
    )
    if not cands:
        return [own_doc] if own_doc is not None else []
    key_idx = [t for j in cands for t in range(*layout.doc_spans[j])]
    sums = {j: 0.0 for j in cands}
    maxes = {j: 0.0 for j in cands}
    for qi in range(q_rows.shape[0]):
        logits = [float(np.dot(q_rows[qi], k_head[t])) / math.sqrt(d_head) for t in key_idx]
        probs = _ref_softmax(logits)
        for t_pos, t in enumerate(key_idx):
            j = _ref_doc_of(layout, t)
            sums[j] += probs[t_pos]
            maxes[j] = max(maxes[j], probs[t_pos])
    scores = {}
    for j in cands:
        length = layout.doc_spans[j][1] - layout.doc_spans[j][0]
        if aggregation == "mean":
            scores[j] = sums[j] / length
        elif aggregation == "sum":
            scores[j] = sums[j]
        else:
            scores[j] = maxes[j]
    ordered = sorted(cands, key=lambda j: (-scores[j] if reverse else scores[j],
                                           layout.doc_hashes[j], j))
    if own_doc is not None:
        ordered.append(own_doc)
    return ordered


def _ref_positions(
    variant: str,
    layout: SequenceLayout,
    total: int,
    ordered_docs: list[int] | None,
) -> list[int]:
    pos = list(range(total))
    if variant in ("pcw", "sp"):
        max_len = max((e - s for s, e in layout.doc_spans), default=0)
        for s, e in layout.doc_spans:
            for o in range(e - s):
                pos[s + o] = layout.prefix_len + o
        for t in range(layout.suffix_start, total):
            pos[t] = layout.prefix_len + max_len + (t - layout.suffix_start)
    elif variant in ("pine", "pine_reverse") and ordered_docs is not None:
        cursor = layout.prefix_len
        for j in ordered_docs:
            s, e = layout.doc_spans[j]
            for o in range(e - s):
                pos[s + o] = cursor + o
            cursor += e - s
    return pos


def dense_reference(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    mode: AttentionMode,
) -> np.ndarray:
    """Last-token logits from an explicit-loop float64 forward pass."""
    if len(tokens) > _ORACLE_SIZE_CAP:
        raise ValueError(f"dense_reference: sequence length {len(tokens)} exceeds cap")
    cfg = model.config
    variant = mode.variant
    reverse = variant == "pine_reverse"  # from the name, not the runtime's mode table
    w = {name: arr.astype(np.float64) for name, arr in model.weights.tensors.items()}
    n = len(tokens)
    x = np.stack([w["embed.weight"][t] for t in tokens])

    def norm(mat: np.ndarray, gain: np.ndarray) -> np.ndarray:
        out = np.empty_like(mat)
        for i in range(mat.shape[0]):
            ms = float(np.mean(mat[i] * mat[i]))
            out[i] = mat[i] / math.sqrt(ms + cfg.norm_eps) * gain
        return out

    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        h = norm(x, w[p + "attn_norm.weight"])
        q = (h @ w[p + "q_proj.weight"]).reshape(n, cfg.n_heads, cfg.d_head)
        k = (h @ w[p + "k_proj.weight"]).reshape(n, cfg.n_kv_heads, cfg.d_head)
        v = (h @ w[p + "v_proj.weight"]).reshape(n, cfg.n_kv_heads, cfg.d_head)
        rep = cfg.n_heads // cfg.n_kv_heads
        attn = np.zeros((n, cfg.n_heads, cfg.d_head), dtype=np.float64)
        for head in range(cfg.n_heads):
            g = head // rep
            reassigning = variant in ("pine", "pine_reverse") and layout.k >= 2
            doc_orderings: dict = {}
            for qi in range(n):
                ordered = None
                if reassigning:
                    own = _ref_doc_of(layout, qi)
                    if own is not None:
                        if own not in doc_orderings:
                            s, e = layout.doc_spans[own]
                            doc_orderings[own] = _ref_ordering(
                                q[s:e, head], k[:, g], layout, own,
                                cfg.d_head, mode.aggregation, reverse,
                            )
                        ordered = doc_orderings[own]
                    elif qi >= layout.suffix_start:
                        ordered = _ref_ordering(
                            q[qi : qi + 1, head], k[:, g], layout, None,
                            cfg.d_head, mode.aggregation, reverse,
                        )
                pos = _ref_positions(variant, layout, n, ordered)
                vis = [t for t in range(n) if _ref_visible(variant, layout, qi, t)]
                q_rot = _ref_rope(q[qi, head], pos[qi], cfg.rope_theta)
                logits = []
                for t in vis:
                    k_rot = _ref_rope(k[t, g], pos[t], cfg.rope_theta)
                    logits.append(float(np.dot(q_rot, k_rot)) / math.sqrt(cfg.d_head))
                weights = _ref_softmax(logits)
                if variant == "sp" and layout.k > 1 and qi >= layout.suffix_start:
                    scaled = [
                        wt / layout.k if _ref_doc_of(layout, t) is not None else wt
                        for wt, t in zip(weights, vis)
                    ]
                    total = sum(scaled)
                    weights = [wt / total for wt in scaled]
                for wt, t in zip(weights, vis):
                    attn[qi, head] += wt * v[t, g]
        x = x + attn.reshape(n, -1) @ w[p + "o_proj.weight"]
        h2 = norm(x, w[p + "ffn_norm.weight"])
        gate = h2 @ w[p + "gate_proj.weight"]
        up = h2 @ w[p + "up_proj.weight"]
        act = gate / (1.0 + np.exp(-gate)) * up
        x = x + act @ w[p + "down_proj.weight"]
    final = norm(x[-1:], w["final_norm.weight"])
    head_mat = w["embed.weight"].T if cfg.tie_embeddings else w["lm_head.weight"]
    return (final @ head_mat)[0]

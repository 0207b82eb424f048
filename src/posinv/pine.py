"""Importance scoring and key-position re-assignment.

The order-invariant attention mode scores candidate documents with
position-free attention mass, sorts them, and lays their key positions
out contiguously so that more important documents sit closer to the
query.  Everything here is computed per layer and per head from
pre-rotation queries and keys, which is what makes the resulting
ordering independent of the input document order.  ``group_ordering``
is the one scorer: it orders the documents for every query group of a
layer at once, one batched matrix product per row block, and
``document_starts`` turns its orders into each row's document starts.

``laid_out`` is the one rule that lays documents out: a document key
sits at its document's start plus its offset inside the document.
``document_starts`` applies it to every (group, head) at once, and
``modes.assign_positions`` to one order.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import TYPE_CHECKING, Literal

import numpy as np

from .kernels import NEG_INF, check_finite, key_panel, row_block, row_softmax
from .prompts import SequenceLayout

if TYPE_CHECKING:
    from .modes import AttentionPlan

Aggregation = Literal["mean", "sum", "max"]
Direction = Literal["closer", "reversed"]

# Comparator invocation counter, used to exhibit the k log k sorting cost.
_comparisons = 0


def reset_comparison_count() -> None:
    global _comparisons
    _comparisons = 0


def comparison_count() -> int:
    return _comparisons


def canonical_order(layout: SequenceLayout) -> list[int]:
    """Documents by content hash, then input index (which only matters for
    identical contents): an order independent of the input permutation,
    so reductions taken in it are bitwise independent of it too."""
    return sorted(range(layout.k), key=lambda j: (layout.doc_hashes[j], j))


def order_documents(
    scores: dict[int, float],
    doc_hashes: tuple[int, ...],
    direction: Direction = "closer",
) -> list[int]:
    """Sort candidate documents into key-block order.

    direction="closer": ascending score, so the most important document
    ends up adjacent to the query block.  direction="reversed" puts the
    most important document farthest away.  Ties break by content hash
    (permutation-invariant), then input index (identical contents only,
    where the choice cannot affect attention output).
    """
    for j, s in scores.items():
        if not math.isfinite(s):
            raise ValueError(f"non-finite importance score for document {j}")
    sign = 1 if direction == "closer" else -1

    def cmp(a: int, b: int) -> int:
        global _comparisons
        _comparisons += 1
        if scores[a] != scores[b]:
            return sign * (-1 if scores[a] < scores[b] else 1)
        if doc_hashes[a] != doc_hashes[b]:
            return -1 if doc_hashes[a] < doc_hashes[b] else 1
        return (a > b) - (a < b)

    return sorted(scores.keys(), key=cmp_to_key(cmp))


def document_starts(q: np.ndarray, k_raw: np.ndarray, plan: AttentionPlan,
                    own: np.ndarray) -> np.ndarray:
    """Start of every document for each query row and head, k >= 2:
    [len(q), n_heads, k].  ``q``: pre-rotation queries of rows in column
    order that each belong to a query group; ``own``: each row's document
    (-1: suffix or decoded); ``k_raw``: raw keys before the suffix, in
    column order.  Each row gets its group's order, ``laid_out`` for every
    (group, head) at once."""
    orders = group_ordering(q, k_raw, plan, own)
    starts = laid_out(plan, np.array([[o for o, _ in per_head] for per_head in orders]))
    if len(orders) < len(own):  # a group of several rows: each row takes its group's starts
        starts = np.repeat(starts, np.diff([*_group_bounds(own), len(own)]), axis=0)
    return starts


def laid_out(plan: AttentionPlan, ordered: np.ndarray) -> np.ndarray:
    """Start position of each document, [..., k] indexed by document, when
    all are laid out contiguously from the prefix boundary in the order of
    each ``ordered[..., :]`` (a permutation of the k documents); storage
    order gives back their input starts."""
    k = ordered.shape[-1]
    flat = ordered.reshape(-1, k)
    lens = plan.doc_lens[flat]
    at = np.cumsum(lens, axis=1)
    at += plan.layout.prefix_len - lens  # the prefix and the documents ordered before
    starts = np.empty_like(flat)  # each start scattered to its document
    starts.reshape(-1)[flat + np.arange(0, flat.size, k)[:, None]] = at
    return starts.reshape(ordered.shape)


def group_ordering(q: np.ndarray, k_raw: np.ndarray, plan: AttentionPlan,
                   own: np.ndarray) -> list[list[tuple[list[int], dict[int, float]]]]:
    """Document order and scores of every query group at every head, k >= 2.

    q: [r, n_heads, d] pre-rotation query rows; k_raw: [c, n_kv_heads, d],
    at least the columns before the suffix, in ``plan``'s column order;
    own: each row's document (-1: none), never a candidate and last in its
    group's order.  Groups follow ``_group_bounds``; aggregation and sort
    direction are ``plan.mode``'s.  Each KV head's query heads' copies of
    each row are scored against all its document keys in ``canonical_order``
    (``plan.ranked_cols``, read as a unit-stride ``key_panel``): per
    ``row_block`` of rows (for n keys), one score product batched over the
    KV heads into one workspace, where each group's own document is hidden
    by one slice fill of its columns, exponentiated in place by
    ``row_softmax``.  One ``reduceat`` sums (max: takes the maximum
    of) each document's exponentials, which are then divided by their row's
    sum; another ``reduceat`` takes each group's rows, which gives every
    group's scores at once; only the comparator sort runs per (group, head).
    Returns orders[group][head] = (ordered documents, candidate scores).
    """
    layout, mode = plan.layout, plan.mode
    if layout.k < 2:
        raise ValueError(f"group_ordering needs k >= 2 documents, got {layout.k}")
    reduce = np.maximum if mode.aggregation == "max" else np.add
    r, n_heads, d = q.shape
    n_kv = k_raw.shape[1]
    rep = n_heads // n_kv
    block = row_block(layout.n, rep)
    bounds = _group_bounds(own)
    # (first row, end row, own document's ranked columns) of each group that has a document
    span = {j: (c, c + n) for j, c, n in zip(plan.ranked, plan.ranked_starts.tolist(),
                                             plan.ranked_lens.tolist())}
    hidden = [(g0, g1, span[j]) for g0, g1, j in zip(bounds.tolist(), [*bounds[1:].tolist(), r],
                                                   own[bounds].tolist()) if j >= 0]
    totals = np.empty((r, n_heads, layout.k), dtype=q.dtype)
    scale = 1.0 / np.sqrt(np.float32(d))
    # Each KV head's query heads: [n_kv, r, rep, d]; its key panel: [n_kv, d, cols].
    q_kv = q.reshape(r, n_kv, rep, d).swapaxes(0, 1)
    keys = key_panel(k_raw, plan.ranked_cols)
    n_cols = layout.suffix_start - layout.prefix_len  # every document column
    work = np.empty(n_kv * min(block, r) * rep * n_cols, dtype=q.dtype)  # every block's logits
    for b in range(0, r, block):
        rb = slice(b, b + block)
        q_b = q_kv[:, rb].reshape(n_kv, -1, d)
        logits = np.matmul(q_b, keys, out=work[:q_b[..., 0].size * n_cols].reshape(
            n_kv, -1, n_cols)).reshape(n_kv, -1, rep, n_cols)
        for g0, g1, (c0, c1) in hidden:  # each group's own document
            if g0 < b + block and g1 > b:
                logits[:, max(g0 - b, 0):g1 - b, :, c0:c1] = NEG_INF
        e, sums = row_softmax(logits.reshape(-1, n_cols), scale)
        part = reduce.reduceat(e.reshape(logits.shape), plan.ranked_starts, axis=3)
        part /= sums.reshape(n_kv, -1, rep, 1)
        totals[rb] = part.swapaxes(0, 1).reshape(-1, n_heads, layout.k)
    check_finite(totals, "group_ordering")
    # in float64, so the mean rounds as a division of the Python floats would
    group_totals = reduce.reduceat(totals, bounds, axis=0).astype(np.float64)
    if mode.aggregation == "mean":
        group_totals /= plan.ranked_lens
    orders, direction = [], mode.direction
    for mine, group_scores in zip(own[bounds].tolist(), group_totals.tolist()):
        per_head = []
        for values in group_scores:
            scores = {j: v for j, v in zip(plan.ranked, values) if j != mine}
            ordered = order_documents(scores, layout.doc_hashes, direction)
            per_head.append((ordered + [mine] if mine >= 0 else ordered, scores))
        orders.append(per_head)
    return orders


def _group_bounds(own: np.ndarray) -> np.ndarray:
    """First row of each query group, given each row's own document (-1:
    none): consecutive rows of one document form one group, and every
    other row is its own."""
    new_group = np.ones(len(own), dtype=bool)
    new_group[1:] = (own[1:] != own[:-1]) | (own[1:] < 0)
    return np.flatnonzero(new_group)


def doc_id_array(layout: SequenceLayout, total_len: int) -> np.ndarray:
    """Document number per storage index; -1 for prefix/suffix tokens."""
    ids = np.full(total_len, -1, dtype=np.int64)
    for j, (s, e) in enumerate(layout.doc_spans):
        ids[s:e] = j
    return ids

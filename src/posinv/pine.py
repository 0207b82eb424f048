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
A decode step's lone row takes the same path with no group bookkeeping,
and the comparator sort, ``order_documents``, builds nothing per call but
its comparator.

``laid_out`` is the one rule that lays documents out: a document key
sits at its document's start plus its offset inside the document.
``document_starts`` applies it to every (group, head) at once, and
``modes.assign_positions`` to one order.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import TYPE_CHECKING, Literal, Sequence

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
    if not math.isfinite(sum(scores.values())):  # one check; the loop names a culprit
        for j, s in scores.items():
            if not math.isfinite(s):
                raise ValueError(f"non-finite importance score for document {j}")
    sign = 1 if direction == "closer" else -1

    def cmp(a: int, b: int) -> int:
        global _comparisons
        _comparisons += 1
        sa, sb = scores[a], scores[b]
        if sa != sb:
            return sign if sa > sb else -sign
        ha, hb = doc_hashes[a], doc_hashes[b]
        if ha != hb:
            return -1 if ha < hb else 1
        return (a > b) - (a < b)

    return sorted(scores, key=cmp_to_key(cmp))


def document_starts(q: np.ndarray, k_raw: np.ndarray, plan: AttentionPlan,
                    own: np.ndarray) -> np.ndarray:
    """Start of every document for each query row and head, k >= 2:
    [len(q), n_heads, k].  ``q``: pre-rotation queries of rows in column
    order that each belong to a query group; ``own``: each row's document
    (-1: suffix or decoded); ``k_raw``: as ``group_ordering`` reads it.
    Each row gets its group's order, ``laid_out`` for every (group, head)
    at once."""
    orders = group_ordering(q, k_raw, plan, own)
    starts = laid_out(plan, [o for per_head in orders for o, _ in per_head])
    starts = starts.reshape(len(orders), -1, plan.layout.k)
    if len(orders) < len(own):  # a group of several rows: each row takes its group's starts
        starts = np.repeat(starts, np.diff([*_group_bounds(own), len(own)]), axis=0)
    return starts


def laid_out(plan: AttentionPlan, orders: Sequence[Sequence[int]]) -> np.ndarray:
    """Start position of each document, [len(orders), k] indexed by document,
    when all are laid out contiguously from the prefix boundary in each of
    ``orders`` (permutations of the k documents); storage order gives back
    their input starts.  The orders are the comparator sort's lists, so the
    starts are summed over them in Python, into one flat array."""
    k, lens = plan.layout.k, plan.doc_lens.tolist()
    starts = [0] * (len(orders) * k)
    for base, order in zip(range(0, len(starts), k), orders):
        at = plan.layout.prefix_len  # the prefix and the documents ordered before
        for j in order:
            starts[base + j] = at
            at += lens[j]
    return np.array(starts, dtype=np.int64).reshape(-1, k)


def group_ordering(q: np.ndarray, k_raw: np.ndarray, plan: AttentionPlan,
                   own: np.ndarray) -> list[list[tuple[list[int], dict[int, float]]]]:
    """Document order and scores of every query group at every head, k >= 2.

    q: [r, n_heads, d] pre-rotation query rows; k_raw: [c, n_kv_heads, d],
    the raw keys of at least the columns before the suffix, with the
    documents in ``plan.ranked`` order (``plan.ranked_cols`` of the columns,
    as the KV cache holds them; the column order itself when canonical);
    own: each row's document (-1: none), never a candidate and last in its
    group's order.  Groups follow ``_group_bounds``, and a lone row is its
    own group; aggregation and sort direction are ``plan.mode``'s.  Each KV
    head's query heads' copies of each row are scored against all its
    document keys in ``canonical_order`` (one slice of ``k_raw``, read as a
    unit-stride ``key_panel``): per ``row_block`` of rows (for n keys), one
    score product batched over the KV heads into one workspace, where each
    group's own document is hidden by one slice fill of its columns, and
    ``_document_mass`` gives each document's share of the row's softmax.
    Another ``reduceat`` takes each group's rows, which gives every group's
    scores at once; only the comparator sort runs per (group, head).  A
    lone row (a decode step's) is one product and needs no group bounds
    and no group reduction.
    Returns orders[group][head] = (ordered documents, candidate scores).
    """
    layout, mode = plan.layout, plan.mode
    if layout.k < 2:
        raise ValueError(f"group_ordering needs k >= 2 documents, got {layout.k}")
    reduce = np.maximum if mode.aggregation == "max" else np.add
    r, n_heads, d = q.shape
    n_kv = k_raw.shape[1]
    rep = n_heads // n_kv
    scale = 1.0 / np.sqrt(np.float32(d))
    keys = key_panel(k_raw[layout.prefix_len:layout.suffix_start])  # [n_kv, d, cols]
    n_cols = keys.shape[2]  # every document column
    if r == 1:  # a lone row is its own group: one product, no group bookkeeping
        mine = own.tolist()
        logits = np.matmul(q.reshape(n_kv, rep, d), keys)
        if mine[0] >= 0:
            c0, c1 = plan.ranked_spans[mine[0]]
            logits[..., c0:c1] = NEG_INF
        totals = _document_mass(logits, plan, reduce, scale).reshape(1, n_heads, layout.k)
    else:
        firsts = _group_bounds(own)
        bounds, mine = firsts.tolist(), own[firsts].tolist()
        # (first row, end row, own document's ranked columns) of each group that has one
        hidden = [(g0, g1, plan.ranked_spans[j])
                  for g0, g1, j in zip(bounds, [*bounds[1:], r], mine) if j >= 0]
        totals = np.empty((r, n_heads, layout.k), dtype=q.dtype)
        q_kv = q.reshape(r, n_kv, rep, d).swapaxes(0, 1)  # each KV head's query heads
        block = row_block(layout.n, rep)
        work = np.empty(n_kv * min(block, r) * rep * n_cols, dtype=q.dtype)  # every block's logits
        for b in range(0, r, block):
            rb = slice(b, b + block)
            q_b = q_kv[:, rb].reshape(n_kv, -1, d)
            logits = np.matmul(q_b, keys, out=work[:q_b[..., 0].size * n_cols].reshape(
                n_kv, -1, n_cols)).reshape(n_kv, -1, rep, n_cols)
            for g0, g1, (c0, c1) in hidden:  # each group's own document
                if g0 < b + block and g1 > b:
                    logits[:, max(g0 - b, 0):g1 - b, :, c0:c1] = NEG_INF
            part = _document_mass(logits, plan, reduce, scale)
            totals[rb] = part.swapaxes(0, 1).reshape(-1, n_heads, layout.k)
    check_finite(totals, "group_ordering")
    # in float64, so the mean rounds as a division of the Python floats would
    group_totals = totals if r == 1 else reduce.reduceat(totals, bounds, axis=0)
    group_totals = group_totals.astype(np.float64)
    if mode.aggregation == "mean":
        group_totals /= plan.ranked_lens
    orders, direction, hashes = [], mode.direction, layout.doc_hashes
    for j, group_scores in zip(mine, group_totals.tolist()):
        per_head = []
        for values in group_scores:
            scores = dict(zip(plan.ranked, values))
            if j >= 0:
                del scores[j]
            ordered = order_documents(scores, hashes, direction)
            per_head.append((ordered + [j] if j >= 0 else ordered, scores))
        orders.append(per_head)
    return orders


def _document_mass(logits: np.ndarray, plan: AttentionPlan, reduce: np.ufunc,
                   scale: float) -> np.ndarray:
    """Each document's share of the softmax of every row of ``logits``
    ([..., document columns], in ranked order): [..., k].  ``row_softmax``
    exponentiates the rows in place; one ``reduceat`` sums (max: takes the
    maximum of) each document's exponentials, divided by the row's sum."""
    e, sums = row_softmax(logits.reshape(-1, logits.shape[-1]), scale)
    part = reduce.reduceat(e, plan.ranked_starts, axis=1)
    part /= sums
    return part.reshape(*logits.shape[:-1], -1)


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

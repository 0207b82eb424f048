"""Importance scoring and key-position re-assignment.

The order-invariant attention mode scores candidate documents with
position-free attention mass, sorts them, and lays their key positions
out contiguously so that more important documents sit closer to the
query.  Everything here is computed per layer and per head from
pre-rotation queries and keys, which is what makes the resulting
ordering independent of the input document order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Literal

import numpy as np

from .kernels import row_softmax
from .prompts import SequenceLayout

Aggregation = Literal["mean", "sum", "max"]
Direction = Literal["closer", "reversed"]

# Comparator invocation counter, used to exhibit the k log k sorting cost.
_comparisons = 0


def reset_comparison_count() -> None:
    global _comparisons
    _comparisons = 0


def comparison_count() -> int:
    return _comparisons


@dataclass(frozen=True)
class QueryGroup:
    """The unit sharing one document ordering.

    A whole document (kind="doc") shares one ordering for all its query
    tokens; every suffix or decoded token (kind="token") gets its own.
    The group's own document is never a candidate: it is pinned last.
    """

    kind: Literal["doc", "token"]
    q_start: int
    q_end: int  # half-open; q_end == q_start + 1 for token groups
    doc_index: int | None = None

    def candidate_docs(self, layout: SequenceLayout) -> tuple[int, ...]:
        return tuple(j for j in range(layout.k) if j != self.doc_index)


@dataclass(frozen=True)
class PositionMap:
    """Positions used in one attention row: the query's own position and
    one assigned position per key storage index (-1 where unassigned)."""

    query_position: int
    key_positions: np.ndarray


def canonical_candidates(layout: SequenceLayout, group: QueryGroup) -> list[int]:
    """Candidate documents in a storage-order-independent ordering.

    Sorting by content hash (then input index, which only matters for
    identical contents) makes the downstream softmax reduction order,
    and hence the scores, bitwise independent of the input permutation.
    """
    cands = group.candidate_docs(layout)
    return sorted(cands, key=lambda j: (layout.doc_hashes[j], j))


def token_importance(q_rows: np.ndarray, k_rows: np.ndarray, d_head: int) -> np.ndarray:
    """Per-query softmax over all candidate-document key tokens.

    Inputs are pre-rotation query/key rows; no position information
    enters, so the result depends only on document contents.
    """
    if k_rows.shape[0] == 0:
        return np.zeros((q_rows.shape[0], 0), dtype=q_rows.dtype)
    logits = q_rows @ k_rows.T
    return row_softmax(logits, scale=1.0 / np.sqrt(np.float32(d_head)))


def doc_importance(
    probs: np.ndarray,
    blocks: list[tuple[int, int]],
    aggregation: Aggregation = "mean",
) -> list[float]:
    """Aggregate token-level probabilities into one score per candidate.

    ``blocks`` are column ranges of ``probs``, one per candidate document.
    Mean aggregation divides by document length to avoid favoring long
    documents; sum and max are exposed for ablation.
    """
    scores = []
    for s, e in blocks:
        block = probs[:, s:e]
        if aggregation == "mean":
            scores.append(float(block.sum()) / (e - s))
        elif aggregation == "sum":
            scores.append(float(block.sum()))
        elif aggregation == "max":
            scores.append(float(block.max()))
        else:
            raise ValueError(f"unknown aggregation {aggregation!r}")
    return scores


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
        if not np.isfinite(s):
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


def group_ordering(
    q_rows: np.ndarray,
    k_head: np.ndarray,
    layout: SequenceLayout,
    group: QueryGroup,
    d_head: int,
    aggregation: Aggregation = "mean",
    direction: Direction = "closer",
) -> tuple[list[int], dict[int, float]]:
    """Full key-block document order for one group at one (layer, head).

    ``q_rows`` are the group's pre-rotation query rows ([|group|, d]);
    ``k_head`` covers all cached key tokens at their storage indices.
    Returns (ordered document indices, candidate scores).  For document
    groups the group's own document is appended last (the query document
    always occupies the final block).
    """
    cands = canonical_candidates(layout, group)
    if not cands:
        ordered = [] if group.doc_index is None else [group.doc_index]
        return ordered, {}
    key_idx: list[int] = []
    blocks: list[tuple[int, int]] = []
    for j in cands:
        s, e = layout.doc_spans[j]
        blocks.append((len(key_idx), len(key_idx) + (e - s)))
        key_idx.extend(range(s, e))
    probs = token_importance(q_rows, k_head[key_idx], d_head)
    score_list = doc_importance(probs, blocks, aggregation)
    scores = dict(zip(cands, score_list))
    ordered = order_documents(scores, layout.doc_hashes, direction)
    if group.doc_index is not None:
        ordered.append(group.doc_index)
    return ordered, scores


def pine_key_positions(
    layout: SequenceLayout, ordered_docs: list[int], total_len: int
) -> np.ndarray:
    """Assigned key positions for one group, as an array over storage
    indices.

    Prefix keys keep 0..L_pre-1; document blocks are laid out
    contiguously from L_pre in the given order, each internally in token
    order; suffix keys keep their original positions.  The query's own
    position is the entry at its storage index (document queries sit on
    the diagonal of their final block; suffix queries keep their input
    position).
    """
    pos = np.arange(total_len, dtype=np.int64)
    cursor = layout.prefix_len
    for j in ordered_docs:
        s, e = layout.doc_spans[j]
        pos[s:e] = np.arange(cursor, cursor + (e - s), dtype=np.int64)
        cursor += e - s
    return pos


"""Attention modes: visibility masks, position assignment, and dispatch.

Seven variants share one attention core over blocks of query rows:

  vanilla          causal mask, input positions
  nia              causal mask minus inter-document pairs, input positions
  pcw              nia mask, all documents sharing one position block
  sp               pcw plus 1/k rescaling of suffix->document attention
  pine             bidirectional inter-document mask, importance-sorted
                   key positions (most important closest to the query)
  pine_noreassign  pine mask, input positions (ablation; not invariant)
  pine_reverse     pine with the sort direction flipped

``_MODE_TABLE`` is the one place these rules live.  Masks, positions,
the sp rescale and the CLI's invariance verdict all read them through
the properties of ``AttentionMode``.  Only the float64 oracle in
``oracle.py`` keeps its own copy, so that it stays independent.

The single shared core guarantees that whenever two modes produce the
same mask and positions (e.g. k <= 1), their outputs are bitwise equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import pine
from .kernels import NEG_INF, row_softmax
from .prompts import SequenceLayout
from .rope import rotate


class _Rules(NamedTuple):
    doc_mask: Literal["causal", "separate", "bidirectional"]  # between documents
    positions: Literal["input", "shared", "importance"]  # key positions
    rescales: bool  # sp: scale suffix->document attention by 1/k
    invariant: bool  # outputs independent of the document order
    direction: pine.Direction = "closer"  # sort order of "importance" positions


_MODE_TABLE = {
    "vanilla": _Rules("causal", "input", False, False),
    "nia": _Rules("separate", "input", False, False),
    "pcw": _Rules("separate", "shared", False, True),
    "sp": _Rules("separate", "shared", True, True),
    "pine": _Rules("bidirectional", "importance", False, True),
    "pine_noreassign": _Rules("bidirectional", "input", False, False),
    "pine_reverse": _Rules("bidirectional", "importance", False, True, "reversed"),
}
VARIANTS = tuple(_MODE_TABLE)
_BLOCK_SCORES = 1 << 16  # scores per row block: caps [rows, keys] temporaries (peak RSS)


@dataclass(frozen=True)
class AttentionMode:
    variant: str
    aggregation: str = "mean"  # importance-position modes only; ignored elsewhere

    def __post_init__(self):
        if self.variant not in _MODE_TABLE:
            raise ValueError(f"unknown attention mode {self.variant!r}")
        if self.aggregation not in ("mean", "sum", "max"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    @property
    def doc_mask(self) -> str:
        return _MODE_TABLE[self.variant].doc_mask

    @property
    def positions(self) -> str:
        return _MODE_TABLE[self.variant].positions

    @property
    def rescales(self) -> bool:
        return _MODE_TABLE[self.variant].rescales

    @property
    def invariant(self) -> bool:
        return _MODE_TABLE[self.variant].invariant

    @property
    def direction(self) -> pine.Direction:
        return _MODE_TABLE[self.variant].direction

    @property
    def reassigns(self) -> bool:
        return self.positions == "importance"


def doc_id_array(layout: SequenceLayout, total_len: int) -> np.ndarray:
    """Document number per storage index; -1 for prefix/suffix tokens."""
    ids = np.full(total_len, -1, dtype=np.int64)
    for j, (s, e) in enumerate(layout.doc_spans):
        ids[s:e] = j
    return ids


def build_mask(mode: AttentionMode, layout: SequenceLayout, total_len: int,
               q_start: int = 0) -> np.ndarray:
    """Visibility rows q_start .. total_len-1; entry [q - q_start, k]: query q may see key k."""
    m = np.arange(total_len) <= np.arange(q_start, total_len)[:, None]
    if layout.k >= 2 and mode.doc_mask != "causal":
        ids = doc_id_array(layout, total_len)
        q_ids = ids[q_start:, None]
        cross = (q_ids >= 0) & (ids >= 0) & (q_ids != ids)
        if mode.doc_mask == "separate":
            m &= ~cross
        else:
            m |= cross
    return m


def shared_block_positions(layout: SequenceLayout, total_len: int) -> np.ndarray:
    """PCW/SP positions: every document starts at the prefix boundary;
    the suffix continues after the longest document."""
    pos = np.arange(total_len, dtype=np.int64)
    max_len = max((e - s for s, e in layout.doc_spans), default=0)
    for s, e in layout.doc_spans:
        pos[s:e] = layout.prefix_len + np.arange(e - s, dtype=np.int64)
    tail = layout.prefix_len + max_len
    pos[layout.suffix_start : total_len] = tail + np.arange(
        total_len - layout.suffix_start, dtype=np.int64
    )
    return pos


def assign_positions(
    mode: AttentionMode,
    layout: SequenceLayout,
    q_index: int,
    ordered_docs: list[int] | None = None,
    total_len: int | None = None,
) -> pine.PositionMap:
    """Position map for one query under a mode.

    For the re-assigning modes the caller supplies the importance-sorted
    document order of the query's group (from pine.group_ordering);
    prefix queries belong to no group and keep their input positions.
    """
    total_len = total_len if total_len is not None else layout.n
    if _group_of(mode, layout, q_index) is not None:
        if ordered_docs is None:
            raise ValueError(f"mode {mode.variant} requires an importance ordering")
        pos = pine.pine_key_positions(layout, ordered_docs, total_len)
    elif mode.positions == "shared":
        pos = shared_block_positions(layout, total_len)
    else:
        pos = np.arange(total_len, dtype=np.int64)
    return pine.PositionMap(query_position=int(pos[q_index]), key_positions=pos)


def _group_of(mode: AttentionMode, layout: SequenceLayout, q_index: int) -> pine.QueryGroup | None:
    """The query group whose ordering sets q_index's key positions; None
    where the positions need no ordering (prefix rows, other modes, k < 2)."""
    if not mode.reassigns or layout.k < 2:
        return None
    if q_index >= layout.suffix_start:
        return pine.QueryGroup("token", q_index, q_index + 1)
    j = layout.doc_of(q_index)
    if j is None:
        return None
    s, e = layout.doc_spans[j]
    return pine.QueryGroup("doc", s, e, doc_index=j)


def sp_rescale(weights: np.ndarray, layout: SequenceLayout, q_index: int, k: int) -> np.ndarray:
    """Scale document-key attention of suffix/decoded queries by 1/k and
    renormalize; other queries (and k=0) pass through unchanged."""
    if k <= 1 or q_index < layout.suffix_start:
        # 1/k scaling with k <= 1 is the identity; skipping it keeps the
        # row bitwise equal to the unrescaled computation.
        return weights
    return _rescale(weights, doc_id_array(layout, len(weights)) >= 0, k)


def _rescale(weights: np.ndarray, doc_flags: np.ndarray, k: int) -> np.ndarray:
    scaled = np.where(doc_flags, weights / np.float32(k), weights)
    return (scaled / scaled.sum(axis=-1, keepdims=True)).astype(weights.dtype, copy=False)


def base_positions(mode: AttentionMode, layout: SequenceLayout, total_len: int) -> np.ndarray:
    """The position each key is rotated at, once, when it enters the cache.

    pcw/sp: the shared-block position.  Re-assigning modes with k >= 2: a
    document key's offset inside its own document (attention adds the
    block's assigned start on the query side); prefix and suffix keys keep
    their input positions.  Every other mode: the input position.  A key's
    base position never changes as the sequence grows.
    """
    if mode.positions == "shared":
        return shared_block_positions(layout, total_len)
    pos = np.arange(total_len, dtype=np.int64)
    if mode.reassigns and layout.k >= 2:
        for s, e in layout.doc_spans:
            pos[s:e] -= s
    return pos


def rotate_keys(mode: AttentionMode, layout: SequenceLayout, k_raw: np.ndarray,
                start: int, rope_theta: float) -> np.ndarray:
    """Keys of storage rows start .. start + len(k_raw) - 1 rotated at
    their base positions: what the KV cache holds next to the raw keys."""
    return rotate(k_raw, base_positions(mode, layout, start + len(k_raw))[start:], rope_theta)


def _pine_spans(layout: SequenceLayout, group: pine.QueryGroup, ordered: list[int],
                rows: np.ndarray, total_len: int, canonical: bool):
    """Key blocks and query positions of one pine group.

    The blocks are the prefix, the documents (in assigned order under
    canonical reduction, else in storage order) and the suffix, each as
    (storage start, storage end, assigned start of the block).  Prefix
    and suffix keys sit at their base positions, so their start is 0.
    """
    start = {}
    cursor = layout.prefix_len
    for j in ordered:
        start[j] = cursor
        cursor += layout.doc_len(j)
    spans = [(0, layout.prefix_len, 0)]
    spans += [(*layout.doc_spans[j], start[j]) for j in (ordered if canonical else range(layout.k))]
    spans.append((layout.suffix_start, total_len, 0))
    if group.doc_index is None:
        q_pos = rows
    else:
        q_pos = start[group.doc_index] + rows - layout.doc_spans[group.doc_index][0]
    return [span for span in spans if span[1] > span[0]], q_pos


def attention_forward(
    mode: AttentionMode,
    q_raw: np.ndarray,
    k_raw: np.ndarray,
    v: np.ndarray,
    layout: SequenceLayout,
    q_start: int = 0,
    rope_theta: float = 10000.0,
    canonical: bool = True,
    k_base: np.ndarray | None = None,
) -> np.ndarray:
    """One layer of multi-head attention under a mode.

    q_raw: [t, n_heads, d_head] pre-rotation queries for the contiguous
    rows q_start .. q_start + t - 1 (prefill: every row from 0; decode:
    the new token's index); k_raw/v: [s, n_kv_heads, d_head] covering
    all cached tokens.  k_base: the same keys rotated at their base
    positions (``rotate_keys``), as the KV cache holds them; computed
    here when None.  The rows must hold every query of each document
    group they touch.  Returns [t, n_heads, d].

    No key is rotated again: RoPE scores depend only on relative
    positions, <R(p)q, R(c + o)k> = <R(p - c)q, R(o)k>, so a key block
    whose keys sit at base offset o and assigned position c + o is
    scored with the queries rotated by p - c.  Only pine groups have
    blocks with c != 0: per (head, pine group) the document order gives
    each document block its start c, and the queries are rotated once
    per block.  Rows outside any pine group share one key order per KV
    head.  The rows then run in blocks: one score matrix with hidden
    keys at NEG_INF, one softmax and one V product per block.

    With canonical=True keys and rows run in ascending assigned-position
    order (ties broken by document content hash), so every block makes
    the same products whatever the document order: bitwise invariance.
    """
    t, n_heads, d_head = q_raw.shape
    s, rep = len(k_raw), n_heads // k_raw.shape[1]
    base = base_positions(mode, layout, s)
    if k_base is None:
        k_base = rotate(k_raw, base, rope_theta)
    mask = build_mask(mode, layout, s, q_start)
    ids = doc_id_array(layout, s)
    storage = np.arange(s)
    if canonical and mode.positions == "shared":
        # Documents share positions: ties break by content hash, then storage index.
        hash_key = np.array([0, *layout.doc_hashes], dtype=np.uint64)[ids + 1]
        plain = np.lexsort((storage, hash_key, base))
    else:
        plain = storage  # input positions: unique and ascending
    candidates = {}  # own document (None: suffix rows) -> pine.Candidates, shared by all heads
    block = max(1, _BLOCK_SCORES // s)

    groups = itertools.groupby(range(q_start, q_start + t), lambda qi: _group_of(mode, layout, qi))
    out = np.zeros((t, n_heads, d_head), dtype=q_raw.dtype)
    scale = 1.0 / np.sqrt(np.float32(d_head))
    for group, rows in groups:
        rows = np.fromiter(rows, dtype=np.int64)
        for h in range(n_heads):
            g = h // rep
            if group is not None:
                if group.doc_index not in candidates:
                    candidates[group.doc_index] = pine.candidate_keys(layout, group)
                ordered, _ = pine.group_ordering(
                    q_raw[rows - q_start, h, :], k_raw[:, g, :], layout, group, d_head,
                    mode.aggregation, mode.direction, candidates[group.doc_index])
                spans, q_pos = _pine_spans(layout, group, ordered, rows, s, canonical)
                order = np.concatenate([storage[a:b] for a, b, _ in spans])
                keys = [k_base[a:b, g, :] for a, b, _ in spans]
                # Per key block, the rows rotate by their position minus the block's start.
                rot_pos = (q_pos - np.array([c for _, _, c in spans])[:, None]).ravel()
                qs = rows
            elif h % rep == 0:  # rows outside any pine group: one plan per KV head
                order = plain
                qs = order[(order >= rows[0]) & (order <= rows[-1])]  # the rows, in key order
                keys, rot_pos = [k_base[order, g, :]], base[qs]
            if group is not None or h % rep == 0:
                seen = mask[qs - q_start][:, order]
                vals = v[order, g, :]
                in_doc = ids[order] >= 0 if mode.rescales else None
            q_rows = q_raw[qs - q_start, h, :]
            if len(keys) > 1:  # one copy of the rows per key block
                q_rows = np.tile(q_rows, (len(keys), 1))
            q_rot = rotate(q_rows, rot_pos, rope_theta).reshape(len(keys), len(qs), d_head)
            for b in range(0, len(qs), block):
                rb = slice(b, b + block)
                scores = [q_rot[i, rb] @ kb.T for i, kb in enumerate(keys)]
                scores = scores[0] if len(scores) == 1 else np.concatenate(scores, axis=1)
                w = row_softmax(np.where(seen[rb], scores, NEG_INF), scale)
                if mode.rescales and layout.k > 1:
                    late = qs[rb] >= layout.suffix_start
                    w[late] = _rescale(w[late], in_doc, layout.k)
                out[qs[rb] - q_start, h, :] = w @ vals
    return out

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

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import pine
from .kernels import NEG_INF, row_block, row_softmax
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


@dataclass(frozen=True)
class AttentionMode:
    """A variant of ``_MODE_TABLE`` and its numeric settings: ``aggregation``
    of pine's importance scores, and ``canonical`` reduction, which reduces
    documents in content-hash order (bitwise invariance) or, when False,
    in storage order (invariance up to float rounding)."""

    variant: str
    aggregation: str = "mean"  # importance-position modes only; ignored elsewhere
    canonical: bool = True

    def __post_init__(self):
        if self.variant not in _MODE_TABLE:
            raise ValueError(f"unknown attention mode {self.variant!r}")
        if self.aggregation not in ("mean", "sum", "max"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if not isinstance(self.canonical, bool):
            raise ValueError(f"canonical must be a bool, got {self.canonical!r}")

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


def build_mask(mode: AttentionMode, layout: SequenceLayout, total_len: int,
               q_start: int = 0) -> np.ndarray:
    """Visibility rows q_start .. total_len-1; entry [q - q_start, k]: query q may see key k."""
    m = np.arange(total_len) <= np.arange(q_start, total_len)[:, None]
    if layout.k >= 2 and mode.doc_mask != "causal":
        ids = pine.doc_id_array(layout, total_len)
        q_ids = ids[q_start:, None]
        cross = (q_ids >= 0) & (ids >= 0) & (q_ids != ids)
        if mode.doc_mask == "separate":
            m &= ~cross
        else:
            m |= cross
    return m


def assign_positions(
    mode: AttentionMode,
    layout: SequenceLayout,
    q_index: int,
    ordered_docs: list[int] | None = None,
) -> pine.PositionMap:
    """Position map for one query as ``attention_forward`` applies it:
    ``base_positions`` plus, in re-assigning modes with k >= 2, each document's
    ``pine.block_starts`` start in ``ordered_docs``, the query group's order
    (a permutation, as pine.group_ordering gives).  Prefix queries have no group: storage order gives
    back their input positions.  Decoded queries take ``layout.extend``.
    """
    pos = base_positions(mode, layout, layout.n)
    if mode.reassigns and layout.k >= 2:
        if q_index < layout.prefix_len:
            ordered_docs = range(layout.k)
        elif ordered_docs is None:
            raise ValueError(f"mode {mode.variant} requires an importance ordering")
        elif sorted(ordered_docs) != list(range(layout.k)):
            raise ValueError(f"ordered_docs {list(ordered_docs)} is not a permutation of "
                             f"the {layout.k} documents")
        for (s, e), start in zip(layout.doc_spans, pine.block_starts(layout, ordered_docs)):
            pos[s:e] += start
    return pine.PositionMap(query_position=int(pos[q_index]), key_positions=pos)


def sp_rescale(weights: np.ndarray, layout: SequenceLayout, q_index: int, k: int) -> np.ndarray:
    """Scale document-key attention of suffix/decoded queries by 1/k and
    renormalize; other queries (and k=0) pass through unchanged."""
    if k <= 1 or q_index < layout.suffix_start:
        # 1/k scaling with k <= 1 is the identity; skipping it keeps the
        # row bitwise equal to the unrescaled computation.
        return weights
    return _rescale(weights, pine.doc_id_array(layout, len(weights)) >= 0, k)


def _rescale(weights: np.ndarray, doc_flags: np.ndarray, k: int) -> np.ndarray:
    scaled = np.where(doc_flags, weights / np.float32(k), weights)
    return (scaled / scaled.sum(axis=-1, keepdims=True)).astype(weights.dtype, copy=False)


def base_positions(mode: AttentionMode, layout: SequenceLayout, total_len: int) -> np.ndarray:
    """The position each key is rotated at, once, when it enters the cache.

    pcw/sp: every document from the prefix boundary, the suffix after the
    longest.  Re-assigning modes with k >= 2: a document key's offset
    inside its own document (attention adds its ``pine.block_starts`` start
    on the query side); prefix and suffix keys keep their input positions.
    Every other mode: the input position.  A key's base position never
    changes as the sequence grows.
    """
    pos = np.arange(total_len, dtype=np.int64)
    if mode.positions == "shared":
        for s, e in layout.doc_spans:
            pos[s:e] -= s - layout.prefix_len
        longest = max((e - s for s, e in layout.doc_spans), default=0)
        pos[layout.suffix_start:] -= layout.suffix_start - layout.prefix_len - longest
    elif mode.reassigns and layout.k >= 2:
        for s, e in layout.doc_spans:
            pos[s:e] -= s
    return pos


def rotate_keys(mode: AttentionMode, layout: SequenceLayout, k_raw: np.ndarray,
                start: int, rope_theta: float) -> np.ndarray:
    """Keys of storage rows start .. start + len(k_raw) - 1 rotated at
    their base positions: what the KV cache holds next to the raw keys."""
    return rotate(k_raw, base_positions(mode, layout, start + len(k_raw))[start:], rope_theta)


def attention_forward(
    mode: AttentionMode,
    q_raw: np.ndarray,
    k_raw: np.ndarray,
    v: np.ndarray,
    layout: SequenceLayout,
    q_start: int = 0,
    rope_theta: float = 10000.0,
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

    Keys are taken in one order for every row: prefix, documents by
    content hash (storage order when ``mode.canonical`` is False),
    suffix.  The rows take the same order.  Per KV head, the rows of its query heads are
    stacked and run in blocks: one score matrix with hidden keys at
    NEG_INF, one softmax and one V product per block.

    No key is rotated again: RoPE scores depend only on relative
    positions, <R(p)q, R(c + o)k> = <R(p - c)q, R(o)k>, so a key block
    whose keys sit at base offset o and assigned position c + o is
    scored with the query rotated by p - c.  Only the re-assigning modes
    have blocks with c != 0: ``pine.document_starts`` scores every
    (query head, row) against every document in one importance pass and
    gives each document's start c in the row's group order; each
    document block is then scored with the queries rotated by p - c.
    Every other mode has one key block and no shift.

    With ``mode.canonical`` every block of rows makes the same products,
    on keys in the same columns, whatever the document order: bitwise
    invariance.
    """
    t, n_heads, d_head = q_raw.shape
    s, n_kv = k_raw.shape[:2]
    rep = n_heads // n_kv
    base = base_positions(mode, layout, s)
    if k_base is None:
        k_base = rotate(k_raw, base, rope_theta)
    docs = pine.canonical_order(layout) if mode.canonical else range(layout.k)
    spans = [(0, layout.prefix_len), *(layout.doc_spans[j] for j in docs), (layout.suffix_start, s)]
    order = np.concatenate([np.arange(a, b) for a, b in spans])
    rows = order[(order >= q_start) & (order < q_start + t)]
    hidden = ~build_mask(mode, layout, s, q_start)[np.ix_(rows - q_start, order)]
    ids = pine.doc_id_array(layout, s)
    in_doc = ids[order] >= 0
    late = rows >= layout.suffix_start
    block = row_block(s, rep)
    scale = 1.0 / np.sqrt(np.float32(d_head))
    q_pos = np.broadcast_to(base[rows, None], (len(rows), n_heads))
    # Each key block: its column range and which of `shifts` its queries take.
    if mode.reassigns and layout.k >= 2:
        starts = pine.document_starts(q_raw[rows - q_start], k_raw, layout, rows,
                                      mode.aggregation, mode.direction)
        own = ids[rows]
        own_start = starts[np.arange(len(rows)), :, np.maximum(own, 0)]
        q_pos = q_pos + np.where(own[:, None] >= 0, own_start, 0)
        # Shift 0 (none) serves the prefix and suffix, shift 1 + i the i-th document.
        shifts = np.concatenate([np.zeros_like(starts[..., :1]), starts[..., list(docs)]], axis=2)
        edges = np.cumsum([0, *(b - a for a, b in spans)])
        key_blocks = [(c0, c1, i) for c0, c1, i in
                      zip(edges[:-1], edges[1:], [0, *range(1, layout.k + 1), 0]) if c1 > c0]
    else:
        shifts, key_blocks = np.zeros((len(rows), n_heads, 1), dtype=np.int64), [(0, s, 0)]

    out = np.empty((t, n_heads, d_head), dtype=q_raw.dtype)
    for g in range(n_kv):
        heads = slice(g * rep, (g + 1) * rep)
        q = q_raw[rows - q_start, heads, :]  # [rows, rep, d]: the KV head's query heads
        keys, vals = k_base[order, g, :], v[order, g, :]
        for b in range(0, len(rows), block):
            rb = slice(b, b + block)
            q_rows = q[rb].reshape(-1, d_head)
            # One rotation of every (row, head) query per shift: p - c.
            pos = np.moveaxis(q_pos[rb, heads, None] - shifts[rb, heads], 2, 0)
            q_rot = rotate(np.broadcast_to(q_rows, (len(pos),) + q_rows.shape).reshape(-1, d_head),
                           pos.ravel(), rope_theta).reshape(len(pos), -1, d_head)
            scores = np.empty((len(q_rows), s), dtype=q_rows.dtype)
            for c0, c1, i in key_blocks:
                np.matmul(q_rot[i], keys[c0:c1].T, out=scores[:, c0:c1])
            scores = scores.reshape(-1, rep, s)
            np.copyto(scores, NEG_INF, where=hidden[rb, None, :])
            w = row_softmax(scores.reshape(-1, s), scale).reshape(-1, rep, s)
            if mode.rescales and layout.k > 1:
                w[late[rb]] = _rescale(w[late[rb]], in_doc, layout.k)
            out[rows[rb] - q_start, heads, :] = (w.reshape(-1, s) @ vals).reshape(-1, rep, d_head)
    return out

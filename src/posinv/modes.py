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
the sp rescale and the CLI's invariance verdict all read them as
attributes of ``AttentionMode``.  Only the float64 oracle in
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

    def __getattr__(self, name: str):
        """The variant's rules: doc_mask, positions, rescales, invariant, direction."""
        if name in _Rules._fields:
            return getattr(_MODE_TABLE[self.variant], name)
        raise AttributeError(name)

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


def assign_positions(mode: AttentionMode, layout: SequenceLayout, q_index: int,
                     ordered_docs: list[int] | None = None) -> pine.PositionMap:
    """Position map for one query, by storage index, as ``attention_forward``
    applies it: ``base_positions`` plus, in re-assigning modes with k >= 2,
    each document's ``pine.block_starts`` start in ``ordered_docs``, the
    query group's order (a permutation, as pine.group_ordering gives).
    Prefix queries have no group: storage order gives back their input
    positions.  Decoded queries take ``layout.extend``.
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
    renormalize; other queries (and k=0) pass through unchanged.  Documents
    fill keys prefix_len .. suffix_start - 1 in storage and in column order."""
    if k <= 1 or q_index < layout.suffix_start:
        # 1/k scaling with k <= 1 is the identity; skipping it keeps the
        # row bitwise equal to the unrescaled computation.
        return weights
    scaled = weights.copy()
    scaled[..., layout.prefix_len:layout.suffix_start] /= np.float32(k)
    return (scaled / scaled.sum(axis=-1, keepdims=True)).astype(weights.dtype, copy=False)


def base_positions(mode: AttentionMode, layout: SequenceLayout, total_len: int) -> np.ndarray:
    """The position each key (by storage index) is rotated at, once, when it
    enters the cache.

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


class AttentionPlan:
    """Where every key of one stream sits under one mode.  Built once per
    (layout, mode) and held by the KV cache, which stores its keys and
    values in the plan's column order, so attention reads them as views.

    Columns run: prefix, documents (``docs``: ``pine.canonical_order``, or
    storage order when ``mode.canonical`` is False), suffix, then decoded
    tokens.  Only the documents are reordered, so from ``suffix_start`` on
    a column's index is its storage index and its base position is the
    index plus ``offset``: decoding appends columns to an unchanged plan.
    """

    def __init__(self, mode: AttentionMode, layout: SequenceLayout):
        self.mode, self.layout = mode, layout
        self.reorders = mode.reassigns and layout.k >= 2  # document starts vary per query group
        self.ranked = pine.canonical_order(layout)
        ranked = np.concatenate([np.arange(layout.prefix_len),
                                 *(np.arange(*layout.doc_spans[j]) for j in self.ranked),
                                 np.arange(layout.suffix_start, layout.n)])
        self.docs = self.ranked if mode.canonical else list(range(layout.k))
        self.order = ranked if mode.canonical else np.arange(layout.n)  # storage index per column
        pos = base_positions(mode, layout, layout.n + 1)
        self.base, self.offset = pos[self.order], int(pos[-1]) - layout.n
        self.col_doc = pine.doc_id_array(layout, layout.n)[self.order]
        # Key blocks: (first column, end column, query shift), shift 0 for
        # none and 1 + i for the i-th document of ``docs``.
        self.key_blocks = [(0, None, 0)]
        if self.reorders:
            edges = np.cumsum([layout.prefix_len, *(layout.doc_len(j) for j in self.docs)]).tolist()
            self.key_blocks = [(0, layout.prefix_len, 0), *zip(edges, edges[1:], range(1, layout.k + 1)),
                               (layout.suffix_start, None, 0)]
        # The importance pass reads the documents in ``ranked`` order: a slice
        # of the columns, or a gather of them when canonical is False.
        region = slice(layout.prefix_len, layout.suffix_start)
        self.ranked_cols = region if mode.canonical else ranked[region]
        self.ranked_col_doc = self.col_doc[self.ranked_cols]
        ends = np.cumsum([layout.doc_len(j) for j in self.ranked], dtype=np.int64).tolist()
        self.ranked_spans = list(zip([0, *ends], ends))  # each document's part of ranked_cols

    def columns(self, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Storage index, base position and document (-1: none) of columns c0 .. c1 - 1."""
        past = np.arange(max(c0, self.layout.n), c1)
        return (np.concatenate([self.order[c0:c1], past]),
                np.concatenate([self.base[c0:c1], past + self.offset]),
                np.concatenate([self.col_doc[c0:c1], np.full(len(past), -1)]))

    def lay_out(self, x: np.ndarray, c0: int = 0) -> np.ndarray:
        """Storage rows c0 .. c0 + len(x) - 1 of ``x`` in column order.  The
        rows must not cut the documents: c0 is 0 or at least ``suffix_start``."""
        return x[self.columns(c0, c0 + len(x))[0] - c0]

    def rotate_keys(self, k: np.ndarray, c0: int, rope_theta: float) -> np.ndarray:
        """Keys of columns c0 .. c0 + len(k) - 1 rotated at their base positions:
        what the KV cache holds next to the raw keys."""
        return rotate(k, self.columns(c0, c0 + len(k))[1], rope_theta)


def attention_forward(plan: AttentionPlan, q_raw: np.ndarray, k_raw: np.ndarray, v: np.ndarray,
                      q_start: int = 0, rope_theta: float = 10000.0,
                      k_base: np.ndarray | None = None) -> np.ndarray:
    """One layer of multi-head attention under ``plan.mode``.

    q_raw: [t, n_heads, d_head] pre-rotation queries of the storage rows
    q_start .. q_start + t - 1, which must not cut the documents (prefill:
    every row from 0; decode: the new token's).  k_raw/v: [s, n_kv_heads,
    d_head], every cached token in the plan's column order, as the KV cache
    holds them; k_base: those keys rotated at their base positions
    (``plan.rotate_keys``), computed here when None.  Returns
    [t, n_heads, d_head] in storage order.

    Per KV head, keys and values are views of the cache, and the rows of its
    query heads, in column order, are stacked and run in blocks: one score
    matrix with hidden keys at NEG_INF, one softmax and one V product per
    block.  A lone suffix or decoded row sees every earlier key in every
    mode, so a decode step builds no mask.

    No key is rotated again: RoPE scores depend only on relative positions,
    <R(p)q, R(c + o)k> = <R(p - c)q, R(o)k>, so a key block at base offset o
    and assigned start c is scored with the query rotated by p - c.  Only
    the re-assigning modes have blocks with c != 0: ``pine.document_starts``
    scores every (query head, row) against every document in one importance
    pass and gives each document's start in the row's group order.  With
    ``mode.canonical`` every block of rows makes the same products, on keys
    in the same columns, whatever the document order: bitwise invariance.
    """
    mode, layout = plan.mode, plan.layout
    t, n_heads, d_head = q_raw.shape
    s, n_kv = k_raw.shape[:2]
    rep = n_heads // n_kv
    if k_base is None:
        k_base = plan.rotate_keys(k_raw, 0, rope_theta)
    rows, q_base, own = plan.columns(q_start, q_start + t)  # the rows, in column order
    hidden = None  # a lone suffix or decoded row sees every earlier key
    if t > 1 or q_start < layout.suffix_start:
        hidden = ~build_mask(mode, layout, s, q_start)[np.ix_(rows - q_start, plan.columns(0, s)[0])]
    late = rows >= layout.suffix_start
    block = row_block(s, rep)
    scale = 1.0 / np.sqrt(np.float32(d_head))
    q_pos = np.broadcast_to(q_base[:, None], (t, n_heads))
    shifts = np.zeros((t, n_heads, 1), dtype=np.int64)  # each key block's query shift
    if plan.reorders:
        first = int(np.count_nonzero(rows < layout.prefix_len))  # prefix rows: no query group
        starts = np.zeros((t, n_heads, layout.k), dtype=np.int64)
        starts[first:] = pine.document_starts(q_raw[rows[first:] - q_start], k_raw, plan,
                                              own[first:])
        own_start = starts[np.arange(t), :, np.maximum(own, 0)]
        q_pos = q_pos + np.where(own[:, None] >= 0, own_start, 0)
        shifts = np.concatenate([shifts, starts[..., plan.docs]], axis=2)

    out = np.empty((t, n_heads, d_head), dtype=q_raw.dtype)
    for g in range(n_kv):
        heads = slice(g * rep, (g + 1) * rep)
        q = q_raw[rows - q_start, heads, :]  # [rows, rep, d]: the KV head's query heads
        keys, vals = k_base[:, g, :], v[:, g, :]
        for b in range(0, t, block):
            rb = slice(b, b + block)
            q_rows = q[rb].reshape(-1, d_head)
            # One rotation of every (row, head) query per shift: p - c.
            pos = np.moveaxis(q_pos[rb, heads, None] - shifts[rb, heads], 2, 0)
            q_rot = rotate(np.broadcast_to(q_rows, (len(pos),) + q_rows.shape).reshape(-1, d_head),
                           pos.ravel(), rope_theta).reshape(len(pos), -1, d_head)
            scores = np.empty((len(q_rows), s), dtype=q_rows.dtype)
            for c0, c1, i in plan.key_blocks:
                np.matmul(q_rot[i], keys[c0:c1].T, out=scores[:, c0:c1])
            scores = scores.reshape(-1, rep, s)
            if hidden is not None:
                np.copyto(scores, NEG_INF, where=hidden[rb, None, :])
            w = row_softmax(scores.reshape(-1, s), scale).reshape(-1, rep, s)
            if mode.rescales:  # the late rows: each at or after suffix_start
                w[late[rb]] = sp_rescale(w[late[rb]], layout, layout.suffix_start, layout.k)
            out[rows[rb] - q_start, heads, :] = (w.reshape(-1, s) @ vals).reshape(-1, rep, d_head)
    return out

"""Attention modes: visibility masks, position assignment, and dispatch.

Seven variants share one attention core over blocks of query rows:

  vanilla          causal mask, input positions
  nia              causal mask minus inter-document pairs, input positions
  pcw              nia mask, all documents sharing one position block
  sp               pcw plus a 1/k weight on suffix->document attention
  pine             bidirectional inter-document mask, importance-sorted
                   key positions (most important closest to the query)
  pine_noreassign  pine mask, input positions (ablation; not invariant)
  pine_reverse     pine with the sort direction flipped

``_MODE_TABLE`` is the one place these rules live.  Masks, positions,
sp's score bias and the CLI's invariance verdict all read them as
attributes of ``AttentionMode``.  Only the float64 oracle in
``oracle.py`` keeps its own copy, so that it stays independent.

The single shared core guarantees that whenever two modes produce the
same mask and positions (e.g. k <= 1), their outputs are bitwise equal.
It runs query rows in blocks, and a block scores only the key blocks
(prefix, each document, suffix with the decoded tokens) that one of its
rows can see.  ``AttentionPlan.rows`` plans a forward pass's rows once:
``row_blocks`` decides this from the key blocks alone and gives each
block's hidden scores as slice fills, so attention builds no mask (a lone
row past the documents takes the plan that the AttentionPlan keeps);
``build_mask``, the one definition of visibility, builds only the plan's
block-to-block table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple, get_args

import numpy as np

from . import pine
from .kernels import NEG_INF, check_finite, row_block, row_softmax, softmax_scale
from .prompts import SequenceLayout
from .rope import rotate


class _Rules(NamedTuple):
    doc_mask: Literal["causal", "separate", "bidirectional"]  # between documents
    positions: Literal["input", "shared", "importance"]  # key positions
    rescales: bool  # sp: weight suffix->document attention by 1/k (a -log k score bias)
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
    aggregation: pine.Aggregation = "mean"  # importance-position modes only; ignored elsewhere
    canonical: bool = True

    def __post_init__(self):
        if self.variant not in _MODE_TABLE:
            raise ValueError(f"unknown attention mode {self.variant!r}")
        if self.aggregation not in get_args(pine.Aggregation):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if not isinstance(self.canonical, bool):
            raise ValueError(f"canonical must be a bool, got {self.canonical!r}")
        # the variant's rules, read as plain attributes: doc_mask, positions,
        # rescales, invariant, direction
        for name, value in zip(_Rules._fields, _MODE_TABLE[self.variant]):
            object.__setattr__(self, name, value)

    @property
    def reassigns(self) -> bool:
        return self.positions == "importance"


def build_mask(mode: AttentionMode, layout: SequenceLayout, rows, keys) -> np.ndarray:
    """Visibility of keys to query rows, both given by storage index (at or
    past ``layout.n``: decoded tokens): entry [i, j] is True when query
    ``rows[i]`` may see key ``keys[j]``."""
    rows, keys = np.asarray(rows, dtype=np.int64), np.asarray(keys, dtype=np.int64)
    m = keys <= rows[:, None]
    if layout.k >= 2 and mode.doc_mask != "causal":
        ids = pine.doc_id_array(layout, 1 + max(rows.max(initial=0), keys.max(initial=0)))
        q_ids, k_ids = ids[rows, None], ids[keys]
        cross = (q_ids >= 0) & (k_ids >= 0) & (q_ids != k_ids)
        if mode.doc_mask == "separate":
            m &= ~cross
        else:
            m |= cross
    return m


def assign_positions(mode: AttentionMode, layout: SequenceLayout, q_index: int,
                     ordered_docs: list[int] | None = None) -> np.ndarray:
    """Every key's position, by storage index, as ``attention_forward``
    applies it for query ``q_index``, whose own position is ``pos[q_index]``:
    the ``AttentionPlan``'s base positions plus, in re-assigning modes with
    k >= 2, each document's ``pine.laid_out`` start in ``ordered_docs``, the
    query group's order (a permutation, as pine.group_ordering gives).
    Prefix queries have no group: storage order gives back their input
    positions.  ``q_index`` must be one of the layout's n tokens; a decoded
    query is asked of ``layout.extend``, whose suffix holds it.
    """
    if not 0 <= q_index < layout.n:
        raise ValueError(f"q_index {q_index} is outside the {layout.n} tokens")
    plan = AttentionPlan(mode, layout)
    base = plan.base.copy()
    if plan.reorders:
        if q_index < layout.prefix_len:
            ordered_docs = range(layout.k)
        elif ordered_docs is None:
            raise ValueError(f"mode {mode.variant} requires an importance ordering")
        elif sorted(ordered_docs) != list(range(layout.k)):
            raise ValueError(f"ordered_docs {list(ordered_docs)} is not a permutation of "
                             f"the {layout.k} documents")
        ranked = plan.rank[list(ordered_docs)]  # the order in ranked positions
        starts = np.array(pine.laid_out(ranked, plan.ranked_lens, layout.prefix_len, [0] * layout.k))
        base += np.where(plan.col_rank >= 0, starts[plan.col_rank], 0)
    pos = np.empty_like(base)
    pos[plan.order] = base  # each column back to its storage index
    return pos


def base_positions(mode: AttentionMode, layout: SequenceLayout, total_len: int) -> np.ndarray:
    """The position each key (by storage index) is rotated at, once, when it
    enters the cache.

    pcw/sp: every document from the prefix boundary, the suffix after the
    longest.  Re-assigning modes with k >= 2: a document key's offset
    inside its own document (attention adds its ``pine.laid_out`` start
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


class RowBlock(NamedTuple):
    """One block of query rows as ``AttentionPlan.row_blocks`` plans it."""

    rows: slice  # the block's rows, in column order, counted from the first row
    runs: list[tuple[int, int, int]]  # kept columns: (first, end, query shift) runs
    spans: list[tuple[int, int]]  # the same columns as contiguous spans
    width: int  # kept columns
    # Hidden scores: (rows, kept columns, mask), mask None for the whole rectangle.
    fills: list[tuple[slice, slice, np.ndarray | None]]


class Rows(NamedTuple):
    """A forward pass's rows, columns ``start`` on, as ``AttentionPlan.rows`` plans them."""

    start: int
    index: np.ndarray  # storage index per row
    base: np.ndarray  # base position per row
    blocks: list[RowBlock]
    groups: pine.QueryGroups | None  # pine's query groups; None when the plan does not reorder


class AttentionPlan:
    """Where every key of one stream sits under one mode.  Built once per
    (layout, mode) and held by the KV cache, which stores its keys and
    values in the plan's column order, so attention reads them as views.
    Like that cache, it serves one thread at a time: its counted sort keeps its row.

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
        self.rank = np.argsort(self.ranked)  # each document's place in ``ranked``
        ranked = np.concatenate([np.arange(layout.prefix_len),
                                 *(np.arange(*layout.doc_spans[j]) for j in self.ranked),
                                 np.arange(layout.suffix_start, layout.n)])
        self.docs = self.ranked if mode.canonical else list(range(layout.k))
        self.order = ranked if mode.canonical else np.arange(layout.n)  # storage index per column
        pos = base_positions(mode, layout, layout.n + 1)
        self.base, self.offset = pos[self.order], int(pos[-1]) - layout.n
        col_doc = pine.doc_id_array(layout, layout.n)[self.order]
        self.col_rank = np.append(self.rank, -1)[col_doc]  # each column's document's; -1: none
        # Key blocks: prefix, each document of ``docs``, then the suffix with
        # the decoded tokens (end None).  (first column, end column, query
        # shift): shift 1 + i for the i-th document when the plan reorders,
        # else 0.  Empty prefix and documents are left out.
        edges = np.cumsum([0, layout.prefix_len, *(layout.doc_len(j) for j in self.docs)]).tolist()
        shifts = [0, *(range(1, layout.k + 1) if self.reorders else [0] * layout.k)]
        self.key_blocks = [(c0, c1, i) for c0, c1, i in zip(edges, edges[1:], shifts) if c0 < c1]
        self.key_blocks.append((layout.suffix_start, None, 0))
        # sees[a, b]: the rows of block a see every key of block b.  Between
        # two blocks the mask is all or nothing, so each block's first token
        # stands for it.  A block's own keys are causal: see ``row_blocks``.
        firsts = self.columns(0, layout.suffix_start + 1)[0][[c0 for c0, _, _ in self.key_blocks]]
        self.sees = build_mask(mode, layout, firsts, firsts)
        np.fill_diagonal(self.sees, False)
        # The importance pass reads the raw keys before the suffix with the
        # documents in ``ranked`` order: these columns, a slice when canonical.
        # The KV cache gathers them once, at prefill.
        self.ranked_cols = (slice(0, layout.suffix_start) if mode.canonical
                            else ranked[:layout.suffix_start])
        # each ranked document's length
        self.ranked_lens = np.array([layout.doc_len(j) for j in self.ranked], dtype=np.int64)
        # group_ordering's sort and the candidates of each own ranked position (-1: none)
        self.sort = pine.ranked_sort(mode.direction)
        self.candidates = {j: [i for i in range(layout.k) if i != j] for j in range(-1, layout.k)}
        self.shift_ranks = self.rank[self.docs]  # the ranked position of each shift's document
        # ``rows``' kept plan of a lone row past the documents: the last run ends at the row
        self.lone_runs = _join([(c0, c1 or layout.suffix_start + 1, i)
                                for c0, c1, i in self.key_blocks])
        self.lone_groups = pine.query_groups(np.full(1, -1), 0) if self.reorders else None
        # What ``rows`` and attention read of the plan but a stream's own positions
        # and document ids, and ``sees``, which only ``row_blocks`` reads: the key
        # blocks and, when the plan reorders, its documents in ranked positions.
        # Under canonical reduction the orders of one document set have one shape;
        # ``model._forward`` also compares ``sees`` for rows that ``row_blocks`` plans.
        ranked = (tuple(self.ranked_lens.tolist()), tuple(self.shift_ranks.tolist()))
        self.shape = (mode, layout.n, layout.k, layout.prefix_len, layout.suffix_start,
                      tuple(self.key_blocks), ranked if self.reorders else None)

    @cached_property
    def column_set(self) -> pine.KeySet:
        """The key set, with no keys, that the importance pass scores at every
        layer but the first: ``pine.key_set`` of one distinct id per column of
        the raw key panel, so its counts are 0/1 and each document alone holds
        its own columns.  Built on first use: only plans whose pass runs pay."""
        panel_cols = np.arange(self.layout.suffix_start)[self.ranked_cols]
        return pine.key_set(np.argsort(panel_cols), self)  # each column's place in the panel

    def columns(self, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Storage index, base position and ranked position of the document (-1:
        none) of columns c0 .. c1 - 1."""
        past = np.arange(max(c0, self.layout.n), c1)
        return (np.concatenate([self.order[c0:c1], past]),
                np.concatenate([self.base[c0:c1], past + self.offset]),
                np.concatenate([self.col_rank[c0:c1], np.full(len(past), -1)]))

    def rows(self, q_start: int, t: int, rep: int) -> Rows:
        """Plan rows q_start .. q_start + t - 1 once for a forward pass's
        layers: their columns, ``row_blocks`` and, when the plan reorders,
        pine's query groups (a prefill's prefix rows are in none).  Rows
        that cut the documents are refused: they must start at 0 and take
        the first ``suffix_start`` rows or more, or start at or after it.
        A lone row from ``suffix_start`` on (a decode step's, or a prefill's
        last row) sees every key: it takes the plan kept at construction,
        whose index, base position and last run's end alone are set here."""
        ss = self.layout.suffix_start
        if q_start < 0 or 0 < q_start < ss or (q_start == 0 and t < ss):
            raise ValueError(f"rows {q_start} .. {q_start + t - 1} cut the documents: they must "
                             f"start at 0 and take {ss} rows or more, or start at or after {ss}")
        if t == 1 and q_start >= ss:
            *runs, (c0, _, shift) = self.lone_runs
            block = RowBlock(slice(0, 1), [*runs, (c0, q_start + 1, shift)], [(0, q_start + 1)],
                             q_start + 1, [])
            return Rows(q_start, np.array([q_start]), np.array([q_start + self.offset]), [block],
                        self.lone_groups)
        index, base, doc = self.columns(q_start, q_start + t)
        groups = (pine.query_groups(doc, 0 if q_start else self.layout.prefix_len)
                  if self.reorders else None)
        return Rows(q_start, index, base, self.row_blocks(q_start, t, rep), groups)

    def row_blocks(self, q_start: int, t: int, rep: int) -> list[RowBlock]:
        """How attention runs rows q_start .. q_start + t - 1, in column order,
        against the q_start + t keys up to the last row, when ``rep`` query
        heads share each KV head: blocks of ``row_block`` rows, each with the
        key columns it must score and its hidden scores as slice fills.

        A block keeps a key block whole when rows of another key block see
        it, and up to its last row when only the key block's own rows, which
        see it causally, are in the row block; otherwise no row sees it and
        it is skipped.  Kept key blocks with one query shift form one run.
        A segment of rows (the block's rows in one key block) hides a whole
        kept key block that it does not see, and the keys after each of its
        rows in its own key block (a staircase mask).  Between two key blocks
        visibility is all or nothing (``sees``), and inside one a column's
        order is its storage order, so the fills hide exactly what
        ``build_mask`` hides.  This reads only the column structure, so the
        same rows get the same plan whatever the storage order of the
        documents.  A lone suffix or decoded row sees every key it keeps:
        one block, no fills.
        """
        s = q_start + t
        block, starts = row_block(s, rep), [c0 for c0, _, _ in self.key_blocks]
        blocks = []
        for b in range(0, t, block):
            r0, r1 = q_start + b, q_start + min(b + block, t)
            lo, hi = (bisect_right(starts, c) - 1 for c in (r0, r1 - 1))
            # (key block, first row, end row) of each segment
            segments = [(a, max(r0, starts[a]), starts[a + 1] if a < hi else r1)
                        for a in range(lo, hi + 1)]
            whole = self.sees[lo:hi + 1].any(axis=0).tolist()
            runs, fills, width = [], [], 0
            for kb, (c0, c1, shift) in enumerate(self.key_blocks):
                c1 = s if c1 is None else c1
                if not whole[kb]:
                    if not lo <= kb <= hi:
                        continue
                    c1 = min(c1, r1)
                if c0 >= c1:
                    continue
                cols = slice(width, width + c1 - c0)
                for a, g0, g1 in segments:
                    if a == kb:
                        if c1 - 1 > g0:  # a key after the segment's first row
                            fills.append((slice(g0 - r0, g1 - r0), cols,
                                          np.arange(c0, c1) > np.arange(g0, g1)[:, None]))
                    elif not self.sees[a, kb]:
                        fills.append((slice(g0 - r0, g1 - r0), cols, None))
                runs.append((c0, c1, shift))
                width += c1 - c0
            runs = _join(runs)
            spans = [(c0, c1) for c0, c1, _ in _join([(c0, c1, 0) for c0, c1, _ in runs])]
            blocks.append(RowBlock(slice(b, b + r1 - r0), runs, spans, width, fills))
        return blocks


def _join(runs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Column runs (first, end, shift) with each touching pair of one shift joined."""
    joined: list[tuple[int, int, int]] = []
    for c0, c1, shift in runs:
        if joined and joined[-1][1] == c0 and joined[-1][2] == shift:
            c0 = joined.pop()[0]
        joined.append((c0, c1, shift))
    return joined


def attention_forward(plans: list[AttentionPlan], q_raw: np.ndarray,
                      k_raw: pine.KeySet | None,
                      v: np.ndarray, k_base: np.ndarray, rows: list[Rows],
                      rope_theta: float) -> np.ndarray:
    """One layer of multi-head attention under the mode of ``plans``, the
    plans of S streams that share one ``AttentionPlan.shape``, in one call.

    ``rows``: each stream's ``plan.rows`` of the forward pass, the same rows
    of each; the first stream's row blocks and query groups serve every
    stream, and each keeps its own base positions.  q_raw: [S * t, n_heads,
    d_head] pre-rotation queries of each stream's t rows in column order,
    stacked stream after stream.  The keys and values of every cached token
    up to the last row, in column order, are the panels the KV caches hold,
    each stream's KV heads after the last's: k_base, [S * n_kv_heads,
    d_head, s], the keys rotated at base positions, and v, [S * n_kv_heads,
    s, d_head]; one stream's are its cache's views.  Each is read as it is,
    the keys as the unit-stride operand of every score product.  k_raw,
    the streams' raw document keys as ``pine.group_ordering`` reads them
    (a ``pine.KeySet``: at layer 0 the KV caches', else ``plan.column_set``
    over the caches' raw key panels), is read only when the plans reorder,
    and may be None elsewhere.  Returns the rows as q_raw stacks them.
    Queries or keys that do not match ``rows`` raise ``ValueError``.

    The rows run in the blocks of the shared rows, every stream and KV head
    in one pass; each block scores only the columns its plan keeps for its
    rows (whole key blocks that other rows of the block see, its own block
    up to its last row), with one score product per run of kept columns and
    one value product per contiguous span, each batched over the streams'
    KV heads.  The queries are scaled by ``kernels.softmax_scale`` once,
    before any product, so the scores arrive scaled.  Scores go into one
    workspace per call, of one row block per KV head of each stream; the
    block's fills set its hidden keys to NEG_INF there, ``row_softmax``
    exponentiates them in place, and the [rows, d_head] value products are
    divided by the row sums.  sp (k >= 2) weights the document keys by 1/k
    for rows from ``suffix_start`` on by a float32 -log k on their scores in
    columns ``prefix_len .. suffix_start`` (the document columns of a block
    that keeps every column up to its last row) before the softmax.  Each
    (stream, head) takes the rows and columns a block of that head alone
    would, so its output is bitwise the same: streams share only the plan
    structure that was compared equal, never a score, a sort or an output.
    A lone suffix or decoded row sees every earlier key in every mode, so a
    decode step is one block with no fill.

    No key is rotated again: RoPE scores depend only on relative positions,
    <R(p)q, R(c + o)k> = <R(p - c)q, R(o)k>, so a key block at base offset o
    and assigned start c is scored with the query rotated by p - c.  A
    block's queries are rotated to all their shifts in one ``rotate``; when
    the plan does not reorder, there is one shift, and its heads share one
    phase per row.  Only the re-assigning modes have blocks with c != 0:
    ``pine.group_ordering`` scores every (stream, query group, head) against
    every document in one importance pass and gives each ranked position's
    start in the group's order, which each row of a group of several takes.  With
    ``mode.canonical`` the kept columns depend only on the column order, so
    every block of rows makes the same products, on keys in the same
    columns, whatever the document order: bitwise invariance.
    """
    plan, shared = plans[0], rows[0]
    mode, layout = plan.mode, plan.layout
    n_streams, (n, n_heads, d_head), (m, s) = len(plans), q_raw.shape, v.shape[:2]
    t, n_kv = len(shared.index), m // n_streams  # m: every stream's KV heads
    rep = n_heads // n_kv
    if (n != n_streams * t or s != shared.start + t or k_base.shape[2] != s
            or len(rows) != n_streams):
        raise ValueError(f"{n} queries and {s} keys of {n_streams} streams do not match the "
                         f"{len(rows)} x {t} rows from {shared.start}")
    late, bias = t, None  # sp (k >= 2): its rows from ``late`` on weight documents by 1/k
    if mode.rescales and layout.k > 1:
        late, bias = max(layout.suffix_start - shared.start, 0), -np.float32(np.log(layout.k))
    # The position p - c each query is rotated to per key block shift c: [1, S * t]
    # when the plan does not reorder, else [shifts, S * t, n_heads]: shift 0, then
    # each document's start in ``plan.docs`` order.  The rows before
    # ``groups.first`` (the prefix's) keep their input positions.
    base = shared.base if n_streams == 1 else np.concatenate([r.base for r in rows])
    pos, groups = base[None], shared.groups
    if plan.reorders:
        first = groups.first
        q_groups = q_raw.reshape(n_streams, t, n_heads, d_head)[:, first:]
        starts = pine.group_ordering(q_groups.reshape(-1, n_heads, d_head), k_raw, plans,
                                     groups).starts  # one row per group
        if len(groups.bounds) < t - first:  # a group of several rows: each row takes its starts
            starts = starts.repeat(np.tile(np.diff([*groups.bounds, t - first]), n_streams), 0)
        starts = starts.reshape(n_streams, t - first, n_heads, layout.k)
        each = np.empty((n_streams, t, n_heads, 1 + layout.k), dtype=np.int64)  # per stream
        each[...] = pos.reshape(n_streams, t, 1, 1)
        for g0, g1, j in groups.owned:  # a document's rows sit at its start in their group's order
            each[:, first + g0:first + g1] += starts[:, g0, None, :, j, None]
        each[:, first:, :, 1:] -= starts.take(plan.shift_ranks, axis=3)
        pos = each.reshape(n, n_heads, -1).transpose(2, 0, 1)
    q = q_raw * softmax_scale(d_head)
    out = np.empty_like(q)
    work = np.empty(m * min(row_block(s, rep), t) * rep * s, dtype=q_raw.dtype)  # any block's
    for rb, runs, spans, width, fills in shared.blocks:
        # The block's rows of every stream: a slice when there is one stream, or
        # when the block holds every row.
        sel = rb if n_streams == 1 else slice(0, n) if rb.stop - rb.start == t else (
            np.arange(0, n, t)[:, None] + np.arange(t)[rb]).ravel()
        # The block's queries rotated to each shift in one call: [shifts, S * rows, n_heads, d].
        q_rot = rotate(q[None, sel], pos[:, sel], rope_theta)
        # Each stream's KV heads' query heads, one [S * n_kv, rows * rep, d] operand
        # per shift (a view for one row of one stream).
        q_rot = list(q_rot.reshape(len(q_rot), n_streams, -1, n_kv, rep, d_head).swapaxes(2, 3)
                     .reshape(len(q_rot), m, -1, d_head))
        scores = work[:q_rot[0].size // d_head * width].reshape(m, -1, width)
        at = 0
        for c0, c1, i in runs:
            np.matmul(q_rot[i], k_base[:, :, c0:c1], out=scores[:, :, at:at + c1 - c0])
            at += c1 - c0
        scores = scores.reshape(m, -1, rep, width)
        for fill_rows, cols, after in fills:
            if after is None:
                scores[:, fill_rows, :, cols] = NEG_INF
            else:
                np.copyto(scores[:, fill_rows, :, cols], NEG_INF, where=after[:, None, :])
        if rb.stop > late:  # a block with sp's late rows keeps columns 0 .. its last row
            scores[:, max(late - rb.start, 0):, :, layout.prefix_len:layout.suffix_start] += bias
        e, sums = row_softmax(scores.reshape(-1, width))
        e, at = e.reshape(m, -1, width), 0
        for c0, c1 in spans:  # the [rows, d_head] value products, one per span
            part = e[:, :, at:at + c1 - c0] @ v[:, c0:c1]
            acc = part if at == 0 else acc + part
            at += c1 - c0
        acc /= sums.reshape(m, -1, 1)
        out[sel] = acc.reshape(n_streams, n_kv, -1, rep, d_head).transpose(0, 2, 1, 3, 4).reshape(
            -1, n_heads, d_head)
    return check_finite(out, "attention")

"""Importance scoring and key-position re-assignment.

The order-invariant attention mode scores candidate documents with
position-free attention mass, sorts them, and lays their key positions
out contiguously so that more important documents sit closer to the
query.  Everything here is computed per layer and per head from
pre-rotation queries and keys, which is what makes the resulting
ordering independent of the input document order.  ``group_ordering``
is the one scorer, which ``modes.attention_forward`` calls per layer:
it scores the documents for every query group of the layer's rows at
once, for one stream or for several whose plans share one shape, with
batched matrix products per row block (a block inside one document's
group skips that document's columns), then sorts and lays out each
(stream, group, head)'s documents in one loop.  It reads the raw keys
as the KV caches hold them, [n_kv_heads, d_head, columns] panels, the
groups that ``query_groups`` forms once per forward pass (a decode
step's lone row, a group of its own, runs the same path as a prefill's
rows), and the ``AttentionPlan``'s sort, candidates and ranked document
lengths, so a decode step pays per layer one score product, the
softmax's document masses and one counted sort per head.  Groups,
candidates, scores, starts and lengths are held in ranked positions
(indices into ``canonical_order``), which the orders of one document
set share under canonical reduction; input document ids appear only
when an ``Ordering`` is read.  ``ranked_sort`` is the one counted
comparator sort: it sorts ranked positions, whose order is the tie rule.

``laid_out`` is the one rule that lays documents out: a document key
sits at its document's start plus its offset inside the document.
``group_ordering`` applies it to each order as it is sorted, and
``modes.assign_positions`` to one order, both in ranked positions.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import TYPE_CHECKING, Callable, Iterable, Literal, NamedTuple, Sequence, get_args

import numpy as np

from .kernels import NEG_INF, row_block, row_softmax, softmax_scale
from .prompts import SequenceLayout

if TYPE_CHECKING:
    from .modes import AttentionPlan

Aggregation = Literal["mean", "sum", "max"]
Direction = Literal["closer", "reversed"]
_DIRECTIONS = get_args(Direction)

# Comparator invocation counter, used to exhibit the k log k sorting cost.
_comparisons = 0


def comparison_count() -> int:
    return _comparisons


def canonical_order(layout: SequenceLayout) -> list[int]:
    """Documents by content hash, then input index (which only matters for
    identical contents): an order independent of the input permutation,
    so reductions taken in it are bitwise independent of it too."""
    return sorted(range(layout.k), key=lambda j: (layout.doc_hashes[j], j))


def ranked_sort(direction: Direction) -> Callable[[Sequence[float], list[int]], list[int]]:
    """The counted comparator sort: ``sort(row, candidates)`` sorts ranked
    positions (indices into ``canonical_order``) by their scores in
    ``row``, ascending for "closer" (the most important document ends up
    adjacent to the query block) and descending for "reversed"; any other
    direction raises ``ValueError``.  Ties break by position: content hash,
    then input index.  Each comparison adds one to the counter."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown sort direction {direction!r}: expected one of {_DIRECTIONS}")
    sign = 1 if direction == "closer" else -1
    row: Sequence[float] = ()

    def cmp(a: int, b: int) -> int:
        global _comparisons
        _comparisons += 1
        sa, sb = row[a], row[b]
        if sa != sb:
            return sign if sa > sb else -sign
        return (a > b) - (a < b)

    key = cmp_to_key(cmp)

    def sort(scores: Sequence[float], candidates: list[int]) -> list[int]:
        nonlocal row
        row = scores
        return sorted(candidates, key=key)

    return sort


class QueryGroups(NamedTuple):
    """The query groups of a forward pass's rows, which ``query_groups``
    forms once for every layer: consecutive rows of one document form one
    group, and every other row is its own.  Rows are counted from
    ``first``: the rows before it (a prefill's prefix) have no group.  A
    group's document is its ranked position (an index into
    ``canonical_order``), so every order of one document set under
    canonical reduction has the same groups."""

    first: int
    bounds: list[int]  # each group's first row
    docs: list[int]  # each group's own document's ranked position (-1: none)
    owned: list[tuple[int, int, int]]  # (first row, end row, ranked position) of each owned group


def query_groups(own: np.ndarray, first: int) -> QueryGroups:
    """The groups of rows ``first`` on, given each row's own document's
    ranked position (-1: none)."""
    mine = own[first:].tolist()
    bounds = [i for i, j in enumerate(mine) if j < 0 or i == 0 or j != mine[i - 1]]
    docs = [mine[i] for i in bounds]
    owned = [(g0, g1, j) for g0, g1, j in zip(bounds, [*bounds[1:], len(mine)], docs) if j >= 0]
    return QueryGroups(first, bounds, docs, owned)


class Ordering(NamedTuple):
    """What ``group_ordering`` gives the G query groups of each of its S
    streams at H heads, the streams' groups one after another."""

    starts: np.ndarray  # [S * G, H, k] int64: each ranked position's ``laid_out`` start
    ranked_scores: np.ndarray  # [S * G, H, k] float64 by ranked position; own document 0
    plans: list[AttentionPlan]  # each stream's, whose ``ranked`` and ``rank`` give its documents

    @property
    def orders(self) -> list[list[list[int]]]:
        """[stream's group][head]: the documents in key-block order.  Every
        document has a token, so the starts rise strictly along an order
        (the own document, laid out last, sorts last): their argsort is it."""
        per_stream = np.split(self.starts.argsort(axis=2), len(self.plans))
        return np.concatenate([np.take(p.ranked, order)
                               for order, p in zip(per_stream, self.plans)]).tolist()

    @property
    def scores(self) -> np.ndarray:
        """[S * G, H, k] the scores by document."""
        per_stream = np.split(self.ranked_scores, len(self.plans))
        return np.concatenate([s.take(p.rank, axis=2) for s, p in zip(per_stream, self.plans)])


def laid_out(order: Iterable[int], lens: Sequence[int], at: int, starts: list[int],
             base: int = 0) -> list[int]:
    """Lay the documents out contiguously from position ``at`` in ``order``,
    each at ``at`` plus the lengths ``lens`` of those before it: document
    j's start goes to ``starts[base + j]``.  Returns ``starts``."""
    for j in order:
        starts[base + j] = at
        at += lens[j]
    return starts


def group_ordering(q: np.ndarray, k_raw: np.ndarray, plans: list[AttentionPlan],
                   groups: QueryGroups) -> Ordering:
    """Scores and starts, which give the document order, of every query
    group at every head, k >= 2, for S streams whose plans share one
    ``shape``: their groups, documents' lengths and candidates are the same
    in ranked positions, and the first plan's serve them all.

    q: [S * r, n_heads, d] pre-rotation query rows, the rows of ``groups``
    of each stream, stacked; k_raw: [S * n_kv_heads, d, c], each stream's
    raw keys of at least the columns before the suffix as its KV cache
    holds them, unit-stride panels with the documents in ranked order
    (``plan.ranked_cols`` of the columns; the column order itself when
    canonical), each stream's KV heads after the last's.  A group's own
    document is never a candidate and comes last in its order; aggregation
    and sort direction are the mode's.  The queries, scaled by
    ``kernels.softmax_scale``, are scored against the document keys (one
    slice of ``k_raw``) per ``row_block`` of rows (for n keys), into one
    workspace, every stream's KV heads in one product.  A block whose rows
    all lie in one document's group scores only the other documents'
    columns, one product on each side of that document's span, and gives
    it 0; any other block (one that straddles two groups, or holds suffix
    or decoded rows) makes one product over every document column and
    hides each group's own document by one slice fill of -inf.
    ``_document_mass`` gives each document's share of the row's softmax.
    Where a group has several rows, another ``reduceat`` takes each group's
    rows.  Per (stream, group, head) ``plan.sort``, the plan's
    ``ranked_sort``, sorts the group's ``plan.candidates`` by the float64
    score row, and ``laid_out`` lays the order, with the own document
    appended, out at once: one row of starts per group, which attention
    hands each of the group's rows; the order itself is not kept.  The
    ``Ordering`` reads orders off the starts and turns them and the scores
    into documents, through each stream's own plan, only when they are read.
    """
    plan = plans[0]
    layout, mode, k = plan.layout, plan.mode, plan.layout.k
    if k < 2:
        raise ValueError(f"group_ordering needs k >= 2 documents, got {k}")
    reduce = np.maximum if mode.aggregation == "max" else np.add
    n_streams, (rows, n_heads, d), m = len(plans), q.shape, k_raw.shape[0]
    r, n_kv = rows // n_streams, m // n_streams  # m: every stream's KV heads
    rep = n_heads // n_kv
    keys = k_raw[:, :, layout.prefix_len:layout.suffix_start]  # [m, d, cols]
    n_cols = keys.shape[2]  # every document column
    # as _document_mass gives them; zero where a block inside one group skips its document
    totals = np.zeros((m, r, rep, k), dtype=q.dtype)
    # each stream's KV heads' query heads, scaled by the softmax's 1/sqrt(d)
    q_kv = (q * softmax_scale(d)).reshape(n_streams, r, n_kv, rep, d).swapaxes(1, 2).reshape(
        m, r, rep, d)
    block = row_block(layout.n, rep)
    work = np.empty(m * min(block, r) * rep * n_cols, dtype=q.dtype)  # every block's logits
    for b in range(0, r, block):
        rb = slice(b, b + block)
        q_b = q_kv[:, rb].reshape(m, -1, d)
        mine, hidden = None, []
        for g0, g1, j in groups.owned:  # each group's own document
            if g0 < b + block and g1 > b:
                if g0 <= b and (g1 >= b + block or g1 == r):
                    mine = j  # every row of the block is in this group
                c0 = plan.ranked_starts[j]  # the document's span
                hidden.append((max(g0 - b, 0), g1 - b, c0, c0 + plan.ranked_lens[j]))
        if mine is None:
            logits = np.matmul(q_b, keys, out=work[:q_b.size // d * n_cols].reshape(
                m, -1, n_cols)).reshape(m, -1, rep, n_cols)
            for g0, g1, c0, c1 in hidden:
                logits[:, g0:g1, :, c0:c1] = NEG_INF
            totals[:, rb] = _document_mass(logits, reduce, plan.ranked_starts)
        else:  # score only the other documents' columns
            c0 = plan.ranked_starts[mine]
            c1 = c0 + plan.ranked_lens[mine]
            width = n_cols - (c1 - c0)
            logits = work[:q_b.size // d * width].reshape(m, -1, width)
            np.matmul(q_b, keys[:, :, :c0], out=logits[:, :, :c0])
            np.matmul(q_b, keys[:, :, c1:], out=logits[:, :, c0:])
            part = _document_mass(logits.reshape(m, -1, rep, width), reduce, np.concatenate(
                [plan.ranked_starts[:mine], plan.ranked_starts[mine + 1:] - (c1 - c0)]))
            totals[:, rb, :, :mine] = part[..., :mine]
            totals[:, rb, :, mine + 1:] = part[..., mine:]
    if len(groups.bounds) < r:  # some group has several rows: reduce them
        totals = reduce.reduceat(totals, groups.bounds, axis=1)
    # [streams * groups, n_heads, k] in float64, so the mean rounds as Python floats' division would
    group_totals = totals.reshape(n_streams, n_kv, -1, rep, k).transpose(0, 2, 1, 3, 4).reshape(
        -1, n_heads, k)
    group_totals = (np.divide(group_totals, plan.ranked_lens, dtype=np.float64)
                    if mode.aggregation == "mean" else group_totals.astype(np.float64))
    sort, lens, at = plan.sort, plan.ranked_lens.tolist(), layout.prefix_len
    starts, base = [0] * group_totals.size, 0
    for j, rows in zip(groups.docs * n_streams, group_totals.tolist()):
        candidates, own = plan.candidates[j], [j] if j >= 0 else []  # ranked positions
        for row in rows:
            laid_out(sort(row, candidates) + own, lens, at, starts, base)
            base += k
    return Ordering(np.array(starts, dtype=np.int64).reshape(group_totals.shape), group_totals,
                    plans)


def _document_mass(logits: np.ndarray, reduce: np.ufunc, starts: np.ndarray) -> np.ndarray:
    """Each document's share of the softmax of every row of ``logits``
    ([..., columns], documents in ranked order from ``starts``): [...,
    len(starts)].  ``row_softmax`` exponentiates the rows in place; one
    ``reduceat`` sums (max: takes the maximum of) each document's
    exponentials.  A sum's parts add up to the row's sum, so they are
    divided by their own total; the maxima are divided by the row's sum."""
    e, sums = row_softmax(logits.reshape(-1, logits.shape[-1]), sums=reduce is np.maximum)
    part = reduce.reduceat(e, starts, axis=1)
    part /= np.add.reduce(part, axis=1, keepdims=True) if sums is None else sums
    return part.reshape(*logits.shape[:-1], -1)


def doc_id_array(layout: SequenceLayout, total_len: int) -> np.ndarray:
    """Document number per storage index; -1 for prefix/suffix tokens."""
    ids = np.full(total_len, -1, dtype=np.int64)
    for j, (s, e) in enumerate(layout.doc_spans):
        ids[s:e] = j
    return ids

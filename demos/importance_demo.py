"""Peek inside the importance scoring and position re-assignment.

For each query group the pine mode scores every other document by the
position-free attention mass it receives, then lays documents out so that
the most important one sits closest to the query. This script runs the
runtime's scorer, ``pine.group_ordering``, on one head of random
projections for the suffix token and prints what it decided: the document
scores, the chosen ordering, and the resulting key positions.
"""

import numpy as np

from posinv import (
    AttentionMode,
    AttentionPlan,
    SegmentedPrompt,
    assign_positions,
    tokenize,
)
from posinv.pine import group_ordering, query_groups


def main():
    prompt = SegmentedPrompt("S", ("AB", "CD", "EFG"), "Q")
    _, layout = tokenize(prompt)
    print(f"layout: prefix {layout.prefix_len}, docs {layout.doc_spans}, "
          f"suffix from {layout.suffix_start}\n")

    rng = np.random.default_rng(0)
    d = 8
    q = rng.normal(size=(layout.n, 1, d)).astype(np.float32)  # [tokens, heads, d]
    k = rng.normal(size=(layout.n, 1, d)).astype(np.float32)

    # score the suffix token's view of the three documents; the plan holds
    # the keys in its column order, as the KV cache does: one
    # [KV heads, d, columns] panel
    mode = AttentionMode("pine")
    plan = AttentionPlan(mode, layout)
    row = layout.suffix_start
    keys = np.ascontiguousarray(k[plan.order].transpose(1, 2, 0))
    got = group_ordering(q[row : row + 1], keys, [plan], query_groups(np.full(1, -1), 0))
    [[ordered]], [[scores]] = got.orders, got.scores
    print("length-normalized document scores:")
    for j, s in enumerate(scores):
        print(f"  doc {j} (len {layout.doc_len(j)}): {s:.4f}")

    print(f"\nkey order, least important first: {ordered}")

    pos = assign_positions(mode, layout, row, ordered)
    print("assigned key positions per storage index:")
    print([int(p) for p in pos])
    print("\nthe highest-scoring document ends up adjacent to the query;")
    print("prefix and suffix keep their original positions.")


if __name__ == "__main__":
    main()

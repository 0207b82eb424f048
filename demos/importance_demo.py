"""Peek inside the importance scoring and position re-assignment.

For each query group the pine mode scores every other document by the
position-free attention mass it receives, then lays documents out so that
the most important one sits closest to the query. This script runs the
machinery on one head of random projections and prints the intermediate
artifacts: token-level scores, document scores, the chosen ordering, and
the resulting key positions.
"""

import numpy as np

from posinv import (
    AttentionMode,
    SegmentedPrompt,
    assign_positions,
    doc_importance,
    order_documents,
    token_importance,
    tokenize,
)


def main():
    prompt = SegmentedPrompt("S", ("AB", "CD", "EFG"), "Q")
    _, layout = tokenize(prompt)
    print(f"layout: prefix {layout.prefix_len}, docs {layout.doc_spans}, "
          f"suffix from {layout.suffix_start}\n")

    rng = np.random.default_rng(0)
    d = 8
    q = rng.normal(size=(layout.n, d)).astype(np.float32)
    k = rng.normal(size=(layout.n, d)).astype(np.float32)

    # score the suffix token's view of the three documents
    row = layout.suffix_start
    doc_keys = k[layout.doc_spans[0][0] : layout.doc_spans[-1][1]]
    probs = token_importance(q[row : row + 1], doc_keys, d)
    print("token-level importance (one row per query token):")
    print(np.round(probs, 4))

    blocks = [(s - layout.prefix_len, e - layout.prefix_len) for s, e in layout.doc_spans]
    scores = doc_importance(probs, blocks, "mean")
    print("\nlength-normalized document scores:")
    for j, s in enumerate(scores):
        print(f"  doc {j} (len {layout.doc_len(j)}): {s:.4f}")

    ordered = order_documents(
        dict(enumerate(scores)), layout.doc_hashes, "closer"
    )
    print(f"\nkey order, least important first: {ordered}")

    pos = assign_positions(AttentionMode("pine"), layout, row, ordered).key_positions
    print("assigned key positions per storage index:")
    print([int(p) for p in pos])
    print("\nthe highest-scoring document ends up adjacent to the query;")
    print("prefix and suffix keep their original positions.")


if __name__ == "__main__":
    main()

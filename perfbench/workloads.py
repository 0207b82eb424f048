"""Seeded request generation for the three benchmark workloads.

Every workload is a sequence of rounds.  A round is one freshly drawn
document set served in a few seeded orders under ``vanilla`` and ``pine``
(so every workload yields prefill and decode samples for both modes),
followed, in ``invariance_sweep`` only, by ``oracle.run_suite`` over all
k! orders of the same set under each of ``suite_modes``.  Round i's
inputs depend only on the seed and i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORDS = (
    "the a of to and in is was for on that with as by at from this it are be "
    "city river report study year team paper model data court market museum "
    "bridge festival council record station harbor library orchard engine "
    "north south early late first second small large public local annual "
    "built opened found measured moved named held grew closed reported"
).split()


@dataclass(frozen=True)
class Workload:
    k: int
    doc_bytes: int
    prefix_bytes: int
    suffix_bytes: int
    new_tokens: int
    orders: int = 2  # seeded orders each document set is served in
    suite_modes: tuple[str, ...] = ()


WORKLOADS = {
    # Retrieval prompt at the reference size (n = 983): prefill-bound.
    "rag_prefill": Workload(k=8, doc_bytes=110, prefix_bytes=60, suffix_bytes=40, new_tokens=4),
    # Short prompt (n = 163), 192 greedy tokens, no EOS stop: decode-bound.
    "long_decode": Workload(k=4, doc_bytes=30, prefix_bytes=20, suffix_bytes=20, new_tokens=192),
    # The paper's harness (n = 55): many small prefills over all 4! orders.
    # Twelve served orders give the short prefills enough samples for a median.
    "invariance_sweep": Workload(
        k=4, doc_bytes=8, prefix_bytes=10, suffix_bytes=10, new_tokens=4,
        orders=12, suite_modes=("pine", "sp"),
    ),
}

REQUEST_MODES = ("vanilla", "pine")


def text(rng: random.Random, n_bytes: int) -> str:
    """Space-separated words, cut to exactly ``n_bytes`` ASCII bytes."""
    words: list[str] = []
    size = 0
    while size <= n_bytes:
        w = rng.choice(WORDS)
        words.append(w)
        size += len(w) + 1
    out = " ".join(words)[:n_bytes]
    return out[:-1] + "s" if out.endswith(" ") else out


def doc_lengths(rng: random.Random, k: int, mean: int) -> list[int]:
    """k unequal lengths within ~10% of ``mean`` that sum to k * mean, so
    the prompt length (and with it the cost of a request) is the same for
    every seed."""
    lengths = [rng.randint(max(1, mean - mean // 10), mean + mean // 10) for _ in range(k)]
    i = 0
    while sum(lengths) != k * mean:
        lengths[i % k] += 1 if sum(lengths) < k * mean else -1
        i += 1
    return lengths


def make_round(wl: Workload, seed: int, index: int):
    """(prefix, documents, suffix, ``wl.orders`` distinct document orders)."""
    rng = random.Random(f"{seed}:{index}")
    docs: list[str] = []
    for length in doc_lengths(rng, wl.k, wl.doc_bytes):
        d = text(rng, length)
        while d in docs:
            d = text(rng, length)
        docs.append(d)
    prefix = text(rng, wl.prefix_bytes) + "\n"
    suffix = "\n" + text(rng, wl.suffix_bytes) + "?"
    orders: list[tuple[int, ...]] = []
    while len(orders) < wl.orders:
        order = tuple(rng.sample(range(wl.k), wl.k))
        if order not in orders:
            orders.append(order)
    return prefix, tuple(docs), suffix, tuple(orders)


def small_prompt(seed: int, k: int, doc_bytes: int):
    """A short fixed-shape prompt (oracle check, warm-up)."""
    rng = random.Random(f"{seed}:small:{doc_bytes}")
    docs: list[str] = []
    while len(docs) < k:
        d = text(rng, doc_bytes)
        if d not in docs:
            docs.append(d)
    return text(rng, 8) + "\n", tuple(docs), "\n" + text(rng, 9) + "?"

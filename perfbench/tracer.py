"""In-memory span tracer that wraps posinv's public functions in place.

Callers inside posinv import functions by name (``from .modes import
attention_forward``), so a wrapper only takes effect when it replaces the
name the *caller* looks up.  ``HOOKS`` lists, for each traced function,
every module attribute through which it is reached on the measured path.
``install`` swaps them all and ``uninstall`` restores the originals.

A span is (name, start, end, span id, parent span id, request id).  Spans stay in
memory and are written out once, after the run.  Self time is a span's
duration minus the time covered by its direct children; it is
accumulated as spans close, so the per-name table needs no second pass.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _rows(x) -> int:
    return 1 if x.ndim < 2 else x.shape[0]


# span name -> every (module, attribute) through which its callers reach it
HOOKS = [
    ("prompts.tokenize", [("api", "tokenize"), ("oracle", "tokenize")]),
    ("prompts.permute_documents", [("api", "permute_documents"), ("oracle", "permute_documents")]),
    ("model.prefill", [("api", "prefill"), ("oracle", "prefill"), ("model", "prefill")]),
    ("model.decode_step", [("api", "decode_step"), ("model", "decode_step")]),
    ("model.generate", [("oracle", "generate")]),
    ("oracle.run_suite", [("api", "run_suite")]),
    ("modes.attention_forward", [("model", "attention_forward")]),
    ("modes.build_mask", [("modes", "build_mask")]),
    ("rope.rotate", [("modes", "rotate")]),
    ("pine.group_ordering", [("pine", "group_ordering")]),
    ("kernels.matmul", [("model", "matmul")]),
    ("kernels.row_softmax", [("modes", "row_softmax"), ("pine", "row_softmax")]),
    ("kernels.rms_norm", [("model", "rms_norm")]),
    ("kernels.swiglu", [("model", "swiglu")]),
]

MATMUL_CLASSES = ("proj", "ffn", "lm_head")


class Tracer:
    """Records spans for the functions in ``HOOKS`` while installed.

    ``modules`` maps the module names used in ``HOOKS`` to the module
    objects (or namespaces) whose attributes are replaced.  ``vocab`` and
    ``d_ff`` classify matmul operands: the LM head is the only product
    with ``vocab`` output columns, the FFN the only one touching ``d_ff``.
    """

    def __init__(self, modules: dict, vocab: int, d_ff: int):
        self.modules = modules
        self.vocab = vocab
        self.d_ff = d_ff
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stats: list[list] = []  # per name id: [calls, time_s, self_s]
        self.spans: list[tuple] = []  # (name id, start, end, span id, parent id, request)
        self.counts = {"attn_rows": 0, "rotate_rows": 0, "mask_bytes": 0, "matmul_flop": 0}
        self.request = -1
        self._stack: list[list] = []  # open spans: [span id, child time]
        self._next_id = itertools.count()
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return self._ids[name]

    def _open(self):
        frame = [next(self._next_id), 0.0]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, nid: int, frame, parent, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        stat = self.stats[nid]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[1]
        self.spans.append((nid, t0, t1, frame[0], parent[0] if parent else -1, self.request))

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark's own files."""
        nid = self._name_id(name)
        frame, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(nid, frame, parent, t0, time.perf_counter())

    def _matmul_span(self, args) -> int:
        """Count the product's flops (2mnk) and pick its class's span name."""
        a, b = args[0], args[1]
        self.counts["matmul_flop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        if b.shape[1] == self.vocab:
            cls = "lm_head"
        elif self.d_ff in b.shape:
            cls = "ffn"
        else:
            cls = "proj"
        return self._name_id(f"kernels.matmul.{cls}")

    def _counter(self, name: str):
        """Work counted at a boundary, from the call's arguments or result."""
        counts = self.counts
        if name == "modes.attention_forward":
            def count(args, result):
                counts["attn_rows"] += args[1].shape[0] * args[1].shape[1]  # q_raw rows x heads
        elif name == "rope.rotate":
            def count(args, result):
                counts["rotate_rows"] += _rows(args[0])
        elif name == "modes.build_mask":
            def count(args, result):
                counts["mask_bytes"] += result.nbytes
        else:
            count = None
        return count

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        classify = self._matmul_span if name == "kernels.matmul" else None
        nid = None if classify else self._name_id(name)
        count = self._counter(name)

        def wrapper(*args, **kwargs):
            span_nid = classify(args) if classify else nid
            frame, parent = self._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_nid, frame, parent, t0, clock())
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in HOOKS:
            fn = getattr(self.modules[sites[0][0]], sites[0][1])
            wrapper = self._wrap(name, fn)
            for mod, attr in sites:
                target = self.modules[mod]
                original = getattr(target, attr)
                if original is not fn:
                    raise RuntimeError(f"{mod}.{attr} is not the function traced as {name}")
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, time_s, self_s), matmul classes summed as well."""
        out = {n: tuple(self.stats[i]) for i, n in enumerate(self.names)}
        parts = [out.get(f"kernels.matmul.{c}", (0, 0.0, 0.0)) for c in MATMUL_CLASSES]
        out["kernels.matmul"] = tuple(sum(p[i] for p in parts) for i in range(3))
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        by_id = {s[3]: s for s in self.spans}
        total = 0
        for s in self.spans:
            if s[0] != nid:
                continue
            parent = s[4]
            while parent >= 0:
                p = by_id[parent]
                if p[0] == aid:
                    total += 1
                    break
                parent = p[4]
        return total

    def write(self, path: Path) -> None:
        """Save every span as columns of an .npz file (times relative to
        the first span start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        t_base = min(cols[1]) if self.spans else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64) - t_base,
            end=np.array(cols[2], dtype=np.float64) - t_base,
            span=np.array(cols[3], dtype=np.int64),
            parent=np.array(cols[4], dtype=np.int64),
            request=np.array(cols[5], dtype=np.int32),
        )

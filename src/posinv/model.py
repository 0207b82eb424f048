"""Decoder-only transformer runtime.

RMS-norm, rotary embeddings, grouped-query attention, gated FFN, greedy
decoding.  Prefill builds a stream's attention plan (``modes.AttentionPlan``)
once and binds it to the stream's KV cache, which stores keys and values
in the plan's column order (prefix, documents by content hash, suffix,
decoded tokens), one buffer per layer with each KV head's keys as a
[d_head, columns] panel and its values as [columns, d_head] rows.  The
cache hands attention these panels as views, and attention reads them as
they are, the keys as a unit-stride operand of every score product.
Keys are rotated once, when written, at a base position that never
changes; the re-assigning modes move a document's per-group start onto
the queries instead, and alone keep the raw keys of the prompt's
documents for their position-free importance.

Prefill and decoding share one forward pass: a decode step is the
prefill of one more row after the cached ones.  That row writes a column
in place, after an unchanged plan's columns, and sees every cached key,
so its one row block has no fill.  A forward pass plans its rows once,
as one ``modes.Rows`` (``plan.rows``: their columns, row blocks and
pine's query groups; a lone row's, the plan's kept one), and attention
replays it, for one row or many alike.  It embeds its tokens in column
order, so every layer runs in that order: only the embedding and the
pick of the last token's row read a storage index.  Only that row's
logits are read, so when it is the last of several rows (a prompt with a
suffix), the last layer writes every row's keys and values but runs that
row alone past them, planned as a decode step at its column is.  Every
other pass, such as a prompt with an empty suffix, whose last token sits
inside a document, runs every row through every layer.

One pass serves one stream or several, each with its own cache, plan and
tokens: the embedding, norms, projections, FFN, residual adds and LM head
run once over the stacked rows of every stream.  Neighbouring streams
whose rows read the same plan form a group, compared once per pass: its
key rotation and attention (pine's importance pass with it) run as one
call per layer over the group's stacked rows, sharing only that compared
structure, and each stream writes its own cache.  ``prefill``,
``decode_step`` and ``generate`` pass one stream, whose rows are used as
they are; ``oracle.run_suite`` passes a batch of document orders.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import modes, pine
from .kernels import ShapeError, matmul, rms_norm, swiglu
from .modes import AttentionMode, AttentionPlan, Rows, attention_forward
from .prompts import BYTE_VOCAB, N_SPECIALS, SequenceLayout

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class WeightError(ValueError):
    """Weight container or config contents violate the schema."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_model: int
    d_head: int
    d_ff: int
    vocab_size: int
    rope_theta: float = 10000.0
    norm_eps: float = 1e-5
    max_seq_len: int = 2048
    tie_embeddings: bool = False

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "n_kv_heads", "d_model", "d_head", "d_ff",
                     "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise WeightError(f"{name} {getattr(self, name)} must be at least 1")
        for name in ("rope_theta", "norm_eps"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise WeightError(f"{name} {getattr(self, name)} must be positive")
        if self.d_model != self.n_heads * self.d_head:
            raise WeightError(
                f"d_model {self.d_model} != n_heads {self.n_heads} * d_head {self.d_head}"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise WeightError(f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}")
        if self.d_head % 2 != 0:
            raise WeightError(f"d_head {self.d_head} must be even for rotary encoding")
        if self.vocab_size < BYTE_VOCAB + N_SPECIALS:
            raise WeightError(f"vocab_size {self.vocab_size} < {BYTE_VOCAB + N_SPECIALS}: "
                              "every byte id and BOS/EOS need an embedding")


def _tensor_schema(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, dh, dff = config.d_model, config.d_head, config.d_ff
    schema: dict[str, tuple[int, ...]] = {"embed.weight": (config.vocab_size, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}."
        schema[p + "attn_norm.weight"] = (d,)
        schema[p + "q_proj.weight"] = (d, config.n_heads * dh)
        schema[p + "k_proj.weight"] = (d, config.n_kv_heads * dh)
        schema[p + "v_proj.weight"] = (d, config.n_kv_heads * dh)
        schema[p + "o_proj.weight"] = (config.n_heads * dh, d)
        schema[p + "ffn_norm.weight"] = (d,)
        schema[p + "gate_proj.weight"] = (d, dff)
        schema[p + "up_proj.weight"] = (d, dff)
        schema[p + "down_proj.weight"] = (dff, d)
    schema["final_norm.weight"] = (d,)
    if not config.tie_embeddings:
        schema["lm_head.weight"] = (d, config.vocab_size)
    return schema


@dataclass
class Weights:
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def validate(self, config: ModelConfig) -> "Weights":
        schema = _tensor_schema(config)
        for name, shape in schema.items():
            if name not in self.tensors:
                raise WeightError(f"missing tensor {name!r}")
            got = self.tensors[name]
            if got.shape != shape:
                raise WeightError(f"tensor {name!r} has shape {got.shape}, expected {shape}")
            if got.dtype != np.float32:  # the runtime computes in float32 only
                raise WeightError(f"tensor {name!r} has dtype {got.dtype}, expected float32")
            if not np.isfinite(got).all():
                raise WeightError(f"tensor {name!r} contains non-finite values")
        return self


@dataclass
class Model:
    config: ModelConfig
    weights: Weights

    def head_matrix(self) -> np.ndarray:
        if self.config.tie_embeddings:
            return self.weights["embed.weight"].T
        return self.weights["lm_head.weight"]


# ---------------------------------------------------------------------------
# Weight container: 8-byte little-endian header length, UTF-8 JSON header
# mapping tensor names to {dtype ("F32" only), shape, data_offsets}, then a
# contiguous little-endian payload.


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    header: dict[str, dict] = {}
    offset = 0
    payload = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype != np.float32:
            raise WeightError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        raw = arr.astype("<f4").tobytes()
        header[name] = {
            "dtype": "F32",
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + len(raw)],
        }
        payload.append(raw)
        offset += len(raw)
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for raw in payload:
            f.write(raw)


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise WeightError(f"{path}: truncated container")
    (header_len,) = struct.unpack("<Q", data[:8])
    if header_len > len(data) - 8:
        raise WeightError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WeightError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise WeightError(f"{path}: header is not a JSON object")
    payload = data[8 + header_len :]
    return {name: _read_tensor(name, meta, payload) for name, meta in header.items()}


def _read_tensor(name: str, meta, payload: bytes) -> np.ndarray:
    """Decode one header entry, checking every field against the payload."""
    if not isinstance(meta, dict) or not {"dtype", "shape", "data_offsets"} <= meta.keys():
        raise WeightError(f"tensor {name!r}: entry needs dtype, shape and data_offsets")
    dtype, shape, offsets = meta["dtype"], meta["shape"], meta["data_offsets"]
    if dtype != "F32":
        raise WeightError(f"tensor {name!r}: unsupported dtype {dtype!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise WeightError(f"tensor {name!r}: bad shape {shape!r}")
    if not (isinstance(offsets, list) and len(offsets) == 2
            and all(type(o) is int for o in offsets)
            and 0 <= offsets[0] <= offsets[1] <= len(payload)):
        raise WeightError(f"tensor {name!r}: data_offsets {offsets!r} outside the "
                          f"{len(payload)}-byte payload")
    s, e = offsets
    if e - s != math.prod(shape) * 4:
        raise WeightError(f"tensor {name!r}: payload size {e - s} B != shape {shape}")
    arr = np.frombuffer(payload[s:e], dtype="<f4").astype(np.float32)
    try:  # numpy holds at most 64 dimensions, each within its index range
        return arr.reshape(shape)
    except ValueError as exc:
        raise WeightError(f"tensor {name!r}: numpy cannot hold shape {shape}: {exc}") from exc


def save_config(path, config: ModelConfig) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, value in vars(config).items():
            f.write(f"{key}={value}\n")


def load_config(path) -> ModelConfig:
    fields = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise WeightError(f"{path}: not UTF-8 text: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise WeightError(f"{path}: bad config line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    kwargs = {}
    for key, value in fields.items():
        try:
            if key in ("rope_theta", "norm_eps"):
                kwargs[key] = float(value)
            elif key == "tie_embeddings":
                kwargs[key] = _BOOLS[value.lower()]
            else:
                kwargs[key] = int(value)
        except (ValueError, KeyError) as exc:
            raise WeightError(f"{path}: bad value for {key}: {value!r}") from exc
    try:
        return ModelConfig(**kwargs)
    except TypeError as exc:
        raise WeightError(f"{path}: {exc}") from exc


def save_weights(weights_path, config_path, model: Model) -> None:
    save_config(config_path, model.config)
    save_tensors(weights_path, model.weights.tensors)


def load_weights(weights_path, config_path) -> tuple[ModelConfig, Weights]:
    config = load_config(config_path)
    weights = Weights(load_tensors(weights_path)).validate(config)
    return config, weights


def init_random(config: ModelConfig, seed: int) -> Weights:
    """Seeded normal(0, 0.02) projections, unit norm gains.  Tensors are
    drawn in schema order so equal seeds give bitwise-equal weights."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _tensor_schema(config).items():
        if name.endswith("norm.weight"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:
            tensors[name] = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
    return Weights(tensors).validate(config)


# Columns a prefill leaves free after the prompt, for decoding.
_HEADROOM = 64


@dataclass
class KVCache:
    """Per-layer keys and values for one generation stream, in the column
    order of ``plan``, the ``AttentionPlan`` of the mode it was prefilled
    under.  Prefill writes the prompt's columns; a decode step writes one
    more and builds no mask.  A stream runs under one mode: decoding under
    another is refused.

    Each layer keeps one buffer of [2, n_kv_heads, capacity, d_head] floats:
    per KV head, its keys rotated at their columns' base positions, held as
    a [d_head, capacity] panel (``halves``), so that every score product
    reads a unit-stride key operand, and its values as [capacity, d_head]
    rows.  Prefill sizes it to the prompt plus ``_HEADROOM`` columns; a step
    writes its columns in place, and a full buffer doubles, up to
    ``max_seq_len``.  The cache has one layout, the one attention reads:
    ``write`` returns, and ``k_base`` and ``v`` read, the first columns as
    per-layer views of the buffer, keys [n_kv_heads, d_head, columns] and
    values [n_kv_heads, columns, d_head].  A step's columns count only once
    every layer has written them, so a step that raises leaves the cache as
    it was.  Only a plan that ``reorders`` holds ``k_raw``: per layer, the
    raw keys before ``suffix_start``, with the documents in ``plan.ranked``
    order (``plan.ranked_cols``), written once at prefill as the same kind
    of [n_kv_heads, d_head, columns] panel, so the importance pass reads its
    documents as one slice, one key per column (``plan.column_set``).  Such
    a cache also holds layer 0's ``pine.KeySet``, which a prefill's forward
    pass builds from its token ids and whose keys its layer-0 write gathers
    once from the panel, one column per distinct token; layer 0's
    importance pass reads it in place of the panel."""

    plan: AttentionPlan
    key_set: pine.KeySet | None = None
    buffers: list[np.ndarray] = field(default_factory=list)
    k_raw: list[np.ndarray] = field(default_factory=list)
    n_cached: int = 0
    halves: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)  # buffers' views

    @property
    def capacity(self) -> int:
        """Columns every layer holds before its buffer must grow."""
        return self.buffers[0].shape[2] if self.buffers else 0

    @property
    def k_base(self) -> list[np.ndarray]:
        return [keys[:, :, :self.n_cached] for keys, _ in self.halves]

    @property
    def v(self) -> list[np.ndarray]:
        return [vals[:, :self.n_cached] for _, vals in self.halves]

    def write(self, layer: int, parts: tuple[np.ndarray, ...], limit: int) -> list:
        """Write one layer's next columns: ``parts`` are its raw keys, rotated
        keys and values, each [t, n_kv_heads, d_head] in column order.
        Returns its ``k_raw`` (or None) and the key and value panels of all
        its columns so far."""
        n, (t, n_kv, d) = self.n_cached, parts[0].shape
        if layer == len(self.buffers):
            self.buffers.append(np.empty((2, n_kv, min(n + t + _HEADROOM, limit), d),
                                         dtype=parts[0].dtype))
            self.halves.append(_halves(self.buffers[-1]))
            if self.plan.reorders:
                raw = np.ascontiguousarray(parts[0][self.plan.ranked_cols].transpose(1, 2, 0))
                self.k_raw.append(raw)
                if layer == 0:
                    self.key_set = self.key_set._replace(keys=raw[:, :, self.key_set.first])
        buf = self.buffers[layer]
        if n + t > buf.shape[2]:
            grown = np.empty_like(buf, shape=(2, n_kv, min(max(n + t, 2 * buf.shape[2]), limit), d))
            (keys, vals), (new_keys, new_vals) = self.halves[layer], _halves(grown)
            new_keys[:, :, :n], new_vals[:, :n] = keys[:, :, :n], vals[:, :n]
            self.buffers[layer], self.halves[layer] = grown, (new_keys, new_vals)
        keys, vals = self.halves[layer]
        keys[:, :, n:n + t] = parts[1].transpose(1, 2, 0)
        vals[:, n:n + t] = parts[2].swapaxes(0, 1)
        return [self.k_raw[layer] if self.k_raw else None, keys[:, :, :n + t], vals[:, :n + t]]


def _halves(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A layer buffer's key panel, [n_kv_heads, d_head, capacity], and its
    values, [n_kv_heads, capacity, d_head]."""
    n_kv, capacity, d = buf.shape[1:]
    return buf[0].reshape(n_kv, d, capacity), buf[1]


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """The parts as one array, rows after rows; one part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Group(NamedTuple):
    """Streams whose rows read the same plan (see ``_forward``), as a
    forward pass runs them: their rows sit in ``sl`` of the stacked rows,
    one stream after another, and share one key rotation and one attention
    call per layer.  The last layer runs ``tail``: each stream's last row
    alone (with its own ``plan.rows``), or ``rows``."""

    caches: tuple[KVCache, ...]
    plans: list[AttentionPlan]
    rows: tuple[Rows, ...]  # each stream's ``plan.rows``
    base: np.ndarray  # the base position of each row of ``sl``
    sl: slice
    tail: tuple[Rows, ...]
    keep: slice  # the rows of ``sl`` that ``tail`` runs


def _write(caches: tuple[KVCache, ...], layer: int, parts: tuple[np.ndarray, ...],
           limit: int) -> list:
    """Write each stream's rows of ``parts`` (raw keys, rotated keys and
    values, the streams' rows one after another) into its cache; returns
    the ``pine.KeySet`` the importance pass reads where the caches hold raw
    keys (layer 0's key sets, else the plan's ``column_set`` over
    ``KVCache.write``'s raw key panels' document columns, a view), else
    None, and the key and value panels, each over the streams' KV heads:
    one stream's are its cache's own."""
    if len(caches) == 1:
        written = caches[0].write(layer, parts, limit)
    else:
        t = len(parts[0]) // len(caches)
        written = [cache.write(layer, [part[i:i + t] for part in parts], limit)
                   for cache, i in zip(caches, range(0, len(parts[0]), t))]
        written = [None if panels[0] is None else np.concatenate(panels)
                   for panels in zip(*written)]
    raw, layout = written[0], caches[0].plan.layout
    if raw is not None and layer == 0:  # one count matrix: see ``_forward``
        raw = caches[0].key_set._replace(keys=_stack([cache.key_set.keys for cache in caches]))
    elif raw is not None:
        raw = caches[0].plan.column_set._replace(
            keys=raw[:, :, layout.prefix_len:layout.suffix_start])
    return [raw, *written[1:]]


def _layer_forward(model: Model, x: np.ndarray, layer: int, groups: list[_Group],
                   last: bool = False) -> np.ndarray:
    """One layer over ``x``, the stacked rows of every stream, in ``groups``.
    Norms, projections, FFN and residual adds run once over the stacked
    rows; key rotation and attention once per group, the cache writes per
    stream.  Every row writes its keys and values; in the ``last`` layer
    only each group's ``tail`` runs on, and the layer returns those rows.
    Keys are rotated once, at their base positions, by ``modes.rotate``:
    looked up there, as attention's query rotations are, so one hook sees
    both."""
    cfg = model.config
    w = model.weights.tensors
    p = f"layers.{layer}."
    h = rms_norm(x, w[p + "attn_norm.weight"], cfg.norm_eps)
    k = matmul(h, w[p + "k_proj.weight"]).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    v = matmul(h, w[p + "v_proj.weight"]).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    panels = []  # per group: its raw key, key and value panels
    for caches, _, _, base, sl, _, _ in groups:
        parts = (ks := k[sl], modes.rotate(ks, base, cfg.rope_theta), v[sl])
        panels.append(_write(caches, layer, parts, cfg.max_seq_len))
    del k, v, ks, parts  # the caches hold them now: free them before attention
    if last and any(group.keep != group.sl for group in groups):
        x, h = (np.concatenate([a[group.keep] for group in groups]) for a in (x, h))
    q = matmul(h, w[p + "q_proj.weight"]).reshape(-1, cfg.n_heads, cfg.d_head)
    attn, at = [], 0
    for group, (k_raw, keys, vals) in zip(groups, panels):
        rows = group.tail if last else group.rows
        u = len(rows) * len(rows[0].index)
        attn.append(attention_forward(group.plans, q[at:at + u], k_raw, vals, keys, rows,
                                      cfg.rope_theta))
        at += u
    attn = _stack(attn)
    x = x + matmul(attn.reshape(attn.shape[0], -1), w[p + "o_proj.weight"])
    h2 = rms_norm(x, w[p + "ffn_norm.weight"], cfg.norm_eps)
    gate = matmul(h2, w[p + "gate_proj.weight"])
    up = matmul(h2, w[p + "up_proj.weight"])
    x = x + matmul(swiglu(gate, up), w[p + "down_proj.weight"])
    return x


def _forward(model: Model, caches: list[KVCache], tokens: list[list[int]]) -> list[np.ndarray]:
    """One forward pass over one stream or several: each stream's tokens run
    as the rows after its cache, in column order (an empty suffix leaves
    the last token's row inside the documents), and append their keys and
    values once every layer and the logits have succeeded; returns each
    stream's logits of its last token.  Every stream is checked before any
    compute.  Neighbouring streams whose rows read the same plan form a
    ``_Group``: one ``shape``, the same rows, where ``row_blocks`` plans
    them one ``sees`` (a lone row from ``suffix_start`` on reads none), and
    one count matrix of their layer-0 key sets.
    When several of a stream's rows end in its last column, the last layer
    runs that row alone (its tail) past the keys and values of every row."""
    cfg = model.config
    rep = cfg.n_heads // cfg.n_kv_heads
    streams, column_ids = [], []  # per stream: what its rows read of its plan, cache and rows
    for cache, toks in zip(caches, tokens):
        q_start, t = cache.n_cached, len(toks)
        s = q_start + t
        if s > cfg.max_seq_len:
            raise ShapeError(f"sequence length {s} exceeds max_seq_len {cfg.max_seq_len}")
        ids = np.asarray(toks)
        if ids.dtype.kind not in "iu" or not all(
                0 <= i < cfg.vocab_size for i in ids.ravel().tolist()):
            raise ShapeError(f"token ids must be integers in 0 .. {cfg.vocab_size - 1}")
        plan = cache.plan
        rows = plan.rows(q_start, t, rep)
        column_ids.append(ids[rows.index - q_start])
        if plan.reorders and q_start == 0:  # a prefill: its layer 0 fills the keys
            cache.key_set = pine.key_set(column_ids[-1], plan)
        lone = t == 1 and q_start >= plan.layout.suffix_start
        counts = None if cache.key_set is None else cache.key_set.counts.tobytes()
        streams.append(((plan.shape, q_start, t, None if lone else plan.sees.tobytes(), counts),
                        cache, rows))
    groups, lasts = [], []  # lasts: each last token's row in the rows the last layer runs
    at = on = 0  # the next group's first row in x, and in the rows the last layer runs
    for _, members in groupby(streams, key=lambda stream: stream[0]):
        _, group, rows = zip(*members)
        plans, (q_start, t) = [cache.plan for cache in group], (rows[0].start, len(rows[0].index))
        end = at + t * len(group)
        tail, keep = rows, slice(at, end)
        if t > 1 and q_start + t > plans[0].layout.suffix_start:  # each stream's last row alone
            tail = tuple(plan.rows(q_start + t - 1, 1, rep) for plan in plans)
            keep = slice(at + t - 1, end, t)
        groups.append(_Group(group, plans, rows, _stack([r.base for r in rows]), slice(at, end),
                             tail, keep))
        u = len(tail[0].index)
        lasts += [on + b * u + int(r.index.argmax()) for b, r in enumerate(tail)]
        at, on = end, on + u * len(group)
    x = model.weights["embed.weight"][_stack(column_ids)]
    for layer in range(cfg.n_layers):
        x = _layer_forward(model, x, layer, groups, layer == cfg.n_layers - 1)
    h = rms_norm(_stack([x[i:i + 1] for i in lasts]), model.weights["final_norm.weight"],
                 cfg.norm_eps)
    logits = matmul(h, model.head_matrix())
    for cache, toks in zip(caches, tokens):
        cache.n_cached += len(toks)
    return list(logits)


def _prefill(model: Model, prompts: list[tuple[list[int], SequenceLayout]],
             mode: AttentionMode) -> tuple[list[KVCache], list[np.ndarray]]:
    """Prefill several prompts under one mode in one forward pass; returns
    each prompt's filled cache and the logits of its last token."""
    for tokens, layout in prompts:
        if len(tokens) == 0:
            raise ShapeError("prefill: the prompt is empty")
        if len(tokens) != layout.n:
            raise ShapeError(f"token count {len(tokens)} != layout.n {layout.n}")
    caches = [KVCache(AttentionPlan(mode, layout)) for _, layout in prompts]
    return caches, _forward(model, caches, [tokens for tokens, _ in prompts])


def prefill(model: Model, tokens: list[int], layout: SequenceLayout,
            mode: AttentionMode) -> tuple[KVCache, np.ndarray]:
    """Run the whole prompt; returns the filled cache and the logits of
    the last prompt token."""
    (cache,), (logits,) = _prefill(model, [(tokens, layout)], mode)
    return cache, logits


def decode_step(model: Model, cache: KVCache, token: int, mode: AttentionMode) -> np.ndarray:
    """Append one token to the cache and return next-token logits.  The
    mode must be the one the cache was prefilled under."""
    if mode != cache.plan.mode:
        raise ValueError(f"decode_step: cache was prefilled under {cache.plan.mode}, not {mode}")
    if cache.n_cached == 0:
        raise ShapeError("decode_step: cache is empty; run prefill first")
    return _forward(model, [cache], [[token]])[0]


def greedy_pick(logits: np.ndarray) -> int:
    """Argmax with ties broken toward the lowest token id."""
    return int(np.argmax(logits))


def generate(model: Model, tokens: list[int], layout: SequenceLayout, mode: AttentionMode,
             max_new_tokens: int) -> list[int]:
    """Greedy generation of ``max_new_tokens`` tokens, no fewer, under ``mode``."""
    cache, logits = prefill(model, tokens, layout, mode)
    return _greedy_decode(model, [cache], [logits], max_new_tokens)[0]


def _greedy_decode(model: Model, caches: list[KVCache], logits: list[np.ndarray],
                   max_new_tokens: int) -> list[list[int]]:
    """``max_new_tokens`` greedy tokens of each stream from its prefilled
    cache and its last logits.  The streams decode in lockstep: each step
    is one forward pass over them all."""
    outs: list[list[int]] = [[] for _ in caches]
    for step in range(max_new_tokens):
        for out, row in zip(outs, logits):
            out.append(greedy_pick(row))
        if step + 1 < max_new_tokens:
            logits = _forward(model, caches, [out[-1:] for out in outs])
    return outs


def continuation_logprob(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    mode: AttentionMode,
    continuation: list[int],
) -> float:
    """Teacher-forced total log-probability of a continuation."""
    cache, logits = prefill(model, tokens, layout, mode)
    total = 0.0
    for i, tok in enumerate(continuation):
        z = logits.astype(np.float64)
        z = z - z.max()
        total += float(z[tok] - np.log(np.exp(z).sum()))
        if i + 1 < len(continuation):
            logits = decode_step(model, cache, tok, mode)
    return total

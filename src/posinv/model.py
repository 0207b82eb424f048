"""Decoder-only transformer runtime.

RMS-norm, rotary embeddings, grouped-query attention, gated FFN, greedy
decoding.  The KV cache stores each key twice: raw (pine's importance
scores are position-free) and rotated once, when it is written, at a base
position that never changes (``modes.base_positions``).  The
re-assigning attention modes give a document's keys a different start
for each query group; attention moves that shift onto the queries, so no
cached key is rotated again.

Prefill and decoding share one forward pass: a decode step is the
prefill of one more row after the cached ones.  Each layer computes
only the new rows, attending to every cached key.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .kernels import ShapeError, matmul, rms_norm, swiglu
from .modes import AttentionMode, attention_forward, rotate_keys
from .prompts import BYTE_VOCAB, N_SPECIALS, SequenceLayout

_DTYPES = {"F32": np.float32, "F64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "F32", np.dtype(np.float64): "F64"}
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
            got = self.tensors[name].shape
            if tuple(got) != shape:
                raise WeightError(f"tensor {name!r} has shape {tuple(got)}, expected {shape}")
            if not np.isfinite(self.tensors[name]).all():
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
# mapping tensor names to {dtype, shape, data_offsets}, then a contiguous
# little-endian payload.


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    header: dict[str, dict] = {}
    offset = 0
    payload = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype not in _DTYPE_NAMES:
            raise WeightError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        header[name] = {
            "dtype": _DTYPE_NAMES[arr.dtype],
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
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise WeightError(f"tensor {name!r}: unsupported dtype {dtype!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise WeightError(f"tensor {name!r}: bad shape {shape!r}")
    if not (isinstance(offsets, list) and len(offsets) == 2
            and all(type(o) is int for o in offsets)
            and 0 <= offsets[0] <= offsets[1] <= len(payload)):
        raise WeightError(f"tensor {name!r}: data_offsets {offsets!r} outside the "
                          f"{len(payload)}-byte payload")
    dt = np.dtype(_DTYPES[dtype]).newbyteorder("<")
    s, e = offsets
    if e - s != math.prod(shape) * dt.itemsize:
        raise WeightError(f"tensor {name!r}: payload size {e - s} B != shape {shape}")
    return np.frombuffer(payload[s:e], dtype=dt).astype(_DTYPES[dtype]).reshape(shape)


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


@dataclass
class GenerationParams:
    max_new_tokens: int
    mode: AttentionMode
    eos_token: int | None = None
    canonical: bool = True


@dataclass
class KVCache:
    """Per-layer keys and values for one generation stream.  Keys are held
    raw and rotated at their base positions under the mode rule
    ``positions`` (an ``AttentionMode.positions`` value)."""

    layout: SequenceLayout
    k_raw: list[np.ndarray] = field(default_factory=list)  # per layer [t, n_kv, d_head]
    v: list[np.ndarray] = field(default_factory=list)
    k_base: list[np.ndarray] = field(default_factory=list)
    positions: str | None = None

    @property
    def n_cached(self) -> int:
        return 0 if not self.k_raw else self.k_raw[0].shape[0]


def _layer_forward(model: Model, x: np.ndarray, layer: int, cache: KVCache,
                   mode: AttentionMode, q_start: int, canonical: bool) -> np.ndarray:
    cfg = model.config
    w = model.weights
    p = f"layers.{layer}."
    h = rms_norm(x, w[p + "attn_norm.weight"], cfg.norm_eps)
    q = matmul(h, w[p + "q_proj.weight"]).reshape(-1, cfg.n_heads, cfg.d_head)
    k = matmul(h, w[p + "k_proj.weight"]).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    v = matmul(h, w[p + "v_proj.weight"]).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    k_base = rotate_keys(mode, cache.layout, k, q_start, cfg.rope_theta)
    if len(cache.k_raw) <= layer:
        cache.k_raw.append(k)
        cache.k_base.append(k_base)
        cache.v.append(v)
    else:
        cache.k_raw[layer] = np.concatenate([cache.k_raw[layer], k], axis=0)
        cache.k_base[layer] = np.concatenate([cache.k_base[layer], k_base], axis=0)
        cache.v[layer] = np.concatenate([cache.v[layer], v], axis=0)
    attn = attention_forward(
        mode, q, cache.k_raw[layer], cache.v[layer], cache.layout,
        q_start=q_start, rope_theta=cfg.rope_theta, canonical=canonical,
        k_base=cache.k_base[layer],
    )
    x = x + matmul(attn.reshape(attn.shape[0], -1), w[p + "o_proj.weight"])
    h2 = rms_norm(x, w[p + "ffn_norm.weight"], cfg.norm_eps)
    gate = matmul(h2, w[p + "gate_proj.weight"])
    up = matmul(h2, w[p + "up_proj.weight"])
    x = x + matmul(swiglu(gate, up), w[p + "down_proj.weight"])
    return x


def _forward(model: Model, cache: KVCache, tokens: list[int], mode: AttentionMode,
             canonical: bool) -> np.ndarray:
    """Run tokens as the rows after the cache, appending their keys and
    values; returns the logits of the last row."""
    cfg = model.config
    q_start = cache.n_cached
    if q_start + len(tokens) > cfg.max_seq_len:
        raise ShapeError(f"sequence length {q_start + len(tokens)} exceeds "
                         f"max_seq_len {cfg.max_seq_len}")
    if cache.positions != mode.positions:  # keys cached under another position rule
        cache.k_base = [rotate_keys(mode, cache.layout, k, 0, cfg.rope_theta) for k in cache.k_raw]
        cache.positions = mode.positions
    x = model.weights["embed.weight"][np.asarray(tokens, dtype=np.int64)]
    for layer in range(cfg.n_layers):
        x = _layer_forward(model, x, layer, cache, mode, q_start, canonical)
    h = rms_norm(x[-1:], model.weights["final_norm.weight"], cfg.norm_eps)
    return matmul(h, model.head_matrix())[0]


def prefill(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    mode: AttentionMode,
    canonical: bool = True,
) -> tuple[KVCache, np.ndarray]:
    """Run the whole prompt; returns the filled cache and the logits of
    the last prompt token."""
    if len(tokens) == 0:
        raise ShapeError("prefill: the prompt is empty")
    if len(tokens) != layout.n:
        raise ShapeError(f"token count {len(tokens)} != layout.n {layout.n}")
    cache = KVCache(layout=layout)
    return cache, _forward(model, cache, tokens, mode, canonical)


def decode_step(
    model: Model,
    cache: KVCache,
    token: int,
    mode: AttentionMode,
    canonical: bool = True,
) -> np.ndarray:
    """Append one token to the cache and return next-token logits."""
    if cache.n_cached == 0:
        raise ShapeError("decode_step: cache is empty; run prefill first")
    return _forward(model, cache, [token], mode, canonical)


def greedy_pick(logits: np.ndarray) -> int:
    """Argmax with ties broken toward the lowest token id."""
    return int(np.argmax(logits))


def generate(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    params: GenerationParams,
) -> list[int]:
    cache, logits = prefill(model, tokens, layout, params.mode, params.canonical)
    return _greedy_decode(model, cache, logits, params)


def _greedy_decode(model: Model, cache: KVCache, logits: np.ndarray,
                   params: GenerationParams) -> list[int]:
    """Greedy tokens from a prefilled cache and its last logits."""
    out: list[int] = []
    for _ in range(params.max_new_tokens):
        tok = greedy_pick(logits)
        out.append(tok)
        if params.eos_token is not None and tok == params.eos_token:
            break
        if len(out) == params.max_new_tokens:
            break
        logits = decode_step(model, cache, tok, params.mode, params.canonical)
    return out


def continuation_logprob(
    model: Model,
    tokens: list[int],
    layout: SequenceLayout,
    mode: AttentionMode,
    continuation: list[int],
    canonical: bool = True,
) -> float:
    """Teacher-forced total log-probability of a continuation."""
    cache, logits = prefill(model, tokens, layout, mode, canonical)
    total = 0.0
    for i, tok in enumerate(continuation):
        z = logits.astype(np.float64)
        z = z - z.max()
        total += float(z[tok] - np.log(np.exp(z).sum()))
        if i + 1 < len(continuation):
            logits = decode_step(model, cache, tok, mode, canonical)
    return total

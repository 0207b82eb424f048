"""Minimal decoder-only transformer runtime with order-invariant attention modes."""

from .kernels import NEG_INF, NumericError, ShapeError, matmul, rms_norm, row_softmax, swiglu
from .model import (
    GenerationParams,
    KVCache,
    Model,
    ModelConfig,
    WeightError,
    Weights,
    continuation_logprob,
    decode_step,
    generate,
    init_random,
    load_weights,
    prefill,
    save_weights,
)
from .modes import AttentionMode, assign_positions, attention_forward, build_mask, sp_rescale
from .oracle import (
    DivergenceReport,
    dense_reference,
    enumerate_orders,
    permutation_vote,
    run_suite,
)
from .pine import (
    PositionMap,
    doc_importance,
    order_documents,
    token_importance,
)
from .prompts import (
    PromptError,
    SegmentedPrompt,
    SequenceLayout,
    detokenize,
    parse_prompt_file,
    permute_documents,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionMode",
    "DivergenceReport",
    "GenerationParams",
    "KVCache",
    "Model",
    "ModelConfig",
    "NEG_INF",
    "NumericError",
    "PositionMap",
    "PromptError",
    "SegmentedPrompt",
    "SequenceLayout",
    "ShapeError",
    "WeightError",
    "Weights",
    "assign_positions",
    "attention_forward",
    "build_mask",
    "continuation_logprob",
    "decode_step",
    "dense_reference",
    "detokenize",
    "doc_importance",
    "enumerate_orders",
    "generate",
    "init_random",
    "load_weights",
    "matmul",
    "order_documents",
    "parse_prompt_file",
    "permutation_vote",
    "permute_documents",
    "prefill",
    "rms_norm",
    "row_softmax",
    "run_suite",
    "save_weights",
    "sp_rescale",
    "swiglu",
    "token_importance",
    "tokenize",
]

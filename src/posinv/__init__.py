"""Minimal decoder-only transformer runtime with order-invariant attention modes."""

from types import ModuleType as _ModuleType

from .kernels import NEG_INF, NumericError, ShapeError, matmul, rms_norm, row_softmax, swiglu
from .model import (
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
from .modes import AttentionMode, AttentionPlan, assign_positions, attention_forward, build_mask
from .oracle import (
    DivergenceReport,
    dense_reference,
    enumerate_orders,
    run_suite,
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

# The public names are the ones imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

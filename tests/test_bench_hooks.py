"""The benchmark still runs against the library.

``perfbench/tracer.py`` replaces posinv functions by module attribute
name.  A refactor that renames or moves one of them breaks the traced
benchmark run; the first test installs the tracer the way
``perfbench/bench.py`` does and runs one small pine prefill through it,
and the second checks that a pine decode step reaches the hooked scorer.
The last runs short untraced benchmarks end to end, with their oracle and
invariance checks, so a library change that breaks the benchmark's own
calls or checks fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posinv
from posinv import (AttentionMode, SegmentedPrompt, decode_step, modes, oracle, pine, prefill,
                    tokenize)
from posinv import model as model_mod

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_hooks_resolve_and_restore(tiny_config, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import HOOKS, Tracer

    config = posinv.ModelConfig(**{**vars(tiny_config), "n_layers": 2})
    model = posinv.Model(config, posinv.init_random(config, 3))
    # Every rotation that reaches the tracer's rope.rotate hook: keys are
    # [t, n_kv_heads, d_head], attention's query rows two-dimensional.
    rotated, rotate = [], modes.rotate

    def recording_rotate(x, *args):
        rotated.append(x.shape)
        return rotate(x, *args)

    monkeypatch.setattr(modes, "rotate", recording_rotate)
    modules = {"api": posinv, "model": model_mod, "modes": modes, "pine": pine, "oracle": oracle}
    originals = {(mod, attr): getattr(modules[mod], attr)
                 for _, sites in HOOKS for mod, attr in sites}
    tokens, layout = tokenize(SegmentedPrompt("S", ("ab", "cde", "f"), "Q"))
    _, untraced = prefill(model, tokens, layout, AttentionMode("pine"))

    rotated.clear()
    tracer = Tracer(modules, vocab=config.vocab_size, d_ff=config.d_ff)
    try:
        tracer.install()
        _, traced = posinv.prefill(model, tokens, layout, AttentionMode("pine"))
    finally:
        tracer.uninstall()

    table = tracer.table()
    assert table["pine.group_ordering"][0] > 0
    assert table["kernels.row_softmax"][0] > 0
    assert table["rope.rotate"][0] == len(rotated)
    key_rotations = [shape for shape in rotated if len(shape) == 3]
    assert key_rotations == [(layout.n, config.n_kv_heads, config.d_head)] * config.n_layers
    assert np.array_equal(traced, untraced)
    for (mod, attr), fn in originals.items():
        assert getattr(modules[mod], attr) is fn, f"{mod}.{attr}"


def test_pine_decode_step_orders_through_the_module_once_per_layer(tiny_config, tiny_model,
                                                                   monkeypatch):
    # The tracer's pine.group_ordering hook replaces the module attribute,
    # so a decode step must look the scorer up through the module, once
    # per layer, for its one row.
    tokens, layout = tokenize(SegmentedPrompt("S", ("ab", "cde", "f"), "Q"))
    mode = AttentionMode("pine")
    cache, logits = prefill(tiny_model, tokens, layout, mode)
    rows, scorer = [], pine.group_ordering

    def counting(q, *args):
        rows.append(len(q))
        return scorer(q, *args)

    monkeypatch.setattr(pine, "group_ordering", counting)
    decode_step(tiny_model, cache, int(np.argmax(logits)), mode)
    assert rows == [1] * tiny_config.n_layers


# rag_prefill (n = 983, k = 8) is the one workload whose importance pass has
# row blocks inside one document's group; long_decode checks its 191 pine
# decode steps bitwise across orders.
@pytest.mark.parametrize("workload", ["invariance_sweep", "rag_prefill", "long_decode"])
def test_benchmark_smoke_run(workload):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

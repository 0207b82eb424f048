"""The benchmark proper: set-up, oracle check, timed rounds, metrics.

A run sets up the reference model three times (setup_s is the median),
checks ``prefill`` against the float64 ``oracle.dense_reference`` for every
mode the workload uses, then serves rounds of requests for at most
``--seconds`` (the first round always runs, even when it takes longer).
Every request is checked: finite logits, and under pine bitwise-equal
logits and identical tokens for all orders of a document set;
``run_suite`` must find every order identical.  With ``--trace 1`` the
first round is served untraced and then again with every traced function
wrapped; the per-layer table comes from the traced pass, which must
reproduce the untraced outputs bitwise.

In an untraced run every timing is scaled to a fixed machine speed by a
``speed.Speedometer`` that samples the machine while the run lasts; a
traced run reports raw times (``speed.Clock``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import posinv
from posinv import model as model_mod
from posinv import modes, oracle, pine
from speed import Clock, Speedometer
from tracer import Tracer
from workloads import REQUEST_MODES, WORKLOADS, make_round, small_prompt

WEIGHTS_SEED = 0
SETUP_REPEATS = 5
ORACLE_TOL = 1e-4
ORACLE_DOC_BYTES = 6  # k = 4 documents: n = 44
clock = time.perf_counter

# ROADMAP's reference model: 4 layers, 8 query heads over 2 KV heads,
# d_head 32, d_ff 512.
REFERENCE_CONFIG = posinv.ModelConfig(
    n_layers=4, n_heads=8, n_kv_heads=2, d_model=256, d_head=32, d_ff=512, vocab_size=260,
)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def p90(xs):
    """90th percentile, or None unless at least ten samples lie beyond it."""
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 100 else None


class Client:
    """Serves requests, times them and checks their outputs.

    Calls into posinv go through ``api`` so that a tracer can wrap them.
    Timings are read from ``speed`` and kept raw, with the speedometer
    marks around them; ``prefill`` and ``decode`` scale them once the run
    is over, when the samples on both sides of each interval exist.
    Each check is one operation in ``attempted``; a check that fails or
    raises adds one to ``failed``.  ``record`` keeps every output in
    order, so a traced pass can be compared with an untraced one.
    """

    def __init__(self, api, model, speed, tracer=None):
        self.api = api
        self.model = model
        self.speed = speed
        self.tracer = tracer
        self.prefill_times = {}  # mode -> [(prompt tokens, seconds, start mark, end mark)]
        self.decode_times = {}  # mode -> [(seconds, start mark, end mark)], one per decode_step
        self.pine_comparisons = []  # comparator calls per pine decoded token
        self.tokens = 0
        self.orders_checked = 0
        self.suite_orders = 0
        self.attempted = 0
        self.failed = 0
        self.record: list = []
        self.request_id = 0

    def check(self, label: str, fn):
        """Run one checked operation; fn returns (ok, recorded output)."""
        self.attempted += 1
        try:
            ok, output = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, output = False, None
        if not ok:
            self.failed += 1
            print(f"FAILED: {label}", file=sys.stderr)
        self.record.append((label, output))
        return output if ok else None

    @property
    def prefill(self):
        """mode -> [prompt tokens / scaled prefill seconds]"""
        f = self.speed.factor
        return {v: [n / (t * f(a, b)) for n, t, a, b in xs] for v, xs in self.prefill_times.items()}

    @property
    def decode(self):
        """mode -> [scaled seconds per decode_step]"""
        f = self.speed.factor
        return {v: [t * f(a, b) for t, a, b in xs] for v, xs in self.decode_times.items()}

    def _timed(self, fn, *args):
        """fn(*args) -> (result, seconds, start mark, end mark)"""
        speed = self.speed
        mark = speed.mark()
        t0 = speed.now()
        result = fn(*args)
        return result, speed.now() - t0, mark, speed.mark()

    def _serve(self, prompt, order, variant: str, new_tokens: int):
        api = self.api
        mode = posinv.AttentionMode(variant)
        tokens, layout = api.tokenize(api.permute_documents(prompt, order))
        (cache, logits), *timing = self._timed(api.prefill, self.model, tokens, layout, mode)
        self.prefill_times.setdefault(variant, []).append((layout.n, *timing))
        first = logits
        finite = bool(np.isfinite(logits).all())
        out, steps = [], self.decode_times.setdefault(variant, [])
        n_steps = len(steps)
        comparisons = pine.comparison_count()
        while True:
            tok = model_mod.greedy_pick(logits)
            out.append(tok)
            if len(out) == new_tokens:
                break
            logits, *timing = self._timed(api.decode_step, self.model, cache, tok, mode)
            steps.append(tuple(timing))
            finite = finite and bool(np.isfinite(logits).all())
        steps = steps[n_steps:]
        if variant == "pine" and steps:
            self.pine_comparisons.append((pine.comparison_count() - comparisons) / len(steps))
        self.tokens += layout.n + len(out)
        return finite, (first.tobytes(), tuple(out))

    def _begin(self):
        """The request's top-level span."""
        self.request_id += 1
        if self.tracer is None:
            return nullcontext()
        self.tracer.request = self.request_id
        return self.tracer.span("bench.request")

    def request(self, prompt, order, variant, new_tokens):
        with self._begin():
            return self.check(
                f"{variant} order {order}: finite logits",
                lambda: self._serve(prompt, order, variant, new_tokens),
            )

    def suite(self, prompt, variant: str, new_tokens: int):
        orders = posinv.enumerate_orders(prompt.k, math.factorial(prompt.k))

        def run():
            mode = posinv.AttentionMode(variant)
            report = self.api.run_suite(self.model, prompt, mode, orders, new_tokens)
            n = posinv.tokenize(prompt)[1].n
            self.tokens += sum(n + len(o) for o in report.greedy_outputs)
            self.orders_checked += report.permutations_tested
            self.suite_orders += report.permutations_tested
            ok = (
                report.permutations_tested == len(orders)
                and report.outputs_identical
                and report.max_abs_logit_diff == 0.0
            )
            return ok, (report.max_abs_logit_diff, report.greedy_outputs)

        with self._begin():
            self.check(f"run_suite {variant} over {len(orders)} orders: identical", run)

    def round(self, wl, parts):
        """One document set in its orders under vanilla and pine, then the
        workload's suites."""
        prefix, docs, suffix, orders = parts
        prompt = posinv.SegmentedPrompt(prefix, docs, suffix)
        results = {}
        for order in orders:
            for variant in REQUEST_MODES:
                results[order, variant] = self.request(prompt, order, variant, wl.new_tokens)
        pine_outputs = [results[o, "pine"] for o in orders]
        if None not in pine_outputs:
            self.orders_checked += len(orders)
            self.check(
                f"pine: {len(orders)} orders give bitwise-equal logits and tokens",
                lambda: (all(x == pine_outputs[0] for x in pine_outputs), None),
            )
        for variant in wl.suite_modes:
            self.suite(prompt, variant, wl.new_tokens)


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256(json.dumps(
        {"config": asdict(REFERENCE_CONFIG), "weights_seed": WEIGHTS_SEED}, sort_keys=True,
    ).encode()).hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "config_hash": digest,
        "workload_seed": seed,
    }


def set_up(variants, seed):
    """init_random + one short warm-up request per mode; returns the model."""
    model = posinv.Model(REFERENCE_CONFIG, posinv.init_random(REFERENCE_CONFIG, seed=WEIGHTS_SEED))
    tokens, layout = posinv.tokenize(posinv.SegmentedPrompt(*small_prompt(seed, k=2, doc_bytes=6)))
    for variant in variants:
        mode = posinv.AttentionMode(variant)
        cache, logits = posinv.prefill(model, tokens, layout, mode)
        posinv.decode_step(model, cache, model_mod.greedy_pick(logits), mode)
    return model


def oracle_check(client: Client, variants, seed):
    """prefill against the float64 dense reference on a short prompt."""
    prompt = posinv.SegmentedPrompt(*small_prompt(seed, k=4, doc_bytes=ORACLE_DOC_BYTES))
    tokens, layout = posinv.tokenize(prompt)
    diffs = {}
    for variant in variants:
        def compare(variant=variant):
            mode = posinv.AttentionMode(variant)
            ref = posinv.dense_reference(client.model, tokens, layout, mode)
            _, logits = posinv.prefill(client.model, tokens, layout, mode)
            diffs[variant] = float(np.max(np.abs(ref - logits)))
            return diffs[variant] <= ORACLE_TOL, None

        client.check(f"oracle agreement ({variant}, n={layout.n})", compare)
    return layout.n, diffs


def serve_rounds(client: Client, wl, seed, seconds, max_rounds=None):
    """Timed loop; returns (scaled wall seconds, rounds served)."""
    speed = client.speed
    mark = speed.mark()
    start = speed.now()
    t0 = clock()
    i = 0
    while True:
        t_round = clock()
        client.round(wl, make_round(wl, seed, i))
        i += 1
        now = clock()
        # Stop before a round that would overrun; the first always runs.
        if i == max_rounds or (now - t0) + (now - t_round) > seconds:
            return (speed.now() - start) * speed.factor(mark, speed.mark()), i


def end_to_end(client: Client, wall: float, setup_s: float):
    m = {"setup_s": (setup_s, "s")}
    for variant in REQUEST_MODES:
        m[f"prefill_tok_s.{variant}"] = (median(client.prefill.get(variant, [])), "tok/s")
    for variant in REQUEST_MODES:
        m[f"decode_ms.{variant}.p50"] = (median(client.decode.get(variant, [])) * 1e3, "ms")
    m["tokens_per_s"] = (client.tokens / wall, "tok/s")
    m["orders_per_s"] = (client.orders_checked / wall, "1/s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def pine_overhead(client: Client):
    """Median pine time over median vanilla time (the paper's metric)."""
    pre = median(client.prefill["vanilla"]) / median(client.prefill["pine"])
    dec = median(client.decode["pine"]) / median(client.decode["vanilla"])
    return pre, dec


PER_LAYER_FUNCS = (
    "prompts.tokenize", "prompts.permute_documents", "model.prefill", "model.decode_step",
    "model.generate", "oracle.run_suite", "modes.attention_forward", "modes.build_mask",
    "rope.rotate", "pine.group_ordering", "kernels.matmul", "kernels.row_softmax",
    "kernels.rms_norm", "kernels.swiglu",
)


def per_layer(tracer, untraced: Client, traced: Client, wall_u: float, wall_t: float):
    table = tracer.table()
    m = {}
    for name in PER_LAYER_FUNCS:
        calls, total, own = table.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.time_s"] = (total, "s")
        m[f"{name}.self_s"] = (own, "s")
    for cls in ("proj", "ffn", "lm_head"):
        m[f"kernels.matmul.{cls}.self_s"] = (table.get(f"kernels.matmul.{cls}", (0, 0.0, 0.0))[2], "s")
    m["kernels.matmul.gflop"] = (tracer.counts["matmul_flop"] / 1e9, "GFLOP")
    attn_rows = tracer.counts["attn_rows"]
    m["modes.attention_forward.rows"] = (attn_rows, "count")
    m["modes.build_mask.bytes"] = (tracer.counts["mask_bytes"], "bytes")
    m["rope.rotate.rows"] = (tracer.counts["rotate_rows"], "count")
    m["rope.rotate.rows_per_attn_row"] = (tracer.counts["rotate_rows"] / max(attn_rows, 1), "ratio")
    m["pine.comparisons_per_decoded_token"] = (median(traced.pine_comparisons), "count/token")
    prefills = tracer.count_under("model.prefill", "oracle.run_suite")
    m["oracle.prefills_per_order"] = (prefills / traced.suite_orders if traced.suite_orders else 0.0, "ratio")
    pre, dec = pine_overhead(untraced)
    m["pine_overhead.prefill"] = (pre, "ratio")
    m["pine_overhead.decode"] = (dec, "ratio")
    m["trace.overhead"] = (wall_t / wall_u, "ratio")
    m["trace.coverage"] = (sum(s[2] for s in tracer.stats) / wall_t, "ratio")
    return m, table


def print_table(table, wall_t):
    print(f"{'span':34s} {'calls':>9s} {'time_s':>10s} {'self_s':>10s} {'self%':>6s}")
    rows = sorted(((n, v) for n, v in table.items() if n != "kernels.matmul"), key=lambda r: -r[1][2])
    for name, (calls, total, own) in rows:
        print(f"{name:34s} {calls:9d} {total:10.4f} {own:10.4f} {100 * own / wall_t:6.2f}")
    own_sum = sum(v[2] for _, v in rows)
    print(f"sum of self times {own_sum:.4f} s over traced wall {wall_t:.4f} s")


def run(args, root, import_s: float) -> int:
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    variants = tuple(dict.fromkeys(REQUEST_MODES + wl.suite_modes))

    with Clock() if args.trace else Speedometer() as speed:
        return measure(args, root, import_s, declared, wl, variants, speed)


def measure(args, root, import_s, declared, wl, variants, speed) -> int:
    mark = speed.mark()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = speed.now()
        model = set_up(variants, args.seed)
        setups.append(speed.now() - t0)
    scale = speed.factor(mark, speed.mark())
    setup_s = (import_s + median(setups)) * scale

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} x (init_random + warm-up)"
          f" {[round(s, 4) for s in setups]}, scaled by {scale:.4f}")

    api = SimpleNamespace(
        tokenize=posinv.tokenize, permute_documents=posinv.permute_documents,
        prefill=posinv.prefill, decode_step=posinv.decode_step, run_suite=posinv.run_suite,
    )
    client = Client(api, model, speed)
    n_oracle, diffs = oracle_check(client, variants, args.seed)
    print(f"oracle agreement at n={n_oracle}: " + ", ".join(f"{k} {v:.3g}" for k, v in diffs.items()))

    if not args.trace:
        mark = speed.mark()
        wall, rounds = serve_rounds(client, wl, args.seed, args.seconds)
        metrics = end_to_end(client, wall, setup_s)
        print(f"served {rounds} round(s) in {wall:.3f} scaled s; speed factor"
              f" {speed.factor(mark, speed.mark()):.4f} from {speed.mark() - mark} samples")
        for variant in REQUEST_MODES:
            samples = client.decode.get(variant, [])
            q = p90(samples)
            text = f"{q * 1e3:.4f} ms" if q is not None else "not reported (< 10 samples beyond it)"
            print(f"decode_ms.{variant}.p90 = {text}; {len(samples)} decode samples")
        pre, dec = pine_overhead(client)
        print(f"pine_overhead.prefill = {pre:.4f}, pine_overhead.decode = {dec:.4f} (not gated)")
        attempted, failed = client.attempted, client.failed
    else:
        wall_u, _ = serve_rounds(client, wl, args.seed, args.seconds, max_rounds=1)
        tracer = Tracer({"api": api, "model": model_mod, "modes": modes, "pine": pine, "oracle": oracle},
                        vocab=REFERENCE_CONFIG.vocab_size, d_ff=REFERENCE_CONFIG.d_ff)
        traced = Client(api, model, speed, tracer)
        try:
            tracer.install()
            wall_t, _ = serve_rounds(traced, wl, args.seed, args.seconds, max_rounds=1)
        finally:
            tracer.uninstall()
        untraced_round = client.record[-len(traced.record):]
        for a, b in list(zip(untraced_round, traced.record)):
            traced.check("traced outputs bitwise equal to untraced", lambda a=a, b=b: (a == b, None))
        metrics, table = per_layer(tracer, client, traced, wall_u, wall_t)
        print_table(table, wall_t)
        path = root / "perfbench" / "out" / f"trace_{args.workload}_seed{args.seed}.npz"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(root)}")
        attempted = client.attempted + traced.attempted
        failed = client.failed + traced.failed

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")

    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1

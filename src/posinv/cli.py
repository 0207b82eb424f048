"""Command-line surface: generation, mode comparison, invariance suites,
bias scans, and overhead benchmarking.

Exit codes: 0 success / assertions hold; 1 usage error; 2 model or
prompt I/O error; 3 invariance assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

import numpy as np

from . import pine
from .kernels import ShapeError
from .model import (
    GenerationParams,
    Model,
    ModelConfig,
    WeightError,
    continuation_logprob,
    decode_step,
    generate,
    init_random,
    load_weights,
    prefill,
    save_weights,
)
from .modes import VARIANTS, AttentionMode
from .oracle import enumerate_orders, run_suite
from .prompts import PromptError, SegmentedPrompt, detokenize, parse_prompt_file, tokenize

ARTIFACT_VERSION = "1"

USAGE_ERROR, IO_ERROR, INVARIANCE_FAILURE = 1, 2, 3

SCAN_METRICS = ("gold_token_logprob", "exact_match")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, USAGE_ERROR)


def _config_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _load_model(args) -> Model:
    try:
        config, weights = load_weights(args.model, args.config)
    except (OSError, WeightError) as exc:
        raise CliError(f"cannot load model: {exc}", IO_ERROR)
    return Model(config, weights)


def _load_prompt(path) -> SegmentedPrompt:
    try:
        return parse_prompt_file(path)
    except (OSError, PromptError) as exc:
        raise CliError(f"cannot load prompt: {exc}", IO_ERROR)


def _mode(name: str, aggregation: str) -> AttentionMode:
    if name not in VARIANTS:
        raise CliError(f"unknown mode {name!r}", USAGE_ERROR)
    return AttentionMode(name, aggregation=aggregation)


def _modes(args) -> list[AttentionMode]:
    return [_mode(m.strip(), args.aggregation) for m in args.modes.split(",") if m.strip()]


def _write_report(args, report: dict) -> None:
    if getattr(args, "report_out", None):
        with open(args.report_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


def _check_fits(model: Model, n_prompt: int, new_tokens: int) -> None:
    """Refuse up front a generation the cache cannot hold: the prompt and
    every generated token but the last are fed through the model."""
    need = n_prompt + max(new_tokens - 1, 0)
    if need > model.config.max_seq_len:
        raise CliError(f"prompt of {n_prompt} tokens plus {new_tokens} new tokens needs {need} "
                       f"positions, more than max_seq_len {model.config.max_seq_len}",
                       USAGE_ERROR)


_EMPTY_SUFFIX = ("with an empty suffix the last prompt token belongs to a document, "
                 "so its logits depend on the document order")


def _base_report(args, extra_cfg) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "command": " ".join(sys.argv[1:]),
        "config_hash": _config_hash(vars(args), extra_cfg),
        "timings": {},
    }


def cmd_init(args) -> int:
    try:
        config = ModelConfig(
            n_layers=args.n_layers, n_heads=args.n_heads, n_kv_heads=args.n_kv_heads,
            d_model=args.n_heads * args.d_head, d_head=args.d_head, d_ff=args.d_ff,
            vocab_size=args.vocab_size, max_seq_len=args.max_seq_len,
        )
    except WeightError as exc:
        raise CliError(f"bad model shape: {exc}", USAGE_ERROR)
    weights = init_random(config, args.seed)
    save_weights(args.model, args.config, Model(config, weights))
    print(f"wrote {args.model} and {args.config} (seed {args.seed})")
    return 0


def cmd_run(args) -> int:
    model = _load_model(args)
    prompt = _load_prompt(args.prompt)
    mode = _mode(args.mode, args.aggregation)
    tokens, layout = tokenize(prompt, bos=args.bos)
    _check_fits(model, len(tokens), args.max_new_tokens)
    report = _base_report(args, vars(model.config))
    t0 = time.perf_counter()
    params = GenerationParams(
        max_new_tokens=args.max_new_tokens, mode=mode, canonical=args.canonical
    )
    out = generate(model, tokens, layout, params)
    report["timings"]["generate_s"] = time.perf_counter() - t0
    text = detokenize(out)
    report["results"] = {"mode": mode.variant, "tokens": out, "text": text}
    print(text)
    _write_report(args, report)
    return 0


def cmd_compare(args) -> int:
    model = _load_model(args)
    prompt = _load_prompt(args.prompt)
    tokens, layout = tokenize(prompt, bos=args.bos)
    _check_fits(model, len(tokens), args.max_new_tokens)
    report = _base_report(args, vars(model.config))
    results = {}
    for mode in _modes(args):
        t0 = time.perf_counter()
        params = GenerationParams(
            max_new_tokens=args.max_new_tokens, mode=mode, canonical=args.canonical
        )
        out = generate(model, tokens, layout, params)
        results[mode.variant] = {"tokens": out, "text": detokenize(out)}
        report["timings"][mode.variant + "_s"] = time.perf_counter() - t0
        print(f"{mode.variant}\t{results[mode.variant]['text']!r}")
    report["results"] = results
    _write_report(args, report)
    return 0


def cmd_invariance(args) -> int:
    if args.limit < 2:
        raise CliError("invariance needs --limit >= 2 orders", USAGE_ERROR)
    if not args.tolerance >= 0:  # also rejects NaN
        raise CliError(f"--tolerance must be >= 0, got {args.tolerance}", USAGE_ERROR)
    model = _load_model(args)
    prompt = _load_prompt(args.prompt)
    if prompt.k < 2:
        raise CliError("invariance requires a prompt with k >= 2 documents", USAGE_ERROR)
    if not prompt.suffix:
        raise CliError(f"invariance needs a non-empty suffix: {_EMPTY_SUFFIX}", USAGE_ERROR)
    _check_fits(model, len(tokenize(prompt, bos=args.bos)[0]), args.max_new_tokens)
    orders = enumerate_orders(prompt.k, args.limit, seed=args.seed)
    report = _base_report(args, vars(model.config))
    results = {}
    ok = True
    for mode in _modes(args):
        t0 = time.perf_counter()
        rep = run_suite(
            model, prompt, mode, orders, args.max_new_tokens,
            canonical=args.canonical, bos=args.bos,
        )
        report["timings"][mode.variant + "_s"] = time.perf_counter() - t0
        invariant = rep.outputs_identical and rep.max_abs_logit_diff <= args.tolerance
        expected = mode.invariant
        passed = invariant if expected else not invariant
        ok &= passed
        results[mode.variant] = {
            **rep.to_dict(),
            "expected_invariant": expected,
            "observed_invariant": invariant,
            "passed": passed,
        }
        word = "invariant" if invariant else "NOT invariant"
        print(
            f"{mode.variant}: {word} over {rep.permutations_tested} orders, "
            f"max |dlogit| = {rep.max_abs_logit_diff:.3e} "
            f"[{'pass' if passed else 'FAIL'}]"
        )
    report["results"] = results
    _write_report(args, report)
    return 0 if ok else INVARIANCE_FAILURE


def _load_scan(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            scan = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints
        raise CliError(f"cannot load scan config: {exc}", IO_ERROR)
    if not isinstance(scan, dict):
        raise CliError("scan config must be a JSON object", USAGE_ERROR)
    for key in ("prefix", "needle", "gold", "distractors", "suffix"):
        if key not in scan:
            raise CliError(f"scan config missing key {key!r}", USAGE_ERROR)
    for key in ("prefix", "needle", "gold", "suffix"):
        if not isinstance(scan[key], str):
            raise CliError(f"scan {key} must be a string", USAGE_ERROR)
        if key in ("needle", "gold") and not scan[key]:
            raise CliError(f"scan {key} must be non-empty", USAGE_ERROR)
    if not scan["suffix"]:
        raise CliError(f"scan suffix must be non-empty: {_EMPTY_SUFFIX}", USAGE_ERROR)
    distractors = scan["distractors"]
    if not isinstance(distractors, list) or not all(isinstance(d, str) and d for d in distractors):
        raise CliError("scan distractors must be a list of non-empty strings", USAGE_ERROR)
    try:
        for text in (scan["prefix"], scan["needle"], scan["gold"], scan["suffix"], *distractors):
            text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CliError(f"cannot load scan config: text is not UTF-8: {exc}", IO_ERROR)
    k = len(distractors) + 1
    positions = scan.get("positions")
    if "positions" in scan and not (isinstance(positions, list) and positions and all(
            type(p) is int and 0 <= p < k for p in positions)):
        raise CliError(f"scan positions must be a non-empty list of ints in 0..{k - 1}",
                       USAGE_ERROR)
    if scan.get("metric", SCAN_METRICS[0]) not in SCAN_METRICS:
        raise CliError(f"unknown metric {scan['metric']!r}; use one of {SCAN_METRICS}",
                       USAGE_ERROR)
    return scan


def cmd_bias_scan(args) -> int:
    model = _load_model(args)
    scan = _load_scan(args.scan)
    k = len(scan["distractors"]) + 1
    positions = scan.get("positions", list(range(k)))
    metric = scan.get("metric", SCAN_METRICS[0])
    gold_tokens = list(scan["gold"].encode("utf-8"))
    docs = (scan["needle"], *scan["distractors"])  # every gold position gives this length
    n_prompt = len(tokenize(SegmentedPrompt(scan["prefix"], docs, scan["suffix"]), bos=args.bos)[0])
    _check_fits(model, n_prompt, len(gold_tokens))
    report = _base_report(args, scan)
    rows = []
    print("mode\tgold_position\t" + metric)
    for mode in _modes(args):
        for p in positions:
            docs = list(scan["distractors"])
            docs.insert(p, scan["needle"])
            prompt = SegmentedPrompt(scan["prefix"], tuple(docs), scan["suffix"])
            tokens, layout = tokenize(prompt, bos=args.bos)
            if metric == "gold_token_logprob":
                value = continuation_logprob(
                    model, tokens, layout, mode, gold_tokens, canonical=args.canonical
                )
            else:  # exact_match
                params = GenerationParams(
                    max_new_tokens=len(gold_tokens), mode=mode, canonical=args.canonical
                )
                value = float(generate(model, tokens, layout, params) == gold_tokens)
            rows.append({"mode": mode.variant, "gold_position": p, "value": value})
            print(f"{mode.variant}\t{p}\t{value:.6f}")
    report["results"] = {"metric": metric, "rows": rows}
    _write_report(args, report)
    return 0


def comparator_counts_per_token(model: Model, k_values: list[int], doc_len: int = 3) -> dict[int, int]:
    """Sort-comparator invocations during one decoded token, per k; a k
    whose prompt and decoded token do not fit in max_seq_len is skipped."""
    counts = {}
    for k in k_values:
        docs = tuple(chr(ord("a") + (j % 26)) * doc_len for j in range(k))
        prompt = SegmentedPrompt("sys:", docs, "q?")
        tokens, layout = tokenize(prompt)
        if len(tokens) + 1 > model.config.max_seq_len:
            continue
        mode = AttentionMode("pine")
        cache, logits = prefill(model, tokens, layout, mode)
        pine.reset_comparison_count()
        decode_step(model, cache, int(np.argmax(logits)), mode)
        counts[k] = pine.comparison_count()
    return counts


def cmd_bench(args) -> int:
    model = _load_model(args)
    prompt = _load_prompt(args.prompt)
    if args.repeats < 3:
        raise CliError("bench needs --repeats >= 3", USAGE_ERROR)
    tokens, layout = tokenize(prompt, bos=args.bos)
    _check_fits(model, len(tokens), args.max_new_tokens)
    report = _base_report(args, vars(model.config))
    modes = _modes(args)
    baseline = AttentionMode("vanilla", aggregation=args.aggregation)
    if baseline not in modes:
        modes.insert(0, baseline)
    medians = {}
    print("mode\tmedian_s\tratio_vs_vanilla")
    for mode in modes:
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            params = GenerationParams(
                max_new_tokens=args.max_new_tokens, mode=mode, canonical=args.canonical
            )
            generate(model, tokens, layout, params)
            times.append(time.perf_counter() - t0)
        medians[mode.variant] = statistics.median(times)
    for mode in modes:
        ratio = medians[mode.variant] / medians[baseline.variant]
        print(f"{mode.variant}\t{medians[mode.variant]:.4f}\t{ratio:.2f}")
    counts = comparator_counts_per_token(model, [2, 4, 8, 16, 32])
    print("k\tcomparator_invocations_per_decoded_token")
    for k, c in counts.items():
        print(f"{k}\t{c}")
    report["results"] = {
        "median_s": medians,
        "ratio_vs_vanilla": {m: medians[m] / medians[baseline.variant] for m in medians},
        "comparator_counts": counts,
    }
    _write_report(args, report)
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(p, prompt_required=True):
    p.add_argument("--model", required=True, help="weight container path")
    p.add_argument("--config", required=True, help="model config path")
    if prompt_required:
        p.add_argument("--prompt", required=True, help="JSON prompt file")
    p.add_argument("--aggregation", default="mean", choices=["mean", "sum", "max"])
    p.add_argument("--bos", action="store_true", help="prepend a BOS token")
    p.add_argument("--report-out", default=None, help="write a JSON report here")
    p.add_argument(
        "--canonical-reduction", dest="canonical", action=argparse.BooleanOptionalAction,
        default=True, help="reduce keys in assigned-position order (bitwise invariance)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="posinv")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("init", help="create a random tiny model")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--n-kv-heads", type=int, default=2)
    p.add_argument("--d-head", type=int, default=16)
    p.add_argument("--d-ff", type=int, default=128)
    p.add_argument("--vocab-size", type=int, default=260)
    p.add_argument("--max-seq-len", type=int, default=2048)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("run", help="generate a continuation")
    _add_common(p)
    p.add_argument("--mode", default="pine", choices=VARIANTS)
    p.add_argument("--max-new-tokens", type=_count, default=32)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="generate under several modes")
    _add_common(p)
    p.add_argument("--modes", default="vanilla,pine")
    p.add_argument("--max-new-tokens", type=_count, default=32)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("invariance", help="permutation invariance suite")
    _add_common(p)
    p.add_argument("--modes", default="pine,pcw,sp")
    p.add_argument("--limit", type=int, default=24, help="max permutations to test")
    p.add_argument("--max-new-tokens", type=_count, default=8)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("bias-scan", help="sweep the gold document position")
    _add_common(p, prompt_required=False)
    p.add_argument("--scan", required=True, help="scan config JSON")
    p.add_argument("--modes", default="vanilla,pine")
    p.set_defaults(func=cmd_bias_scan)

    p = sub.add_parser("bench", help="wall-time and sorting-cost benchmark")
    _add_common(p)
    p.add_argument("--modes", default="vanilla,pine")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--max-new-tokens", type=_count, default=8)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ShapeError as exc:  # an input the model cannot take, e.g. too long
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

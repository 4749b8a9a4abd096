"""Command-line entry point.

Subcommands: params, train, embr, decode, convert-lookup, bench.
Exit codes: 0 success, 1 other error, 2 schema, 3 I/O, 4 capacity,
5 divergence.  Failures print one line ``error[<category>]: <message>`` to
stderr; numpy's floating-point flags are ignored, as the package's typed
checks report non-finite results.  JSON output uses sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import bench_decoders
from .config import DecoderConfig
from .decoding import beam_decode, convert_to_lookup, greedy_decode
from .embr import dev_risk
from .errors import (
    ArchiveError,
    CapacityError,
    ConfigError,
    DivergenceError,
    DomainError,
    RnntError,
)
from .model_io import load, read_archive, save, save_lookup, write_atomic
from .runconfig import RunConfig, load_run_config
from .toy import toy_encode
from .train import embr_phase, toy_corpus, train
from .weights import init_weights, param_count, step_flops, tied_savings

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_CAPACITY = 4
EXIT_DIVERGENCE = 5


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _params_decoders(cfg: RunConfig) -> list[tuple[str, DecoderConfig]]:
    if cfg.bench is not None and cfg.bench.decoders:
        return cfg.bench.decoders
    if cfg.decoder is not None:
        return [("decoder", cfg.decoder)]
    raise ConfigError("config has neither a decoder section nor bench.decoders")


def cmd_params(args) -> int:
    cfg = load_run_config(args.config)
    decoders = _params_decoders(cfg)
    report = []
    for name, dec in decoders:
        counts = param_count(dec)
        entry = {
            "name": name,
            "variant": dec.variant,
            "tied": dec.tied,
            "breakdown": {k: v for k, v in counts.items() if k != "total"},
            "total": counts["total"],
            "tied_savings": tied_savings(dec) if dec.tied else 0,
        }
        report.append(entry)
    if args.json:
        _emit_json({"decoders": report})
        return EXIT_OK
    for entry, (_, dec) in zip(report, decoders):
        print(f"decoder: {entry['name']} (variant={entry['variant']}, tied={entry['tied']})")
        width = max(len(k) for k in entry["breakdown"])
        for tensor, count in entry["breakdown"].items():
            print(f"  {tensor:<{width}}  {count:>14,}")
        print(f"  {'total':<{width}}  {entry['total']:>14,}")
        if entry["tied"]:
            print(
                f"  tied savings: d_h*|V| = {dec.d_h}*{dec.vocab_size} "
                f"= {entry['tied_savings']:,}"
            )
        print()
    if len(report) > 1:
        ordered = sorted(report, key=lambda e: -e["total"])
        print("size ordering: " + " > ".join(f"{e['name']} ({e['total']:,})" for e in ordered))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    cfg.require("decoder", "task", "train")
    hp = cfg.train
    if args.seed is not None:
        hp = replace(hp, seed=args.seed)
    result = train(cfg.decoder, cfg.task, hp)
    save(result.weights, cfg.decoder, args.out_model, seed=hp.seed)
    metrics_path = args.out_model + ".metrics.jsonl"
    write_atomic(metrics_path, "".join(
        json.dumps(m.to_dict(), sort_keys=True) + "\n" for m in result.metrics).encode("utf-8"))
    final = result.metrics[-1]
    print(f"model: {args.out_model}")
    print(f"metrics: {metrics_path}")
    print(f"train steps: {result.train_steps}")
    print(f"final loss: {final.loss:.6f}")
    print(f"final dev token error rate: {final.dev_token_error_rate:.4f}")
    return EXIT_OK


def cmd_embr(args) -> int:
    cfg = load_run_config(args.config)
    cfg.require("task", "train", "embr")
    weights, dec_cfg = load(args.in_model)
    extra = read_archive(args.in_model).extra
    params = cfg.embr
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    # the corpus and step count of the cmd_train run that made the model
    train_set, dev_set, main_steps = toy_corpus(dec_cfg, cfg.task, cfg.train)
    risk_before = dev_risk(dev_set, weights, dec_cfg, params)
    result = embr_phase(weights, dec_cfg, train_set, params, main_train_steps=main_steps)
    try:
        risk_after = dev_risk(dev_set, result.weights, dec_cfg, params)
    except DomainError as e:  # the same dev set scored before the phase
        raise DivergenceError(f"EMBR diverged in its last update (step {result.steps - 1}): {e}") from e
    save(result.weights, dec_cfg, args.out_model, seed=params.seed, extra=extra)
    print(f"model: {args.out_model}")
    print(f"embr steps: {result.steps} (main training steps: {main_steps})")
    print(f"skipped utterances: {result.skipped}")
    print(f"dev risk before: {risk_before:.6f}")
    print(f"dev risk after: {risk_after:.6f}")
    return EXIT_OK


def _input_array(doc: dict, key: str, width: int, dtype, path: str) -> np.ndarray:
    """``doc[key]`` as a finite (T, width) array of ``dtype``, else ConfigError."""
    try:
        arr = np.asarray(doc[key])
    except ValueError as e:  # ragged nesting
        raise ConfigError(f"{path}: '{key}' is not a rectangular array: {e}") from e
    if arr.shape == (0,):  # an empty utterance: no rows at all
        arr = arr.reshape(0, width)
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{path}: '{key}' must hold numbers only")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ConfigError(f"{path}: '{key}' has shape {arr.shape}, expected (T, {width})")
    with np.errstate(over="ignore"):  # values beyond f4 range become inf, rejected below
        arr = arr.astype(dtype)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: '{key}' holds NaN or infinite values")
    return arr


def _load_input_frames(path: str, weights):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ArchiveError(f"cannot read input {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or ("frames" not in doc) == ("features" not in doc):
        raise ConfigError(f"{path}: input must contain exactly one of 'frames' or 'features'")
    if "frames" in doc:
        return _input_array(doc, "frames", weights.enc_w.shape[0], weights.dtype, path)
    if weights.enc_stub is None:
        raise ConfigError(f"{path}: model has no encoder stub; provide 'frames' instead")
    features = _input_array(doc, "features", weights.enc_stub.w.shape[0], weights.dtype, path)
    return toy_encode(features, weights.enc_stub)


def cmd_decode(args) -> int:
    weights, dec_cfg = load(args.model)
    # overflow, not "invalid": finite inputs reach NaN only through an
    # overflow, and small f4 BLAS products can raise the invalid flag on
    # finite operands
    try:
        with np.errstate(over="raise"):
            frames = _load_input_frames(args.input, weights)
            if args.beam is None:
                result = greedy_decode(frames, weights, dec_cfg)
            else:
                nbest = beam_decode(frames, weights, dec_cfg, args.beam)
    except FloatingPointError as e:  # finite input too large for the model's arithmetic
        raise ConfigError(
            f"{args.input}: input values overflow {weights.dtype} arithmetic ({e})"
        ) from None
    if args.beam is None:
        if args.json:
            _emit_json({"labels": result.labels, "log_prob": result.log_prob})
        else:
            print(("labels: " + " ".join(map(str, result.labels))).rstrip())
            print(f"log_prob: {result.log_prob:.6f}")
    elif args.json:
        _emit_json({"nbest": [{"labels": list(h.labels), "log_prob": h.log_prob} for h in nbest]})
    else:
        for rank, h in enumerate(nbest):
            print(f"{rank}\t{h.log_prob:.6f}\t{' '.join(map(str, h.labels))}")
    return EXIT_OK


def cmd_convert_lookup(args) -> int:
    weights, dec_cfg = load(args.model)
    table = convert_to_lookup(weights, dec_cfg, max_entries=args.budget)
    save_lookup(table, args.out)
    print(f"lookup: {args.out}")
    print(f"entries: {table.table.shape[0]} x {table.table.shape[1]}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_run_config(args.config)
    cfg.require("bench")
    bench = cfg.bench
    if not bench.decoders:
        raise ConfigError("bench.decoders must list at least one decoder")
    seed = args.seed if args.seed is not None else bench.seed
    dtype = np.float32 if bench.dtype == "f4" else np.float64
    warmup = bench.warmup or bench.runs // 10
    # Build every decoder before any timing starts.
    built = [
        (name, init_weights(dec, seed=seed, dtype=dtype), dec)
        for name, dec in bench.decoders
    ]
    records = bench_decoders(built, bench.runs, warmup, seed=seed)
    flops = {name: step_flops(dec) for name, dec in bench.decoders}
    base_name = records[0].decoder_name
    comparisons = [
        {
            "decoder_name": r.decoder_name,
            "speedup": records[0].mean_ms / r.mean_ms,
            "flops_ratio": flops[base_name] / flops[r.decoder_name],
        }
        for r in records[1:]
    ]
    if args.json:
        _emit_json(
            {
                "records": [r.to_dict() for r in records],
                "baseline": base_name,
                "comparisons": comparisons,
                "flops_per_step": flops,
                "dtype": bench.dtype,
            }
        )
        return EXIT_OK
    print(f"core: {records[0].core_label}")
    print(f"runs: {bench.runs} (dtype {bench.dtype})")
    name_w = max(len(r.decoder_name) for r in records)
    for r in records:
        print(
            f"  {r.decoder_name:<{name_w}}  {r.mean_ms:9.3f} ms +/- {r.std_ms:.3f}"
            f"   ({flops[r.decoder_name]:,} flops/step)"
        )
    for comp in comparisons:
        print(
            f"speedup {comp['decoder_name']} vs {base_name}: {comp['speedup']:.2f}x "
            f"(flop ratio {comp['flops_ratio']:.2f}x)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnntdec",
        description="Train, decode, convert, size, and benchmark small transducer decoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="per-tensor parameter breakdown")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("train", help="train on the toy task, write a model archive")
    p.add_argument("config")
    p.add_argument("out_model")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embr", help="risk fine-tune a trained model")
    p.add_argument("config")
    p.add_argument("in_model")
    p.add_argument("out_model")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_embr)

    p = sub.add_parser("decode", help="decode frames or features with a model archive")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("convert-lookup", help="precompute the prediction network table")
    p.add_argument("model")
    p.add_argument("out")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_convert_lookup)

    p = sub.add_parser("bench", help="time decoder steps and report speedups")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    return parser


_EXIT_CODES = [
    (ConfigError, EXIT_SCHEMA),
    (CapacityError, EXIT_CAPACITY),
    (DivergenceError, EXIT_DIVERGENCE),
    (ArchiveError, EXIT_IO),
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except RnntError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        for exc_type, code in _EXIT_CODES:
            if isinstance(e, exc_type):
                return code
        return EXIT_ERROR
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

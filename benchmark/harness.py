"""Runs one workload: set-up, the four timed operations, checks, metrics.

Each operation is a closed loop with one caller: the next call starts when
the previous one returns.  After a warm-up, the four operations take turns
in short slices until the run time is used up, and each then finishes its
pass over its inputs; ``gc.collect()`` runs outside the timed calls.  A
short slice of the fixed reference work in ``probe.py`` follows every
operation's slice, and every timing metric is scaled by the host's speed,
the probe's rate against its reference rate (see ``OpLoop.summary``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext

import numpy as np

import checks
import probe
import reference
import rnntdec
import workloads
from rnntdec.bench import cpu_label
from rnntdec.errors import RnntError
from rnntdec.embr import utterance_risk_grads
from rnntdec.train import utterance_loss_grads
from rnntdec.weights import clone_weights
from tracing import LayerStats, Tracer

OPS = ("greedy", "beam", "train", "embr")
# the traced run's spans must account for this share of each operation
MIN_SPAN_COVERAGE = 0.85
# length of one operation's turn in the round-robin schedule
SLICE_S = 0.25
# length of the probe's turn after each operation's slice and on each side
# of a set-up
PROBE_SLICE_S = 0.1
SETUP_PROBE_S = 0.25
# size of the small probe paired with every greedy and beam call
PAIR_SCALE = 0.25
# set-ups per run; setup_s is their median
SETUPS = 3
GREEDY_WARMUP_CALLS = 8
# the traced run repeats 1/TRACED_PASS_SHARE of the untraced passes, which keeps
# the spans held in memory to a few hundred thousand
TRACED_PASS_SHARE = 4


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "cpu": cpu_label(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


class OpLoop:
    """Closed loop over one operation's calls, resumable across slices.

    ``first[i]`` holds the signature and result of call i's first run;
    every later run of call i must reproduce the signature.
    """

    def __init__(self, op, calls, first, mismatches, tracer=None, pair=None):
        self.op, self.calls, self.first, self.mismatches = op, calls, first, mismatches
        self.span = tracer.span if tracer else (lambda name: nullcontext())
        self.cursor = 0
        self.passes = 0
        self.records: list[tuple[float, float, float]] = []  # (start, frames, seconds)
        # ``pair``, a loop of the small probe, makes one call after every call
        # of this one; paired[k] is the probe's time after records[k]
        self.pair = pair
        self.paired: list[float] = []
        # a single long call (train, embr) gets its own gc.collect()
        self.collect_each_call = len(calls) == 1 and op != "probe"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def step(self):
        i, call = self.cursor, self.calls[self.cursor]
        args = call.prepare()
        if self.collect_each_call:
            gc.collect()
        self.attempted += 1
        try:
            with self.span(f"bench.{self.op}"):
                t0 = time.perf_counter()
                out = call.run(*args)
                dt = time.perf_counter() - t0
        except RnntError as e:
            self.failed += 1
            self.errors.append(f"{self.op} call {i}: {type(e).__name__}: {e}")
        else:
            self.records.append((t0, call.frames(out) if callable(call.frames) else call.frames, dt))
            if self.pair is not None:
                self.pair.step()
                self.paired.append(self.pair.records[-1][2])
            sig = workloads.signature(self.op, out)
            if self.first[i] is None:
                self.first[i] = (sig, out)
            elif sig != self.first[i][0]:
                self.mismatches.append(f"{self.op} call {i}: repeated call gave a different result")
        self.cursor = (i + 1) % len(self.calls)
        if self.cursor == 0:
            self.passes += 1

    def run_for(self, seconds):
        """Calls until ``seconds`` have gone by, at least one; one slice."""
        gc.collect()
        start = time.perf_counter()
        self.step()
        while time.perf_counter() - start < seconds:
            self.step()

    def finish_pass(self):
        while self.cursor:
            self.step()

    def run_passes(self, passes):
        gc.collect()
        for _ in range(passes * len(self.calls)):
            self.step()

    def summary(self, speed) -> dict:
        """Timings scaled by the host's speed and, as ``*_raw``, as measured.

        Frames per second are divided by ``speed``, the host's speed over
        the whole run.  With a paired probe, each call's time is multiplied
        by the speed at that call: ``speed`` times the paired probe's rate
        right after the call over its mean rate in the run; the median and
        the tail are taken over those times."""
        rec = np.array(self.records).reshape(-1, 3)
        raw_rate = rate(self.records)
        out = {"samples": len(rec), "attempted": self.attempted, "failed": self.failed,
               "passes": self.passes, "frames_per_s": raw_rate / speed,
               "frames_per_s_raw": raw_rate, "p50_ms_raw": float(np.median(rec[:, 2])) * 1e3}
        if self.paired:
            pair = np.array(self.paired)
            ms = rec[:, 2] * speed * pair.mean() / pair * 1e3
            out["p50_ms"] = float(np.median(ms))
            tail = [p for p in (75, 90, 99, 99.9) if len(ms) * (100 - p) / 100 >= 10]
            if len(ms) >= 40 and tail:
                out[f"p{tail[-1]:g}_ms"] = float(np.percentile(ms, tail[-1]))
        return out


def rate(records) -> float:
    """Frames per second over (start, frames, seconds) records."""
    return sum(r[1] for r in records) / sum(r[2] for r in records)


def interleave(loops, probe_loop, seconds):
    """Round-robin slices of every operation, each followed by a slice of
    the probe, until ``seconds`` have gone by; then finish each operation's
    current pass.  Slices spread every operation and the probe over the
    whole run, so a slow or fast spell of the machine falls on all of them
    alike."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for loop in loops:
            loop.run_for(SLICE_S)
            probe_loop.run_for(PROBE_SLICE_S)
    for loop in loops:
        loop.finish_pass()
        probe_loop.run_for(PROBE_SLICE_S)


def warm_up(op, calls, first, mismatches):
    n = GREEDY_WARMUP_CALLS if op == "greedy" else 1
    OpLoop(op, calls[:n], first, mismatches).run_passes(1)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, out_dir: str):
    spec = workloads.SPECS[workload]
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer()

    probe_call = workloads.Call(probe.Probe(), 1)
    probe_first: list = [None]
    mismatches: list[str] = []
    warm_up("probe", [probe_call], probe_first, mismatches)
    probe_loop = OpLoop("probe", [probe_call], probe_first, mismatches)

    def timed_setup():
        """One set-up between two probe slices; returns its context, its
        time as measured and its time scaled by those slices' speed."""
        lo = len(probe_loop.records)
        probe_loop.run_for(SETUP_PROBE_S)
        t0 = time.perf_counter()
        ctx = workloads.setup(spec, seed, root, out_dir, lambda name: nullcontext())
        dt = time.perf_counter() - t0
        probe_loop.run_for(SETUP_PROBE_S)
        return ctx, (dt, dt * rate(probe_loop.records[lo:]) / probe.REFERENCE_RATE)

    # SETUPS - 1 set-ups before the timed operations and one after them, so
    # that setup_s sees the same machine as they do
    ctx, first_setup = timed_setup()
    setups = [first_setup] + [timed_setup()[1] for _ in range(SETUPS - 2)]
    ops = workloads.operations(ctx)
    firsts = {op: [None] * len(ops[op]) for op in OPS}
    for op in OPS:
        warm_up(op, ops[op], firsts[op], mismatches)
    pair_first: list = [None]
    pair_loop = OpLoop("probe", [workloads.Call(probe.Probe(PAIR_SCALE), 1)], pair_first, mismatches)
    pair_loop.run_passes(1)
    runs = {op: OpLoop(op, ops[op], firsts[op], mismatches,
                       pair=pair_loop if op in ("greedy", "beam") else None) for op in OPS}
    lo = len(probe_loop.records)
    interleave(list(runs.values()), probe_loop, seconds / 2 if trace else seconds)
    # the host's speed while the operations ran, against the probe's reference rate
    speed = rate(probe_loop.records[lo:]) / probe.REFERENCE_RATE

    spans, traced_runs = {}, {}
    if trace:
        for op in OPS:
            lo = len(tracer.spans)
            traced_runs[op] = OpLoop(op, ops[op], firsts[op], mismatches, tracer)
            with tracer.installed():
                traced_runs[op].run_passes(max(1, runs[op].passes // TRACED_PASS_SHARE))
            spans[op] = (lo, len(tracer.spans))

    again_ctx, last_setup = timed_setup()
    again = again_ctx.archives
    setups.append(last_setup)
    setup_times = [raw for raw, _ in setups]
    setup_scaled = [scaled for _, scaled in setups]
    if trace:
        lo = len(tracer.spans)
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                workloads.setup(spec, seed, root, out_dir, tracer.span)
            traced_setup = time.perf_counter() - t0
        spans["setup"] = (lo, len(tracer.spans))

    failures = list(mismatches)
    for r in runs.values():
        failures += r.errors
    info = {}
    failures += run_checks(spec, ctx, firsts, out_dir, info)
    failures += [f"archive {name}: a second set-up saved different bytes"
                 for name, entry in ctx.archives.items() if again[name][0] != entry[0]]

    summaries = {op: r.summary(speed) for op, r in runs.items()}
    if trace:
        layer_metrics = per_layer(tracer, spans, traced_runs, runs,
                                  float(np.median(setup_times)), traced_setup)
        for op in OPS + ("setup",):
            share = layer_metrics[f"{op}.trace.unattributed_share"]["value"]
            if share > 1.0 - MIN_SPAN_COVERAGE:
                failures.append(f"{op}: traced calls cover {1 - share:.1%} of the operation")
        tracer.save(os.path.join(out_dir, f"trace-{workload}-seed{seed}.npz"))
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": metric(np.median(setup_scaled), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "greedy_frames_per_s": metric(summaries["greedy"]["frames_per_s"], "frames/s"),
            "greedy_ms_p50": metric(summaries["greedy"]["p50_ms"], "ms"),
            "beam_frames_per_s": metric(summaries["beam"]["frames_per_s"], "frames/s"),
            "beam_ms_p50": metric(summaries["beam"]["p50_ms"], "ms"),
            "train_frames_per_s": metric(summaries["train"]["frames_per_s"], "frames/s"),
            "embr_frames_per_s": metric(summaries["embr"]["frames_per_s"], "frames/s"),
        }

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "setup_s": setup_scaled,
        "setup_s_raw": setup_times,
        "host_speed": speed,
        "operations": summaries,
        "records": {op: r.records for op, r in runs.items()},
        "probe_records": probe_loop.records,
        "paired": {op: r.paired for op, r in runs.items()},
        "checks": info,
        "failures": failures,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"run-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report


def run_checks(spec, ctx, firsts, out_dir, info):
    """Independent checks of every operation's outputs; returns failures."""
    failures = []
    ref = reference.RefModel(ctx.decode_weights, ctx.decode_cfg)
    dtype = ctx.decode_weights.dtype

    greedy = [f[1] for f in firsts["greedy"]]
    fails, stats = checks.check_greedy(ref, ctx.greedy_frames, greedy, dtype)
    failures += fails
    info["greedy"] = stats
    if ctx.references is not None:
        fails, info["greedy_token_error_rate"] = checks.check_token_error_rate(
            [r.labels for r in greedy], ctx.references, spec.name)
        failures += fails

    nbests = [f[1] for f in firsts["beam"]]
    fails, info["beam_worst_margin"] = checks.check_beam(
        ref, ctx.beam_frames, nbests, workloads.BEAM_WIDTH, dtype)
    failures += fails

    train_cfg = ctx.train_args[0]
    trained = firsts["train"][0][1]
    utts = trained.train_set[:2]
    nll = [utterance_loss_grads(u, trained.weights, train_cfg)[0] for u in utts]
    failures += checks.check_lattice(trained.weights, train_cfg, utts, nll)
    failures += _train_gradient_check(trained.weights, train_cfg, utts[0])

    embr = firsts["embr"][0][1]
    risks = np.array(embr.step_risks)
    if embr.skipped or not np.all(np.isfinite(risks)) or np.any(risks < 0):
        failures.append(f"embr: step risks {embr.step_risks}, skipped {embr.skipped}")
    failures += _embr_checks(ctx, info)

    failures += _archive_checks(ctx, out_dir)
    return failures


def _probes(weights, utt):
    label = utt.labels[0]
    return [
        ("proj_w", weights.proj_w, (0, 1)),
        ("emb", weights.emb, (label, 2)),
        ("enc_w", weights.enc_w, (1, 3)),
        ("enc_stub_w", weights.enc_stub.w, (label, 3)),
    ]


def _train_gradient_check(weights, cfg, utt):
    w = clone_weights(weights)
    _, grads = utterance_loss_grads(utt, w, cfg)
    fn = lambda: reference.utterance_nll(w, cfg, utt.features, utt.labels)  # noqa: E731
    return checks.check_gradients(fn, w, grads, _probes(w, utt), "train")


def _embr_checks(ctx, info):
    """One EMBR step on one batch against the reference risk, plus a
    finite-difference check of the risk gradient."""
    cfg, params = ctx.embr_cfg, ctx.embr_params
    batch = ctx.embr_utts[: params.batch_size]
    w = clone_weights(ctx.embr_weights)
    failures, risks, hyp_lists = [], [], []
    ref = reference.RefModel(w, cfg)
    for utt in batch:
        frames = rnntdec.toy_encode(utt.features, w.enc_stub)
        nbest = rnntdec.beam_decode(frames, w, cfg, params.beam_width)
        hyps = [h.labels for h in nbest]
        lps = [reference.exact_log_prob(ref, ref.frames(utt.features), h) for h in hyps]
        risks.append(reference.expected_risk(lps, hyps, utt.labels, params.posterior_scale)[0])
        hyp_lists.append(hyps)
        program = rnntdec.embr_risk(
            rnntdec.NBestList([rnntdec.Hypothesis(h, lp) for h, lp in zip(hyps, lps)],
                              tuple(utt.labels)), params.posterior_scale).risk
        failures += checks.check_risk(program, lps, hyps, utt.labels)
    step = rnntdec.embr_phase(clone_weights(w), cfg, batch,
                              rnntdec.EmbrParams(**{**params.to_dict(), "steps": 1}))
    own = float(np.mean(risks))
    info["embr_first_step_risk"] = own
    if abs(step.step_risks[0] - own) > checks.RISK_TOL * max(1.0, own):
        failures.append(f"embr: step risk {step.step_risks[0]:.12g} != reference {own:.12g}")

    utt, hyps = batch[0], hyp_lists[0]
    _, grads = utterance_risk_grads(utt, hyps, w, cfg, params.posterior_scale)
    fn = lambda: reference.utterance_risk(w, cfg, utt.features, utt.labels, hyps)  # noqa: E731
    failures += checks.check_gradients(fn, w, grads, _probes(w, utt), "embr")
    return failures


def _archive_checks(ctx, out_dir):
    failures = []
    tmpdir = tempfile.mkdtemp(prefix="check-", dir=out_dir)
    try:
        for name, (data, before, after, same_cfg) in ctx.archives.items():
            failures += checks.check_same_tensors(before, after, f"archive {name}")
            if not same_cfg:
                failures.append(f"archive {name}: config changed in the round trip")
            weights = ctx.decode_weights if name == "decode" else ctx.embr_weights
            cfg = ctx.decode_cfg if name == "decode" else ctx.embr_cfg
            path = os.path.join(tmpdir, "again.rnnt")
            rnntdec.save(weights, cfg, path)
            with open(path, "rb") as fh:
                if fh.read() != data:
                    failures.append(f"archive {name}: re-saving the loaded model changed its bytes")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return failures


def per_layer(tracer, spans, traced, plain, setup_plain, setup_traced):
    """Per-layer metrics of the traced run, per frame of each operation."""
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for op in OPS:
        s = LayerStats(tracer, *spans[op])
        frames = sum(r[1] for r in traced[op].records)
        us = lambda x: x / frames * 1e6  # noqa: E731
        if op in ("greedy", "beam"):
            for fn in ("prediction_forward", "embed", "predict_multi_head", "joint_hidden", "output_logits"):
                put(f"{op}.nets.{fn}.self_us_per_frame", us(s.self_of(f"nets.{fn}")), "us/frame")
            for fn in ("layer_norm", "swish", "log_softmax"):
                put(f"{op}.mathops.{fn}.self_us_per_frame", us(s.self_of(f"mathops.{fn}")), "us/frame")
            pf_calls = s.calls_of("nets.prediction_forward")
            put(f"{op}.nets.prediction_forward.calls_per_frame", pf_calls / frames, "1/frame")
        if op == "greedy":
            labels = s.count_of("decoding.greedy_decode")
            put("greedy.decoding.greedy_decode.self_us_per_frame", us(s.self_of("decoding.greedy_decode")), "us/frame")
            put("greedy.decoding.labels_per_frame", labels / frames, "1/frame")
            # every joint step either emits, ends a frame on blank, or both
            # when the per-frame cap is hit: steps = frames + labels - caps
            caps = frames + labels - s.calls_of("nets.joint_forward")
            put("greedy.decoding.cap_hits_per_frame", caps / frames, "1/frame")
            lookups = s.calls_of("decoding.greedy_decode") + labels
            put("greedy.decoding.pn_hit_ratio", 1.0 - pf_calls / lookups, "ratio")
        if op == "beam":
            put("beam.decoding.beam_decode.self_us_per_frame", us(s.self_of("decoding.beam_decode")), "us/frame")
            joint = s.calls_of("nets.joint_forward")
            put("beam.nets.joint_forward.calls_per_frame", joint / frames, "1/frame")
            # one prediction lookup per scored hypothesis, plus one per n-best entry
            lookups = joint + s.count_of("decoding.beam_decode")
            put("beam.decoding.pn_hit_ratio", 1.0 - pf_calls / lookups, "ratio")
        if op in ("train", "embr"):
            put(f"{op}.lattice.transducer_loss.self_us_per_frame", us(s.self_of("lattice.transducer_loss")), "us/frame")
            put(f"{op}.lattice.cells_per_frame", s.count_of("lattice.transducer_loss") / frames, "1/frame")
            for fn in ("forward_grid", "backprop_decoder", "zero_grads"):
                put(f"{op}.backprop.{fn}.self_us_per_frame", us(s.self_of(f"backprop.{fn}")), "us/frame")
            put(f"{op}.train.SgdMomentum.step.self_us_per_frame", us(s.self_of("train.SgdMomentum.step")), "us/frame")
            put(f"{op}.toy.toy_encode.self_us_per_frame", us(s.self_of("toy.toy_encode")), "us/frame")
        if op == "train":
            put("train.train.train.self_us_per_frame", us(s.self_of("train.train")), "us/frame")
            put("train.train.token_error_rate.total_us_per_frame", us(s.total_of("train.token_error_rate")), "us/frame")
            put("train.toy.make_toy_dataset.self_us_per_frame", us(s.self_of("toy.make_toy_dataset")), "us/frame")
        if op == "embr":
            put("embr.decoding.beam_decode.total_us_per_frame", us(s.total_of("decoding.beam_decode")), "us/frame")
            for fn in ("rescore_exact", "embr_risk", "edit_distance"):
                put(f"embr.embr.{fn}.self_us_per_frame", us(s.self_of(f"embr.{fn}")), "us/frame")
            put("embr.embr.hyps_per_utt",
                s.count_of("decoding.beam_decode") / max(1.0, s.calls_of("decoding.beam_decode")), "1/utt")
        put(f"{op}.trace.overhead_share", rate(plain[op].records) / rate(traced[op].records) - 1.0, "ratio")
        put(f"{op}.trace.unattributed_share", s.unattributed_share, "ratio")

    s = LayerStats(tracer, *spans["setup"])
    put("setup.weights.init_weights.ms", s.total_of("weights.init_weights") * 1e3, "ms")
    put("setup.model_io.save.ms", s.total_of("model_io.save") * 1e3, "ms")
    put("setup.model_io.load.ms", s.total_of("model_io.load") * 1e3, "ms")
    put("setup.model_io.archive_bytes", s.count_of("model_io.save"), "bytes")
    put("setup.trace.overhead_share", setup_traced / setup_plain - 1.0, "ratio")
    put("setup.trace.unattributed_share", s.unattributed_share, "ratio")
    return out

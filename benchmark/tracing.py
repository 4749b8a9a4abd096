"""Spans recorded from outside the package.

``Tracer.install`` rebinds each traced public function to a timing wrapper
in every ``rnntdec`` module that holds it: ``from .x import y`` gives each
importing module its own binding, so wrapping the defining module alone
would miss the calls the package makes to itself.  Spans (name, start, end,
parent, count) stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs; a dotted attribute names a method.
TRACED = [
    ("decoding", "greedy_decode"),
    ("decoding", "beam_decode"),
    ("nets", "prediction_forward"),
    ("nets", "embed"),
    ("nets", "predict_multi_head"),
    ("nets", "joint_forward"),
    ("nets", "joint_hidden"),
    ("nets", "output_logits"),
    ("mathops", "layer_norm"),
    ("mathops", "swish"),
    ("mathops", "log_softmax"),
    ("lattice", "transducer_loss"),
    ("backprop", "forward_grid"),
    ("backprop", "backprop_decoder"),
    ("backprop", "zero_grads"),
    ("embr", "rescore_exact"),
    ("embr", "embr_risk"),
    ("embr", "edit_distance"),
    ("train", "train"),
    ("train", "token_error_rate"),
    ("train", "embr_phase"),
    ("train", "SgdMomentum.step"),
    ("toy", "make_toy_dataset"),
    ("toy", "toy_encode"),
    ("weights", "init_weights"),
    ("model_io", "save"),
    ("model_io", "load"),
]

# Per-span counts, taken from a call's arguments and result.
COUNTERS = {
    "decoding.greedy_decode": lambda args, out: len(out.labels),
    "decoding.beam_decode": lambda args, out: len(out),
    "lattice.transducer_loss": lambda args, out: args[0].shape[0] * args[0].shape[1],
    "model_io.save": lambda args, out: os.path.getsize(args[2]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, count]
        self._stack: list[int] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        rec = [self._name_id(name), 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "rnntdec" or n.startswith("rnntdec.")]
        for mod, attr in TRACED:
            owner = sys.modules[f"rnntdec.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{mod}.{attr}", fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(f"{mod}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self):
        a = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return (a[:, 0].astype(np.int64), a[:, 1], a[:, 2], a[:, 3].astype(np.int64), a[:, 4])

    def save(self, path: str) -> None:
        nid, start, end, parent, count = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, start=start,
                            end=end, parent=parent, count=count)


class LayerStats:
    """Per-name call counts, total, self time and counts for spans[lo:hi]."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        nid, start, end, parent, count = (a[lo:hi] for a in tracer.arrays())
        dur = end - start
        local_parent = parent - lo
        has_parent = local_parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, local_parent[has_parent], dur[has_parent])
        self_time = dur - child
        # a span whose parent has the same name is nested inside it; count
        # only the outer one towards the total
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = nid[local_parent[has_parent]] != nid[has_parent]
        self.names = tracer.names
        n = len(tracer.names)
        self.calls = np.bincount(nid, minlength=n)
        self.total = np.bincount(nid, weights=dur * outer, minlength=n)
        self.self_time = np.bincount(nid, weights=self_time, minlength=n)
        self.count = np.bincount(nid, weights=count, minlength=n)
        root = np.flatnonzero(~has_parent)
        self.root_time = float(dur[root].sum())
        self.root_covered = float(child[root].sum())

    def _get(self, arr, name):
        return float(arr[self.names.index(name)]) if name in self.names else 0.0

    def calls_of(self, name):
        return self._get(self.calls, name)

    def total_of(self, name):
        return self._get(self.total, name)

    def self_of(self, name):
        return self._get(self.self_time, name)

    def count_of(self, name):
        return self._get(self.count, name)

    @property
    def unattributed_share(self) -> float:
        """Share of the operation's time that no traced call covers."""
        return 1.0 - self.root_covered / self.root_time if self.root_time else 1.0

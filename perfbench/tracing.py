"""Spans around the entry points of cvsqi's modules, for the traced run only.

``Tracer.active`` replaces each traced function at every name the package
binds it to (``cli.normalize_cycle`` and ``preprocess.normalize_cycle`` are one
function) and restores the originals on exit, so the untraced runs execute
the package unpatched.  Spans live in memory: name, start, end, parent span
and phase ("setup" or "op").  Four autodiff ops are wrapped without spans;
their wrappers only record the (op, shape) pairs the program runs.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

import cvsqi
from opbench import op_key


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size_of(i, name):
    return lambda a, kw, out: os.path.getsize(_arg(a, kw, i, name))


def _rows(a, kw, out):
    return np.atleast_2d(_arg(a, kw, 1, "x")).shape[0]


# span name -> (module, function, {counter name: hook(args, kwargs, result)})
SPANS = {
    "forward.synthesize_stream": ("forward", "synthesize_stream",
                                  {"forward.samples": lambda a, kw, out: out.n_samples}),
    "experiment.generate_dataset": ("experiment", "generate_dataset", {}),
    "preprocess.segment_cycles": ("preprocess", "segment_cycles", {}),
    "preprocess.normalize_cycle": ("preprocess", "normalize_cycle", {}),
    "dataio.read_stream": ("dataio", "read_stream",
                           {"dataio.read_stream.bytes": _size_of(0, "path")}),
    "dataio.write_stream": ("dataio", "write_stream",
                            {"dataio.bytes_written": _size_of(1, "path")}),
    "dataio.write_cycles": ("dataio", "write_cycles",
                            {"dataio.bytes_written": _size_of(1, "path")}),
    "dataio.write_calibrations": ("dataio", "write_calibrations",
                                  {"dataio.bytes_written": _size_of(1, "path")}),
    "model_io.load_model": ("model_io", "load_model", {}),
    "nn.forward_layers": ("nn", "forward_layers", {}),
    "nn.adam_step": ("nn", "adam_step", {}),
    "autodiff.backward": ("autodiff", "backward", {}),
    "manifold.vae_train": ("manifold", "vae_train", {
        "manifold.vae_train.updates":
            lambda a, kw, out: a[0].train_audit["updates"],
        "manifold.audit.negatives_in_updates":
            lambda a, kw, out: a[0].train_audit["negatives_in_updates"]}),
    "manifold.residuals": ("manifold", "residuals", {"manifold.residuals.rows": _rows}),
    "manifold.select_threshold": ("manifold", "select_threshold", {}),
    "discriminative.forward": ("discriminative", "forward",
                               {"discriminative.forward.rows": _rows}),
    "evaluation.split_by_subject": ("evaluation", "split_by_subject", {}),
    "cli.assess": ("cli", "cmd_assess", {}),
    "cli.gen": ("cli", "cmd_gen", {}),
}
CAPTURED_OPS = ("conv1d", "conv_transpose1d", "dense", "maxpool1d")

# per-layer metric -> unit; the order of BENCHMARK.json
LAYER_UNITS = {
    "forward.synthesize_stream.s": "s", "forward.samples_per_s": "1/s",
    "experiment.generate_dataset.s": "s", "preprocess.segment_cycles.s": "s",
    "preprocess.normalize_cycle.calls": "count",
    "preprocess.normalize_cycle.us_per_call": "us",
    "dataio.read_stream.s": "s", "dataio.read_stream.bytes": "B",
    "dataio.write_stream.s": "s", "dataio.write_cycles.s": "s",
    "dataio.write_calibrations.s": "s", "dataio.bytes_written": "B",
    "model_io.load_model.s": "s",
    "nn.forward_layers.s": "s", "nn.forward_layers.calls": "count",
    "nn.adam_step.s": "s", "nn.adam_step.calls": "count",
    "autodiff.backward.s": "s", "autodiff.backward.calls": "count",
    "manifold.vae_train.s": "s", "manifold.vae_train.updates": "count",
    "manifold.audit.negatives_in_updates": "count",
    "manifold.residuals.s": "s", "manifold.residuals.rows": "count",
    "manifold.select_threshold.s": "s",
    "discriminative.forward.s": "s", "discriminative.forward.calls": "count",
    "discriminative.forward.rows": "count",
    "evaluation.split_by_subject.s": "s",
    "cli.assess.self_s": "s", "cli.gen.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, t0, t1, parent index, phase]
        self.counts = defaultdict(float)   # (phase, counter) -> total
        self.pairs = Counter()         # autodiff (op, shape) pairs seen
        self.phase = "setup"
        self._stack: list[int] = []
        modules = [importlib.import_module(f"cvsqi.{m.name}")
                   for m in pkgutil.iter_modules(cvsqi.__path__)]
        self._patches = []             # (module, attribute, original, wrapper)
        targets = [(mod, fn, self._span_wrapper(name, hooks))
                   for name, (mod, fn, hooks) in SPANS.items()]
        targets += [("autodiff", op, self._capture_wrapper(op)) for op in CAPTURED_OPS]
        for mod_name, fn_name, make in targets:
            original = getattr(importlib.import_module(f"cvsqi.{mod_name}"), fn_name)
            wrapper = make(original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _span_wrapper(self, name, hooks):
        def make(fn):
            def traced(*args, **kwargs):
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(idx)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    self._stack.pop()
                    self.spans[idx] = (name, t0, t1, parent, self.phase)
                for counter, hook in hooks.items():
                    self.counts[self.phase, counter] += hook(args, kwargs, out)
                return out
            return traced
        return make

    def _capture_wrapper(self, op):
        def make(fn):
            def captured(*args, **kwargs):
                self.pairs[op_key(op, args, kwargs)] += 1
                return fn(*args, **kwargs)
            return captured
        return make

    @contextlib.contextmanager
    def active(self, phase: str):
        """Install the wrappers for the duration of the block."""
        self.phase = phase
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer figures for one set-up plus one operation.

        A span's time is inclusive of its children; ``self_s`` excludes them.
        Counts and times from the "op" phase are divided by ``n_ops``.
        """
        total = defaultdict(lambda: {"setup": 0.0, "op": 0.0})
        calls = defaultdict(lambda: {"setup": 0, "op": 0})
        self_s = defaultdict(lambda: {"setup": 0.0, "op": 0.0})
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name, t0, t1, parent, phase) in enumerate(self.spans):
            total[name][phase] += t1 - t0
            calls[name][phase] += 1
            self_s[name][phase] += t1 - t0 - child[idx]

        def per_op(d):
            return d["setup"] + d["op"] / n_ops

        def count(counter):
            return per_op({p: self.counts[p, counter] for p in ("setup", "op")})

        def ratio(num, den):
            return num / den if den else 0.0

        synth_s = sum(total["forward.synthesize_stream"].values())
        synth_n = sum(self.counts[p, "forward.samples"] for p in ("setup", "op"))
        norm_s = sum(total["preprocess.normalize_cycle"].values())
        norm_n = sum(calls["preprocess.normalize_cycle"].values())
        values = {
            "forward.samples_per_s": ratio(synth_n, synth_s),
            "preprocess.normalize_cycle.us_per_call": ratio(norm_s * 1e6, norm_n),
            "dataio.read_stream.bytes": count("dataio.read_stream.bytes"),
            "dataio.bytes_written": count("dataio.bytes_written"),
            "manifold.vae_train.updates": count("manifold.vae_train.updates"),
            "manifold.audit.negatives_in_updates":
                count("manifold.audit.negatives_in_updates"),
            "manifold.residuals.rows": count("manifold.residuals.rows"),
            "discriminative.forward.rows": count("discriminative.forward.rows"),
            "cli.assess.self_s": per_op(self_s["cli.assess"]),
            "cli.gen.self_s": per_op(self_s["cli.gen"]),
        }
        for metric in LAYER_UNITS:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                values[metric] = per_op(total[span])
            elif kind == "calls":
                values[metric] = per_op(calls[span])
        return {m: (values[m], LAYER_UNITS[m]) for m in LAYER_UNITS if m in values}

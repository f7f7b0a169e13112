"""Per-layer timing from outside the program: each traced saasr function or
method is replaced by a wrapper that times the call (inclusive) and counts
work. A function is replaced in every saasr module that binds it, because
``from .x import y`` copies the name into the importing module.

Spans are recorded only while ``Tracer.active`` is true, except for the
set-up functions, which are recorded whenever they are called.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import saasr.cif
import saasr.data
import saasr.losses
import saasr.metrics
import saasr.model
import saasr.tensor
import saasr.training

# metric -> (unit, what is summed, what it is divided by). "ms:" sums
# inclusive wall time, "calls:" counts calls, "count:" sums a work count;
# an op is one optimizer step on train and one utterance decode otherwise
PER_LAYER = {
    "training.session_losses_ms": ("ms/step", "ms:training.session_losses", "op"),
    "tensor.backward_ms": ("ms/step", "ms:tensor.backward", "op"),
    "tensor.graph_nodes": ("nodes/session", "count:tensor.graph_nodes", "session"),
    "training.adam_step_ms": ("ms/step", "ms:training.adam_step", "op"),
    "model.asr_encode_ms": ("ms/call", "ms:model.asr_encode", "call"),
    "model.speaker_encode_ms": ("ms/call", "ms:model.speaker_encode", "call"),
    "cif.predictor_ms": ("ms/call", "ms:cif.predictor", "call"),
    "cif.integrate_and_fire_ms": ("ms/call", "ms:cif.integrate_and_fire", "call"),
    "cif.tokens_fired": ("tokens/op", "count:cif.tokens_fired", "op"),
    "model.speaker_scores_ms": ("ms/call", "ms:model.speaker_scores", "call"),
    "model.asr_decode_ms": ("ms/call", "ms:model.asr_decode", "call"),
    "model.asr_decode_calls": ("calls/op", "calls:model.asr_decode", "op"),
    "model.glancing_sample_ms": ("ms/step", "ms:model.glancing_sample", "op"),
    "model.glancing_replaced": ("rows/step", "count:model.glancing_replaced", "op"),
    "metrics.edit_align_ms": ("ms/step", "ms:metrics.edit_align", "op"),
    "losses.ctc_ms": ("ms/step", "ms:losses.ctc", "op"),
    "losses.ce_ms": ("ms/step", "ms:losses.ce", "op"),
    "losses.speaker_ms": ("ms/step", "ms:losses.speaker", "op"),
    "model.ar_encode_ms": ("ms/op", "ms:model.ar_encode", "op"),
    "model.ar_decode_prefix_ms": ("ms/op", "ms:model.ar_decode_prefix", "op"),
    "model.ar_decode_calls": ("calls/op", "calls:model.ar_decode_prefix", "op"),
    "model.ar_prefix_rows": ("rows/op", "count:model.ar_prefix_rows", "op"),
    "data.generate_dataset_ms": ("ms", "ms:data.generate_session", None),
    "model.save_checkpoint_ms": ("ms", "ms:model.save_checkpoint", None),
    "model.load_checkpoint_ms": ("ms", "ms:model.load_checkpoint", None),
}
OVERHEAD = "trace.overhead_pct"


def _graph_nodes(args, out):
    """Op nodes reachable from one session's total loss."""
    breakdown, _ = out
    seen, stack, nodes = set(), [breakdown.total], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += t._vjp is not None
        stack.extend(t._parents)
    return {"tensor.graph_nodes": nodes, "sessions": 1}


class Tracer:
    def __init__(self):
        self.active = False
        self.ops = 0
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _wrap(self, fn, layer, count, always):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (self.active or always):
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[layer] += time.perf_counter() - t0
            self.calls[layer] += 1
            if count is not None:
                for key, value in count(args, out).items():
                    self.counts[key] += value
            return out
        return wrapper

    def wrap_function(self, module, name, layer, count=None, always=False):
        orig = getattr(module, name)
        wrapper = self._wrap(orig, layer, count, always)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "saasr"
                    and getattr(mod, name, None) is orig):
                setattr(mod, name, wrapper)

    def wrap_method(self, cls, name, layer, count=None):
        setattr(cls, name, self._wrap(cls.__dict__[name], layer, count, False))

    def install(self):
        m, t = saasr.model, saasr.training
        self.wrap_function(saasr.data, "generate_session",
                           "data.generate_session", always=True)
        self.wrap_function(m, "save_checkpoint", "model.save_checkpoint",
                           always=True)
        self.wrap_function(m, "load_checkpoint", "model.load_checkpoint",
                           always=True)
        self.wrap_function(t, "session_losses", "training.session_losses",
                           count=_graph_nodes)
        self.wrap_method(saasr.tensor.Tensor, "backward", "tensor.backward")
        self.wrap_method(t.Adam, "step", "training.adam_step")
        for name in ("asr_encode", "speaker_encode", "speaker_scores",
                     "asr_decode"):
            self.wrap_method(m.SaAsrModel, name, f"model.{name}")
        self.wrap_method(saasr.cif.WeightPredictor, "__call__",
                         "cif.predictor")
        self.wrap_function(
            saasr.cif, "integrate_and_fire", "cif.integrate_and_fire",
            count=lambda args, out: {"cif.tokens_fired": out.num_fired})
        self.wrap_function(
            m, "glancing_sample", "model.glancing_sample",
            count=lambda args, out: {"model.glancing_replaced": out[1]})
        self.wrap_function(saasr.metrics, "edit_align", "metrics.edit_align")
        self.wrap_function(saasr.losses, "ctc_loss", "losses.ctc")
        self.wrap_function(saasr.losses, "ce_loss", "losses.ce")
        self.wrap_function(saasr.losses, "speaker_loss", "losses.speaker")
        self.wrap_method(m.ArBaselineModel, "encode", "model.ar_encode")
        self.wrap_method(
            m.ArBaselineModel, "decode_prefix", "model.ar_decode_prefix",
            count=lambda args, out: {"model.ar_prefix_rows": len(args[1])})

    def metrics(self, overhead_pct: float) -> dict:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        out = {}
        for name, (unit, source, per) in PER_LAYER.items():
            kind, key = source.split(":")
            total = {"ms": 1e3 * self.seconds[key], "calls": self.calls[key],
                     "count": self.counts[key]}[kind]
            divisor = {None: 1, "op": self.ops, "call": self.calls[key],
                       "session": self.counts["sessions"]}[per]
            out[name] = {"value": total / max(divisor, 1), "unit": unit}
        out[OVERHEAD] = {"value": overhead_pct, "unit": "%"}
        return out

"""Per-layer tracing from outside the library.

The tracer replaces public functions of the umfdet modules with wrappers,
each installed where its caller looks it up: a module attribute for calls
through the module (``nd.matmul``, ``model_mod.generate``), the importing
module's own name for functions imported by name (``trainer.forward_train``,
``model.cmoe_forward``), and the class attribute for methods
(``Graph.backward``, ``Adam.step``). Wrappers record spans (name, start,
end, parent span, round) in memory; public ndtensor ops are only counted.

``layer_metrics`` turns the spans of one workload into its per-layer
figures and fails when a named layer saw no call, so that a refactor which
moves a call breaks the trace instead of reporting zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

from umfdet import checkpoint, cot, data, evalkit, instruct, model, textforge, trainer
from umfdet import ndtensor as nd

SETUP_ROUND = -1


class TraceError(Exception):
    """The trace is incomplete or inconsistent."""


class Tracer:
    """Installs and removes the wrappers and holds the recorded spans.

    A span is the list [name, start, end, parent, round, info]; parent is
    the index of the enclosing span or -1, round is SETUP_ROUND during
    set-up, and info carries figures read around the call.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.round = SETUP_ROUND
        self.ops = 0
        self._step = None
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if not self.stack or self.stack.pop() != idx:
            raise TraceError(f"span {self.spans[idx][0]} closed out of order")

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.spans[idx][5] = after(args, result)
            return result
        return wrapper

    def _step_opener(self, fn):
        """forward_train opens a trainer.step span when none is open; the
        step closes when Adam.step returns."""
        tracer = self
        inner = self._span_wrapper(fn, "trainer.forward_train")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._step is None:
                tracer._step = tracer.open("trainer.step")
            return inner(*args, **kwargs)
        return wrapper

    def _step_closer(self, fn):
        tracer = self
        inner = self._span_wrapper(fn, "trainer.adam")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if tracer._step is not None:
                tracer.close(tracer._step)
                tracer._step = None
            return result
        return wrapper

    def _op_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, nd.Tensor):
                tracer.ops += 1
            return out
        return wrapper

    def _patch(self, owner, attr, make):
        if attr not in vars(owner):
            raise TraceError(f"{getattr(owner, '__name__', owner)} has no attribute {attr}")
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise TraceError("tracer already installed")
        span = lambda name, after=None: (lambda fn: self._span_wrapper(fn, name, after))
        # Public ndtensor ops: every public function the module defines. Only
        # calls that return a Tensor count, so helpers such as no_grad do not.
        for name, fn in list(vars(nd).items()):
            if (inspect.isfunction(fn) and fn.__module__ == nd.__name__
                    and not name.startswith("_")):
                self._patch(nd, name, self._op_counter)
        self._patch(nd.Graph, "backward", span("ndtensor.backward"))
        self._patch(model, "encode", span("model.encode"))
        self._patch(model, "decode", span("model.decode"))
        self._patch(model, "generate", span("model.generate"))
        self._patch(model, "cmoe_forward", span("cmoe.forward"))
        self._patch(trainer, "train", span("trainer.train"))
        self._patch(trainer, "forward_train", self._step_opener)
        self._patch(trainer.Adam, "step", self._step_closer)
        self._patch(trainer, "clip_global_norm", span("trainer.clip"))
        self._patch(checkpoint, "save_model", span("checkpoint.save_model"))
        self._patch(checkpoint, "save_train_state",
                    span("checkpoint.save_train_state", _dir_bytes))
        self._patch(checkpoint, "load_model", span("checkpoint.load_model"))
        self._patch(evalkit, "evaluate_model", span("evalkit.evaluate_model"))
        self._patch(instruct.Vocabulary, "encode", span("instruct.encode"))
        self._patch(instruct.Vocabulary, "build", span("instruct.vocab_build"))
        self._patch(data, "synth_toy_corpus", span("data.synth", _n_result))
        self._patch(data, "split", span("data.split"))
        self._patch(data, "save_manifest", span("data.manifest_write", _manifest_written))
        self._patch(data, "load_manifest", span("data.manifest_read", _n_result))
        self._patch(cot, "generate_with_qc", span("cot.qc", _accepted))
        self._patch(cot.MockGenClient, "generate", span("cot.generate"))
        self._patch(textforge, "keyword_distortion", span("textforge.fabricate"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self.stack:
            raise TraceError(f"{len(self.stack)} spans still open at uninstall")

    def dump(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9), "parent": parent,
                                     "round": rnd, "info": info}) + "\n")


def _dir_bytes(args, _result):
    d = args[0]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(d) if e.is_file())}


def _n_result(_args, result):
    return {"n": len(result)}


def _manifest_written(args, _result):
    return {"n": len(args[0]), "bytes": os.path.getsize(args[1])}


def _accepted(_args, result):
    return {"accepted": bool(result.accepted)}


# ---------------------------------------------------------------------------
# per-layer figures


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, start, end, parent, rnd, info in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def select(self, name, rounds=True, parent=None):
        """Indices of spans called ``name``: those in timed rounds, or those
        in set-up when rounds is False; optionally only under a parent name."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name or (s[4] >= 0) != rounds:
                continue
            if parent is not None and (s[3] < 0 or self.spans[s[3]][0] != parent):
                continue
            out.append(i)
        if not out:
            raise TraceError(f"no call to {name} was traced"
                             + ("" if rounds else " during set-up"))
        return out

    def ms(self, idxs, self_time=False, per=None):
        vals = []
        for i in idxs:
            name, start, end, parent, rnd, info = self.spans[i]
            dur = end - start - (self.child_time[i] if self_time else 0.0)
            vals.append(1e3 * dur / (info[per] if per else 1))
        return statistics.median(vals)


def layer_metrics(workload, spans, traced_samples, traced_ops, overhead_ratio):
    """Per-layer figures of one traced workload, as {name: {"value", "unit"}}
    with names ``<workload>.<layer>.<metric>``.

    Times are medians per call in ms; ``_per_sample`` divides each call by
    the posts it handled. model.encode_ms and evalkit.score_ms are self
    times, which exclude the child spans (cmoe.forward and instruct.encode,
    or model.generate).
    """
    s = _Spans(spans)
    if traced_samples <= 0:
        raise TraceError("no traced round")
    m = {}
    if workload in ("train", "eval"):
        if traced_ops == 0:
            raise TraceError("no public ndtensor op call was traced")
        m["ndtensor.ops_per_sample"] = traced_ops / traced_samples
        m["model.encode_ms"] = s.ms(s.select("model.encode"), self_time=True)
        m["model.decode_ms"] = s.ms(s.select("model.decode"))
        m["cmoe.forward_ms"] = s.ms(s.select("cmoe.forward"))
        m["instruct.encode_ms"] = s.ms(s.select("instruct.encode"))
        m["instruct.vocab_build_ms"] = s.ms(s.select("instruct.vocab_build", rounds=False))
    if workload == "train":
        m["ndtensor.backward_ms_per_step"] = s.ms(s.select("ndtensor.backward"))
        m["trainer.step_ms"] = s.ms(s.select("trainer.step"))
        m["trainer.adam_ms"] = s.ms(s.select("trainer.adam"))
        m["trainer.clip_ms"] = s.ms(s.select("trainer.clip"))
        saves = s.select("checkpoint.save_model")
        states = s.select("checkpoint.save_train_state")
        if len(saves) != len(states):
            raise TraceError("checkpoint weights and trainer state were not saved in pairs")
        m["checkpoint.save_ms"] = statistics.median(
            1e3 * (spans[a][2] - spans[a][1] + spans[b][2] - spans[b][1])
            for a, b in zip(saves, states))
        m["checkpoint.bytes_written"] = statistics.median(spans[b][5]["bytes"]
                                                          for b in states)
    elif workload == "eval":
        m["model.decode_calls_per_sample"] = len(s.select("model.decode")) / traced_samples
        m["model.generate_ms"] = s.ms(s.select("model.generate"))
        m["checkpoint.load_ms"] = s.ms(s.select("checkpoint.load_model", rounds=False))
        m["evalkit.score_ms"] = s.ms(s.select("evalkit.evaluate_model"), self_time=True)
    elif workload == "corpus":
        m["instruct.encode_ms"] = s.ms(s.select("instruct.encode"))
        m["instruct.vocab_build_ms"] = s.ms(s.select("instruct.vocab_build"))
        m["data.synth_ms_per_sample"] = s.ms(s.select("data.synth"), per="n")
        m["data.split_ms"] = s.ms(s.select("data.split"))
        writes = s.select("data.manifest_write")
        m["data.manifest_write_ms_per_sample"] = s.ms(writes, per="n")
        m["data.manifest_read_ms_per_sample"] = s.ms(s.select("data.manifest_read"), per="n")
        m["data.manifest_bytes_per_sample"] = statistics.median(
            spans[i][5]["bytes"] / spans[i][5]["n"] for i in writes)
        qc = s.select("cot.qc")
        attempts = len(s.select("cot.generate", parent="cot.qc"))
        m["cot.qc_ms_per_sample"] = s.ms(qc)
        m["cot.attempts_per_sample"] = attempts / len(qc)
        m["cot.accepted_per_attempt"] = sum(spans[i][5]["accepted"] for i in qc) / attempts
        m["textforge.fabricate_ms_per_sample"] = s.ms(
            s.select("textforge.fabricate", parent=f"{workload}.round"))
    m["trace.overhead_ratio"] = overhead_ratio
    for name, value in m.items():
        if not value > 0:
            raise TraceError(f"{workload}.{name} is {value}")
    return {f"{workload}.{name}": {"value": value, "unit": _unit(name)}
            for name, value in m.items()}


_UNITS = {"ops_per_sample": "count", "decode_calls_per_sample": "count",
          "attempts_per_sample": "count", "bytes_written": "B",
          "manifest_bytes_per_sample": "B", "accepted_per_attempt": "ratio",
          "overhead_ratio": "ratio"}


def _unit(metric):
    return _UNITS.get(metric.rsplit(".", 1)[1], "ms")

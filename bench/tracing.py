"""Spans around the public functions of voxkit's layers, from outside the program.

install() wraps every public function of the traced modules and rebinds
it in every voxkit namespace that holds it (metrics, for instance, binds
dtw_align from dsp), so calls between layers nest as child spans. Each
span records name, start, end, parent and the exception class that left
it, if any. summarize() turns the spans into the per-layer metrics.

This module imports only the standard library, so a fresh interpreter
can time `import voxkit.cli` before anything else is loaded.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dsp", "pitch", "metrics", "enhance", "corpus", "wavio")
DTW_BYTES_PER_CELL = 17  # cdist and cost matrices in float64, moves in int8


def _n_frames(x):
    frames = getattr(x, "frames", x)
    return frames.shape[0] if getattr(frames, "ndim", 0) == 2 else len(frames)


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Work counters recorded at the layer boundary: name -> f(fn, args, kwargs, result).
COUNTERS = {
    "dsp.dtw_align": lambda fn, a, k, r: {"cells": _n_frames(a[0]) * _n_frames(a[1])},
    "dsp.griffin_lim": lambda fn, a, k, r: {"iters": _arg(fn, a, k, "n_iters")},
    "dsp.resample": lambda fn, a, k, r: {"samples_in": len(a[0])},
    "pitch.extract_pitch": lambda fn, a, k, r: {"frames": len(r)},
    "metrics.edit_counts": lambda fn, a, k, r: {"cells": len(a[0]) * len(a[1])},
    "wavio.read_wav": lambda fn, a, k, r: {"bytes": os.path.getsize(a[0])},
    "wavio.write_wav": lambda fn, a, k, r: {"bytes": os.path.getsize(a[0])},
}


class Tracer:
    """Collects spans; span 0 is the root around cli.main."""

    def __init__(self, ids, texts):
        """ids: the corpus's utterance ids; texts: id -> (reference, hypothesis)."""
        self.ids = set(ids)
        self.id_of_text = {text: utt for utt, (text, _) in texts.items()}
        self.spans = []  # [name, parent, start, end, error, utterance key]
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.max_dtw_cells = 0
        self._restore = []

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if name == "wavio.read_wav":
                key = Path(args[0]).name.split(".")[0]  # inputs are named <id>.wav
                key = key if key in tracer.ids else None
            elif name == "metrics.cer":
                key = tracer.id_of_text.get(args[0])
            span = [name, tracer.stack[-1], 0.0, 0.0, None, key]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                for counted, value in counter(fn, args, kwargs, result).items():
                    tracer.counts[name][counted] += value
                    if name == "dsp.dtw_align":
                        tracer.max_dtw_cells = max(tracer.max_dtw_cells, value)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever voxkit binds them."""
        import voxkit

        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"voxkit.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [voxkit, importlib.import_module("voxkit.cli")]
        namespaces += [importlib.import_module(f"voxkit.{layer}") for layer in LAYERS]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def run_root(self, main, argv):
        """Call main(argv) as the root span; returns its exit code."""
        span = ["cli.main", None, 0.0, 0.0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return main(argv)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()


def _attribute(spans):
    """Utterance of each span.

    A top-level call belongs to the utterance it names (the audio file it
    reads or the transcript it scores), else to the utterance read last;
    calls into corpus are corpus-wide. Children inherit their top-level
    ancestor's utterance.
    """
    utterance = [None] * len(spans)
    current = None
    for i, (name, parent, _, _, _, key) in enumerate(spans):
        if parent is None:
            continue
        if parent == 0:
            if key is not None:
                current = key
            utterance[i] = None if name.startswith("corpus.") else current
        else:
            utterance[i] = utterance[parent]
    return utterance


def summarize(tracer):
    """Per-layer metrics from the recorded spans, keyed by metric name."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    raised = defaultdict(int)
    for i, (name, parent, start, end, error, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if error is not None and i:
            raised[name.split(".")[0]] += 1
    utterance = _attribute(spans)
    per_utt = defaultdict(float)
    for i, (_, parent, start, end, _, _) in enumerate(spans):
        if parent == 0 and utterance[i] is not None:
            per_utt[utterance[i]] += end - start
    counts = tracer.counts
    m = {}

    def fn_metrics(name, *keys):
        timed = {"calls": calls, "self_s": self_time, "total_s": total}
        for key in keys:
            m[f"{name}.{key}"] = timed[key][name] if key in timed else counts[name][key]

    fn_metrics("dsp.dtw_align", "calls", "self_s", "cells")
    cells = counts["dsp.dtw_align"]["cells"]
    m["dsp.dtw_align.ns_per_cell"] = 1e9 * total["dsp.dtw_align"] / cells if cells else 0.0
    m["dsp.dtw_align.matrix_mb"] = tracer.max_dtw_cells * DTW_BYTES_PER_CELL / 1e6
    for name in ("dsp.stft", "dsp.log_mel", "dsp.mfcc", "dsp.istft"):
        fn_metrics(name, "calls", "self_s")
    fn_metrics("dsp.griffin_lim", "calls", "self_s", "iters")
    fn_metrics("dsp.resample", "calls", "self_s", "samples_in")
    fn_metrics("pitch.extract_pitch", "calls", "self_s", "frames")
    frames = counts["pitch.extract_pitch"]["frames"]
    m["pitch.extract_pitch.us_per_frame"] = 1e6 * total["pitch.extract_pitch"] / frames if frames else 0.0
    fn_metrics("metrics.edit_counts", "calls", "self_s", "cells")
    fn_metrics("metrics.mcd", "total_s")
    fn_metrics("metrics.msd", "total_s")
    fn_metrics("metrics.f0_metrics", "self_s")
    for name in ("dry_wet_mix", "estimate_snr", "vad_label", "trim_and_compress", "normalize_volume"):
        fn_metrics(f"enhance.{name}", "self_s")
    fn_metrics("wavio.read_wav", "calls", "self_s", "bytes")
    fn_metrics("wavio.write_wav", "calls", "self_s", "bytes")
    for name in ("load_manifest", "save_manifest", "apply_filter"):
        fn_metrics(f"corpus.{name}", "self_s")
    root_s = spans[0][3] - spans[0][2]
    m["cli.self_s"] = self_time["cli.main"]
    utt_times = sorted(per_utt.values())
    m["cli.utt_p50_s"] = statistics.median(utt_times) if utt_times else 0.0
    m["cli.utt_max_s"] = utt_times[-1] if utt_times else 0.0
    for layer in LAYERS:
        m[f"{layer}.raised"] = raised[layer]
    m["trace.root_s"] = root_s
    shares = {
        "dtw_align+extract_pitch": (total["dsp.dtw_align"] + total["pitch.extract_pitch"]) / root_s,
        "griffin_lim": total["dsp.griffin_lim"] / root_s,
        "edit_counts": total["metrics.edit_counts"] / root_s,
        "base": "total time of the named calls over the traced cli.main wall time",
    }
    by_function = {
        name: {"calls": calls[name], "total_s": total[name], "self_s": self_time[name]}
        for name in sorted(calls)
    }
    return m, {"shares": shares, "functions": by_function, "utterance_s": dict(per_utt)}


def write_spans(tracer, path):
    """One JSON object per span, times in seconds from the root's start."""
    t0 = tracer.spans[0][2]
    utterance = _attribute(tracer.spans)
    with open(path, "w", encoding="utf-8") as out:
        for i, (name, parent, start, end, error, _) in enumerate(tracer.spans):
            record = {
                "id": i,
                "parent": parent,
                "name": name,
                "start_s": start - t0,
                "end_s": end - t0,
                "utterance": utterance[i],
                "error": error,
            }
            out.write(json.dumps(record) + "\n")


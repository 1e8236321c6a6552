"""Run-time tracing of vsrlab's public functions.

``Tracer`` replaces each function listed in ``TRACED`` with a wrapper that
records a span (name, start, end, parent) and, for some functions, a work
count such as frames or bytes. Nothing under ``src/`` changes: the wrappers
are set as module and class attributes and put back on exit. Because a
module attribute is also the global that the module's own functions look
up, calls from inside a module (``train_em`` -> ``em_iteration``) are traced
too. Spans stay in memory until ``layer_metrics`` folds them into
per-layer metrics.
"""

import functools
import inspect
import math
import os
import time
from dataclasses import dataclass, field

from vsrlab import autoencoder, corpus, decoder, eigenlips, experiment, \
    features, frontend, geometric, hmm, lingware, scoring

STAGES = ("roi", "geo", "pca", "eig", "ae", "dnn", "lm", "train", "decode",
          "score")


def _n_frames(name):
    return lambda a, result: {"frames": len(a[name])}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _em_frames(a, result):
    return {"frames": sum(len(frames) for frames, _ in a["data"])}


def _ae_train(a, result):
    return {"frames": len(a["frames"]) * a["epochs"]}


def _em_history(a, result):
    frames = sum(len(f) for f, _ in a["data"])
    return {"final_ll_per_frame": result[-1][1] / frames}


# (owner, attribute, span name, annotate). ``annotate`` gets the bound
# arguments and the return value and gives extra span attributes.
TRACED = (
    (experiment, "run_grid", "experiment.run_grid", None),
    (experiment.Runner, "stage", "experiment.stage", None),
    (experiment, "file_digest", "experiment.file_digest", _file_bytes),
    (experiment, "assemble_features", "experiment.assemble_features", None),
    (frontend, "roi_sequence", "frontend.roi_sequence",
     _n_frames("landmarks")),
    (geometric, "geometric_sequence", "geometric.geometric_sequence",
     _n_frames("landmark_seq")),
    (eigenlips, "fit_pca", "eigenlips.fit_pca", None),
    (eigenlips, "jacobi_eigh", "eigenlips.jacobi_eigh", None),
    (eigenlips, "project", "eigenlips.project", None),
    (autoencoder.ConvAutoencoder, "train", "autoencoder.train", _ae_train),
    (autoencoder.ConvAutoencoder, "loss_and_grad",
     "autoencoder.loss_and_grad", None),
    (autoencoder.ConvAutoencoder, "encode", "autoencoder.encode",
     _n_frames("frames")),
    (features, "load_features", "features.load_features", _file_bytes),
    (features, "save_features", "features.save_features", _file_bytes),
    (features, "zscore_normalize", "features.zscore_normalize", None),
    (features, "add_deltas", "features.add_deltas", None),
    (hmm, "train_em", "hmm.train_em", _em_history),
    (hmm, "em_iteration", "hmm.em_iteration", _em_frames),
    (hmm, "forward_log", "hmm.forward_log", None),
    (hmm, "backward_log", "hmm.backward_log", None),
    (hmm, "flat_start", "hmm.flat_start", None),
    (decoder.DecodeGraph, "__init__", "decoder.DecodeGraph", None),
    (decoder, "decode_frames", "decoder.decode_frames", _n_frames("frames")),
    (scoring, "evaluate", "scoring.evaluate", None),
    (lingware, "fit_bigram", "lingware.fit_bigram", None),
    (corpus, "read_frames", "corpus.read_frames", _file_bytes),
    (corpus, "read_landmarks", "corpus.read_landmarks", None),
)

# traced functions that contain other traced functions
NESTING = ("experiment.run_grid", "experiment.assemble_features",
           "eigenlips.fit_pca", "autoencoder.train", "hmm.train_em",
           "hmm.em_iteration")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Context manager that traces the ``TRACED`` functions while open."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def __enter__(self):
        for owner, attr, name, annotate in TRACED:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, annotate))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, func, name, annotate):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            span = self.spans[index]
            try:
                if name == "experiment.stage":
                    args, kwargs = self._trace_build(span, signature, args,
                                                     kwargs)
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._end(index)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(annotate(bound.arguments, result))
            return result

        return wrapper

    def _trace_build(self, span, signature, args, kwargs):
        """Give a stage's ``build`` callable a span of its own, so that the
        stage's time splits into building and checking the cache."""
        bound = signature.bind(*args, **kwargs)
        build = bound.arguments["build"]
        span.attrs["stage"] = bound.arguments["name"].split(":")[0]

        def traced_build():
            index = self._begin("experiment.build")
            try:
                return build()
            finally:
                self._end(index)

        bound.arguments["build"] = traced_build
        return bound.args, bound.kwargs

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self.spans[index].end = time.perf_counter()
        self._open.pop()


# ---------------------------------------------------------------------------
# folding spans into metrics

def self_seconds(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [s.seconds for s in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.seconds
    return out


def _percentile(sorted_vals, pct):
    rank = max(math.ceil(pct / 100.0 * len(sorted_vals)), 1)
    return sorted_vals[rank - 1]


def tail_percentile(n_samples):
    """Highest percentile on the ladder with at least ten samples above it."""
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9):
        if n_samples - math.ceil(pct / 100.0 * n_samples) >= 10:
            best = pct
    return best


def by_name(spans):
    """name -> {"calls", "s", "self_s", <summed attrs>}."""
    selfs = self_seconds(spans)
    out = {}
    for span, self_s in zip(spans, selfs):
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.seconds
        row["self_s"] += self_s
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return out


def stage_table(spans):
    """stage -> {"build_s", "check_s", "checks", "built", "cached"}.

    A stage's check time is its span minus its build span: key hashing
    (input digests included) and stamp reads and writes.
    """
    table = {s: {"build_s": 0.0, "check_s": 0.0, "checks": 0, "built": 0,
                 "cached": 0} for s in STAGES}
    build_s = {}
    for span in spans:
        if span.name == "experiment.build":
            build_s[span.parent] = build_s.get(span.parent, 0.0) + span.seconds
    for index, span in enumerate(spans):
        if span.name != "experiment.stage":
            continue
        row = table[span.attrs["stage"]]
        built = build_s.get(index, 0.0)
        row["build_s"] += built
        row["check_s"] += span.seconds - built
        row["checks"] += 1
        row["built" if index in build_s else "cached"] += 1
    return table


def format_stage_table(table):
    """The table, then one line in the form of the ROADMAP's baseline."""
    lines = [f"{'stage':<8}{'build_s':>10}{'check_s':>10}{'checks':>8}"
             f"{'built':>7}{'cached':>8}"]
    for stage, row in table.items():
        lines.append(f"{stage:<8}{row['build_s']:>10.3f}{row['check_s']:>10.3f}"
                     f"{row['checks']:>8d}{row['built']:>7d}{row['cached']:>8d}")
    cells = " ({} cells)".format
    lines.append("Per stage: " + ", ".join(
        f"{stage} {row['build_s'] + row['check_s']:.2f}"
        + (cells(row["checks"]) if stage in ("train", "decode", "score") else "")
        for stage, row in table.items() if stage != "lm" and row["checks"]))
    return "\n".join(lines)


def format_span_table(rows):
    lines = [f"{'span':<34}{'calls':>8}{'s':>10}{'self_s':>10}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(f"{name:<34}{row['calls']:>8d}{row['s']:>10.3f}"
                     f"{row['self_s']:>10.3f}")
    return "\n".join(lines)


def layer_metrics(spans):
    """The per-layer metrics of one traced operation, as name -> (value,
    unit). Names absent from the trace read 0."""
    rows = by_name(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    table = stage_table(spans)
    for stage in STAGES:
        out[f"experiment.stage.{stage}.build_s"] = (table[stage]["build_s"], "s")
        out[f"experiment.stage.{stage}.check_s"] = (table[stage]["check_s"], "s")
    built = sum(row["built"] for row in table.values())
    cached = sum(row["cached"] for row in table.values())
    out["experiment.stage.built"] = (built, "count")
    out["experiment.stage.cached"] = (cached, "count")
    out["experiment.cache_hit_ratio"] = (rate(cached, built + cached), "ratio")

    # calls, seconds and self seconds of every traced function; self
    # seconds only where traced calls nest inside (for a leaf they equal s)
    for _, _, name, _ in TRACED:
        if name == "experiment.stage":
            continue
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
        if name in NESTING:
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")

    for name in ("experiment.file_digest", "features.load_features",
                 "features.save_features", "corpus.read_frames"):
        out[f"{name}.bytes"] = (get(name, "bytes"), "bytes")
    for name in ("frontend.roi_sequence", "geometric.geometric_sequence",
                 "autoencoder.encode", "hmm.em_iteration",
                 "decoder.decode_frames"):
        out[f"{name}.frames"] = (get(name, "frames"), "frames")
    for name in ("autoencoder.train", "hmm.em_iteration",
                 "decoder.decode_frames"):
        out[f"{name}.frames_per_s"] = (
            rate(get(name, "frames"), get(name, "s")), "frames/s")
    em_runs = get("hmm.train_em", "calls")
    out["hmm.final_loglik_per_frame"] = (
        get("hmm.train_em", "final_ll_per_frame") / em_runs if em_runs else 0.0,
        "nats/frame")

    decode_ms = sorted(1e3 * s.seconds for s in spans
                       if s.name == "decoder.decode_frames")
    tail = tail_percentile(len(decode_ms))
    out["decoder.decode_frames.ms_p50"] = (
        _percentile(decode_ms, 50.0) if decode_ms else 0.0, "ms")
    out["decoder.decode_frames.ms_tail"] = (
        _percentile(decode_ms, tail) if decode_ms else 0.0, "ms")
    out["decoder.decode_frames.tail_pct"] = (tail, "%")
    out["decoder.empty_beam.count"] = (
        sum(1 for s in spans if s.name == "decoder.decode_frames"
            and s.attrs.get("error") == "EmptyBeamError"), "count")
    return out

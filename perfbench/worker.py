"""One step of a benchmark run, in a process of its own.

    python3 perfbench/worker.py setup JOB.json
    python3 perfbench/worker.py op JOB.json

``run.py`` starts it with BLAS threads pinned and ``src/`` and ``tests/`` on
``PYTHONPATH``, and reads the JSON object it prints as its last line. Each
operation runs in a fresh process so that its peak resident memory is its
own.
"""

import ctypes
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from speed import SpeedProbe
from tracing import Tracer, by_name, format_span_table, format_stage_table, \
    layer_metrics, stage_table
from vsrlab import corpus, experiment, scoring

# what the redecode workload deletes from every cell before re-running
DECODE_OUTPUTS = ("hyp.tsv", "hyp.tsv.meta.json", "score.json",
                  "score.json.meta.json")


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpu": cpu}


def _cells(cfg):
    return [(s, c, n) for s in cfg.streams for c in cfg.contexts
            for n in cfg.norms]


def _cell_dir(cfg, cell):
    return cfg.out_dir / "cells" / experiment.cell_name(*cell)


def hyp_digests(cfg, names=None):
    return {experiment.cell_name(*cell):
            experiment.file_digest(_cell_dir(cfg, cell) / "hyp.tsv")
            for cell in _cells(cfg)
            if names is None or experiment.cell_name(*cell) in names}


def setup(job):
    """Synthesize the corpus and, for a warm workload, prime the grid."""
    # imported here, so that operation workers do not load pytest
    from test_acceptance import ACCEPTANCE_SPEC, GRID_OVERRIDES

    workload = job["workload"]
    spec = corpus.SynthSpec(
        lexicon=corpus.default_lexicon(n_words=workload["words"], seed=0),
        **dict(ACCEPTANCE_SPEC, **workload["corpus"], seed=job["seed"]))
    grid = dict(GRID_OVERRIDES, **workload["grid"],
                corpus_dir=job["corpus_dir"], out_dir=job["out_dir"])
    with SpeedProbe() as speed:
        start = time.perf_counter()
        corpus.synthesize_corpus(spec, Path(job["corpus_dir"]))
        result = {"synth_s": time.perf_counter() - start, "grid": grid}
        if workload["kind"] == "warm":
            cfg = experiment.ExperimentConfig.from_mapping(grid)
            experiment.run_grid(cfg)
    if workload["kind"] == "warm":
        result["hyp_digests"] = hyp_digests(cfg)
    result.update(setup_s=speed.adjusted_s, raw_s=speed.wall_s,
                  slowdown=speed.slowdown, env=environment())
    return result


def check_outputs(cfg, primed=None):
    """Per-cell validity and the output checks of one grid run.

    A cell is valid when its ``score.json`` parses to a finite WER and its
    ``hyp.tsv`` has a line for every test utterance.
    """
    _, _, _, test_records = experiment.load_corpus(cfg)
    test_ids = {r.utterance_id for r in test_records}
    problems = []
    wers = {}
    for cell in _cells(cfg):
        name = experiment.cell_name(*cell)
        cell_dir = _cell_dir(cfg, cell)
        try:
            wer = json.loads((cell_dir / "score.json").read_text())["wer"]
            hyps = scoring.load_transcripts(cell_dir / "hyp.tsv")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if not math.isfinite(wer):
            problems.append(f"{name}: WER {wer}")
        elif set(hyps) != test_ids:
            problems.append(f"{name}: hyp.tsv covers {len(set(hyps) & test_ids)}"
                            f" of {len(test_ids)} test utterances")
        else:
            wers[name] = wer
    try:
        tree = json.loads((cfg.out_dir / "results.json").read_text())
        missing = [experiment.cell_name(*cell) for cell in _cells(cfg)
                   if experiment.CONTEXT_LABELS[cell[1]]
                   not in tree.get(cell[0], {}).get(cell[2], {})]
    except (OSError, ValueError) as exc:
        missing = [f"results.json: {exc}"]
    if missing:
        problems.append(f"results.json lacks {missing}")
    if primed is not None:
        changed = sorted(name for name, digest in hyp_digests(cfg, wers).items()
                         if digest != primed[name])
        if changed:
            problems.append(f"re-decoded hyp.tsv differs from primed: {changed}")
    return wers, problems


def op(job):
    """One timed grid run, traced if the job asks for it."""
    cfg = experiment.ExperimentConfig.from_mapping(job["grid"])
    tracer = Tracer() if job["trace"] else nullcontext()
    error = None
    cpu0 = os.times()
    with SpeedProbe() as speed:
        if job["workload"]["kind"] == "warm":
            for cell in _cells(cfg):
                for out in DECODE_OUTPUTS:
                    (_cell_dir(cfg, cell) / out).unlink(missing_ok=True)
        with tracer:
            try:
                experiment.run_grid(cfg)
            except Exception:  # a failed run counts its unscored cells
                error = traceback.format_exc()
    cpu1 = os.times()
    wers, problems = check_outputs(cfg, job.get("hyp_digests"))
    result = {
        "wall_s": speed.adjusted_s, "raw_s": speed.wall_s,
        "slowdown": speed.slowdown,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(_cells(cfg)), "failed": len(_cells(cfg)) - len(wers),
        "wers": wers, "problems": problems, "error": error,
    }
    if job["trace"]:
        result["layers"] = layer_metrics(tracer.spans)
        result["stage_table"] = format_stage_table(stage_table(tracer.spans))
        result["span_table"] = format_span_table(by_name(tracer.spans))
    return result


def main(argv):
    command, job_path = argv
    job = json.loads(Path(job_path).read_text())
    result = {"setup": setup, "op": op}[command](job)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

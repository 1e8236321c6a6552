"""vsrlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME|all [--seed 7] [--seconds 20] [--trace 0|1]

Run from anywhere inside a checkout; the program is the checkout's own
``src/vsrlab``. The workload's set-up (corpus synthesis, plus priming for
``redecode_warm``) runs three times and ``setup_s`` is their median. The
timed operation runs after each set-up and then repeats, each time in a
fresh worker process, until its repetitions would take more than
``--seconds`` in all; the end-to-end metrics are medians over the
repetitions. Every time is adjusted to a reference machine speed that a
probe samples while the step runs (``speed.py``); the raw times are printed
too. With ``--trace 1`` one more repetition runs traced and gives the
per-layer metrics; the traced-minus-untraced time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (grid cells) and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_REPS = 3
# every run must end within 180 s; leave room for the last worker to exit
DEADLINE_S = 170.0
# BLAS threads are pinned so that a gain from parallelism cannot hide in, or
# be mistaken for, a change in the work done
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ, **PINNED_ENV)
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def call_worker(command, job, job_path, deadline):
    """Run one worker step and return the JSON object it prints."""
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before worker {command}")
    proc = subprocess.run(
        [sys.executable, str(WORKER), command, str(job_path)],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {command} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, work, deadline):
    """Set up three times, repeat the operation, and return the raw worker
    results.

    The first repetitions alternate with the set-ups, each on the tree the
    set-up before it made, so that the repetitions spread over the whole
    run: a shared machine's speed drifts over tens of seconds, and a median
    taken over a longer span drifts less.
    """
    base = {"workload": asdict(workload), "seed": seed}
    setups, reps = [], []

    def set_up():
        setup_dir = work / f"setup{len(setups)}"
        setups.append(call_worker("setup", dict(
            base, corpus_dir=str(setup_dir / "corpus"),
            out_dir=str(setup_dir / "out")), work / "job.json", deadline))
        if len(setups) > 1:
            shutil.rmtree(work / f"setup{len(setups) - 2}")

    def one_op(traced=False):
        job = dict(base, trace=traced, grid=setups[-1]["grid"],
                   hyp_digests=setups[-1].get("hyp_digests"))
        if workload.kind == "cold":
            job["grid"] = dict(job["grid"], out_dir=str(work / "op"))
        result = call_worker("op", job, work / "job.json", deadline)
        if workload.kind == "cold":
            shutil.rmtree(work / "op")
        return result

    # with tracing, keep room in the window for the traced repetition
    room = 2 if trace else 1
    op_s = 0.0
    while True:
        if len(setups) < SETUP_REPS:
            set_up()
        start = time.monotonic()
        reps.append(one_op())
        op_s += time.monotonic() - start
        if (len(setups) == SETUP_REPS
                and op_s + room * op_s / len(reps) > seconds):
            break
    traced = one_op(traced=True) if trace else None
    return setups, reps, traced


def wer_mean(result):
    wers = result["wers"]
    return sum(wers.values()) / len(wers) if wers else 0.0


def _fmt(values):
    return " ".join(f"{v:.3f}" for v in values)


def count_src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "vsrlab").glob("*.py")))


def summarize(setups, reps, traced):
    """The result object (without printing) and its report lines."""
    runs = reps + ([traced] if traced else [])
    problems = [p for r in runs for p in r["problems"]]
    problems += [r["error"] for r in runs if r["error"]]
    if len({json.dumps(s.get("hyp_digests"), sort_keys=True)
            for s in setups}) != 1:
        problems.append("the set-ups primed different hypotheses")
    if len({json.dumps(r["wers"], sort_keys=True) for r in runs}) != 1:
        problems.append("WERs differ between repetitions: "
                        + "; ".join(json.dumps(r["wers"]) for r in runs))
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = [f"problem: {p}" for p in problems]
    if traced is None:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps),
                            "MB"),
        }
        lines.append(
            f"repetitions: wall_s {_fmt(r['wall_s'] for r in reps)}; "
            f"raw {_fmt(r['raw_s'] for r in reps)}; "
            f"slowdown {_fmt(r['slowdown'] for r in reps)}; "
            f"cpu_s {_fmt(r['cpu_s'] for r in reps)}; "
            f"rss_mb {_fmt(r['rss_mb'] for r in reps)}")
        lines.append(
            f"set-ups: setup_s {_fmt(s['setup_s'] for s in setups)}; "
            f"raw {_fmt(s['raw_s'] for s in setups)}; "
            f"slowdown {_fmt(s['slowdown'] for s in setups)}; "
            f"wer_mean_pct {wer_mean(reps[0]):.3f}; "
            f"failed_frac {failed / attempted:.3f}")
    else:
        untraced_s = statistics.median(r["wall_s"] for r in reps)
        metrics = dict(traced["layers"])
        metrics.update({
            "corpus.synthesize_corpus.s": (
                statistics.median(s["synth_s"] for s in setups), "s"),
            "process.cpu_s": (traced["cpu_s"], "s"),
            "wall_raw_s": (statistics.median(r["raw_s"] for r in reps), "s"),
            "setup_raw_s": (
                statistics.median(s["raw_s"] for s in setups), "s"),
            "machine.slowdown": (
                statistics.median(r["slowdown"] for r in reps), "ratio"),
            "process.blas_threads": (setups[-1]["env"]["blas_threads"] or 0,
                                     "count"),
            "src.lines": (count_src_lines(), "lines"),
            "failed_frac": (failed / attempted, "ratio"),
            "wer_mean_pct": (wer_mean(traced), "%"),
            "trace.overhead_s": (traced["wall_s"] - untraced_s, "s"),
            "trace.overhead_frac": (
                (traced["wall_s"] - untraced_s) / untraced_s, "ratio"),
        })
        lines += ["per-stage (traced run):", traced["stage_table"],
                  "per-span (traced run):", traced["span_table"]]
    lines += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def check_checkout():
    for needed in (ROOT / "src" / "vsrlab" / "experiment.py",
                   ROOT / "tests" / "test_acceptance.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found; run "
                             f"the benchmark from a vsrlab checkout")


def bench_one(name, seed, seconds, trace):
    """Run one workload and print its report; returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_checkout()
        work_root = ROOT / ".perfbench_work"
        work = work_root / f"{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            setups, reps, traced = run_workload(
                WORKLOADS[name], seed, seconds, trace, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if work_root.is_dir() and not any(work_root.iterdir()):
                work_root.rmdir()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
        return 1

    result, lines = summarize(setups, reps, traced)
    env = dict(setups[-1]["env"], seed=seed, workload=name, pinned=PINNED_ENV)
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default 7, the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(bench_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())

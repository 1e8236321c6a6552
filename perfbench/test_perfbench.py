"""Fast checks of the benchmark itself, on the tiny grid of acceptance
criterion 6 (3 speakers, 12 utterances, 4 cells).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "tests", ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402

from vsrlab import autoencoder, corpus, decoder, eigenlips, experiment, \
    features, frontend, geometric, hmm, lingware, scoring  # noqa: E402

# the configuration of test_criterion_6_determinism
TINY = Workload(
    name="tiny", why="criterion-6 determinism config", kind="cold", words=6,
    corpus={"n_speakers": 3, "n_utterances": 12,
            "utterances_per_speaker": None, "words_per_utterance": [1, 2],
            "noise_level": 0.2, "frames_per_phoneme": [4.0, 1.0]},
    grid={"test_speakers": "spk02", "streams": "geo,eig+dnn",
          "contexts": "0,2", "norms": "utterance", "schedule": "1:2",
          "pca_components": "8", "pca_max_frames": "96",
          "ae_channels": "4,8,8", "ae_bottleneck": "8", "ae_epochs": "2",
          "ae_max_frames": "256", "beam": "none", "bootstrap": "200"})
TINY_SEED = 11


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """A synthesized tiny corpus and the grid mapping for it."""
    root = tmp_path_factory.mktemp("tiny")
    job = {"workload": asdict(TINY), "seed": TINY_SEED,
           "corpus_dir": str(root / "corpus"), "out_dir": str(root / "out")}
    return root, worker.setup(job)


def _op(setup, out_dir, traced):
    job = {"workload": asdict(TINY), "trace": traced,
           "grid": dict(setup["grid"], out_dir=str(out_dir))}
    return worker.op(job)


def _tree_digests(root):
    return {str(p.relative_to(root)): experiment.file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    setups, reps, traced = run.run_workload(
        TINY, TINY_SEED, 0.0, trace, tmp_path, time.monotonic() + 170.0)
    result, _ = run.summarize(setups, reps, traced)

    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * (len(reps) + trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_tracer_restores_every_patched_attribute():
    owners = (autoencoder, corpus, decoder, eigenlips, experiment, features,
              frontend, geometric, hmm, lingware, scoring,
              autoencoder.ConvAutoencoder, decoder.DecodeGraph,
              experiment.Runner)
    before = [dict(vars(owner)) for owner in owners]

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert hmm.em_iteration is not before[owners.index(hmm)][
                "em_iteration"]
            raise RuntimeError("leave the block early")

    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert set(after) == set(attrs), owner
        changed = [k for k in attrs if after[k] is not attrs[k]]
        assert not changed, (owner, changed)


def test_traced_run_matches_untraced(tiny_setup):
    root, setup = tiny_setup
    plain = _op(setup, root / "plain", traced=False)
    traced = _op(setup, root / "traced", traced=True)

    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["wers"] == traced["wers"] and len(plain["wers"]) == 4
    assert _tree_digests(root / "plain") == _tree_digests(root / "traced")
    layers = traced["layers"]
    assert layers["hmm.train_em.calls"] == (4, "count")
    assert layers["experiment.stage.train.build_s"][0] > 0.0
    assert layers["autoencoder.train.calls"] == (1, "count")


def test_forced_failure_shows_in_failed_frac(tiny_setup, monkeypatch):
    root, setup = tiny_setup
    decode_cell = experiment.decode_cell

    def failing_decode(cfg, model, lm, lexicon, test_seqs):
        if test_seqs[0].stream_tag == "eig+dnn" and \
                test_seqs[0].delta_context == 2:
            raise RuntimeError("forced decode failure")
        return decode_cell(cfg, model, lm, lexicon, test_seqs)

    monkeypatch.setattr(experiment, "decode_cell", failing_decode)
    reps = [_op(setup, root / "fail_plain", traced=False)]
    traced = _op(setup, root / "fail_traced", traced=True)
    result, lines = run.summarize([setup], reps, traced)

    # the last of the 4 cells fails, in both runs
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(0.25)
    assert (result["attempted"], result["failed"]) == (8, 2)
    assert not result["correct"]
    assert any("forced decode failure" in line for line in lines)


def test_speed_probe_samples_and_restores_the_alarm():
    def previous(signum, frame):
        raise AssertionError("the probe's timer fired after its block")

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with speed.SpeedProbe() as probe:
            end = time.perf_counter() + 4 * speed.INTERVAL_S
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)

    # one probe before and after the block, and at least one during it
    assert len(probe.samples) >= 3
    assert 0.0 < probe.wall_s < 4 * speed.INTERVAL_S
    assert probe.adjusted_s == pytest.approx(probe.wall_s / probe.slowdown)

import pytest

from vsrlab import corpus, experiment

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Shared sink for the per-criterion pass/fail lines."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def defaults():
    """The config defaults, from their one home: ``ExperimentConfig``. Tests
    that mean a default take it from here; library functions have none."""
    return experiment.ExperimentConfig.from_mapping({})


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small 2-speaker corpus shared by pipeline-level tests (read only)."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    lexicon = corpus.default_lexicon(n_words=6, seed=0)
    spec = corpus.SynthSpec(lexicon=lexicon, n_speakers=2, n_utterances=10,
                            words_per_utterance=(1, 2), seed=0)
    records = corpus.synthesize_corpus(spec, out)
    return out, records


@pytest.fixture(scope="session")
def pin_corpus(tmp_path_factory):
    """(landmarks, frames) of every utterance of a fixed 3-utterance 64x64
    corpus, on which the float64 front-end kernels' digests are pinned."""
    out = tmp_path_factory.mktemp("pin_corpus")
    spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(n_words=6, seed=0),
                            n_speakers=3, n_utterances=3, image_size=(64, 64),
                            seed=3)
    return [(corpus.read_landmarks(r.landmark_path),
             corpus.read_frames(r.frames_path))
            for r in corpus.synthesize_corpus(spec, out)]

"""The benchmark's named workloads.

Each workload is a grid run through ``experiment.run_grid`` on a synthetic
corpus. The corpus is ``ACCEPTANCE_SPEC`` and the grid is ``GRID_OVERRIDES``,
both imported from ``tests/test_acceptance.py`` by the set-up worker, with the
fields below laid over them. The sizes are cut down from the acceptance grid
so that one workload run, set-up included, stays well under a minute on two
cores; README.md says what each workload stresses and what it bypasses.

This module is plain data, so the orchestrating process imports no numpy.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "cold" builds into an empty output directory on every repetition;
    # "warm" primes once in set-up, then each repetition deletes the decode
    # and score outputs of every cell and runs the grid again.
    kind: str
    corpus: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    # vocabulary size of the corpus lexicon, as in the acceptance corpus
    words: int = 20


# 5 speakers, as in ACCEPTANCE_SPEC; the counts set the corpus size. Every
# utterance has 4 words (the generator's default draws 2 to 6), so that the
# amount of work varies less from one seed to the next.
_SMALL_CORPUS = {"n_utterances": 20, "utterances_per_speaker": [4] * 5,
                 "words_per_utterance": [4, 4]}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="frontend_cold",
        why="criterion-4 gating cell (eig+dnn dd2) from an empty tree: "
            "roi, PCA, autoencoder and encoder dominate; EM is a minor share",
        kind="cold",
        corpus=_SMALL_CORPUS,
        grid={"streams": "eig+dnn", "contexts": "2", "norms": "speaker",
              "ae_epochs": "3", "ae_max_frames": "400",
              "pca_max_frames": "120"}),
    Workload(
        name="train_cold",
        why="geo,eig x contexts 0,2 from an empty tree: GMM-HMM EM takes "
            "about two thirds of the time and the autoencoder does no work",
        kind="cold",
        corpus=_SMALL_CORPUS,
        grid={"streams": "geo,eig", "contexts": "0,2", "norms": "speaker",
              "pca_max_frames": "120"}),
    Workload(
        name="redecode_warm",
        why="8 primed cells re-decoded after deleting hyp/score: every "
            "feature and train stage is a cache hit, the decoder dominates",
        kind="warm",
        corpus={"n_utterances": 17, "utterances_per_speaker": [3, 3, 3, 4, 4],
                "words_per_utterance": [4, 4]},
        grid={"streams": "geo,eig", "contexts": "0,1,2,3", "norms": "speaker",
              "test_speakers": "spk03,spk04", "pca_max_frames": "120"}),
)}

"""Check that two vsrlab checkouts synthesize the same corpora, byte for byte.

    python3 tools/compare_corpus.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/`` is imported in a child process of its own, with
BLAS pinned to one thread, which synthesizes every spec that ``specs`` lists with
``corpus.synthesize_corpus`` and hashes every file it wrote with SHA-256.
The specs are ``ACCEPTANCE_SPEC`` from ``tests/test_acceptance.py``, the
corpus of each workload in ``perfbench/workloads.py`` (at the benchmark's
seed 7), and small corpora that reach the generator's other paths: no noise,
no boundary silence, a non-square image and utterances longer than one
rendering chunk. Both sides read the specs from the new checkout. The script
prints each spec's file count and synthesis time on either side, then every
file whose digest differs or that exists on one side only, and exits 1 if
there is any.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_trees import diff_lines, hash_tree, side_env

WORKLOAD_SEED = 7
_SMALL = {"n_speakers": 2, "n_utterances": 4, "seed": 5}


def specs(checkout):
    """Each spec's name and its ``SynthSpec`` fields (``words`` is the
    lexicon size)."""
    checkout = Path(checkout).resolve()
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, str(checkout / sub))
    from test_acceptance import ACCEPTANCE_SPEC
    from workloads import WORKLOADS

    listed = {"acceptance": dict(ACCEPTANCE_SPEC, words=20)}
    for name, workload in WORKLOADS.items():
        listed[name] = dict(ACCEPTANCE_SPEC, **workload.corpus, seed=WORKLOAD_SEED,
                            words=workload.words)
    listed.update({
        "no_noise": dict(_SMALL, noise_level=0.0, words=8),
        "no_silence": dict(_SMALL, add_silence=False, words=8),
        "non_square": dict(_SMALL, image_size=(72, 40), words=8),
        # at least 6 phones of about 40 frames: over two chunks per utterance
        "long": dict(_SMALL, frames_per_phoneme=(40.0, 3.0),
                     words_per_utterance=(1, 1), words=8),
    })
    return listed


def run_side(checkout, spec_file, out):
    """Synthesize every spec in ``spec_file`` with ``checkout``'s ``src/``;
    write each spec's digests and synthesis seconds to ``out`` as JSON."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from vsrlab import corpus

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fields in json.loads(Path(spec_file).read_text()).items():
            fields = dict(fields)
            lexicon = corpus.default_lexicon(n_words=fields.pop("words"), seed=0)
            spec = corpus.SynthSpec(lexicon=lexicon, **fields)
            root = Path(tmp) / name
            start = time.perf_counter()
            corpus.synthesize_corpus(spec, root)
            results[name] = {"seconds": time.perf_counter() - start,
                             "files": hash_tree(root)}
    Path(out).write_text(json.dumps(results))


def main(argv):
    if len(argv) == 4 and argv[0] == "--side":
        run_side(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = side_env()
    sides = []
    with tempfile.TemporaryDirectory() as tmp:
        spec_file = Path(tmp) / "specs.json"
        spec_file.write_text(json.dumps(specs(argv[1])))
        for i, checkout in enumerate(argv):
            out = Path(tmp) / f"side{i}.json"
            subprocess.run([sys.executable, __file__, "--side", checkout,
                            str(spec_file), str(out)], env=env, check=True)
            sides.append(json.loads(out.read_text()))
    old, new = sides
    failed = False
    for name in new:
        a, b = old[name]["files"], new[name]["files"]
        lines = diff_lines(a, b)
        print(f"{name}: {len(a)} files in old, {len(b)} in new; synthesis "
              f"{old[name]['seconds']:.2f} s old, {new[name]['seconds']:.2f} s new; "
              f"{len(lines)} finding(s)")
        if lines:
            print("\n".join(lines))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

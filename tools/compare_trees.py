"""List the files that differ between two checkouts' benchmark grid trees.

    python3 tools/compare_trees.py OLD_CHECKOUT NEW_CHECKOUT

For every workload in ``perfbench/workloads.py``, each checkout builds the
workload's tree with its own ``src/``, ``tests/`` and ``perfbench/``, in a
child process of its own with BLAS pinned to one thread. The tree is built
as a benchmark run builds it: ``perfbench/worker.py``'s set-up (the corpus
at seed 7 and, for a warm workload, the priming grid), then one operation
(the timed grid run). Every file of the tree, corpus included, is hashed
with SHA-256. The script prints each file whose digest differs or that
exists on one side only, and exits 1 if there is any, or if a run failed
its output checks. For some differing files it also prints how far their
values moved, read with the new checkout's loaders:
- ``model.opt``: the largest change of a mean in standard deviations (the
  old variance's), and the largest relative change of a variance, a mixture
  weight and a transition probability;
- ``pca.eig``: the largest change of a component entry and the largest
  relative change of an eigenvalue;
- ``.vfa``: how many stored float32 values differ, and the largest
  difference in units in the last place (ULPs).
It changes nothing under ``perfbench/``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

SEED = 7
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def hash_tree(root):
    """SHA-256 of every file under ``root``, by path relative to it."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def side_env():
    """The environment of a side's child process: BLAS pinned to one thread,
    and no ``PYTHONPATH``, so that each side imports its own checkout."""
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def diff_lines(a, b):
    """One line per path whose digest differs between ``a`` and ``b`` or
    that only one of them holds."""
    return ([f"  only in old: {p}" for p in sorted(a.keys() - b.keys())]
            + [f"  only in new: {p}" for p in sorted(b.keys() - a.keys())]
            + [f"  differs:     {p}" for p in sorted(a.keys() & b.keys()) if a[p] != b[p]])


def relative(a, b):
    """The largest change from ``a`` to ``b`` relative to ``|a|`` (to 1 where
    ``a`` is 0)."""
    import numpy as np

    return float(np.max(np.abs(b - a) / np.where(a != 0.0, np.abs(a), 1.0)))


def parameter_moves(old_path, new_path):
    """How far the model in ``new_path`` moved from the one in ``old_path``,
    as one line, or why the two cannot be compared."""
    import numpy as np
    from vsrlab import hmm

    old, new = hmm.load_model(old_path), hmm.load_model(new_path)
    if (old.phones != new.phones or not np.array_equal(old.phone_n_states, new.phone_n_states)
            or not np.array_equal(old.n_mix, new.n_mix)):
        return "the models differ in phones, states or components"
    sd = float(np.max(np.abs(new.means - old.means) / np.sqrt(old.variances)))
    return (f"means {sd:.2g} sd, variances {relative(old.variances, new.variances):.2g}, "
            f"weights {relative(old.weights, new.weights):.2g}, "
            f"transitions {relative(old.trans, new.trans):.2g} (largest relative change)")


def pca_moves(old_path, new_path):
    """How far the eigenlips model in ``new_path`` moved from the one in
    ``old_path``, as one line."""
    import numpy as np
    from vsrlab import eigenlips

    old, new = eigenlips.load_pca(old_path), eigenlips.load_pca(new_path)
    if old.components.shape != new.components.shape:
        return "the models differ in component count"
    entry = float(np.max(np.abs(new.components - old.components)))
    return (f"components {entry:.2g} (largest change of an entry), eigenvalues "
            f"{relative(old.eigenvalues, new.eigenvalues):.2g} (largest relative change)")


def feature_moves(old_path, new_path):
    """How many stored float32 feature values differ between ``old_path`` and
    ``new_path``, and by how many ULPs at most, as one line."""
    import numpy as np
    from vsrlab import features

    old, new = (features.load_features(p).frames.astype(np.float32) for p in (old_path, new_path))
    if old.shape != new.shape:
        return "the features differ in shape"
    # float32 bits as integers that count ULPs through zero
    bits = [x.view(np.int32).astype(np.int64) for x in (old, new)]
    ordered = [np.where(b < 0, -(b & 0x7FFFFFFF), b) for b in bits]
    ulps = np.abs(ordered[1] - ordered[0])
    return (f"{int(np.count_nonzero(ulps))} of {ulps.size} float32 values differ, "
            f"by at most {int(ulps.max(initial=0))} ULP(s)")


MOVES = {"model.opt": parameter_moves, "pca.eig": pca_moves, ".vfa": feature_moves}


def run_side(checkout, out, trees_dir):
    """Build every workload tree from ``checkout`` under ``trees_dir``; write
    the digests and any failed output checks to ``out`` as JSON."""
    checkout = Path(checkout).resolve()
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, str(checkout / sub))
    import worker
    from workloads import WORKLOADS

    trees, problems = {}, {}
    for name, workload in WORKLOADS.items():
        root = Path(trees_dir) / name
        job = {"workload": asdict(workload), "seed": SEED, "trace": False,
               "corpus_dir": str(root / "corpus"),
               "out_dir": str(root / "out")}
        primed = worker.setup(job)
        job.update(grid=primed["grid"], hyp_digests=primed.get("hyp_digests"))
        result = worker.op(job)
        problems[name] = result["problems"] + ([result["error"]]
                                               if result["error"] else [])
        trees[name] = hash_tree(root)
    Path(out).write_text(json.dumps({"trees": trees, "problems": problems}))


def main(argv):
    if len(argv) == 4 and argv[0] == "--side":
        run_side(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = side_env()
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / f"side{i}" for i in range(2)]
        sides = []
        for checkout, root in zip(argv, roots):
            out = root.with_suffix(".json")
            subprocess.run([sys.executable, __file__, "--side", checkout, str(out), str(root)],
                           env=env, check=True)
            sides.append(json.loads(out.read_text()))
        old, new = sides
        for name in sorted(old["trees"].keys() | new["trees"].keys()):
            a, b = old["trees"].get(name, {}), new["trees"].get(name, {})
            lines = []
            for line in diff_lines(a, b):
                lines.append(line)
                path = line.split()[-1]
                moves = next((f for suffix, f in MOVES.items() if path.endswith(suffix)), None)
                if line.startswith("  differs:") and moves:
                    lines.append("               " + moves(roots[0] / name / path,
                                                           roots[1] / name / path))
            lines += [f"  {side} run failed its checks: {problem}"
                      for side, result in (("old", old), ("new", new))
                      for problem in result["problems"].get(name, [])]
            findings = sum(not line.startswith("    ") for line in lines)
            print(f"{name}: {len(a)} files in old, {len(b)} in new, "
                  f"{findings} finding(s)")
            if lines:
                print("\n".join(lines))
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

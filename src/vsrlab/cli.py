"""Command line front door.

Subcommands cover every pipeline stage plus the full results grid. A stage
subcommand parses its arguments and nothing else: flags whose ``dest`` is a
config key build an ``ExperimentConfig``, validated as ``run-grid`` validates
its config file, and the work goes through the grid's own ``experiment``
stage functions and cached ``Runner``. Outputs are stamped with a key built
from their input content, so a rerun skips outputs that are already current
and rebuilds stale ones. Usage errors exit with status 2 (argparse's
default); pipeline failures print a diagnostic naming the failing stage and
exit with status 1.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, corpus, experiment, features, hmm, lingware, \
    scoring
from .errors import VsrError

DEFAULTS = experiment.CONFIG_DEFAULTS


def _config(args):
    """Config from the flags named after config keys, and a stage runner."""
    cfg = experiment.ExperimentConfig.from_mapping(
        {k: str(v) for k, v in vars(args).items() if k in DEFAULTS})
    return cfg, experiment.Runner(cfg.semantic_hash())


def _feature_files(directory):
    """Utterance id (file stem) -> path of every ``.vfa`` file in a directory."""
    paths = sorted(Path(directory).glob("*.vfa"))
    if not paths:
        raise VsrError(f"no .vfa feature files in {directory}")
    return {p.stem: p for p in paths}


def _records_and_features(cfg, args):
    """Manifest records, optionally cut to a listed subset, and the feature
    file of each."""
    records = corpus.load_manifest(cfg.corpus_dir / "manifest.tsv")
    if args.utterances:
        wanted = set(Path(args.utterances).read_text(encoding="utf-8").split())
        records = [r for r in records if r.utterance_id in wanted]
        if not records:
            raise VsrError("utterance list matches nothing in the manifest")
    return records, [Path(args.feat_dir) / f"{r.utterance_id}.vfa"
                     for r in records]


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_synth_corpus(args):
    lexicon = corpus.default_lexicon(n_words=args.words, seed=args.seed)
    per_speaker = None
    if args.utterances_per_speaker:
        per_speaker = [int(c) for c in args.utterances_per_speaker.split(",")]
    spec = corpus.SynthSpec(lexicon=lexicon, n_speakers=args.speakers,
                            n_utterances=args.utterances, seed=args.seed,
                            utterances_per_speaker=per_speaker)
    corpus.synthesize_corpus(spec, args.out_dir)
    print(f"wrote corpus with {args.speakers} speakers to {args.out_dir}")
    return 0


def cmd_extract_roi(args):
    cfg, runner = _config(args)
    records = corpus.load_manifest(cfg.corpus_dir / "manifest.tsv")
    experiment.stage_roi(runner, cfg, records, args.out_dir)
    print(f"roi: {len(records)} utterances in {args.out_dir}")
    return 0


def cmd_feat_geo(args):
    cfg, runner = _config(args)
    records = corpus.load_manifest(cfg.corpus_dir / "manifest.tsv")
    experiment.stage_geo(runner, records, args.out_dir)
    print(f"geo: {len(records)} utterances in {args.out_dir}")
    return 0


def cmd_train_pca(args):
    cfg, runner = _config(args)
    rois = list(_feature_files(args.roi_dir).values())
    experiment.stage_pca(runner, cfg, rois, args.out)
    print(f"pca: {cfg.pca_components} components from {len(rois)} "
          f"utterances -> {args.out}")
    return 0


def cmd_feat_eig(args):
    _, runner = _config(args)
    paths = experiment.stage_eig(runner, _feature_files(args.roi_dir),
                                 args.pca, args.out_dir)
    print(f"eig: {len(paths)} utterances in {args.out_dir}")
    return 0


def cmd_train_ae(args):
    cfg, runner = _config(args)
    rois = list(_feature_files(args.roi_dir).values())
    experiment.stage_ae(runner, cfg, rois, args.out)
    print(f"ae: {cfg.ae_epochs} epochs on {len(rois)} utterances "
          f"-> {args.out}")
    return 0


def cmd_feat_dnn(args):
    _, runner = _config(args)
    paths = experiment.stage_dnn(runner, _feature_files(args.roi_dir),
                                 args.ae, args.out_dir)
    print(f"dnn: {len(paths)} utterances in {args.out_dir}")
    return 0


def cmd_post(args):
    cfg, runner = _config(args)
    streams = [_feature_files(d) for d in args.in_dirs]
    ids = list(streams[0])
    if any(list(other) != ids for other in streams[1:]):
        raise VsrError("input directories hold different utterance sets")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outs = [out_dir / f"{utt}.vfa" for utt in ids]
    norm, context = cfg.norms[0], cfg.contexts[0]

    def build():
        # each input directory is one base stream, keyed by its position
        base = {str(i): [features.load_features(p) for p in paths.values()]
                for i, paths in enumerate(streams)}
        seqs = experiment.assemble_features(base, "+".join(base), context, norm)
        for out, seq in zip(outs, seqs):
            features.save_features(out, seq)

    runner.stage("post", [p for paths in streams for p in paths.values()],
                 {"norm": norm, "context": context}, outs, build)
    print(f"post: {len(ids)} utterances ({norm}, context {context}) "
          f"in {out_dir}")
    return 0


def cmd_train_hmm(args):
    cfg, runner = _config(args)
    records, feat_paths = _records_and_features(cfg, args)
    log_path = Path(f"{args.out}.loglik.tsv")
    experiment.stage_train(
        runner, cfg, "train", {}, feat_paths,
        lambda: [features.load_features(p) for p in feat_paths], records,
        args.out, log_path)
    print(f"hmm: {len(records)} utterances -> {args.out} (EM log {log_path})")
    return 0


def cmd_align(args):
    cfg, runner = _config(args)
    records, feat_paths = _records_and_features(cfg, args)
    lexicon_path = cfg.corpus_dir / "lexicon.txt"

    def build():
        lexicon = lingware.load_lexicon(lexicon_path)
        model = hmm.load_model(args.model)
        lines = []
        for record, path in zip(records, feat_paths):
            chain = hmm.phone_chain(lexicon, record.transcript,
                                    use_sil=model.use_sil)
            alignment = hmm.forced_align(
                model, features.load_features(path).frames, chain)
            lines += [f"{record.utterance_id}\t{phone}\t{start}\t{end}"
                      for phone, start, end in hmm.phone_spans(alignment)]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    runner.stage("align", [args.model] + feat_paths
                 + [cfg.corpus_dir / "manifest.tsv", lexicon_path], {},
                 [args.out], build)
    print(f"align: {len(records)} utterances -> {args.out}")
    return 0


def cmd_decode(args):
    cfg, runner = _config(args)
    feat_paths = list(_feature_files(args.feat_dir).values())
    experiment.stage_decode(
        runner, cfg, "decode", {}, args.model, args.lm, args.lexicon,
        feat_paths, lambda: [features.load_features(p) for p in feat_paths],
        args.out)
    print(f"decode: {len(feat_paths)} utterances -> {args.out}")
    return 0


def cmd_score(args):
    cfg, _ = _config(args)
    refs = scoring.load_transcripts(args.ref)
    hyps = scoring.load_transcripts(args.hyp)
    report = scoring.evaluate(refs, hyps, n_resamples=cfg.bootstrap,
                              seed=cfg.seed, confidence=cfg.confidence)
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.format_line())
    return 0


def cmd_run_grid(args):
    mapping = experiment.read_config_file(args.config)
    if args.out_dir:
        mapping["out_dir"] = args.out_dir
    cfg = experiment.ExperimentConfig.from_mapping(mapping)
    if not cfg.raw["corpus_dir"]:
        raise VsrError("config must set corpus_dir")
    if not cfg.raw["out_dir"]:
        raise VsrError("config must set out_dir (or pass --out-dir)")
    experiment.run_grid(cfg, jobs=args.jobs)
    print((cfg.out_dir / "results.md").read_text(encoding="utf-8"), end="")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="vsrlab", description="visual speech recognition laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speakers", type=int, default=5)
    p.add_argument("--utterances", type=int, default=240,
                   help="total utterance count")
    p.add_argument("--words", type=int, default=20, help="vocabulary size")
    p.add_argument("--utterances-per-speaker", default="",
                   help="explicit comma-separated per-speaker counts")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("extract-roi", help="aligned mouth ROIs per utterance")
    p.add_argument("--margin", dest="roi_margin", type=float,
                   default=DEFAULTS["roi_margin"])
    p.add_argument("corpus_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_extract_roi)

    p = sub.add_parser("feat-geo", help="geometric lip features")
    p.add_argument("corpus_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_feat_geo)

    p = sub.add_parser("train-pca", help="fit the eigenlip basis")
    p.add_argument("--components", dest="pca_components", type=int,
                   default=DEFAULTS["pca_components"])
    p.add_argument("--max-frames", dest="pca_max_frames", type=int,
                   default=DEFAULTS["pca_max_frames"])
    p.add_argument("roi_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_train_pca)

    p = sub.add_parser("feat-eig", help="project ROIs onto the eigenlip basis")
    p.add_argument("pca")
    p.add_argument("roi_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_feat_eig)

    p = sub.add_parser("train-ae", help="train the convolutional autoencoder")
    p.add_argument("--epochs", dest="ae_epochs", type=int,
                   default=DEFAULTS["ae_epochs"])
    p.add_argument("--lr", dest="ae_lr", type=float, default=DEFAULTS["ae_lr"])
    p.add_argument("--batch", dest="ae_batch", type=int,
                   default=DEFAULTS["ae_batch"])
    p.add_argument("--bottleneck", dest="ae_bottleneck", type=int,
                   default=DEFAULTS["ae_bottleneck"])
    p.add_argument("--channels", dest="ae_channels",
                   default=DEFAULTS["ae_channels"])
    p.add_argument("--max-frames", dest="ae_max_frames", type=int,
                   default=DEFAULTS["ae_max_frames"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("roi_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_train_ae)

    p = sub.add_parser("feat-dnn", help="bottleneck codes from the autoencoder")
    p.add_argument("ae")
    p.add_argument("roi_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_feat_dnn)

    p = sub.add_parser("post", help="normalize, add deltas, combine streams")
    p.add_argument("--norm", dest="norms", choices=features.NORM_MODES,
                   default="speaker")
    p.add_argument("--context", dest="contexts", type=int, default=0,
                   help="delta context; 0 keeps statics only")
    p.add_argument("out_dir")
    p.add_argument("in_dirs", nargs="+")
    p.set_defaults(func=cmd_post)

    p = sub.add_parser("train-hmm", help="embedded GMM-HMM training")
    p.add_argument("--topology", choices=hmm.TOPOLOGY_KINDS,
                   default=DEFAULTS["topology"])
    p.add_argument("--schedule", default=DEFAULTS["schedule"])
    p.add_argument("--utterances", default="",
                   help="file listing utterance ids to train on")
    p.add_argument("corpus_dir")
    p.add_argument("feat_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_train_hmm)

    p = sub.add_parser("align", help="forced phone alignment")
    p.add_argument("--utterances", default="")
    p.add_argument("model")
    p.add_argument("corpus_dir")
    p.add_argument("feat_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("decode", help="bigram Viterbi decoding")
    p.add_argument("--lm-scale", type=float, default=DEFAULTS["lm_scale"])
    p.add_argument("--wip", dest="word_insertion_penalty", type=float,
                   default=DEFAULTS["word_insertion_penalty"],
                   help="word insertion penalty")
    p.add_argument("--beam", default=DEFAULTS["beam"],
                   help="log-domain beam width, or 'none' for exact search")
    p.add_argument("model")
    p.add_argument("lm")
    p.add_argument("lexicon")
    p.add_argument("feat_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="word error rate with bootstrap interval")
    p.add_argument("--bootstrap", type=int, default=DEFAULTS["bootstrap"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--confidence", type=float,
                   default=DEFAULTS["confidence"])
    p.add_argument("--json-out", default="")
    p.add_argument("ref")
    p.add_argument("hyp")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("run-grid", help="full stream x context x norm grid")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default="",
                   help="override the out_dir config key")
    p.add_argument("config")
    p.set_defaults(func=cmd_run_grid)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (VsrError, ValueError, OSError) as exc:
        print(f"vsrlab {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

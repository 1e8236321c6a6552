"""Experiment orchestration: flat key=value configuration, artifact
stamping, content-hash stage caching, and the end-to-end results grid
(7 feature streams x 4 delta contexts x 2 normalizations).

Every artifact gets a ``<name>.meta.json`` sidecar carrying the tool
version, the semantic config hash, the stage name, and a stage key derived
from the input digests and stage parameters. A stage whose outputs all
exist with matching keys is skipped, so re-running after deleting only the
decode outputs re-decodes without retraining.
"""

import functools
import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, autoencoder, corpus, decoder, eigenlips, features, \
    frontend, geometric, hmm, lingware, scoring
from .errors import DegenerateSplitError, EmptyBeamError, FormatError, VsrError

log = logging.getLogger(__name__)

GRID_STREAMS = ("geo", "eig", "dnn", "geo+eig", "geo+dnn", "eig+dnn",
                "geo+eig+dnn")
BASE_STREAMS = ("geo", "eig", "dnn")
CONTEXT_LABELS = {0: "raw", 1: "dd1", 2: "dd2", 3: "dd3"}

# paths do not affect results, so they stay out of the semantic hash
_PATH_KEYS = ("corpus_dir", "out_dir")


# ---------------------------------------------------------------------------
# configuration

def read_config_file(path):
    """Flat ``key=value`` file with ``#`` comments and ``include <path>``."""
    return _read_config(Path(path), frozenset())


def _read_config(path, chain):
    """``chain`` holds the files that include this one, so a file may be
    included more than once but never from inside itself."""
    path = path.resolve()
    if path in chain:
        raise FormatError(f"{path}: include cycle")
    out = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("include "):
            target = line[len("include "):].strip()
            out.update(_read_config(path.parent / target, chain | {path}))
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _csv(value):
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_schedule(value):
    out = []
    for item in _csv(value):
        if ":" not in item:
            raise ValueError(f"schedule entry {item!r} must look like M:iters")
        m, iters = item.split(":", 1)
        out.append((int(m), int(iters)))
    if not out:
        raise ValueError("schedule must not be empty")
    for (m0, _), (m1, _) in zip(out, out[1:]):
        if m1 < m0:
            raise ValueError("mixture schedule must be non-decreasing")
    if any(m < 1 or it < 1 for m, it in out):
        raise ValueError("schedule entries must be positive")
    return out


def _ints(value):
    return [int(item) for item in _csv(value)]


def _beam(value):
    return None if value.lower() in ("", "none", "inf") else float(value)


def _key(default, parse):
    """A config key's field: its default text and its parser."""
    return field(metadata={"default": default, "parse": parse})


@dataclass
class ExperimentConfig:
    """Typed view of a config mapping; build it with ``from_mapping``, which
    fills every field from the mapping merged over ``CONFIG_DEFAULTS``, and
    names the key of any value that it cannot parse. Every field after
    ``raw`` is a config key, declared with its default text and parser."""

    raw: dict
    seed: int = _key("0", int)
    corpus_dir: Path = _key("", Path)
    out_dir: Path = _key("", Path)
    test_speakers: list = _key("", _csv)
    streams: list = _key(",".join(GRID_STREAMS), _csv)
    contexts: list = _key("0,1,2,3", _ints)
    norms: list = _key("speaker,utterance", _csv)
    roi_margin: float = _key("0.15", float)
    pca_components: int = _key("32", int)
    pca_max_frames: int = _key("320", int)
    ae_channels: tuple = _key("8,16,32", lambda value: tuple(_ints(value)))
    ae_bottleneck: int = _key("32", int)
    ae_epochs: int = _key("30", int)
    ae_lr: float = _key("1e-3", float)
    ae_batch: int = _key("32", int)
    ae_max_frames: int = _key("4000", int)
    topology: str = _key("skip2", str)
    schedule: list = _key("1:4,2:4,4:4,8:4", parse_schedule)
    lm_scale: float = _key("10.0", float)
    word_insertion_penalty: float = _key("0.0", float)
    beam: float | None = _key("200.0", _beam)
    bootstrap: int = _key("1000", int)
    confidence: float = _key("0.95", float)

    @classmethod
    def from_mapping(cls, mapping):
        merged = dict(CONFIG_DEFAULTS)
        for key, value in mapping.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
        values = {}
        for key, spec in _KEY_FIELDS.items():
            try:
                values[key] = spec.metadata["parse"](merged[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        cfg = cls(raw=merged, **values)
        cfg.validate()
        return cfg

    def validate(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.streams:
            raise ValueError("streams must not be empty")
        for stream in self.streams:
            parts = stream.split("+")
            if len(set(parts)) != len(parts) or not all(p in BASE_STREAMS
                                                        for p in parts):
                raise ValueError(f"bad stream {stream!r}; parts come from "
                                 f"{BASE_STREAMS}")
        if not self.contexts or any(c not in CONTEXT_LABELS for c in self.contexts):
            raise ValueError(f"contexts must come from {sorted(CONTEXT_LABELS)}")
        if not self.norms or any(n not in features.NORM_MODES for n in self.norms):
            raise ValueError(f"norms must come from {', '.join(features.NORM_MODES)}")
        for key in ("test_speakers", "streams", "contexts", "norms"):
            entries = getattr(self, key)
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ValueError(f"{key}: {entry!r} is listed twice")
        if self.topology not in hmm.TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology {self.topology!r}")
        if not 0.0 <= self.roi_margin <= 1.0:
            raise ValueError("roi_margin must be in [0, 1]")
        if self.pca_components < 1 or self.pca_components > eigenlips.ROI_DIM:
            raise ValueError("pca_components out of range")
        if self.pca_max_frames <= self.pca_components:
            raise ValueError("pca_max_frames must exceed pca_components")
        h, w = autoencoder.DEFAULT_INPUT_HW
        if (not autoencoder.stages_fit(len(self.ae_channels), (h, w))
                or min(self.ae_channels) < 1):
            raise ValueError(f"ae_channels must list positive widths of stride-2 stages "
                             f"that halve the {h}x{w} input exactly")
        for key in ("ae_bottleneck", "ae_epochs", "ae_batch", "ae_max_frames"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if not 0.0 < self.ae_lr < np.inf:
            raise ValueError("ae_lr must be positive and finite")
        self.decode_config()   # rejects a bad lm_scale, penalty or beam
        if self.bootstrap < 100:
            raise ValueError("bootstrap must be at least 100")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    def semantic_hash(self):
        """Hash of everything that can change results; paths excluded."""
        payload = "\n".join(f"{k}={v}" for k, v in sorted(self.raw.items())
                            if k not in _PATH_KEYS)
        return hashlib.sha256(payload.encode()).hexdigest()

    def decode_config(self):
        return decoder.DecodeConfig(lm_scale=self.lm_scale,
                                    word_insertion_penalty=self.word_insertion_penalty,
                                    beam=self.beam)

    def base_streams_needed(self):
        needed = []
        for stream in self.streams:
            for part in stream.split("+"):
                if part not in needed:
                    needed.append(part)
        return needed


_KEY_FIELDS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
CONFIG_DEFAULTS = {key: f.metadata["default"] for key, f in _KEY_FIELDS.items()}


# ---------------------------------------------------------------------------
# artifact stamping and stage caching

def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stamp_path(artifact):
    return Path(str(artifact) + ".meta.json")


def write_stamp(artifact, stage, key, config_hash):
    payload = {"config_hash": config_hash, "key": key, "stage": stage,
               "tool_version": __version__}
    stamp_path(artifact).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                    encoding="utf-8")


def read_stamp(artifact):
    try:
        return json.loads(stamp_path(artifact).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Runner:
    """Executes stages, skipping those whose outputs are already current."""

    def __init__(self, config_hash):
        self.config_hash = config_hash
        self._digests = {}

    def digest(self, path):
        path = Path(path)
        key = str(path)
        if key not in self._digests:
            self._digests[key] = file_digest(path)
        return self._digests[key]

    def stage(self, name, inputs, params, outputs, build):
        """Run ``build`` unless every output already matches the stage key."""
        payload = {"stage": name, "params": params,
                   "inputs": [self.digest(p) for p in inputs]}
        key = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        current = all(Path(out).exists()
                      and (read_stamp(out) or {}).get("key") == key
                      for out in outputs)
        if current:
            log.info("stage %s: cached", name)
            return False
        build()
        for out in outputs:
            if not Path(out).exists():
                raise FormatError(f"stage {name} did not produce {out}")
            self._digests.pop(str(out), None)
            write_stamp(out, name, key, self.config_hash)
        log.info("stage %s: built", name)
        return True


# ---------------------------------------------------------------------------
# corpus plumbing

def load_corpus(cfg):
    """Manifest records, lexicon, and the speaker-held-out split."""
    records = corpus.load_manifest(cfg.corpus_dir / "manifest.tsv")
    lexicon = lingware.load_lexicon(cfg.corpus_dir / "lexicon.txt")
    if not cfg.test_speakers:
        raise DegenerateSplitError("test_speakers is empty; name at least one")
    speakers = {r.speaker_id for r in records}
    missing = [s for s in cfg.test_speakers if s not in speakers]
    if missing:
        raise DegenerateSplitError(f"test speakers {missing} not in the corpus")
    test = [r for r in records if r.speaker_id in cfg.test_speakers]
    train = [r for r in records if r.speaker_id not in cfg.test_speakers]
    if not train:
        raise DegenerateSplitError("no training speakers left")
    return records, lexicon, train, test


# ---------------------------------------------------------------------------
# feature stages (per utterance, cached independently)

def _per_utterance(runner, name, items, inputs_of, params, out_dir, build_one):
    """Cache one ``<utterance id>.vfa`` per entry of ``items`` in ``out_dir``.

    ``items`` maps an utterance id to what ``inputs_of`` turns into the
    stage's input paths and ``build_one(item, out)`` into its output.
    Returns the output path of every utterance, in the order of ``items``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for utt, item in items.items():
        out = paths[utt] = out_dir / f"{utt}.vfa"
        runner.stage(name, inputs_of(item), params, [out],
                     functools.partial(_build_named, name, utt, build_one, item, out))
    return paths


def _build_named(name, utt, build_one, item, out):
    """``build_one(item, out)``, with a failure's message naming the stage
    and the utterance; the error keeps its type and attributes."""
    try:
        build_one(item, out)
    except VsrError as exc:
        exc.args = (f"stage {name}, utterance {utt}: {exc}",)
        raise


def stage_roi(runner, cfg, records, out_dir):
    def build(record, out):
        landmarks = corpus.read_landmarks(record.landmark_path)
        images = corpus.read_frames(record.frames_path)
        rois = frontend.roi_sequence(landmarks, images, margin=cfg.roi_margin)
        features.save_features(out, features.FeatureSequence(
            frames=rois.reshape(rois.shape[0], -1),
            utterance_id=record.utterance_id,
            speaker_id=record.speaker_id, stream_tag="roi"))

    return _per_utterance(runner, "roi", {r.utterance_id: r for r in records},
                          lambda r: [r.landmark_path, r.frames_path],
                          {"margin": cfg.roi_margin}, out_dir, build)


def stage_geo(runner, records, out_dir):
    def build(record, out):
        landmarks = corpus.read_landmarks(record.landmark_path)
        features.save_features(out, features.FeatureSequence(
            frames=geometric.geometric_sequence(landmarks),
            utterance_id=record.utterance_id,
            speaker_id=record.speaker_id, stream_tag="geo"))

    return _per_utterance(runner, "geo", {r.utterance_id: r for r in records},
                          lambda r: [r.landmark_path], {}, out_dir, build)


def subsample_rows(arrays, cap):
    """Deterministic row subsample across concatenated arrays."""
    stacked = np.vstack(arrays)
    if stacked.shape[0] <= cap:
        return stacked
    idx = np.linspace(0, stacked.shape[0] - 1, cap).round().astype(int)
    return stacked[idx]


def _roi_sample(roi_paths, cap):
    return subsample_rows([features.load_features(p).frames for p in roi_paths],
                          cap)


def stage_pca(runner, cfg, roi_paths, out):
    """Eigenlip basis fitted on a row sample of the ROI files ``roi_paths``."""
    def build():
        sample = _roi_sample(roi_paths, cfg.pca_max_frames)
        eigenlips.save_pca(out, eigenlips.fit_pca(sample, cfg.pca_components))

    runner.stage("pca", roi_paths,
                 {"components": cfg.pca_components,
                  "max_frames": cfg.pca_max_frames}, [out], build)


def _encode_rois(runner, name, roi_paths, model_path, load, encode, out_dir):
    """Per-utterance features computed from each ROI file by a trained model.

    ``roi_paths`` maps utterance ids to ROI files; the utterance and speaker
    ids of each output come from its ROI file.
    """
    model = functools.cache(lambda: load(model_path))

    def build(roi_path, out):
        roi = features.load_features(roi_path)
        features.save_features(out, features.FeatureSequence(
            frames=encode(model(), roi.frames), utterance_id=roi.utterance_id,
            speaker_id=roi.speaker_id, stream_tag=name))

    return _per_utterance(runner, name, roi_paths, lambda p: [p, model_path],
                          {}, out_dir, build)


def stage_eig(runner, roi_paths, pca_path, out_dir):
    return _encode_rois(runner, "eig", roi_paths, pca_path, eigenlips.load_pca,
                        eigenlips.project, out_dir)


def stage_ae(runner, cfg, roi_paths, out):
    """Convolutional autoencoder trained on a row sample of ``roi_paths``."""
    def build():
        sample = _roi_sample(roi_paths, cfg.ae_max_frames)
        net = autoencoder.ConvAutoencoder(channels=cfg.ae_channels,
                                          bottleneck=cfg.ae_bottleneck,
                                          seed=cfg.seed)
        net.train(sample.reshape(-1, *net.input_hw), epochs=cfg.ae_epochs,
                  lr=cfg.ae_lr, batch_size=cfg.ae_batch, seed=cfg.seed)
        autoencoder.save_autoencoder(out, net)

    runner.stage("ae", roi_paths,
                 {"channels": list(cfg.ae_channels),
                  "bottleneck": cfg.ae_bottleneck, "epochs": cfg.ae_epochs,
                  "lr": cfg.ae_lr, "batch": cfg.ae_batch,
                  "max_frames": cfg.ae_max_frames, "seed": cfg.seed},
                 [out], build)


def stage_dnn(runner, roi_paths, ae_path, out_dir):
    def encode(net, frames):
        return net.encode(frames.reshape(-1, *net.input_hw))

    return _encode_rois(runner, "dnn", roi_paths, ae_path,
                        autoencoder.load_autoencoder, encode, out_dir)


def stage_lm(runner, cfg, test_records, lexicon):
    """Closed bigram estimated from the test-set transcripts."""
    out = cfg.out_dir / "lm.alm"
    arpa = cfg.out_dir / "lm.arpa"

    def build():
        lm = lingware.fit_bigram([r.transcript for r in test_records],
                                 vocabulary=lexicon.words)
        lingware.save_lm(out, lm)
        lingware.write_arpa(arpa, lm)

    runner.stage("lm", [cfg.corpus_dir / "manifest.tsv",
                        cfg.corpus_dir / "lexicon.txt"],
                 {"speakers": sorted(cfg.test_speakers)}, [out, arpa], build)
    return out


# ---------------------------------------------------------------------------
# model stages (one implementation each, for the grid's cells and the CLI)

def train_cell_model(cfg, train_seqs, train_records, lexicon):
    data = []
    for seq, record in zip(train_seqs, train_records):
        chain = hmm.phone_chain(lexicon, record.transcript, use_sil=True)
        data.append((seq.frames, chain))
    phones = sorted(lexicon.phone_set())
    model = hmm.flat_start([frames for frames, _ in data], phones,
                           topology_kind=cfg.topology, use_sil=True)
    history = hmm.train_em(model, data, schedule=cfg.schedule)
    return model, history


def decode_cell(cfg, model, lm, lexicon, test_seqs):
    graph = decoder.DecodeGraph(model, lm, lexicon)
    try:
        results = decoder.decode_batch(graph, [seq.frames for seq in test_seqs],
                                       cfg.decode_config())
    except EmptyBeamError as err:
        raise EmptyBeamError(f"{test_seqs[err.utterance].utterance_id}: {err}",
                             err.utterance) from err
    return {seq.utterance_id: result.words
            for seq, result in zip(test_seqs, results)}


def stage_train(runner, cfg, name, params, feat_paths, load_seqs, records,
                model_path, log_path):
    """GMM-HMM trained on ``load_seqs()``, one sequence per entry of
    ``records``, keyed on ``feat_paths`` (the files it reads), the manifest,
    the lexicon, the topology, the schedule and ``params``. ``log_path``
    gets an ``M<tab>loglik`` line per EM iteration: the training
    utterances' total log likelihood under the model the iteration started
    from."""
    lexicon_path = cfg.corpus_dir / "lexicon.txt"

    def build():
        model, history = train_cell_model(cfg, load_seqs(), records,
                                          lingware.load_lexicon(lexicon_path))
        hmm.save_model(model_path, model)
        Path(log_path).write_text(
            "".join(f"{m}\t{ll:.6f}\n" for m, ll in history), encoding="utf-8")

    runner.stage(name,
                 [*feat_paths, cfg.corpus_dir / "manifest.tsv", lexicon_path],
                 {**params, "topology": cfg.topology,
                  "schedule": [list(s) for s in cfg.schedule]},
                 [model_path, log_path], build)


def stage_decode(runner, cfg, name, params, model_path, lm_path, lexicon_path,
                 feat_paths, load_seqs, hyp_path):
    """Transcripts of ``load_seqs()``, keyed on the model, LM and lexicon,
    ``feat_paths`` (the files it reads), the LM scale, word insertion
    penalty and beam, and ``params``."""
    def build():
        hyps = decode_cell(cfg, hmm.load_model(model_path),
                           lingware.load_lm(lm_path),
                           lingware.load_lexicon(lexicon_path), load_seqs())
        scoring.save_transcripts(hyp_path, hyps)

    runner.stage(name, [model_path, lm_path, lexicon_path, *feat_paths],
                 {**params, "lm_scale": cfg.lm_scale,
                  "word_insertion_penalty": cfg.word_insertion_penalty,
                  "beam": cfg.beam}, [hyp_path], build)


# ---------------------------------------------------------------------------
# per-cell feature assembly (in memory; base features come off disk)

def assemble_features(base_seqs, stream, context, norm):
    """Normalize each base stream, append deltas, then concatenate.

    ``base_seqs`` maps a base stream name to sequences in a fixed order.
    Returns the combined sequences in that same order.
    """
    parts = stream.split("+")
    processed = []
    for part in parts:
        seqs = features.zscore_normalize(base_seqs[part], norm)
        if context > 0:
            seqs = [features.add_deltas(s, context) for s in seqs]
        processed.append(seqs)
    return [features.combine_streams([p[i] for p in processed])
            for i in range(len(processed[0]))]


def load_base_features(paths_by_stream, records):
    out = {}
    for stream, paths in paths_by_stream.items():
        out[stream] = [features.load_features(paths[r.utterance_id])
                       for r in records]
    return out


# ---------------------------------------------------------------------------
# grid cells

def cell_name(stream, context, norm):
    return f"{stream}_{CONTEXT_LABELS[context]}_{norm}"


def run_cell(cfg, runner, base_paths, lm_path, train_records, test_records, cell):
    """Train, decode, and score one grid cell; returns its report dict."""
    stream, context, norm = cell
    name = cell_name(stream, context, norm)
    cell_dir = cfg.out_dir / "cells" / name
    cell_dir.mkdir(parents=True, exist_ok=True)
    model_path = cell_dir / "model.opt"
    hyp_path = cell_dir / "hyp.tsv"
    score_path = cell_dir / "score.json"

    parts = stream.split("+")
    part_paths = {p: base_paths[p] for p in parts}
    all_records = train_records + test_records
    n_train = len(train_records)

    @functools.cache
    def seqs():
        base = load_base_features(part_paths, all_records)
        return assemble_features(base, stream, context, norm)

    def feat_paths(records):
        return [part_paths[p][r.utterance_id] for p in parts for r in records]

    params = {"stream": stream, "context": context, "norm": norm}
    stage_train(runner, cfg, f"train:{name}", params, feat_paths(train_records),
                lambda: seqs()[:n_train], train_records, model_path,
                cell_dir / "loglik.tsv")
    stage_decode(runner, cfg, f"decode:{name}", params, model_path, lm_path,
                 cfg.corpus_dir / "lexicon.txt", feat_paths(test_records),
                 lambda: seqs()[n_train:], hyp_path)

    def build_score():
        refs = {r.utterance_id: r.transcript for r in test_records}
        hyps = scoring.load_transcripts(hyp_path)
        report = scoring.evaluate(refs, hyps, n_resamples=cfg.bootstrap,
                                  seed=cfg.seed, confidence=cfg.confidence)
        score_path.write_text(report.to_json() + "\n", encoding="utf-8")

    runner.stage(f"score:{name}", [hyp_path, cfg.corpus_dir / "manifest.tsv"],
                 {"bootstrap": cfg.bootstrap, "seed": cfg.seed,
                  "confidence": cfg.confidence},
                 [score_path], build_score)

    return json.loads(score_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# results tables

def _format_cell(report):
    half = (report["ci_high"] - report["ci_low"]) / 2.0
    return f"{report['wer']:.1f}±{half:.1f}"


def write_results(cfg, reports):
    """results.tsv, results.md, and results.json from per-cell reports."""
    columns = [(norm, ctx) for norm in cfg.norms for ctx in cfg.contexts]
    header = ["stream"] + [f"{norm}:{CONTEXT_LABELS[ctx]}"
                           for norm, ctx in columns]
    tsv_lines = ["\t".join(header)]
    md_lines = ["| " + " | ".join(header) + " |",
                "|" + "|".join(["---"] * len(header)) + "|"]
    tree = {}
    for stream in cfg.streams:
        row = [stream]
        for norm, ctx in columns:
            report = reports[(stream, ctx, norm)]
            row.append(_format_cell(report))
            tree.setdefault(stream, {}).setdefault(norm, {})[
                CONTEXT_LABELS[ctx]] = report
        tsv_lines.append("\t".join(row))
        md_lines.append("| " + " | ".join(row) + " |")
    (cfg.out_dir / "results.tsv").write_text("\n".join(tsv_lines) + "\n",
                                             encoding="utf-8")
    (cfg.out_dir / "results.md").write_text("\n".join(md_lines) + "\n",
                                            encoding="utf-8")
    (cfg.out_dir / "results.json").write_text(
        json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# full grid

def run_grid(cfg, jobs=1):
    """Build every stage and the 7x4x2 results grid; returns the reports."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    records, lexicon, train_records, test_records = load_corpus(cfg)
    runner = Runner(cfg.semantic_hash())
    needed = cfg.base_streams_needed()

    root = cfg.out_dir
    base_paths = {}
    if "eig" in needed or "dnn" in needed:
        roi_paths = stage_roi(runner, cfg, records, root / "roi")
        train_rois = [roi_paths[r.utterance_id] for r in train_records]
    if "geo" in needed:
        base_paths["geo"] = stage_geo(runner, records, root / "geo")
    if "eig" in needed:
        stage_pca(runner, cfg, train_rois, root / "pca.eig")
        base_paths["eig"] = stage_eig(runner, roi_paths, root / "pca.eig",
                                      root / "eig")
    if "dnn" in needed:
        stage_ae(runner, cfg, train_rois, root / "autoenc.cae")
        base_paths["dnn"] = stage_dnn(runner, roi_paths, root / "autoenc.cae",
                                      root / "dnn")
    lm_path = stage_lm(runner, cfg, test_records, lexicon)
    scoring.save_transcripts(cfg.out_dir / "ref.tsv",
                             {r.utterance_id: r.transcript
                              for r in test_records})

    cells = [(stream, ctx, norm) for stream in cfg.streams
             for ctx in cfg.contexts for norm in cfg.norms]
    # pool workers get a copy of the runner, and with it the digest table
    run = functools.partial(run_cell, cfg, runner, base_paths, lm_path,
                            train_records, test_records)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = dict(zip(cells, pool.map(run, cells)))
    else:
        reports = dict(zip(cells, map(run, cells)))
    write_results(cfg, reports)
    return reports

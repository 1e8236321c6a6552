"""Exception types shared across the pipeline, and the per-frame check that
raises the geometry one for a batch of frames."""


class VsrError(Exception):
    """Base class for all pipeline errors."""


class FormatError(VsrError):
    """A binary or text container does not match its declared layout."""


class ManifestError(VsrError):
    """Malformed manifest: parse failure, missing or duplicate utterance ids."""


class IntegrityError(VsrError):
    """Corpus files disagree with each other (frame counts, point counts)."""


class DegenerateSplitError(VsrError):
    """A train/test split left one side empty."""


class DegenerateGeometryError(VsrError):
    """Landmark geometry collapsed (coincident corners, zero-area box)."""


def raise_first_degenerate(checks):
    """Raise ``DegenerateGeometryError`` for the earliest frame failing a check.

    ``checks`` lists ``(bad, message)`` pairs in the order a single frame is
    checked, each ``bad`` a (T,) boolean array. The error names that frame
    and the first of its failed checks.
    """
    failed = [(int(bad.argmax()), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if failed:
        frame, i = min(failed)
        raise DegenerateGeometryError(f"frame {frame}: {checks[i][1]}")


class InsufficientDataError(VsrError):
    """Not enough samples to fit the requested model."""


class TrainingDivergedError(VsrError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class SequenceTooShortError(VsrError):
    """A feature sequence is too short for the requested operation."""


class IncompatibleStreamsError(VsrError):
    """Feature streams cannot be combined (length or metadata mismatch)."""


class PipelineOrderError(VsrError):
    """Post-processing steps applied in an unsupported order."""


class LexiconError(VsrError):
    """Bad lexicon entry: unknown phoneme or empty pronunciation."""


class OovError(VsrError):
    """A word is outside the lexicon or language-model vocabulary."""


class AlignmentInfeasibleError(VsrError):
    """No state path is consistent with the transcript and topology."""


class EmptyBeamError(VsrError):
    """All decoding hypotheses were pruned; try a larger beam."""

    def __init__(self, message, utterance=None):
        super().__init__(message)
        self.utterance = utterance      # position in the decoded batch


class UndefinedWerError(VsrError):
    """WER is undefined for an empty reference."""

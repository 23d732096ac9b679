"""Embedding sets, score matrices, partition manifests, and their file formats.

On-disk formats (all UTF-8, LF line endings):

* embedding CSV, headerless: ``utterance_id,speaker_id,v1,...,vD`` with ``-``
  in the speaker column marking an unlabeled utterance,
* score CSV, written and never read: header row naming the columns
  (``utterance_id`` followed by the detector speaker ids), then one row per trial,
* manifest: ``key=value`` lines, one per manifest field.

Floats are written with shortest round-trip repr and parsed as binary64, so
a save followed by a load reproduces every value bit-exactly.  The one row
writer turns a group of rows into Python floats with ``tolist()`` and formats
each with ``float.__repr__``, which gives the same shortest round-trip text
as ``repr(float(x))``; ids get exactly the quoting of ``csv.writer`` with CR
LF line ends, so an id holding a CR reads back too, though rows end in LF.
A written file appears under its name only once it is complete, and the
files written inside one ``output_group`` appear together.  Both read
paths parse values bit-exactly: numpy's ``loadtxt``, which parses embedding
values in blocks of lines, uses the same correctly rounded conversion as
``float()`` (CPython's ``PyOS_string_to_double``), and the csv row loop that
handles the embedding files numpy declines calls ``float()`` itself.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

UNLABELED = "-"
PARTITION_NAMES = ("train", "dev", "test")

_MANIFEST_KEYS = (
    "partition",
    "blacklist_speakers",
    "background_speakers",
    "min_blacklist_utterances",
    "total_utterances",
)


class DataFormatError(ValueError):
    """A file violates the frozen CSV or manifest format."""


def _float_array(values, ndim: int, name: str) -> np.ndarray:
    """``values`` as a C-contiguous float64 array of ``ndim`` dimensions, all finite.

    An array that already is one is returned as it is, not copied.
    """
    array = np.ascontiguousarray(values, dtype=np.float64)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} contain non-finite values")
    return array


def _unique_ids(ids: Iterable, n: int, name: str) -> tuple[str, ...]:
    """``ids`` as a tuple of ``n`` strings; the first repeated one is named."""
    ids = tuple(str(i) for i in ids)
    if len(ids) != n:
        raise ValueError(f"expected {n} {name}s, got {len(ids)}")
    if len(set(ids)) != n:
        seen: set[str] = set()
        repeated = next(i for i in ids if i in seen or seen.add(i))
        raise ValueError(f"duplicate {name} {repeated!r}")
    return ids


def _store(record, **values) -> None:
    """Set the fields of a frozen ``record`` and make its arrays read-only; call after every check."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(record, name, value)


def _records_equal(a, b) -> bool:
    """Field-by-field equality of two records of one type; arrays compare by shape and value."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(frozen=True, eq=False, repr=False)
class EmbeddingSet:
    """Ordered, immutable collection of same-dimension embeddings.

    Rows follow construction (file) order; vectors are held as a
    read-only (N, D) float64 array, so a set can be shared without copies.
    """

    utterance_ids: tuple[str, ...]
    speaker_ids: tuple[str | None, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        vectors = _float_array(self.vectors, 2, "vectors")
        n, d = vectors.shape
        if d < 1:
            raise ValueError("embedding dimension must be >= 1")
        utts = _unique_ids(self.utterance_ids, n, "utterance id")
        if "" in utts:
            raise ValueError("empty utterance id")
        if len(self.speaker_ids) != n:
            raise ValueError(f"expected {n} speaker ids, got {len(self.speaker_ids)}")
        spks = tuple(None if s is None else str(s) for s in self.speaker_ids)
        _store(self, utterance_ids=utts, speaker_ids=spks, vectors=vectors)

    __eq__ = _records_equal

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def subset(self, indices) -> "EmbeddingSet":
        """New set holding the given rows, in the given order."""
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return EmbeddingSet(
            [self.utterance_ids[i] for i in idx],
            [self.speaker_ids[i] for i in idx],
            self.vectors[idx],
        )

    def __repr__(self) -> str:
        return f"EmbeddingSet(n={len(self)}, dimension={self.dimension})"


def concatenate(sets: Sequence[EmbeddingSet]) -> EmbeddingSet:
    """Stack sets in order; dimensions must agree and ids stay unique."""
    if not sets:
        raise ValueError("nothing to concatenate")
    d = sets[0].dimension
    for s in sets[1:]:
        if s.dimension != d:
            raise ValueError(f"dimension mismatch: {s.dimension} vs {d}")
    return EmbeddingSet(
        [u for s in sets for u in s.utterance_ids],
        [p for s in sets for p in s.speaker_ids],
        np.vstack([s.vectors for s in sets]),
    )


# Characters of text per parse block: whole lines, at least this many.  Block
# sizes from 256 KiB to 4 MiB parse the benchmark trials equally fast.
_BLOCK_CHARS = 1 << 20


@contextmanager
def open_text(path):
    """Open a UTF-8 file for ``csv.reader`` (no newline translation).

    A byte that is not UTF-8 ends in a DataFormatError naming the file, the
    line and the byte offset, not in a bare UnicodeDecodeError.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as exc:
        # exc.start counts from the start of a read chunk; find the file offset
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"{path}: line {line}, byte {exc.start}: not valid UTF-8 ({exc.reason})"
        ) from None


def csv_records(f, path):
    """Yield ``(row number, record)`` for each csv record of the open file ``f``.

    A csv.Error (a field longer than ``csv.field_size_limit()``, or a NUL byte
    on Python 3.10) becomes a DataFormatError naming ``path`` and the row.
    """
    reader = csv.reader(f)
    for rownum in itertools.count(1):
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataFormatError(f"{path}: row {rownum}: {exc}") from None
        yield rownum, rec


# (temp file, target) pairs of the open output_group(), None outside one
_staged: list[tuple[Path, Path]] | None = None


@contextmanager
def open_output(path):
    """Open ``path`` for writing UTF-8 text (no newline translation), all or nothing.

    The text goes to a new temp file in the same directory, which replaces
    ``path`` when the block exits cleanly (inside ``output_group``, when the
    group does) and is removed when it raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    # "x" rather than mkstemp: the file mode follows the umask like open("w")
    try:
        f = tmp.open("x", encoding="utf-8", newline="")
    except OSError as exc:  # name the caller's path, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        if _staged is None:
            os.replace(tmp, path)
        else:
            _staged.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def output_group():
    """Make the files written by ``open_output`` in the block appear together or not at all.

    Every file is written to its temp file first; the targets are replaced
    only once the whole block has exited cleanly.  If the block raises, all
    temp files are removed and every target keeps its old contents.
    """
    global _staged
    _staged = staged = []
    try:
        yield
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        _staged = None
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)  # only the ones not yet moved still exist


# Rows formatted per write; bounds the Python floats and text held at once.
# On a 1,816-detector score table, 16 rows kept peak RSS within 1 MB of one
# row per write, and 64 rows added 7 MB; speed did not change.
_ROW_GROUP = 16


# Returns the CSV line instead of writing it.  Its "\r\n" line end makes csv
# quote a field holding \r as well as \n on every Python version, so every id
# reads back; callers cut it off and end rows with "\n".
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow


def _write_rows(f, ids: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """Write one CSV line per row of ``values``: the id columns, then the floats."""
    for a in range(0, len(values), _ROW_GROUP):
        b = a + _ROW_GROUP
        heads = [_csv_line((*row_ids, ""))[:-2] for row_ids in zip(*(c[a:b] for c in ids))]
        rows = values[a:b].tolist()
        f.write("".join([h + ",".join(map(float.__repr__, r)) + "\n" for h, r in zip(heads, rows)]))


def load_embeddings(path, expected_dimension: int | None = None) -> EmbeddingSet:
    """Parse an embedding CSV.

    The dimension is inferred from the first row unless
    ``expected_dimension`` is given.  Format errors carry the 1-based row
    number of the offending line.

    numpy's C reader parses the values in blocks of lines; a file it cannot
    vouch for (csv quoting, CR line ends, any bad row) is parsed again by the
    row loop, which also locates the error.
    """
    path = Path(path)
    fast = _load_blocks(path, expected_dimension)
    return fast if fast is not None else _load_rows(path, expected_dimension)


def _load_blocks(path: Path, expected_dimension: int | None) -> EmbeddingSet | None:
    """The set `_load_rows` returns for ``path``, or None where that is not certain."""
    utts: list[str] = []
    spks: list[str] = []
    blocks: list[np.ndarray] = []
    dim = expected_dimension
    limit = csv.field_size_limit()
    try:
        with path.open("r", encoding="utf-8", newline="") as f:
            while text := f.read(_BLOCK_CHARS):
                if not text.endswith("\n"):
                    text += f.readline()
                # quoting, CR line ends and NUL are the csv module's business
                if '"' in text or "\r" in text or "\0" in text:
                    return None
                lines = text.split("\n")
                if not lines[-1]:
                    lines.pop()
                # csv.reader raises on a field longer than its limit
                if max(map(len, lines)) > limit and any(
                    len(v) > limit for line in lines for v in line.split(",")
                ):
                    return None
                fields = [line.split(",", 2) for line in lines]
                if min(map(len, fields)) < 3:
                    return None
                block_utts, block_spks, rests = zip(*fields)
                # an empty value field would make loadtxt warn; the loop names it
                if not (all(block_spks) and all(rests)):
                    return None
                try:
                    block = np.loadtxt(
                        rests, delimiter=",", dtype=np.float64, ndmin=2, comments=None
                    )
                except ValueError:
                    return None
                if dim is None:
                    dim = block.shape[1]
                if block.shape != (len(rests), dim):
                    return None
                utts.extend(block_utts)
                spks.extend(block_spks)
                blocks.append(block)
    except UnicodeDecodeError:
        return None
    if not blocks:
        return None
    try:
        # rejects empty and duplicate utterance ids and non-finite values
        return EmbeddingSet(
            utts,
            [None if s == UNLABELED else s for s in spks],
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
        )
    except ValueError:
        return None


def _load_rows(path: Path, expected_dimension: int | None) -> EmbeddingSet:
    """Reference parse, one csv record at a time; raises at the first bad row."""
    utts: list[str] = []
    spks: list[str | None] = []
    rows: list[list[float]] = []
    dim = expected_dimension
    seen: dict[str, int] = {}
    with open_text(path) as f:
        for rownum, rec in csv_records(f, path):
            if len(rec) < 3:
                raise DataFormatError(
                    f"{path}: row {rownum}: expected utterance_id,speaker_id,v1,..."
                )
            utt, spk, *vals = rec
            if not utt:
                raise DataFormatError(f"{path}: row {rownum}: empty utterance id")
            if utt in seen:
                raise DataFormatError(
                    f"{path}: row {rownum}: duplicate utterance id {utt!r}"
                    f" (first seen at row {seen[utt]})"
                )
            seen[utt] = rownum
            if not spk:
                raise DataFormatError(
                    f"{path}: row {rownum}: empty speaker field (use '-' for unlabeled)"
                )
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise DataFormatError(
                    f"{path}: row {rownum}: {len(vals)} values, expected {dim}"
                )
            try:
                vec = [float(v) for v in vals]
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {rownum}: unparseable float value"
                ) from None
            if not all(math.isfinite(v) for v in vec):
                raise DataFormatError(f"{path}: row {rownum}: non-finite value")
            utts.append(utt)
            spks.append(None if spk == UNLABELED else spk)
            rows.append(vec)
    if not utts:
        raise DataFormatError(f"{path}: empty embedding file")
    return EmbeddingSet(utts, spks, np.array(rows, dtype=np.float64))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    spks = [UNLABELED if spk is None else spk for spk in embeddings.speaker_ids]
    with open_output(path) as f:
        _write_rows(f, (embeddings.utterance_ids, spks), embeddings.vectors)


@dataclass(frozen=True, eq=False, repr=False)
class ScoreMatrix:
    """Trials x detectors score table with aligned id lists."""

    trial_ids: tuple[str, ...]
    detector_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = _float_array(self.scores, 2, "scores")
        t, s = scores.shape
        if s < 1:
            raise ValueError("a score matrix needs at least one detector")
        _store(
            self,
            trial_ids=_unique_ids(self.trial_ids, t, "trial id"),
            detector_ids=_unique_ids(self.detector_ids, s, "detector id"),
            scores=scores,
        )

    __eq__ = _records_equal

    @property
    def n_trials(self) -> int:
        return self.scores.shape[0]

    @property
    def n_detectors(self) -> int:
        return self.scores.shape[1]

    def __repr__(self) -> str:
        return f"ScoreMatrix(trials={self.n_trials}, detectors={self.n_detectors})"


def save_scores(matrix: ScoreMatrix | Iterable[ScoreMatrix], path) -> None:
    """Write a score CSV from one matrix or from the consecutive trial blocks of one.

    Blocks are written as they arrive, so a generator of blocks never needs
    the whole table in memory; every block names the same detectors.  Values
    are finite (enforced on construction).
    """
    with open_output(path) as f:
        detector_ids = None
        for block in [matrix] if isinstance(matrix, ScoreMatrix) else matrix:
            if detector_ids is None:
                detector_ids = block.detector_ids
                f.write(_csv_line(["utterance_id", *detector_ids])[:-2] + "\n")
            elif block.detector_ids != detector_ids:
                raise ValueError("score blocks name different detectors")
            _write_rows(f, (block.trial_ids,), block.scores)
            del block  # free it before a generator scores the next one
        if detector_ids is None:
            raise ValueError("no score blocks to write")


@dataclass(frozen=True)
class PartitionManifest:
    """Expected composition of one data partition."""

    partition_name: str
    blacklist_speaker_count: int
    background_speaker_count: int
    min_utterances_per_blacklist_speaker: int
    total_utterances: int

    def __post_init__(self) -> None:
        if self.partition_name not in PARTITION_NAMES:
            raise ValueError(f"partition_name must be one of {PARTITION_NAMES}")
        if self.blacklist_speaker_count < 0 or self.background_speaker_count < 0:
            raise ValueError("speaker counts must be non-negative")
        if self.min_utterances_per_blacklist_speaker < 1:
            raise ValueError("min_utterances_per_blacklist_speaker must be positive")
        if self.total_utterances < 0:
            raise ValueError("total_utterances must be non-negative")


def save_manifest(manifest: PartitionManifest, path) -> None:
    values = (
        manifest.partition_name,
        manifest.blacklist_speaker_count,
        manifest.background_speaker_count,
        manifest.min_utterances_per_blacklist_speaker,
        manifest.total_utterances,
    )
    with open_output(path) as f:
        for key, value in zip(_MANIFEST_KEYS, values):
            f.write(f"{key}={value}\n")


def load_manifest(path) -> PartitionManifest:
    path = Path(path)
    fields: dict[str, str] = {}
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataFormatError(f"{path}: line {lineno}: expected key=value")
            if key in fields:
                raise DataFormatError(f"{path}: line {lineno}: duplicate key {key!r}")
            fields[key] = value
    missing = [k for k in _MANIFEST_KEYS if k not in fields]
    if missing:
        raise DataFormatError(f"{path}: missing manifest keys {missing}")
    unknown = [k for k in fields if k not in _MANIFEST_KEYS]
    if unknown:
        raise DataFormatError(f"{path}: unknown manifest keys {unknown}")
    try:
        counts = [int(fields[k]) for k in _MANIFEST_KEYS[1:]]
    except ValueError:
        raise DataFormatError(f"{path}: manifest counts must be integers") from None
    return PartitionManifest(fields["partition"], *counts)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a partition check; violations are data, not failures."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_partition(
    embeddings: EmbeddingSet,
    manifest: PartitionManifest,
    reference_blacklist=None,
    reference_background=None,
) -> ValidationReport:
    """Check a partition's composition against its manifest.

    Labeled speakers count as blacklist speakers unless a reference set says
    otherwise; each unlabeled utterance counts as its own anonymous
    background speaker.  With ``reference_blacklist`` given, labeled speakers
    outside it are background speakers in the train partition and subset
    violations in dev/test.  ``reference_background`` lists background
    speaker ids already used by other partitions; any of them reappearing
    here (labeled) is a disjointness violation.

    The report lists one entry per violated constraint, in a deterministic
    order; an empty list means the partition passes.
    """
    ref_bl = None if reference_blacklist is None else set(reference_blacklist)
    ref_bg = set() if reference_background is None else set(reference_background)

    labeled: dict[str, int] = {}
    unlabeled = 0
    for spk in embeddings.speaker_ids:
        if spk is None:
            unlabeled += 1
        else:
            labeled[spk] = labeled.get(spk, 0) + 1

    violations: list[str] = []
    blacklist: dict[str, int] = {}
    background_speakers = unlabeled
    for spk, count in labeled.items():
        if spk in ref_bg:
            background_speakers += 1
            violations.append(
                f"background speaker {spk!r} already appears in another partition"
            )
        elif ref_bl is None or spk in ref_bl:
            blacklist[spk] = count
        elif manifest.partition_name == "train":
            background_speakers += 1
        else:
            blacklist[spk] = count
            violations.append(
                f"labeled speaker {spk!r} is not in the reference blacklist"
            )

    if len(blacklist) != manifest.blacklist_speaker_count:
        violations.append(
            f"blacklist speaker count {len(blacklist)}"
            f" != manifest {manifest.blacklist_speaker_count}"
        )
    if background_speakers != manifest.background_speaker_count:
        violations.append(
            f"background speaker count {background_speakers}"
            f" != manifest {manifest.background_speaker_count}"
        )
    if len(embeddings) != manifest.total_utterances:
        violations.append(
            f"total utterances {len(embeddings)} != manifest {manifest.total_utterances}"
        )
    minimum = manifest.min_utterances_per_blacklist_speaker
    for spk, count in blacklist.items():
        if count < minimum:
            violations.append(
                f"blacklist speaker {spk!r} has {count} utterances, needs >= {minimum}"
            )
    return ValidationReport(tuple(violations))

"""Embedding sets, score matrices, partition manifests, and their file formats.

Every file the package writes is written here.  On-disk formats (all UTF-8,
LF line endings):

* embedding CSV, headerless: ``utterance_id,speaker_id,v1,...,vD`` with ``-``
  in the speaker column marking an unlabeled utterance,
* float table (``save_table``; the score CSV, the DET curves and
  ``size_sweep.csv``): a header row, then per row its id columns, if any, and
  its floats; the score CSV, written and never read, has the header
  ``utterance_id`` followed by the detector speaker ids and one row per trial,
* JSON (``save_json``; ``mnorm.json``, ``report.json``, ``size_sweep.json``):
  indent 2, sorted keys, a final LF,
* manifest, written and never read: ``key=value`` lines, one per manifest field.

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
handles the embedding files numpy declines calls ``float()`` itself.  The
blocks are parsed across the CPUs in the affinity mask, by this process and
forked workers that fill one shared array, each block by the same call, so
the values are bit-identical at any CPU count.  With one CPU, or without
``os.fork`` or an affinity mask, every block is parsed serially in this
process.
"""

from __future__ import annotations

import csv
import errno
import itertools
import json
import math
import mmap
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

UNLABELED = "-"
PARTITION_NAMES = ("train", "dev", "test")

# in PartitionManifest field order
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
            if idx.shape != (len(self),):
                raise ValueError(f"boolean mask of length {idx.size} for {len(self)} rows")
            idx = np.flatnonzero(idx)
        elif idx.size == 0:  # np.asarray([]) is float64, which numpy refuses as an index
            idx = idx.astype(np.intp)
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


# Bytes per parse block: whole lines, at least this many.  Block sizes from
# 256 KiB to 4 MiB parse the benchmark trials equally fast.
_BLOCK_BYTES = 1 << 20

# Processes that parse the blocks of one embedding file: this one and a
# forked worker for each further CPU in the affinity mask.  Without a mask or
# without fork, this process parses every block itself.
_WORKERS = 1
if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))


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
            _replace_all([(tmp, path)])
        else:
            _staged.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _replace_all(staged: list[tuple[Path, Path]]) -> None:
    """Move each temp file onto its target; none moves if any target is a directory."""
    for _, path in staged:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for tmp, path in staged:
        os.replace(tmp, path)


@contextmanager
def output_group():
    """Make the files written by ``open_output`` in the block appear together or not at all.

    Every file is written to its temp file first; the targets are replaced
    only once the whole block has exited cleanly.  If the block raises, or a
    target is a directory, all temp files are removed and every target keeps
    its old contents.  A nested group that exits cleanly joins the open one.
    """
    global _staged
    outer = _staged
    _staged = staged = []
    try:
        yield
        if outer is None:
            _replace_all(staged)
        else:
            outer += staged
            staged.clear()  # the open group now moves or removes them
    finally:
        _staged = outer
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)  # only the ones not yet moved still exist


# Rows formatted per write; bounds the Python floats and text held at once.
# On a 1,816-detector score table, 16 rows kept peak RSS within 1 MB of one
# row per write, and 64 rows added 7 MB; one row per write was 2-9% slower.
_ROW_GROUP = 16


# Returns the CSV line instead of writing it.  Its "\r\n" line end makes csv
# quote a field holding \r as well as \n on every Python version, so every id
# reads back; callers cut it off and end rows with "\n".
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow


def _write_rows(f, ids: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """Write one CSV line per row of ``values``: the id columns, if any, then the floats."""
    for a in range(0, len(values), _ROW_GROUP):
        b = a + _ROW_GROUP
        rows = values[a:b].tolist()
        cols = [c[a:b] for c in ids]
        # without id columns a row has no head: csv would quote a lone empty field
        heads = [_csv_line((*i, ""))[:-2] for i in zip(*cols)] if cols else [""] * len(rows)
        f.write("".join([h + ",".join(map(float.__repr__, r)) + "\n" for h, r in zip(heads, rows)]))


def save_table(path, header: Sequence[str] | None, ids: Sequence[Sequence[str]], blocks) -> None:
    """Write a CSV table: the ``header`` line unless it is None, then the rows of each block.

    Blocks are 2-D and written as they arrive, so a generator of them never holds the whole table.
    """
    with open_output(path) as f:
        if header is not None:
            f.write(_csv_line(header)[:-2] + "\n")
        b = 0
        for block in blocks:
            values = np.asarray(block, dtype=np.float64)
            if values.ndim != 2:
                raise ValueError(f"table blocks must be 2-D arrays, got {values.ndim}-D")
            a, b = b, b + len(values)
            _write_rows(f, [c[a:b] for c in ids], values)
            del block, values  # free it before a generator scores the next one


def save_json(payload, path) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, a final LF."""
    with open_output(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_embeddings(path, expected_dimension: int | None = None) -> EmbeddingSet:
    """Parse an embedding CSV.

    The dimension is inferred from the first row unless
    ``expected_dimension`` is given.  Format errors carry the 1-based row
    number of the offending line.

    numpy's C reader parses the values in blocks of lines, spread over the
    CPUs in the affinity mask; a file it cannot vouch for (csv quoting, CR
    line ends, any bad row) is parsed again by the row loop, which also
    locates the error.
    """
    path = Path(path)
    fast = _load_blocks(path, expected_dimension)
    return fast if fast is not None else _load_rows(path, expected_dimension)


def _load_blocks(path: Path, expected_dimension: int | None) -> EmbeddingSet | None:
    """The set `_load_rows` returns for ``path``, or None where that is not certain.

    One binary pass finds the blocks of whole lines and counts their lines;
    then every block is parsed into its own rows of one preallocated array.
    """
    with path.open("rb") as f:
        if not f.seekable():  # a pipe can be read once, by the row loop
            return None
        # the first line's commas give the dimension; a row that disagrees declines in its block
        dim = f.readline().count(b",") - 1
        f.seek(0)
        spans = list(_line_spans(f))
        if not spans or dim < 1 or expected_dimension not in (None, dim):
            return None
        ends = list(itertools.accumulate(lines for _, _, lines in spans))
        try:  # shared, so that forked workers fill it; a malformed first line can ask for too much
            buf = mmap.mmap(-1, ends[-1] * dim * 8)
        except (OverflowError, OSError):
            return None
        values = np.frombuffer(buf, dtype=np.float64).reshape(ends[-1], dim)
        jobs = [(offset, size, values[end - n:end]) for (offset, size, n), end in zip(spans, ends)]
        ids = _parse_jobs(f, jobs)
    if ids is None:
        return None
    try:
        # rejects empty and duplicate utterance ids and non-finite values
        return EmbeddingSet(
            [u for utts, _ in ids for u in utts],
            [None if s == UNLABELED else s for _, spks in ids for s in spks],
            values,
        )
    except ValueError:
        return None


def _line_spans(f):
    """Yield ``(offset, size, lines)`` of each block of whole lines of the binary file ``f``.

    Every block but the last has at least ``_BLOCK_BYTES`` bytes; a last line without LF is a line.
    """
    offset = 0
    while raw := f.read(_BLOCK_BYTES):
        if not raw.endswith(b"\n"):
            raw += f.readline()
        yield offset, len(raw), raw.count(b"\n") + (not raw.endswith(b"\n"))
        offset += len(raw)


def _read_at(f, offset: int, size: int) -> bytes:
    """``size`` bytes of the binary file ``f`` from ``offset``.

    ``os.pread`` leaves alone the file offset that forked workers share;
    without it (Windows, where nothing forks) the offset is moved instead.
    """
    if hasattr(os, "pread"):
        return os.pread(f.fileno(), size, offset)
    f.seek(offset)
    return f.read(size)


def _parse_jobs(f, jobs) -> list | None:
    """Parse each ``(offset, size, out)`` block of the binary file ``f`` into its rows ``out``.

    Returns each block's ``(utterance ids, speaker ids)`` in block order, or
    None if any block declines.  Block ``i`` goes to worker ``i % W``: this
    process is worker 0, and the others are forked, write into the shared
    rows and send their ids back through a pipe.  The fork is safe although
    BLAS may run threads: a worker only reads and parses its blocks, calls no
    BLAS, and leaves through ``os._exit``.  No worker outlives this call.
    """
    workers = min(_WORKERS, len(jobs))

    def parse(k):
        ids = []
        for offset, size, out in jobs[k::workers]:
            got = _parse_block(_read_at(f, offset, size), out)
            if got is None:
                return None
            ids.append(got)
        return ids

    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one parses the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(parse(k), pipe)
                    code = 0
                finally:
                    os._exit(code)  # no cleanup of the parent's state
            os.close(w)
            children[k] = pid, open(r, "rb")
        parts = []
        for k in range(workers):
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[k]
                part = pickle.loads(payload) if status == 0 else None
            else:
                part = parse(k)
            if part is None:
                return None
            parts.append(part)
    finally:
        for pid, pipe in children.values():  # after a decline or an error; their blocks go unused
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [parts[i % workers][i // workers] for i in range(len(jobs))]


def _parse_block(raw: bytes, out: np.ndarray) -> tuple[tuple[str, ...], ...] | None:
    """Parse a block of whole lines into its rows ``out``; its utterance and speaker ids, or None."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # quoting, CR line ends and NUL are the csv module's business
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    # csv.reader raises on a field longer than its limit
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit and any(len(v) > limit for line in lines for v in line.split(",")):
        return None
    fields = [line.split(",", 2) for line in lines]
    if min(map(len, fields)) < 3:
        return None
    utts, spks, rests = zip(*fields)
    # an empty value field would make loadtxt warn; the loop names it
    if not (all(spks) and all(rests)):
        return None
    try:
        block = np.loadtxt(rests, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        return None
    if block.shape != out.shape:
        return None
    out[...] = block
    return utts, spks


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
    save_table(path, None, (embeddings.utterance_ids, spks), [embeddings.vectors])


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
    with open_output(path) as f:
        for key, value in zip(_MANIFEST_KEYS, astuple(manifest)):
            f.write(f"{key}={value}\n")


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

"""Embedding sets, score matrices, partition checks, and the package's file formats.

Every file the package writes is written here.  On-disk formats (all UTF-8,
LF line endings):

* embedding CSV, headerless: ``utterance_id,speaker_id,v1,...,vD`` with ``-``
  in the speaker column marking an unlabeled utterance,
* float table (``save_table``; the score CSV, the DET curves and
  ``size_sweep.csv``): a header row, then per row its id columns, if any, and
  its floats; the score CSV, written and never read, has the header
  ``utterance_id`` followed by the detector speaker ids and one row per trial,
* JSON (``save_json``; ``mnorm.json``, ``report.json``, ``size_sweep.json``):
  indent 2, sorted keys, a final LF.

Floats are written with shortest round-trip repr and parsed as binary64, so
a save followed by a load reproduces every value bit-exactly.  The one row
writer turns a group of rows into Python floats with ``tolist()`` and formats
each with ``float.__repr__``, which gives the same shortest round-trip text
as ``repr(float(x))``; ids get exactly the quoting of ``csv.writer`` with CR
LF line ends, so an id holding a CR reads back too, though rows end in LF.
A table block of at least ``_FORK_VALUES`` values is cut into one span of
rows per CPU in the affinity mask: this process formats the first span
into the file and forked workers the others into unlinked temp files,
appended in order.  A row's text does not depend on its span, so the bytes
are the same at any CPU count; smaller blocks are written serially.
Each file goes to a temp file that its ``output_group`` moves into place
once all of the group's files are complete, beside the file a symbolic
link names, so the link is kept; a file written alone is a group of one.
Every CSV input is read in binary blocks of whole lines (``line_blocks``)
that drop a UTF-8 BOM at byte 0, and a byte that is not UTF-8 is named by
its line and file offset from the block in memory (``decode``).  One
reader, ``embedding_spans``, yields an embedding CSV as sets of a fixed row
count (``load_embeddings``: one set); it parses a pipe after EOF from a
copy in an unlinked TMPDIR file, which needs free space of its size.
Both read paths parse values bit-exactly: numpy's ``loadtxt`` rounds as
``float()`` does (CPython's ``PyOS_string_to_double``), and the csv row
loop (``csv_rows``), which reads again from the first span numpy declines,
calls ``float()`` itself.  Each span's pieces are parsed across the CPUs in
the affinity mask, by this process and forked workers that ``pread`` them
into the span's one shared array, each by the same call, so the values are
bit-identical at any CPU count.
``_fork_map``, the one place that forks, maps a list of jobs, one contiguous
run per process; this process redoes a share whose fork or worker fails, and
does them all with one CPU, or without ``os.fork`` or an affinity mask.
"""

from __future__ import annotations

import codecs
import csv
import errno
import itertools
import json
import math
import mmap
import os
import pickle
import shutil
import signal
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

UNLABELED = "-"
PARTITION_NAMES = ("train", "dev", "test")

class DataFormatError(ValueError):
    """A file violates the frozen CSV format."""


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

# Processes that share the blocks of one embedding file or the rows of one
# large table block: this one and a forked worker for each further CPU in the
# affinity mask.  Without a mask or without fork, this process does it all.
_WORKERS = 1
if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))


def _fork_map(work, jobs: Sequence) -> list:
    """``[work(job) for job in jobs]``, the jobs cut into one contiguous share per worker.

    This process runs the first share and a forked worker each other one.
    A worker sends its results back pickled through a pipe and leaves through
    ``os._exit``, so no cleanup of this process's state (an open output
    group, buffered files) runs in it.  A share whose fork fails (no process
    to spare) or whose worker does not exit cleanly is done by this process
    instead, so the results do not depend on how many workers ran.  The fork
    is safe although BLAS may run threads: ``work`` must call no BLAS.  No
    worker outlives this call.
    """
    n = max(1, min(_WORKERS, len(jobs)))
    cuts = [len(jobs) * k // n for k in range(n + 1)]
    shares = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]
    children = {}  # share -> (pid, read end of its pipe)
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one does the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump([work(job) for job in shares[k]], pipe)
                    code = 0
                finally:
                    os._exit(code)  # no cleanup of the parent's state
            os.close(w)
            children[k] = pid, open(r, "rb")
        results = []
        for k, share in enumerate(shares):
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[k]
                if status == 0:
                    results += pickle.loads(payload)
                    continue
            results += [work(job) for job in share]
        return results
    finally:
        for pid, pipe in children.values():  # after an error here; their shares go unused
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def line_blocks(f, offset: int = 0):
    """Yield ``(offset, block)`` for the binary file ``f`` in blocks of whole lines of about ``_BLOCK_BYTES``.

    Reading starts at the position of ``f``, byte ``offset`` of the file, and
    a block's ``offset`` is its first byte.  A UTF-8 BOM at byte 0 is dropped,
    as by the ``utf-8-sig`` codec.  A block runs from its read to the next LF
    or, if as many bytes again hold none (lone-CR line ends, a long line), to
    the last LF or lone CR read; never between a CR and its LF.  The last
    block runs to the end of the file.
    """
    head = b""  # read past the last block's end; offset is the next block's first byte
    while raw := f.read(_BLOCK_BYTES):
        raw = head + raw
        if not raw.endswith(b"\n"):
            raw += f.readline(len(raw))  # no further than doubling, so a long line takes linear time
        if not offset and raw.startswith(codecs.BOM_UTF8):  # whole: a BOM holds no line end
            raw, offset = raw[len(codecs.BOM_UTF8) :], len(codecs.BOM_UTF8)
        end = raw.rfind(b"\n") + 1
        # a CR that ends the read may be the first half of a CR LF
        end = max(end, raw.rfind(b"\r", end, -1) + 1)
        head = raw[end:]
        if end:
            block, raw = [raw[:end]], None  # no name here holds the block, so a caller can drop it
            yield offset, block.pop()
            offset += end
    if head:
        yield offset, head


def decode(raw: bytes, path, offset: int = 0, line: int = 1) -> str:
    """``raw``, the bytes of ``path`` from byte ``offset`` and line ``line`` on, as UTF-8 text.

    A byte that is not UTF-8 is a DataFormatError naming the file, the line and the byte offset.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += len(raw[: exc.start + 1].splitlines()) - 1  # the line ends before the bad byte
        raise DataFormatError(
            f"{path}: line {line}, byte {offset + exc.start}: not valid UTF-8 ({exc.reason})"
        ) from None


def csv_rows(path, blocks, line: int = 1):
    """Yield ``(row number, record)`` for each csv record of the UTF-8 file ``path`` in ``blocks``.

    ``blocks`` are ``(offset, block)`` pairs as ``line_blocks`` yields them,
    from line ``line`` on, which numbers the first row too.  Lines break at
    LF, CR LF and lone CR, as in ``open(newline="")``, and are decoded one
    by one, so every row before a bad byte is yielded before ``decode`` names
    it.  A csv.Error (a field over ``csv.field_size_limit()``, or a NUL byte
    on Python 3.10) becomes a DataFormatError naming the row.
    """

    def lines(line):
        for offset, raw in blocks:
            split = raw.splitlines(keepends=True)
            try:
                yield from map(bytes.decode, split)
            except UnicodeDecodeError:
                decode(raw, path, offset, line)  # names the block's first bad byte
                raise
            line += len(split)

    rownum = line - 1
    try:
        for rownum, rec in enumerate(csv.reader(lines(line)), line):
            yield rownum, rec
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {rownum + 1}: {exc}") from None


# (temp file, target) pairs of the open output_group(), None outside one
_staged: list[tuple[Path, Path]] | None = None


@contextmanager
def open_output(path):
    """Open ``path`` for writing UTF-8 text (no newline translation), all or nothing.

    The text goes to a new temp file in the same directory, staged in the
    open ``output_group`` or, outside one, in a group of its own: it
    replaces ``path`` when the group exits cleanly and is removed if not.
    A symbolic link is kept: the file it names is staged beside and replaced.
    """
    path = Path(path)
    real = Path(os.path.realpath(path)) if path.is_symlink() else path
    tmp = real.with_name(f".{real.name}.{os.urandom(4).hex()}.tmp")
    with output_group():
        # "x" rather than mkstemp: the file mode follows the umask like open("w")
        try:
            f = tmp.open("x", encoding="utf-8", newline="")
        except OSError as exc:  # name the caller's path, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        _staged.append((tmp, real))
        with f:
            yield f


@contextmanager
def output_group():
    """Make the files written by ``open_output`` in the block appear together or not at all.

    Every file is written to its temp file first; the targets are replaced
    only once the whole block has exited cleanly.  If the block raises, or a
    target is a directory, all temp files are removed and every target keeps
    its old contents.  A nested group that exits cleanly joins the open one.
    SIGINT and SIGTERM wait until all targets are replaced.  This is the
    only code that replaces targets or removes temp files.
    """
    global _staged
    outer = _staged
    _staged = staged = []
    try:
        yield
        if outer is not None:
            outer += staged
            staged.clear()  # the open group now moves or removes them
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        with ExitStack() as stack:
            if hasattr(signal, "pthread_sigmask"):  # not on Windows
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
                stack.callback(signal.pthread_sigmask, signal.SIG_SETMASK, mask)
            for tmp, path in staged:
                os.replace(tmp, path)
    finally:
        _staged = outer
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)  # only the ones not yet moved still exist


# Rows formatted per write; bounds the Python floats and text held at once.
# On a 1,816-detector score table, 16 rows kept peak RSS within 1 MB of one
# row per write, and 64 rows added 7 MB; one row per write was 2-9% slower.
_ROW_GROUP = 16

# Values in a table block from which its rows are formatted on every worker.
# Two workers against one, over 11 alternating runs on a 2-CPU VM: 131,072
# values took 80-87 ms against 122-152 ms (10 and 11 wins of 11); at 65,536
# the fork, the copy-on-write faults and the copy cost about what they save.
_FORK_VALUES = 1 << 17


# Returns the CSV line instead of writing it.  Its "\r\n" line end makes csv
# quote a field holding \r as well as \n on every Python version, so every id
# reads back; callers cut it off and end rows with "\n".
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow


def _format_rows(f, ids: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """Write one CSV line per row of ``values``: the id columns, if any, then the floats."""
    for a in range(0, len(values), _ROW_GROUP):
        b = a + _ROW_GROUP
        rows = values[a:b].tolist()
        cols = [c[a:b] for c in ids]
        # without id columns a row has no head: csv would quote a lone empty field
        heads = [_csv_line((*i, ""))[:-2] for i in zip(*cols)] if cols else [""] * len(rows)
        f.write("".join([h + ",".join(map(float.__repr__, r)) + "\n" for h, r in zip(heads, rows)]))


def _write_rows(f, ids: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """``_format_rows`` of one table block into the output file ``f``, across the workers if it is large.

    A block of at least ``_FORK_VALUES`` values is cut into one contiguous
    span of rows per worker.  This process formats the first span straight
    into ``f``; each other span goes to an unlinked temp file beside ``f``,
    which is appended to ``f`` in span order.  A row's text does not depend
    on the span it is in, so the bytes are the same at any worker count.
    """
    n = max(1, min(_WORKERS, len(values))) if values.size >= _FORK_VALUES else 1
    cuts = [len(values) * k // n for k in range(n + 1)]
    with ExitStack() as stack:
        # opened before the fork, so that this process reads what a worker wrote
        outs = [f] + [
            stack.enter_context(
                tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=Path(f.name).parent)
            )
            for _ in range(n - 1)
        ]

        def write(job):
            out, a, b = job
            if out is not f:  # a span redone here after its worker failed starts afresh
                out.seek(0)
                out.truncate()
            _format_rows(out, [c[a:b] for c in ids], values[a:b])
            out.flush()  # a worker leaves without flushing; f's text goes before the spans

        _fork_map(write, list(zip(outs, cuts, cuts[1:])))
        for out in outs[1:]:
            out.seek(0)
            shutil.copyfileobj(out.buffer, f.buffer)


def save_table(path, header: Sequence[str] | None, ids: Sequence[Sequence[str]], blocks) -> None:
    """Write a CSV table: the ``header`` line unless it is None, then the rows of each block.

    Blocks are 2-D and written as they arrive, so a generator of them never holds the whole table.
    An id column that is not one id per row, or a header that does not name every column, is a ValueError.
    """
    with open_output(path) as f:  # an error leaves path as it was
        if header is not None:
            f.write(_csv_line(header)[:-2] + "\n")
        b = 0
        for block in blocks:
            values = np.asarray(block, dtype=np.float64)
            if values.ndim != 2:
                raise ValueError(f"table blocks must be 2-D arrays, got {values.ndim}-D")
            if header is not None and len(header) != len(ids) + values.shape[1]:
                raise ValueError(f"{len(header)} header fields for {len(ids) + values.shape[1]} columns")
            a, b = b, b + len(values)
            _write_rows(f, [c[a:b] for c in ids], values)
            del block, values  # free it before a generator scores the next one
        for c in ids:
            if len(c) != b:
                raise ValueError(f"an id column of {len(c)} ids for a table of {b} rows")


def save_json(payload, path) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, a final LF."""
    with open_output(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_embeddings(path, expected_dimension: int | None = None) -> EmbeddingSet:
    """Parse an embedding CSV: ``embedding_spans`` with one span of the whole file."""
    (whole,) = embedding_spans(path, expected_dimension)
    return whole


def embedding_spans(
    path, expected_dimension: int | None = None, rows: int | None = None
) -> Iterator[EmbeddingSet]:
    """Yield the rows of an embedding CSV as sets of ``rows`` rows, counted from row 0; None is one set of all.

    The dimension is inferred from the first row unless
    ``expected_dimension`` is given.  Format errors carry the 1-based row
    number of the offending line; the spans before it are yielded first.

    A pipe is first copied whole into an unlinked temp file, which needs
    TMPDIR space of its size, and parsed from there after it ends.  Each of
    the file's ``line_blocks`` is cut whole into pieces at the lines that
    end a span, and numpy's C reader parses each span once it is complete,
    across the CPUs in the affinity mask: forked workers ``pread`` their
    pieces, so no bytes are held while they fork.  From the first span the
    C reader cannot vouch for (csv quoting, CR line ends, any bad row, an
    id of an earlier span) on, the row loop reads the file again from that
    span's first line, given the ids seen.  A caller that drops each span
    before asking for the next holds one span at a time.
    """
    path = Path(path)
    with ExitStack() as stack:
        f = stack.enter_context(path.open("rb"))
        if not f.seekable():  # a pipe: its pieces are read at their offsets in a copy
            try:
                spool = stack.enter_context(tempfile.TemporaryFile())
                shutil.copyfileobj(f, spool)
            except OSError as exc:  # name the input, not the temp file
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            f = spool
            f.seek(0)
        seen: dict[str, int] = {}  # utterance id -> row number, of every span yielded
        pieces: list[tuple[int, int, int]] = []  # the open span: (offset, size, lines) pieces
        dim, left = expected_dimension, 0  # left: lines the open span still takes; none opens the next

        def finish():
            """Yield the open span, or the row loop's spans from its first line on and return True."""
            span = _parse_span(f, pieces, dim, seen) if pieces else None
            if span is not None:
                pieces.clear()
                yield span
                return False
            blocks = line_blocks(f, f.seek(pieces[0][0] if pieces else 0))
            yield from _load_rows(path, blocks, dim if seen else expected_dimension, rows, seen)
            return True

        for offset, raw in line_blocks(f):
            if dim is None:  # the first line's commas; a row that disagrees declines in its block
                dim = raw[: raw.find(b"\n") + 1 or None].count(b",") - 1
            cut = []  # the block's (piece, ends a span) pairs
            lines, start = raw.count(b"\n") + (not raw.endswith(b"\n")), 0
            while lines:
                left = left or rows or math.inf
                take, end = min(lines, left), len(raw)
                if take < lines:
                    end = start
                    for _ in range(take):
                        end = raw.index(b"\n", end) + 1
                cut.append(((offset + start, end - start, take), take == left))
                lines, left, start = lines - take, left - take, end
            raw = None  # nor does line_blocks hold it: no bytes are held while a span is parsed
            for piece, ends_span in cut:
                pieces.append(piece)
                if ends_span and (yield from finish()):
                    return
        if pieces or not seen:  # the last span; the row loop names an empty file
            yield from finish()


def _parse_span(f, pieces, dim: int, seen: dict[str, int]) -> EmbeddingSet | None:
    """The ``(offset, size, lines)`` pieces of a span in the file ``f`` as an EmbeddingSet of ``dim`` values a row.

    The pieces are ``_fork_map``'s jobs: forked workers only read and parse
    their pieces into the shared rows, and send back their ids.  None
    if any piece declines, the span fails a record check or repeats an id of
    ``seen``; else the span's ids are added to ``seen`` with their row numbers.
    """
    try:  # shared, so that forked workers fill it; a malformed first line can ask for too much or nothing
        shared = mmap.mmap(-1, sum(n for _, _, n in pieces) * dim * 8)
    except (OverflowError, OSError):
        return None
    values = np.frombuffer(shared, dtype=np.float64).reshape(-1, dim)
    ends = itertools.accumulate(n for _, _, n in pieces)
    jobs = [((offset, size), values[end - n : end]) for (offset, size, n), end in zip(pieces, ends)]
    ids = _fork_map(lambda job: _parse_block(_read_at(f, *job[0]), job[1]), jobs)
    if None in ids:
        return None
    try:  # rejects empty and duplicate utterance ids and non-finite values
        span = EmbeddingSet(
            [u for utts, _ in ids for u in utts],
            [None if s == UNLABELED else s for _, spks in ids for s in spks],
            values,
        )
    except ValueError:
        return None
    if not seen.keys().isdisjoint(span.utterance_ids):
        return None
    seen.update(zip(span.utterance_ids, itertools.count(len(seen) + 1)))
    return span


def _read_at(f, offset: int, size: int) -> bytes:
    """``size`` bytes of the binary file ``f`` from ``offset``; the file's position does not move.

    ``os.pread`` leaves alone the position that forked workers share and
    ``line_blocks`` reads from; without it (Windows, where nothing forks) the
    position is moved and put back.
    """
    if hasattr(os, "pread"):
        return os.pread(f.fileno(), size, offset)
    at = f.tell()
    f.seek(offset)
    raw = f.read(size)
    f.seek(at)
    return raw


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


def _load_rows(path: Path, blocks, dim: int | None, rows: int | None, seen: dict) -> Iterator[EmbeddingSet]:
    """Reference parse, one csv record at a time: the spans of ``embedding_spans`` in ``blocks``.

    ``blocks`` are the ``line_blocks`` of ``path`` from a span's first line
    on; ``seen`` maps the utterance id of each row before them to its row
    number, and ``dim`` is those rows' dimension, or None to take the first
    row's.  Raises at the first bad row.
    """
    utts: list[str] = []
    spks: list[str | None] = []
    vecs: list[list[float]] = []

    def span() -> EmbeddingSet:  # the lists are emptied, so no name holds the rows once it is yielded
        out = EmbeddingSet(utts, spks, np.array(vecs, dtype=np.float64))
        del utts[:], spks[:], vecs[:]
        return out

    for rownum, rec in csv_rows(path, blocks, len(seen) + 1):
        if len(rec) < 3:
            raise DataFormatError(f"{path}: row {rownum}: expected utterance_id,speaker_id,v1,...")
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
            raise DataFormatError(f"{path}: row {rownum}: {len(vals)} values, expected {dim}")
        try:
            vec = [float(v) for v in vals]
        except ValueError:
            raise DataFormatError(f"{path}: row {rownum}: unparseable float value") from None
        if not all(math.isfinite(v) for v in vec):
            raise DataFormatError(f"{path}: row {rownum}: non-finite value")
        utts.append(utt)
        spks.append(None if spk == UNLABELED else spk)
        vecs.append(vec)
        if len(vecs) == rows:
            yield span()
    if not seen:
        raise DataFormatError(f"{path}: empty embedding file")
    if vecs:
        yield span()


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

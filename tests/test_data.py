import codecs
import csv
import errno
import io
import itertools
import math
import os
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackdet import data
from stackdet.bank import _CHUNK, DetectorBank, MNormStats
from stackdet.data import (
    DataFormatError,
    EmbeddingSet,
    PartitionManifest,
    ScoreMatrix,
    concatenate,
    load_embeddings,
    save_embeddings,
    save_table,
    validate_partition,
)
from stackdet.synth import default_partition_specs, manifest_for


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def loop_spans(path, expected_dimension=None, rows=None):
    """The spans the csv row loop alone yields for ``path``."""
    with open(path, "rb") as f:
        yield from data._load_rows(path, data.line_blocks(f), expected_dimension, rows, {})


def row_loop(path, expected_dimension=None):
    """The set the csv row loop alone reads from ``path``."""
    (whole,) = loop_spans(path, expected_dimension)
    return whole


def block_spans(path, expected_dimension=None, rows=None):
    """The spans the block parser yields for ``path``, or None if it leaves any to the row loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_load_rows", lambda *args: iter([None]))  # marks where the row loop starts
        spans = list(data.embedding_spans(path, expected_dimension, rows))
    return None if spans and spans[-1] is None else spans


def csv_rows(path):
    """Every ``(row number, record)`` of the file ``path``."""
    with open(path, "rb") as f:
        return list(data.csv_rows(path, data.line_blocks(f)))


@contextmanager
def pipe_of(raw):
    """``/dev/fd/N``, naming a pipe that a thread fills with ``raw`` and closes."""
    r, w = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(w, raw), os.close(w)))
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        writer.join()
        os.close(r)


def assert_nothing_left(fds):
    """No child of this process is left, and its open descriptors are ``fds``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == fds


@contextmanager
def forked_writes(workers):
    """Every table block with a row per worker is formatted by ``workers`` processes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_WORKERS", workers)
        mp.setattr(data, "_FORK_VALUES", 0)
        yield mp


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
@pytest.mark.parametrize("failure", [None, "no_fork", "second_fork", "worker_exit"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [1, 2, 5, 7])
def test_fork_map_maps_the_jobs_in_order(monkeypatch, n_jobs, workers, failure):
    jobs = [f"j{i}" for i in range(n_jobs)]
    parent, fork, forks = os.getpid(), os.fork, 0

    def some_fork():  # no process to spare at every fork, or from the second on
        nonlocal forks
        forks += 1
        if failure == "no_fork" or failure == "second_fork" and forks > 1:
            raise BlockingIOError(errno.EAGAIN, "no process to spare")
        return fork()

    def work(job):
        if failure == "worker_exit" and job == jobs[-1] and os.getpid() != parent:
            os._exit(3)  # the last share's worker: this process redoes its share
        return job * 2, os.getpid()

    monkeypatch.setattr(data, "_WORKERS", workers)
    monkeypatch.setattr(os, "fork", some_fork)
    fds = set(os.listdir("/proc/self/fd"))
    got = data._fork_map(work, jobs)
    assert [out for out, _ in got] == [job * 2 for job in jobs]
    pids = [pid for _, pid in got]
    # one contiguous share per process, this one's first; a share is done whole by one process
    shares = min(workers, n_jobs)
    cuts = [n_jobs * k // shares for k in range(shares + 1)]
    owners = [set(pids[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert owners[0] == {parent} and all(len(owner) == 1 for owner in owners)
    workers_done = {None: shares - 1, "no_fork": 0, "second_fork": min(shares - 1, 1)}
    workers_done["worker_exit"] = max(shares - 2, 0)  # the last share's worker failed
    assert len(set(pids) - {parent}) == workers_done[failure]
    assert_nothing_left(fds)


class TestLoadEmbeddings:
    def test_two_rows_of_three_floats(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,spk1,1.0,2.0,3.0\nu2,-,0.5,0.25,0.125\n")
        es = load_embeddings(p)
        assert es.dimension == 3
        assert len(es) == 2
        assert es.utterance_ids == ("u1", "u2")
        assert es.speaker_ids == ("spk1", None)
        assert es.vectors.tolist() == [[1.0, 2.0, 3.0], [0.5, 0.25, 0.125]]

    def test_dimension_mismatch_names_row(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,a,1.0,2.0,3.0\nu2,a,1.0,2.0,3.0,4.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_embeddings(p)

    def test_expected_dimension_checked_from_first_row(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,a,1.0,2.0\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_embeddings(p, expected_dimension=3)

    def test_duplicate_utterance_id(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,a,1.0\nu1,b,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate utterance id 'u1'"):
            load_embeddings(p)

    def test_non_finite_value(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,a,1.0,nan\n")
        with pytest.raises(DataFormatError, match="row 1.*non-finite"):
            load_embeddings(p)

    def test_unparseable_float(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,a,1.0,zap\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "e.csv", "")
        with pytest.raises(DataFormatError, match="empty"):
            load_embeddings(p)

    def test_order_preserved(self, tmp_path):
        lines = "".join(f"u{i},a,{i}.5\n" for i in range(20, 0, -1))
        es = load_embeddings(write(tmp_path / "e.csv", lines))
        assert es.utterance_ids == tuple(f"u{i}" for i in range(20, 0, -1))

    def test_plain_file_takes_the_block_path(self, tmp_path):
        p = write(tmp_path / "e.csv", "u1,spk1,1.0,2.0\nu2,-,0.5,0.25\n")
        assert block_spans(p) == [row_loop(p)]

    def test_loop_parses_what_numpy_declines(self, tmp_path):
        # float() accepts digit underscores; numpy's reader does not
        p = write(tmp_path / "e.csv", "u1,a,1_0,2.0\nu2,a,0.5,3\n")
        assert block_spans(p) is None
        assert load_embeddings(p).vectors.tolist() == [[10.0, 2.0], [0.5, 3.0]]

    def test_crlf_and_quoted_files_load_like_plain(self, tmp_path):
        plain = load_embeddings(write(tmp_path / "a.csv", "u1,a,1.0,2.0\nu2,b,3.0,4.0\n"))
        crlf = tmp_path / "b.csv"
        crlf.write_bytes(b'"u1",a,1.0,2.0\r\nu2,"b",3.0,4.0\r\n')
        assert load_embeddings(crlf) == plain

    def test_error_at_a_block_boundary_names_its_row(self, tmp_path, monkeypatch):
        lines = [f"u{i},a,{i}.5,1.0\n" for i in range(6)]
        lines[3] = "u3,a,1.0\n"
        p = write(tmp_path / "e.csv", "".join(lines))
        monkeypatch.setattr(data, "_BLOCK_BYTES", len("".join(lines[:3])))
        with pytest.raises(DataFormatError, match="row 4: 1 values, expected 2"):
            load_embeddings(p)

    def test_a_first_line_too_wide_to_preallocate_declines(self, tmp_path):
        # 100,001 rows of 100,000 values would take 80 GB
        n = 100_000
        text = "u0,a," + ",".join(["0"] * n) + "\n" + "".join(f"u{i},a,0\n" for i in range(1, n + 1))
        p = write(tmp_path / "e.csv", text)
        assert block_spans(p) is None
        with pytest.raises(DataFormatError, match=f"row 2: 1 values, expected {n}$"):
            load_embeddings(p)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
    def test_no_worker_or_descriptor_outlives_a_load(self, tmp_path, monkeypatch):
        lines = [f"u{i},a,{i}.5,1.0\n" for i in range(12)]
        good = write(tmp_path / "good.csv", "".join(lines))
        # numpy declines the last block, which a forked worker parses
        bad = write(tmp_path / "bad.csv", "".join(lines[:-1]) + "u11,a,1_0,1.0\n")
        monkeypatch.setattr(data, "_BLOCK_BYTES", len(lines[0]))
        monkeypatch.setattr(data, "_WORKERS", 3)
        fds = set(os.listdir("/proc/self/fd"))

        def nothing_left():
            assert_nothing_left(fds)

        expected = row_loop(good)
        assert block_spans(good) == [expected]
        nothing_left()
        assert block_spans(bad) is None
        assert load_embeddings(bad).vectors[-1].tolist() == [10.0, 1.0]
        nothing_left()

        parent, parse = os.getpid(), data._parse_block

        def fail_in_parent(raw, out):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            return parse(raw, out)

        with monkeypatch.context() as mp:
            mp.setattr(data, "_parse_block", fail_in_parent)
            with pytest.raises(RuntimeError, match="parent failed"):
                load_embeddings(good)
        nothing_left()

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "no process to spare")

        with monkeypatch.context() as mp:  # this process parses every block itself
            mp.setattr(os, "fork", no_fork)
            assert block_spans(good) == [expected]
        nothing_left()

    def test_without_fork_or_pread_blocks_are_parsed_serially(self, tmp_path, monkeypatch):
        lines = [f"u{i},a,{i}.5,{10 ** i}.0\n" for i in range(6)]  # of different lengths
        p = write(tmp_path / "e.csv", "".join(lines))
        # blocks of two or three lines, so that a one-row span ends inside a block
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * len(lines[0]) + 1)
        monkeypatch.setattr(data, "_WORKERS", 1)  # its value where os.fork is missing
        monkeypatch.delattr(os, "pread")
        assert block_spans(p) == [row_loop(p)]
        # six spans, each read at its offsets while the scan is past its end
        assert block_spans(p, None, 1) == list(loop_spans(p, None, 1))

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_no_bytes_of_an_input_are_held_while_a_span_is_parsed(self, tmp_path, monkeypatch, source):
        # spans of 316 rows end 4 and 8 rows before the end of a 64-row block.  What a worker
        # would inherit at the fork of a span is the ids seen and the pieces, never a block,
        # for a pipe too: it is read from its copy.  Once the span is yielded, no piece of it is held
        lines = [f"u{i:03},s{i % 7}," + ",".join([f"{i:03}.123456789"] * 300) + "\n" for i in range(948)]
        p = write(tmp_path / "e.csv", "".join(lines))
        block = 64 * len(lines[0])
        if source == "pipe" and not os.path.isdir("/dev/fd"):
            pytest.skip("names a pipe through /dev/fd")
        monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        monkeypatch.setattr(data, "_WORKERS", 1)
        parsing, held, fork_map = [], [], data._fork_map

        def spy(work, jobs):
            parsing.append(tracemalloc.get_traced_memory()[0])
            return fork_map(work, jobs)

        monkeypatch.setattr(data, "_fork_map", spy)
        with pipe_of(p.read_bytes()) if source == "pipe" else nullcontext(p) as path:
            tracemalloc.start()
            try:
                for span in data.embedding_spans(path, None, 316):
                    held.append(tracemalloc.get_traced_memory()[0])
                    assert len(span) == 316
            finally:
                tracemalloc.stop()
        assert len(parsing) == len(held) == 3
        assert max(parsing) < block
        assert max(held) < block

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
    @pytest.mark.parametrize("first", [b"u1", b'"u1"'], ids=["plain", "quoted"])
    def test_a_pipe_loads(self, first):
        # a pipe is read once: a quoted id must not leave the row loop an empty pipe
        r, w = os.pipe()
        os.write(w, first + b",a,1.0,2.0\nu2,-,0.5,0.25\n")
        os.close(w)
        try:
            es = load_embeddings(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert es.utterance_ids == ("u1", "u2") and es.vectors.tolist() == [[1.0, 2.0], [0.5, 0.25]]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
    def test_a_bad_byte_in_a_pipe_is_named_by_its_line_and_byte(self):
        # past the first 8 KiB of the pipe, which is read once, so gone when the byte is found
        good = b"".join(b"u%d,a,1.0,2.0\n" % i for i in range(1000))
        r, w = os.pipe()
        os.write(w, good + b"\xff,a,1.0,2.0\n")
        os.close(w)
        try:
            with pytest.raises(DataFormatError) as info:
                load_embeddings(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert len(good) > 8192
        assert str(info.value) == (
            f"/dev/fd/{r}: line 1001, byte {len(good)}: not valid UTF-8 (invalid start byte)"
        )

    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    def test_a_bom_is_dropped(self, tmp_path, monkeypatch, block):
        # one BOM at byte 0, as the utf-8-sig codec drops it; a second one is part of the id
        text = "u1,spk1,1.0,2.0\nu2,-,0.5,0.25\n"
        plain = write(tmp_path / "plain.csv", text)
        bom = write(tmp_path / "bom.csv", "\ufeff" + text)
        two = write(tmp_path / "two.csv", "\ufeff\ufeff" + text)
        monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        expected = row_loop(plain)
        assert block_spans(bom) == [expected] and row_loop(bom) == expected
        assert load_embeddings(two).utterance_ids == ("\ufeffu1", "u2")
        if os.path.isdir("/dev/fd"):
            with pipe_of(bom.read_bytes()) as pipe:
                assert load_embeddings(pipe) == expected
        # a byte offset in an error stays the file's
        bad = tmp_path / "bad.csv"
        raw = bom.read_bytes().replace(b"0.25", b"0.2\xff")
        bad.write_bytes(raw)
        with pytest.raises(DataFormatError) as info:
            load_embeddings(bad)
        at = raw.index(b"\xff")
        assert str(info.value) == f"{bad}: line 2, byte {at}: not valid UTF-8 (invalid start byte)"

    def test_not_utf8_names_file_line_and_byte(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_bytes(b"u1,a,1.0\nu2,a,2\xff.0\n")
        with pytest.raises(DataFormatError) as info:
            load_embeddings(p)
        assert str(info.value) == f"{p}: line 2, byte 15: not valid UTF-8 (invalid start byte)"

    def test_benchmark_shaped_train_counts(self, tmp_path, benchmark_population_small_dim):
        train = benchmark_population_small_dim.train
        save_embeddings(train, tmp_path / "train.csv")
        loaded = load_embeddings(tmp_path / "train.csv")
        assert len(loaded) == 41845
        labeled = {s for s in loaded.speaker_ids if s is not None}
        assert len(labeled) == 3631 + 5000


# Value tokens: shortest reprs, long decimal literals (rounding), and the
# spellings float() and numpy's reader treat alike or differently.
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.from_regex(r"\A[+-]?[0-9]{1,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,2})?\Z"),
    st.sampled_from(["-0.0", "5e-324", "2.2250738585072011e-308", ".5", "5.", "1E5"]),
)
_ID = st.text(alphabet="ab1_-é #", min_size=1, max_size=5)


def _first_value(make):
    """Row defect that rewrites the first value, if the row still has one."""
    return lambda r: [*r[:2], make(r[2]), *r[3:]] if len(r) > 2 else r


# row defects: row -> row, where a row is [utt, spk, *values]
_ROW_DEFECTS = {
    "quoted_id": lambda r: [r[0] + ',"q', *r[1:]],
    "quote_in_id": lambda r: [r[0] + '"', *r[1:]],
    "quoted_speaker": lambda r: [r[0], 's,"2', *r[2:]],
    "hash": _first_value(lambda v: "#" + v),
    "nan": _first_value(lambda v: "nan"),
    "inf": _first_value(lambda v: "-inf"),
    "overflow": _first_value(lambda v: "1e999"),
    "underscore": _first_value(lambda v: "1_0"),
    "arabic_digit": _first_value(lambda v: "\u0661"),
    "spaces": _first_value(lambda v: " " + v + "\t"),
    "extra_value": lambda r: [*r, "1.5"],
    "missing_value": lambda r: r[:-1],
    "empty_id": lambda r: ["", *r[1:]],
    "empty_speaker": lambda r: [r[0], "", *r[2:]],
    "empty_value": _first_value(lambda v: ""),
}
# line defects, applied to the written text: (lines, i) -> lines
_LINE_DEFECTS = {
    "blank_line": lambda ls, i: ls[:i] + [""] + ls[i:],
    "trailing_comma": lambda ls, i: ls[:i] + [ls[i] + ","] + ls[i + 1:],
    "duplicate_id": lambda ls, i: ls[:i] + [ls[0]] + ls[i + 1:],
    "short_row": lambda ls, i: ls[:i] + ["u,-"] + ls[i + 1:],
}
_DEFECTS = sorted(
    [*_ROW_DEFECTS, *_LINE_DEFECTS, "crlf", "no_final_newline", "not_utf8", "wrong_expected_dimension"]
)


class TestFastPathEqualsLoop:
    """load_embeddings, numpy blocks first, equals the csv row loop alone."""

    @staticmethod
    def outcome(load, path, expected_dimension):
        try:
            return load(path, expected_dimension)
        except DataFormatError as exc:
            return str(exc)

    @staticmethod
    def spans(spans):
        """The sets ``spans`` yields and the message of the error it ends in, if any."""
        got = []
        try:
            for span in spans:
                got.append(span)
        except DataFormatError as exc:
            return got, str(exc)
        return got, None

    # span sizes read through a pipe: the whole file, one row, a few, one score block
    PIPE_ROWS = (None, 1, 7, _CHUNK) if os.path.isdir("/dev/fd") else ()

    def piped_spans(self, raw, path, expected_dimension, rows):
        """``spans`` of ``embedding_spans`` over a pipe of ``raw``; an error names ``path`` for the pipe."""
        with pipe_of(raw) as pipe:
            sets, error = self.spans(data.embedding_spans(pipe, expected_dimension, rows))
        return sets, error and error.replace(f"{pipe}:", f"{path}:", 1)

    @staticmethod
    def assert_spans_equal_the_loop(got, loop, rows):
        """``got`` equals the row loop's spans ``loop``: each of ``rows`` rows but the last, bit for bit."""
        assert got == loop
        sets, error = got
        assert all(len(s) == rows for s in sets[:-1])
        if sets and error is None:
            whole = concatenate(sets).vectors.view(np.uint64)
            assert whole.tobytes() == concatenate(loop[0]).vectors.view(np.uint64).tobytes()

    @pytest.mark.parametrize("defect", [None, *_DEFECTS])
    @settings(deadline=None, max_examples=25)
    @given(
        ids=st.lists(_ID, min_size=1, max_size=9, unique=True),
        dim=st.integers(min_value=1, max_value=4),
        data_=st.data(),
    )
    def test_same_set_or_same_error(self, tmp_path_factory, defect, ids, dim, data_):
        draw = data_.draw
        # the parametrized defect, and sometimes a second one on the same row
        defects = {defect, draw(st.sampled_from([None, None, None, *_DEFECTS]))} - {None}
        rows = [
            [utt, draw(st.sampled_from(["-", "s1", "s2"]))]
            + draw(st.lists(_VALUE, min_size=dim, max_size=dim))
            for utt in ids
        ]
        bad = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        for name in sorted(defects & _ROW_DEFECTS.keys()):
            rows[bad] = _ROW_DEFECTS[name](rows[bad])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        lines = buf.getvalue().split("\n")[:-1]
        for name in sorted(defects & _LINE_DEFECTS.keys()):
            lines = _LINE_DEFECTS[name](lines, bad)
        eol = "\r\n" if "crlf" in defects else "\n"
        raw = (eol.join(lines) + ("" if "no_final_newline" in defects else eol)).encode("utf-8")
        if "not_utf8" in defects:
            at = len("".join(line + eol for line in lines[:bad]).encode("utf-8"))
            at += draw(st.integers(min_value=0, max_value=3))
            raw = raw[:at] + b"\xff" + raw[at:]
        expected = dim + 1 if "wrong_expected_dimension" in defects else draw(st.sampled_from([None, dim]))
        path = tmp_path_factory.mktemp("fast") / "e.csv"
        path.write_bytes(raw)

        # end the first block one line before, at, or one line after the bad row, and
        # its read one byte before, at, or after that line end (inside a multibyte id)
        cut = min(max(bad + draw(st.sampled_from([-1, 0, 1])), 1), len(lines))
        block = len("".join(line + eol for line in lines[:cut]).encode("utf-8"))
        block = max(block + draw(st.sampled_from([-1, 0, 1])), 1)
        loop = self.outcome(row_loop, path, expected)
        whole = ([loop], None) if isinstance(loop, EmbeddingSet) else ([], loop)
        # spans of one row, of a few, and of one score block; the defect may fall in a later span
        by_rows = {rows: self.spans(loop_spans(path, expected, rows)) for rows in (1, 7, _CHUNK)}
        for sets, error in by_rows.values():  # the whole read's set, cut into spans, or its error
            assert (concatenate(sets), error) == (loop, None) if whole[1] is None else error == loop
        rows = draw(st.sampled_from(sorted(by_rows)))
        # this process alone, and with one or two forked workers
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK_BYTES", block)
                mp.setattr(data, "_WORKERS", workers)
                fast = self.outcome(load_embeddings, path, expected)
                spans = self.spans(data.embedding_spans(path, expected, rows))
                # the same bytes through a pipe, at every span size
                piped = {n: self.piped_spans(raw, path, expected, n) for n in self.PIPE_ROWS}
                if defects <= {"no_final_newline"}:
                    assert block_spans(path, expected) is not None
                    assert block_spans(path, expected, rows) is not None
            assert type(fast) is type(loop)
            assert fast == loop
            if isinstance(loop, EmbeddingSet):
                assert fast.vectors.view(np.uint64).tobytes() == loop.vectors.view(np.uint64).tobytes()
            self.assert_spans_equal_the_loop(spans, by_rows[rows], rows)
            for n, got in piped.items():
                self.assert_spans_equal_the_loop(got, by_rows.get(n, whole), n)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, _CHUNK])
    @pytest.mark.parametrize(
        "case", ["late_decline", "split_duplicate", "empty_file", "pipe", "pipe_late_decline"]
    )
    def test_spans_equal_the_loop(self, tmp_path, monkeypatch, case, rows, workers):
        n = 2 * rows + 3  # three spans, the last of three rows
        lines = [f"u{i},s{i % 3},{i}.5,-{i}e-3\n" for i in range(n)]
        if case.endswith("late_decline"):  # numpy declines the last row, float() reads it
            lines[-1] = f"u{n - 1},s,1_0,2\n"
        if case == "split_duplicate":  # the first row of span 2 repeats the first row of span 0
            lines[2 * rows] = "u0" + lines[2 * rows][len(f"u{2 * rows}"):]
        path = tmp_path / "e.csv"
        path.write_text("" if case == "empty_file" else "".join(lines), encoding="utf-8")
        loop = self.spans(loop_spans(path, None, rows))
        assert loop[1] == {
            "late_decline": None,
            "split_duplicate": f"{path}: row {2 * rows + 1}: duplicate utterance id 'u0' (first seen at row 1)",
            "empty_file": f"{path}: empty embedding file",
            "pipe": None,
            "pipe_late_decline": None,
        }[case]
        # the block parser yields every span before the one it cannot vouch for, and the row
        # loop reads the file, or a pipe's copy, again from that span's first row; a clean
        # pipe never reaches the row loop
        declined_span = {
            "late_decline": (n - 1) // rows,
            "split_duplicate": 2,
            "empty_file": 0,
            "pipe": None,
            "pipe_late_decline": (n - 1) // rows,
        }[case]
        starts, load_rows = [], data._load_rows

        def spy(path, blocks, dim, rows, seen):
            starts.append(len(seen) + 1)
            return load_rows(path, blocks, dim, rows, seen)

        monkeypatch.setattr(data, "_load_rows", spy)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 256)
        monkeypatch.setattr(data, "_WORKERS", workers)
        fds = set(os.listdir("/proc/self/fd"))
        if case.startswith("pipe"):
            with pipe_of(path.read_bytes()) as pipe:
                got = self.spans(data.embedding_spans(pipe, None, rows))
        else:
            got = self.spans(data.embedding_spans(path, None, rows))
        self.assert_spans_equal_the_loop(got, loop, rows)
        assert starts == ([] if declined_span is None else [declined_span * rows + 1])
        assert_nothing_left(fds)


class TestEmbeddingRoundTrip:
    def test_tricky_floats_bit_exact(self, tmp_path):
        vals = np.array(
            [
                [0.1, -0.0, 1.0 / 3.0],
                [1e-300, -1e308, 5e-324],
                [1.5, -2.2250738585072014e-308, 123456789.123456789],
            ]
        )
        es = EmbeddingSet(["a", "b", "c"], ["s1", None, "s1"], vals)
        save_embeddings(es, tmp_path / "e.csv")
        back = load_embeddings(tmp_path / "e.csv")
        assert back == es
        assert back.vectors.tobytes() == es.vectors.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        ids=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        dim=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_roundtrip_property(self, tmp_path_factory, ids, dim, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        vecs = np.array(
            [data.draw(st.lists(finite, min_size=dim, max_size=dim)) for _ in ids]
        )
        spks = [
            data.draw(st.sampled_from([None, "spk1", "spk2"])) for _ in ids
        ]
        es = EmbeddingSet(ids, spks, vecs)
        p = tmp_path_factory.mktemp("rt") / "e.csv"
        save_embeddings(es, p)
        assert load_embeddings(p) == es


class TestScoreMatrix:
    """The dense score record, and the score CSV ``save_table`` writes from it."""

    def test_single_cell_file_content(self, tmp_path):
        save_table(tmp_path / "s.csv", ("utterance_id", "det_1"), (["utt1"],), [np.array([[0.5]])])
        text = (tmp_path / "s.csv").read_text(encoding="utf-8")
        assert text == "utterance_id,det_1\nutt1,0.5\n"

    def test_roundtrip_random_10x4(self, tmp_path):
        rng = np.random.default_rng(7)
        m = ScoreMatrix(
            [f"t{i}" for i in range(10)],
            [f"d{j}" for j in range(4)],
            rng.standard_normal((10, 4)),
        )
        save_table(tmp_path / "s.csv", ("utterance_id", *m.detector_ids), (m.trial_ids,), [m.scores])
        with open(tmp_path / "s.csv", encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        back = ScoreMatrix([r[0] for r in rows], header[1:], [[float(v) for v in r[1:]] for r in rows])
        assert header[0] == "utterance_id"
        assert back == m
        assert back.scores.tobytes() == m.scores.tobytes()

    def test_nan_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreMatrix(["t"], ["d"], [[float("nan")]])

    def test_shape_and_id_mismatches(self):
        with pytest.raises(ValueError):
            ScoreMatrix(["t1", "t2"], ["d"], [[0.1]])
        with pytest.raises(ValueError, match="duplicate trial id"):
            ScoreMatrix(["t", "t"], ["d"], [[0.1], [0.2]])

    def test_no_detectors_rejected(self):
        with pytest.raises(ValueError, match="at least one detector"):
            ScoreMatrix(["t"], [], np.zeros((1, 0)))

    def test_blocks_write_the_same_file_as_the_matrix(self, tmp_path):
        m = ScoreMatrix(["t1", "t2", "t3"], ["d1", "d2"], np.arange(6.0).reshape(3, 2) / 7)
        header, ids = ("utterance_id", *m.detector_ids), (m.trial_ids,)
        save_table(tmp_path / "whole.csv", header, ids, [m.scores])
        for workers in (1, 2, 3):
            # uneven blocks, an empty one included, from a generator
            blocks = (m.scores[a:b] for a, b in ((0, 2), (2, 2), (2, 3), (3, 3)))
            with forked_writes(workers):
                save_table(tmp_path / "blocks.csv", header, ids, blocks)
            assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "header, ids, widths, message",
        [
            (("id", "a", "b"), (["x", "y"],), [2], "an id column of 2 ids for a table of 3 rows"),
            (("id", "a", "b"), (["x", "y", "z", "w"],), [2], "an id column of 4 ids for a table of 3 rows"),
            # the second id column runs out in the second block
            (("i", "j", "a"), (["x", "y", "z"], ["x", "y"]), [1, 1], "of 2 ids for a table of 3 rows"),
            (("a",), (), [3], "1 header fields for 3 columns"),
            (("id", "a", "b"), (["x", "y", "z"],), [2, 3], "3 header fields for 4 columns"),
        ],
        ids=["short_ids", "long_ids", "short_in_a_later_block", "narrow_header", "a_later_block_too_wide"],
    )
    def test_columns_that_disagree_keep_the_old_file(self, tmp_path, header, ids, widths, message, workers):
        # one block of three rows, or a row and then two, of the given widths
        blocks = [np.ones((3, widths[0]))] if len(widths) == 1 else [np.ones((1, widths[0])), np.ones((2, widths[1]))]
        p = write(tmp_path / "t.csv", "old\n")
        with forked_writes(workers), pytest.raises(ValueError, match=message):
            save_table(p, header, ids, blocks)
        assert p.read_text(encoding="utf-8") == "old\n"
        assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]

    def test_a_block_that_is_not_2d_is_rejected(self, tmp_path):
        scores = np.arange(6.0).reshape(3, 2)
        # a bare table iterates as 1-D rows
        for blocks in (scores, [scores, scores[0]], [np.float64(0.5)]):
            with pytest.raises(ValueError, match="table blocks must be 2-D arrays"):
                save_table(tmp_path / "s.csv", ("id", "a", "b"), (["t1", "t2", "t3"],), blocks)
        assert list(tmp_path.iterdir()) == []


def reference_csv(rows) -> bytes:
    """The bytes csv.writer(lineterminator="\\r\\n") writes for ``rows``, but with LF row ends.

    That line terminator makes csv.writer quote a field holding a bare CR on
    every Python version, so every id loads back.
    """
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


# csv specials, non-ASCII (incl. astral and U+2028) and plain text; no NUL or surrogates
_ID_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\r", "\n", "\xe9", "\u4e16", "\u2028", "\U0001f642", " "]),
        st.characters(min_codepoint=33, max_codepoint=126),
    ),
    max_size=6,
)
# where repr switches between fixed and exponent notation, and the extremes
_EDGE_FLOATS = [
    -0.0, 5e-324, 1e-05, 0.0001, 9999999999999998.0, 9.999999999999999e15, 1e16,
    1.7976931348623157e308, -1.7976931348623157e308,
]


class TestRowWriter:
    """The one row writer equals csv.writer over ``repr(float(x))``, byte for byte, at any worker count."""

    @settings(deadline=None, max_examples=60)
    @given(
        n_rows=st.sampled_from([1, data._ROW_GROUP - 1, data._ROW_GROUP, data._ROW_GROUP + 1]),
        dim=st.integers(1, 4),
        data_=st.data(),
    )
    def test_equals_csv_writer(self, tmp_path_factory, n_rows, dim, data_):
        utts = data_.draw(
            st.lists(_ID_TEXT.filter(bool), min_size=n_rows, max_size=n_rows, unique=True)
        )
        spks = data_.draw(
            st.lists(st.one_of(st.none(), st.just(""), _ID_TEXT), min_size=n_rows, max_size=n_rows)
        )
        value = st.one_of(
            st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
        )
        vecs = np.array(
            data_.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows))
        )
        es = EmbeddingSet(utts, spks, vecs)
        dets = [f"d{j}," if j % 2 else f"d{j}" for j in range(dim)]
        tmp = tmp_path_factory.mktemp("rows")
        values = [[repr(float(x)) for x in row] for row in vecs]
        labels = [data.UNLABELED if s is None else s for s in spks]
        # Round trip.  An empty speaker field does not load and "-" loads as
        # None, so those speakers are made unlabeled first.
        rt = EmbeddingSet(
            utts, [None if s in (None, "", data.UNLABELED) else s for s in spks], vecs
        )
        # this process alone, and with one or two forked workers
        for workers in (1, 2, 3):
            with forked_writes(workers):
                save_embeddings(es, tmp / "e.csv")
                save_table(tmp / "s.csv", ["utterance_id", *dets], (utts,), [vecs])
                save_embeddings(rt, tmp / "rt.csv")
            assert (tmp / "e.csv").read_bytes() == reference_csv(
                [u, s, *row] for u, s, row in zip(utts, labels, values)
            )
            assert (tmp / "s.csv").read_bytes() == reference_csv(
                [["utterance_id", *dets]] + [[u, *row] for u, row in zip(utts, values)]
            )
            back = load_embeddings(tmp / "rt.csv")
            assert back == rt
            assert back.vectors.view(np.uint64).tobytes() == vecs.view(np.uint64).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        n_rows=st.sampled_from([0, 1, data._ROW_GROUP, data._ROW_GROUP + 1]),
        n_ids=st.integers(0, 2),
        dim=st.integers(1, 3),
        data_=st.data(),
    )
    def test_table_equals_csv_writer(self, tmp_path_factory, n_rows, n_ids, dim, data_):
        # a table may have no id columns and may hold infinities, as a DET curve does
        ids = [data_.draw(st.lists(_ID_TEXT, min_size=n_rows, max_size=n_rows)) for _ in range(n_ids)]
        value = st.one_of(
            st.sampled_from([*_EDGE_FLOATS, -math.inf, math.inf]), st.floats(allow_nan=False)
        )
        vecs = np.array(
            data_.draw(st.lists(value, min_size=n_rows * dim, max_size=n_rows * dim)),
            dtype=np.float64,
        ).reshape(n_rows, dim)
        header = [f"c{j}" for j in range(n_ids + dim)]
        # the rows in one block or several, empty ones included
        cuts = sorted(data_.draw(st.lists(st.integers(0, n_rows), max_size=3)))
        path = tmp_path_factory.mktemp("table") / "t.csv"
        rows = [[*(c[r] for c in ids), *map(repr, map(float, vecs[r]))] for r in range(n_rows)]
        for workers in (1, 2, 3):
            with forked_writes(workers):
                data.save_table(path, header, ids, np.split(vecs, cuts))
            assert path.read_bytes() == reference_csv([header, *rows])

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        p = write(tmp_path / "e.csv", "old\n")

        def boom(*args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(data, "_write_rows", boom)
        with pytest.raises(RuntimeError):
            save_embeddings(EmbeddingSet(["u"], ["s"], [[1.0]]), p)
        assert p.read_text(encoding="utf-8") == "old\n"
        assert [q.name for q in tmp_path.iterdir()] == ["e.csv"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
    def test_no_worker_or_descriptor_outlives_a_write(self, tmp_path):
        ids = [f'u{i},"\r' for i in range(7)]
        values = np.arange(14.0).reshape(7, 2) / 3
        rows = [[i, *map(repr, row)] for i, row in zip(ids, values.tolist())]
        expected = reference_csv([["id", "a", "b"], *rows])
        p = tmp_path / "t.csv"
        fds = set(os.listdir("/proc/self/fd"))
        parent, fork, fmt = os.getpid(), os.fork, data._format_rows

        def save(blocks=(values,)):
            p.write_bytes(b"old\n")
            save_table(p, ("id", "a", "b"), (ids,), blocks)

        def check(content):
            assert p.read_bytes() == content
            assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]
            assert_nothing_left(fds)

        with forked_writes(3) as mp:
            for spare in (0, 1):  # no process to spare at the first fork, or at the second

                def some_fork():
                    nonlocal forks
                    forks += 1
                    if forks > spare:
                        raise BlockingIOError(errno.EAGAIN, "no process to spare")
                    return fork()

                forks = 0
                mp.setattr(os, "fork", some_fork)
                save()
                check(expected)
            mp.setattr(os, "fork", fork)

            # a worker that fails part way has its span formatted here again, into the same bytes
            def fail_in_worker(f, *args):
                if os.getpid() != parent:
                    f.write("part of a row,")
                    f.flush()
                    raise RuntimeError("worker failed")
                fmt(f, *args)

            mp.setattr(data, "_format_rows", fail_in_worker)
            save()
            check(expected)

            # this process fails in the second block, with the workers of both running
            calls = 0

            def fail_here_later(*args):
                nonlocal calls
                if os.getpid() == parent:
                    calls += 1
                    if calls > 1:
                        raise RuntimeError("parent failed")
                fmt(*args)

            mp.setattr(data, "_format_rows", fail_here_later)
            with pytest.raises(RuntimeError, match="parent failed"):
                save([values[:4], values[4:]])
            check(b"old\n")


class TestCsvRows:
    """csv_rows yields what csv.reader yields over the file opened in text mode."""

    @staticmethod
    def reference(path):
        with open(path, encoding="utf-8-sig", newline="") as f:
            return list(enumerate(csv.reader(f), 1))

    # block sizes that put block edges inside quoted fields, and one that holds the file
    @settings(deadline=None, max_examples=150)
    @given(
        rows=st.lists(st.lists(_ID_TEXT, min_size=1, max_size=4), min_size=1, max_size=8),
        eol=st.sampled_from(["\n", "\r\n", "\r"]),
        final_eol=st.booleans(),
        bom=st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]),
        block=st.sampled_from([1, 64, 1 << 20]),
    )
    def test_equals_the_text_mode_reader(self, tmp_path_factory, rows, eol, final_eol, bom, block):
        lines = []
        for row in rows:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            lines.append(buf.getvalue()[:-2])
        path = tmp_path_factory.mktemp("rows") / "r.csv"
        path.write_bytes((bom + eol.join(lines) + (eol if final_eol else "")).encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_BYTES", block)
            assert csv_rows(path) == self.reference(path)

    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    def test_a_short_row_before_a_bad_byte_is_reported_first(self, tmp_path, monkeypatch, block):
        p = tmp_path / "e.csv"
        p.write_bytes(b"u1,a,1.0\nu2,a\nu3,a,\xff\n")
        monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        with pytest.raises(DataFormatError) as info:
            load_embeddings(p)
        assert str(info.value) == f"{p}: row 2: expected utterance_id,speaker_id,v1,..."

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_blocks_are_whole_lines_of_at_most_two_reads(self, monkeypatch, eol):
        line = b"u000,a,1.0" + eol
        raw = b"".join(line.replace(b"000", b"%03d" % i) for i in range(200))
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)
        offsets, blocks = zip(*data.line_blocks(io.BytesIO(raw)))
        assert b"".join(blocks) == raw
        assert list(offsets) == [0, *itertools.accumulate(map(len, blocks[:-1]))]
        assert all(b.endswith(eol) for b in blocks)  # a CR LF is never split
        assert max(map(len, blocks)) < 2 * (64 + len(line))

    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    def test_blocks_from_an_offset_count_from_it_and_keep_a_bom(self, monkeypatch, block):
        # the row loop reads a declined span again from its first line: a BOM there is an
        # id's first character, not the file's, and offsets stay the file's
        raw = codecs.BOM_UTF8 + b"u0,a,1.0\n" + codecs.BOM_UTF8 + b"u1,a,2.0\nu2,a,3.0\n"
        at = raw.index(b"\n") + 1
        monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        f = io.BytesIO(raw)
        f.seek(at)
        offsets, blocks = zip(*data.line_blocks(f, at))
        assert b"".join(blocks) == raw[at:]
        assert list(offsets) == [at + o for o in [0, *itertools.accumulate(map(len, blocks[:-1]))]]
        # from byte 0, the first BOM is dropped
        offset, first = next(data.line_blocks(io.BytesIO(raw)))
        assert (offset, first[:3]) == (len(codecs.BOM_UTF8), b"u0,")

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    def test_a_bad_byte_is_named_by_its_line_at_any_line_end(self, tmp_path, monkeypatch, eol, block):
        raw = b"".join(b"u%d,a,1.0" % i + eol for i in range(20))
        at = raw.index(b"u17,") + 1
        p = tmp_path / "e.csv"
        p.write_bytes(raw[:at] + b"\xff" + raw[at:])
        monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        with pytest.raises(DataFormatError) as info:
            csv_rows(p)
        assert str(info.value) == f"{p}: line 18, byte {at}: not valid UTF-8 (invalid start byte)"


class TestManifest:
    def test_bad_partition_name(self):
        with pytest.raises(ValueError, match="partition_name"):
            PartitionManifest("eval", 1, 1, 1, 2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("train", -1, 1, 1, 2), "speaker counts must be non-negative"),
            (("train", 1, -1, 1, 2), "speaker counts must be non-negative"),
            (("train", 1, 1, 0, 2), "min_utterances_per_blacklist_speaker must be positive"),
            (("train", 1, 1, 1, -1), "total_utterances must be non-negative"),
        ],
    )
    def test_bad_count(self, fields, message):
        with pytest.raises(ValueError, match=message):
            PartitionManifest(*fields)


class TestValidatePartition:
    def test_benchmark_train_passes(self, benchmark_population_small_dim):
        pop = benchmark_population_small_dim
        manifest = manifest_for(default_partition_specs()[0], "train")
        report = validate_partition(
            pop.train, manifest, reference_blacklist=pop.blacklist_speaker_ids
        )
        assert report.ok, report.violations

    def test_benchmark_dev_and_test_pass(self, benchmark_population_small_dim):
        pop = benchmark_population_small_dim
        _, dev_spec, test_spec = default_partition_specs()
        train_bg = {
            s
            for s in pop.train.speaker_ids
            if s is not None and s not in set(pop.blacklist_speaker_ids)
        }
        for es, spec, name in ((pop.dev, dev_spec, "dev"), (pop.test, test_spec, "test")):
            report = validate_partition(
                es,
                manifest_for(spec, name),
                reference_blacklist=pop.blacklist_speaker_ids,
                reference_background=train_bg,
            )
            assert report.ok, report.violations

    def test_underfilled_speaker_gives_single_violation(self):
        # reassign one utterance between speakers: totals stay intact,
        # only the per-speaker minimum breaks
        vecs = np.arange(12, dtype=float).reshape(6, 2)
        spks = ["a", "a", "b", "b", "b", "b"]
        es = EmbeddingSet([f"u{i}" for i in range(6)], spks, vecs)
        manifest = PartitionManifest("train", 2, 0, 3, 6)
        report = validate_partition(es, manifest, reference_blacklist={"a", "b"})
        assert report.violations == (
            "blacklist speaker 'a' has 2 utterances, needs >= 3",
        )

    def test_background_disjointness_single_violation(self):
        # dev partition where one background utterance carries a speaker id
        # already used by the train background
        utts = [f"u{i}" for i in range(6)]
        spks = ["bl1", "bl2", "bg_train7", None, None, None]
        es = EmbeddingSet(utts, spks, np.arange(12, dtype=float).reshape(6, 2))
        manifest = PartitionManifest("dev", 2, 4, 1, 6)
        report = validate_partition(
            es,
            manifest,
            reference_blacklist={"bl1", "bl2"},
            reference_background={"bg_train7", "bg_train8"},
        )
        assert report.violations == (
            "background speaker 'bg_train7' already appears in another partition",
        )

    def test_dev_labeled_outside_reference_is_subset_violation(self):
        es = EmbeddingSet(
            ["u1", "u2", "u3"],
            ["bl1", "intruder", None],
            np.arange(6, dtype=float).reshape(3, 2),
        )
        manifest = PartitionManifest("dev", 2, 1, 1, 3)
        report = validate_partition(es, manifest, reference_blacklist={"bl1", "bl2"})
        assert any("not in the reference blacklist" in v for v in report.violations)

    @pytest.mark.parametrize(
        "field, violation",
        [
            ("blacklist_speaker_count", "blacklist speaker count 2 != manifest 3"),
            ("background_speaker_count", "background speaker count 1 != manifest 2"),
            ("total_utterances", "total utterances 4 != manifest 5"),
        ],
    )
    def test_each_count_that_disagrees_is_one_violation(self, field, violation):
        # speakers a and b on the blacklist, and one unlabeled background utterance
        es = EmbeddingSet(["u1", "u2", "u3", "u4"], ["a", "a", "b", None], np.eye(4))
        manifest = PartitionManifest("train", 2, 1, 1, 4)
        assert validate_partition(es, manifest).ok
        off = replace(manifest, **{field: getattr(manifest, field) + 1})
        assert validate_partition(es, off).violations == (violation,)

    def test_reports_are_deterministic(self, benchmark_population_small_dim):
        pop = benchmark_population_small_dim
        manifest = manifest_for(default_partition_specs()[1], "dev")
        a = validate_partition(pop.dev, manifest, pop.blacklist_speaker_ids)
        b = validate_partition(pop.dev, manifest, pop.blacklist_speaker_ids)
        assert a == b


UNIT_ROWS = [[0.6, 0.8], [1.0, 0.0]]

# record -> (build it around one array, a valid array, a build that fails only
# after that array passed its checks, the kind of id a repeat of "x" is named as)
RECORDS = {
    "EmbeddingSet": (
        lambda a: EmbeddingSet(["u1", "u2"], ["s", None], a),
        UNIT_ROWS,
        lambda a: EmbeddingSet(["x", "x"], ["s", None], a),
        "utterance id",
    ),
    "ScoreMatrix": (
        lambda a: ScoreMatrix(["t1", "t2"], ["d1", "d2"], a),
        UNIT_ROWS,
        lambda a: ScoreMatrix(["t1", "t2"], ["x", "x"], a),
        "detector id",
    ),
    "DetectorBank": (
        lambda a: DetectorBank(["d1", "d2"], a),
        UNIT_ROWS,
        lambda a: DetectorBank(["x", "x"], a),
        "speaker id",
    ),
    "MNormStats": (
        lambda a: MNormStats(a, np.ones(len(a)), 3),
        [0.5, -0.25],
        lambda a: MNormStats(a, np.ones(len(a)), 0),
        None,  # no ids
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_share_one_validation(name):
    build, valid, late_failure, id_kind = RECORDS[name]
    valid = np.array(valid)
    if id_kind is not None:
        with pytest.raises(ValueError, match=f"duplicate {id_kind} 'x'"):
            late_failure(valid)
    for bad in (np.nan, np.inf):
        values = valid.copy()
        values.flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build(values)
    with pytest.raises(ValueError, match=f"must be a {valid.ndim}-D array"):
        build(valid[None])

    shared = valid.copy()
    record = build(shared)
    arrays = [getattr(record, f.name) for f in fields(record)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert any(a is shared for a in arrays)  # a float64 array is held, not copied
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0].flat[0] = 0.0
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))

    # frozen only once every check has passed
    caller = valid.copy()
    with pytest.raises(ValueError):
        late_failure(caller)
    assert caller.flags.writeable


def test_records_of_two_types_differ_and_name_their_shapes():
    es = EmbeddingSet(["u1"], ["s1"], np.zeros((1, 2)))
    matrix = ScoreMatrix(["u1"], ["d1"], np.zeros((1, 1)))
    assert not (es == matrix or matrix == es)
    assert repr(es) == "EmbeddingSet(n=1, dimension=2)"
    assert repr(matrix) == "ScoreMatrix(trials=1, detectors=1)"


class TestSubset:
    @pytest.mark.parametrize("empty", [[], range(0), np.array([], dtype=np.int64)])
    def test_no_indices_give_an_empty_set(self, empty):
        es = EmbeddingSet(["a", "b"], ["s", None], np.eye(2))
        none = es.subset(empty)
        assert (len(none), none.dimension, none.utterance_ids) == (0, 2, ())

    @pytest.mark.parametrize("mask", [[True, False], [True] * 5])
    def test_boolean_mask_of_another_length_is_an_error(self, mask):
        es = EmbeddingSet(["a", "b", "c", "d"], ["s", None, "s", None], np.eye(4))
        assert es.subset([False, True, False, True]).utterance_ids == ("b", "d")
        with pytest.raises(ValueError, match=f"mask of length {len(mask)} for 4 rows"):
            es.subset(mask)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EmbeddingSet(["u"], ["s"], np.zeros((1, 0))), "embedding dimension must be >= 1"),
        (lambda: EmbeddingSet(["u1", "u2"], ["s"], np.eye(2)), "expected 2 speaker ids, got 1"),
        (lambda: concatenate([]), "nothing to concatenate"),
    ],
    ids=["zero_width", "speaker_id_count", "concatenate_nothing"],
)
def test_bad_embedding_sets_are_named(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestConcatenate:
    def test_orders_and_dims(self):
        a = EmbeddingSet(["u1"], ["s"], [[1.0, 0.0]])
        b = EmbeddingSet(["u2"], [None], [[0.0, 1.0]])
        c = concatenate([a, b])
        assert c.utterance_ids == ("u1", "u2")
        with pytest.raises(ValueError, match="dimension mismatch"):
            concatenate([a, EmbeddingSet(["u3"], ["s"], [[1.0, 2.0, 3.0]])])
        with pytest.raises(ValueError, match="duplicate"):
            concatenate([a, a])


class TestOutputGroup:
    def write(self, path, text):
        with data.open_output(path) as f:
            f.write(text)

    def test_targets_change_only_when_the_group_exits(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("old a", encoding="utf-8")
        with data.output_group():
            self.write(a, "new a")
            self.write(b, "new b")
            assert a.read_text(encoding="utf-8") == "old a" and not b.exists()
        assert (a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")) == ("new a", "new b")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_a_failure_keeps_every_target(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("old a", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with data.output_group():
                self.write(a, "new a")
                self.write(b, "new b")
                raise RuntimeError("late failure")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
        assert a.read_text(encoding="utf-8") == "old a"
        self.write(b, "alone")  # outside a group each file is replaced at once
        assert b.read_text(encoding="utf-8") == "alone"

    def test_a_nested_group_joins_the_open_one(self, tmp_path):
        paths = [tmp_path / f"{name}.json" for name in "abc"]

        def write_nested():
            data.save_json("a", paths[0])
            with data.output_group():  # as save_bank and save_size_sweep open theirs
                data.save_json("b", paths[1])
            data.save_json("c", paths[2])

        with pytest.raises(RuntimeError):
            with data.output_group():
                write_nested()
                raise RuntimeError("late failure")
        assert list(tmp_path.iterdir()) == []
        with data.output_group():
            write_nested()
            assert not any(p.exists() for p in paths)
        assert sorted(tmp_path.iterdir()) == paths

    def test_a_failed_nested_group_leaves_none_of_its_files(self, tmp_path):
        a, b, c = (tmp_path / f"{name}.txt" for name in "abc")
        with data.output_group():
            self.write(a, "a")
            with pytest.raises(RuntimeError):
                with data.output_group():
                    self.write(b, "b")
                    raise RuntimeError("inner failure")
            self.write(c, "c")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "c.txt"]

    def test_a_directory_target_moves_nothing(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b"
        a.write_text("old a", encoding="utf-8")
        b.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with data.output_group():
                self.write(a, "new a")
                self.write(b, "new b")
        assert str(info.value) == f"[Errno 21] Is a directory: '{b}'"
        assert a.read_text(encoding="utf-8") == "old a"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b"]
        assert list(b.iterdir()) == []

    def test_open_error_names_the_target(self, tmp_path):
        target = tmp_path / "nodir" / "x.csv"
        with pytest.raises(FileNotFoundError) as info:
            self.write(target, "x")
        assert str(info.value) == f"[Errno 2] No such file or directory: '{target}'"

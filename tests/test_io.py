import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhmlab import (Dataset, GrammarParams, generate_rules, grammar, sample_dataset,
                    token_dtype)
from rhmlab.io import load_dataset, save_dataset
from oracles import (
    load_dataset_loadtxt_oracle,
    load_dataset_text_oracle,
    save_dataset_text_oracle,
)


def _dataset(vocab_size, n_rows, dtype, masked, seed=0, width=8):
    """Random rows over a binary grammar's shape of ``width`` tokens (8, depth
    3, by default); with ``masked`` a share of the tokens is the masking
    sentinel ``vocab_size``."""
    params = GrammarParams(depth=width.bit_length() - 1, branching=2,
                           vocab_size=vocab_size, n_synonyms=1)
    top = vocab_size + 1 if masked else vocab_size
    seqs = np.random.default_rng(seed).integers(0, top, size=(n_rows, width))
    return Dataset(sequences=seqs.astype(dtype), params=params,
                   meta={"grammar_hash": "f00d"})


# Rows of text written or parsed per row block, at 8 and 32 tokens per row.
BLOCK_8, BLOCK_32 = grammar._block_rows(8), grammar._block_rows(32)

CASES = [
    pytest.param(8, 300, np.int64, False, 8, id="v8"),
    pytest.param(120, 300, np.int64, False, 8, id="v120-multi-digit"),
    pytest.param(120, 300, np.int64, True, 8, id="v120-masked"),
    pytest.param(8, 300, np.int32, True, 8, id="v8-int32-masked"),
    pytest.param(16, 0, np.int64, False, 8, id="0-rows"),
    pytest.param(16, 1, np.int32, False, 8, id="1-row"),
    pytest.param(16, BLOCK_8 + 1, np.int64, True, 8, id="chunk+1-rows"),
    pytest.param(12000, 300, np.int64, True, 8, id="v12000-five-digit-masked"),
    pytest.param(1000, 300, np.uint16, False, 8, id="v1000-four-digit-uint16"),
    pytest.param(16, BLOCK_32 - 1, np.int64, True, 32, id="32-tokens-block-1-rows"),
    pytest.param(16, BLOCK_32, np.int64, True, 32, id="32-tokens-block-rows"),
    pytest.param(16, BLOCK_32 + 1, np.int64, True, 32, id="32-tokens-block+1-rows"),
    pytest.param(120, 3 * BLOCK_32 + 7, np.int32, False, 32,
                 id="32-tokens-3-blocks+7-rows"),
]


class TestTextFormatOracle:
    @pytest.mark.parametrize("vocab_size, n_rows, dtype, masked, width", CASES)
    def test_writer_bytes_equal_savetxt(self, tmp_path, vocab_size, n_rows,
                                        dtype, masked, width):
        ds = _dataset(vocab_size, n_rows, dtype, masked, width=width)
        save_dataset(ds, tmp_path / "new.txt")
        save_dataset_text_oracle(ds.sequences, vocab_size, "f00d",
                                 tmp_path / "old.txt")
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())

    @pytest.mark.parametrize("vocab_size, n_rows, dtype, masked, width", CASES)
    def test_reader_equals_python_parse(self, tmp_path, vocab_size, n_rows,
                                        dtype, masked, width):
        ds = _dataset(vocab_size, n_rows, dtype, masked, width=width)
        path = tmp_path / "d.txt"
        save_dataset_text_oracle(ds.sequences, vocab_size, "f00d", path)
        seqs, header = load_dataset(path)
        want_seqs, want_header = load_dataset_text_oracle(path)
        assert seqs.dtype == token_dtype(vocab_size)
        assert seqs.shape == want_seqs.shape == (n_rows, width)
        assert np.array_equal(seqs, want_seqs)
        assert np.array_equal(seqs, ds.sequences)
        assert header == want_header

    def test_rows_past_the_header_count_are_ignored(self, tmp_path):
        ds = _dataset(8, 5, np.int64, False)
        path = tmp_path / "d.txt"
        save_dataset(ds, path)
        text = path.read_text().replace("8 8 5 f00d", "8 8 3 f00d")
        path.write_text(text)
        seqs, header = load_dataset(path)
        assert header["n_rows"] == 3
        assert np.array_equal(seqs, ds.sequences[:3])

    def test_writer_rejects_negative_tokens(self, tmp_path):
        # Dataset checks its rows when built; the writer checks them again,
        # as they may have been edited in place since.
        ds = _dataset(8, 2, np.int64, False)
        ds.sequences[1, 2] = -1
        with pytest.raises(ValueError, match=r"d\.txt: tokens must lie in \[0, 8\]"):
            save_dataset(ds, tmp_path / "d.txt")
        assert not (tmp_path / "d.txt").exists()


class TestTextLayout:
    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    def test_layout_and_round_trip(self, tmp_path, n_rows):
        ds = _dataset(120, n_rows, np.int64, True)
        path = tmp_path / "d.txt"
        save_dataset(ds, path)
        want = f"8 120 {n_rows} f00d\n" + "".join(
            " ".join(str(t) for t in row) + "\n" for row in ds.sequences.tolist())
        assert path.read_bytes() == want.encode()
        seqs, header = load_dataset(path)
        assert seqs.dtype == token_dtype(120)
        assert np.array_equal(seqs, ds.sequences.reshape(n_rows, 8))
        assert header == dict(seq_len=8, vocab_size=120, n_rows=n_rows,
                              grammar_hash="f00d")

    # An 11-byte header line "8 8 2 f00d" and two 16-byte rows of eight
    # one-digit tokens: a cut in the header, in the body before its first
    # row ends, after it, and inside the second row's tokens.
    @pytest.mark.parametrize("cut, message", [
        (0, "the header needs 4 fields (seq_len vocab_size n_rows grammar_hash), "
            "found 0"),
        (5, "the header needs 4 fields (seq_len vocab_size n_rows grammar_hash), "
            "found 3"),
        (11, "the header states 2 rows of 8 tokens, the body holds 0 bytes"),
        (20, "the header states 2 rows of 8 tokens, the body holds 9 bytes"),
        (27, "the header states 2 rows of 8 tokens, the body holds 1 lines of 16 bytes"),
        (40, "line 3: the row holds 7 tokens, the header states 8"),
    ])
    def test_file_ending_inside_header_or_body_is_refused(self, tmp_path, cut,
                                                          message):
        path = tmp_path / "d.txt"
        save_dataset(_dataset(8, 2, np.int64, False), path)
        assert len(path.read_bytes()) == 43
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"dataset file {path}: {message}")
                           + "$"):
            load_dataset(path)

    def test_bytes_past_the_body_are_not_read(self, tmp_path):
        # bytes the row syntax refuses, after the header's n_rows lines
        ds = _dataset(8, 2, np.int64, False)
        path = tmp_path / "d.txt"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"trailing\x00")
        seqs, header = load_dataset(path)
        assert np.array_equal(seqs, ds.sequences) and header["n_rows"] == 2

    @pytest.mark.parametrize("masked", [False, True])
    def test_vocab_past_uint16_round_trips(self, tmp_path, masked):
        # The file's dtype follows the grammar's vocabulary, whatever the rows
        # hold: small tokens only, or the mask token 70000 itself.
        rows = [[70000, 1], [3, 69999]] if masked else [[0, 1], [3, 2]]
        ds = Dataset(sequences=np.array(rows), params=GrammarParams(1, 2, 70000, 1))
        path = tmp_path / "d.txt"
        save_dataset(ds, path)
        seqs, header = load_dataset(path)
        assert header["vocab_size"] == 70000
        assert seqs.dtype == np.uint32 and np.array_equal(seqs, ds.sequences)


class TestRecord:
    def test_params_are_required(self):
        rows = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(TypeError):
            Dataset(sequences=rows)
        with pytest.raises(TypeError, match="params must be a GrammarParams"):
            Dataset(sequences=rows, params=None)

    def test_float_rows_are_refused_before_any_file(self, tmp_path):
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match="sequences must hold integer tokens"):
            save_dataset(Dataset(sequences=[[0.5, 1.7], [2.9, 0.0]],
                                 params=GrammarParams(1, 2, 3, 1)), path)
        assert not path.exists()

    # The header holds the hash as its fourth whitespace-separated field, so
    # an empty hash or one with whitespace would write a file that fails to
    # load.
    @pytest.mark.parametrize("grammar_hash", ["", "a b", "x\ny", "a\tb"],
                             ids=["empty", "space", "newline", "tab"])
    def test_hash_the_header_cannot_hold_is_refused_before_any_file(
            self, tmp_path, grammar_hash):
        ds = _dataset(8, 2, np.int64, False)
        ds.meta["grammar_hash"] = grammar_hash
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match=rf"d\.txt: grammar hash {re.escape(repr(grammar_hash))} "
                                             "must be a non-empty string without whitespace"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_hash_utf8_cannot_encode_is_refused_before_any_file(self, tmp_path):
        # a lone surrogate used to raise UnicodeEncodeError after the file
        # was opened, leaving it empty
        ds = _dataset(8, 2, np.int64, False)
        ds.meta["grammar_hash"] = "ab\ud800"
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match=r"d\.txt: grammar hash 'ab\\ud800' "
                                             "is not encodable as UTF-8"):
            save_dataset(ds, path)
        assert not path.exists()


MALFORMED = {
    "empty": "",
    "short-header": "4 8 2\n0 1 2 3\n4 5 6 7\n",
    "long-header": "4 8 2 - x\n0 1 2 3\n4 5 6 7\n",
    "non-integer-header": "4 8 two -\n0 1 2 3\n4 5 6 7\n",
    "too-few-rows": "4 8 3 -\n0 1 2 3\n4 5 6 7\n",
    "no-rows": "4 8 2 -\n",
    "ragged": "4 8 2 -\n0 1 2 3\n4 5 6\n",
    "wider-than-header": "4 8 2 -\n0 1 2 3 4\n4 5 6 7 0\n",
    "non-integer-token": "4 8 2 -\n0 1 2.5 3\n4 5 6 7\n",
    "blank-line": "4 8 2 -\n0 1 2 3\n\n4 5 6 7\n",
    "token-above-mask": "4 8 2 -\n0 1 2 3\n4 5 6 9\n",
    "negative-token": "4 8 2 -\n0 1 2 3\n4 5 -6 7\n",
    "header-width-past-the-body": "1000000000000 8 1 -\n0 1\n",
}


class TestLoaderContract:
    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_text_raises_value_error(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_dataset(path)

    # seq_len 0 with 2**40 rows would read as a (2**40, 0) array
    @pytest.mark.parametrize("sizes", [(0, 8, 2), (4, 0, 2), (0, 8, 2**40)],
                             ids=["seq_len-0", "vocab_size-0", "seq_len-0-many-rows"])
    def test_header_sizes_out_of_range_are_refused(self, tmp_path, sizes):
        path = tmp_path / "d"
        path.write_text("{} {} {} -\n".format(*sizes))
        d, vocab, n = sizes
        with pytest.raises(ValueError, match=rf"d: header sizes \[{d}, {vocab}, {n}\] "
                                             r"out of range$"):
            load_dataset(path)

    def test_masked_tokens_load(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("4 8 2 -\n0 1 8 3\n8 8 8 8\n")
        seqs, _ = load_dataset(path)
        assert seqs.tolist() == [[0, 1, 8, 3], [8, 8, 8, 8]]


STRAY_BYTES = "x.,;#\x00"


@st.composite
def dataset_texts(draw):
    """Dataset text files: canonical or not (runs of blanks, leading and
    trailing blanks, zero-padded tokens up to 2**31 - 1, CRLF, no final
    newline, rows past ``n_rows``), with at most one injected fault. A
    ``shift`` fault moves one token between rows, making one row short and
    another long while the token count stays right."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    vocab = draw(st.sampled_from([1, 12, 1000, 2**31 - 1, 2**33]))
    token = st.one_of(st.integers(0, min(vocab, 2**31 - 1)),
                      st.integers(0, 2**31 - 1))
    rows = draw(st.lists(st.lists(token, min_size=d, max_size=d),
                         min_size=n, max_size=n + 2))
    fault = draw(st.sampled_from(["none", "none", "blank", "ragged", "shift",
                                  "stray", "oversized"]))
    if len(rows) > 1 and fault == "shift":
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                             max_size=2, unique=True))
        rows[j].append(rows[i].pop())
    if rows and fault in ("ragged", "oversized"):
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "oversized":
            rows[i][draw(st.integers(0, d - 1))] = draw(st.integers(2**31, 10**12))
        elif draw(st.booleans()):
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [0]
    blanks = st.text(" \t", max_size=2)
    lines = [f"{d} {vocab} {n} {draw(st.sampled_from(['-', 'f00d']))}"]
    for row in rows:
        cells = [
            "0" * draw(st.sampled_from([0, 0, 0, 1, 11])) + str(t) for t in row
        ]
        seps = [draw(st.text(" \t", min_size=1, max_size=3)) for _ in cells[1:]]
        body = cells[0] + "".join(sep + c for sep, c in zip(seps, cells[1:])) if cells else ""
        lines.append(draw(blanks) + body + draw(blanks))
    if fault == "blank":
        lines.insert(draw(st.integers(1, len(lines))), draw(blanks))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    if fault == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAY_BYTES)) + text[at:]
    return text.encode()


def _read(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=dataset_texts())
def test_reader_agrees_with_loadtxt(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reader-agrees.txt"
    path.write_bytes(text)
    got = _read(load_dataset, path)
    want = _read(load_dataset_loadtxt_oracle, path)
    if isinstance(want, ValueError) or isinstance(got, ValueError):
        assert isinstance(got, ValueError) and isinstance(want, ValueError), (got, want)
        assert str(got).startswith(f"dataset file {path}: ")
        return
    (seqs, header), (want_seqs, want_header) = got, want
    # tokens of a text file fit in int32 whatever vocab_size the header states
    assert seqs.dtype == token_dtype(min(header["vocab_size"], 2**31 - 1))
    assert seqs.shape == want_seqs.shape
    assert np.array_equal(seqs, want_seqs)
    assert header == want_header


@pytest.mark.parametrize("text", [b"3 4 2 -\n0 1 2\n3 4 0\n", b"3 4 2 -\n0 1 2\n3 4 0",
                                  b"3 4 2 -\n0 1 2\n", b""])
def test_reader_reads_a_pipe_as_it_reads_a_file(tmp_path, text):
    # A file is read into one buffer of its size; a pipe has no size until
    # it is read, and must give the same rows or the same error.
    path, fifo = tmp_path / "d.txt", tmp_path / "d.fifo"
    path.write_bytes(text)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(text,))
    writer.start()
    try:
        got = _read(load_dataset, fifo)
    finally:
        writer.join()
    want = _read(load_dataset, path)
    if isinstance(want, ValueError):
        assert str(got) == str(want).replace(str(path), str(fifo))
        return
    assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert got[1] == want[1]


# Inputs the earlier np.loadtxt reader accepted and the reader now refuses:
# the row syntax is unsigned ASCII digits separated by spaces and tabs, lines
# end in LF or CRLF. Each maps to the (line, message) of its error.
SYNTAX_CHANGES = {
    "plus-sign": ("2 4 1 -\n+1 2\n", 2, "byte b'+'"),
    "negative-zero": ("2 4 2 -\n0 1\n-0 2\n", 3, "byte b'-'"),
    "vertical-tab": ("2 4 1 -\n1\x0b2\n", 2, "byte b'\\x0b'"),
    "form-feed": ("2 4 1 -\n1\x0c2\n", 2, "byte b'\\x0c'"),
    "no-break-space": ("2 4 1 -\n1\u00a02\n", 2, "byte b'\\xc2'"),
    "lone-carriage-return": ("2 4 1 -\n0 1\r2 3\n", 2, "carriage return"),
}


@pytest.mark.parametrize("text, line, what", SYNTAX_CHANGES.values(),
                         ids=SYNTAX_CHANGES.keys())
def test_syntax_loadtxt_accepted_is_refused(tmp_path, text, line, what):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode())
    load_dataset_loadtxt_oracle(path)  # the earlier reader took these
    with pytest.raises(ValueError, match=re.escape(f"dataset file {path}: line {line}: ")) as err:
        load_dataset(path)
    assert what in str(err.value)


LINE_ERRORS = {
    "stray-byte": ("4 8 2 -\n0 1 2 3\n4 5 x 7\n", 3, "byte b'x'"),
    "negative-token": ("4 8 2 -\n0 1 2 3\n4 5 -6 7\n", 3, "byte b'-'"),
    "blank-line": ("4 8 2 -\n0 1 2 3\n\n4 5 6 7\n", 3, "holds 0 tokens"),
    "short-row": ("4 8 2 -\n0 1 2 3\n4 5 6\n", 3, "holds 3 tokens"),
    "long-row": ("4 8 3 -\n0 1 2 3 4\n4 5 6\n0 0 0 0\n", 2, "holds 5 tokens"),
    "short-then-long-row": ("2 8 2 -\n5\n1 2 3\n", 2, "holds 1 tokens"),
    "blank-then-long-row": ("1 8 2 -\n\n1 2\n", 2, "holds 0 tokens"),
    "above-mask": ("4 8 2 -\n0 1 2 3\n4 5 6 9\n", 3, "token 9 lies outside [0, 8]"),
    "past-int32": ("2 8 1 -\n2147483648 1\n", 2, "token 2147483648 exceeds"),
    "past-int32-within-vocab": (f"2 {2**33} 2 -\n0 1\n1 2147483648\n", 3,
                                "token 2147483648 exceeds 2147483647"),
    "eleven-digits": ("2 8 1 -\n1 12345678901\n", 2, "a token exceeds"),
    "twelve-digits": ("2 8 1 -\n1 100000000000\n", 2, "a token exceeds"),
    # an 11th digit is met before a 12th, whatever line holds it
    "eleventh-before-twelfth-digit": ("1 8 2 -\n200000000000\n10000000000\n", 3,
                                      "a token exceeds"),
    "ten-nines": ("2 8 1 -\n1 9999999999\n", 2, "token 9999999999 exceeds 2147483647"),
}


@pytest.mark.parametrize("text, line, what", LINE_ERRORS.values(),
                         ids=LINE_ERRORS.keys())
def test_errors_name_file_and_line(tmp_path, text, line, what):
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"dataset file {path}: line {line}: ")) as err:
        load_dataset(path)
    assert what in str(err.value)


def test_error_line_counts_across_chunks(tmp_path):
    ds = _dataset(8, BLOCK_8 + 10, np.int64, False)
    path = tmp_path / "d.txt"
    save_dataset(ds, path)
    lines = path.read_text().split("\n")
    lines[BLOCK_8 + 6] += " 3"  # row BLOCK_8 + 5
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"line {BLOCK_8 + 7}: the row holds 9"):
        load_dataset(path)


@pytest.mark.parametrize("row", [BLOCK_32 - 1, BLOCK_32, 3 * BLOCK_32 + 6])
def test_error_line_counts_across_row_blocks_of_32_tokens(tmp_path, row):
    # The last row of the first block, the first of the second, and the
    # last row of the file, in the fourth block.
    ds = _dataset(8, 3 * BLOCK_32 + 7, np.int64, False, width=32)
    path = tmp_path / "d.txt"
    save_dataset(ds, path)
    lines = path.read_text().split("\n")
    lines[row + 1] += " 3"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f": line {row + 2}: the row holds 33"):
        load_dataset(path)


def test_rows_longer_than_a_read_and_line_ends_split_across_reads(tmp_path):
    # A block's lines are read in pieces of two bytes per token of the block.
    # Long blank runs make rows longer than a whole read at the ends of the
    # first two blocks and the start of the third, and the last block of 7
    # rows is read in 448-byte pieces, so CRLF pairs and tokens fall across
    # reads; the last line has no line end.
    n = 3 * BLOCK_32 + 7
    seqs = np.random.default_rng(5).integers(0, 17, size=(n, 32))
    long_rows = {BLOCK_32 - 1, 2 * BLOCK_32 - 1, 2 * BLOCK_32, n - 1}
    lines = [f"32 16 {n} -"]
    for i, row in enumerate(seqs):
        sep = " " * 70_000 if i in long_rows else " \t"[i % 2]
        lines.append(("\t" if i % 3 else "") + sep.join(
            "0" * (i % 4) + str(t) for t in row))
    path = tmp_path / "d.txt"
    path.write_bytes("\r\n".join(lines).encode())
    got, header = load_dataset(path)
    assert got.dtype == token_dtype(16) and np.array_equal(got, seqs)
    assert header == dict(seq_len=32, vocab_size=16, n_rows=n, grammar_hash="-")


def test_load_peak_memory_is_a_bounded_multiple_of_the_rows(tmp_path):
    # 2e4 depth-5 rows, 0.64 MB as uint8, 2.56 MB as int32 (the size the
    # bound multiplies) and about 1.5 MB of text. The peak holds the rows and
    # one row block's text and temporaries: measured 0.92x the int32 size
    # (0.88x with values read one digit per step, without the block's mask
    # of tokens going on past a digit pair), and with int32 rows 1.63x, 2.14x when the whole file was one buffer and
    # 3.58x with blocks of 4,096 rows.
    rs = generate_rules(GrammarParams(depth=5, branching=2, vocab_size=16,
                                      n_synonyms=4, seed=1))
    ds = sample_dataset(rs, 20_000, np.random.default_rng(2), with_latents=False)
    path = tmp_path / "d.txt"
    save_dataset(ds, path)
    load_dataset(path)  # one-time allocations are not the reader's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        seqs, _ = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(seqs, ds.sequences) and seqs.dtype == np.uint8
    assert peak < 1.05 * seqs.size * 4


def test_leading_zeros_and_int32_max_load(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(f"3 {2**31 - 1} 1 -\n007 000000000002147483647 0\n")
    seqs, _ = load_dataset(path)
    assert seqs.tolist() == [[7, 2**31 - 1, 0]]


def test_zero_padded_tokens_of_odd_and_even_length_load(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("4 16 2 -\n0000000000015 000000000016 0000000000 00000000000\n"
                    "1 01 001 0001\n")
    seqs, _ = load_dataset(path)
    assert seqs.tolist() == [[15, 16, 0, 0], [1, 1, 1, 1]]


@pytest.mark.parametrize("first", ["7", "42", "123"])
def test_tokens_at_the_first_byte_of_the_body_and_of_a_row_block(tmp_path, first):
    # Rows 0 and BLOCK_8 open the body and the second row block; each starts
    # with a 1-, 2- or 3-digit token at its line's first byte.
    n = BLOCK_8 + 2
    seqs = np.random.default_rng(len(first)).integers(0, 1000, size=(n, 8))
    seqs[0, 0] = seqs[BLOCK_8, 0] = int(first)
    path = tmp_path / "d.txt"
    path.write_text("\n".join([f"8 999 {n} -"] + [" ".join(map(str, row)) for row in seqs]))
    got, _ = load_dataset(path)
    assert np.array_equal(got, seqs)

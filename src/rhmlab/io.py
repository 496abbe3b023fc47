"""On-disk formats: grammar JSON, dataset text files, CSV helpers.

A dataset text file is a header line ``seq_len vocab_size n_rows
grammar_hash`` (whitespace-separated; the hash ``-`` means no recorded
provenance) and then one row of ``seq_len`` tokens per line. Exactly the
first ``n_rows`` rows are read, and in them:

* a token is unsigned decimal ASCII digits, leading zeros allowed, no sign;
* tokens are separated by runs of spaces and tabs, and a line may start and
  end with spaces and tabs;
* a line ends in LF or CRLF, and the last one may lack its line end;
* any other byte is an error: a sign, a blank line, other whitespace (vertical
  tab, form feed, non-ASCII spaces) or a carriage return not followed by LF;
* a token must lie in ``[0, vocab_size]``, where ``vocab_size`` marks a
  masked position, and fit in int32.

Lines past ``n_rows`` are not read. The writer emits the canonical form,
byte for byte what ``np.savetxt(fmt="%d")`` writes: single spaces, LF ends.
It refuses a grammar hash that is empty or holds whitespace (not one field).

Floats in CSV output are rendered with 17 significant digits so values
round-trip.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np

from .grammar import Dataset, RuleSet, _row_blocks, token_dtype


def save_grammar(rs: RuleSet, path) -> None:
    doc = rs.to_jsonable()
    doc["hash"] = rs.content_hash()
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_grammar(path) -> RuleSet:
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"grammar file {path} nests too deep to be a grammar") from exc
    rs = RuleSet.from_jsonable(doc)
    if "hash" in doc and doc["hash"] != rs.content_hash():
        raise ValueError(f"grammar file {path} failed its content hash")
    return rs


def save_dataset(ds: Dataset, path) -> None:
    """Write rows (and the provenance header); latents are not stored — they
    are recoverable by parsing under the grammar."""
    path = Path(path)
    grammar_hash = ds.meta.get("grammar_hash", "-")
    if not isinstance(grammar_hash, str) or grammar_hash.split() != [grammar_hash]:
        raise ValueError(f"dataset file {path}: grammar hash {grammar_hash!r} must be "
                         "a non-empty string without whitespace")
    seqs = ds.sequences
    n, d = seqs.shape
    vocab = ds.params.vocab_size
    if seqs.size and (seqs.min() < 0 or seqs.max() > vocab):
        raise ValueError(f"dataset file {path}: tokens must lie in [0, {vocab}] "
                         f"({vocab} marks a masked token)")
    try:
        header = f"{d} {vocab} {n} {grammar_hash}\n".encode()
    except UnicodeEncodeError:
        raise ValueError(f"dataset file {path}: grammar hash {grammar_hash!r} "
                         "is not encodable as UTF-8") from None
    with open(path, "wb") as fh:
        fh.write(header)
        if n == 0:
            return
        # Row text as np.savetxt(fmt="%d") writes it. Each token's digits and
        # separator are one zero-padded cell of a byte table: cell t holds
        # token t with a space, cell top + 1 + t token t with a newline (the
        # last column). One take over the table viewed as one void item per
        # cell gathers a row block's cells, and bytes.translate deletes the
        # padding (digits and separators are never zero bytes).
        top = int(seqs.max())
        width = len(str(top)) + 1
        table = np.zeros((2, top + 1, width), dtype=np.uint8)
        for t in range(top + 1):
            digits = np.frombuffer(str(t).encode(), dtype=np.uint8)
            table[:, t, : digits.size] = digits
            table[:, t, digits.size] = (ord(" "), ord("\n"))
        cells = table.reshape(-1, width).view(f"V{width}").ravel()
        offset = np.where(np.arange(d) == d - 1, top + 1, 0)
        for rows in _row_blocks(n, d):
            index = np.add(seqs[rows], offset, dtype=np.intp)
            fh.write(cells.take(index).tobytes().translate(None, b"\0"))


def load_dataset(path) -> tuple[np.ndarray, dict]:
    """Returns (rows, header dict with seq_len/vocab_size/n_rows/grammar_hash).
    The rows are in :func:`token_dtype` of the largest token the file can
    hold: ``vocab_size``, or int32's maximum if smaller.

    Exactly ``n_rows`` rows are read; the text syntax is in the module
    docstring. A malformed file raises ``ValueError``: no header, a header
    without four fields or with a size out of range, fewer rows or other
    widths than the header states, a byte that is not a digit, space, tab or
    line end, or a token outside ``[0, vocab_size]`` (``vocab_size`` marks a
    masked token). Errors in the text body name the file and the 1-based line.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe, whose size is known only once it is read
            fh = io.BytesIO(fh.read())
        line = fh.readline()
        try:
            fields = line.decode().split()
        except UnicodeDecodeError:
            raise ValueError(f"dataset file {path}: line 1 is not UTF-8 text") from None
        if len(fields) != 4:
            raise ValueError(
                f"dataset file {path}: the header needs 4 fields "
                f"(seq_len vocab_size n_rows grammar_hash), found {len(fields)}"
            )
        try:
            d, vocab, n = (int(x) for x in fields[:3])
        except ValueError:
            raise ValueError(
                f"dataset file {path}: header sizes {fields[:3]} are not integers"
            ) from None
        if d < 1 or vocab < 1 or n < 0:
            raise ValueError(f"dataset file {path}: header sizes {[d, vocab, n]} out of range")
        seqs = _parse_rows(fh, n, d, vocab, path)
    header = dict(seq_len=d, vocab_size=vocab, n_rows=n, grammar_hash=fields[3])
    return seqs, header


_INT32_MAX = 2**31 - 1
_SEPARATOR_BYTES = np.frombuffer(b" \t\n\r", dtype=np.uint8)


def _parse_rows(fh, n: int, d: int, vocab: int, path) -> np.ndarray:
    """The first ``n`` rows of ``d`` tokens read from ``fh`` (a seekable byte
    file at the first body byte), parsed row block by row block. The rows are
    allocated first and are the only array of the file's size: a block's
    lines are read as it needs them, in reads of the shortest text its rows
    can take (a digit and a separator per token). In a block every byte is
    classified, the last digit of every token is found with one
    ``flatnonzero``, and each value is built from the digits before it, two
    digits per step; row ``k`` of the block must hold tokens ``k*d`` to
    ``k*d + d - 1``."""
    start = fh.tell()
    size = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    # every token takes a byte, so no larger array is allocated than the body
    # could fill
    if n * d > size:
        raise ValueError(f"dataset file {path}: the header states {n} rows of {d} "
                         f"tokens, the body holds {size} bytes")
    seqs = np.empty((n, d), dtype=token_dtype(min(vocab, _INT32_MAX)))
    # bytes read past the last block's rows, and the line ends among them
    rest, ends = np.empty(0, dtype=np.uint8), 0
    for block in _row_blocks(n, d):
        r0, rows = block.start, block.stop - block.start
        parts = [rest]
        while ends < rows:
            text = fh.read(2 * rows * d)
            if not text:  # at the end, the last line may lack its line end
                if not parts[-1].size or parts[-1][-1] == ord("\n"):
                    break
                text = b"\n"
            parts.append(np.frombuffer(text, dtype=np.uint8))
            ends += np.count_nonzero(parts[-1] == ord("\n"))
        if ends < rows:
            raise ValueError(
                f"dataset file {path}: the header states {n} rows of {d} tokens, "
                f"the body holds {r0 + ends} lines of {size} bytes"
            )
        buf = np.concatenate(parts)
        line_end = np.flatnonzero(buf == ord("\n"))[:rows]
        seg, rest = buf[: line_end[-1] + 1], buf[line_end[-1] + 1 :]
        ends -= rows

        def fail(pos, what):
            line = r0 + 2 + int(np.searchsorted(line_end, pos))
            return ValueError(f"dataset file {path}: line {line}: {what}")

        dv = seg - np.uint8(ord("0"))  # digit values; other bytes wrap past 9
        digit = dv < 10
        returns = np.count_nonzero(seg == ord("\r"))
        allowed = (np.count_nonzero(digit) + np.count_nonzero(seg == ord(" "))
                   + np.count_nonzero(seg == ord("\t")) + returns + rows)
        if allowed != seg.size:
            pos = int(np.flatnonzero(~digit & ~np.isin(seg, _SEPARATOR_BYTES))[0])
            raise fail(pos, f"byte {bytes(seg[pos : pos + 1])!r} is not a digit, "
                            "space, tab or line end")
        if returns:
            ret = np.flatnonzero(seg == ord("\r"))
            lone = ret[seg[ret + 1] != ord("\n")]
            if lone.size:
                raise fail(lone[0], "a carriage return not followed by a newline")
        last = np.flatnonzero(digit[:-1] > digit[1:])
        # with rows * d tokens, every row's first token must follow the
        # previous line end and its d-th token precede its own line end
        if (last.size != rows * d or not (last[d::d] > line_end[:-1]).all()
                or not (last[d - 1 :: d] < line_end).all()):
            per_line = np.bincount(np.searchsorted(line_end, last), minlength=rows)
            row = int(np.flatnonzero(per_line != d)[0])
            raise fail(line_end[row], f"the row holds {per_line[row]} tokens, "
                                      f"the header states {d}")

        # Digits are added from the last one backwards, two per step: pair[i]
        # is the digit at i plus ten times a digit at i - 1 (at most 99), and
        # a token goes on past the pair ending at i where goes_on[i], the
        # bytes at i - 1 and i - 2 being digits. No byte before the block's
        # first one is a digit (a token there follows the previous line end).
        pair = dv  # in place: the digit values are not read again
        pair[1:] += dv[:-1] * digit[:-1] * np.uint8(10)
        goes_on = np.zeros_like(digit)
        np.logical_and(digit[1:-1], digit[:-2], out=goes_on[2:])
        values = pair.take(last).astype(np.int64)
        pos, tok, scale = last, None, 1
        while True:
            more = np.flatnonzero(goes_on.take(pos))
            if more.size == 0:
                break
            pos = pos.take(more) - 2
            tok = more if tok is None else tok.take(more)
            scale *= 100
            pairs = pair.take(pos)
            if scale <= 10**8:
                values[tok] += pairs.astype(np.int64) * scale
            elif pairs.any():  # a nonzero 11th or 12th digit from the end
                # the line of the largest 11th digit, else of the largest 12th
                ones = pairs % 10
                at, digits = (pos, ones) if ones.any() else (pos - 1, pairs // 10)
                raise fail(at[np.argmax(digits)], f"a token exceeds {_INT32_MAX}")
        top = int(values.max())
        if top > min(vocab, _INT32_MAX):
            where = last[np.argmax(values)]
            if top > _INT32_MAX:
                raise fail(where, f"token {top} exceeds {_INT32_MAX}")
            raise fail(where, f"token {top} lies outside [0, {vocab}] "
                              f"({vocab} marks a masked token)")
        seqs[block] = values.reshape(rows, d)
    return seqs


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path, columns: list[str], rows: list[tuple]) -> None:
    """Plain deterministic CSV: header row, 17-significant-digit floats."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [
                format_float(c) if isinstance(c, float) else str(c) for c in row
            ]
            fh.write(",".join(cells) + "\n")

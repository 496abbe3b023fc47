"""On-disk formats: grammar JSON, dataset text/binary files, CSV helpers.

Dataset files carry a header (seq_len, vocab_size, n_rows, grammar hash) and
the token rows; the binary layout opens with the magic bytes ``RHMD1``. Floats
in CSV output are rendered with 17 significant digits so values round-trip.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .grammar import Dataset, RuleSet

DATASET_MAGIC = b"RHMD1"
WRITE_CHUNK_ROWS = 4096  # rows gathered per text write


def save_grammar(rs: RuleSet, path) -> None:
    doc = rs.to_jsonable()
    doc["hash"] = rs.content_hash()
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_grammar(path) -> RuleSet:
    doc = json.loads(Path(path).read_text())
    rs = RuleSet.from_jsonable(doc)
    if "hash" in doc and doc["hash"] != rs.content_hash():
        raise ValueError(f"grammar file {path} failed its content hash")
    return rs


def save_dataset(ds: Dataset, path, binary: bool = False) -> None:
    """Write rows (and the provenance header); latents are not stored — they
    are recoverable by parsing under the grammar."""
    path = Path(path)
    grammar_hash = ds.meta.get("grammar_hash", "-")
    seqs = ds.sequences
    n, d = seqs.shape
    vocab = ds.params.vocab_size if ds.params is not None else int(seqs.max()) + 1
    _check_tokens(seqs, vocab, path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(DATASET_MAGIC)
            header = np.array([d, vocab, n], dtype="<u8")
            fh.write(header.tobytes())
            tag = grammar_hash.encode()
            fh.write(len(tag).to_bytes(2, "little"))
            fh.write(tag)
            fh.write(seqs.astype("<u2").tobytes())
        return
    with open(path, "wb") as fh:
        fh.write(f"{d} {vocab} {n} {grammar_hash}\n".encode())
        if n == 0:
            return
        # Row text as np.savetxt(fmt="%d") writes it: each token's digits and
        # separator come from a zero-padded byte table (separator row 1 for
        # the last column), and the padding is dropped. Fixed-size chunks keep
        # the gathered bytes small.
        top = int(seqs.max())
        table = np.zeros((2, top + 1, len(str(top)) + 1), dtype=np.uint8)
        for t in range(top + 1):
            digits = np.frombuffer(str(t).encode(), dtype=np.uint8)
            table[:, t, : digits.size] = digits
            table[:, t, digits.size] = (ord(" "), ord("\n"))
        sep = (np.arange(d) == d - 1).astype(np.intp)
        for start in range(0, n, WRITE_CHUNK_ROWS):
            cells = table[sep, seqs[start : start + WRITE_CHUNK_ROWS]]
            fh.write(cells[cells != 0].tobytes())


def load_dataset(path) -> tuple[np.ndarray, dict]:
    """Returns (rows, header dict with seq_len/vocab_size/n_rows/grammar_hash).

    Exactly ``n_rows`` rows are read. A malformed file raises ``ValueError``:
    no header, a header without four fields, fewer rows or other widths than
    the header states, a non-integer token, or a token outside
    ``[0, vocab_size]`` (``vocab_size`` marks a masked token).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(DATASET_MAGIC))
        if magic == DATASET_MAGIC:
            d, vocab, n = (int(x) for x in np.frombuffer(fh.read(24), dtype="<u8"))
            tag_len = int.from_bytes(fh.read(2), "little")
            grammar_hash = fh.read(tag_len).decode()
            seqs = np.frombuffer(fh.read(d * n * 2), dtype="<u2")
            seqs = seqs.reshape(n, d).astype(np.int32)
            header = dict(seq_len=d, vocab_size=vocab, n_rows=n, grammar_hash=grammar_hash)
            _check_tokens(seqs, vocab, path)
            return seqs, header
    with open(path) as fh:
        fields = fh.readline().split()
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
            raise ValueError(f"dataset file {path}: header sizes {fields[:3]} out of range")
        if n == 0:
            seqs = np.zeros((0, d), dtype=np.int32)
        else:
            try:
                with warnings.catch_warnings():
                    # np.loadtxt only warns about blank lines and an empty body
                    warnings.simplefilter("error", UserWarning)
                    seqs = np.loadtxt(
                        fh, dtype=np.int32, comments=None, ndmin=2, max_rows=n
                    )
            except (ValueError, UserWarning) as exc:
                raise ValueError(f"dataset file {path}: {exc}") from None
    if seqs.shape != (n, d):
        raise ValueError(
            f"dataset file {path}: the header states {n} rows of {d} tokens, "
            f"the body holds {seqs.shape[0]} rows of {seqs.shape[1]}"
        )
    _check_tokens(seqs, vocab, path)
    header = dict(seq_len=d, vocab_size=vocab, n_rows=n, grammar_hash=fields[3])
    return seqs, header


def _check_tokens(seqs: np.ndarray, vocab: int, path) -> None:
    if seqs.size and (seqs.min() < 0 or seqs.max() > vocab):
        raise ValueError(
            f"dataset file {path}: tokens must lie in [0, {vocab}] "
            f"({vocab} marks a masked token)"
        )


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

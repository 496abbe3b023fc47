import numpy as np
import pytest

from rhmlab import Dataset, GrammarParams
from rhmlab.io import DATASET_MAGIC, WRITE_CHUNK_ROWS, load_dataset, save_dataset
from oracles import load_dataset_text_oracle, save_dataset_text_oracle


def _dataset(vocab_size, n_rows, dtype, masked, seed=0):
    """Random rows over a depth-3 binary grammar's shape (8 tokens); with
    ``masked`` a share of the tokens is the masking sentinel ``vocab_size``."""
    params = GrammarParams(depth=3, branching=2, vocab_size=vocab_size,
                           n_synonyms=1)
    top = vocab_size + 1 if masked else vocab_size
    seqs = np.random.default_rng(seed).integers(0, top, size=(n_rows, 8))
    return Dataset(sequences=seqs.astype(dtype), params=params,
                   meta={"grammar_hash": "f00d"})


CASES = [
    pytest.param(8, 300, np.int64, False, id="v8"),
    pytest.param(120, 300, np.int64, False, id="v120-multi-digit"),
    pytest.param(120, 300, np.int64, True, id="v120-masked"),
    pytest.param(8, 300, np.int32, True, id="v8-int32-masked"),
    pytest.param(16, 0, np.int64, False, id="0-rows"),
    pytest.param(16, 1, np.int32, False, id="1-row"),
    pytest.param(16, WRITE_CHUNK_ROWS + 1, np.int64, True, id="chunk+1-rows"),
]


class TestTextFormatOracle:
    @pytest.mark.parametrize("vocab_size, n_rows, dtype, masked", CASES)
    def test_writer_bytes_equal_savetxt(self, tmp_path, vocab_size, n_rows,
                                        dtype, masked):
        ds = _dataset(vocab_size, n_rows, dtype, masked)
        save_dataset(ds, tmp_path / "new.txt")
        save_dataset_text_oracle(ds.sequences, vocab_size, "f00d",
                                 tmp_path / "old.txt")
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())

    @pytest.mark.parametrize("vocab_size, n_rows, dtype, masked", CASES)
    def test_reader_equals_python_parse(self, tmp_path, vocab_size, n_rows,
                                        dtype, masked):
        ds = _dataset(vocab_size, n_rows, dtype, masked)
        path = tmp_path / "d.txt"
        save_dataset_text_oracle(ds.sequences, vocab_size, "f00d", path)
        seqs, header = load_dataset(path)
        want_seqs, want_header = load_dataset_text_oracle(path)
        assert seqs.dtype == np.int32
        assert seqs.shape == want_seqs.shape == (n_rows, 8)
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
        ds = Dataset(sequences=np.array([[0, 1, -1, 2]]))
        with pytest.raises(ValueError):
            save_dataset(ds, tmp_path / "d.txt")
        assert not (tmp_path / "d.txt").exists()


class TestBinaryFormat:
    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    def test_layout_and_round_trip(self, tmp_path, n_rows):
        ds = _dataset(120, n_rows, np.int64, True)
        path = tmp_path / "d.bin"
        save_dataset(ds, path, binary=True)
        want = (DATASET_MAGIC
                + np.array([8, 120, n_rows], dtype="<u8").tobytes()
                + (4).to_bytes(2, "little") + b"f00d"
                + ds.sequences.astype("<u2").tobytes())
        assert path.read_bytes() == want
        seqs, header = load_dataset(path)
        assert seqs.dtype == np.int32
        assert np.array_equal(seqs, ds.sequences.reshape(n_rows, 8))
        assert header == dict(seq_len=8, vocab_size=120, n_rows=n_rows,
                              grammar_hash="f00d")


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
}


class TestLoaderContract:
    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_text_raises_value_error(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_masked_tokens_load(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("4 8 2 -\n0 1 8 3\n8 8 8 8\n")
        seqs, _ = load_dataset(path)
        assert seqs.tolist() == [[0, 1, 8, 3], [8, 8, 8, 8]]

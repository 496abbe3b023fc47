"""Random hierarchical grammars: rule generation, sampling, enumeration, parsing.

A grammar instance expands a single root symbol through ``depth`` levels of
uniform, unambiguous production rules into a visible string of
``branching ** depth`` integer tokens. Symbols at every level are the integers
``0 .. vocab_size-1``; level 0 is the visible string and level ``depth`` holds
the root. All randomness flows through explicit ``numpy.random.Generator``
objects, so every operation is a pure function of its inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .config import _check_fields, _config_schema, _schema_errors

DEFAULT_ENUMERATION_CAP = 1_000_000
# Tokens per row block of every row kernel: their temporaries stay block-sized.
_BLOCK_TOKENS = 1 << 15
# Largest code space per ranked code that _code_ranks serves by a lookup.
_LOOKUP_PER_CODE = 8


class EnumerationCapError(RuntimeError):
    """Raised when a grammar has more derivations than the requested cap."""


def _power_at_most(base: int, exp: int, bound: int) -> bool:
    """``base**exp <= bound`` for ``base >= 2``, without forming a power above
    ``bound * base``: at most ``log2(bound) + 1`` multiplications."""
    value = 1
    for _ in range(exp):
        value *= base
        if value > bound:
            return False
    return True


def _check_enumeration_cap(params: GrammarParams) -> None:
    """Raise :class:`EnumerationCapError` when ``params`` has more derivations
    than ``DEFAULT_ENUMERATION_CAP`` (read at call time)."""
    n = params.n_derivations
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n} derivations exceed cap {DEFAULT_ENUMERATION_CAP}")


def _is_integer(x) -> bool:
    """Whether ``x`` is an ``int`` or a numpy integer, but not a bool."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def _check_draw_count(n, name: str = "n") -> None:
    """Refuse a draw count (or seed) ``n`` that is not a nonnegative integer,
    naming it ``name``."""
    if not _is_integer(n) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, not {n!r}")


def token_dtype(vocab_size: int) -> np.dtype:
    """The dtype of every symbol rhmlab makes: the smallest unsigned one that
    holds ``vocab_size``, the mask token and a parse's "no rule" marker
    (uint8 up to v = 255, uint16 from 256)."""
    return np.min_scalar_type(vocab_size)


def _check_token_range(name: str, tokens: np.ndarray, bound: int | None) -> None:
    """Refuse ``tokens`` of a non-integer dtype or, unless ``bound`` is None,
    outside ``[0, bound)``, naming the first bound crossed."""
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer tokens, not {tokens.dtype}")
    if bound is not None and tokens.size:
        low, high = tokens.min(), tokens.max()
        if low < 0 or high >= bound:
            bad = low if low < 0 else high
            raise ValueError(f"{name} must lie in [0, {bound}), found {bad}")


@dataclass(frozen=True)
class GrammarParams:
    """Shape parameters of a random hierarchical grammar.

    depth: number of expansion levels (root at level ``depth``, tokens at 0).
    branching: children per node; every production is a ``branching``-tuple.
    vocab_size: symbols per level.
    n_synonyms: productions per symbol.
    seed: seed freezing the random rule draw.

    The fields are checked against ``config_schema.json``'s ``grammar``
    section and stored as Python ints.
    """

    depth: int
    branching: int
    vocab_size: int
    n_synonyms: int
    seed: int = 0

    def __post_init__(self) -> None:
        # Python ints throughout, so every power is exact and the rules hash.
        for name, value in _check_fields(self, "grammar").items():
            object.__setattr__(self, name, value)
        # Positions are int64 throughout; a huge depth fails here at once
        # instead of hanging in the per-level loops.
        if not _power_at_most(self.branching, self.depth, np.iinfo(np.int64).max):
            raise ValueError("branching**depth (the string length) must fit in int64")
        # Unambiguity needs n_synonyms * vocab_size distinct tuples split into
        # vocab_size groups, which is only possible when m <= v**(s-1).
        if _power_at_most(self.vocab_size, self.branching - 1, self.n_synonyms - 1):
            raise ValueError(
                "n_synonyms must be <= vocab_size**(branching-1) "
                "for unambiguous rules"
            )

    @property
    def seq_len(self) -> int:
        """Visible string length."""
        return self.branching**self.depth

    @property
    def rule_density(self) -> float:
        """Fraction of all possible tuples that are grammatical, m / v**(s-1)."""
        return self.n_synonyms / self.vocab_size ** (self.branching - 1)

    @property
    def n_internal_nodes(self) -> int:
        return (self.branching**self.depth - 1) // (self.branching - 1)

    @property
    def n_derivations(self) -> int:
        """Total number of distinct derivations (= distinct strings)."""
        return self.vocab_size * self.n_synonyms**self.n_internal_nodes

    def level_width(self, level: int) -> int:
        """Number of nodes at ``level`` (0 = leaves, depth = root)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in 0..{self.depth}")
        return self.branching ** (self.depth - level)


def encode_tuples(tuples: np.ndarray, vocab_size: int) -> np.ndarray:
    """Big-endian base-``vocab_size`` integer code of each trailing-axis tuple.

    Horner multiply-adds in int64; every entry is cast to int64 as by
    ``astype`` (so uint64 wraps), and overflow wraps modulo 2**64.
    """
    tuples = np.asarray(tuples)
    codes = tuples[..., 0].astype(np.int64)
    for i in range(1, tuples.shape[-1]):
        codes *= vocab_size
        np.add(codes, tuples[..., i], out=codes, dtype=np.int64, casting="unsafe")
    return codes


def decode_codes(codes: np.ndarray, vocab_size: int, branching: int) -> np.ndarray:
    """Inverse of :func:`encode_tuples` in :func:`token_dtype`; appends an s-axis.
    The codes must lie in ``[0, vocab_size**branching)``."""
    codes = np.asarray(codes)
    _check_token_range("tuple codes", codes, vocab_size**branching)
    out = np.empty(codes.shape + (branching,), dtype=token_dtype(vocab_size))
    rem = codes.astype(np.uint64)
    for i in range(branching - 1, -1, -1):
        out[..., i] = rem % vocab_size
        rem = rem // vocab_size
    return out


class RuleSet:
    """Frozen rule tables of one grammar instance, with two views.

    ``rules_at(level)`` is a ``(vocab_size, n_synonyms, branching)`` array in
    :func:`token_dtype` whose ``[symbol, k]`` row is the k-th production of
    ``symbol`` (a tuple of level-(level-1) symbols); levels run 1..depth.
    ``parse_tables(level)`` is the inverse map, a function because tuples are
    globally distinct within a level.
    """

    def __init__(self, params: GrammarParams, tables: list[np.ndarray]):
        if len(tables) != params.depth:
            raise ValueError("need one rule table per level 1..depth")
        v, m, s = params.vocab_size, params.n_synonyms, params.branching
        self.params = params
        tabs, parse = [], []
        for table in tables:
            table = np.asarray(table)
            _check_token_range("rule table", table, v)
            if table.shape != (v, m, s):
                raise ValueError(f"rule table must have shape {(v, m, s)}")
            # Freeze a copy, so the caller's own array stays writeable.
            table = np.array(table, dtype=token_dtype(v), order="C")
            codes = encode_tuples(table.reshape(v * m, s), v + 1)
            parent_of = np.full((v + 1) ** s, v, dtype=token_dtype(v))
            choice_of = np.full((v + 1) ** s, -1, dtype=np.int32)
            parent_of[codes] = np.repeat(np.arange(v), m)
            choice_of[codes] = np.tile(np.arange(m, dtype=np.int32), v)
            # A repeated tuple fills one slot for several productions.
            if np.count_nonzero(parent_of < v) != v * m:
                raise ValueError("ambiguous rules: duplicate production tuple")
            for array in (table, parent_of, choice_of):
                array.setflags(write=False)
            tabs.append(table)
            parse.append((parent_of, choice_of))
        self._tables = tuple(tabs)
        self._parse = tuple(parse)
        self._bp = None  # rhmlab.bp's own state; no other module reads it
        self._hash: str | None = None

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.params.depth:
            raise ValueError(f"level must be in 1..{self.params.depth}")

    def rules_at(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._tables[level - 1]

    def parse_tables(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(parent_of, choice_of)`` over base-``(v+1)`` tuple
        codes, the digit ``v`` standing for any out-of-range symbol: the
        parent symbol producing each tuple, in :func:`token_dtype` with ``v``
        for tuples no rule produces, and its int32 rule index, -1 there."""
        self._check_level(level)
        return self._parse[level - 1]

    def to_jsonable(self) -> dict:
        return {
            "format": "rhm-grammar-v1",
            "params": {
                "depth": self.params.depth,
                "branching": self.params.branching,
                "vocab_size": self.params.vocab_size,
                "n_synonyms": self.params.n_synonyms,
                "seed": self.params.seed,
            },
            "rules": [t.tolist() for t in self._tables],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "RuleSet":
        """The grammar a document of :meth:`to_jsonable`'s shape describes;
        any other document raises ``ValueError`` naming the field."""
        if not isinstance(obj, dict):
            raise ValueError("a grammar document must be a JSON object")
        if obj.get("format") != "rhm-grammar-v1":
            raise ValueError("not a grammar document")
        p = obj.get("params")
        section = _config_schema()["properties"]["grammar"]
        section = section | {"required": [*section["required"], "seed"]}
        for error in _schema_errors(p, section, "params", _noun="grammar field"):
            raise ValueError(error)
        params = GrammarParams(**p)
        rules = obj.get("rules")
        if not isinstance(rules, list):
            raise ValueError("grammar field 'rules' must be a list")
        if len(rules) != params.depth:
            raise ValueError(f"grammar field 'rules' must hold {params.depth} levels")
        shape = (params.vocab_size, params.n_synonyms, params.branching)
        for lvl, table in enumerate(rules, 1):
            items = [table]
            for size in shape:  # symbol, production, child
                if not all(isinstance(x, list) and len(x) == size for x in items):
                    raise ValueError(f"grammar field 'rules' level {lvl} must nest "
                                     f"lists three deep, of lengths {shape}")
                items = [y for x in items for y in x]
            if not all(type(x) is int for x in items):
                raise ValueError(f"grammar field 'rules' level {lvl} must hold integers")
            # Checked here, before any cast: 2**40 would overflow it.
            bad = next((x for x in items if not 0 <= x < params.vocab_size), None)
            if bad is not None:
                raise ValueError(f"grammar field 'rules' level {lvl} must hold "
                                 f"integers in [0, {params.vocab_size}), found {bad}")
        return cls(params, [np.asarray(t) for t in rules])

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON document, computed once: the rule
        tables are read-only."""
        if self._hash is None:
            payload = json.dumps(self.to_jsonable(), sort_keys=True,
                                 separators=(",", ":")).encode()
            self._hash = hashlib.sha256(payload).hexdigest()
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self.params == other.params and all(
            np.array_equal(a, b) for a, b in zip(self._tables, other._tables)
        )


def _fill_production_codes(out: np.ndarray, n_tuples: int, seed: int) -> None:
    """The one rule draw: per level, a uniform sample of m*v distinct tuples
    out of ``n_tuples = v**s``, split into consecutive blocks of m per symbol.

    Fills each row of the ``(depth, v*m)`` int64 ``out`` with
    ``rng.permutation(n_tuples)[: v*m]`` for ``rng = default_rng(seed)``, in
    row order: row ``lvl - 1`` holds the level-``lvl`` production codes (see
    :func:`encode_tuples`), entry ``a*m + k`` being symbol ``a``'s k-th
    production. Checks nothing; callers pass a checked shape."""
    rng = np.random.default_rng(seed)
    width = out.shape[1]
    for row in range(len(out)):
        out[row] = rng.permutation(n_tuples)[:width]


def generate_rules(params: GrammarParams) -> RuleSet:
    """Draw a grammar instance by :func:`_fill_production_codes`,
    deterministically given ``params.seed``."""
    v, m, s = params.vocab_size, params.n_synonyms, params.branching
    codes = np.empty((params.depth, v * m), dtype=np.int64)
    _fill_production_codes(codes, v**s, params.seed)
    tables = decode_codes(codes, v, s)
    return RuleSet(params, list(tables.reshape(params.depth, v, m, s)))


@dataclass
class Dataset:
    """Rows of visible strings of the grammar shape ``params`` (required),
    with optionally retained latent levels.

    latents[lvl - 1] has shape ``(n, branching**(depth-lvl))`` and stores the
    level-``lvl`` symbols of every row. The rule choices are not stored:
    :func:`parse_batch` recovers them from the rows. ``meta`` carries
    provenance (grammar hash, seed, sampling mode).
    """

    sequences: np.ndarray
    params: GrammarParams
    latents: list[np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.params, GrammarParams):
            raise TypeError(f"params must be a GrammarParams, not {self.params!r}")
        self.sequences = np.asarray(self.sequences)
        if self.sequences.ndim != 2:
            raise ValueError("sequences must be 2-D (rows, tokens)")
        width = self.params.seq_len
        if self.sequences.shape[1] != width:
            raise ValueError(f"sequences must have {width} tokens per row "
                             f"(the grammar's seq_len), not {self.sequences.shape[1]}")
        # vocab_size itself is legal: it is the masking sentinel
        _check_token_range("sequences", self.sequences, self.params.vocab_size + 1)

    @property
    def n_rows(self) -> int:
        return self.sequences.shape[0]

    def level_symbols(self, level: int) -> np.ndarray:
        """Symbols at ``level`` for every row (level 0 = the sequences)."""
        if level == 0:
            return self.sequences
        if self.latents is None or level > len(self.latents):
            raise ValueError(f"level-{level} latents not retained")
        return self.latents[level - 1]


def _block_rows(row_tokens: int) -> int:
    """Rows per block for rows of ``row_tokens`` tokens: ``_BLOCK_TOKENS``
    tokens, and at least one row."""
    return max(1, _BLOCK_TOKENS // row_tokens)


def _row_blocks(n: int, row_tokens: int) -> list[slice]:
    """Slices of consecutive row blocks covering rows ``0 .. n-1`` of
    ``row_tokens`` tokens each (see :func:`_block_rows`)."""
    step = _block_rows(row_tokens)
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _columns(rows: np.ndarray, dtype) -> np.ndarray:
    """The ``(width, n)`` copy of the ``(n, width)`` ``rows`` in ``dtype`` (cast
    unsafely), one row per position, written row block by row block: numpy
    copies a whole transposed array an order of magnitude slower once its
    rows outgrow the cache."""
    n, width = rows.shape
    if n <= _block_rows(width):
        return np.ascontiguousarray(rows.T, dtype=dtype)
    out = np.empty((width, n), dtype=dtype)
    for block in _row_blocks(n, width):
        out[:, block] = rows[block].T
    return out


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` in ``table``'s dtype, block by block of
    ``_BLOCK_TOKENS`` entries: numpy copies a narrow index array to intp
    before it gathers, so the copy is one block."""
    if index.size <= _BLOCK_TOKENS:
        return np.take(table, index)
    out = np.empty(index.shape, dtype=table.dtype)
    flat, flat_out = index.ravel(), out.ravel()
    for part in _row_blocks(flat.size, 1):
        np.take(table, flat[part], out=flat_out[part])
    return out


def _code_ranks(codes: np.ndarray, code_space: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending intp distinct values of ``codes`` (all in
    ``[0, code_space)``) and each entry's rank among them, in the narrowest
    unsigned dtype holding ``code_space - 1``. While ``code_space`` is at
    most ``_LOOKUP_PER_CODE`` times the entry count, they come from one
    ``code_space``-entry lookup of that dtype; past that, from ``np.unique``
    and ``searchsorted``, so no table outgrows the data."""
    rank_type = np.min_scalar_type(code_space - 1)
    flat = codes.ravel()
    if code_space > _LOOKUP_PER_CODE * flat.size:
        observed = np.unique(flat)
        ranks = np.empty(codes.shape, dtype=rank_type)
        flat_ranks = ranks.ravel()
        for part in _row_blocks(flat.size, 1):
            flat_ranks[part] = np.searchsorted(observed, flat[part])
        return observed.astype(np.intp), ranks
    lookup = np.zeros(code_space, dtype=rank_type)
    for part in _row_blocks(flat.size, 1):
        # numpy scatters through intp indices faster than through narrow ones
        lookup[flat[part].astype(np.intp)] = 1
    observed = np.flatnonzero(lookup)
    lookup[observed] = np.arange(observed.size)
    return observed, _gather(lookup, codes)


def _expand_levels(
    rs: RuleSet, top: np.ndarray, choices: list[np.ndarray], with_latents: bool = True
) -> list[np.ndarray]:
    """Expand ``(n, width)`` symbols at level ``len(choices)`` down to the
    leaves, row block by row block; ``top`` and ``choices[lvl - 1]``, the
    level-``lvl`` rule indices, may have any integer dtype. Returns
    ``levels[0]`` = leaves .. ``levels[-1]`` = ``top``, or only ``[leaves]``
    without latents, every level in :func:`token_dtype`."""
    p = rs.params
    m, s = p.n_synonyms, p.branching
    dtype = token_dtype(p.vocab_size)
    top = top.astype(dtype, copy=False)
    n, width = top.shape
    depth = len(choices)
    # Each production is one opaque s-token item of a flat v*m table,
    # gathered by one take at parent*m + choice: numpy's 2-D fancy index
    # gathers several times slower.
    productions = [rs.rules_at(lvl).view(f"V{dtype.itemsize * s}").ravel()
                   for lvl in range(1, depth + 1)]
    levels = [np.empty((n, width * s ** (depth - lvl)), dtype=dtype)
              for lvl in range(depth if with_latents else 1)]
    for rows in _row_blocks(n, width * s**depth):
        cur = top[rows]
        for lvl in range(depth, 0, -1):
            index = np.multiply(cur, m, dtype=np.intp)
            np.add(index, choices[lvl - 1][rows], out=index, dtype=np.intp,
                   casting="unsafe")
            cur = productions[lvl - 1].take(index).view(dtype)
            if with_latents or lvl == 1:
                levels[lvl - 1][rows] = cur
    return levels + [top] if with_latents else levels


def sample_dataset(
    rs: RuleSet,
    n: int,
    rng: np.random.Generator,
    with_latents: bool = True,
) -> Dataset:
    """Draw ``n`` i.i.d. derivations: uniform root, uniform rule choices.
    ``rng`` draws the ``(n,)`` int32 roots, then one ``(n, width)`` int32
    rule-index array per level, from 1 up to ``depth``.

    Holds the result in :func:`token_dtype`, the rule indices narrowed to
    the smallest unsigned dtype and one level's int32 draw; without latents
    only the leaves are kept, and the levels between are expanded row block
    by row block."""
    _check_draw_count(n)
    p = rs.params
    root = rng.integers(0, p.vocab_size, size=n, dtype=np.int32)
    narrow = np.min_scalar_type(p.n_synonyms - 1)
    choices = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)),
                     dtype=np.int32).astype(narrow)
        for lvl in range(1, p.depth + 1)
    ]
    levels = _expand_levels(rs, root.reshape(n, 1), choices, with_latents)
    return Dataset(sequences=levels[0], params=p,
                   latents=levels[1:] if with_latents else None,
                   meta={"grammar_hash": rs.content_hash(), "distinct": False})


def _row_keys(rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """One sort key per row of tokens in ``[0, vocab_size)``: the row cut
    into runs of tokens whose base-``vocab_size`` codes fit in 64 bits, the
    codes side by side as one opaque item of big-endian uint64 words. Keys
    are equal iff rows are, and their bytewise order is the numeric order of
    their words, first word first."""
    n, d = rows.shape
    per_word = 1
    while vocab_size ** (per_word + 1) <= 2**64 and per_word < d:
        per_word += 1
    n_words = -(-d // per_word)
    words = np.empty((n, n_words), dtype=">u8")
    for block in _row_blocks(n, d):
        for w in range(n_words):
            words[block, w] = encode_tuples(
                rows[block, w * per_word : (w + 1) * per_word], vocab_size)
    return words.view(f"V{8 * n_words}").ravel()


def _new_rows(keys: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending indices of the rows whose key is neither in the sorted
    ``seen`` nor on an earlier row, and ``seen`` with their keys inserted.

    The keys are sorted by their first word (see :func:`_row_keys`), and
    runs of equal first words by every word."""
    n_words = keys.itemsize // 8
    order = np.argsort(keys.view(">u8")[::n_words].astype(np.uint64), kind="stable")
    ordered = keys[order]
    head = ordered.view(">u8")[::n_words]
    tied = np.flatnonzero(head[1:] == head[:-1])
    del head  # a view: it would keep these keys alive once ordered is cut
    if tied.size:
        at = np.union1d(tied, tied + 1)
        rows = order[at]
        words = keys[rows].view(">u8").reshape(-1, n_words)
        order[at] = rows[np.lexsort(words.T[::-1])]
        ordered[at] = keys[order[at]]
    first = np.ones(keys.size, dtype=bool)  # first of each run of equal keys
    first[1:] = ordered[1:] != ordered[:-1]
    order, ordered = order[first], ordered[first]
    at = np.searchsorted(seen, ordered)
    new = np.ones(at.size, dtype=bool)
    inside = np.flatnonzero(at < seen.size)
    new[inside] = seen[at[inside]] != ordered[inside]
    # only the new keys' entries are held through the insertion
    order, at, ordered = order[new], at[new], ordered[new]
    if order.size:
        seen = np.insert(seen, at, ordered)
    return np.sort(order), seen


def _compact_rows(array: np.ndarray, rows: np.ndarray) -> None:
    """Move ``array[rows]`` to the front of ``array`` in place, block by
    block; ``rows`` ascends, so no row is overwritten before it is read."""
    for block in _row_blocks(rows.size, array.shape[1]):
        array[block] = array[rows[block]]


def sample_distinct_dataset(
    rs: RuleSet,
    n: int,
    rng: np.random.Generator,
    with_latents: bool = True,
) -> Dataset:
    """Rejection-sample until ``n`` distinct visible strings are collected,
    in at most 1000 batches.

    Rows keep their first-draw derivations and order of first appearance.
    Each drawn row is looked up once among the exact keys of the rows kept
    so far (see :func:`_row_keys`); the first batch, of at least ``n`` rows,
    holds the result.
    """
    _check_draw_count(n)
    p = rs.params
    if n > p.n_derivations:
        raise ValueError(
            f"cannot draw {n} distinct strings; grammar has {p.n_derivations}"
        )
    seen = None
    out: list[np.ndarray] = []  # the first batch's sequences, then its latents
    n_kept = n_batches = 0
    while n_kept < n or not out:  # at least one batch, even for n = 0
        if n_batches == 1000:
            raise ValueError(
                f"drew fewer than {n} distinct strings of the grammar's "
                f"{p.n_derivations} in 1000 batches"
            )
        batch = sample_dataset(rs, max(n - n_kept, 64), rng, with_latents)
        n_batches += 1
        keys = _row_keys(batch.sequences, p.vocab_size)
        if seen is None:
            seen = keys[:0]
        fresh, seen = _new_rows(keys, seen)
        arrays = [batch.sequences] + (batch.latents if with_latents else [])
        if not out:
            out = arrays
            for array in out:
                _compact_rows(array, fresh)
        else:
            take = fresh[: n - n_kept]
            for dst, src in zip(out, arrays):
                dst[n_kept : n_kept + take.size] = src[take]
        n_kept += fresh.size
    return Dataset(sequences=out[0][:n], params=p,
                   latents=[a[:n] for a in out[1:]] if with_latents else None,
                   meta={"grammar_hash": rs.content_hash(), "distinct": True})


def enumerate_all(rs: RuleSet) -> Dataset:
    """Every derivation exactly once, as a Dataset with all latents retained.

    All derivations are equiprobable (weight 1 / n_derivations each), so the
    result doubles as the exact population distribution. Raises
    :class:`EnumerationCapError` above ``DEFAULT_ENUMERATION_CAP`` rows (read
    at call time).
    """
    p = rs.params
    _check_enumeration_cap(p)
    n = p.n_derivations
    m = p.n_synonyms
    idx = np.arange(n, dtype=np.int64)
    root = (idx // m**p.n_internal_nodes).astype(token_dtype(p.vocab_size))
    rem = idx % m**p.n_internal_nodes
    # Mixed-radix digits: one base-m choice per internal node, root level first.
    choices = []
    n_below = p.n_internal_nodes
    for lvl in range(p.depth, 0, -1):
        width = p.level_width(lvl)
        n_below -= width
        choices.append(decode_codes((rem // m**n_below) % m**width, m, width))
    choices.reverse()  # choices[lvl-1] for lvl = 1..depth
    levels = _expand_levels(rs, root.reshape(n, 1), choices)
    return Dataset(sequences=levels[0], params=p, latents=levels[1:],
                   meta={"grammar_hash": rs.content_hash(), "enumeration": True})


def _parse_block(
    block: np.ndarray, parent_of: np.ndarray, choice_of: np.ndarray | None,
    v: int, s: int,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One row block of :func:`_parse_level`, through its level's lookup
    tables (``choice_of`` None to skip the rule indices)."""
    n, row_tokens = block.shape
    # Cast to uint64 (negatives wrap high) and clip, so every symbol
    # outside [0, v) becomes the digit v, which no rule uses.
    digits = np.minimum(block.reshape(n, row_tokens // s, s), v,
                        dtype=np.uint64, casting="unsafe")
    codes = encode_tuples(digits, v + 1)
    parents = np.take(parent_of, codes)
    # The maximum runs over the transposed copy: numpy reduces a short
    # trailing axis an order of magnitude slower.
    valid = np.ascontiguousarray(parents.T).max(axis=0) < v
    return parents, None if choice_of is None else np.take(choice_of, codes), valid


def _parse_level(
    rs: RuleSet, lvl: int, cur: np.ndarray, with_choices: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Parse the ``(n, width * s)`` level-``lvl - 1`` symbols ``cur`` (any
    integer dtype) one level up, row block by row block.

    Returns the :func:`token_dtype` ``(n, width)`` level-``lvl`` parents, v
    where no rule produces the tuple; their int32 rule indices (-1 there), or
    None without ``with_choices``; and whether each row's parents are valid.
    """
    v, s = rs.params.vocab_size, rs.params.branching
    parent_of, choice_of = rs.parse_tables(lvl)
    if not with_choices:
        choice_of = None
    n, row_tokens = cur.shape
    if n <= _block_rows(row_tokens):  # the block's own arrays are the outputs
        return _parse_block(cur, parent_of, choice_of, v, s)
    parents = np.empty((n, row_tokens // s), dtype=parent_of.dtype)
    choices = None if choice_of is None else np.empty(parents.shape, np.int32)
    valid = np.empty(n, dtype=bool)
    for rows in _row_blocks(n, row_tokens):
        parents[rows], block_choices, valid[rows] = _parse_block(
            cur[rows], parent_of, choice_of, v, s)
        if choices is not None:
            choices[rows] = block_choices
    return parents, choices, valid


def _parse_levels(rs: RuleSet, seqs: np.ndarray, with_choices: bool = False):
    """Parse rows (a 1-D row is one row) one level at a time, yielding
    :func:`_parse_level`'s ``(parents, choices, valid)`` for levels 1 to
    ``depth``. An invalid parent (``vocab_size``) makes every tuple above it
    invalid, so a row valid at a level is valid below it too, and it parses
    fully iff it is valid at the root level."""
    p = rs.params
    seqs = np.asarray(seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
    if seqs.shape[1] != p.seq_len:
        raise ValueError(f"seqs must have length {p.seq_len}")
    _check_token_range("seqs", seqs, None)
    cur = seqs
    for lvl in range(1, p.depth + 1):
        parsed = _parse_level(rs, lvl, cur, with_choices)
        cur = parsed[0]
        yield parsed


def parse_batch(rs: RuleSet, seqs: np.ndarray):
    """Vectorized bottom-up parse of many rows (a 1-D row is one row).

    Returns ``(max_levels, latents, choices)`` where the int64 ``max_levels[r]`` is the
    largest level through which every tuple of row ``r`` is grammatical
    (0 = some visible tuple already invalid, depth = fully grammatical).
    Unparseable positions hold ``vocab_size``, and -1 in the int32 choices.
    Integer tokens only; one outside ``[0, vocab_size)`` is ungrammatical.
    Each level is parsed by :func:`_parse_levels`, in row blocks.
    """
    latents, choices, valid = zip(*_parse_levels(rs, seqs, with_choices=True))
    max_levels = valid[0].astype(np.int64)
    for level_valid in valid[1:]:
        max_levels += level_valid
    return max_levels, list(latents), list(choices)


def accuracy(rs: RuleSet, data) -> tuple[float, ...]:
    """Per-level accuracy curve: entry ``lvl - 1`` is the fraction of rows
    grammatical through level ``lvl`` (1..depth). Cumulative, so the curve is
    non-increasing."""
    seqs = data.sequences if isinstance(data, Dataset) else np.asarray(data)
    if seqs.size == 0:
        raise ValueError("accuracy of an empty input (0 rows) is undefined")
    return tuple(float(np.mean(valid)) for _, _, valid in _parse_levels(rs, seqs))


def tree_distance(i: int, j: int, branching: int, depth: int) -> tuple[int, int]:
    """Lowest-common-ancestor level of leaves ``i`` and ``j`` (0-based) and the
    token distance ``branching ** level``."""
    d = branching**depth
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError("leaf index out of range")
    if i == j:
        raise ValueError("tree distance requires two distinct leaves")
    level = 0
    while i != j:
        i //= branching
        j //= branching
        level += 1
    return level, branching**level


def resample_below(
    rs: RuleSet, seqs: np.ndarray, level: int, rng: np.random.Generator
) -> np.ndarray:
    """Redraw, in every row, all rule choices from ``level`` downward, keeping
    every symbol at levels >= ``level`` fixed (the synonym-exchange
    transformation). Rows must parse fully; returns the new ``(n, seq_len)``
    rows in :func:`token_dtype`. ``rng`` draws one ``(n, width)`` choice
    array per level, from ``level`` down to 1."""
    p = rs.params
    if not 1 <= level <= p.depth:
        raise ValueError(f"level must be in 1..{p.depth}")
    for lvl, (parents, _, valid) in enumerate(_parse_levels(rs, seqs), 1):
        if lvl == level:
            top = parents
    if not valid.all():
        raise ValueError("rows must parse fully under the grammar")
    n = top.shape[0]
    fresh = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)), dtype=np.int32)
        for lvl in range(level, 0, -1)
    ]
    return _expand_levels(rs, top, fresh[::-1], with_latents=False)[0]

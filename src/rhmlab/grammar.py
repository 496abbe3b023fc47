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
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_ENUMERATION_CAP = 1_000_000


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


@dataclass(frozen=True)
class GrammarParams:
    """Shape parameters of a random hierarchical grammar.

    depth: number of expansion levels (root at level ``depth``, tokens at 0).
    branching: children per node; every production is a ``branching``-tuple.
    vocab_size: symbols per level.
    n_synonyms: productions per symbol.
    seed: seed freezing the random rule draw.
    """

    depth: int
    branching: int
    vocab_size: int
    n_synonyms: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.n_synonyms < 1:
            raise ValueError("n_synonyms must be >= 1")
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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

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
    """Inverse of :func:`encode_tuples`; appends a trailing axis of length s."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (branching,), dtype=np.int32)
    rem = codes
    for i in range(branching - 1, -1, -1):
        out[..., i] = rem % vocab_size
        rem = rem // vocab_size
    return out


class RuleSet:
    """Frozen rule tables of one grammar instance.

    ``rules_at(level)`` is a ``(vocab_size, n_synonyms, branching)`` array whose
    ``[symbol, k]`` row is the k-th production of ``symbol`` (a tuple of
    level-(level-1) symbols); levels run 1..depth. ``inverse_at(level)`` maps a
    tuple code to ``parent * n_synonyms + rule_index`` (-1 for invalid tuples),
    which is a function because tuples are globally distinct within a level.
    ``parse_tables(level)`` holds the same map for :func:`parse_batch`.
    """

    def __init__(self, params: GrammarParams, tables: list[np.ndarray]):
        if len(tables) != params.depth:
            raise ValueError("need one rule table per level 1..depth")
        v, m, s = params.vocab_size, params.n_synonyms, params.branching
        self.params = params
        self._tables: tuple[np.ndarray, ...] = ()
        self._inverse: tuple[np.ndarray, ...] = ()
        tabs, invs = [], []
        for table in tables:
            table = np.ascontiguousarray(table, dtype=np.int32)
            if table.shape != (v, m, s):
                raise ValueError(f"rule table must have shape {(v, m, s)}")
            if table.min() < 0 or table.max() >= v:
                raise ValueError("rule table contains out-of-range symbols")
            codes = encode_tuples(table.reshape(v * m, s), v)
            if len(np.unique(codes)) != v * m:
                raise ValueError("ambiguous rules: duplicate production tuple")
            inv = np.full(v**s, -1, dtype=np.int64)
            inv[codes] = np.arange(v * m, dtype=np.int64)
            table.setflags(write=False)
            inv.setflags(write=False)
            tabs.append(table)
            invs.append(inv)
        self._tables = tuple(tabs)
        self._inverse = tuple(invs)
        self._parse: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
        self._hash: str | None = None

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.params.depth:
            raise ValueError(f"level must be in 1..{self.params.depth}")

    def rules_at(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._tables[level - 1]

    def inverse_at(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._inverse[level - 1]

    def parse_tables(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int32 ``(parent_of, choice_of)`` over base-``(v+1)`` tuple
        codes, the digit ``v`` standing for any out-of-range symbol: the
        parent symbol and rule index producing each tuple, -1 for tuples no
        rule produces. Built for every level on first use, so drawing a
        grammar does not pay for them."""
        self._check_level(level)
        if self._parse is None:
            v, m, s = (self.params.vocab_size, self.params.n_synonyms,
                       self.params.branching)
            tables = []
            for table in self._tables:
                codes = encode_tuples(table.reshape(v * m, s), v + 1)
                parent_of = np.full((v + 1) ** s, -1, dtype=np.int32)
                choice_of = np.full((v + 1) ** s, -1, dtype=np.int32)
                parent_of[codes] = np.repeat(np.arange(v, dtype=np.int32), m)
                choice_of[codes] = np.tile(np.arange(m, dtype=np.int32), v)
                parent_of.setflags(write=False)
                choice_of.setflags(write=False)
                tables.append((parent_of, choice_of))
            self._parse = tuple(tables)
        return self._parse[level - 1]

    def drop_bottom_level(self) -> "RuleSet":
        """The grammar formed by levels 2..depth, with level-1 symbols as leaves.

        Shares the remaining rule tables with ``self``; ``params.seed`` is kept
        for provenance even though the reduced set was not drawn from it.
        """
        if self.params.depth < 2:
            raise ValueError("cannot drop the only level")
        params = replace(self.params, depth=self.params.depth - 1)
        return RuleSet(params, [t.copy() for t in self._tables[1:]])

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
        if not isinstance(p, dict):
            raise ValueError("grammar field 'params' must be an object")
        keys = ("depth", "branching", "vocab_size", "n_synonyms", "seed")
        for key in keys:
            if type(p.get(key)) is not int:  # JSON integers only, not booleans
                raise ValueError(f"grammar field 'params.{key}' must be an integer")
        rules = obj.get("rules")
        if not isinstance(rules, list):
            raise ValueError("grammar field 'rules' must be a list")
        for lvl, table in enumerate(rules, 1):
            items = [table]
            for _ in range(3):  # symbol, production, child
                if not all(isinstance(x, list) for x in items):
                    raise ValueError(f"grammar field 'rules' level {lvl} must "
                                     f"nest lists three deep")
                items = [y for x in items for y in x]
            if not all(type(x) is int for x in items):
                raise ValueError(f"grammar field 'rules' level {lvl} must hold integers")
        params = GrammarParams(**{key: p[key] for key in keys})
        return cls(params, [np.asarray(t, dtype=np.int32) for t in rules])

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


def generate_rules(params: GrammarParams) -> RuleSet:
    """Draw a grammar instance: per level, a uniform sample of m*v distinct
    tuples out of v**s, split into consecutive blocks of m per symbol.

    Deterministic given ``params.seed``.
    """
    v, m, s = params.vocab_size, params.n_synonyms, params.branching
    rng = np.random.default_rng(params.seed)
    tables = []
    for _ in range(params.depth):
        codes = rng.permutation(v**s)[: v * m]
        tables.append(decode_codes(codes, v, s).reshape(v, m, s))
    return RuleSet(params, tables)


@dataclass
class Dataset:
    """Rows of visible strings, with optionally retained latent levels.

    latents[lvl - 1] has shape ``(n, branching**(depth-lvl))`` and stores the
    level-``lvl`` symbols of every row; choices[lvl - 1] aligns with it and
    holds the production index each level-``lvl`` node picked. ``meta``
    carries provenance (grammar hash, seed, sampling mode).
    """

    sequences: np.ndarray
    params: GrammarParams | None = None
    latents: list[np.ndarray] | None = None
    choices: list[np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sequences = np.asarray(self.sequences)
        if self.sequences.ndim != 2:
            raise ValueError("sequences must be 2-D (rows, tokens)")
        if self.params is not None and self.sequences.size:
            # vocab_size itself is legal: it is the masking sentinel
            if (self.sequences.min() < 0
                    or self.sequences.max() > self.params.vocab_size):
                raise ValueError("token values outside [0, vocab_size]")

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


def _expand_levels(
    rs: RuleSet, top: np.ndarray, choices: list[np.ndarray]
) -> list[np.ndarray]:
    """Expand ``(n, width)`` int32 symbols at level ``len(choices)`` down to
    the leaves; ``choices[lvl - 1]`` holds the level-``lvl`` rule indices.
    Returns ``levels[0]`` = leaves .. ``levels[-1]`` = ``top``."""
    p = rs.params
    m, s = p.n_synonyms, p.branching
    n = top.shape[0]
    levels = [top]
    for lvl in range(len(choices), 0, -1):
        parents = levels[-1]
        # Each int32 production is one opaque 4*s-byte item of a (v, m)
        # table, gathered at (parent, choice) with no index temporaries.
        productions = rs.rules_at(lvl).view(f"V{4 * s}").reshape(-1, m)
        children = productions[parents, choices[lvl - 1]].view(np.int32)
        levels.append(children.reshape(n, parents.shape[1] * s))
    levels.reverse()
    return levels


def sample_dataset(
    rs: RuleSet,
    n: int,
    rng: np.random.Generator,
    with_latents: bool = True,
) -> Dataset:
    """Draw ``n`` i.i.d. derivations: uniform root, uniform rule choices."""
    p = rs.params
    root = rng.integers(0, p.vocab_size, size=n, dtype=np.int32)
    choices = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)), dtype=np.int32)
        for lvl in range(1, p.depth + 1)
    ]
    levels = _expand_levels(rs, root.reshape(n, 1), choices)
    meta = {"grammar_hash": rs.content_hash(), "distinct": False}
    if not with_latents:
        return Dataset(sequences=levels[0], params=p, meta=meta)
    return Dataset(
        sequences=levels[0],
        params=p,
        latents=levels[1:],
        choices=choices,
        meta=meta,
    )


def sample_distinct_dataset(
    rs: RuleSet,
    n: int,
    rng: np.random.Generator,
    with_latents: bool = True,
) -> Dataset:
    """Rejection-sample until ``n`` distinct visible strings are collected,
    in at most 1000 batches.

    Rows keep their first-draw derivations and order of first appearance.
    """
    p = rs.params
    if n > p.n_derivations:
        raise ValueError(
            f"cannot draw {n} distinct strings; grammar has {p.n_derivations}"
        )
    seen: set[bytes] = set()
    batches: list[Dataset] = []
    firsts: list[int] = []  # row of each first appearance in the concatenation
    n_drawn = 0
    while len(firsts) < n or not batches:  # at least one batch, even for n = 0
        if len(batches) == 1000:
            raise ValueError(
                f"drew fewer than {n} distinct strings of the grammar's "
                f"{p.n_derivations} in 1000 batches"
            )
        batch = sample_dataset(rs, max(n - len(firsts), 64), rng, with_latents)
        for i, row in enumerate(np.ascontiguousarray(batch.sequences)):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                firsts.append(n_drawn + i)
        batches.append(batch)
        n_drawn += batch.n_rows
    idx = np.asarray(firsts[:n], dtype=np.int64)
    meta = {"grammar_hash": rs.content_hash(), "distinct": True}
    seqs = np.concatenate([b.sequences for b in batches])[idx]
    if not with_latents:
        return Dataset(sequences=seqs, params=p, meta=meta)
    latents = [np.concatenate([b.latents[i] for b in batches])[idx] for i in range(p.depth)]
    choices = [np.concatenate([b.choices[i] for b in batches])[idx] for i in range(p.depth)]
    return Dataset(
        sequences=seqs, params=p, latents=latents, choices=choices, meta=meta
    )


def enumerate_all(rs: RuleSet) -> Dataset:
    """Every derivation exactly once, as a Dataset with all latents retained.

    All derivations are equiprobable (weight 1 / n_derivations each), so the
    result doubles as the exact population distribution. Raises
    :class:`EnumerationCapError` above ``DEFAULT_ENUMERATION_CAP`` rows (read
    at call time).
    """
    p = rs.params
    n = p.n_derivations
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n} derivations exceed cap {DEFAULT_ENUMERATION_CAP}")
    m = p.n_synonyms
    idx = np.arange(n, dtype=np.int64)
    root = (idx // m**p.n_internal_nodes).astype(np.int32)
    rem = idx % m**p.n_internal_nodes
    # Mixed-radix digits: one base-m choice per internal node, root level first.
    choices = []
    n_below = p.n_internal_nodes
    for lvl in range(p.depth, 0, -1):
        width = p.level_width(lvl)
        n_below -= width
        block = (rem // m**n_below) % m**width
        digits = np.empty((n, width), dtype=np.int32)
        for j in range(width - 1, -1, -1):
            digits[:, j] = block % m
            block = block // m
        choices.append(digits)
    choices.reverse()  # choices[lvl-1] for lvl = 1..depth
    levels = _expand_levels(rs, root.reshape(n, 1), choices)
    ds = Dataset(
        sequences=levels[0],
        params=p,
        latents=levels[1:],
        choices=choices,
        meta={"grammar_hash": rs.content_hash(), "enumeration": True},
    )
    return ds


def parse_batch(rs: RuleSet, seqs: np.ndarray):
    """Vectorized bottom-up parse of many rows (a 1-D row is one row).

    Returns ``(max_levels, latents, choices)`` where ``max_levels[r]`` is the
    largest level through which every tuple of row ``r`` is grammatical
    (0 = some visible tuple already invalid, depth = fully grammatical).
    Unparseable positions hold -1 (int32; ``max_levels`` is int64).
    """
    p = rs.params
    seqs = np.asarray(seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
    if seqs.shape[1] != p.seq_len:
        raise ValueError(f"sequences must have length {p.seq_len}")
    if seqs.dtype.kind not in "biu":
        seqs = seqs.astype(np.int64)  # truncate non-integer tokens first
    n = seqs.shape[0]
    v, s = p.vocab_size, p.branching
    max_levels = np.zeros(n, dtype=np.int64)
    cur = seqs
    latents, choices = [], []
    for lvl in range(1, p.depth + 1):
        width = p.level_width(lvl)
        # Cast to uint64 (negatives wrap high) and clip, so every symbol
        # outside [0, v) becomes the digit v, which no rule uses.
        digits = np.empty((n, width, s), dtype=np.uint64)
        np.minimum(cur.reshape(n, width, s), v, out=digits, dtype=np.uint64,
                   casting="unsafe")
        codes = encode_tuples(digits, v + 1)
        parent_of, choice_of = rs.parse_tables(lvl)
        parents = np.take(parent_of, codes)
        choices.append(np.take(choice_of, codes))
        latents.append(parents)
        # An invalid parent (-1) makes every tuple above it invalid, so a row
        # parses through this level iff all its parents here are valid. The
        # minimum runs over the transposed copy: numpy reduces a short
        # trailing axis an order of magnitude slower.
        max_levels += np.ascontiguousarray(parents.T).min(axis=0) >= 0
        cur = parents
    return max_levels, latents, choices


def accuracy(rs: RuleSet, data) -> tuple[float, ...]:
    """Per-level accuracy curve: entry ``lvl - 1`` is the fraction of rows
    grammatical through level ``lvl`` (1..depth). Cumulative, so the curve is
    non-increasing."""
    seqs = data.sequences if isinstance(data, Dataset) else np.asarray(data)
    if seqs.size == 0:
        raise ValueError("accuracy of an empty input (0 rows) is undefined")
    max_levels, _, _ = parse_batch(rs, seqs)
    return tuple(
        float(np.mean(max_levels >= lvl)) for lvl in range(1, rs.params.depth + 1)
    )


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
    rows. ``rng`` draws one ``(n, width)`` choice array per level, from
    ``level`` down to 1."""
    p = rs.params
    if not 1 <= level <= p.depth:
        raise ValueError(f"level must be in 1..{p.depth}")
    max_levels, latents, _ = parse_batch(rs, seqs)
    if not np.all(max_levels == p.depth):
        raise ValueError("rows must parse fully under the grammar")
    n = max_levels.shape[0]
    fresh = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)), dtype=np.int32)
        for lvl in range(level, 0, -1)
    ]
    return _expand_levels(rs, latents[level - 1], fresh[::-1])[0]

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
    """Big-endian base-``vocab_size`` integer code of each trailing-axis tuple."""
    tuples = np.asarray(tuples)
    s = tuples.shape[-1]
    powers = vocab_size ** np.arange(s - 1, -1, -1, dtype=np.int64)
    return tuples.astype(np.int64) @ powers


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

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.params.depth:
            raise ValueError(f"level must be in 1..{self.params.depth}")

    def rules_at(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._tables[level - 1]

    def inverse_at(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._inverse[level - 1]

    def lookup(self, level: int, tup) -> tuple[int, int] | None:
        """(parent symbol, rule index) producing ``tup``, or None if invalid."""
        tup = np.asarray(tup)
        v = self.params.vocab_size
        if tup.min() < 0 or tup.max() >= v:
            return None
        entry = int(self.inverse_at(level)[int(encode_tuples(tup, v))])
        if entry < 0:
            return None
        m = self.params.n_synonyms
        return entry // m, entry % m

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
        if obj.get("format") != "rhm-grammar-v1":
            raise ValueError("not a grammar document")
        p = obj["params"]
        params = GrammarParams(
            depth=p["depth"],
            branching=p["branching"],
            vocab_size=p["vocab_size"],
            n_synonyms=p["n_synonyms"],
            seed=p["seed"],
        )
        tables = [np.asarray(t, dtype=np.int32) for t in obj["rules"]]
        return cls(params, tables)

    def content_hash(self) -> str:
        payload = json.dumps(self.to_jsonable(), sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()

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
    rs: RuleSet, root: np.ndarray, choices: list[np.ndarray]
) -> list[np.ndarray]:
    """Expand per-row roots through given per-level choice arrays."""
    levels = [root.reshape(-1, 1).astype(np.int32)]
    for lvl in range(rs.params.depth, 0, -1):
        parents = levels[-1]
        children = rs.rules_at(lvl)[parents, choices[lvl - 1]]
        levels.append(children.reshape(parents.shape[0], -1))
    levels.reverse()  # now levels[0] = leaves .. levels[depth] = root
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
    levels = _expand_levels(rs, root, choices)
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
    kept: list[Dataset] = []
    n_kept = 0
    for _ in range(1000):
        batch = sample_dataset(rs, max(n - n_kept, 64), rng, with_latents=True)
        keys = [row.tobytes() for row in np.ascontiguousarray(batch.sequences)]
        fresh = []
        for i, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if fresh:
            idx = np.asarray(fresh)
            kept.append(
                Dataset(
                    sequences=batch.sequences[idx],
                    params=p,
                    latents=[lat[idx] for lat in batch.latents],
                    choices=[ch[idx] for ch in batch.choices],
                )
            )
            n_kept += len(fresh)
        if n_kept >= n:
            break
    else:
        raise RuntimeError("rejection sampling did not reach n distinct rows")
    seqs = np.concatenate([d.sequences for d in kept])[:n]
    latents = [
        np.concatenate([d.latents[i] for d in kept])[:n]
        for i in range(p.depth)
    ]
    choices = [
        np.concatenate([d.choices[i] for d in kept])[:n]
        for i in range(p.depth)
    ]
    meta = {"grammar_hash": rs.content_hash(), "distinct": True}
    if not with_latents:
        return Dataset(sequences=seqs, params=p, meta=meta)
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
    levels = _expand_levels(rs, root, choices)
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
    Unparseable positions hold -1.
    """
    p = rs.params
    seqs = np.asarray(seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
    if seqs.shape[1] != p.seq_len:
        raise ValueError(f"sequences must have length {p.seq_len}")
    n = seqs.shape[0]
    v, m, s = p.vocab_size, p.n_synonyms, p.branching
    max_levels = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    cur = seqs.astype(np.int64)
    latents, choices = [], []
    for lvl in range(1, p.depth + 1):
        blocks = cur.reshape(n, -1, s)
        in_range = ((blocks >= 0) & (blocks < v)).all(axis=2)
        codes = np.where(in_range, encode_tuples(blocks, v), 0)
        entry = rs.inverse_at(lvl)[codes]
        ok = in_range & (entry >= 0)
        parents = np.where(ok, entry // m, -1).astype(np.int32)
        choice = np.where(ok, entry % m, -1).astype(np.int32)
        alive &= ok.all(axis=1)
        max_levels[alive] = lvl
        latents.append(parents)
        choices.append(choice)
        cur = parents
    return max_levels, latents, choices


def accuracy(rs: RuleSet, data, level: int) -> float:
    """Fraction of rows grammatical through ``level`` (cumulative, so the
    accuracy is non-increasing in ``level``)."""
    seqs = data.sequences if isinstance(data, Dataset) else np.asarray(data)
    if level == 0:
        return 1.0
    if not 1 <= level <= rs.params.depth:
        raise ValueError(f"level must be in 1..{rs.params.depth}")
    max_levels, _, _ = parse_batch(rs, seqs)
    return float(np.mean(max_levels >= level))


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
    parents = latents[level - 1]
    for lvl in range(level, 0, -1):
        fresh = rng.integers(0, p.n_synonyms, size=parents.shape, dtype=np.int32)
        parents = rs.rules_at(lvl)[parents, fresh].reshape(parents.shape[0], -1)
    return parents

"""Correlation measurements and their closed-form predictions.

Covers three families of quantities:

* token-token covariance of visible strings, pooled by tree distance, with its
  finite-sample noise floor 1/(v*sqrt(N));
* token-tuple correlations between the first token and the tuple of
  level-(level-2) features whose lowest common ancestor with it sits at
  ``level``, together with the predicted ensemble magnitude
  sqrt((1-f) / (v^3 m^(level+2))), the sampling noise (v^2 m P)^(-1/2), and the
  sample complexity v m^(level+1) / (1-f);
* the exact level-to-level variance recursion with prefactor
  v^(s-1) (v-1) / (m (v^s - 1)).

Correlation magnitudes are reported as the root-mean-square matrix entry
(Frobenius norm / number-of-rows of the v x v block), which is the
normalization under which the independence floor equals 1/(v*sqrt(N)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grammar import (
    Dataset,
    GrammarParams,
    RuleSet,
    _check_token_range,
    encode_tuples,
    generate_rules,
    tree_distance,
)
from .seeding import derive_seed


def _covariance(joint: np.ndarray, n: int) -> np.ndarray:
    """C[a, b] = P(a, b) - P(a) P(b) from the integer pair counts of ``n``
    rows: (n*joint - outer(row sums, column sums)) / n^2, so the marginal sums
    cancel exactly before the final division."""
    return (n * joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))) / float(n) ** 2


def joint_correlation(
    a: np.ndarray, b: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """Empirical correlation matrix C[a, b] = P(a, b) - P(a) P(b)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need two equal-length non-empty index arrays")
    joint = np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b)
    return _covariance(joint, a.size)


@dataclass
class CorrelationReport:
    """Per-tree-distance covariance magnitudes of a set of strings."""

    distances: np.ndarray  # token distance s**lca_level, ascending
    values: np.ndarray  # mean RMS covariance entry over pairs in the class
    n_pairs: np.ndarray
    noise_floor: float  # 1 / (v sqrt(N))
    n_rows: int


class TokenCovarianceAccumulator:
    """Mergeable pair-count state behind :func:`token_token_correlation`.

    ``update`` streams row shards; ``merge`` combines shards associatively
    (pure integer counts, so order changes nothing before the final division).
    """

    def __init__(self, branching: int, depth: int, vocab_size: int):
        self.branching = branching
        self.depth = depth
        self.vocab_size = vocab_size
        d = branching**depth
        self.pairs = [
            (i, j, tree_distance(i, j, branching, depth)[0])
            for i in range(d)
            for j in range(i + 1, d)
        ]
        self.counts = np.zeros(
            (len(self.pairs), vocab_size, vocab_size), dtype=np.int64
        )
        self.n_rows = 0

    def update(self, seqs: np.ndarray) -> "TokenCovarianceAccumulator":
        seqs = np.asarray(seqs)
        d = self.branching**self.depth
        if seqs.ndim != 2 or seqs.shape[1] != d:
            raise ValueError(f"seqs must have shape (n, {d}), not {seqs.shape}")
        v = self.vocab_size
        _check_token_range("seqs", seqs, v)
        # One contiguous row per token position, in the narrowest unsigned
        # type holding a pair code a*v + b <= v*v - 1, so each pair's bincount
        # reads two contiguous rows.
        code_type = next(
            (t for t in (np.uint8, np.uint16, np.uint32) if v * v - 1 <= np.iinfo(t).max),
            np.intp,
        )
        cols = np.ascontiguousarray(seqs.T, dtype=code_type)
        high = cols * code_type(v)
        for idx, (i, j, _) in enumerate(self.pairs):
            self.counts[idx] += np.bincount(
                high[i] + cols[j], minlength=v * v
            ).reshape(v, v)
        self.n_rows += seqs.shape[0]
        return self

    def merge(self, other: "TokenCovarianceAccumulator") -> "TokenCovarianceAccumulator":
        if (self.branching, self.depth, self.vocab_size) != (
            other.branching,
            other.depth,
            other.vocab_size,
        ):
            raise ValueError("accumulators have different geometry")
        out = TokenCovarianceAccumulator(self.branching, self.depth, self.vocab_size)
        out.counts = self.counts + other.counts
        out.n_rows = self.n_rows + other.n_rows
        return out

    def report(self) -> CorrelationReport:
        if self.n_rows < 2:
            raise ValueError(f"need at least 2 rows; the input has {self.n_rows} rows")
        n = self.n_rows
        v = self.vocab_size
        levels = sorted({lca for _, _, lca in self.pairs})
        sums = {lca: 0.0 for lca in levels}
        counts = {lca: 0 for lca in levels}
        for idx, (_, _, lca) in enumerate(self.pairs):
            sums[lca] += float(np.linalg.norm(_covariance(self.counts[idx], n))) / v
            counts[lca] += 1
        return CorrelationReport(
            distances=np.array([self.branching**lca for lca in levels]),
            values=np.array([sums[lca] / counts[lca] for lca in levels]),
            n_pairs=np.array([counts[lca] for lca in levels]),
            noise_floor=1.0 / (v * np.sqrt(n)),
            n_rows=n,
        )


def token_token_correlation(
    seqs: np.ndarray, branching: int, depth: int, vocab_size: int
) -> CorrelationReport:
    """RMS covariance entry between token pairs, averaged within each
    tree-distance class, next to the 1/(v*sqrt(N)) independence floor."""
    acc = TokenCovarianceAccumulator(branching, depth, vocab_size)
    return acc.update(np.asarray(seqs)).report()


@dataclass
class TokenTupleCorrelation:
    """Correlation of the first token with the level-(level-2) tuple whose
    lowest common ancestor with it sits at ``level``."""

    level: int
    codes: np.ndarray  # tuple codes labelling the columns
    matrix: np.ndarray  # (vocab_size, len(codes))

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.matrix**2)))


def _tuple_block(ds: Dataset, level: int) -> np.ndarray:
    p = ds.params
    if p is None:
        raise ValueError("dataset lacks grammar parameters")
    if not 2 <= level <= p.depth:
        raise ValueError(f"level must be in 2..{p.depth}")
    s = p.branching
    syms = ds.level_symbols(level - 2)
    return syms[:, s : 2 * s]


def token_tuple_correlation(ds: Dataset, level: int) -> TokenTupleCorrelation:
    """Empirical token-tuple correlation over the observed tuple values.

    Latents must be present (retained at sampling or attached from a parse)
    whenever ``level > 2``.
    """
    p = ds.params
    block = _tuple_block(ds, level)
    codes = encode_tuples(block, p.vocab_size)
    observed = np.unique(codes)
    col = np.searchsorted(observed, codes)
    matrix = joint_correlation(
        ds.sequences[:, 0], col, p.vocab_size, observed.size
    )
    return TokenTupleCorrelation(level=level, codes=observed, matrix=matrix)


def population_token_tuple_correlation(rs: RuleSet, level: int) -> TokenTupleCorrelation:
    """Exact population token-tuple correlation of a grammar instance, by
    transfer matrices along the tree; nothing is enumerated, so any depth
    works.

    With ``A_l[a, b] = #{k : rules_at(l)[a, k, 0] = b} / m`` the left-slot
    matrices: the marginal ``pi`` of node 0 at ``level`` is the uniform root
    pushed down the leftmost spine; its children 0 and 1 have the joint
    ``Q[c0, c1] = sum_{a,k} pi[a] / m [rules_at(level)[a, k, 0:2] = (c0, c1)]``
    (summed over (parent, production) pairs, because siblings are coupled
    through the shared production); ``c0`` reaches leaf 0 through
    ``A_{level-1} ... A_1``, and ``c1`` emits each of its productions, the
    tuple, with probability ``1/m``. The result is that joint minus the
    outer product of its marginals.

    Columns span all vocab_size**branching tuple codes; columns of
    ungrammatical tuples are exactly zero.
    """
    p = rs.params
    if not 2 <= level <= p.depth:
        raise ValueError(f"level must be in 2..{p.depth}")
    v, m = p.vocab_size, p.n_synonyms
    pi = np.full(v, 1.0 / v)
    for lvl in range(p.depth, level, -1):
        pi = np.bincount(rs.rules_at(lvl)[:, :, 0].ravel(),
                         weights=np.repeat(pi / m, m), minlength=v)
    top = rs.rules_at(level)
    joint = np.bincount((top[:, :, 0] * v + top[:, :, 1]).ravel(),
                        weights=np.repeat(pi / m, m), minlength=v * v).reshape(v, v)
    parents = np.repeat(np.arange(v), m)
    for lvl in range(level - 1, 0, -1):  # rows: leftmost node at level lvl-1
        left = np.bincount(parents * v + rs.rules_at(lvl)[:, :, 0].ravel(),
                           minlength=v * v).reshape(v, v) / m
        joint = left.T @ joint
    inv = rs.inverse_at(level - 1)
    valid = inv >= 0
    matrix = np.zeros((v, inv.size))
    matrix[:, valid] = joint[:, inv[valid] // m] / m
    matrix -= np.outer(matrix.sum(axis=1), matrix.sum(axis=0))
    return TokenTupleCorrelation(
        level=level, codes=np.arange(inv.size), matrix=matrix
    )


@dataclass
class TheoryPrediction:
    """Closed-form predictions for one level of the hierarchy."""

    level: int
    rule_density: float  # f = m / v**(s-1)
    corr_magnitude: float  # sqrt((1-f) / (v^3 m^(level+2)))
    sample_complexity: float  # v m^(level+1) / (1-f)
    local_complexity: float  # v m, cost of memorizing visible tuples
    sampling_noise: float | None  # (v^2 m P)^(-1/2) when P given


def theory_prediction(
    params: GrammarParams, level: int, n_samples: int | None = None
) -> TheoryPrediction:
    """Evaluate the predicted correlation magnitude, sampling noise, and sample
    complexity; raises when every tuple is grammatical (f = 1), where the
    complexity diverges."""
    if level < 2:
        raise ValueError("token-tuple geometry starts at level 2")
    v, m = params.vocab_size, params.n_synonyms
    f = params.rule_density
    if f >= 1.0:
        raise ValueError(
            "sample complexity diverges: every tuple is grammatical (f = 1)"
        )
    corr = float(np.sqrt((1.0 - f) / (v**3 * float(m) ** (level + 2))))
    complexity = v * float(m) ** (level + 1) / (1.0 - f)
    noise = None
    if n_samples is not None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        noise = float((v**2 * m * n_samples) ** -0.5)
    return TheoryPrediction(
        level=level,
        rule_density=f,
        corr_magnitude=corr,
        sample_complexity=complexity,
        local_complexity=float(v * m),
        sampling_noise=noise,
    )


def recursion_prefactor(vocab_size: int, branching: int, n_synonyms: int) -> float:
    """Exact ratio of consecutive-level correlation second moments over grammar
    draws: v^(s-1) (v-1) / (m (v^s - 1)); tends to 1/m as v grows."""
    v, s, m = vocab_size, branching, n_synonyms
    return v ** (s - 1) * (v - 1) / (m * (v**s - 1))


@dataclass
class RecursionCheck:
    predicted_ratio: float
    empirical_ratio: float
    mean_sq_high: float
    mean_sq_low: float
    n_grammars: int
    level: int


def _grammar_draws(n_grammars: int, seed: int, tag: str, *shape: int):
    """The ``n_grammars`` grammars of an ensemble average, of ``shape``
    ``(depth, branching, vocab_size, n_synonyms)``, drawn one at a time from
    seeds ``derive_seed(seed, g, tag)``."""
    if n_grammars < 30:
        raise ValueError("need at least 30 grammar draws")
    return (generate_rules(GrammarParams(*shape, seed=derive_seed(seed, g, tag)))
            for g in range(n_grammars))


def correlation_recursion_check(
    vocab_size: int,
    branching: int,
    n_synonyms: int,
    level: int = 2,
    n_grammars: int = 500,
    seed: int = 0,
) -> RecursionCheck:
    """Monte Carlo over grammar draws of Var(C^(level+1)) / Var(C^(level)).

    Each draw uses a depth-(level+1) instance for the numerator and the same
    instance with its bottom level dropped for the denominator, so numerator
    and denominator share the upper rules exactly as in the analytic recursion.
    Per-draw entry sums vanish identically, so pooled second moments are
    variances.
    """
    draws = _grammar_draws(n_grammars, seed, "recursion-grammar",
                           level + 1, branching, vocab_size, n_synonyms)
    if level < 2:
        raise ValueError("recursion is defined for level >= 2")
    sq_high = 0.0
    sq_low = 0.0
    n_high = 0
    n_low = 0
    for rs in draws:
        hi = population_token_tuple_correlation(rs, level + 1).matrix
        lo = population_token_tuple_correlation(rs.drop_bottom_level(), level).matrix
        sq_high += float((hi**2).sum())
        n_high += hi.size
        sq_low += float((lo**2).sum())
        n_low += lo.size
    mean_high = sq_high / n_high
    mean_low = sq_low / n_low
    return RecursionCheck(
        predicted_ratio=recursion_prefactor(vocab_size, branching, n_synonyms),
        empirical_ratio=mean_high / mean_low,
        mean_sq_high=mean_high,
        mean_sq_low=mean_low,
        n_grammars=n_grammars,
        level=level,
    )


def ensemble_correlation_std(
    vocab_size: int,
    branching: int,
    n_synonyms: int,
    level: int = 2,
    n_grammars: int = 200,
    seed: int = 0,
) -> float:
    """Pooled std of population token-tuple correlation entries over grammar
    draws (per-draw means vanish identically), the quantity predicted by
    ``theory_prediction(...).corr_magnitude``.

    Restricted to grammatical tuple columns: ungrammatical tuples carry an
    identically-zero correlation and the analytic magnitude is normalized per
    realizable tuple value.
    """
    total = 0.0
    count = 0
    for rs in _grammar_draws(n_grammars, seed, "ensemble-grammar",
                             level, branching, vocab_size, n_synonyms):
        mat = population_token_tuple_correlation(rs, level).matrix
        valid = rs.inverse_at(level - 1) >= 0
        total += float((mat[:, valid] ** 2).sum())
        count += int(valid.sum()) * mat.shape[0]
    return float(np.sqrt(total / count))

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

Exact population correlations come from one transfer-matrix core over a
stack of grammars (:func:`_stacked_core`), one builder of its slot transfer
matrices (:func:`_slot_matrices`, which the learner's collision check
shares) and one builder of their dense correlation matrices
(:func:`_dense_matrices`). A single grammar is a stack of one; the ensemble
averages over grammar draws evaluate ``ENSEMBLE_BLOCK`` draws per core pass,
build the dense matrices a chunk of at most ``_DENSE_BYTES`` (and at least
one draw) at a time, so memory stays bounded whatever v and s are, and keep
the bits of one draw at a time.

Correlation magnitudes are reported as the root-mean-square matrix entry
(Frobenius norm / number-of-rows of the v x v block), which is the
normalization under which the independence floor equals 1/(v*sqrt(N)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grammar import (
    Dataset,
    GrammarParams,
    RuleSet,
    _check_draw_count,
    _check_token_range,
    _code_ranks,
    _columns,
    _fill_production_codes,
    _is_integer,
    _row_blocks,
    encode_tuples,
    token_dtype,
    tree_distance,
)
from .seeding import derive_seed


def _covariance(joint: np.ndarray, n: int) -> np.ndarray:
    """C[a, b] = P(a, b) - P(a) P(b) from the integer pair counts of ``n``
    rows: (n*joint - outer(row sums, column sums)) / n^2, so the marginal sums
    cancel exactly before the final division."""
    return (n * joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))) / float(n) ** 2


def _joint_counts(a: np.ndarray, b: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """The int64 ``(n_a, n_b)`` table of how often each pair ``(a[i], b[i])``
    occurs, for equal-size integer arrays already in ``[0, n_a)`` and
    ``[0, n_b)``. The keys ``a * n_b + b`` are formed in intp block by block
    of ``_BLOCK_TOKENS`` entries, so any input dtype counts alike; entries
    that fit one block are counted by one bincount, which is the table."""
    a, b = a.ravel(), b.ravel()
    counts = np.zeros(n_a * n_b, dtype=np.int64) if a.size == 0 else None
    for part in _row_blocks(a.size, 1):
        keys = np.multiply(a[part], n_b, dtype=np.intp)
        np.add(keys, b[part], out=keys, dtype=np.intp, casting="unsafe")
        block = np.bincount(keys, minlength=n_a * n_b)
        if counts is None:
            counts = block
        else:
            counts += block
    return counts.reshape(n_a, n_b)


def joint_correlation(
    a: np.ndarray, b: np.ndarray, n_a: int, n_b: int
) -> np.ndarray:
    """Empirical correlation matrix C[a, b] = P(a, b) - P(a) P(b) of integer
    entries in ``[0, n_a)`` and ``[0, n_b)``, of any integer dtype."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need two equal-length non-empty index arrays")
    _check_token_range("a", a, n_a)
    _check_token_range("b", b, n_b)
    return _covariance(_joint_counts(a, b, n_a, n_b), a.size)


@dataclass
class CorrelationReport:
    """Per-tree-distance covariance magnitudes of a set of strings."""

    distances: np.ndarray  # token distance s**lca_level, ascending
    values: np.ndarray  # mean RMS covariance entry over pairs in the class
    n_pairs: np.ndarray
    noise_floor: float  # 1 / (v sqrt(N))
    n_rows: int


# Most bins one r-group joint table may have: the group size r is the largest
# with vocab_size**r within it (and at least 2, at most the row length).
_GROUP_BINS = 4096


@functools.lru_cache(maxsize=None)
def _pair_cover(d: int, r: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """A fixed cover of the position pairs ``i < j < d`` by groups of at most
    ``r`` ascending positions, each pair read from exactly one group.

    Each entry is ``(members, reads)``; ``reads`` holds ``(axes, pair)``, the
    group-table axes to sum away and the pair's index in row-major ``i < j``
    order. Greedy: a group starts at the first position with an unread pair
    and, while some position has one with a member, adds the position with
    the most unread pairs to the members (ties to the smallest). Unread pairs
    are one ``d``-bit mask per position, and ``at_least[c]`` masks the
    positions with more than ``c`` unread pairs to the members, so a group
    of ``r`` costs ``O(r**2)`` mask operations and the cover ``O(d**2)``.
    """
    # Per group size, each member pair (a, b) with the other members' axes;
    # and per position i, the row-major index of pair (i, j) less j.
    member_pairs = [[(a, b, tuple(x for x in range(n) if x not in (a, b)))
                     for a in range(n) for b in range(a + 1, n)]
                    for n in range(r + 1)]
    offset = [i * (2 * d - i - 1) // 2 - i - 1 for i in range(d)]
    unread = [((1 << d) - 1) ^ (1 << i) for i in range(d)]
    cover = []
    for i in range(d):
        while unread[i]:
            members = [i]
            free = ~(1 << i)  # positions not yet members
            at_least = [unread[i]]
            while len(members) < r:
                for mask in reversed(at_least):
                    best = mask & free
                    if best:
                        break
                else:
                    break
                k = (best & -best).bit_length() - 1
                members.append(k)
                free &= ~(1 << k)
                row = unread[k]
                at_least.append(at_least[-1] & row)
                for c in range(len(at_least) - 2, 0, -1):
                    at_least[c] |= at_least[c - 1] & row
                at_least[0] |= row
            members.sort()
            reads = []
            for a, b, rest in member_pairs[len(members)]:
                ia, jb = members[a], members[b]
                if unread[ia] >> jb & 1:
                    unread[ia] ^= 1 << jb
                    unread[jb] ^= 1 << ia
                    reads.append((rest, offset[ia] + jb))
            cover.append((tuple(members), tuple(reads)))
    return tuple(cover)


class TokenCovarianceAccumulator:
    """Mergeable pair-count state behind :func:`token_token_correlation`.

    ``counts[p]`` is the ``(v, v)`` int64 joint count table of position pair
    ``pairs[p]``. ``update`` counts ``r`` positions at a time: one bincount
    of the base-``v`` codes of each group of :func:`_pair_cover`, with ``r``
    the largest group size whose ``v**r`` bins stay within ``_GROUP_BINS``
    (at least 2, at most the row length). Each pair's table is its group's
    table summed over the other members, so the counts are exact and equal
    one bincount per pair; with ``r = 2`` the groups are the pairs. ``merge``
    combines shards associatively (pure integer counts, so order changes
    nothing before the final division).
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
        r = 2
        while r < d and v ** (r + 1) <= _GROUP_BINS:
            r += 1
        # One contiguous row per position, in the token dtype, so each group
        # reads contiguous rows, widened in place to the narrowest code type.
        cols = _columns(seqs, token_dtype(v))
        codes = np.empty(seqs.shape[0], dtype=np.min_scalar_type(v**r - 1))
        for members, reads in _pair_cover(d, r):
            np.copyto(codes, cols[members[0]])
            for m in members[1:]:
                codes *= v
                codes += cols[m]
            table = np.bincount(codes, minlength=v ** len(members)).reshape(
                (v,) * len(members))
            for axes, pair in reads:
                self.counts[pair] += table.sum(axis=axes)
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


def token_tuple_correlation(ds: Dataset, level: int) -> TokenTupleCorrelation:
    """Empirical token-tuple correlation over the observed tuple values.

    Latents must be present (retained at sampling or attached from a parse)
    whenever ``level > 2``. The first tokens and the tuple symbols may have
    any integer dtype and must lie in ``[0, vocab_size)``.
    """
    p = ds.params
    if not 2 <= level <= p.depth:
        raise ValueError(f"level must be in 2..{p.depth}")
    v, s = p.vocab_size, p.branching
    first = ds.sequences[:, 0]
    block = ds.level_symbols(level - 2)[:, s : 2 * s]
    _check_token_range("first tokens", first, v)
    _check_token_range("tuple symbols", block, v)
    observed, col = _code_ranks(encode_tuples(block, v), v**s)
    matrix = joint_correlation(first, col, v, observed.size)
    return TokenTupleCorrelation(level=level, codes=observed, matrix=matrix)


def _slot_matrices(children: np.ndarray) -> np.ndarray:
    """The ``(G, v, v)`` slot transfer matrices of a stack of ``(G, v, m)``
    children in one slot, ``A[g, a, b] = #{k : children[g, a, k] = b} / m``:
    the probability that a uniform production of symbol ``a`` holds ``b``
    there. Integer counts, then one division by ``m``, so a table has the
    same bits in any stack."""
    n, v, m = children.shape
    return _joint_counts(np.repeat(np.arange(n * v), m), children,
                         n * v, v).reshape(n, v, v) / m


def _stacked_core(
    codes: np.ndarray, vocab_size: int, n_synonyms: int, branching: int, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transfer-matrix pass behind the exact population token-tuple
    correlations of ``G`` grammars at once; nothing is enumerated, so any
    depth works.

    ``codes`` is ``(G, depth, v*m)``: grammar ``g``'s production codes per
    level, as :func:`~rhmlab.grammar._fill_production_codes` draws them.
    With ``A_l`` the left-slot matrices (:func:`_slot_matrices`): the
    marginal ``pi`` of node 0 at ``level`` is the uniform root pushed down
    the leftmost spine; its children 0 and 1 have the joint
    ``Q[c0, c1] = sum_{a,k} pi[a] / m [rules_at(level)[a, k, 0:2] = (c0, c1)]``
    (summed over (parent, production) pairs, because siblings are coupled
    through the shared production); ``c0`` reaches leaf 0 through
    ``A_{level-1} ... A_1``, and ``c1`` emits each of its productions, the
    tuple, with probability ``1/m``.

    Every weighted count is one bincount over the whole stack, keyed by
    grammar first, so each grammar's bins add the same terms in the same
    order as a stack of one. Returns the ``(G, v, v)`` joint of leaf 0 and
    ``c1``, and per grammar the ``(G, v*m)`` order of the productions that
    sorts their tuple codes and those codes, ascending: the grammatical
    tuple codes. :func:`_dense_matrices` turns any slice of the three into
    correlation matrices.
    """
    n, depth = codes.shape[:2]
    v, m, s = vocab_size, n_synonyms, branching
    first = codes // v ** (s - 1)  # left child of every production
    grammar = np.repeat(np.arange(n), v * m)  # g of every production
    pi = np.full((n, v), 1.0 / v)
    for lvl in range(depth, level, -1):
        pi = np.bincount(grammar * v + first[:, lvl - 1].ravel(),
                         weights=np.repeat(pi / m, m, axis=1).ravel(),
                         minlength=n * v).reshape(n, v)
    # (c0, c1) of each production is its code's leading two base-v digits.
    pairs = codes[:, level - 1] // v ** (s - 2)
    joint = np.bincount(grammar * v * v + pairs.ravel(),
                        weights=np.repeat(pi / m, m, axis=1).ravel(),
                        minlength=n * v * v).reshape(n, v, v)
    for lvl in range(level - 1, 0, -1):  # rows: leftmost node at level lvl-1
        left = _slot_matrices(first[:, lvl - 1].reshape(n, v, m))
        joint = left.transpose(0, 2, 1) @ joint
    order = np.argsort(codes[:, level - 2], axis=1)
    cols = np.take_along_axis(codes[:, level - 2], order, axis=1)
    return joint, order, cols


def _dense_matrices(
    joint: np.ndarray, order: np.ndarray, cols: np.ndarray, branching: int
) -> np.ndarray:
    """The ``(g, v, v**s)`` token-tuple correlation matrices of a slice of
    :func:`_stacked_core`'s stack: the joint of leaf 0 and each grammatical
    tuple, minus the outer product of its marginals. Columns of
    ungrammatical tuples are exactly zero. Every sum runs within one grammar,
    so a grammar's matrix has the same bits in any slice."""
    g, v = joint.shape[:2]
    m = order.shape[1] // v
    matrix = np.zeros((g, v, v**branching))
    np.put_along_axis(matrix, cols[:, None, :],
                      np.take_along_axis(joint, order[:, None, :] // m, axis=2) / m,
                      axis=2)
    matrix -= matrix.sum(axis=2)[:, :, None] * matrix.sum(axis=1)[:, None, :]
    return matrix


def population_token_tuple_correlation(rs: RuleSet, level: int) -> TokenTupleCorrelation:
    """Exact population token-tuple correlation of a grammar instance
    (:func:`_stacked_core` and :func:`_dense_matrices` on a stack of one).

    Columns span all vocab_size**branching tuple codes; columns of
    ungrammatical tuples are exactly zero.
    """
    p = rs.params
    if not 2 <= level <= p.depth:
        raise ValueError(f"level must be in 2..{p.depth}")
    v, m, s = p.vocab_size, p.n_synonyms, p.branching
    codes = np.stack([encode_tuples(rs.rules_at(lvl).reshape(v * m, s), v)
                      for lvl in range(1, p.depth + 1)])
    matrix = _dense_matrices(*_stacked_core(codes[None], v, m, s, level), s)[0]
    return TokenTupleCorrelation(level=level, codes=np.arange(v**s), matrix=matrix)


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
    _check_draw_count(level, "level")
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
        _check_draw_count(n_samples, "n_samples")
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


ENSEMBLE_BLOCK = 64  # grammar draws evaluated per stacked pass


def _ensemble_blocks(params: GrammarParams, n_grammars: int, seed: int, tag: str):
    """The production codes of an ensemble's ``n_grammars`` grammars of shape
    ``params``, drawn from seeds ``derive_seed(seed, g, tag)`` exactly as
    :func:`generate_rules` draws them, ``ENSEMBLE_BLOCK`` draws at a time in
    draw order. Each draw is written straight into its block."""
    v, m, s = params.vocab_size, params.n_synonyms, params.branching
    for start in range(0, n_grammars, ENSEMBLE_BLOCK):
        block = np.empty((min(ENSEMBLE_BLOCK, n_grammars - start), params.depth, v * m),
                         dtype=np.int64)
        for g, out in enumerate(block, start):
            _fill_production_codes(out, v**s, derive_seed(seed, g, tag))
        yield block


def _ensemble_params(depth: int, branching: int, vocab_size: int, n_synonyms: int,
                     level: int, n_grammars: int) -> GrammarParams:
    """The shape of an ensemble's grammars, checked with ``level`` and
    ``n_grammars`` before anything is drawn."""
    for name, value in (("level", level), ("n_grammars", n_grammars)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if level < 2:
        raise ValueError(f"level must be >= 2, not {level}")
    if n_grammars < 30:
        raise ValueError(f"need at least 30 grammar draws, not n_grammars={n_grammars}")
    return GrammarParams(depth, branching, vocab_size, n_synonyms)


def _sums_of_squares(matrices: np.ndarray) -> list[float]:
    """Each matrix's sum of squared entries, summed as ``(mat**2).sum()``
    sums one C-contiguous matrix: pairwise, in row-major order."""
    return (matrices.reshape(len(matrices), -1) ** 2).sum(axis=1).tolist()


# Most bytes of float64 matrices one chunk of :func:`_dense_chunks` may hold;
# a chunk holds at least one grammar. 128 KiB is glibc malloc's default mmap
# threshold: chunks of this size were reused from the heap, where 256 KiB
# chunks were mapped and paged in afresh (520 page faults per 500-draw
# recursion check at v=8, and 10% slower). Reuse is usual, not certain: at
# 128 KiB, 148 of 160 fresh interpreters made no minor faults per call and
# the other 12 made 44-286, as the heap layout that earlier small
# allocations leave decides whether malloc trims the heap top under the
# chunk temporaries. So test_dense_chunks_do_not_fault_in_fresh_pages
# bounds the faults per call in place of requiring none.
_DENSE_BYTES = 1 << 17


def _dense_chunks(
    codes: np.ndarray, vocab_size: int, n_synonyms: int, branching: int, level: int
):
    """The ``(g, v, v**s)`` correlation matrices of :func:`_dense_matrices`
    and the ``(g, v*m)`` grammatical tuple codes of each grammar of the stack
    ``codes``, yielded in draw order as consecutive chunks: one core pass
    over the whole stack, then as many grammars' dense matrices at a time as
    fit in ``_DENSE_BYTES``, so memory does not grow with ``v**(s+1)`` times
    the stack."""
    joint, order, cols = _stacked_core(codes, vocab_size, n_synonyms, branching, level)
    step = max(1, _DENSE_BYTES // (8 * vocab_size ** (branching + 1)))
    for start in range(0, len(codes), step):
        part = slice(start, start + step)
        yield _dense_matrices(joint[part], order[part], cols[part], branching), cols[part]


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
    variances. The draws run through :func:`_dense_chunks` in blocks of
    ``ENSEMBLE_BLOCK``, and each draw's sum of squares is added in draw
    order, so the result depends on neither the block nor the chunk size.
    """
    params = _ensemble_params(level + 1, branching, vocab_size, n_synonyms,
                              level, n_grammars)
    sq_high = 0.0
    sq_low = 0.0
    for codes in _ensemble_blocks(params, n_grammars, seed, "recursion-grammar"):
        for hi, _ in _dense_chunks(codes, vocab_size, n_synonyms, branching,
                                   level + 1):
            for high in _sums_of_squares(hi):
                sq_high += high
        for lo, _ in _dense_chunks(codes[:, 1:], vocab_size, n_synonyms,
                                   branching, level):
            for low in _sums_of_squares(lo):
                sq_low += low
    n_entries = n_grammars * vocab_size * vocab_size**branching
    mean_high = sq_high / n_entries
    mean_low = sq_low / n_entries
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
    realizable tuple value. Runs in blocks of draws, as
    :func:`correlation_recursion_check` does.
    """
    params = _ensemble_params(level, branching, vocab_size, n_synonyms,
                              level, n_grammars)
    total = 0.0
    for codes in _ensemble_blocks(params, n_grammars, seed, "ensemble-grammar"):
        for mat, cols in _dense_chunks(codes, vocab_size, n_synonyms, branching,
                                       level):
            # Column-major, as numpy lays out the column selection mat[:, valid].
            valid = np.take_along_axis(mat, cols[:, None, :],
                                       axis=2).transpose(0, 2, 1)
            for sq in _sums_of_squares(valid):
                total += sq
    return float(np.sqrt(total / (n_grammars * vocab_size * vocab_size * n_synonyms)))

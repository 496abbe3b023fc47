"""Hierarchical synonym learning by clustering context statistics.

The learner recovers a grammar from visible strings alone, one level per
stage: it estimates, for every observed s-block value, the mean one-hot
context under the adjacent sibling block (a single visible token or the first
visible s-tuple of that block's span), clusters those vectors with k-means
(k = vocab_size), collapses each block to its cluster label, and ascends.
Blocks produced by the same hidden feature have identical population context
vectors, so with enough data the clusters are exactly the synonym classes.
The reconstructed grammar maps each cluster label to its member tuples as
equiprobable productions, topped by the observed inventory of top-level label
tuples; sampling it yields strings whose per-level grammaticality against the
true rules measures what was learned.

Contexts are always *visible* tokens, at every stage. The correlation between
a visible token and a level-(j-1) tuple weakens geometrically with j, which is
what makes the stage-j sample complexity scale like m**(j+1); conditioning on
collapsed sibling labels instead would short-circuit that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import _check_fields
from .grammar import (
    EnumerationCapError,
    GrammarParams,
    RuleSet,
    _check_draw_count,
    _check_enumeration_cap,
    _check_token_range,
    _code_ranks,
    _columns,
    _gather,
    _parse_level,
    _parse_levels,
    _power_at_most,
    _row_blocks,
    accuracy,
    decode_codes,
    generate_rules,
    sample_dataset,
    token_dtype,
)
from .kmeans import kmeans_fit
from .seeding import derive_seed
from .stats import _joint_counts, _slot_matrices, theory_prediction

VARIANTS = ("single_token", "full_tuple")
# Ratio of consecutive points of a sweep's geometric sample-size grid.
GRID_RATIO = 2.0**0.5


@dataclass
class ContextStats:
    """Mean one-hot context vectors per observed block value.

    ``vectors[i]`` is the empirical conditional distribution of the context
    given block code ``codes[i]``: one length-``vocab_size`` block per context
    token, each summing to 1.
    """

    level: int
    variant: str
    codes: np.ndarray
    vectors: np.ndarray
    counts: np.ndarray
    vocab_size: int
    branching: int

    def merge(self, other: "ContextStats") -> "ContextStats":
        """Count-weighted recombination of two shards (associative up to
        float round-off)."""
        if (self.level, self.variant, self.vocab_size, self.branching) != (
            other.level,
            other.variant,
            other.vocab_size,
            other.branching,
        ):
            raise ValueError("incompatible context statistics")
        codes = np.union1d(self.codes, other.codes)
        dim = self.vectors.shape[1]
        sums = np.zeros((codes.size, dim))
        counts = np.zeros(codes.size, dtype=np.int64)
        for part in (self, other):
            pos = np.searchsorted(codes, part.codes)
            sums[pos] += part.vectors * part.counts[:, None]
            counts[pos] += part.counts
        return ContextStats(
            level=self.level,
            variant=self.variant,
            codes=codes,
            vectors=sums / counts[:, None],
            counts=counts,
            vocab_size=self.vocab_size,
            branching=self.branching,
        )


def build_context_stats(
    labels: np.ndarray,
    visible: np.ndarray,
    vocab_size: int,
    branching: int,
    variant: str = "single_token",
    level: int = 1,
) -> ContextStats:
    """Accumulate mean context vectors for every s-block of ``labels``.

    ``labels`` is the current working sequence (visible tokens at stage 1,
    cluster labels afterwards); ``visible`` is the original string, used to
    read contexts: the first visible token under the adjacent sibling block
    (the next block for a group's first block, else the previous one), or
    its first visible s-tuple for the ``full_tuple`` variant. Every block
    with a sibling in range adds to its code's vector. Labels and visible
    tokens must lie in ``[0, vocab_size)``.
    """
    labels = np.asarray(labels)
    visible = np.asarray(visible)
    n, width = labels.shape
    s = branching
    if width % s != 0 or width < 2 * s:
        raise ValueError("labels must hold at least two full blocks per row")
    if visible.shape[0] != n or visible.shape[1] % width != 0:
        raise ValueError("context tokens must align with the label grid")
    _check_token_range("labels", labels, vocab_size)
    _check_token_range("context tokens", visible, vocab_size)
    dtype = token_dtype(vocab_size)
    block_codes = _block_codes(_columns(labels, dtype), vocab_size, branching)
    return _count_contexts(block_codes, _columns(visible, dtype), vocab_size,
                           branching, variant, level)[0]


def _block_codes(labels: np.ndarray, vocab_size: int, branching: int) -> np.ndarray:
    """Big-endian base-``vocab_size`` codes of the s-blocks of the
    ``(width, n)`` labels (one row per position), as ``(width // s, n)``
    codes in the narrowest unsigned dtype holding ``vocab_size**s - 1``.
    The labels' dtype must be no wider than that."""
    width, n = labels.shape
    blocks = labels.reshape(width // branching, branching, n)
    codes = blocks[:, 0].astype(np.min_scalar_type(vocab_size**branching - 1))
    for i in range(1, branching):
        codes *= vocab_size
        codes += blocks[:, i]
    return codes


def _count_contexts(block_codes: np.ndarray, visible: np.ndarray, vocab_size: int,
                    branching: int, variant: str, level: int
                    ) -> tuple[ContextStats, np.ndarray]:
    """:func:`build_context_stats` from the ``(n_blocks, n)`` block codes of
    an already checked label grid and the ``(width, n)`` visible tokens in
    ``[0, vocab_size)`` (an unsigned dtype), one row per position. Counts are
    kept per observed code, by rank. Also returns the ranks of the counted
    blocks' codes."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    n_blocks = block_codes.shape[0]
    s = branching
    span = visible.shape[0] // (n_blocks * s)
    n_ctx = s if variant == "full_tuple" else 1
    # Every block has a sibling except a last block that starts a group.
    counted = n_blocks - ((n_blocks - 1) % s == 0)
    observed, ranks = _code_ranks(block_codes[:counted], vocab_size**s)
    k = observed.size
    sums = np.zeros((k, n_ctx, vocab_size), dtype=np.int64)
    for b in range(counted):
        c = b - 1 if b % s != 0 else b + 1
        for t in range(n_ctx):
            sums[:, t, :] += _joint_counts(ranks[b], visible[c * s * span + t], k,
                                           vocab_size)
    # Each occurrence adds one count to every context token's block.
    counts = sums[:, 0, :].sum(axis=1)
    stats = ContextStats(
        level=level,
        variant=variant,
        codes=observed.astype(np.int64),
        vectors=(sums / counts[:, None, None]).reshape(k, n_ctx * vocab_size),
        counts=counts,
        vocab_size=vocab_size,
        branching=branching,
    )
    return stats, ranks


@dataclass
class Partition:
    """A clustering of observed block codes into synonym-class candidates;
    a learned model keeps one per stage."""

    codes: np.ndarray
    labels: np.ndarray
    partial: bool  # fewer observed codes than requested clusters
    inertia: float
    n_iter: int | None = None  # Lloyd iterations of the winning k-means restart
    restart: int | None = None  # index of the winning k-means restart
    restarts_run: int = 0  # distinct k-means first points fitted


def cluster_tuples(stats: ContextStats, seed: int = 0) -> Partition:
    """k-means over the mean context vectors, k = vocab_size.

    With fewer observed codes than k, every code becomes its own cluster and
    the partition is flagged partial.
    """
    k = stats.vocab_size
    n_codes = stats.codes.size
    if n_codes < k:
        return Partition(
            codes=stats.codes.copy(),
            labels=np.arange(n_codes, dtype=token_dtype(k)),
            partial=True,
            inertia=0.0,
        )
    fit = kmeans_fit(stats.vectors, k, seed=seed)
    return Partition(
        codes=stats.codes.copy(),
        labels=fit.labels.astype(token_dtype(k)),
        partial=False,
        inertia=fit.inertia,
        n_iter=fit.n_iter,
        restart=fit.restart,
        restarts_run=fit.restarts_run,
    )


def pair_agreement_score(labels: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of item pairs joined/separated consistently with ``reference``
    (1.0 iff the partitions coincide up to relabeling); both hold nonnegative
    integers. Counted exactly from the contingency table: of the n(n-1)
    ordered pairs, n(n-1) - Σ a(a-1) - Σ b(b-1) + 2 Σ c(c-1) agree, over its
    row sums a, column sums b and cells c."""
    labels = np.asarray(labels)
    reference = np.asarray(reference)
    if labels.shape != reference.shape:
        raise ValueError("partitions must label the same items")
    for name, x in (("labels", labels), ("reference", reference)):
        _check_token_range(name, x, None)
        if x.size and x.min() < 0:
            raise ValueError(f"{name} must be nonnegative, found {x.min()}")
    n = labels.size
    if n < 2:
        return 1.0
    # Labels from n up are renumbered densely, so every count below is O(n).
    a, b = (x.ravel().astype(np.int64) if x.max() < n
            else np.unique(x, return_inverse=True)[1].ravel() for x in (labels, reference))
    cells = np.unique(a * n + b, return_counts=True)[1]
    sa, sb, sc = (int(c @ (c - 1)) for c in (np.bincount(a), np.bincount(b), cells))
    return (n * (n - 1) - sa - sb + 2 * sc) / (n * (n - 1))


def true_tuple_classes(rs: RuleSet, level: int, codes: np.ndarray) -> np.ndarray:
    """Ground-truth synonym class (parent symbol) of each grammatical tuple code."""
    v, s = rs.params.vocab_size, rs.params.branching
    tuples = decode_codes(codes, v, s)
    parents = _parse_level(rs, level, tuples.reshape(-1, s))[0].reshape(tuples.shape[:-1])
    if np.any(parents == v):
        raise ValueError("ungrammatical tuple has no synonym class")
    return parents


@dataclass
class ClusterModel:
    """The reconstructed grammar: per-stage partitions (``levels[i]`` is stage
    i+1) plus the observed top-level tuple inventory."""

    branching: int
    vocab_size: int
    levels: list[Partition]
    top_tuples: np.ndarray
    recovery: list[float] | None = None


def learn_grammar(
    seqs: np.ndarray,
    depth: int,
    branching: int,
    vocab_size: int,
    variant: str = "single_token",
    seed: int = 0,
    truth: RuleSet | None = None,
    partition_fn: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> ClusterModel:
    """Recover a grammar from visible strings by staged context clustering.

    When ``truth`` is given, it must have this depth, branching and
    vocab_size, rows must parse fully under it (checked before any
    clustering) and a per-stage recovery score is recorded: each observed
    code's ground-truth class is the majority true parent over its
    occurrences, compared by pair agreement. The true parents are parsed one
    level at a time. Symbols, every ``Partition.labels``, the top tuples and
    the rows' context tokens are in :func:`token_dtype`, block codes in the
    smallest unsigned dtype that holds one, one row per position.
    ``partition_fn(stage, observed_codes) -> labels`` overrides the clustering
    at every stage (used to inject oracle or adversarial partitions); its
    labels must lie in ``[0, vocab_size)``, the grammar's alphabet.
    """
    if truth is not None:
        for name, given in (("depth", depth), ("branching", branching),
                            ("vocab_size", vocab_size)):
            if getattr(truth.params, name) != given:
                raise ValueError(f"truth grammar has {name} "
                                 f"{getattr(truth.params, name)}, not {given}")
    seqs = np.asarray(seqs)
    if seqs.ndim != 2 or seqs.shape[1] != branching**depth:
        raise ValueError(f"tokens must have shape (n, {branching ** depth})")
    if seqs.shape[0] == 0:
        raise ValueError("cannot learn a grammar from an empty input (0 rows)")
    _check_token_range("tokens", seqs, vocab_size)
    dtype = token_dtype(vocab_size)
    true_parents: list[np.ndarray] = []  # level-l parents at l - 1, by position
    recovery: list[float] | None = None
    if truth is not None:
        for parents, _, valid in _parse_levels(truth, seqs):
            true_parents.append(_columns(parents, dtype))
        if not valid.all():
            raise ValueError("training rows must parse under the reference grammar")
        recovery = []
    # One narrow copy of the rows, by position: the stage-1 labels and every
    # stage's context tokens.
    visible = _columns(seqs, dtype)
    labels = visible
    levels: list[Partition] = []
    for stage in range(1, depth):
        # Every block of a power-of-s width has a sibling, so the context
        # statistics see every observed code, in ascending order, and rank
        # every block.
        stats, ranks = _count_contexts(_block_codes(labels, vocab_size, branching),
                                       visible, vocab_size, branching, variant, stage)
        observed = stats.codes
        if partition_fn is not None:
            part_labels = np.asarray(partition_fn(stage, observed))
            if part_labels.shape != observed.shape:
                raise ValueError("partition_fn must label every observed code")
            # The next stage, and the top tuples, encode these in base vocab_size.
            _check_token_range(f"partition_fn labels at stage {stage}", part_labels,
                               vocab_size)
            part = Partition(codes=observed, labels=part_labels.astype(dtype),
                             partial=False, inertia=math.nan)
        else:
            part = cluster_tuples(stats, seed=derive_seed(seed, stage, "kmeans"))
        if recovery is not None:
            # Each observed code's most frequent true parent, ties to the
            # smallest symbol.
            classes = _joint_counts(ranks, true_parents[stage - 1], observed.size,
                                    vocab_size).argmax(axis=1)
            recovery.append(pair_agreement_score(part.labels, classes))
        levels.append(part)
        labels = _gather(part.labels, ranks)
        del ranks
    # Distinct top-level rows in lexicographic order, via their big-endian codes.
    top_codes = np.flatnonzero(np.bincount(_block_codes(labels, vocab_size, branching)[0]))
    top_tuples = decode_codes(top_codes, vocab_size, labels.shape[0])
    return ClusterModel(
        branching=branching,
        vocab_size=vocab_size,
        levels=levels,
        top_tuples=top_tuples,
        recovery=recovery,
    )


def generate_from_learned(
    model: ClusterModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Ancestral sampling from the reconstructed grammar: a uniform observed
    top tuple, then uniform member-tuple expansion of every label.

    A label's members are its codes in ascending order. Each level draws one
    member index per position, label by label in ascending order and, within
    a label, in row-major position order. Rows are in :func:`token_dtype`.
    """
    _check_draw_count(n)
    if model.top_tuples.size == 0:
        raise ValueError("model has no top-level tuples")
    cur = model.top_tuples[rng.integers(0, model.top_tuples.shape[0], size=n)]
    s = model.branching
    for stage in range(len(model.levels), 0, -1):
        part = model.levels[stage - 1]
        # Every label's member tuples, grouped by label in ascending order.
        members = decode_codes(
            part.codes[np.argsort(part.labels, kind="stable")], model.vocab_size, s
        )
        sizes = np.bincount(part.labels, minlength=model.vocab_size)
        starts = np.cumsum(sizes) - sizes
        labels = cur.ravel()
        order = np.argsort(labels, kind="stable")
        by_label = labels[order]
        high = sizes[by_label]
        if high.size and high.min() == 0:
            lab = by_label[np.argmin(high)]
            raise ValueError(f"label {lab} has no productions at stage {stage}")
        # An array of bounds draws exactly what one call per label would.
        picks = np.empty_like(order)
        picks[order] = starts[by_label] + rng.integers(0, high)
        cur = np.take(members, picks, axis=0).reshape(n, cur.shape[1] * s)
    return cur


def population_context_collision(rs: RuleSet, variant: str = "single_token") -> bool:
    """Whether any two non-synonymous tuples share an exact population context
    vector at some stage (which would make them unclusterable in principle).

    Exact, by transfer matrices; nothing is enumerated. The pooled context
    vector that :func:`build_context_stats` would give a tuple over every
    derivation depends only on the tuple's parent symbol ``a``. At stage
    ``k`` it is the normalized sum, over level-(k+1) parents ``A``,
    productions ``p`` and slots ``i`` with ``rules_at(k+1)[A, p, i] = a``, of
    ``w[A] / m`` times the context distribution under the sibling
    ``rules_at(k+1)[A, p, j(i)]`` (``j(0) = 1``, else ``i - 1``): its leftmost
    leaf, or for ``full_tuple`` the ``s`` leaf marginals under its leftmost
    level-1 descendant. ``w`` is the expected count of each symbol over the
    level-(k+1) nodes, the uniform root pushed down through every slot.
    Vectors within 1e-12 in every entry count as shared.

    Raises :class:`EnumerationCapError` above ``DEFAULT_ENUMERATION_CAP``
    derivations, as :func:`enumerate_all` does, until that guard is lifted.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, not {variant!r}")
    p = rs.params
    _check_enumeration_cap(p)
    v, m, s = p.vocab_size, p.n_synonyms, p.branching
    # context[k - 1][a]: the context tokens' distributions below a level-k a;
    # at level 1, the slot matrices of the n_ctx context slots side by side.
    n_ctx = s if variant == "full_tuple" else 1
    context = [np.hstack(_slot_matrices(rs.rules_at(1)[:, :, :n_ctx].transpose(2, 0, 1)))]
    for lvl in range(2, p.depth):
        context.append(_slot_matrices(rs.rules_at(lvl)[None, :, :, 0])[0] @ context[-1])
    sibling = [1] + list(range(s - 1))
    w = np.full(v, 1.0 / v)  # the root
    for stage in range(p.depth - 1, 0, -1):
        # In intp: children * v would wrap in a uint8 table from v = 17 on.
        children = rs.rules_at(stage + 1).reshape(v * m, s).astype(np.intp)
        # joint[a, b]: expected level-stage nodes holding a beside sibling b
        joint = np.bincount((children * v + children[:, sibling]).ravel(),
                            weights=np.repeat(w / m, m * s),
                            minlength=v * v).reshape(v, v)
        w = joint.sum(axis=1)
        seen = np.flatnonzero(w > 0)
        vecs = joint[seen] @ context[stage - 1] / w[seen, None]
        # Row block by row block: all pairs at once need seen**2 vectors.
        for rows in _row_blocks(seen.size, vecs.size):
            gap = np.abs(vecs[rows, None, :] - vecs[None, :, :]).max(axis=2)
            if np.triu(gap <= 1e-12, rows.start + 1).any():
                return True
    return False


@dataclass
class SweepConfig:
    """Grid definition for sample-complexity measurements; the fields are
    checked against the ``sweep`` section of ``config_schema.json``."""

    depth: int
    branching: int = 2
    vocab_size: int = 16
    m_list: tuple[int, ...] = (2, 3, 4, 6, 8)
    trials: int = 5
    variant: str = "single_token"
    cluster_threshold: float = 0.95
    accuracy_threshold: float = 0.5
    p_grid: dict[int, tuple[int, ...]] | None = None
    grid_span: float = 8.0
    n_eval: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        # Check every invariant once, before any cell or worker starts.
        _check_fields(self, "sweep")
        GrammarParams(depth=self.depth, branching=self.branching,
                      vocab_size=self.vocab_size, n_synonyms=1)
        for m in self.m_list:
            # f = m / v**(s-1) >= 1 has no finite threshold.
            if _power_at_most(self.vocab_size, self.branching - 1, m):
                raise ValueError(f"m={m} must be >= 1 with rule density "
                                 "m / vocab_size**(branching-1) below 1")
        for m in self.p_grid or ():
            if m not in self.m_list:
                raise ValueError(f"p_grid names m={m}, which is not in m_list")

    def grid_for(self, m: int) -> list[int]:
        if self.p_grid is not None and m in self.p_grid:
            return sorted(set(self.p_grid[m]))
        params = GrammarParams(
            depth=self.depth,
            branching=self.branching,
            vocab_size=self.vocab_size,
            n_synonyms=m,
            seed=0,
        )
        center = theory_prediction(params, self.depth).sample_complexity
        lo = center / self.grid_span
        n_points = int(round(2 * math.log(self.grid_span) / math.log(GRID_RATIO))) + 1
        grid = [max(8, int(round(lo * GRID_RATIO**i))) for i in range(n_points)]
        return sorted(set(grid))


@dataclass
class TrialRecord:
    m: int
    n_samples: int
    trial: int
    recovery: tuple[float, ...]  # per stage 1..depth-1
    accuracy: tuple[float, ...]  # per level 1..depth of generated samples
    grammar_seed: int
    collisions_resampled: int
    # Whether the exact collision check ran: False above
    # DEFAULT_ENUMERATION_CAP derivations, until that guard is lifted.
    collision_checked: bool


@dataclass
class SweepSummary:
    m: int
    p_star_cluster: int | None
    p_star_accuracy: int | None


@dataclass
class SweepResult:
    config: SweepConfig
    records: list[TrialRecord]
    summaries: list[SweepSummary]
    slope_cluster: float | None
    slope_cluster_stderr: float | None
    slope_accuracy: float | None
    slope_accuracy_stderr: float | None


def fit_loglog_slope(xs, ys) -> tuple[float, float | None]:
    """Least-squares slope of log(y) on log(x), with its standard error, from
    at least two positive points whose ``xs`` are not all equal."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if not ((xs > 0).all() and (ys > 0).all()):
        raise ValueError("a log-log slope needs positive xs and ys")
    if xs.min() == xs.max():
        raise ValueError("a slope needs xs that are not all equal")
    xs, ys = np.log(xs), np.log(ys)
    xc = xs - xs.mean()
    slope = float((xc * (ys - ys.mean())).sum() / (xc**2).sum())
    if xs.size == 2:
        return slope, None
    resid = ys - (ys.mean() + slope * xc)
    se = float(np.sqrt((resid**2).sum() / (xs.size - 2) / (xc**2).sum()))
    return slope, se


def _learning_step(rs: RuleSet, rows: np.ndarray, variant: str, seed: int, eval_seed: int,
                   n_eval: int) -> tuple[ClusterModel, tuple[float, ...]]:
    """Learn a grammar from ``rows`` of the true grammar ``rs`` (recovery
    scored against it), draw ``n_eval`` strings from the learned grammar
    with ``default_rng(eval_seed)``, and return the model with the strings'
    per-level accuracy under ``rs``."""
    p = rs.params
    model = learn_grammar(rows, p.depth, p.branching, p.vocab_size,
                          variant=variant, seed=seed, truth=rs)
    gen = generate_from_learned(model, n_eval, np.random.default_rng(eval_seed))
    return model, accuracy(rs, gen)


def _draw_sweep_grammar(
    cfg: SweepConfig, m: int, trial: int
) -> tuple[RuleSet, int, int, bool]:
    """Grammar for one (m, trial) cell, redrawing on exact context collisions
    (:func:`population_context_collision`, by transfer matrices).

    Returns the rules, their seed, the number of redraws and whether the
    collision check ran. The check keeps the ``DEFAULT_ENUMERATION_CAP``
    guard until it is lifted: above the cap it is skipped, and the first
    draw is kept unchecked.
    """
    attempt = 0
    while True:
        gseed = derive_seed(cfg.seed, trial, f"grammar m={m} attempt={attempt}")
        params = GrammarParams(
            depth=cfg.depth,
            branching=cfg.branching,
            vocab_size=cfg.vocab_size,
            n_synonyms=m,
            seed=gseed,
        )
        rs = generate_rules(params)
        try:
            collision = population_context_collision(rs, cfg.variant)
        except EnumerationCapError:
            return rs, gseed, attempt, False
        if not collision:
            return rs, gseed, attempt, True
        attempt += 1
        if attempt > 20:
            raise RuntimeError("could not draw a collision-free grammar")


def _sweep_cell(args: tuple) -> list[TrialRecord]:
    """Every grid point of one (m, trial) cell: one grammar, one learning curve."""
    cfg, m, trial = args
    rs, gseed, n_redraw, checked = _draw_sweep_grammar(cfg, m, trial)
    out = []
    for p in cfg.grid_for(m):
        rng = np.random.default_rng(
            derive_seed(cfg.seed, trial, f"data m={m} P={p}")
        )
        ds = sample_dataset(rs, p, rng, with_latents=False)
        model, acc = _learning_step(rs, ds.sequences, cfg.variant,
                                    derive_seed(cfg.seed, trial, f"learn m={m} P={p}"),
                                    derive_seed(cfg.seed, trial, f"eval m={m} P={p}"),
                                    cfg.n_eval)
        out.append(
            TrialRecord(
                m=m,
                n_samples=p,
                trial=trial,
                recovery=tuple(model.recovery),
                accuracy=acc,
                grammar_seed=gseed,
                collisions_resampled=n_redraw,
                collision_checked=checked,
            )
        )
    return out


def _stable_crossing(grid: list[int], records: list[TrialRecord], metric: str,
                     threshold: float) -> int | None:
    """Smallest grid point from which the median last entry of ``metric``
    stays at or above ``threshold`` (identical to the first crossing for
    monotone curves, and robust to the tiny-P replay bump where a
    near-singleton clustering just re-emits memorized rows)."""
    p_star = None
    for p in reversed(grid):
        values = [getattr(r, metric)[-1] for r in records if r.n_samples == p]
        if float(np.median(values)) < threshold:
            break
        p_star = p
    return p_star


def measure_sample_complexity(cfg: SweepConfig, n_workers: int = 1) -> SweepResult:
    """Run the learner across the (m, P, trial) grid and locate, per m, the
    smallest grid P whose median last-stage recovery (resp. top-level
    generation accuracy) crosses its threshold; fits log-log slopes of both
    thresholds against m (censored cells and m = 1 excluded).

    Cells (one grammar per m x trial) are independent; with ``n_workers > 1``
    they run in a process pool, and results are re-ordered by cell before any
    aggregation so the worker count never changes the result.
    """
    cells = [(cfg, m, trial) for m in cfg.m_list for trial in range(cfg.trials)]
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            cell_records = list(pool.map(_sweep_cell, cells))
    else:
        cell_records = [_sweep_cell(c) for c in cells]
    records: list[TrialRecord] = [r for recs in cell_records for r in recs]
    summaries: list[SweepSummary] = []
    for m in cfg.m_list:
        grid = cfg.grid_for(m)
        of_m = [r for r in records if r.m == m]
        summaries.append(SweepSummary(
            m=m,
            p_star_cluster=_stable_crossing(grid, of_m, "recovery", cfg.cluster_threshold),
            p_star_accuracy=_stable_crossing(grid, of_m, "accuracy", cfg.accuracy_threshold),
        ))

    def slope_of(attr: str) -> tuple[float | None, float | None]:
        pts = [
            (s.m, getattr(s, attr))
            for s in summaries
            if s.m > 1 and getattr(s, attr) is not None
        ]
        if len(pts) < 2:
            return None, None
        return fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])

    slope_c, se_c = slope_of("p_star_cluster")
    slope_a, se_a = slope_of("p_star_accuracy")
    return SweepResult(
        config=cfg,
        records=records,
        summaries=summaries,
        slope_cluster=slope_c,
        slope_cluster_stderr=se_c,
        slope_accuracy=slope_a,
        slope_accuracy_stderr=se_a,
    )

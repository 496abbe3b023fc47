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

from .grammar import (
    EnumerationCapError,
    GrammarParams,
    RuleSet,
    accuracy,
    decode_codes,
    encode_tuples,
    enumerate_all,
    generate_rules,
    parse_batch,
    sample_dataset,
)
from .kmeans import kmeans_fit
from .seeding import derive_seed
from .stats import theory_prediction

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
    with a sibling in range adds to its code's vector. Context tokens must
    lie in ``[0, vocab_size)``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    labels = np.asarray(labels)
    visible = np.asarray(visible)
    n, width = labels.shape
    s = branching
    if width % s != 0 or width < 2 * s:
        raise ValueError("label sequences must hold at least two full blocks")
    if visible.shape[0] != n or visible.shape[1] % width != 0:
        raise ValueError("visible strings do not align with the label grid")
    span = visible.shape[1] // width
    n_blocks = width // s
    block_codes = encode_tuples(labels.reshape(n, n_blocks, s), vocab_size)
    n_ctx = s if variant == "full_tuple" else 1
    code_space = vocab_size**s
    sums = np.zeros((code_space, n_ctx, vocab_size), dtype=np.int64)
    for b in range(n_blocks):
        c = b - 1 if b % s != 0 else b + 1
        if c >= n_blocks:
            continue
        keys = block_codes[:, b] * vocab_size
        start = c * s * span
        for t in range(n_ctx):
            ctx = visible[:, start + t]
            if n and (ctx.min() < 0 or ctx.max() >= vocab_size):
                raise ValueError(f"context tokens must lie in [0, {vocab_size})")
            sums[:, t, :] += np.bincount(
                keys + ctx, minlength=code_space * vocab_size
            ).reshape(code_space, vocab_size)
    # Each occurrence adds one count to every context token's block.
    counts_flat = sums[:, 0, :].sum(axis=1)
    observed = np.flatnonzero(counts_flat)
    vectors = (
        sums[observed].astype(np.float64) / counts_flat[observed, None, None]
    ).reshape(observed.size, n_ctx * vocab_size)
    return ContextStats(
        level=level,
        variant=variant,
        codes=observed.astype(np.int64),
        vectors=vectors,
        counts=counts_flat[observed],
        vocab_size=vocab_size,
        branching=branching,
    )


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
            labels=np.arange(n_codes, dtype=np.int64),
            partial=True,
            inertia=0.0,
        )
    fit = kmeans_fit(stats.vectors, k, seed=seed)
    return Partition(
        codes=stats.codes.copy(),
        labels=fit.labels.astype(np.int64),
        partial=False,
        inertia=fit.inertia,
        n_iter=fit.n_iter,
        restart=fit.restart,
        restarts_run=fit.restarts_run,
    )


def pair_agreement_score(labels: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of item pairs joined/separated consistently with ``reference``
    (1.0 iff the partitions coincide up to relabeling)."""
    labels = np.asarray(labels)
    reference = np.asarray(reference)
    if labels.shape != reference.shape:
        raise ValueError("partitions must label the same items")
    n = labels.size
    if n < 2:
        return 1.0
    same_a = labels[:, None] == labels[None, :]
    same_b = reference[:, None] == reference[None, :]
    agree = int((same_a == same_b).sum()) - n
    return agree / (n * (n - 1))


def true_tuple_classes(rs: RuleSet, level: int, codes: np.ndarray) -> np.ndarray:
    """Ground-truth synonym class (parent symbol) of each grammatical tuple code."""
    inverse = rs.inverse_at(level)
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= inverse.size):
        raise ValueError(f"tuple codes must lie in [0, {inverse.size})")
    entries = inverse[codes]
    if np.any(entries < 0):
        raise ValueError("ungrammatical tuple has no synonym class")
    return entries // rs.params.n_synonyms


@dataclass
class ClusterModel:
    """The reconstructed grammar: per-stage partitions (``levels[i]`` is stage
    i+1) plus the observed top-level tuple inventory."""

    branching: int
    vocab_size: int
    levels: list[Partition]
    top_tuples: np.ndarray
    recovery: list[float] | None = None


def _majority_true_classes(
    block_idx: np.ndarray,
    n_observed: int,
    true_parents: np.ndarray,
    vocab_size: int,
) -> np.ndarray:
    """Per observed code, the most frequent true parent symbol over its data
    occurrences (ties to the smallest symbol); ``block_idx`` holds each
    block's position in the observed-code list."""
    counts = np.bincount(
        block_idx.ravel() * vocab_size + true_parents.ravel(),
        minlength=n_observed * vocab_size,
    ).reshape(n_observed, vocab_size)
    return counts.argmax(axis=1)


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

    When ``truth`` is given, rows must parse fully under it and a per-stage
    recovery score is recorded: each observed code's ground-truth class is the
    majority true parent over its occurrences, compared by pair agreement.
    ``partition_fn(stage, observed_codes) -> labels`` overrides the clustering
    at every stage (used to inject oracle or adversarial partitions); its
    labels must lie in ``[0, vocab_size)`` below the top stage and be
    non-negative at the top stage.
    """
    seqs = np.asarray(seqs)
    if seqs.ndim != 2 or seqs.shape[1] != branching**depth:
        raise ValueError(f"strings must have shape (n, {branching ** depth})")
    if seqs.shape[0] == 0:
        raise ValueError("cannot learn a grammar from an empty input (0 rows)")
    true_latents = None
    recovery: list[float] | None = None
    if truth is not None:
        max_levels, true_latents, _ = parse_batch(truth, seqs)
        if not np.all(max_levels == depth):
            raise ValueError("training rows must parse under the reference grammar")
        recovery = []
    labels = seqs.astype(np.int64)
    levels: list[Partition] = []
    for stage in range(1, depth):
        # Every block of a power-of-s width has a sibling, so the context
        # statistics see every observed code, in ascending order.
        stats = build_context_stats(
            labels, seqs, vocab_size, branching, variant, level=stage
        )
        observed = stats.codes
        n, width = labels.shape
        block_codes = encode_tuples(
            labels.reshape(n, width // branching, branching), vocab_size
        )
        # Codes live in the bounded space vocab_size**branching, so a dense
        # table replaces sorting: index_of inverts the observed codes.
        index_of = np.zeros(vocab_size**branching, dtype=np.int64)
        index_of[observed] = np.arange(observed.size)
        block_idx = index_of[block_codes]
        if partition_fn is not None:
            part_labels = np.asarray(partition_fn(stage, observed), dtype=np.int64)
            if part_labels.shape != observed.shape:
                raise ValueError("partition_fn must label every observed code")
            # The next stage encodes these labels in base vocab_size; only
            # the top stage's labels may reach past it.
            top = stage == depth - 1
            if part_labels.min() < 0 or (not top and part_labels.max() >= vocab_size):
                bound = "non-negative" if top else f"in [0, {vocab_size})"
                raise ValueError(f"partition_fn labels at stage {stage} must be {bound}")
            part = Partition(
                codes=observed, labels=part_labels, partial=False, inertia=math.nan
            )
        else:
            part = cluster_tuples(stats, seed=derive_seed(seed, stage, "kmeans"))
        if recovery is not None:
            classes = _majority_true_classes(
                block_idx, observed.size, true_latents[stage - 1], vocab_size
            )
            recovery.append(pair_agreement_score(part.labels, classes))
        levels.append(part)
        labels = part.labels[block_idx]
    # Distinct top-level rows in lexicographic order, via their big-endian
    # codes in a base wide enough for every label (partition_fn may exceed v).
    base = max(int(labels.max()) + 1, vocab_size)
    top_codes = np.flatnonzero(np.bincount(encode_tuples(labels, base)))
    top_tuples = decode_codes(top_codes, base, labels.shape[1])
    return ClusterModel(
        branching=branching,
        vocab_size=vocab_size,
        levels=levels,
        top_tuples=top_tuples.astype(np.int32),
        recovery=recovery,
    )


def generate_from_learned(
    model: ClusterModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Ancestral sampling from the reconstructed grammar: a uniform observed
    top tuple, then uniform member-tuple expansion of every label.

    A label's members are its codes in ascending order. Each level draws one
    member index per position, label by label in ascending order and, within
    a label, in row-major position order.
    """
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

    Exact check via full enumeration (vectors within 1e-12 in every entry
    count as shared); raises :class:`EnumerationCapError` when the instance is
    too large to enumerate.
    """
    ds = enumerate_all(rs)
    for stage in range(1, rs.params.depth):
        stats = build_context_stats(
            ds.level_symbols(stage - 1),
            ds.sequences,
            rs.params.vocab_size,
            rs.params.branching,
            variant,
            level=stage,
        )
        classes = true_tuple_classes(rs, stage, stats.codes)
        vecs = stats.vectors
        gap = np.abs(vecs[:, None, :] - vecs[None, :, :]).max(axis=2)
        distinct_class = classes[:, None] != classes[None, :]
        if np.any(distinct_class & (gap <= 1e-12)):
            return True
    return False


@dataclass
class SweepConfig:
    """Grid definition for sample-complexity measurements."""

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
        # Check the grammar shape once, before any cell or worker starts.
        GrammarParams(depth=self.depth, branching=self.branching,
                      vocab_size=self.vocab_size, n_synonyms=1)

    def grid_for(self, m: int) -> list[int]:
        if self.p_grid is not None and m in self.p_grid:
            grid = sorted(set(int(p) for p in self.p_grid[m]))
            if not grid:
                raise ValueError(f"empty sample-size grid for m={m}")
            return grid
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
    collision_checked: bool  # False: derivations exceed DEFAULT_ENUMERATION_CAP


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
    """Least-squares slope of log(y) on log(x), with its standard error."""
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    if xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    xc = xs - xs.mean()
    slope = float((xc * (ys - ys.mean())).sum() / (xc**2).sum())
    if xs.size == 2:
        return slope, None
    resid = ys - (ys.mean() + slope * xc)
    se = float(np.sqrt((resid**2).sum() / (xs.size - 2) / (xc**2).sum()))
    return slope, se


def _draw_sweep_grammar(
    cfg: SweepConfig, m: int, trial: int
) -> tuple[RuleSet, int, int, bool]:
    """Grammar for one (m, trial) cell, redrawing on exact context collisions
    whenever the instance is small enough to check.

    Returns the rules, their seed, the number of redraws and whether the
    collision check ran (False when the derivations exceed
    ``DEFAULT_ENUMERATION_CAP``, so the first draw is kept unchecked).
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
        model = learn_grammar(
            ds.sequences,
            cfg.depth,
            cfg.branching,
            cfg.vocab_size,
            variant=cfg.variant,
            seed=derive_seed(cfg.seed, trial, f"learn m={m} P={p}"),
            truth=rs,
        )
        gen = generate_from_learned(
            model,
            cfg.n_eval,
            np.random.default_rng(derive_seed(cfg.seed, trial, f"eval m={m} P={p}")),
        )
        out.append(
            TrialRecord(
                m=m,
                n_samples=p,
                trial=trial,
                recovery=tuple(model.recovery),
                accuracy=accuracy(rs, gen),
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

"""Independent brute-force oracles for the exact-inference, statistics,
k-means, row-kernel and file-format tests.

Nothing here goes through the message-passing, correlation-report or k-means
code paths: conditionals come from literal weighted enumeration over all
derivations, pair joints from transfer-matrix products along the tree,
k-means from a literal per-cluster Lloyd loop that runs every restart, token
pair counts from one bincount per position pair, and dataset text
files from ``np.savetxt``, a per-token Python parse and the earlier
``np.loadtxt`` reader. The row kernels
(parse, expansion, context counts, generation from a learned model) are
checked against per-row Python loops that never call ``encode_tuples``,
``decode_codes``, ``parse_batch`` or the expansion code. The distinct-row
sampler is checked against its earlier form, which keeps each batch's fresh
rows as a Dataset of their own. The tests look tuple codes up in
``production_index``, built from ``rules_at`` one production at a time, not
in the parse tables they check. Exact inference is checked twice: against the
enumeration above to a tolerance, and bit for bit against its earlier form,
which gathers child messages by fancy indexing and rebuilds its scatter bins
on every call. The exact population token-tuple correlation is checked
against its earlier form, the pair counts of the enumeration, and bit for bit
against the per-grammar transfer-matrix loop that the stacked core replaced;
the criteria 3-4 ensembles are checked bit for bit against their earlier
per-draw loops over that function, with one ``RuleSet`` per draw and one per
dropped bottom level. The learner's
stage loop is checked bit for bit against its earlier form, which copies the
input to int64, encodes each stage's blocks twice and looks every code up in
the observed-code list through a dense position table. The one-step model is
checked bit for bit against its earlier form, which scatters the gradient
rows with ``np.add.at``. The pair agreement score is checked against a
loop over every ordered pair of items. The context-collision check is
checked against its earlier form, which enumerates every derivation and
counts their contexts with ``build_context_stats``. The row-blocked kernels (sampling,
parsing, the distinct filter, the learner's truth counts and the one-step
gradient) are checked byte for byte against their earlier whole-array forms,
which hold every temporary at full size, filter duplicates through a set of
row bytes, parse the learner's truth once for the whole call and sum the
gradient with one flat bincount.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np

from rhmlab import (
    ClusterModel,
    Dataset,
    GrammarParams,
    ImpossibleEvidenceError,
    OneStepModel,
    Partition,
    RuleSet,
    build_context_stats,
    cluster_tuples,
    derive_seed,
    encode_tuples,
    enumerate_all,
    generate_rules,
    pair_agreement_score,
    parse_batch,
    recursion_prefactor,
    sample_dataset,
    true_tuple_classes,
)
from rhmlab.grammar import decode_codes
from rhmlab.onestep import OneStepGradient
from rhmlab.seeding import derive_seed
from rhmlab.stats import RecursionCheck, TokenTupleCorrelation


def enumeration_conditionals(rs: RuleSet, lik: np.ndarray):
    """Exact conditionals of every node given leaf likelihoods, by summing the
    likelihood-weighted enumeration. Returns (marginals per level, log Z)."""
    enum = enumerate_all(rs)
    p = rs.params
    w = np.full(enum.n_rows, 1.0 / p.n_derivations)
    for i in range(p.seq_len):
        w = w * lik[i, enum.sequences[:, i]]
    z = w.sum()
    if z <= 0:
        raise ValueError("evidence admits no derivation")
    marginals = []
    for lvl in range(p.depth + 1):
        syms = enum.level_symbols(lvl)
        marg = np.zeros((syms.shape[1], p.vocab_size))
        for pos in range(syms.shape[1]):
            for mu in range(p.vocab_size):
                marg[pos, mu] = w[syms[:, pos] == mu].sum()
        marginals.append(marg / z)
    return marginals, float(np.log(z))


def _child_given_parent(rs: RuleSet, level: int, position: int) -> np.ndarray:
    """T[parent, child] = P(child at slot ``position`` | parent), from the rule
    table alone."""
    p = rs.params
    table = rs.rules_at(level)
    t = np.zeros((p.vocab_size, p.vocab_size))
    for parent in range(p.vocab_size):
        for k in range(p.n_synonyms):
            t[parent, table[parent, k, position]] += 1.0 / p.n_synonyms
    return t


def pair_joint_dp(rs: RuleSet, i: int, j: int) -> np.ndarray:
    """Exact joint P(x_i, x_j) by transfer matrices: push the uniform root down
    to the lowest common ancestor, expand its single (shared) production choice
    jointly onto the two diverging slots, then push each branch independently
    down to its leaf."""
    p = rs.params
    v, s, m = p.vocab_size, p.branching, p.n_synonyms
    a, b, lca = i, j, 0
    while a != b:
        a //= s
        b //= s
        lca += 1
    # distribution of the LCA node value: uniform at the root, pushed down
    node = i // s**lca
    dist = np.full(v, 1.0 / v)
    path = []
    n = node
    for _ in range(lca, p.depth):
        path.append(n % s)
        n //= s
    for lvl, slot in zip(range(p.depth, lca, -1), reversed(path)):
        dist = dist @ _child_given_parent(rs, lvl, slot)

    # the two leaves share the LCA's production choice: expand jointly
    slot_i = (i // s ** (lca - 1)) % s
    slot_j = (j // s ** (lca - 1)) % s
    table = rs.rules_at(lca)
    pair = np.zeros((v, v, v))  # [g, child_i, child_j]
    for g in range(v):
        for k in range(m):
            pair[g, table[g, k, slot_i], table[g, k, slot_j]] += 1.0 / m

    def down_from(leaf: int, top_level: int) -> np.ndarray:
        out = np.eye(v)
        for lvl in range(top_level, 0, -1):
            slot = (leaf // s ** (lvl - 1)) % s
            out = out @ _child_given_parent(rs, lvl, slot)
        return out

    mi = down_from(i, lca - 1)
    mj = down_from(j, lca - 1)
    return np.einsum("g,gcd,ca,db->ab", dist, pair, mi, mj)


def lloyd_kmeans_oracle(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 16,
    max_iter: int = 200,
    rel_tol: float = 1e-8,
) -> dict:
    """Best-of-restarts k-means with the same seeding, init, tie and re-seat
    rules as ``rhmlab.kmeans_fit``, written as plain per-cluster loops. Every
    restart runs, repeated first points included. Returns the winning fit's
    labels, centers, inertia, n_iter and restart, plus the number of
    empty-cluster re-seats over all restarts and the served distance each
    re-seated point had before it moved."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]

    def sq_dists(centers):
        diff = points[:, None, :] - centers[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)

    firsts = np.random.default_rng(seed).integers(0, n, size=n_restarts)
    best = None
    reseats = 0
    served = []
    for r in range(n_restarts):
        idx = [int(firsts[r])]
        d2 = ((points - points[idx[0]]) ** 2).sum(axis=1)
        for _ in range(k - 1):
            idx.append(int(np.argmax(d2)))
            d2 = np.minimum(d2, ((points - points[idx[-1]]) ** 2).sum(axis=1))
        centers = points[idx].copy()
        prev = np.inf
        it = 0
        for it in range(1, max_iter + 1):
            d2 = sq_dists(centers)
            labels = d2.argmin(axis=1)
            own = d2[np.arange(n), labels]
            for c in range(k):
                if not np.any(labels == c):
                    sizes = np.bincount(labels, minlength=k)
                    order = np.argsort(-own, kind="stable")
                    pick = next(int(i) for i in order if sizes[labels[i]] > 1)
                    labels[pick] = c
                    served.append(float(own[pick]))
                    own[pick] = 0.0
                    reseats += 1
            inertia = float(own.sum())
            for c in range(k):
                members = np.flatnonzero(labels == c)
                if members.size:
                    total = np.zeros(points.shape[1])
                    for i in members:  # row by row, in point order
                        total += points[i]
                    centers[c] = total / members.size
            if prev - inertia <= rel_tol * max(inertia, 1e-300):
                break
            prev = inertia
        d2 = sq_dists(centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if best is None or inertia < best["inertia"]:
            best = {"labels": labels, "centers": centers, "inertia": inertia,
                    "n_iter": it, "restart": r}
    best["reseats"] = reseats
    best["reseat_served"] = served
    return best


def token_pair_counts_oracle(
    seqs: np.ndarray, branching: int, depth: int, vocab_size: int
) -> np.ndarray:
    """Joint counts of every position pair i < j, in the pair order of
    ``TokenCovarianceAccumulator``: one bincount of ``a * v + b`` per pair,
    over two contiguous rows of the transposed tokens in the narrowest
    unsigned type holding ``v * v - 1``."""
    v = vocab_size
    d = branching**depth
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    counts = np.zeros((len(pairs), v, v), dtype=np.int64)
    code_type = next(
        (t for t in (np.uint8, np.uint16, np.uint32) if v * v - 1 <= np.iinfo(t).max),
        np.intp,
    )
    cols = np.ascontiguousarray(np.asarray(seqs).T, dtype=code_type)
    high = cols * code_type(v)
    for idx, (i, j) in enumerate(pairs):
        counts[idx] = np.bincount(high[i] + cols[j], minlength=v * v).reshape(v, v)
    return counts


def save_dataset_text_oracle(
    seqs: np.ndarray, vocab_size: int, grammar_hash: str, path
) -> None:
    """A dataset text file written with ``np.savetxt(fmt="%d")``."""
    with open(path, "w") as fh:
        fh.write(f"{seqs.shape[1]} {vocab_size} {seqs.shape[0]} {grammar_hash}\n")
        np.savetxt(fh, seqs, fmt="%d")


def load_dataset_text_oracle(path) -> tuple[np.ndarray, dict]:
    """A dataset text file parsed one token at a time in Python."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    d, vocab, n, grammar_hash = lines[0].split()
    seqs = np.array(
        [[int(t) for t in line.split()] for line in lines[1 : int(n) + 1]],
        dtype=np.int32,
    ).reshape(int(n), int(d))
    header = dict(
        seq_len=int(d), vocab_size=int(vocab), n_rows=int(n), grammar_hash=grammar_hash
    )
    return seqs, header


def load_dataset_loadtxt_oracle(path) -> tuple[np.ndarray, dict]:
    """A dataset text file read by its earlier reader: the header line split
    on whitespace, then ``np.loadtxt`` over exactly ``n_rows`` rows (its
    blank-line warning an error) and the token range check."""
    with open(path) as fh:
        fields = fh.readline().split()
        if len(fields) != 4:
            raise ValueError(f"dataset file {path}: the header needs 4 fields")
        try:
            d, vocab, n = (int(x) for x in fields[:3])
        except ValueError:
            raise ValueError(f"dataset file {path}: header sizes are not integers") from None
        if d < 1 or vocab < 1 or n < 0:
            raise ValueError(f"dataset file {path}: header sizes out of range")
        if n == 0:
            seqs = np.zeros((0, d), dtype=np.int32)
        else:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    seqs = np.loadtxt(
                        fh, dtype=np.int32, comments=None, ndmin=2, max_rows=n
                    )
            except (ValueError, UserWarning) as exc:
                raise ValueError(f"dataset file {path}: {exc}") from None
    if seqs.shape != (n, d):
        raise ValueError(f"dataset file {path}: the body is not {n} rows of {d}")
    if seqs.size and (seqs.min() < 0 or seqs.max() > vocab):
        raise ValueError(f"dataset file {path}: tokens outside [0, {vocab}]")
    header = dict(seq_len=d, vocab_size=vocab, n_rows=n, grammar_hash=fields[3])
    return seqs, header


def joint_correlation_oracle(a, b, n_a: int, n_b: int) -> np.ndarray:
    """``joint_correlation`` as first written, one bincount over all pairs,
    with the entries cast to int64 so no key wraps; valid input only."""
    a = np.asarray(a).ravel().astype(np.int64)
    b = np.asarray(b).ravel().astype(np.int64)
    n = a.size
    joint = np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b)
    return (n * joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))) / float(n) ** 2


def one_step_gd_oracle(tuple_codes, next_tokens, vocab_size: int, eta: float) -> OneStepModel:
    """One gradient step as first written: the whole gradient per call, its
    rows scattered into the tuple columns with ``np.add.at``."""
    tuple_codes = np.asarray(tuple_codes).ravel()
    next_tokens = np.asarray(next_tokens).ravel()
    n = tuple_codes.size
    label_counts = np.bincount(next_tokens, minlength=vocab_size)
    observed = np.unique(tuple_codes)
    col = np.searchsorted(observed, tuple_codes)
    w0_col = np.log(label_counts / n)
    w0 = np.tile(w0_col[:, None], (1, observed.size))
    logits = w0[:, col].T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    resid = -probs
    resid[np.arange(n), next_tokens] += 1.0
    grad_t = np.zeros((observed.size, vocab_size))
    np.add.at(grad_t, col, resid)
    delta = eta * grad_t.T / n
    corr = joint_correlation_oracle(next_tokens, col, vocab_size, observed.size)
    return OneStepModel(
        tuple_codes=observed,
        init_log_marginal=w0_col,
        weights=w0 + delta,
        delta=delta,
        empirical_corr=corr,
        eta=float(eta),
    )


def _rule_dicts(rs: RuleSet) -> list[dict]:
    """Per level, ``{production tuple: (parent, rule index)}`` from ``rules_at``."""
    p = rs.params
    out = []
    for lvl in range(1, p.depth + 1):
        table = rs.rules_at(lvl)
        out.append({
            tuple(int(x) for x in table[a, k]): (a, k)
            for a in range(p.vocab_size) for k in range(p.n_synonyms)
        })
    return out


def parse_rows_oracle(rs: RuleSet, seqs: np.ndarray):
    """``parse_batch`` by a per-row, per-tuple dict lookup: the same
    ``(max_levels, latents, choices)``. Latents are in the smallest unsigned
    dtype holding ``vocab_size``, which marks an unparseable position;
    choices are int32, -1 there."""
    p = rs.params
    v, s = p.vocab_size, p.branching
    rules = _rule_dicts(rs)
    seqs = np.asarray(seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
    n = seqs.shape[0]
    max_levels = np.zeros(n, dtype=np.int64)
    latents = [np.full((n, p.level_width(l)), v, dtype=np.min_scalar_type(v))
               for l in range(1, p.depth + 1)]
    choices = [np.full(a.shape, -1, dtype=np.int32) for a in latents]
    for r in range(n):
        cur = [int(x) for x in seqs[r]]
        ok = True
        for lvl in range(1, p.depth + 1):
            parents = []
            for j in range(0, len(cur), s):
                parent, k = rules[lvl - 1].get(tuple(cur[j:j + s]), (v, -1))
                latents[lvl - 1][r, j // s] = parent
                choices[lvl - 1][r, j // s] = k
                parents.append(parent)
            ok = ok and max(parents) < v
            if ok:
                max_levels[r] = lvl
            cur = parents
    return max_levels, latents, choices


def sample_draws_oracle(p: GrammarParams, n: int, rng: np.random.Generator):
    """The draws behind ``sample_dataset(rs, n, rng)``, in its documented
    order: the ``(n,)`` int32 roots, then one ``(n, width)`` int32 array of
    rule indices per level 1..depth. Returns ``(root, choices)``."""
    root = rng.integers(0, p.vocab_size, size=n, dtype=np.int32)
    choices = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)), dtype=np.int32)
        for lvl in range(1, p.depth + 1)
    ]
    return root, choices


def expand_rows_oracle(rs: RuleSet, top: np.ndarray, choices: list) -> list:
    """Per-row descent from the ``(n, w)`` symbols at level ``len(choices)``
    through the given per-level rule indices; returns the int32 levels
    ``[leaves, .., top]``."""
    s = rs.params.branching
    top = np.asarray(top)
    n = top.shape[0]
    levels = [top.astype(np.int32)]
    for lvl in range(len(choices), 0, -1):
        table = rs.rules_at(lvl)
        parents = levels[0]
        children = np.empty((n, parents.shape[1] * s), dtype=np.int32)
        for r in range(n):
            row = []
            for j in range(parents.shape[1]):
                row.extend(int(x) for x in
                           table[parents[r, j], choices[lvl - 1][r, j]])
            children[r] = row
        levels.insert(0, children)
    return levels


def context_counts_oracle(labels, visible, vocab_size, branching, variant):
    """Occurrences of each block code and of each (code, context slot, token)
    triple, counted one block at a time with ``collections.Counter``; codes
    are big-endian base ``vocab_size``, formed in Python."""
    labels = np.asarray(labels)
    visible = np.asarray(visible)
    s = branching
    n, width = labels.shape
    span = visible.shape[1] // width
    n_blocks = width // s
    n_ctx = s if variant == "full_tuple" else 1
    codes, triples = Counter(), Counter()
    for r in range(n):
        for b in range(n_blocks):
            c = b - 1 if b % s != 0 else b + 1
            if c >= n_blocks:
                continue
            code = 0
            for x in labels[r, b * s:(b + 1) * s]:
                code = code * vocab_size + int(x)
            codes[code] += 1
            for t in range(n_ctx):
                triples[(code, t, int(visible[r, c * s * span + t]))] += 1
    return codes, triples


def generate_from_learned_oracle(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling from a learned model with one masked draw per label,
    labels in ascending order. A label's member tuples are its codes in
    ascending order, each split into base-``vocab_size`` digits in Python."""
    if model.top_tuples.size == 0:
        raise ValueError("model has no top-level tuples")
    cur = model.top_tuples[rng.integers(0, model.top_tuples.shape[0], size=n)]
    cur = cur.astype(np.int64)
    s, v = model.branching, model.vocab_size
    for stage in range(len(model.levels), 0, -1):
        part = model.levels[stage - 1]
        width = cur.shape[1]
        out = np.empty((n, width, s), dtype=np.int64)
        for lab in np.unique(cur):
            members = []
            for code, label in sorted(zip(part.codes.tolist(), part.labels.tolist())):
                if label != lab:
                    continue
                digits = []
                for _ in range(s):
                    code, digit = divmod(code, v)
                    digits.append(digit)
                members.append(digits[::-1])
            if not members:
                raise ValueError(f"label {lab} has no productions at stage {stage}")
            mask = cur == lab
            picks = rng.integers(0, len(members), size=int(mask.sum()))
            out[mask] = np.array(members, dtype=np.int64)[picks]
        cur = out.reshape(n, width * s)
    return cur.astype(np.int32)


def learn_grammar_oracle(seqs, depth, branching, vocab_size, variant="single_token",
                         seed=0, truth=None, partition_fn=None) -> ClusterModel:
    """Staged context clustering on an int64 copy of ``seqs``, for valid
    input. Each stage's statistics encode the labels, the loop encodes them
    again, and ``index_of`` maps every code to its position in the
    observed-code list; recovery counts (position, true parent) pairs. The
    top tuples are the distinct rows of the last stage's labels."""
    true_latents = parse_batch(truth, seqs)[1] if truth is not None else None
    recovery = [] if truth is not None else None
    labels = seqs.astype(np.int64)
    levels = []
    for stage in range(1, depth):
        stats = build_context_stats(labels, seqs, vocab_size, branching, variant,
                                    level=stage)
        observed = stats.codes
        n, width = labels.shape
        block_codes = encode_tuples(
            labels.reshape(n, width // branching, branching), vocab_size
        )
        index_of = np.zeros(vocab_size**branching, dtype=np.int64)
        index_of[observed] = np.arange(observed.size)
        block_idx = index_of[block_codes]
        if partition_fn is not None:
            part_labels = np.asarray(partition_fn(stage, observed), dtype=np.int64)
            part = Partition(codes=observed, labels=part_labels, partial=False,
                             inertia=math.nan)
        else:
            part = cluster_tuples(stats, seed=derive_seed(seed, stage, "kmeans"))
        if recovery is not None:
            counts = np.bincount(
                block_idx.ravel() * vocab_size + true_latents[stage - 1].ravel(),
                minlength=observed.size * vocab_size,
            ).reshape(observed.size, vocab_size)
            recovery.append(pair_agreement_score(part.labels, counts.argmax(axis=1)))
        levels.append(part)
        labels = part.labels[block_idx]
    top_tuples = np.unique(labels, axis=0).astype(np.int32)
    return ClusterModel(branching=branching, vocab_size=vocab_size, levels=levels,
                        top_tuples=top_tuples, recovery=recovery)


def sample_distinct_dataset_oracle(
    rs: RuleSet, n: int, rng: np.random.Generator, with_latents: bool = True
) -> Dataset:
    """Rejection sampling of ``n`` distinct strings that keeps each batch's
    fresh rows as a Dataset of their own and concatenates them at the end."""
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
    meta = {"grammar_hash": rs.content_hash(), "distinct": True}
    if not with_latents:
        return Dataset(sequences=seqs, params=p, meta=meta)
    return Dataset(sequences=seqs, params=p, latents=latents, meta=meta)


def _bp_check_evidence_oracle(rs: RuleSet, lik: np.ndarray) -> np.ndarray:
    p = rs.params
    lik = np.asarray(lik, dtype=np.float64)
    if lik.shape != (p.seq_len, p.vocab_size):
        raise ValueError(f"evidence must have shape {(p.seq_len, p.vocab_size)}")
    if np.any(lik < 0):
        raise ValueError("likelihoods must be nonnegative")
    return lik


def _bp_upward_pass_oracle(rs: RuleSet, lik: np.ndarray):
    """Upward messages, gathered child messages (node axis innermost in
    memory, as fancy indexing leaves it), their products and the log
    normalizer."""
    p = rs.params
    norms = lik.sum(axis=1)
    if np.any(norms <= 0):
        raise ImpossibleEvidenceError("a leaf has an all-zero likelihood")
    log_z = float(np.log(norms).sum())
    upward = [lik / norms[:, None]]
    gathered, prods = [], []
    s, m = p.branching, p.n_synonyms
    for lvl in range(1, p.depth + 1):
        width = p.level_width(lvl)
        child = upward[-1].reshape(width, s, p.vocab_size)
        g = child[:, np.arange(s)[None, None, :], rs.rules_at(lvl)]
        prod = g.prod(axis=3)
        up = prod.sum(axis=2) / m
        z = up.sum(axis=1)
        if np.any(z <= 0):
            raise ImpossibleEvidenceError(
                f"evidence admits no grammatical completion at level {lvl}"
            )
        log_z += float(np.log(z).sum())
        upward.append(up / z[:, None])
        gathered.append(g)
        prods.append(prod)
    return upward, gathered, prods, log_z


def bp_marginals_oracle(rs: RuleSet, evidence: np.ndarray):
    """Per-level marginals and log evidence by sum-product, the downward
    products from concatenated cumprods and the scatter bins rebuilt here.
    Returns ``(marginals, log_evidence)``."""
    p = rs.params
    lik = _bp_check_evidence_oracle(rs, evidence)
    upward, gathered, _, log_z = _bp_upward_pass_oracle(rs, lik)
    v, m, s = p.vocab_size, p.n_synonyms, p.branching
    log_z += float(np.log(upward[p.depth][0].sum() / v))
    downward = [np.full((1, v), 1.0 / v)]
    for lvl in range(p.depth, 0, -1):
        g = gathered[lvl - 1]
        ones = np.ones(g.shape[:3] + (1,))
        before = np.cumprod(np.concatenate([ones, g[..., :-1]], axis=3), axis=3)
        after = np.cumprod(np.concatenate([ones, g[..., :0:-1]], axis=3), axis=3)
        contrib = downward[-1][:, :, None, None] * (before * after[..., ::-1]) / m
        width = g.shape[0]
        child = np.arange(width)[:, None, None, None] * s + np.arange(s)
        bins = (child * v + rs.rules_at(lvl)).ravel()
        msg = np.bincount(bins, contrib.ravel(), minlength=width * s * v)
        msg = msg.reshape(-1, v)
        z = msg.sum(axis=1)
        if np.any(z <= 0):
            raise ImpossibleEvidenceError("zero downward message")
        downward.append(msg / z[:, None])
    downward.reverse()
    marginals = []
    for lvl in range(p.depth + 1):
        post = upward[lvl] * downward[lvl]
        z = post.sum(axis=1)
        if np.any(z <= 0):
            raise ImpossibleEvidenceError("zero posterior mass")
        marginals.append(post / z[:, None])
    return marginals, log_z


def _categorical_rows_oracle(prob_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(prob_rows, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((prob_rows.shape[0], 1))
    return (u > cdf).sum(axis=1).astype(np.int32)


def bp_posterior_sample_batch_oracle(
    rs: RuleSet, evidence: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` posterior draws by top-down sampling from a tiled root row and
    weights fetched by broadcast fancy indexing."""
    p = rs.params
    lik = _bp_check_evidence_oracle(rs, evidence)
    upward, _, prods, _ = _bp_upward_pass_oracle(rs, lik)
    root_post = upward[p.depth][0] / upward[p.depth][0].sum()
    symbols = _categorical_rows_oracle(np.tile(root_post, (n, 1)), rng).reshape(n, 1)
    for lvl in range(p.depth, 0, -1):
        width = p.level_width(lvl)
        node_idx = np.broadcast_to(np.arange(width)[None, :], symbols.shape)
        weights = prods[lvl - 1][node_idx, symbols]
        flat = weights.reshape(-1, p.n_synonyms)
        bad = flat.sum(axis=1) <= 0
        if np.any(bad):
            raise ImpossibleEvidenceError("conditioned node has no valid production")
        ks = _categorical_rows_oracle(flat, rng).reshape(symbols.shape)
        symbols = rs.rules_at(lvl)[symbols, ks].reshape(n, width * p.branching)
    return symbols


def token_tuple_correlation_oracle(ds: Dataset, level: int) -> TokenTupleCorrelation:
    """Empirical token-tuple correlation with every symbol cast to int64:
    the observed tuple codes by ``np.unique``, each row's column by
    ``np.searchsorted``, then :func:`joint_correlation_oracle`; valid input
    only."""
    p = ds.params
    v, s = p.vocab_size, p.branching
    block = ds.level_symbols(level - 2)[:, s : 2 * s].astype(np.int64)
    codes = block[:, 0]
    for i in range(1, s):
        codes = codes * v + block[:, i]
    observed = np.unique(codes)
    col = np.searchsorted(observed, codes)
    matrix = joint_correlation_oracle(ds.sequences[:, 0].astype(np.int64), col, v,
                                      observed.size)
    return TokenTupleCorrelation(level=level, codes=observed, matrix=matrix)


def population_token_tuple_correlation_oracle(rs: RuleSet, level: int) -> TokenTupleCorrelation:
    """Exact population token-tuple correlation of a grammar instance.

    Columns span all vocab_size**branching tuple codes; columns of
    ungrammatical tuples are exactly zero. Requires the instance to be
    enumerable (see :func:`enumerate_all`).
    """
    p = rs.params
    s = p.branching
    ds = enumerate_all(rs)
    block = ds.level_symbols(level - 2)[:, s : 2 * s]
    codes = encode_tuples(block, p.vocab_size)
    n_cols = p.vocab_size**p.branching
    matrix = joint_correlation_oracle(ds.sequences[:, 0], codes, p.vocab_size, n_cols)
    return TokenTupleCorrelation(
        level=level, codes=np.arange(n_cols), matrix=matrix
    )


def production_index(rs: RuleSet, level: int) -> np.ndarray:
    """Dense lookup over the base-v tuple codes of level ``level``, built from
    ``rules_at`` one production at a time: ``parent * m + k`` at the
    big-endian code of ``rules_at(level)[parent, k]``, -1 at every code no
    rule produces."""
    p = rs.params
    v, m = p.vocab_size, p.n_synonyms
    index = np.full(v**p.branching, -1, dtype=np.int64)
    for parent, productions in enumerate(rs.rules_at(level).tolist()):
        for k, children in enumerate(productions):
            code = 0
            for child in children:
                code = code * v + child
            index[code] = parent * m + k
    return index


def transfer_matrix_correlation_loop(rs: RuleSet, level: int) -> np.ndarray:
    """The ``(v, v**s)`` population token-tuple correlation of one grammar by
    its transfer matrices, one 2-D product per level."""
    p = rs.params
    v, m = p.vocab_size, p.n_synonyms
    pi = np.full(v, 1.0 / v)
    for lvl in range(p.depth, level, -1):
        pi = np.bincount(rs.rules_at(lvl)[:, :, 0].ravel(),
                         weights=np.repeat(pi / m, m), minlength=v)
    top = rs.rules_at(level)
    joint = np.bincount((top[:, :, 0] * v + top[:, :, 1]).ravel(),
                        weights=np.repeat(pi / m, m), minlength=v * v).reshape(v, v)
    parents = np.repeat(np.arange(v), m)
    for lvl in range(level - 1, 0, -1):
        left = np.bincount(parents * v + rs.rules_at(lvl)[:, :, 0].ravel(),
                           minlength=v * v).reshape(v, v) / m
        joint = left.T @ joint
    inv = production_index(rs, level - 1)
    valid = inv >= 0
    matrix = np.zeros((v, inv.size))
    matrix[:, valid] = joint[:, inv[valid] // m] / m
    matrix -= np.outer(matrix.sum(axis=1), matrix.sum(axis=0))
    return matrix


def _ensemble_grammars(n_grammars, seed, tag, depth, branching, vocab_size, n_synonyms):
    for g in range(n_grammars):
        yield generate_rules(GrammarParams(depth, branching, vocab_size, n_synonyms,
                                           seed=derive_seed(seed, g, tag)))


def correlation_recursion_check_loop(vocab_size, branching, n_synonyms, level,
                                     n_grammars, seed) -> RecursionCheck:
    """Criterion 3's ensemble, one grammar and one dropped grammar at a time."""
    sq_high = sq_low = 0.0
    n_high = n_low = 0
    for rs in _ensemble_grammars(n_grammars, seed, "recursion-grammar", level + 1,
                                 branching, vocab_size, n_synonyms):
        p = rs.params
        dropped = RuleSet(replace(p, depth=p.depth - 1),
                          [rs.rules_at(lvl) for lvl in range(2, p.depth + 1)])
        hi = transfer_matrix_correlation_loop(rs, level + 1)
        lo = transfer_matrix_correlation_loop(dropped, level)
        sq_high += float((hi**2).sum())
        n_high += hi.size
        sq_low += float((lo**2).sum())
        n_low += lo.size
    return RecursionCheck(
        predicted_ratio=recursion_prefactor(vocab_size, branching, n_synonyms),
        empirical_ratio=(sq_high / n_high) / (sq_low / n_low),
        mean_sq_high=sq_high / n_high,
        mean_sq_low=sq_low / n_low,
        n_grammars=n_grammars,
        level=level,
    )


def ensemble_correlation_std_loop(vocab_size, branching, n_synonyms, level,
                                  n_grammars, seed) -> float:
    """Criterion 4's ensemble, one grammar at a time."""
    total = 0.0
    count = 0
    for rs in _ensemble_grammars(n_grammars, seed, "ensemble-grammar", level,
                                 branching, vocab_size, n_synonyms):
        mat = transfer_matrix_correlation_loop(rs, level)
        valid = production_index(rs, level - 1) >= 0
        total += float((mat[:, valid] ** 2).sum())
        count += int(valid.sum()) * mat.shape[0]
    return float(np.sqrt(total / count))


def population_context_collision_oracle(rs: RuleSet, variant: str = "single_token") -> bool:
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
        for vec, cls in zip(vecs, classes):  # one code against all others
            gap = np.abs(vecs - vec).max(axis=1)
            if np.any((classes != cls) & (gap <= 1e-12)):
                return True
    return False


# The row kernels as they were before they ran in row blocks: every array at
# full size, the distinct filter a set of row bytes, the learner's truth one
# full parse held for the whole call and the one-step gradient one flat
# bincount. The blocked kernels must match them byte for byte.


def _expand_levels_unblocked_oracle(rs: RuleSet, top: np.ndarray, choices: list) -> list:
    """Expand ``(n, width)`` int32 symbols at level ``len(choices)`` down to
    the leaves; ``choices[lvl - 1]`` holds the level-``lvl`` rule indices.
    Returns ``levels[0]`` = leaves .. ``levels[-1]`` = ``top``."""
    p = rs.params
    m, s = p.n_synonyms, p.branching
    n = top.shape[0]
    levels = [top]
    for lvl in range(len(choices), 0, -1):
        parents = levels[-1]
        # Each production is one opaque s-token item of a (v, m) table,
        # gathered at (parent, choice) with no index temporaries.
        table = rs.rules_at(lvl)
        productions = table.view(f"V{table.itemsize * s}").reshape(-1, m)
        children = productions[parents, choices[lvl - 1]].view(table.dtype)
        levels.append(children.reshape(n, parents.shape[1] * s))
    levels.reverse()
    return levels


def sample_dataset_unblocked_oracle(
    rs: RuleSet, n: int, rng: np.random.Generator, with_latents: bool = True
) -> Dataset:
    """Draw ``n`` i.i.d. derivations: uniform root, uniform rule choices.
    ``rng`` draws the ``(n,)`` roots, then one ``(n, width)`` rule-index
    array per level, from 1 up to ``depth``."""
    p = rs.params
    root = rng.integers(0, p.vocab_size, size=n, dtype=np.int32)
    choices = [
        rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)), dtype=np.int32)
        for lvl in range(1, p.depth + 1)
    ]
    levels = _expand_levels_unblocked_oracle(rs, root.reshape(n, 1), choices)
    return Dataset(sequences=levels[0], params=p,
                   latents=levels[1:] if with_latents else None,
                   meta={"grammar_hash": rs.content_hash(), "distinct": False})


def sample_distinct_dataset_set_oracle(
    rs: RuleSet, n: int, rng: np.random.Generator, with_latents: bool = True
) -> Dataset:
    """Rejection-sample until ``n`` distinct visible strings are collected,
    in at most 1000 batches, through a set of row bytes. Rows keep their
    first-draw derivations and order of first appearance."""
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
        batch = sample_dataset_unblocked_oracle(rs, max(n - len(firsts), 64), rng,
                                                with_latents)
        for i, row in enumerate(np.ascontiguousarray(batch.sequences)):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                firsts.append(n_drawn + i)
        batches.append(batch)
        n_drawn += batch.n_rows
    idx = np.asarray(firsts[:n], dtype=np.int64)
    latents = None
    if with_latents:
        latents = [np.concatenate([b.latents[i] for b in batches])[idx] for i in range(p.depth)]
    return Dataset(sequences=np.concatenate([b.sequences for b in batches])[idx],
                   params=p, latents=latents,
                   meta={"grammar_hash": rs.content_hash(), "distinct": True})


def parse_batch_unblocked_oracle(rs: RuleSet, seqs: np.ndarray):
    """``parse_batch`` with every level's digits and codes at full size:
    ``(max_levels, latents, choices)``."""
    p = rs.params
    seqs = np.asarray(seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
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
        max_levels += np.ascontiguousarray(parents.T).max(axis=0) < v
        cur = parents
    return max_levels, latents, choices


def learn_grammar_parse_truth_oracle(seqs, depth, branching, vocab_size,
                                     variant="single_token", seed=0, truth=None,
                                     partition_fn=None) -> ClusterModel:
    """``learn_grammar`` with its truth from one full parse held for the whole
    call, the majority counts over one flat bincount of ``code * v + parent``
    keys and int64 stage labels; valid input only."""
    seqs = np.asarray(seqs)
    true_latents = None
    recovery = None
    if truth is not None:
        max_levels, true_latents, _ = parse_batch_unblocked_oracle(truth, seqs)
        if not np.all(max_levels == depth):
            raise ValueError("training rows must parse under the reference grammar")
        recovery = []
    code_space = vocab_size**branching
    labels = seqs
    levels = []
    for stage in range(1, depth):
        n, width = labels.shape
        block_codes = encode_tuples(
            labels.reshape(n, width // branching, branching), vocab_size
        )
        stats = build_context_stats(labels, seqs, vocab_size, branching, variant,
                                    level=stage)
        observed = stats.codes
        if partition_fn is not None:
            part_labels = np.asarray(partition_fn(stage, observed), dtype=np.int64)
            part = Partition(codes=observed, labels=part_labels, partial=False,
                             inertia=math.nan)
        else:
            part = cluster_tuples(stats, seed=derive_seed(seed, stage, "kmeans"))
        if recovery is not None:
            counts = np.bincount(
                block_codes.ravel() * vocab_size + true_latents[stage - 1].ravel(),
                minlength=code_space * vocab_size,
            ).reshape(code_space, vocab_size)
            recovery.append(pair_agreement_score(part.labels,
                                                 counts[observed].argmax(axis=1)))
        levels.append(part)
        label_of = np.zeros(code_space, dtype=np.int64)
        label_of[observed] = part.labels
        labels = label_of[block_codes]
    top_codes = np.flatnonzero(np.bincount(encode_tuples(labels, vocab_size)))
    top_tuples = decode_codes(top_codes, vocab_size, labels.shape[1])
    return ClusterModel(branching=branching, vocab_size=vocab_size, levels=levels,
                        top_tuples=top_tuples.astype(np.min_scalar_type(vocab_size)),
                        recovery=recovery)


def one_step_gradient_bincount_oracle(tuple_codes, next_tokens,
                                      vocab_size: int) -> OneStepGradient:
    """``one_step_gradient`` over all samples at once: the softmax of every
    row, then one flat bincount over (column, label) keys; valid input only."""
    tuple_codes = np.asarray(tuple_codes).ravel()
    next_tokens = np.asarray(next_tokens).ravel()
    n = tuple_codes.size
    label_counts = np.bincount(next_tokens, minlength=vocab_size)
    observed = np.unique(tuple_codes)
    col = np.searchsorted(observed, tuple_codes)
    w0_col = np.log(label_counts / n)
    w0 = np.tile(w0_col[:, None], (1, observed.size))
    logits = w0[:, col].T  # (n, vocab_size)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    resid = -probs
    resid[np.arange(n), next_tokens] += 1.0
    keys = col[:, None] * vocab_size + np.arange(vocab_size)
    grad_t = np.bincount(
        keys.ravel(), weights=resid.ravel(), minlength=observed.size * vocab_size
    ).reshape(observed.size, vocab_size)
    return OneStepGradient(
        tuple_codes=observed,
        init_log_marginal=w0_col,
        init_weights=w0,
        grad_t=grad_t,
        empirical_corr=joint_correlation_oracle(next_tokens, col, vocab_size, observed.size),
        n=n,
    )


def pair_agreement_loop(labels, reference) -> float:
    """The fraction of ordered item pairs that both partitions join or both
    separate, one pair at a time; 1.0 below two items."""
    labels, reference = list(labels), list(reference)
    n = len(labels)
    if n < 2:
        return 1.0
    agree = sum((labels[i] == labels[j]) == (reference[i] == reference[j])
                for i in range(n) for j in range(n) if i != j)
    return agree / (n * (n - 1))

"""Exact sum-product inference on the grammar tree.

The tree is the fixed s-ary topology of the grammar: one variable per node,
one factor per internal node scoring (parent, children-tuple) as 1/m when the
tuple is a production of the parent and 0 otherwise, plus a uniform 1/v root
prior. Given per-leaf likelihood vectors this computes exact conditional
marginals of every node, the exact log evidence, and exact posterior samples —
the Bayes-optimal denoiser for corrupted strings.

Messages are renormalized at every node (posterior masses shrink like
m**-depth otherwise) with the log normalizers accumulated into the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corruption import NoiseSpec, leaf_likelihoods
from .grammar import RuleSet


class ImpossibleEvidenceError(ValueError):
    """No derivation is compatible with the supplied evidence."""


@dataclass
class BeliefState:
    """Per-level posterior marginals; index 0 = leaves, depth = root.

    Every row of every array is normalized to sum 1; ``log_evidence`` is the
    log of the summed likelihood of the evidence under the grammar.
    """

    marginals: list[np.ndarray]
    log_evidence: float


def _check_evidence(rs: RuleSet, lik: np.ndarray) -> np.ndarray:
    p = rs.params
    lik = np.asarray(lik, dtype=np.float64)
    if lik.shape != (p.seq_len, p.vocab_size):
        raise ValueError(f"evidence must have shape {(p.seq_len, p.vocab_size)}")
    if np.any(lik < 0):
        raise ValueError("likelihoods must be nonnegative")
    return lik


def _upward_pass(rs: RuleSet, lik: np.ndarray):
    """The one upward sweep that marginals and sampling share.

    Returns ``(upward, gathered, prods, log_z)``: ``upward[lvl]`` holds the
    normalized upward message of every level-``lvl`` node, shape
    ``(width, v)``; ``gathered[lvl - 1][n, a, k, i]`` is the upward message of
    child ``i`` of node ``n`` at value ``rules_at(lvl)[a, k, i]``, shape
    ``(width, v, m, s)``; ``prods[lvl - 1]`` is its product over the children,
    shape ``(width, v, m)``; ``log_z`` is the accumulated log normalizer.
    """
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


def bp_marginals(rs: RuleSet, evidence: np.ndarray) -> BeliefState:
    """Exact conditional marginals of every node given leaf likelihoods."""
    p = rs.params
    lik = _check_evidence(rs, evidence)
    upward, gathered, _, log_z = _upward_pass(rs, lik)
    v, m, s = p.vocab_size, p.n_synonyms, p.branching

    # Root prior is uniform, so it cancels after normalization; its mass is
    # still part of the evidence.
    log_z += float(np.log(upward[p.depth][0].sum() / v))  # = -log v
    downward = [np.full((1, v), 1.0 / v)]  # root first
    for lvl in range(p.depth, 0, -1):
        g = gathered[lvl - 1]  # (width, v, m, s)
        # Product over every child but i: an exclusive prefix times an
        # exclusive suffix product along the slot axis.
        ones = np.ones(g.shape[:3] + (1,))
        before = np.cumprod(np.concatenate([ones, g[..., :-1]], axis=3), axis=3)
        after = np.cumprod(np.concatenate([ones, g[..., :0:-1]], axis=3), axis=3)
        contrib = downward[-1][:, :, None, None] * (before * after[..., ::-1]) / m
        # Scatter each (node, parent value, production, slot) onto the value
        # the rule table gives that child: O(v) per node, where a product
        # with a one-hot rule table would cost O(v**2). Each bin sums its
        # terms in (parent value, production) order.
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
    return BeliefState(marginals=marginals, log_evidence=log_z)


def _categorical_rows(prob_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (n, k) probability matrix."""
    cdf = np.cumsum(prob_rows, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((prob_rows.shape[0], 1))
    return (u > cdf).sum(axis=1).astype(np.int32)


def bp_posterior_sample_batch(
    rs: RuleSet, evidence: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` i.i.d. exact posterior draws of the visible string (one upward
    pass shared, then batched top-down ancestral sampling).

    Returns the (n, seq_len) leaf strings. The grammar is unambiguous, so
    :func:`~rhmlab.grammar.parse_batch` recovers each draw's latent symbols
    and rule choices.
    """
    p = rs.params
    lik = _check_evidence(rs, evidence)
    upward, _, prods, _ = _upward_pass(rs, lik)
    root_post = upward[p.depth][0] / upward[p.depth][0].sum()
    symbols = _categorical_rows(np.tile(root_post, (n, 1)), rng).reshape(n, 1)
    for lvl in range(p.depth, 0, -1):
        width = p.level_width(lvl)
        node_idx = np.broadcast_to(np.arange(width)[None, :], symbols.shape)
        weights = prods[lvl - 1][node_idx, symbols]  # (n, width, m)
        flat = weights.reshape(-1, p.n_synonyms)
        bad = flat.sum(axis=1) <= 0
        if np.any(bad):
            raise ImpossibleEvidenceError("conditioned node has no valid production")
        ks = _categorical_rows(flat, rng).reshape(symbols.shape)
        symbols = rs.rules_at(lvl)[symbols, ks].reshape(n, width * p.branching)
    return symbols


def denoise_expectation(
    rs: RuleSet, noisy: np.ndarray, spec: NoiseSpec
) -> np.ndarray:
    """Exact conditional expectation of each clean one-hot token given the
    corrupted string: the per-leaf posterior marginals."""
    lik = leaf_likelihoods(np.asarray(noisy), spec, rs.params.vocab_size)
    return bp_marginals(rs, lik).marginals[0]

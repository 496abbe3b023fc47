"""Exact sum-product inference on the grammar tree.

The tree is the fixed s-ary topology of the grammar: one variable per node,
one factor per internal node scoring (parent, children-tuple) as 1/m when the
tuple is a production of the parent and 0 otherwise, plus a uniform 1/v root
prior. Given per-leaf likelihood vectors this computes exact conditional
marginals of every node, the exact log evidence, and exact posterior samples —
the Bayes-optimal denoiser for corrupted strings.

Messages are renormalized at every node (posterior masses shrink like
m**-depth otherwise) with the log normalizers accumulated into the evidence.

One upward pass serves each evidence: a grammar's ``_bp`` slot, private to
this module, keeps the gather index and the last pass, keyed by the evidence
bytes, so marginals and draws of one noisy string share it, in either order.
The gather index is slot-major, ``(s, v, m, width)``, so every per-slot read
of the upward products and the downward contributions is one contiguous
block. That keeps every bit of a node-major index: each slot product is
still a C-order ``(v, m, width)`` array, so its sums reduce in the same
order, and each scatter bin, one (node, slot, child value), still adds its
terms in (parent value, production) order. The denoiser,
:func:`denoise_expectation`, shares the marginals' core but forms the
posterior of the leaves only; the upper levels get their zero-mass check and
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corruption import NoiseSpec, leaf_likelihoods
from .grammar import RuleSet, _check_draw_count


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
    if not lik.min() >= 0:  # a NaN entry fails this too
        raise ValueError("likelihoods must be nonnegative numbers, not NaN")
    return lik


def _gather_index(rs: RuleSet) -> tuple[np.ndarray, ...]:
    """Per level, the read-only C-contiguous intp ``(s, v, m, width)`` array
    whose ``[i, a, k, n]`` entry is ``(n*s + i)*v + rules_at(level)[a, k, i]``:
    the flat position, among the ``(width*s, v)`` values of the level below,
    of child ``i`` of node ``n`` taking production ``k`` of value ``a``. The
    slot axis is first, so each slot of a gather through it is one
    contiguous ``(v, m, width)`` block, and the node axis is last, so nodes
    stay innermost in memory (see :func:`_upward_pass`). Built at the
    grammar's first BP call."""
    if rs._bp is None:
        p = rs.params
        index = []
        for lvl in range(1, p.depth + 1):
            width = p.level_width(lvl)
            child = (np.arange(width) * p.branching
                     + np.arange(p.branching)[:, None]) * p.vocab_size
            idx = child + rs.rules_at(lvl)[..., None].astype(np.intp)
            idx = idx.transpose(2, 0, 1, 3).copy()
            idx.setflags(write=False)
            index.append(idx)
        rs._bp = (tuple(index), None, None)  # no upward pass yet
    return rs._bp[0]


def _upward_pass(rs: RuleSet, lik: np.ndarray):
    """The one upward sweep that marginals and sampling share.

    Returns ``(upward, gathered, prods, log_z)``: ``upward[lvl]`` holds the
    normalized upward message of every level-``lvl`` node, shape
    ``(width, v)``; ``gathered[lvl - 1][i, a, k, n]`` is the upward message of
    child ``i`` of node ``n`` at value ``rules_at(lvl)[a, k, i]``, shape
    ``(s, v, m, width)``, the gather through :func:`_gather_index`;
    ``prods[lvl - 1]`` is its product over the children, shape
    ``(width, v, m)``; ``log_z`` is the accumulated log normalizer.

    The products are taken slot by slot, left to right, each slot one
    contiguous block of the gather, and the C-order ``(v, m, width)`` result
    is transposed so that the node axis is innermost in memory. numpy picks
    the summation order of ``prod.sum(axis=2)``, ``up.sum(axis=1)`` and the
    marginal normalizers from that layout, so the layout is part of the
    exact bits of every result: a C-contiguous ``(width, v, m)`` product
    moves marginals and log evidence by an ulp. Where the slot axis sits in
    the gather does not matter: each product is elementwise, and its memory
    is the same ``(v, m, width)`` array whichever axis the slots take.

    The ``_bp`` slot keeps the last successful pass, keyed by the evidence
    bytes; its arrays are read-only, and a pass that raises is not kept.
    """
    key = lik.tobytes()
    index = _gather_index(rs)
    _, last_key, last_pass = rs._bp
    if last_key == key:
        return last_pass
    p = rs.params
    norms = lik.sum(axis=1)
    if norms.min() <= 0:
        raise ImpossibleEvidenceError("a leaf has an all-zero likelihood")
    log_z = float(np.log(norms).sum())
    if log_z == math.inf:
        raise ValueError("likelihoods must be finite, with finite sums per leaf")
    upward = [lik / norms[:, None]]
    gathered, prods = [], []
    m = p.n_synonyms
    for lvl in range(1, p.depth + 1):
        g = upward[-1].take(index[lvl - 1])
        prod = g[0] * g[1]
        for i in range(2, p.branching):
            prod *= g[i]
        prod = prod.transpose(2, 0, 1)
        up = prod.sum(axis=2) / m
        z = up.sum(axis=1)
        if z.min() <= 0:
            raise ImpossibleEvidenceError(
                f"evidence admits no grammatical completion at level {lvl}"
            )
        log_z += float(np.log(z).sum())
        upward.append(up / z[:, None])
        gathered.append(g)
        prods.append(prod)
    for arr in upward + gathered + prods:
        arr.setflags(write=False)
    result = (tuple(upward), tuple(gathered), tuple(prods), log_z)
    rs._bp = (index, key, result)
    return result


def _posterior(rs: RuleSet, lik: np.ndarray, every_level: bool):
    """The core of :func:`bp_marginals` and :func:`denoise_expectation`:
    ``(marginals, log_z)`` for checked evidence ``lik``. ``marginals`` holds
    every level's posterior, leaves first, when ``every_level``, else the
    leaves' alone; either way every level's posterior mass is checked, so
    both callers raise on the same evidence, with the same message."""
    p = rs.params
    upward, gathered, _, log_z = _upward_pass(rs, lik)
    v, m, s = p.vocab_size, p.n_synonyms, p.branching

    # Root prior is uniform, so it cancels after normalization; its mass is
    # still part of the evidence.
    log_z += float(np.log(upward[p.depth][0].sum() / v))  # = -log v
    downward = [np.full((1, v), 1.0 / v)]  # root first
    for lvl in range(p.depth, 0, -1):
        index = _gather_index(rs)[lvl - 1]
        g = gathered[lvl - 1]  # (s, v, m, width)
        # Product over every child but i: the product of the slots before i,
        # taken left to right, times the product of the slots after i, taken
        # right to left. For s = 2 this is the sibling's message.
        after = [g[s - 1]]
        for i in range(s - 2, 0, -1):
            after.append(after[-1] * g[i])
        after.reverse()  # after[i]: the slots after i, for i < s - 1
        parent = downward[-1].T[:, None, :]
        contrib = np.empty(g.shape)
        np.multiply(parent, after[0], out=contrib[0])
        before = g[0]
        for i in range(1, s):
            others = before if i == s - 1 else before * after[i]
            np.multiply(parent, others, out=contrib[i])
            if i < s - 1:
                before = before * g[i]
        contrib /= m
        # Scatter each (slot, parent value, production, node) onto the value
        # the rule table gives that child: O(v) per node, where a product
        # with a one-hot rule table would cost O(v**2). A bin is one (node,
        # slot, child value), so it sums its terms in (parent value,
        # production) order, whichever axis the slots take.
        msg = np.bincount(index.ravel(), contrib.ravel(), minlength=index.size // m)
        msg = msg.reshape(-1, v)
        z = msg.sum(axis=1)
        if z.min() <= 0:
            raise ImpossibleEvidenceError("zero downward message")
        downward.append(msg / z[:, None])
    downward.reverse()
    marginals = []
    for lvl in range(p.depth + 1):
        post = upward[lvl] * downward[lvl]
        z = post.sum(axis=1)
        if z.min() <= 0:
            raise ImpossibleEvidenceError("zero posterior mass")
        if every_level or lvl == 0:
            marginals.append(post / z[:, None])
    return marginals, log_z


def bp_marginals(rs: RuleSet, evidence: np.ndarray) -> BeliefState:
    """Exact conditional marginals of every node given leaf likelihoods."""
    marginals, log_z = _posterior(rs, _check_evidence(rs, evidence), every_level=True)
    return BeliefState(marginals=marginals, log_evidence=log_z)


def _categorical(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` categorical draws from cumulative weights laid out category
    first: one column of a ``(k, n)`` array per draw, or one ``(k, 1)``
    column for all ``n``. A uniform ``u`` in ``[cdf[j-1], cdf[j]) / cdf[-1]``
    draws ``j``, so a zero-weight category, whose interval is empty, is never
    drawn, not even at ``u = 0``."""
    u = rng.random(n)
    return (u >= cdf / cdf[-1]).sum(axis=0)


def bp_posterior_sample_batch(
    rs: RuleSet, evidence: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` i.i.d. exact posterior draws of the visible string (one upward
    pass shared, then batched top-down ancestral sampling).

    Returns the (n, seq_len) leaf strings, in :func:`~rhmlab.grammar.token_dtype`.
    The grammar is unambiguous, so :func:`~rhmlab.grammar.parse_batch`
    recovers each draw's latent symbols and rule choices.
    """
    _check_draw_count(n)
    p = rs.params
    v, m = p.vocab_size, p.n_synonyms
    lik = _check_evidence(rs, evidence)
    upward, _, prods, _ = _upward_pass(rs, lik)
    root = upward[p.depth][0]
    symbols = _categorical(np.cumsum(root / root.sum())[:, None], n, rng).reshape(n, 1)
    for lvl in range(p.depth, 0, -1):
        width = p.level_width(lvl)
        # Cumulative production weights of every (node, value), production
        # first: column node * v + value. Then the columns of the draws.
        cdf = np.empty((m, width, v))
        np.cumsum(prods[lvl - 1].transpose(2, 0, 1), axis=0, out=cdf)
        rows = symbols + np.arange(0, width * v, v)
        cdf = cdf.reshape(m, width * v).take(rows.ravel(), axis=1)
        if not (cdf[-1] > 0).all():
            raise ImpossibleEvidenceError("conditioned node has no valid production")
        ks = _categorical(cdf, cdf.shape[1], rng).reshape(symbols.shape)
        symbols = rs.rules_at(lvl)[symbols, ks].reshape(n, width * p.branching)
    return symbols


def denoise_expectation(
    rs: RuleSet, noisy: np.ndarray, spec: NoiseSpec
) -> np.ndarray:
    """Exact conditional expectation of each clean one-hot token given the
    corrupted string: the per-leaf posterior marginals, byte for byte
    ``bp_marginals(rs, leaf_likelihoods(noisy, spec, v)).marginals[0]``, and
    raising where that raises. Only the leaves' posterior is formed."""
    lik = leaf_likelihoods(np.asarray(noisy), spec, rs.params.vocab_size)
    return _posterior(rs, _check_evidence(rs, lik), every_level=False)[0][0]

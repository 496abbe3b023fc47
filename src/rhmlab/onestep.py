"""One gradient step of a linear next-token predictor.

A perceptron-plus-softmax model reads the one-hot index of the first visible
s-tuple and predicts the following token. Initializing every weight column at
the log empirical label marginal and taking a single cross-entropy gradient
step lands the weights exactly at init + eta * (empirical token-tuple
correlation); the update is computed through the generic softmax gradient so
that identity can be asserted rather than assumed.

The eta-independent part (label counts, initial weights, the softmax residual
of every sample, the summed gradient and the empirical correlation) is
computed once per dataset by :func:`one_step_gradient`; each learning rate
then only scales the gradient. The identity is still checked for every eta
(``max_identity_dev`` in the CLI's ``onestep.csv``), not assumed from the
shared gradient.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .grammar import _check_token_range, _row_blocks, encode_tuples
from .stats import joint_correlation


@dataclass
class OneStepModel:
    tuple_codes: np.ndarray  # observed tuple codes, sorted (the columns)
    init_log_marginal: np.ndarray  # (vocab_size,), identical across columns
    weights: np.ndarray  # (vocab_size, n_tuples) after the step
    delta: np.ndarray  # the gradient step actually taken
    empirical_corr: np.ndarray  # token-tuple correlation over the same data
    eta: float


def tuple_next_token_pairs(
    seqs: np.ndarray, branching: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(first-tuple code, following token) pairs from visible strings."""
    seqs = np.asarray(seqs)
    if seqs.ndim != 2 or seqs.shape[1] < branching + 1:
        raise ValueError(f"seqs must have shape (n, L) with L > {branching}, not {seqs.shape}")
    _check_token_range("seqs", seqs[:, : branching + 1], vocab_size)
    codes = encode_tuples(seqs[:, :branching], vocab_size)
    return codes, seqs[:, branching].astype(np.int64)


@dataclass
class OneStepGradient:
    """The eta-independent part of one step, computed once per dataset."""

    tuple_codes: np.ndarray  # observed tuple codes, sorted (the columns)
    init_log_marginal: np.ndarray  # (vocab_size,)
    init_weights: np.ndarray  # (vocab_size, n_tuples), every column identical
    grad_t: np.ndarray  # (n_tuples, vocab_size) summed softmax residuals
    empirical_corr: np.ndarray
    n: int  # training pairs

    def step(self, eta: float) -> OneStepModel:
        """The model after one full-batch step at learning rate ``eta``, a
        positive finite real number (not a bool)."""
        if isinstance(eta, bool) or not isinstance(eta, numbers.Real) or not 0 < eta < np.inf:
            raise ValueError(f"eta must be a positive finite real number, not {eta!r}")
        delta = eta * self.grad_t.T / self.n
        return OneStepModel(
            tuple_codes=self.tuple_codes,
            init_log_marginal=self.init_log_marginal,
            weights=self.init_weights + delta,
            delta=delta,
            empirical_corr=self.empirical_corr,
            eta=float(eta),
        )


def one_step_gradient(
    tuple_codes: np.ndarray, next_tokens: np.ndarray, vocab_size: int
) -> OneStepGradient:
    """Initial weights, softmax cross-entropy gradient and empirical
    correlation of a training set; ``.step(eta)`` takes the step.

    Raises when the tuple codes are not integers, when a next token lies
    outside ``[0, vocab_size)``, or when some label class never occurs (its
    log marginal is -inf, so the prescribed initialization does not exist).
    """
    tuple_codes = np.asarray(tuple_codes).ravel()
    next_tokens = np.asarray(next_tokens).ravel()
    if tuple_codes.shape != next_tokens.shape or tuple_codes.size == 0:
        raise ValueError("need equal-length non-empty code/label arrays")
    _check_token_range("tuple codes", tuple_codes, None)
    _check_token_range("next tokens", next_tokens, vocab_size)
    n = tuple_codes.size
    label_counts = np.bincount(next_tokens, minlength=vocab_size)
    if np.any(label_counts == 0):
        missing = int(np.flatnonzero(label_counts == 0)[0])
        raise ValueError(
            f"label class {missing} absent from the training set "
            "(log marginal undefined)"
        )
    observed = np.unique(tuple_codes)
    col = np.searchsorted(observed, tuple_codes)
    w0_col = np.log(label_counts / n)
    w0 = np.tile(w0_col[:, None], (1, observed.size))

    # Softmax cross-entropy gradient, row block by row block. Every column of
    # w0 is w0_col, so every sample's softmax is one row, formed once by the
    # same ops on a (1, vocab_size) array. np.add.at over flat (column,
    # label) keys adds each bin's residuals in sample order, starting from
    # 0.0, as one flat bincount over all samples does.
    logits = w0_col[None, :].copy()
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    grad_t = np.zeros(observed.size * vocab_size)
    for rows in _row_blocks(n, vocab_size):
        resid = np.repeat(-probs, rows.stop - rows.start, axis=0)
        resid[np.arange(resid.shape[0]), next_tokens[rows]] += 1.0
        keys = col[rows, None] * vocab_size + np.arange(vocab_size)
        np.add.at(grad_t, keys.ravel(), resid.ravel())
    grad_t = grad_t.reshape(observed.size, vocab_size)

    return OneStepGradient(
        tuple_codes=observed,
        init_log_marginal=w0_col,
        init_weights=w0,
        grad_t=grad_t,
        empirical_corr=joint_correlation(next_tokens, col, vocab_size, observed.size),
        n=n,
    )


def one_step_gd(
    tuple_codes: np.ndarray,
    next_tokens: np.ndarray,
    vocab_size: int,
    eta: float,
) -> OneStepModel:
    """Train for exactly one full-batch gradient step at learning rate ``eta``
    (``one_step_gradient(...).step(eta)``)."""
    return one_step_gradient(tuple_codes, next_tokens, vocab_size).step(eta)


def synonym_column_cosine(model: OneStepModel, classes: np.ndarray) -> float:
    """Mean cosine similarity between weight-update columns of same-class
    tuples (``classes`` aligns with ``model.tuple_codes``)."""
    classes = np.asarray(classes)
    if classes.shape != model.tuple_codes.shape:
        raise ValueError("classes must align with the observed tuple codes")
    cols = model.delta.T
    norms = np.linalg.norm(cols, axis=1)
    sims = []
    for cls in np.unique(classes):
        idx = np.flatnonzero(classes == cls)
        for a in range(idx.size):
            for b in range(a + 1, idx.size):
                i, j = idx[a], idx[b]
                if norms[i] == 0 or norms[j] == 0:
                    sims.append(0.0)
                else:
                    sims.append(
                        float(cols[i] @ cols[j] / (norms[i] * norms[j]))
                    )
    if not sims:
        raise ValueError("no same-class tuple pairs observed")
    return float(np.mean(sims))

"""One gradient step of a linear next-token predictor.

A perceptron-plus-softmax model reads the one-hot index of the first visible
s-tuple and predicts the following token. Initializing every weight column at
the log empirical label marginal and taking a single cross-entropy gradient
step lands the weights exactly at init + eta * (empirical token-tuple
correlation); the update is computed through the generic softmax gradient so
that identity can be asserted rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grammar import encode_tuples
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
    if seqs.shape[1] < branching + 1:
        raise ValueError("strings too short for a tuple plus next token")
    codes = encode_tuples(seqs[:, :branching], vocab_size)
    return codes, seqs[:, branching].astype(np.int64)


def one_step_gd(
    tuple_codes: np.ndarray,
    next_tokens: np.ndarray,
    vocab_size: int,
    eta: float,
) -> OneStepModel:
    """Train for exactly one full-batch gradient step at learning rate ``eta``.

    Raises when some label class never occurs (its log marginal is -inf, so
    the prescribed initialization does not exist).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    tuple_codes = np.asarray(tuple_codes).ravel()
    next_tokens = np.asarray(next_tokens).ravel()
    if tuple_codes.shape != next_tokens.shape or tuple_codes.size == 0:
        raise ValueError("need equal-length non-empty code/label arrays")
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

    # Generic softmax cross-entropy gradient; every sample reads one column.
    logits = w0[:, col].T  # (n, vocab_size)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    resid = -probs
    resid[np.arange(n), next_tokens] += 1.0
    grad_t = np.zeros((observed.size, vocab_size))
    np.add.at(grad_t, col, resid)
    delta = eta * grad_t.T / n

    corr = joint_correlation(next_tokens, col, vocab_size, observed.size)
    return OneStepModel(
        tuple_codes=observed,
        init_log_marginal=w0_col,
        weights=w0 + delta,
        delta=delta,
        empirical_corr=corr,
        eta=float(eta),
    )


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

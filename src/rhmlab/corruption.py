"""Forward corruption of token strings: uniform resampling or masking.

Both kernels are parameterized by a cumulative corruption probability; a
per-step schedule composes into the same one-shot kernel because the uniform
and masking transition-matrix families are closed under products. The mask
symbol is ``vocab_size`` itself, enlarging the effective alphabet by one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import _check_fields
from .grammar import _check_draw_count, _check_token_range, token_dtype


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption description: a kind plus either a cumulative corruption
    probability ``beta_bar`` or a per-step ``schedule`` of beta values, each
    stored as a float. The fields are checked against the ``noise`` section
    of ``config_schema.json``; the schedule may be any iterable."""

    kind: str
    beta_bar: float | None = None
    schedule: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.schedule is not None:
            # A non-iterable schedule is left for the schema to refuse by name.
            with contextlib.suppress(TypeError):
                object.__setattr__(self, "schedule", tuple(self.schedule))
        _check_fields(self, "noise")
        if self.beta_bar is not None:
            object.__setattr__(self, "beta_bar", float(self.beta_bar))
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(map(float, self.schedule)))

    @classmethod
    def linear_schedule(cls, kind: str, n_steps: int) -> "NoiseSpec":
        """beta_t = 1/(T-t+1), the discrete ramp whose cumulative keep
        probability decays linearly: after t steps it equals (T-t)/T."""
        _check_draw_count(n_steps, "n_steps")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        betas = tuple(1.0 / (n_steps - t + 1) for t in range(1, n_steps + 1))
        return cls(kind=kind, schedule=betas)


def cumulative_keep_prob(spec: NoiseSpec) -> float:
    """Probability that a token survives the whole corruption untouched.

    For the uniform kind the composed kernel is again uniform: resample with
    probability ``1 - keep`` (possibly back to the original value), keep
    otherwise.
    """
    if spec.beta_bar is not None:
        return 1.0 - spec.beta_bar
    keep = 1.0
    for beta in spec.schedule:
        keep *= 1.0 - beta
    return keep


def corrupt(
    seqs: np.ndarray,
    spec: NoiseSpec,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt tokens i.i.d.; returns ``(noisy, hits)`` where ``hits`` marks the
    positions the kernel acted on (a uniform resample may keep the value).

    ``rng`` draws the ``seqs.shape`` uniforms of the hits, then, under
    uniform noise, the ``seqs.shape`` int32 replacement tokens, whatever the
    rows' dtype; so every integer dtype gets the same noise. ``noisy`` has
    the rows' dtype promoted with :func:`token_dtype`, which holds every
    token, the mask included.

    Masking noise also takes masked input: the mask is absorbing, so a masked
    token stays masked and corrupting in two steps composes like one step.
    """
    seqs = np.asarray(seqs)
    _check_token_range("seqs", seqs, vocab_size + (spec.kind == "masking"))
    dtype = np.promote_types(seqs.dtype, token_dtype(vocab_size))
    keep = cumulative_keep_prob(spec)
    hits = rng.random(seqs.shape) < (1.0 - keep)
    if spec.kind == "uniform":
        noisy = rng.integers(0, vocab_size, size=seqs.shape,
                             dtype=np.int32).astype(dtype, copy=False)
    else:
        noisy = np.full(seqs.shape, vocab_size, dtype=dtype)
    np.copyto(noisy, seqs, where=~hits)
    return noisy, hits


# Alphabets up to this size get their likelihood rows from a cached table:
# at most 256 * 255 floats (510 KB) a table and _TABLES_KEPT tables.
_TABLE_MAX_VOCAB = 255
_TABLES_KEPT = 16


def _kernel_rows(seq: np.ndarray, kind: str, keep: float, vocab_size: int) -> np.ndarray:
    """The likelihood row of every symbol of ``seq``, as
    :func:`leaf_likelihoods` documents them."""
    out = np.empty((seq.shape[0], vocab_size), dtype=np.float64)
    if kind == "masking":
        masked = seq == vocab_size
        out[:] = masked[:, None]
        rows = np.flatnonzero(~masked)
        out[rows, seq[rows]] = 1.0
    else:
        out[:] = (1.0 - keep) / vocab_size
        out[np.arange(seq.shape[0]), seq] += keep
    return out


@lru_cache(maxsize=_TABLES_KEPT)
def _likelihood_table(kind: str, keep: float, vocab_size: int) -> np.ndarray:
    """The read-only row of every observable symbol: ``(v+1, v)`` for
    masking (the identity, then the mask's row of ones), ``(v, v)`` for
    uniform noise, from the same float operations as :func:`_kernel_rows`."""
    table = _kernel_rows(np.arange(vocab_size + (kind == "masking")), kind, keep, vocab_size)
    table.setflags(write=False)
    return table


def leaf_likelihoods(
    seq: np.ndarray, spec: NoiseSpec, vocab_size: int
) -> np.ndarray:
    """Per-position likelihood vectors P(observed | clean symbol), the BP
    evidence for exact denoising.

    masking: masked positions are uninformative (all ones), the rest one-hot.
    uniform: the kernel row — weight ``keep + (1-keep)/v`` on the observed
    symbol and ``(1-keep)/v`` elsewhere.

    Up to v = 255 the rows are one gather from a read-only table kept per
    ``(kind, keep, v)``; larger alphabets, whose tables would grow as v**2,
    get the same bytes built row by row. Either way the result is a fresh
    array of the caller's.
    """
    seq = np.asarray(seq)
    if seq.ndim != 1:
        raise ValueError("leaf_likelihoods expects a single sequence")
    _check_token_range("seq", seq, vocab_size + (spec.kind == "masking"))
    keep = cumulative_keep_prob(spec)
    if vocab_size > _TABLE_MAX_VOCAB:
        return _kernel_rows(seq, spec.kind, keep, vocab_size)
    return _likelihood_table(spec.kind, keep, vocab_size).take(seq, axis=0)

"""Forward corruption of token strings: uniform resampling or masking.

Both kernels are parameterized by a cumulative corruption probability; a
per-step schedule composes into the same one-shot kernel because the uniform
and masking transition-matrix families are closed under products. The mask
symbol is ``vocab_size`` itself, enlarging the effective alphabet by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("uniform", "masking")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption description: a kind plus either a cumulative corruption
    probability ``beta_bar`` or a per-step ``schedule`` of beta values."""

    kind: str
    beta_bar: float | None = None
    schedule: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if (self.beta_bar is None) == (self.schedule is None):
            raise ValueError("give exactly one of beta_bar or schedule")
        if self.beta_bar is not None and not 0.0 <= self.beta_bar <= 1.0:
            raise ValueError("beta_bar must be in [0, 1]")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(float(b) for b in self.schedule))
            if len(self.schedule) == 0:
                raise ValueError("schedule must be non-empty")
            if any(not 0.0 <= b <= 1.0 for b in self.schedule):
                raise ValueError("every beta_t must be in [0, 1]")

    @classmethod
    def linear_schedule(cls, kind: str, n_steps: int) -> "NoiseSpec":
        """beta_t = 1/(T-t+1), the discrete ramp whose cumulative keep
        probability decays linearly: after t steps it equals (T-t)/T."""
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

    Masking noise also takes masked input: the mask is absorbing, so a masked
    token stays masked and corrupting in two steps composes like one step.
    """
    seqs = np.asarray(seqs)
    top = vocab_size if spec.kind == "masking" else vocab_size - 1
    if seqs.size and (seqs.min() < 0 or seqs.max() > top):
        raise ValueError(f"tokens must lie in [0, {top}] for {spec.kind} noise")
    keep = cumulative_keep_prob(spec)
    hits = rng.random(seqs.shape) < (1.0 - keep)
    if spec.kind == "uniform":
        resampled = rng.integers(0, vocab_size, size=seqs.shape, dtype=seqs.dtype)
        noisy = np.where(hits, resampled, seqs)
    else:
        noisy = np.where(hits, np.asarray(vocab_size, dtype=seqs.dtype), seqs)
    return noisy, hits


def leaf_likelihoods(
    seq: np.ndarray, spec: NoiseSpec, vocab_size: int
) -> np.ndarray:
    """Per-position likelihood vectors P(observed | clean symbol), the BP
    evidence for exact denoising.

    masking: masked positions are uninformative (all ones), the rest one-hot.
    uniform: the kernel row — weight ``keep + (1-keep)/v`` on the observed
    symbol and ``(1-keep)/v`` elsewhere.
    """
    seq = np.asarray(seq)
    if seq.ndim != 1:
        raise ValueError("leaf_likelihoods expects a single sequence")
    keep = cumulative_keep_prob(spec)
    out = np.empty((seq.shape[0], vocab_size), dtype=np.float64)
    if spec.kind == "masking":
        if seq.min() < 0 or seq.max() > vocab_size:
            raise ValueError("symbols must lie in [0, vocab_size]")
        masked = seq == vocab_size
        out[masked] = 1.0
        out[~masked] = np.eye(vocab_size)[seq[~masked]]
    else:
        if seq.min() < 0 or seq.max() >= vocab_size:
            raise ValueError("symbols must lie in [0, vocab_size)")
        out[:] = (1.0 - keep) / vocab_size
        out[np.arange(seq.shape[0]), seq] += keep
    return out

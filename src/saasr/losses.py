"""Training objective: token cross-entropy, frame-level CTC (main and
intermediate-layer), speaker softmax cross-entropy, and their interpolation
with the quantity loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, getitem, graph_node, log_softmax, neg, tmean, tsum

# infeasible CTC instances contribute this finite penalty during training
# instead of poisoning the batch with an infinity
CTC_INFEASIBLE_PENALTY = 1e4


@dataclass
class LossWeights:
    lambda1: float = 0.3
    lambda2: float = 0.3

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be finite and nonnegative, got {value}")
        if self.lambda1 + self.lambda2 > 1.0:
            raise ConfigError(
                f"lambda1 + lambda2 = {self.lambda1 + self.lambda2} exceeds 1")


@dataclass
class LossBreakdown:
    mae: Tensor
    ctc: Tensor
    inter_ctc: Tensor
    ce: Tensor
    speaker: Tensor
    total: Tensor


def ce_loss(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax of the target class per token position."""
    targets = np.asarray(targets, dtype=np.intp)
    n = logits.data.shape[0]
    if n != targets.shape[0]:
        raise ShapeError(
            f"ce_loss length mismatch: {n} logit rows vs {targets.shape[0]} targets")
    if n == 0:
        return Tensor(0.0)
    lsm = log_softmax(logits, axis=1)
    picked = getitem(lsm, (np.arange(n), targets))
    return neg(tmean(picked))


def ctc_min_frames(target) -> int:
    """Shortest frame count that admits an alignment (repeats need a blank)."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(frame_logits: Tensor, target) -> Tensor:
    """Negative log probability of all alignments of ``target`` over the
    frames, computed by the forward algorithm in log space.

    The blank symbol is the last logit column. An infeasible
    instance (too few frames) yields an infinite loss rather than an error.
    """
    logits = frame_logits.data
    if logits.ndim != 2:
        raise ShapeError(f"ctc_loss expects T x (V+1) logits, got {logits.shape}")
    t_len, width = logits.shape
    blank = width - 1
    target = list(int(t) for t in target)
    if any(t == blank or not 0 <= t < width for t in target):
        raise ContractError(
            f"ctc targets must lie in [0, {width}) excluding blank {blank}")
    if t_len < ctc_min_frames(target):
        return Tensor(np.inf)

    ext = [blank]
    for tok in target:
        ext.extend((tok, blank))
    s_len = len(ext)
    ext_arr = np.asarray(ext, dtype=np.intp)
    # skip transition s-2 -> s allowed when the label differs from both the
    # blank and the label two slots back
    skip = np.zeros(s_len, dtype=bool)
    for s in range(2, s_len):
        skip[s] = ext[s] != blank and ext[s] != ext[s - 2]

    shift = logits - logits.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))

    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = logp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = logp[0, ext[1]]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        sk = skip[2:]
        acc[2:][sk] = np.logaddexp(acc[2:][sk], prev[:-2][sk])
        alpha[t] = acc + logp[t, ext_arr]

    if s_len > 1:
        log_total = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    else:
        log_total = alpha[-1, -1]

    def vjp(g):
        # beta excludes the emission at its own frame, so alpha + beta is
        # the log mass of paths through each state
        beta = np.full((t_len, s_len), -np.inf)
        beta[-1, -1] = 0.0
        if s_len > 1:
            beta[-1, -2] = 0.0
        for t in range(t_len - 2, -1, -1):
            nxt = beta[t + 1] + logp[t + 1, ext_arr]
            acc = nxt.copy()
            acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
            sk = skip[2:]
            acc[:-2][sk] = np.logaddexp(acc[:-2][sk], nxt[2:][sk])
            beta[t] = acc
        ab = alpha + beta
        log_q = np.full((t_len, width), -np.inf)
        for s in range(s_len):
            k = ext[s]
            log_q[:, k] = np.logaddexp(log_q[:, k], ab[:, s])
        gamma = np.exp(log_q - log_total)
        probs = np.exp(logp)
        return (g * (probs - gamma),)

    return graph_node(np.float64(-log_total), (frame_logits,), vjp)


def speaker_loss(scores: Tensor, true_indices, profiles: int) -> Tensor:
    """Softmax cross-entropy over raw cosine scores (N x K), summed over
    tokens. The first ``profiles`` columns score real profiles; any after
    them are filled in and never a target."""
    idx = np.asarray(true_indices, dtype=np.intp)
    n, width = scores.data.shape
    if idx.shape[0] != n:
        raise ShapeError(
            f"speaker_loss length mismatch: {n} tokens vs {idx.shape[0]} targets")
    if n == 0:
        return Tensor(0.0)
    if np.any(idx < 0) or np.any(idx >= width):
        raise ContractError(f"speaker target index outside 0..{width - 1}")
    if np.any(idx >= profiles):
        raise ContractError("speaker target points at a filled-in column")
    lsm = log_softmax(scores, axis=1)
    return neg(tsum(getitem(lsm, (np.arange(n), idx))))


def composite_loss(mae: Tensor, ctc: Tensor, inter_ctc: Tensor, ce: Tensor,
                   speaker: Tensor, weights: LossWeights) -> LossBreakdown:
    """Interpolate the five parts; dropping inter-CTC (lambda2 = 0)
    reproduces the four-term objective."""
    total = (mae + weights.lambda1 * ctc + weights.lambda2 * inter_ctc
             + (1.0 - weights.lambda1 - weights.lambda2) * ce + speaker)
    return LossBreakdown(mae=mae, ctc=ctc, inter_ctc=inter_ctc, ce=ce,
                         speaker=speaker, total=total)

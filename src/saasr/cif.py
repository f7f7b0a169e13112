"""Continuous integrate-and-fire: per-frame weights, token-boundary firing,
token-count estimation, and the quantity (MAE) loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .nn import Linear, Module
from .tensor import Tensor, graph_node, matmul, reshape, sigmoid, tabs, tsum

THRESHOLD = 1.0      # accumulated weight that fires one token


@dataclass
class FiringPlan:
    firings: list          # 0-based frame index of each threshold crossing
    residue: float         # accumulated weight left past the last frame
    embeddings: Tensor     # N x d, one weighted frame combination per token
    frame_weights: Tensor  # N x T, nonnegative rows summing to the threshold

    @property
    def num_fired(self) -> int:
        return len(self.firings)


class WeightPredictor(Module):
    """Single linear layer on encoder frames followed by a sigmoid: the
    per-frame accumulation weights alpha, shape (T,)."""

    def __init__(self, model_dim: int, rng: np.random.Generator):
        self.proj = Linear(model_dim, 1, rng)

    def __call__(self, h: Tensor) -> Tensor:
        if h.data.ndim != 2 or h.data.shape[0] < 1:
            raise ShapeError(f"predictor expects T x d frames, got {h.data.shape}")
        return reshape(sigmoid(self.proj(h)), (h.data.shape[0],))


def _cif_forward(alpha: np.ndarray):
    """Sequential accumulation. Returns the dense per-token frame-weight
    matrix plus the bookkeeping needed for its gradient."""
    T = alpha.shape[0]
    rows = []            # one {frame: weight} dict per fired token
    firings = []
    direct = []          # (n, t) entries whose weight has slope 1 in alpha[t]
    boundary = []        # (t, left_token, carry_token_or_-1) per firing frame
    cur = {}
    cur_n = 0
    acc = 0.0
    beta = THRESHOLD
    for t in range(T):
        a = float(alpha[t])
        if acc + a < beta:
            cur[t] = a
            direct.append((cur_n, t))
            acc = acc + a
        else:
            cur[t] = beta - acc
            rows.append(cur)
            firings.append(t)
            left_n = cur_n
            cur_n += 1
            carry = a - (beta - acc)
            while carry >= beta:     # a frame can hold several full tokens
                rows.append({t: beta})
                firings.append(t)
                cur_n += 1
                carry -= beta
            if carry > 0.0:
                cur = {t: carry}
                direct.append((cur_n, t))
                boundary.append((t, left_n, cur_n))
                acc = carry
            else:
                cur = {}
                boundary.append((t, left_n, -1))
                acc = 0.0
    residue = acc
    weights = np.zeros((len(rows), T))
    for n, row in enumerate(rows):
        for t, w in row.items():
            weights[n, t] = w
    return weights, firings, residue, direct, boundary


def integrate_and_fire(h: Tensor, alpha: Tensor) -> FiringPlan:
    """Accumulate weights frame by frame; each threshold crossing emits one
    token embedding. The crossing frame's weight is split between the
    finishing and the opening token, and gradients flow through both shares.
    """
    T = h.data.shape[0]
    if alpha.data.shape != (T,):
        raise ShapeError(
            f"frame count mismatch: weights {alpha.data.shape} vs frames {T}")

    weights_np, firings, residue, direct, boundary = _cif_forward(alpha.data)

    n_fired = weights_np.shape[0]

    def vjp(g):
        # g is dL/dW (N x T). Interior and carry shares have slope 1 in
        # their own frame; each boundary frame contributes
        # (carry share - left share) to every earlier frame's weight.
        # Shares of the trailing unfired token are not part of W.
        ga = np.zeros(T)
        for n, t in direct:
            if n < n_fired:
                ga[t] += g[n, t]
        coeff = np.zeros(T)
        for t, left_n, carry_n in boundary:
            c = -g[left_n, t]
            if 0 <= carry_n < n_fired:
                c += g[carry_n, t]
            coeff[t] += c
        suffix = np.cumsum(coeff[::-1])[::-1] - coeff
        return (ga + suffix,)

    weights = graph_node(weights_np, (alpha,), vjp)
    embeddings = matmul(weights, h)
    return FiringPlan(firings=firings, residue=residue, embeddings=embeddings,
                      frame_weights=weights)


def scale_weights(alpha: Tensor, target_len: int) -> Tensor:
    """Rescale weights so integrate_and_fire emits exactly ``target_len``
    tokens (teacher forcing during training). The gradient flows through
    the normalizing sum."""
    if target_len < 1:
        raise ContractError(f"target_len must be >= 1, got {target_len}")
    if alpha.data.sum() <= 0.0:
        raise ContractError("degenerate weights: sum of alpha is zero")
    # the tiny bump keeps the final crossing above the threshold after
    # float rounding of the rescaled partial sums
    factor = Tensor(target_len * THRESHOLD * (1.0 + 1e-12)) / tsum(alpha)
    return alpha * factor


def mae_loss(alpha: Tensor, target_len: int) -> Tensor:
    """Absolute difference between the accumulated weight and the
    ground-truth token count."""
    if target_len < 0:
        raise ContractError(f"target_len must be >= 0, got {target_len}")
    return tabs(tsum(alpha) - float(target_len))

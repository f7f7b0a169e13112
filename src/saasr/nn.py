"""Transformer building blocks on top of the tensor engine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import (Tensor, gelu, getitem, graph_node, linear,
                     shifted_logits)

LAYER_NORM_EPS = 1e-5


@dataclass
class Parameter:
    """A named trainable tensor; names are unique within a model."""
    name: str
    tensor: Tensor


@dataclass
class AttentionConfig:
    model_dim: int
    num_heads: int
    ff_dim: int

    def __post_init__(self):
        if min(self.model_dim, self.num_heads, self.ff_dim) < 1:
            raise ConfigError(
                f"attention dims must be positive: model_dim "
                f"{self.model_dim}, num_heads {self.num_heads}, "
                f"ff_dim {self.ff_dim}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}")


class Module:
    """Container whose Tensor attributes (and sub-modules) are trainable."""

    def named_parameters(self, prefix: str = "") -> list[Parameter]:
        params = []
        for name, value in vars(self).items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor):
                if value.requires_grad:
                    params.append(Parameter(path, value))
            elif isinstance(value, Module):
                params.extend(value.named_parameters(path))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.extend(item.named_parameters(f"{path}.{i}"))
        return params

    def parameters(self) -> list[Parameter]:
        params = self.named_parameters()
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in module tree")
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.tensor.zero_grad()


def init_weight(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = init_weight(rng, in_dim, (in_dim, out_dim))
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.table = init_weight(rng, dim, (num_embeddings, dim))

    def __call__(self, ids) -> Tensor:
        return getitem(self.table, np.asarray(ids, dtype=np.intp))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match last dim of {x.data.shape}")
    x_data = x.data
    centered = x_data - x_data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True)
                  + LAYER_NORM_EPS)
    x_hat = centered / std
    out = x_hat * gain.data + bias.data
    lead = tuple(range(x_data.ndim - 1))

    def vjp(g):
        g_hat = g * gain.data
        g_x = (g_hat - g_hat.mean(axis=-1, keepdims=True)
               - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)) / std
        return (g_x, (g * x_hat).sum(axis=lead), g.sum(axis=lead))

    return graph_node(out, (x, gain, bias), vjp)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


@dataclass(frozen=True)
class Memory:
    """Keys and values already passed through one attention's key and value
    projections, made by a block's ``memory`` method, so that any number of
    queries against one source project it once."""
    k: Tensor
    v: Tensor


class MultiHeadAttention(Module):
    """Scaled dot-product attention with distinct key/value sources allowed."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.model_dim
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def _check_dims(self, **inputs: Tensor):
        d = self.cfg.model_dim
        if any(x.data.shape[-1] != d for x in inputs.values()):
            raise ShapeError(
                f"attention inputs must have model_dim {d}: " + ", ".join(
                    f"{name} {x.data.shape}" for name, x in inputs.items()))

    def memory(self, k: Tensor, v: Tensor) -> Memory:
        self._check_dims(k=k, v=v)
        return Memory(self.wk(k), self.wv(v))

    def __call__(self, q: Tensor, mem: Memory,
                 mask: np.ndarray | None = None) -> Tensor:
        """Attend from ``q`` to the keys and values of ``mem``, made by
        ``memory``."""
        self._check_dims(q=q)
        return self.wo(attention_core(self.wq(q), mem.k, mem.v,
                                      self.cfg.num_heads, mask))


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int,
                   mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over projected inputs, as one
    node: split ``q`` (lq x d), ``k`` and ``v`` (lk x d) into ``heads`` heads,
    softmax(q k^T / sqrt(d / heads) + mask) v per head, then merge the heads
    back to lq x d. ``mask`` (lq x lk) is additive and shared by all heads.
    Zero queries give a 0 x d result; zero keys give zeros."""
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.shape != k.data.shape
            or k.data.shape[1] != q.data.shape[1] or q.data.shape[1] % heads):
        raise ShapeError(
            f"attention_core needs q (lq x d), k and v (lk x d) with d "
            f"divisible by {heads} heads: q {q.data.shape}, "
            f"k {k.data.shape}, v {v.data.shape}")
    (lq, d), lk = q.data.shape, k.data.shape[0]
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)

    def split(x, length):                 # length x d -> heads x length x hd
        return x.reshape(length, heads, hd).transpose(1, 0, 2)

    # the heads x lq x lk arrays are updated in place: at long inputs they
    # dominate memory traffic, and each fresh one costs page faults
    qh, kh, vh = split(q.data, lq), split(k.data, lk), split(v.data, lk)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= scale
    if mask is not None:
        scores += mask
    att = np.exp(shifted_logits(scores, -1, "attention softmax", out=scores),
                 out=scores)
    att /= att.sum(axis=-1, keepdims=True)
    out = (att @ vh).transpose(1, 0, 2).reshape(lq, d)

    def vjp(g):
        g_ctx = split(g, lq)
        g_scores = g_ctx @ vh.transpose(0, 2, 1)
        g_scores -= (g_scores * att).sum(axis=-1, keepdims=True)
        g_scores *= att
        g_scores *= scale
        g_q = g_scores @ kh
        g_k = g_scores.transpose(0, 2, 1) @ qh
        g_v = att.transpose(0, 2, 1) @ g_ctx
        return tuple(gh.transpose(1, 0, 2).reshape(x.shape)
                     for gh, x in ((g_q, q.data), (g_k, k.data), (g_v, v.data)))

    return graph_node(out, (q, k, v), vjp)


class FeedForward(Module):
    """linear -> GELU -> linear."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.lin1 = Linear(cfg.model_dim, cfg.ff_dim, rng)
        self.lin2 = Linear(cfg.ff_dim, cfg.model_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.lin1.w.data.shape[0]:
            raise ShapeError(
                f"feed_forward expects last dim {self.lin1.w.data.shape[0]}, "
                f"got {x.data.shape}")
        return self.lin2(gelu(self.lin1(x)))


class CrossBlock(Module):
    """Cross-attention with a plain residual, then feed-forward with a plain
    residual; ``fusion``, when given, is added to the feed-forward input.
    Keys and values may come from different streams of one length. With no
    self-attention, each query row is computed on its own."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.cross_mha = MultiHeadAttention(cfg, rng)
        self.ff = FeedForward(cfg, rng)

    def memory(self, k: Tensor, v: Tensor) -> Memory:
        if k.data.shape[0] != v.data.shape[0]:
            raise ContractError(
                f"cross-attention keys and values disagree in length: "
                f"{k.data.shape[0]} vs {v.data.shape[0]}")
        return self.cross_mha.memory(k, v)

    def __call__(self, q: Tensor, mem: Memory,
                 fusion: Tensor | None = None) -> Tensor:
        """``mem`` holds the key and value streams, from ``memory``."""
        e = q + self.cross_mha(q, mem)
        ff_in = e if fusion is None else e + fusion
        return e + self.ff(ff_in)


class EncoderLayer(Module):
    """Post-norm self-attention block."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.mha = MultiHeadAttention(cfg, rng)
        self.ff = FeedForward(cfg, rng)
        self.ln1 = LayerNorm(cfg.model_dim)
        self.ln2 = LayerNorm(cfg.model_dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.ln1(x + self.mha(x, self.mha.memory(x, x)))
        return self.ln2(x + self.ff(x))


class DecoderLayer(Module):
    """Post-norm self-attention, cross-attention and feed-forward block."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.self_mha = MultiHeadAttention(cfg, rng)
        self.ln_self = LayerNorm(cfg.model_dim)
        self.cross_mha = MultiHeadAttention(cfg, rng)
        self.ff = FeedForward(cfg, rng)
        self.ln1 = LayerNorm(cfg.model_dim)
        self.ln2 = LayerNorm(cfg.model_dim)

    def memory(self, mem: Tensor) -> Memory:
        return self.cross_mha.memory(mem, mem)

    def __call__(self, x: Tensor, mem: Memory,
                 self_mask: np.ndarray | None = None,
                 query_rows: slice | None = None) -> Tensor:
        """``mem`` is the encoder output's ``Memory`` from ``memory``.
        ``query_rows`` computes only those rows of the output; every row of
        ``x`` is still a key and value of the self-attention."""
        q = x
        if query_rows is not None:
            q = getitem(x, query_rows)
            if self_mask is not None:
                self_mask = self_mask[query_rows]
        q = self.ln_self(q + self.self_mha(q, self.self_mha.memory(x, x),
                                           mask=self_mask))
        q = self.ln1(q + self.cross_mha(q, mem))
        return self.ln2(q + self.ff(q))


# one read-only position table per model dim and one causal mask, each grown
# to the longest length asked for; every row is computed on its own, so a
# slice equals a table built at that length
_POSITIONS: dict = {}
_CAUSAL = np.zeros((0, 0))


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position table (length x dim), read-only."""
    table = _POSITIONS.get(dim)
    if table is None or table.shape[0] < length:
        rows = length if table is None else max(length, 2 * table.shape[0])
        pos = np.arange(rows, dtype=np.float64)[:, None]
        i = np.arange(dim, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        table.flags.writeable = False
        _POSITIONS[dim] = table
    return table[:length]


def causal_mask(length: int) -> np.ndarray:
    """Additive mask blocking attention to future positions, read-only."""
    global _CAUSAL
    if _CAUSAL.shape[0] < length:
        rows = max(length, 2 * _CAUSAL.shape[0])
        mask = np.zeros((rows, rows))
        mask[np.triu_indices(rows, k=1)] = -1e9
        mask.flags.writeable = False
        _CAUSAL = mask
    return _CAUSAL[:length, :length]

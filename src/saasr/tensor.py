"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the model lives in a ``Tensor``. Ops build a computation
graph when gradients are enabled; ``Tensor.backward()`` walks it in reverse
topological order and accumulates ``grad`` buffers on every reachable
tensor that requires one. A single graph is single-writer: do not run two
backward passes over shared nodes concurrently.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite diffs)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` of every reachable requires_grad tensor."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(node.grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pgrad

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def graph_node(data, parents, vjp) -> Tensor:
    """Create an op output; records the edge only while grads are enabled.

    ``vjp(out_grad)`` must return one gradient (or None) per parent, each
    already reduced to the parent's shape.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return graph_node(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return graph_node(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return graph_node(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return graph_node(out, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.data.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return graph_node(-a.data, (a,), lambda g: (-g,))


# -- linear algebra ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D or identically batched 3-D operands."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2] or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)

    return graph_node(out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: ``x`` (n x i), ``w`` (i x o), ``b`` (o,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(
            f"linear bias shape {b.data.shape} does not match {w.data.shape}")
    out = x.data @ w.data + b.data
    return graph_node(out, (x, w, b), lambda g: (
        g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))
    return graph_node(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return graph_node(out, (a,), lambda g: (g.reshape(a.data.shape),))


def getitem(a: Tensor, idx) -> Tensor:
    out = a.data[idx]

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return graph_node(out, (a,), vjp)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return graph_node(out, tuple(tensors), vjp)


# -- reductions ----------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return graph_node(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.data.shape).copy(),)

    return graph_node(out, (a,), vjp)


# -- pointwise nonlinearities ---------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return graph_node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    return graph_node(out, (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return graph_node(out, (a,), lambda g: (g * 0.5 / out,))


def tabs(a: Tensor) -> Tensor:
    out = np.abs(a.data)
    return graph_node(out, (a,), lambda g: (g * np.sign(a.data),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return graph_node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    # evaluated via |x| so neither branch overflows
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return graph_node(out, (a,), lambda g: (g * out * (1.0 - out),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GELU."""
    x = a.data
    x2 = x * x
    # x * x * x, not x ** 3: numpy's elementwise pow is ~40x slower
    t = np.tanh(_GELU_C * (x + 0.044715 * x2 * x))
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return graph_node(out, (a,), vjp)


def shifted_logits(x: np.ndarray, axis: int, op: str,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``x`` minus its max along ``axis`` (empty ``x`` as is), after
    rejecting non-finite input; written to ``out`` when given."""
    if not np.all(np.isfinite(x)):
        raise ContractError(f"{op} input contains non-finite values")
    if x.size == 0:
        return x
    return np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax; every slice along ``axis`` sums to 1."""
    e = np.exp(shifted_logits(x.data, axis, "softmax"))
    out = e / e.sum(axis=axis, keepdims=True)
    return graph_node(out, (x,), lambda g: (
        out * (g - (g * out).sum(axis=axis, keepdims=True)),))


def log_softmax(x: Tensor, axis: int) -> Tensor:
    shift = shifted_logits(x.data, axis, "log_softmax")
    e = np.exp(shift)
    total = e.sum(axis=axis, keepdims=True)
    out = shift - np.log(total)
    return graph_node(out, (x,), lambda g: (
        g - e / total * g.sum(axis=axis, keepdims=True),))


def clip_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise maximum with a constant floor."""
    out = np.maximum(a.data, lo)
    return graph_node(out, (a,), lambda g: (g * (a.data > lo),))


# -- gradient checking -----------------------------------------------------

GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_FLOOR = 1e-2


@dataclass
class GradCheckReport:
    """Max relative finite-difference error per parameter."""
    tolerance: float
    errors: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.errors.values())

    @property
    def worst(self) -> float:
        return max(self.errors.values(), default=0.0)


def grad_check(function, parameters, tolerance: float = 1e-5,
               max_probes: int | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``function()`` to central differences
    of step ``GRAD_CHECK_STEP``.

    ``function`` must be deterministic and return a scalar Tensor built from
    ``parameters`` (a sequence of objects with ``name`` and ``tensor``).
    When ``max_probes`` is set, at most that many elements per parameter,
    drawn by a generator seeded with 0, are probed; otherwise every element
    is. Errors are relative to the larger of the two values, floored at
    ``GRAD_CHECK_FLOOR`` so that noise-level gradient components do not
    dominate the report.
    """
    report = GradCheckReport(tolerance=tolerance)
    if not parameters:
        return report

    with no_grad():
        v1 = function().item()
        v2 = function().item()
    if v1 != v2:
        raise ContractError(
            f"grad_check aborted: function is not deterministic ({v1} != {v2})")

    for p in parameters:
        p.tensor.zero_grad()
    function().backward()
    analytic = {p.name: (np.zeros_like(p.tensor.data) if p.tensor.grad is None
                         else p.tensor.grad.copy())
                for p in parameters}

    rng = np.random.default_rng(0)
    for p in parameters:
        flat = p.tensor.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_probes is not None and flat.size > max_probes:
            idxs = rng.choice(flat.size, size=max_probes, replace=False)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + GRAD_CHECK_STEP
                f_plus = function().item()
                flat[i] = orig - GRAD_CHECK_STEP
                f_minus = function().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            a = analytic[p.name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), GRAD_CHECK_FLOOR)
            worst = max(worst, abs(a - numeric) / denom)
        report.errors[p.name] = worst
    return report

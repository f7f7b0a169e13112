"""Autodiff engine: values against independent oracles, gradients against
central finite differences."""

import numpy as np
import pytest

from saasr.errors import ContractError, ShapeError
from saasr.nn import Parameter
from saasr.tensor import (Tensor, concat, getitem, grad_check, log_softmax,
                          matmul, no_grad, softmax, tabs, tmean, tsum)


def fd_grad(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


# -- matmul ----------------------------------------------------------------

def test_matmul_identity():
    m = Tensor([[3.0, -1.0], [2.5, 7.0]])
    out = matmul(Tensor(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a_data = rng.uniform(-1, 1, (3, 4))
    b_data = rng.uniform(-1, 1, (4, 2))

    a = Tensor(a_data.copy(), requires_grad=True)
    loss = tsum(matmul(a, Tensor(b_data)))
    loss.backward()

    def f(x):
        with no_grad():
            return tsum(matmul(Tensor(x), Tensor(b_data))).item()

    assert rel_err(a.grad, fd_grad(f, a_data.copy())) < 1e-6


# -- softmax ----------------------------------------------------------------

def test_softmax_uniform_on_zeros():
    out = softmax(Tensor(np.zeros(4)), axis=0)
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_large_margin():
    out = softmax(Tensor([100.0, 0.0, 0.0]), axis=0)
    assert abs(out.data[0] - 1.0) < 1e-10
    assert out.data[1] < 1e-10 and out.data[2] < 1e-10


def test_softmax_matches_extended_precision_oracle():
    # frozen from a 60-digit Decimal evaluation of exp(x_i)/sum exp(x_j)
    expected = [0.5611042381161665, 0.2521203860745199, 0.1867753758093136]
    out = softmax(Tensor([0.9, 0.1, -0.2]), axis=0)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-5, 5, (6, 9)))
    out = softmax(x, axis=1)
    assert np.all(out.data > 0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_rejects_non_finite():
    with pytest.raises(ContractError):
        softmax(Tensor([np.nan, 0.0]), axis=0)


# -- backward ----------------------------------------------------------------

def test_backward_sum_of_squares():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    loss = tsum(x * x)
    loss.backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-15)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_gradient_accumulates_over_reuse():
    x = Tensor([1.5], requires_grad=True)
    loss = tsum(x * x + x)
    loss.backward()
    assert np.allclose(x.grad, [2 * 1.5 + 1])


def test_two_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(11)
    w1_data = rng.uniform(-1, 1, (4, 5))
    w2_data = rng.uniform(-1, 1, (5, 2))
    x_data = rng.uniform(-1, 1, (3, 4))

    def forward(w1d, w2d):
        h = matmul(Tensor(x_data), Tensor(w1d, requires_grad=True))
        from saasr.tensor import tanh
        return tsum(matmul(tanh(h), Tensor(w2d, requires_grad=True)))

    w1 = Tensor(w1_data.copy(), requires_grad=True)
    w2 = Tensor(w2_data.copy(), requires_grad=True)
    from saasr.tensor import tanh
    loss = tsum(matmul(tanh(matmul(Tensor(x_data), w1)), w2))
    loss.backward()

    def f1(w):
        with no_grad():
            return forward(w, w2_data).item()

    def f2(w):
        with no_grad():
            return forward(w1_data, w).item()

    assert rel_err(w1.grad, fd_grad(f1, w1_data.copy())) < 1e-4
    assert rel_err(w2.grad, fd_grad(f2, w2_data.copy())) < 1e-4


# -- primitive op gradient sweep ---------------------------------------------

@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "div", "exp", "log", "sqrt", "abs", "tanh",
    "sigmoid", "gelu", "sum", "mean", "getitem", "concat", "softmax",
    "log_softmax", "transpose", "reshape",
])
def test_primitive_gradients_match_finite_differences(name):
    from saasr import tensor as T
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x_data = rng.uniform(-1, 1, (3, 4))
    y_data = rng.uniform(-1, 1, (3, 4))
    if name in ("log", "sqrt"):
        x_data = np.abs(x_data) + 0.5
    if name == "div":
        y_data = np.sign(y_data) * (np.abs(y_data) + 0.5)

    def build_with(t):
        x_local = t
        y_local = Tensor(y_data)
        out = {
            "add": lambda: x_local + y_local,
            "sub": lambda: x_local - y_local,
            "mul": lambda: x_local * y_local,
            "div": lambda: x_local / y_local,
            "exp": lambda: T.exp(x_local),
            "log": lambda: T.log(x_local),
            "sqrt": lambda: T.sqrt(x_local),
            "abs": lambda: tabs(x_local),
            "tanh": lambda: T.tanh(x_local),
            "sigmoid": lambda: T.sigmoid(x_local),
            "gelu": lambda: T.gelu(x_local),
            "sum": lambda: tsum(x_local, axis=1),
            "mean": lambda: tmean(x_local, axis=0),
            "getitem": lambda: getitem(
                x_local, (np.array([0, 2, 2]), np.array([1, 3, 3]))),
            "concat": lambda: concat([x_local, x_local * y_local], axis=1),
            "softmax": lambda: softmax(x_local, axis=1),
            "log_softmax": lambda: log_softmax(x_local, axis=1),
            "transpose": lambda: T.transpose(x_local) * Tensor(y_data.T),
            "reshape": lambda: T.reshape(x_local, (2, 6)),
        }[name]()
        return tsum(out * out)  # squares make every output element matter

    tracked = Tensor(x_data.copy(), requires_grad=True)
    build_with(tracked).backward()

    def f(xd):
        with no_grad():
            return build_with(Tensor(xd)).item()

    assert rel_err(tracked.grad, fd_grad(f, x_data.copy())) < 1e-5


# -- grad_check --------------------------------------------------------------

def test_grad_check_quadratic_bowl():
    w = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)

    def loss():
        return tsum(w * w)

    report = grad_check(loss, [Parameter("w", w)], tolerance=1e-8)
    assert report.passed
    assert report.errors["w"] < 1e-8


def test_grad_check_zero_parameters():
    report = grad_check(lambda: Tensor(1.0), [])
    assert report.passed
    assert report.errors == {}


def test_grad_check_aborts_on_nondeterminism():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0}

    def loss():
        state["n"] += 1
        return tsum(w * float(state["n"]))

    with pytest.raises(ContractError, match="deterministic"):
        grad_check(loss, [Parameter("w", w)])

"""Integrate-and-fire against an independently written sequential oracle."""

import numpy as np
import pytest

from saasr.cif import (WeightPredictor, integrate_and_fire,
                       mae_loss, scale_weights)
from saasr.errors import ContractError, ShapeError
from saasr.nn import Parameter
from saasr.tensor import Tensor, grad_check, tsum


def cif_oracle(alpha, beta):
    """Sequential accumulation, written independently of the module."""
    tokens, firings, cur, acc = [], [], {}, 0.0
    for t, a in enumerate(alpha):
        if acc + a >= beta:
            need = beta - acc
            cur[t] = need
            tokens.append(cur)
            firings.append(t)
            rem = a - need
            while rem >= beta:
                tokens.append({t: beta})
                firings.append(t)
                rem -= beta
            cur = {t: rem} if rem > 0 else {}
            acc = rem if rem > 0 else 0.0
        else:
            cur[t] = a
            acc += a
    return tokens, firings, acc


def oracle_matrix(tokens, t_len):
    w = np.zeros((len(tokens), t_len))
    for n, row in enumerate(tokens):
        for t, v in row.items():
            w[n, t] = v
    return w


# -- predictor ----------------------------------------------------------------

def test_predictor_zero_parameters_gives_half():
    pred = WeightPredictor(6, np.random.default_rng(0))
    pred.proj.w.data[:] = 0.0
    w = pred(Tensor(np.random.default_rng(1).uniform(-1, 1, (5, 6))))
    assert np.allclose(w.data, 0.5, atol=1e-15)


@pytest.mark.parametrize("t_len", [1, 7, 100])
def test_predictor_output_length(t_len):
    pred = WeightPredictor(4, np.random.default_rng(2))
    w = pred(Tensor(np.random.default_rng(3).uniform(-1, 1, (t_len, 4))))
    assert w.data.shape == (t_len,)
    assert np.all((w.data >= 0) & (w.data <= 1))


def test_predictor_gradient():
    rng = np.random.default_rng(4)
    pred = WeightPredictor(4, rng)
    h = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)

    def loss():
        w = pred(h)
        return tsum(w * w)

    report = grad_check(loss, pred.named_parameters("pred") + [Parameter("h", h)],
                        tolerance=1e-5)
    assert report.passed, str(report)


# -- integrate and fire ---------------------------------------------------------

def test_fire_spec_sequence():
    h = Tensor(np.eye(4))
    plan = integrate_and_fire(h, Tensor([0.6, 0.5, 0.9, 1.0]))
    assert plan.firings == [1, 2, 3]
    assert plan.residue == 0.0
    assert plan.num_fired == 3
    expected = np.array([[0.6, 0.4, 0.0, 0.0],
                         [0.0, 0.1, 0.9, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    assert np.allclose(plan.frame_weights.data, expected, atol=1e-12)
    assert np.allclose(plan.embeddings.data, expected, atol=1e-12)  # h is I


def test_fire_all_zero_weights():
    plan = integrate_and_fire(Tensor(np.ones((3, 2))),
                              Tensor([0.0, 0.0, 0.0]))
    assert plan.num_fired == 0
    assert plan.embeddings.data.shape == (0, 2)
    assert plan.residue == 0.0


def test_fire_single_full_frame():
    h = Tensor([[2.0, -1.0]])
    plan = integrate_and_fire(h, Tensor([1.0]))
    assert plan.firings == [0]
    assert np.array_equal(plan.embeddings.data, h.data)


def test_fire_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(10)
    for _ in range(300):
        t_len = int(rng.integers(1, 40))
        alpha = rng.uniform(0, 1, t_len)
        plan = integrate_and_fire(Tensor(np.ones((t_len, 1))),
                                  Tensor(alpha))
        tokens, firings, residue = cif_oracle(alpha, 1.0)
        assert plan.firings == firings
        assert plan.residue == residue
        assert np.array_equal(plan.frame_weights.data,
                              oracle_matrix(tokens, t_len))


def test_fire_conserves_weight_and_row_sums():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t_len = int(rng.integers(1, 30))
        alpha = rng.uniform(0, 1, t_len)
        plan = integrate_and_fire(Tensor(np.ones((t_len, 2))),
                                  Tensor(alpha))
        w = plan.frame_weights.data
        assert np.all(w >= 0)
        if plan.num_fired:
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-9
        consumed = w.sum() + plan.residue
        assert abs(consumed - alpha.sum()) < 1e-9


def test_fire_gradient_through_weights_and_frames():
    rng = np.random.default_rng(12)
    t_len = 9
    alpha0 = rng.uniform(0.05, 0.95, t_len)
    h = Tensor(rng.uniform(-1, 1, (t_len, 3)), requires_grad=True)
    alpha = Tensor(alpha0.copy(), requires_grad=True)
    probe = rng.uniform(-1, 1, (int(np.floor(alpha0.sum())), 3))

    def loss():
        plan = integrate_and_fire(h, alpha)
        return tsum(plan.embeddings * Tensor(probe))

    report = grad_check(loss, [Parameter("alpha", alpha), Parameter("h", h)],
                        tolerance=1e-5)
    assert report.passed, str(report)


def test_fire_length_mismatch():
    with pytest.raises(ShapeError):
        integrate_and_fire(Tensor(np.ones((3, 2))),
                           Tensor([0.5, 0.5]))


# -- scaling -------------------------------------------------------------------

def test_scale_weights_hits_target_sum():
    w = Tensor([1.0, 1.0, 1.0, 1.2])  # sums to 4.2
    scaled = scale_weights(w, 5)
    assert abs(scaled.data.sum() - 5.0) < 1e-9


def test_scale_weights_integral_sum_unchanged():
    w = Tensor([0.5, 0.5, 1.0, 1.0])  # sums to 3.0
    scaled = scale_weights(w, 3)
    assert np.allclose(scaled.data, w.data, atol=1e-11)


def test_scale_weights_firing_count_equals_target():
    rng = np.random.default_rng(13)
    for _ in range(100):
        t_len = int(rng.integers(2, 50))
        alpha = rng.uniform(0.01, 1, t_len)
        target = int(rng.integers(1, max(2, t_len)))
        scaled = scale_weights(Tensor(alpha), target)
        plan = integrate_and_fire(Tensor(np.ones((t_len, 1))), scaled)
        assert plan.num_fired == target


def test_scale_weights_degenerate():
    with pytest.raises(ContractError, match="degenerate"):
        scale_weights(Tensor([0.0, 0.0]), 2)


# -- quantity loss ----------------------------------------------------------------

def test_mae_loss_value():
    w = Tensor([1.0, 1.0, 1.0, 1.2])
    assert abs(mae_loss(w, 5).item() - 0.8) < 1e-12


def test_mae_loss_zero_at_match():
    w = Tensor([2.0, 3.0])
    assert mae_loss(w, 5).item() == 0.0


def test_mae_loss_gradient_is_signed_unit():
    alpha = Tensor([1.0, 1.0, 1.2], requires_grad=True)  # sum 3.2 < 5
    mae_loss(alpha, 5).backward()
    assert np.allclose(alpha.grad, -1.0)
    alpha2 = Tensor([3.0, 3.0], requires_grad=True)  # sum 6 > 5
    mae_loss(alpha2, 5).backward()
    assert np.allclose(alpha2.grad, 1.0)

"""Loss functions; CTC is checked against exhaustive alignment enumeration."""

import itertools
import math

import numpy as np
import pytest

from saasr.errors import ConfigError, ContractError
from saasr.losses import (CTC_INFEASIBLE_PENALTY, LossWeights, ce_loss,
                          composite_loss, ctc_loss,
                          ctc_min_frames, speaker_loss)
from saasr.nn import Parameter
from saasr.tensor import Tensor, grad_check


def log_probs(logits):
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def ctc_enumeration_oracle(logits, target, blank):
    """Sum the probability of every frame labeling that collapses to the
    target (repeats merged, then blanks removed)."""
    logp = log_probs(np.asarray(logits, dtype=np.float64))
    t_len, width = logp.shape
    total = 0.0
    for path in itertools.product(range(width), repeat=t_len):
        collapsed = []
        prev = None
        for s in path:
            if s != prev and s != blank:
                collapsed.append(s)
            prev = s
        if collapsed == list(target):
            total += math.exp(sum(logp[t, path[t]] for t in range(t_len)))
    return -math.log(total) if total > 0 else math.inf


# -- cross entropy -------------------------------------------------------------

def test_ce_uniform_logits():
    loss = ce_loss(Tensor(np.zeros((3, 4))), [0, 2, 3])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_ce_large_margin_goes_to_zero():
    logits = np.zeros((2, 5))
    logits[0, 1] = 200.0
    logits[1, 4] = 200.0
    assert ce_loss(Tensor(logits), [1, 4]).item() < 1e-12


def test_ce_empty_is_zero():
    assert ce_loss(Tensor(np.zeros((0, 4))), []).item() == 0.0


def test_ce_gradient():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
    targets = [1, 0, 4, 2]

    def loss():
        return ce_loss(logits, targets)

    report = grad_check(loss, [Parameter("logits", logits)], tolerance=1e-6)
    assert report.passed, str(report)


# -- CTC ---------------------------------------------------------------------------

def test_ctc_single_frame_single_label():
    rng = np.random.default_rng(1)
    logits = rng.uniform(-1, 1, (1, 4))  # vocab 3 + blank
    loss = ctc_loss(Tensor(logits), [2])
    expected = -log_probs(logits)[0, 2]
    assert abs(loss.item() - expected) < 1e-12


def test_ctc_empty_target_is_all_blank_path():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-1, 1, (4, 3))
    loss = ctc_loss(Tensor(logits), [])
    expected = -log_probs(logits)[:, 2].sum()
    assert abs(loss.item() - expected) < 1e-10


def test_ctc_matches_enumeration_oracle_small_case():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-2, 2, (3, 4))  # T=3, V=3 + blank
    target = [0, 1]
    loss = ctc_loss(Tensor(logits), target)
    expected = ctc_enumeration_oracle(logits, target, blank=3)
    assert abs(loss.item() - expected) < 1e-8


def test_ctc_matches_enumeration_oracle_random_sweep():
    rng = np.random.default_rng(4)
    for _ in range(60):
        t_len = int(rng.integers(1, 7))
        vocab = int(rng.integers(1, 5))
        l_len = int(rng.integers(0, 4))
        target = list(rng.integers(0, vocab, size=l_len))
        logits = rng.uniform(-2, 2, (t_len, vocab + 1))
        loss = ctc_loss(Tensor(logits), target)
        expected = ctc_enumeration_oracle(logits, target, blank=vocab)
        if math.isinf(expected):
            assert math.isinf(loss.item())
        else:
            assert abs(loss.item() - expected) < 1e-8


def test_ctc_infeasible_returns_infinite_loss_not_crash():
    logits = Tensor(np.zeros((2, 4)))
    loss = ctc_loss(logits, [1, 1, 2])  # needs at least 4 frames
    assert math.isinf(loss.item())
    assert CTC_INFEASIBLE_PENALTY < math.inf


def test_ctc_min_frames_counts_repeats():
    assert ctc_min_frames([1, 2, 3]) == 3
    assert ctc_min_frames([1, 1, 2]) == 4
    assert ctc_min_frames([]) == 0


def test_ctc_rejects_blank_in_target():
    with pytest.raises(ContractError):
        ctc_loss(Tensor(np.zeros((3, 4))), [0, 3])


def test_ctc_gradient():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)

    def loss():
        return ctc_loss(logits, [0, 2])

    report = grad_check(loss, [Parameter("logits", logits)], tolerance=1e-4)
    assert report.passed, str(report)


def test_ctc_gradient_with_repeats():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)

    def loss():
        return ctc_loss(logits, [1, 1, 2])

    report = grad_check(loss, [Parameter("logits", logits)], tolerance=1e-4)
    assert report.passed, str(report)


# -- speaker loss ------------------------------------------------------------------

def test_speaker_loss_singleton_inventory_is_zero():
    scores = Tensor([[0.7], [0.2]])
    assert abs(speaker_loss(scores, [0, 0], 1).item()) < 1e-12


def test_speaker_loss_equal_scores_analytic():
    scores = Tensor(np.full((3, 4), 0.1))
    loss = speaker_loss(scores, [0, 1, 3], 4)
    assert abs(loss.item() - 3 * math.log(4)) < 1e-12


def test_speaker_loss_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    b = rng.uniform(-1, 1, (2, 3))
    idx = [2, 0]
    expected = 0.0
    for n in range(2):
        z = sum(math.exp(v) for v in b[n])
        expected += -math.log(math.exp(b[n, idx[n]]) / z)
    loss = speaker_loss(Tensor(b), idx, 3)
    assert abs(loss.item() - expected) < 1e-10


def test_speaker_loss_decreases_when_true_score_rises():
    b = np.array([[0.1, 0.4, -0.3]])
    low = speaker_loss(Tensor(b), [0], 3).item()
    b2 = b.copy()
    b2[0, 0] += 0.5
    high = speaker_loss(Tensor(b2), [0], 3).item()
    assert high < low


def test_speaker_loss_rejects_filled_target():
    # two profile columns, then one filled-in column
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="filled"):
        speaker_loss(b, [0, 2], 2)


def test_speaker_loss_empty_is_zero():
    assert speaker_loss(Tensor(np.zeros((0, 3))), [], 3).item() == 0.0


def test_speaker_loss_gradient():
    rng = np.random.default_rng(12)
    b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

    def loss():
        return speaker_loss(b, [1, 0, 3], 4)

    report = grad_check(loss, [Parameter("b", b)], tolerance=1e-6)
    assert report.passed, str(report)


# -- composite ----------------------------------------------------------------------

def unit_parts():
    return dict(mae=Tensor(1.0), ctc=Tensor(1.0), inter_ctc=Tensor(1.0),
                ce=Tensor(1.0), speaker=Tensor(1.0))


def test_composite_with_reference_weights():
    out = composite_loss(weights=LossWeights(0.3, 0.3), **unit_parts())
    assert abs(out.total.item() - 3.0) < 1e-12


def test_composite_all_zero():
    parts = {k: Tensor(0.0) for k in ("mae", "ctc", "inter_ctc", "ce", "speaker")}
    out = composite_loss(weights=LossWeights(0.3, 0.3), **parts)
    assert out.total.item() == 0.0


def test_composite_lambda2_zero_reduces_to_four_terms():
    parts = dict(mae=Tensor(0.5), ctc=Tensor(2.0), inter_ctc=Tensor(77.0),
                 ce=Tensor(1.5), speaker=Tensor(0.25))
    out = composite_loss(weights=LossWeights(0.3, 0.0), **parts)
    expected = 0.5 + 0.3 * 2.0 + 0.7 * 1.5 + 0.25
    assert abs(out.total.item() - expected) < 1e-12


def test_composite_linear_in_each_part():
    base = composite_loss(weights=LossWeights(0.3, 0.3), **unit_parts())
    for name, coeff in [("mae", 1.0), ("ctc", 0.3), ("inter_ctc", 0.3),
                        ("ce", 0.4), ("speaker", 1.0)]:
        parts = unit_parts()
        parts[name] = Tensor(2.0)
        bumped = composite_loss(weights=LossWeights(0.3, 0.3), **parts)
        assert abs((bumped.total.item() - base.total.item()) - coeff) < 1e-10


def test_composite_total_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        vals = rng.uniform(0, 3, 5)
        w = LossWeights(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)))
        parts = dict(zip(("mae", "ctc", "inter_ctc", "ce", "speaker"),
                         (Tensor(v) for v in vals)))
        out = composite_loss(weights=w, **parts)
        expected = (vals[0] + w.lambda1 * vals[1] + w.lambda2 * vals[2]
                    + (1 - w.lambda1 - w.lambda2) * vals[3] + vals[4])
        assert abs(out.total.item() - expected) < 1e-10


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        LossWeights(0.6, 0.6)
    with pytest.raises(ConfigError):
        LossWeights(-0.1, 0.3)

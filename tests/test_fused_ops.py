"""Fused single-node ops against the compositions of primitive ops they
replaced, kept here as the reference: values and VJPs agree to 1e-12."""

import math

import numpy as np
import pytest

from saasr.data import SynthSpec, generate_dataset
from saasr.errors import ContractError, ShapeError
from saasr.losses import LossWeights
from saasr.model import ModelConfig, SaAsrModel
from saasr.nn import AttentionConfig, attention_core, causal_mask, layer_norm
from saasr.tensor import (Tensor, exp, gelu, linear, log, log_softmax, matmul,
                          reshape, softmax, sqrt, tmean, transpose, tsum)
from saasr.training import TrainConfig, prepare_batch_items, session_losses

TOL = 1e-12


# -- the replaced compositions ------------------------------------------------

def _stabilizer(x, axis):
    if x.data.size == 0:
        shape = list(x.data.shape)
        shape[axis] = 1
        return Tensor(np.zeros(shape))
    return Tensor(np.max(x.data, axis=axis, keepdims=True))


def ref_softmax(x, axis):
    e = exp(x - _stabilizer(x, axis))
    return e / tsum(e, axis=axis, keepdims=True)


def ref_log_softmax(x, axis):
    shift = x - _stabilizer(x, axis)
    return shift - log(tsum(exp(shift), axis=axis, keepdims=True))


def ref_linear(x, w, b):
    return matmul(x, w) + b


def ref_layer_norm(x, gain, bias, eps=1e-5):
    centered = x - tmean(x, axis=-1, keepdims=True)
    var = tmean(centered * centered, axis=-1, keepdims=True)
    return centered / sqrt(var + eps) * gain + bias


def ref_attention_core(q, k, v, heads, mask=None):
    (lq, d), lk = q.data.shape, k.data.shape[0]
    hd = d // heads

    def split(x, length):
        return transpose(reshape(x, (length, heads, hd)), (1, 0, 2))

    qh, kh, vh = split(q, lq), split(k, lk), split(v, lk)
    scores = matmul(qh, transpose(kh, (0, 2, 1))) * (1.0 / np.sqrt(hd))
    if mask is not None:
        scores = scores + Tensor(mask)
    ctx = matmul(ref_softmax(scores, axis=-1), vh)
    return reshape(transpose(ctx, (1, 0, 2)), (lq, d))


# -- comparison ----------------------------------------------------------------

def value_and_grads(fn, inputs, probe):
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    tsum(out * Tensor(probe)).backward()
    return out.data.copy(), [t.grad.copy() for t in inputs]


def assert_matches_reference(fused, reference, shapes, seed=0):
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
    out_shape = reference(*inputs).data.shape
    probe = rng.uniform(-1, 1, out_shape)
    got, got_grads = value_and_grads(fused, inputs, probe)
    want, want_grads = value_and_grads(reference, inputs, probe)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w), initial=0.0) <= TOL


@pytest.mark.parametrize("shape,axis", [((4, 7), 1), ((4, 7), 0),
                                        ((3, 4, 5), -1), ((0, 5), 1)])
def test_softmax_matches_composition(shape, axis):
    assert_matches_reference(lambda x: softmax(x, axis),
                             lambda x: ref_softmax(x, axis), [shape])


@pytest.mark.parametrize("shape,axis", [((4, 7), 1), ((4, 7), 0),
                                        ((3, 4, 5), -1), ((0, 5), 1)])
def test_log_softmax_matches_composition(shape, axis):
    assert_matches_reference(lambda x: log_softmax(x, axis),
                             lambda x: ref_log_softmax(x, axis), [shape])


@pytest.mark.parametrize("n", [5, 1, 0])
def test_linear_matches_composition(n):
    assert_matches_reference(linear, ref_linear, [(n, 6), (6, 3), (3,)])


@pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6), (0, 6)])
def test_layer_norm_matches_composition(shape):
    assert_matches_reference(layer_norm, ref_layer_norm,
                             [shape, shape[-1:], shape[-1:]])


@pytest.mark.parametrize("lq,lk,causal", [(4, 4, False), (4, 4, True),
                                          (3, 6, False), (1, 1, True),
                                          (0, 5, False), (0, 0, True),
                                          (3, 0, False)])
def test_attention_core_matches_composition(lq, lk, causal):
    mask = causal_mask(lq) if causal else None
    assert_matches_reference(
        lambda q, k, v: attention_core(q, k, v, 2, mask),
        lambda q, k, v: ref_attention_core(q, k, v, 2, mask),
        [(lq, 8), (lk, 8), (lk, 8)])


def test_gelu_matches_cubic_formula():
    rng = np.random.default_rng(3)
    x_data = rng.uniform(-4, 4, (6, 9))
    x = Tensor(x_data, requires_grad=True)
    probe = rng.uniform(-1, 1, x_data.shape)
    tsum(gelu(x) * Tensor(probe)).backward()
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x_data + 0.044715 * x_data ** 3))
    want = 0.5 * x_data * (1.0 + t)
    d_inner = c * (1.0 + 3 * 0.044715 * x_data ** 2)
    want_grad = probe * (0.5 * (1.0 + t)
                         + 0.5 * x_data * (1.0 - t * t) * d_inner)
    assert np.max(np.abs(gelu(x).data - want)) <= TOL
    assert np.max(np.abs(x.grad - want_grad)) <= TOL


# -- input checks ----------------------------------------------------------------

def test_attention_core_rejects_non_finite_scores():
    q = Tensor(np.full((2, 4), np.inf))
    with pytest.raises(ContractError):
        attention_core(q, q, q, 2)


def test_attention_core_rejects_bad_shapes():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        attention_core(x, x, Tensor(np.ones((2, 4))), 2)   # k/v lengths
    with pytest.raises(ShapeError):
        attention_core(x, Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))), 2)
    with pytest.raises(ShapeError):
        attention_core(x, x, x, 3)                          # 4 % 3 heads


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))),
               Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))),
               Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 2))),
               Tensor(np.zeros(2)))


def test_log_softmax_rejects_non_finite():
    with pytest.raises(ContractError):
        log_softmax(Tensor([0.0, np.nan]), axis=0)


# -- graph size --------------------------------------------------------------------

def test_one_training_session_builds_at_most_200_op_nodes():
    """Acceptance-6 data and model: one session's composite loss."""
    spec = SynthSpec(num_sessions=16, speakers_per_session=(2, 3),
                     vocab_size=40, tokens_per_utterance=(5, 8),
                     frames_per_token=(2, 4), overlap_ratio_target=0.42,
                     feature_dim=16, noise_std=0.05, seed=1)
    model_cfg = ModelConfig(vocab_size=40, feature_dim=16,
                            attn=AttentionConfig(32, 4, 64), encoder_layers=2,
                            decoder_layers=2, speaker_encoder_layers=2,
                            d_spk=16, inter_ctc_layer=1,
                            sampling_factor_lambda=1.1)
    cfg = TrainConfig(model=model_cfg, loss=LossWeights(0.3, 0.3), seed=0,
                      fill_speakers_enabled=True, interfering_m=2)
    items = prepare_batch_items(generate_dataset(spec), cfg)
    fill_to = max(it.inventory.size for it in items) + 1
    breakdown, _ = session_losses(SaAsrModel(model_cfg, seed=0), items[0],
                                  cfg.loss, fill_to)
    seen, stack, nodes = set(), [breakdown.total], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._vjp is not None
            stack.extend(t._parents)
    assert 0 < nodes <= 200

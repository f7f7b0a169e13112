"""Transformer blocks: collapse cases, scalar oracles, gradient checks."""

import math

import numpy as np
import pytest

from saasr.errors import ConfigError, ContractError, ShapeError
from saasr.nn import (AttentionConfig, CrossBlock, DecoderLayer, EncoderLayer,
                      FeedForward, LayerNorm, Linear, Module,
                      MultiHeadAttention, causal_mask, layer_norm,
                      positional_encoding)
from saasr.tensor import Tensor, grad_check, tsum


def make_cfg(d=8, heads=2, ff=16):
    return AttentionConfig(model_dim=d, num_heads=heads, ff_dim=ff)


def test_attention_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        AttentionConfig(model_dim=10, num_heads=4, ff_dim=16)


def test_layer_norm_constant_input_is_zero_before_affine():
    x = Tensor(np.full((2, 5), 3.7))
    out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    # variance is zero; epsilon keeps it finite
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_matches_direct_formula():
    # frozen from (x - mean) / sqrt(var + 1e-5) computed by hand
    expected = [-1.2247356859083902, 0.0, 1.2247356859083902]
    out = layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)),
                     Tensor(np.zeros(3)))
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_layer_norm_gradient():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 6), requires_grad=True)

    def loss():
        out = layer_norm(x, gain, bias)
        return tsum(out * out)

    from saasr.nn import Parameter
    report = grad_check(loss, [Parameter("x", x), Parameter("g", gain),
                               Parameter("b", bias)], tolerance=1e-5)
    assert report.passed, str(report)


def scalar_attention_oracle(q, k, v, wq, wk, wv, wo, num_heads):
    """Plain-loop multi-head attention over 2-D numpy arrays."""
    d = q.shape[1]
    hd = d // num_heads
    qp, kp, vp = q @ wq, k @ wk, v @ wv
    out = np.zeros((q.shape[0], d))
    for h in range(num_heads):
        sl = slice(h * hd, (h + 1) * hd)
        for i in range(q.shape[0]):
            scores = []
            for j in range(k.shape[0]):
                scores.append(sum(qp[i, sl] * kp[j, sl]) / math.sqrt(hd))
            m = max(scores)
            ws = [math.exp(s - m) for s in scores]
            z = sum(ws)
            for j in range(k.shape[0]):
                out[i, sl] += (ws[j] / z) * vp[j, sl]
    return out @ wo


def test_mha_single_key_returns_projected_value():
    cfg = make_cfg(d=4, heads=1)
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(cfg, rng)
    q = Tensor(rng.uniform(-1, 1, (3, 4)))
    kv = Tensor(rng.uniform(-1, 1, (1, 4)))
    out = mha(q, mha.memory(kv, kv))
    expected = mha.wo(mha.wv(kv)).data  # softmax over one key is 1
    for row in out.data:
        assert np.allclose(row, expected[0], atol=1e-12)


def test_mha_matches_scalar_oracle():
    cfg = make_cfg(d=4, heads=2)
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(cfg, rng)
    # biases stay zero from init, so the oracle only needs the weights
    q = rng.uniform(-1, 1, (2, 4))
    k = rng.uniform(-1, 1, (3, 4))
    v = rng.uniform(-1, 1, (3, 4))
    expected = scalar_attention_oracle(
        q, k, v, mha.wq.w.data, mha.wk.w.data, mha.wv.w.data, mha.wo.w.data,
        num_heads=2)
    out = mha(Tensor(q), mha.memory(Tensor(k), Tensor(v)))
    assert np.allclose(out.data, expected, atol=1e-10)


def test_mha_permutation_equivariant_over_keys():
    cfg = make_cfg()
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(cfg, rng)
    q = Tensor(rng.uniform(-1, 1, (3, 8)))
    k = rng.uniform(-1, 1, (5, 8))
    v = rng.uniform(-1, 1, (5, 8))
    perm = rng.permutation(5)
    out = mha(q, mha.memory(Tensor(k), Tensor(v)))
    out_p = mha(q, mha.memory(Tensor(k[perm]), Tensor(v[perm])))
    assert np.allclose(out.data, out_p.data, atol=1e-12)


def test_mha_rejects_mismatched_key_value_lengths():
    cfg = make_cfg()
    rng = np.random.default_rng(3)
    mha = MultiHeadAttention(cfg, rng)
    x = Tensor(rng.uniform(-1, 1, (3, 8)))
    with pytest.raises(ShapeError):
        mha(x, mha.memory(x, Tensor(rng.uniform(-1, 1, (4, 8)))))


def test_mha_gradient():
    cfg = make_cfg(d=4, heads=2, ff=8)
    rng = np.random.default_rng(4)
    mha = MultiHeadAttention(cfg, rng)
    q = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    k = Tensor(rng.uniform(-1, 1, (3, 4)))

    def loss():
        out = mha(q, mha.memory(k, k))
        return tsum(out * out)

    from saasr.nn import Parameter
    params = mha.named_parameters("mha") + [Parameter("q", q)]
    report = grad_check(loss, params, tolerance=1e-5)
    assert report.passed, str(report)


def test_feed_forward_zero_weights_gives_bias():
    cfg = make_cfg(d=4, heads=2, ff=8)
    rng = np.random.default_rng(5)
    ff = FeedForward(cfg, rng)
    ff.lin1.w.data[:] = 0.0
    ff.lin2.w.data[:] = 0.0
    ff.lin2.b.data[:] = 0.25
    out = ff(Tensor(rng.uniform(-1, 1, (3, 4))))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_feed_forward_preserves_shape():
    cfg = make_cfg(d=6, heads=2, ff=12)
    ff = FeedForward(cfg, np.random.default_rng(6))
    out = ff(Tensor(np.random.default_rng(7).uniform(-1, 1, (5, 6))))
    assert out.data.shape == (5, 6)


def test_feed_forward_gradient():
    cfg = make_cfg(d=4, heads=2, ff=6)
    rng = np.random.default_rng(8)
    ff = FeedForward(cfg, rng)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

    def loss():
        out = ff(x)
        return tsum(out * out)

    from saasr.nn import Parameter
    report = grad_check(loss, ff.named_parameters("ff") + [Parameter("x", x)],
                        tolerance=1e-5)
    assert report.passed, str(report)


def test_encoder_layer_gradient():
    cfg = make_cfg(d=4, heads=2, ff=6)
    rng = np.random.default_rng(9)
    layer = EncoderLayer(cfg, rng)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

    def loss():
        out = layer(x)
        return tsum(out * out)

    report = grad_check(loss, layer.named_parameters("enc"), tolerance=1e-5)
    assert report.passed, str(report)


def test_cross_block_matches_fused_first_layer_composition():
    block = CrossBlock(make_cfg(), np.random.default_rng(0))
    assert [p.name for p in block.named_parameters()][:2] == [
        "cross_mha.wq.w", "cross_mha.wq.b"]
    assert [p.name for p in block.named_parameters()][-1] == "ff.lin2.b"
    rng = np.random.default_rng(1)
    e = Tensor(rng.uniform(-1, 1, (4, 8)), requires_grad=True)
    h = Tensor(rng.uniform(-1, 1, (6, 8)))
    fusion = Tensor(rng.uniform(-1, 1, (4, 8)))

    def reference(fusion):
        # the parallel decoder's first layer as it was written out before
        # CrossBlock: cross-attention, then feed-forward with the fusion
        # added to its input, plain residuals
        e1 = e + block.cross_mha(e, block.cross_mha.memory(h, h))
        ff_in = e1 + fusion if fusion is not None else e1
        return e1 + block.ff(ff_in)

    for f in (fusion, None):
        got, want = block(e, block.memory(h, h), f), reference(f)
        assert np.array_equal(got.data, want.data)
        grads = []
        for out in (got, want):
            block.zero_grad()
            e.zero_grad()
            tsum(out * out).backward()
            grads.append([e.grad.copy()] + [p.tensor.grad.copy()
                                            for p in block.parameters()])
        assert all(np.array_equal(a, b) for a, b in zip(*grads))


def test_blocks_accept_projected_memory_and_query_rows():
    rng = np.random.default_rng(4)
    layer = DecoderLayer(make_cfg(), rng)
    x = Tensor(rng.uniform(-1, 1, (6, 8)))
    h = Tensor(rng.uniform(-1, 1, (9, 8)))
    mask = causal_mask(6)
    mem = layer.memory(h)
    full = layer(x, mem, self_mask=mask).data
    # a subset of the rows as queries, every row still a key and value
    for rows in (slice(5, 6), slice(2, 4), slice(0, 6)):
        part = layer(x, mem, self_mask=mask, query_rows=rows).data
        np.testing.assert_allclose(part, full[rows], rtol=0, atol=1e-12)


def test_projected_memory_keeps_shape_and_length_checks():
    cfg = make_cfg()
    rng = np.random.default_rng(5)
    cross, layer = CrossBlock(cfg, rng), DecoderLayer(cfg, rng)
    h = Tensor(rng.uniform(-1, 1, (5, 8)))
    narrow = Tensor(rng.uniform(-1, 1, (3, 4)))
    with pytest.raises(ContractError):
        cross.memory(h, Tensor(rng.uniform(-1, 1, (6, 8))))
    with pytest.raises(ShapeError):
        layer.memory(narrow)
    with pytest.raises(ShapeError):
        cross(narrow, cross.memory(h, h))
    with pytest.raises(ShapeError):
        layer(narrow, layer.memory(h))


def test_parameter_names_unique_and_registered_once():
    class Toy(Module):
        def __init__(self):
            rng = np.random.default_rng(0)
            self.a = Linear(2, 3, rng)
            self.blocks = [LayerNorm(3), LayerNorm(3)]

    params = Toy().parameters()
    names = [p.name for p in params]
    assert len(names) == len(set(names))
    ids = [id(p.tensor) for p in params]
    assert len(ids) == len(set(ids))
    assert "a.w" in names and "blocks.0.gain" in names


def test_causal_mask_blocks_future():
    m = causal_mask(3)
    assert m[0, 1] < -1e8 and m[0, 2] < -1e8 and m[1, 2] < -1e8
    assert m[1, 0] == 0 and m[2, 2] == 0


def test_positional_encoding_shape_and_range():
    pe = positional_encoding(10, 8)
    assert pe.shape == (10, 8)
    assert np.all(np.abs(pe) <= 1.0)
    assert not np.allclose(pe[1], pe[2])


def test_position_tables_and_masks_are_read_only_slices_of_fresh_ones():
    for dim in (3, 8, 32, 64):
        for length in range(1, 401):
            pos = np.arange(length, dtype=np.float64)[:, None]
            i = np.arange(dim, dtype=np.float64)[None, :]
            angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
            fresh = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
            table = positional_encoding(length, dim)
            assert np.array_equal(table, fresh)
            assert not table.flags.writeable
    for length in range(400, 0, -1):
        fresh = np.zeros((length, length))
        fresh[np.triu_indices(length, k=1)] = -1e9
        mask = causal_mask(length)
        assert np.array_equal(mask, fresh)
        assert not mask.flags.writeable

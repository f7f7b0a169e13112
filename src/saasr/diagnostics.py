"""Gradient verification suite: every differentiable building block plus the
full composite training loss on a small two-layer model."""

from __future__ import annotations

import numpy as np

from .cif import WeightPredictor, integrate_and_fire, mae_loss
from .data import SynthSpec, generate_dataset
from .losses import LossWeights, ce_loss, ctc_loss, speaker_loss
from .nn import (AttentionConfig, EncoderLayer, FeedForward, LayerNorm,
                 MultiHeadAttention, Parameter, attention_core, causal_mask)
from .model import ModelConfig, SaAsrModel
from .speaker import (SpeakerDecoder, SpeakerInventory, SpeakerProfile,
                      cosine_scores)
from .tensor import (Tensor, grad_check, linear, log_softmax, matmul, softmax,
                     tsum)
from .training import TrainConfig, prepare_batch_items, session_losses


def _block_checks(rng):
    """Per-block gradient checks on small random instances."""
    checks = []

    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    checks.append(("matmul", lambda: tsum(matmul(x, w) * matmul(x, w)),
                   [Parameter("x", x), Parameter("w", w)]))

    xl = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    wl = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    bl = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
    checks.append(("linear", lambda: tsum(linear(xl, wl, bl) * linear(xl, wl, bl)),
                   [Parameter("x", xl), Parameter("w", wl), Parameter("b", bl)]))

    s = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
    s_probe = Tensor(rng.uniform(-1, 1, (3, 5)))
    checks.append(("softmax", lambda: tsum(softmax(s, axis=1) * s_probe),
                   [Parameter("s", s)]))

    ls = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
    checks.append(("log_softmax", lambda: tsum(log_softmax(ls, axis=1)),
                   [Parameter("ls", ls)]))

    ln = LayerNorm(6)
    xln = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    checks.append(("layer_norm",
                   lambda: tsum(ln(xln) * ln(xln)),
                   [Parameter("x", xln), Parameter("gain", ln.gain),
                    Parameter("bias", ln.bias)]))

    cfg = AttentionConfig(8, 2, 12)
    mha = MultiHeadAttention(cfg, rng)
    q = Tensor(rng.uniform(-1, 1, (2, 8)), requires_grad=True)
    kv = Tensor(rng.uniform(-1, 1, (3, 8)))
    checks.append(("multi_head_attention",
                   lambda: tsum(mha(q, kv, kv) * mha(q, kv, kv)),
                   mha.named_parameters("mha") + [Parameter("q", q)]))

    qa, ka, va = (Tensor(rng.uniform(-1, 1, (3, 8)), requires_grad=True)
                  for _ in range(3))
    core_probe = Tensor(rng.uniform(-1, 1, (3, 8)))
    checks.append(("attention_core_masked",
                   lambda: tsum(attention_core(qa, ka, va, 2, causal_mask(3))
                                * core_probe),
                   [Parameter("q", qa), Parameter("k", ka), Parameter("v", va)]))

    ff = FeedForward(cfg, rng)
    xff = Tensor(rng.uniform(-1, 1, (3, 8)), requires_grad=True)
    checks.append(("feed_forward", lambda: tsum(ff(xff) * ff(xff)),
                   ff.named_parameters("ff") + [Parameter("x", xff)]))

    enc = EncoderLayer(cfg, rng)
    xe = Tensor(rng.uniform(-1, 1, (3, 8)), requires_grad=True)
    checks.append(("encoder_layer", lambda: tsum(enc(xe) * enc(xe)),
                   enc.named_parameters("enc")))

    pred = WeightPredictor(8, rng)
    hp = Tensor(rng.uniform(-1, 1, (6, 8)), requires_grad=True)
    checks.append(("weight_predictor",
                   lambda: tsum(pred(hp) * pred(hp)),
                   pred.named_parameters("pred") + [Parameter("h", hp)]))

    alpha = Tensor(rng.uniform(0.05, 0.95, 8), requires_grad=True)
    hcif = Tensor(rng.uniform(-1, 1, (8, 3)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1,
                               (int(np.floor(alpha.data.sum())), 3)))
    checks.append(("integrate_and_fire",
                   lambda: tsum(integrate_and_fire(
                       hcif, alpha).embeddings * probe),
                   [Parameter("alpha", alpha), Parameter("h", hcif)]))

    alpha2 = Tensor(rng.uniform(0.1, 0.9, 5), requires_grad=True)
    checks.append(("mae_loss",
                   lambda: mae_loss(alpha2, 3),
                   [Parameter("alpha", alpha2)]))

    inv = SpeakerInventory(
        [SpeakerProfile(f"p{i}", rng.normal(size=4)) for i in range(3)], 3)
    qs = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    att_probe = Tensor(rng.uniform(-1, 1, (2, 3)))
    checks.append(("cosine_attention",
                   lambda: tsum(softmax(cosine_scores(qs, inv), axis=1)
                                * att_probe),
                   [Parameter("q", qs)]))

    spk_dec = SpeakerDecoder(AttentionConfig(4, 2, 6), rng)
    ea = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    ha = Tensor(rng.uniform(-1, 1, (3, 4)))
    hs = Tensor(rng.uniform(-1, 1, (3, 4)))
    checks.append(("speaker_decoder",
                   lambda: tsum(spk_dec(ea, ha, hs) * spk_dec(ea, ha, hs)),
                   spk_dec.named_parameters("spkdec")))

    logits = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    checks.append(("ce_loss", lambda: ce_loss(logits, [0, 5, 2, 3]),
                   [Parameter("logits", logits)]))

    frame_logits = Tensor(rng.uniform(-1, 1, (6, 5)), requires_grad=True)
    checks.append(("ctc_loss", lambda: ctc_loss(frame_logits, [1, 1, 3]),
                   [Parameter("frame_logits", frame_logits)]))

    b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    checks.append(("speaker_loss",
                   lambda: speaker_loss(b, [0, 2, 1], 4),
                   [Parameter("b", b)]))
    return checks


def composite_loss_check(seed: int = 0):
    """The full training objective on a d=8, two-layer model over one small
    synthetic session. Returns (loss_fn, parameters).

    The first-pass hypothesis is realized once and pinned: the training
    gradient is defined conditional on the sampler's discrete choices (the
    first pass sits behind a gradient barrier), so the finite-difference
    probe must hold that path fixed too.
    """
    spec = SynthSpec(num_sessions=2, speakers_per_session=(2, 2),
                     vocab_size=12, tokens_per_utterance=(3, 4),
                     frames_per_token=(2, 3), overlap_ratio_target=0.3,
                     feature_dim=6, noise_std=0.02, seed=seed)
    dataset = generate_dataset(spec)
    model_cfg = ModelConfig(vocab_size=12, feature_dim=6,
                            attn=AttentionConfig(8, 2, 16),
                            encoder_layers=2, decoder_layers=2,
                            speaker_encoder_layers=1, d_spk=6,
                            inter_ctc_layer=1, sampling_factor_lambda=1.1)
    cfg = TrainConfig(model=model_cfg, loss=LossWeights(0.3, 0.3),
                      seed=seed, interfering_m=1)
    model = SaAsrModel(model_cfg, seed=seed)
    item = prepare_batch_items(dataset, cfg)[0]
    fill_to = item.inventory.size + 1
    pinned = model.two_pass_train_forward(
        item.features, item.target_tokens, item.speaker_indices,
        item.inventory, sampler_seed=item.sampler_seed, fill_to=fill_to,
        fill_seed=item.fill_seed).first_pass_tokens

    def loss_fn():
        breakdown, _ = session_losses(model, item, cfg.loss, fill_to,
                                      first_tokens_override=pinned)
        return breakdown.total

    return loss_fn, model.parameters()


# elements probed per parameter: blocks are small, the composite loss is not
BLOCK_PROBES = 6
COMPOSITE_PROBES = 3


def run_gradient_suite(seed: int = 0, tolerance: float = 1e-4):
    """Run every block check plus the composite loss check.

    Returns a list of (name, GradCheckReport).
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, fn, params in _block_checks(rng):
        results.append((name, grad_check(fn, params, tolerance=tolerance,
                                         max_probes=BLOCK_PROBES)))
    loss_fn, params = composite_loss_check(seed)
    results.append(("composite_training_loss",
                    grad_check(loss_fn, params, tolerance=tolerance,
                               max_probes=COMPOSITE_PROBES)))
    return results

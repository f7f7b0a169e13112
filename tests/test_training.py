"""Training loop contracts: determinism, frozen-model invariance, resume,
divergence handling, staged initialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from saasr.data import SynthSpec, config_from_pairs, generate_dataset
from saasr.errors import ConfigError, ContractError, ShapeError
from saasr.losses import LossWeights, ce_loss, ctc_loss
from saasr.model import ModelConfig, SaAsrModel, load_checkpoint
from saasr.nn import AttentionConfig
from saasr.training import (Adam, TrainConfig, evaluate, prepare_batch_items,
                            session_losses, train, validation_ce)


def tiny_dataset(seed=11, sessions=3, vocab=14):
    spec = SynthSpec(num_sessions=sessions, speakers_per_session=(2, 2),
                     vocab_size=vocab, tokens_per_utterance=(3, 4),
                     frames_per_token=(2, 3), overlap_ratio_target=0.35,
                     feature_dim=8, noise_std=0.05, seed=seed)
    return generate_dataset(spec)


def tiny_train_cfg(dataset, **overrides):
    defaults = dict(
        model=ModelConfig(vocab_size=dataset.spec.vocab_size,
                          feature_dim=dataset.spec.feature_dim,
                          attn=AttentionConfig(8, 2, 16), encoder_layers=2,
                          decoder_layers=2, speaker_encoder_layers=1,
                          d_spk=dataset.spec.feature_dim, inter_ctc_layer=1),
        loss=LossWeights(0.3, 0.3), epochs=3, batch_size=2,
        learning_rate=2e-3, warmup_steps=20, seed=4, interfering_m=1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_zero_learning_rate_keeps_loss_constant():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, learning_rate=0.0, epochs=4,
                         early_stop_patience=100)
    manifest = train(cfg, ds)
    totals = [e["total"] for e in manifest.epoch_log]
    assert max(totals) - min(totals) < 1e-9


def test_identical_runs_are_bit_identical():
    ds = tiny_dataset()
    models = []
    for _ in range(2):
        cfg = tiny_train_cfg(ds)
        model = SaAsrModel(cfg.model, seed=cfg.seed)
        train(cfg, ds, init_model=model)
        models.append(model)
    for a, b in zip(models[0].parameters(), models[1].parameters()):
        assert np.array_equal(a.tensor.data, b.tensor.data), a.name


def test_checkpoint_written_and_resumable(tmp_path):
    ds = tiny_dataset()
    ckpt = tmp_path / "m.ckpt"
    cfg = tiny_train_cfg(ds, epochs=4, checkpoint_path=str(ckpt))
    first = train(cfg, ds)
    fresh_start = first.epoch_log[0]["total"]
    final = first.epoch_log[-1]["total"]

    resumed_model, header = load_checkpoint(ckpt)
    assert header["extra"]["epoch"] == len(first.epoch_log) - 1
    cfg2 = tiny_train_cfg(ds, epochs=1)
    second = train(cfg2, ds, init_model=resumed_model)
    resumed_first = second.epoch_log[0]["total"]
    # the resumed curve continues near the saved level, far below a cold start
    assert resumed_first < fresh_start
    assert resumed_first < final * 1.5 + 1.0


def test_divergence_aborts_with_step_recorded():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, learning_rate=1e9, epochs=8,
                         early_stop_patience=100)
    manifest = train(cfg, ds)
    assert manifest.diverged_at_step is not None


def test_early_stop_on_plateau():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, learning_rate=0.0, epochs=30,
                         early_stop_patience=5)
    manifest = train(cfg, ds)
    # constant loss: first epoch sets the best, five stale epochs follow
    assert manifest.stopped_early_at_epoch == 5
    assert len(manifest.epoch_log) == 6


def test_manifest_contents(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, epochs=2)
    manifest = train(cfg, ds)
    assert manifest.data_hash
    assert len(manifest.epoch_log) == 2
    assert {"mae", "ctc", "inter_ctc", "ce", "speaker", "total"} <= \
        set(manifest.epoch_log[0])
    path = tmp_path / "manifest.json"
    manifest.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["data_hash"] == manifest.data_hash


def test_manifest_config_reads_back(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, epochs=1, stage1_epochs=1,
                         checkpoint_path=str(tmp_path / "model.ckpt"))
    path = tmp_path / "manifest.json"
    train(cfg, ds).save(path)
    pairs = json.loads(path.read_text())["config"]
    # the checkpoint path is left to the command line; it has no key
    assert config_from_pairs(TrainConfig, pairs) == replace(
        cfg, checkpoint_path=None)


def test_train_rejects_mismatched_dims():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds)
    cfg.model = ModelConfig(vocab_size=ds.spec.vocab_size + 3,
                            feature_dim=ds.spec.feature_dim,
                            attn=AttentionConfig(8, 2, 16),
                            encoder_layers=2, inter_ctc_layer=1)
    with pytest.raises(ConfigError, match="vocab"):
        train(cfg, ds)


def test_evaluate_rejects_vocab_mismatch():
    ds = tiny_dataset()
    other = tiny_dataset(vocab=20)
    cfg = tiny_train_cfg(ds, epochs=1)
    model = SaAsrModel(cfg.model, seed=0)
    train(cfg, ds, init_model=model)
    with pytest.raises(ConfigError, match="vocab"):
        evaluate(model, other)


def test_evaluate_rejects_features_of_another_width():
    # a dataset file cannot hold these: its reader takes the spec's width
    ds = tiny_dataset()
    ds.sessions[0].features = ds.sessions[0].features[:, :-1]
    model = SaAsrModel(tiny_train_cfg(ds).model, seed=0)
    with pytest.raises(ShapeError, match="features must be frames x 8"):
        evaluate(model, ds)


def test_evaluate_produces_session_lines_and_summary():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, epochs=1)
    model = SaAsrModel(cfg.model, seed=1)
    report = evaluate(model, ds)
    assert len(report.session_lines) == len(ds.sessions)
    assert "SD-CER" in report.summary
    for line in report.session_lines:
        assert line.startswith("session=")


def test_evaluate_works_in_both_separator_modes():
    ds = tiny_dataset()
    for use_sep in (False, True):
        cfg = tiny_train_cfg(ds, epochs=1)
        cfg.model = ModelConfig(vocab_size=ds.spec.vocab_size,
                                feature_dim=ds.spec.feature_dim,
                                attn=AttentionConfig(8, 2, 16),
                                encoder_layers=2, decoder_layers=2,
                                speaker_encoder_layers=1,
                                d_spk=ds.spec.feature_dim, inter_ctc_layer=1,
                                use_cc_separator=use_sep)
        model = SaAsrModel(cfg.model, seed=2)
        train(cfg, ds, init_model=model)
        report = evaluate(model, ds)
        assert math.isfinite(report.sd.sd_cer)


def test_untrained_model_scores_near_chance():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds)
    model = SaAsrModel(cfg.model, seed=3)
    report = evaluate(model, ds)
    # direction only: an untrained model is far from a trained one
    assert report.sd.sd_cer > 30.0


def test_staged_init_does_not_hurt_stage2_start():
    # stage-2 starting loss from a speaker-agnostic warm start is at most
    # the random-init starting loss, averaged over seeds
    deltas = []
    for seed in (0, 1, 2):
        ds = tiny_dataset(seed=100 + seed, sessions=3)
        warm_cfg = tiny_train_cfg(ds, epochs=5, seed=seed, stage1_epochs=4,
                                  early_stop_patience=100)
        warm = train(warm_cfg, ds)
        staged_start = warm.epoch_log[4]["total"]  # first full-objective epoch
        cold_cfg = tiny_train_cfg(ds, epochs=1, seed=seed)
        cold = train(cold_cfg, ds)
        cold_start = cold.epoch_log[0]["total"]
        deltas.append(cold_start - staged_start)
    assert float(np.mean(deltas)) >= 0.0


def test_validation_ce_decreases_with_training():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, epochs=8, early_stop_patience=100,
                         learning_rate=3e-3)
    model = SaAsrModel(cfg.model, seed=5)
    before = validation_ce(model, ds)
    train(cfg, ds, init_model=model)
    after = validation_ce(model, ds)
    assert after < before


def test_validation_ce_is_first_pass_ce_without_filling():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds, interfering_m=0)
    model = SaAsrModel(cfg.model, seed=6)
    total, count = 0.0, 0
    for item in prepare_batch_items(ds, cfg):
        trace = model.two_pass_train_forward(
            item.features, item.target_tokens, item.speaker_indices,
            item.inventory, sampler_seed=item.sampler_seed, fill_to=None)
        n = len(item.target_tokens)
        total += ce_loss(trace.first_pass_logits, item.target_tokens).item() * n
        count += n
    assert validation_ce(model, ds) == total / count


def test_inter_ctc_term_reads_the_tap_layer():
    ds = tiny_dataset()
    cfg = tiny_train_cfg(ds)
    assert (cfg.model.encoder_layers, cfg.model.inter_ctc_layer) == (2, 1)
    model = SaAsrModel(cfg.model, seed=7)
    item = prepare_batch_items(ds, cfg)[0]
    breakdown, infeasible = session_losses(model, item, cfg.loss, fill_to=None)
    assert infeasible == 0
    _, h_inter = model.asr_encode(item.features)
    assert breakdown.inter_ctc.item() == ctc_loss(
        model.inter_ctc_head(h_inter), item.target_tokens).item()

    model.zero_grad()
    breakdown.inter_ctc.backward()

    def reached(prefix):
        return any(p.tensor.grad is not None and np.any(p.tensor.grad != 0)
                   for p in model.parameters() if p.name.startswith(prefix))

    assert reached("asr_layers.0.") and reached("inter_ctc_head.")
    assert not reached("asr_layers.1.") and not reached("ctc_head.")


def test_train_rejects_non_finite_features():
    ds = tiny_dataset()
    ds.sessions[1].features[3, 2] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        train(tiny_train_cfg(ds), ds)


def test_adam_zero_grad_is_noop_step():
    from saasr.nn import Parameter
    from saasr.tensor import Tensor
    w = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([Parameter("w", w)], lr=0.1, warmup_steps=1)
    opt.step()  # no gradients collected
    assert np.array_equal(w.data, np.ones(3))

"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based
criteria (6, 8, 9) dominate the runtime; everything else finishes in
seconds.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from test_cif import cif_oracle, oracle_matrix
from test_losses import ctc_enumeration_oracle

from saasr.bench import bench_rtf
from saasr.cif import integrate_and_fire, scale_weights
from saasr.data import Dataset, SynthSpec, generate_dataset
from saasr.diagnostics import run_gradient_suite
from saasr.losses import LossWeights, ctc_loss
from saasr.model import (ArBaselineModel, ModelConfig, SaAsrModel,
                         save_checkpoint)
from saasr.nn import AttentionConfig
from saasr.speaker import (SpeakerInventory, SpeakerProfile,
                           assign_speakers, cosine_scores, fill_speakers)
from saasr.tensor import Tensor, softmax
from saasr.training import (TrainConfig, evaluate, train, validation_ce)
from saasr.tsot import TimedToken, deserialize, serialize, speaker_change_count


def report(criterion: int, passed: bool, detail: str):
    from conftest import record_criterion
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    record_criterion(criterion, passed, detail)
    assert passed, f"criterion {criterion}: {detail}"


# -- 1: gradient suite ---------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradient_suite(seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - t0
    worst = max(rep.worst for _, rep in results)
    all_pass = all(rep.passed for _, rep in results)
    report(1, all_pass and elapsed < 60.0,
           f"{len(results)} checks incl. composite loss, worst rel err "
           f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


# -- 2: CTC oracle equivalence ----------------------------------------------------

def test_criterion_2_ctc_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(500):
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
            worst = max(worst, abs(loss.item() - expected))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-8 and elapsed < 30.0,
           f"{checked} instances, worst |diff| {worst:.2e} (tol 1e-8), "
           f"{elapsed:.1f}s (< 30s)")


# -- 3: CIF exactness ---------------------------------------------------------------

def test_criterion_3_cif_exactness():
    rng = np.random.default_rng(7)
    scale_hits = 0
    for case in range(1000):
        t_len = int(rng.integers(1, 60))
        alpha = rng.uniform(0, 1, t_len)
        plan = integrate_and_fire(Tensor(np.ones((t_len, 1))),
                                  Tensor(alpha))
        tokens, firings, residue = cif_oracle(alpha, 1.0)
        assert plan.firings == firings
        assert plan.residue == residue
        assert np.array_equal(plan.frame_weights.data,
                              oracle_matrix(tokens, t_len))
        if plan.num_fired:
            assert np.max(np.abs(plan.frame_weights.data.sum(axis=1) - 1.0)) \
                < 1e-9
        target = int(rng.integers(1, max(2, t_len)))
        scaled = scale_weights(Tensor(alpha), target)
        plan2 = integrate_and_fire(Tensor(np.ones((t_len, 1))), scaled)
        scale_hits += int(plan2.num_fired == target)
    report(3, scale_hits == 1000,
           f"1000/1000 oracle-exact (indices, residue, weights); "
           f"teacher-forced firing count hit {scale_hits}/1000")


# -- 4: speaker attribution sanity ---------------------------------------------------

def test_criterion_4_speaker_attribution_sanity():
    rng = np.random.default_rng(11)
    d = 12
    eye = np.eye(d)
    inv = SpeakerInventory([SpeakerProfile(f"spk{i}", eye[i])
                            for i in range(6)], 6)
    planted = rng.integers(0, 6, size=400)
    q = Tensor(np.stack([inv.profiles[j].vector for j in planted]))
    att = softmax(cosine_scores(q, inv), axis=1)
    hits = sum(a == f"spk{j}" for a, j in zip(assign_speakers(att, inv),
                                              planted))
    row_err = np.max(np.abs(att.data.sum(axis=1) - 1.0))
    for batch in range(20):
        b = Tensor(np.random.default_rng(batch).uniform(-1, 1, (30, 5)))
        att_b = softmax(b, axis=1)
        row_err = max(row_err,
                      np.max(np.abs(att_b.data.sum(axis=1) - 1.0)))
    fill_ok = True
    for seed in range(300):
        filled = fill_speakers(Tensor(np.zeros((8, 2))), 6, seed=seed)
        pad = filled.data[:, 2:]
        fill_ok = fill_ok and bool(np.all((pad >= -0.5) & (pad <= 0.5)))
    report(4, hits == 400 and row_err < 1e-9 and fill_ok,
           f"orthonormal assignment {hits}/400, attention row-sum err "
           f"{row_err:.1e} (tol 1e-9), fills within [-0.5, 0.5]: {fill_ok}")


# -- 5: serialization round trip ------------------------------------------------------

@dataclass
class _Hyp:
    tokens: list
    speaker_ids: list


def test_criterion_5_serialization_round_trip():
    rng = np.random.default_rng(13)
    cc = 999
    failures = 0
    cc_count_ok = True
    for case in range(1000):
        n_spk = int(rng.integers(1, 4))
        stream = []
        for s in range(n_spk):
            pos = int(rng.integers(0, 5))
            for _ in range(int(rng.integers(1, 7))):
                length = int(rng.integers(1, 4))
                stream.append(TimedToken(int(rng.integers(0, 25)), f"spk{s}",
                                         pos, pos + length))
                pos += length + int(rng.integers(0, 3))
        truth = {}
        for t in sorted(stream, key=lambda t: (t.end_frame, t.start_frame,
                                               t.speaker)):
            truth.setdefault(t.speaker, []).append(t.token)
        for mode in (False, True):
            separator = cc if mode else None
            target = serialize(stream, separator)
            grouped = deserialize(_Hyp(target.tokens, target.speaker_labels),
                                  separator)
            if grouped != truth:
                failures += 1
            if mode:
                cc_count_ok = cc_count_ok and (
                    target.tokens.count(cc) == speaker_change_count(stream))
    report(5, failures == 0 and cc_count_ok,
           f"1000 streams x both modes round-trip clean (failures "
           f"{failures}); separator count == speaker changes: {cc_count_ok}")


# -- 6: desk-scale overfit -------------------------------------------------------------

def toy_model_config(**overrides):
    defaults = dict(vocab_size=40, feature_dim=16,
                    attn=AttentionConfig(32, 4, 64), encoder_layers=2,
                    decoder_layers=2, speaker_encoder_layers=2, d_spk=16,
                    inter_ctc_layer=1, sampling_factor_lambda=1.1)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def test_criterion_6_desk_scale_overfit():
    spec = SynthSpec(num_sessions=16, speakers_per_session=(2, 3),
                     vocab_size=40, tokens_per_utterance=(5, 8),
                     frames_per_token=(2, 4), overlap_ratio_target=0.42,
                     feature_dim=16, noise_std=0.05, seed=1)
    dataset = generate_dataset(spec)
    cfg = TrainConfig(model=toy_model_config(), loss=LossWeights(0.3, 0.3),
                      epochs=700, batch_size=4, learning_rate=5e-3,
                      warmup_steps=200, seed=0, fill_speakers_enabled=True,
                      interfering_m=2, early_stop_patience=700)
    t0 = time.perf_counter()
    model = SaAsrModel(cfg.model, seed=cfg.seed)
    train(cfg, dataset, init_model=model)
    rep = evaluate(model, dataset)
    elapsed = time.perf_counter() - t0
    report(6, rep.sd.sd_cer <= 5.0 and elapsed < 600.0,
           f"train-set SD-CER {rep.sd.sd_cer:.1f}% (<= 5%), fill+interfering "
           f"(m=2) on, {elapsed:.0f}s (< 600s)")


# -- 7: latency claim, scaled -----------------------------------------------------------

def test_criterion_7_latency_ratio(tmp_path):
    cfg = toy_model_config()
    nar_path = tmp_path / "nar.ckpt"
    ar_path = tmp_path / "ar.ckpt"
    save_checkpoint(nar_path, SaAsrModel(cfg, seed=0))
    save_checkpoint(ar_path, ArBaselineModel(cfg, seed=1))
    lengths = [8, 16, 32, 64]
    result = bench_rtf(nar_path, ar_path, lengths, seed=0)
    ratios = [row.ratio for row in result.rows]
    at64 = ratios[-1]
    inversions = [(a - b) / a for a, b in zip(ratios, ratios[1:]) if b < a]
    monotone_ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0] <= 0.10)
    detail = " ".join(f"L{length}:{r:.1f}x" for length, r in
                      zip(lengths, ratios))
    report(7, at64 >= 3.0 and monotone_ok,
           f"AR/NAR wall-clock ratios {detail}; at L=64 {at64:.1f}x (>= 3), "
           f"monotone with {len(inversions)} inversion(s) "
           f"{[f'{v:.0%}' for v in inversions]} (<= one of <= 10%)")


# -- 8 and 9: direction criteria over 3 seeds ----------------------------------------------

def direction_data(seed):
    spec = SynthSpec(num_sessions=20, speakers_per_session=(2, 3),
                     vocab_size=24, tokens_per_utterance=(4, 6),
                     frames_per_token=(2, 4), overlap_ratio_target=0.42,
                     feature_dim=16, noise_std=0.05,
                     bigram_concentration=0.12, seed=seed)
    full = generate_dataset(spec)
    return Dataset(spec, full.sessions[:16]), Dataset(spec, full.sessions[16:])


def direction_run(seed, use_sep, sampling_factor, epochs):
    train_set, held_out = direction_data(seed + 70)
    cfg = TrainConfig(
        model=toy_model_config(vocab_size=24,
                               sampling_factor_lambda=sampling_factor,
                               use_cc_separator=use_sep),
        loss=LossWeights(0.3, 0.3), epochs=epochs, batch_size=4,
        learning_rate=3e-3, warmup_steps=150, seed=seed, interfering_m=2,
        early_stop_patience=10000)
    model = SaAsrModel(cfg.model, seed=seed)
    train(cfg, train_set, init_model=model)
    return model, held_out


def test_criterion_8_separator_ablation_direction():
    with_sep_dels, without_sep_dels = [], []
    for seed in (0, 1, 2):
        model_a, held = direction_run(seed, True, 1.1, epochs=200)
        with_sep_dels.append(evaluate(model_a, held).merged.dels)
        model_b, held = direction_run(seed, False, 1.1, epochs=200)
        without_sep_dels.append(evaluate(model_b, held).merged.dels)
    mean_with = float(np.mean(with_sep_dels))
    mean_without = float(np.mean(without_sep_dels))
    report(8, mean_with > mean_without,
           f"held-out deletions with separator {with_sep_dels} "
           f"(mean {mean_with:.1f}) > without {without_sep_dels} "
           f"(mean {mean_without:.1f}), 3 seeds")


def test_criterion_9_sampling_factor_direction():
    ce_sampled, ce_plain = [], []
    for seed in (0, 1, 2):
        model_a, held = direction_run(seed, False, 1.1, epochs=100)
        ce_sampled.append(validation_ce(model_a, held))
        model_b, held = direction_run(seed, False, 0.0, epochs=100)
        ce_plain.append(validation_ce(model_b, held))
    mean_sampled = float(np.mean(ce_sampled))
    mean_plain = float(np.mean(ce_plain))
    report(9, mean_sampled <= mean_plain,
           f"held-out CE at factor 1.1 {[f'{v:.2f}' for v in ce_sampled]} "
           f"(mean {mean_sampled:.3f}) <= factor 0 "
           f"{[f'{v:.2f}' for v in ce_plain]} (mean {mean_plain:.3f}), 3 seeds")

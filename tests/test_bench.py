"""Latency benchmark wiring: matched configs, rigged lengths, ratio table."""

import numpy as np
import pytest

from saasr.bench import BenchRow, bench_rtf
from saasr.errors import ConfigError
from saasr.model import (ArBaselineModel, ModelConfig, SaAsrModel,
                         save_checkpoint)
from saasr.nn import AttentionConfig


def small_cfg(**overrides):
    defaults = dict(vocab_size=12, feature_dim=6,
                    attn=AttentionConfig(8, 2, 16), encoder_layers=1,
                    decoder_layers=2, speaker_encoder_layers=1, d_spk=6,
                    inter_ctc_layer=0)
    defaults.update(overrides)
    # encoder_layers=1 forbids inter tap at 1; keep two layers minimum
    defaults["encoder_layers"] = max(defaults["encoder_layers"], 2)
    defaults["inter_ctc_layer"] = 1
    return ModelConfig(**defaults)


@pytest.fixture
def checkpoints(tmp_path):
    cfg = small_cfg()
    nar = tmp_path / "nar.ckpt"
    ar = tmp_path / "ar.ckpt"
    save_checkpoint(nar, SaAsrModel(cfg, seed=0))
    save_checkpoint(ar, ArBaselineModel(cfg, seed=1))
    return nar, ar


def test_bench_produces_rows_and_positive_rtfs(checkpoints):
    nar, ar = checkpoints
    result = bench_rtf(nar, ar, [2, 4], seed=0)
    assert [r.length for r in result.rows] == [2, 4]
    for row in result.rows:
        assert row.rtf_nar > 0 and row.rtf_ar > 0
    assert result.nar.total_audio_seconds == result.ar.total_audio_seconds
    table = result.table()
    assert "ar/nar" in table and "total rtf" in table


def test_bench_ar_slower_at_moderate_length(checkpoints):
    nar, ar = checkpoints
    result = bench_rtf(nar, ar, [8], seed=1)
    assert result.rows[0].ratio > 1.0


def test_bench_refuses_mismatched_configs(tmp_path):
    nar_path = tmp_path / "nar.ckpt"
    ar_path = tmp_path / "ar.ckpt"
    save_checkpoint(nar_path, SaAsrModel(small_cfg(), seed=0))
    save_checkpoint(ar_path, ArBaselineModel(
        small_cfg(attn=AttentionConfig(16, 2, 32)), seed=0))
    with pytest.raises(ConfigError, match="matched"):
        bench_rtf(nar_path, ar_path, [4])


def test_bench_requires_correct_checkpoint_kinds(tmp_path, checkpoints):
    nar, ar = checkpoints
    with pytest.raises(ConfigError):
        bench_rtf(ar, nar, [2])  # swapped


def test_bench_row_ratio():
    row = BenchRow(length=8, rtf_nar=0.02, rtf_ar=0.08)
    assert abs(row.ratio - 4.0) < 1e-12


def test_bench_ratio_is_median_of_per_repeat_ratios(checkpoints):
    nar, ar = checkpoints
    row = bench_rtf(nar, ar, [3], seed=0, repeats=3).rows[0]
    assert len(row.repeat_ratios) == 3
    assert row.ratio == float(np.median(row.repeat_ratios))


@pytest.mark.parametrize("lengths", [[], [0], [4, -2]])
def test_bench_rejects_non_positive_lengths(checkpoints, lengths):
    nar, ar = checkpoints
    with pytest.raises(ConfigError, match="length"):
        bench_rtf(nar, ar, lengths)


def test_bench_rejects_zero_repeats(checkpoints):
    nar, ar = checkpoints
    with pytest.raises(ConfigError, match="repeat"):
        bench_rtf(nar, ar, [2], repeats=0)


def test_bench_warm_up_not_counted(checkpoints):
    nar, ar = checkpoints
    result = bench_rtf(nar, ar, [2, 3], seed=0, repeats=2)
    # 3 frames per output token; one entry per timed repeat only
    for report in (result.nar, result.ar):
        assert [f for f, _ in report.per_length_breakdown] == [6, 6, 9, 9]

"""Latency benchmark wiring: matched configs, rigged lengths, ratio table."""

import numpy as np
import pytest

from saasr.bench import BENCH_REPEATS, BenchResult, BenchRow, bench_rtf
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
    lines = result.table().splitlines()
    assert "ar/nar" in lines[0] and lines[-1].startswith("total rtf")
    assert [int(line.split()[0]) for line in lines[1:-1]] == [2, 4]


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
    # per-repeat ratios 3, 1 and 5: the median is 3, the ratio of the
    # summed seconds 25 / 7
    row = BenchRow(length=8, audio_s=0.5, nar_s=[1.0, 2.0, 4.0],
                   ar_s=[3.0, 2.0, 20.0])
    assert row.ratio == 3.0
    assert row.rtf_nar == 7.0 / 1.5 and row.rtf_ar == 25.0 / 1.5


def test_bench_table_total_counts_every_repeat():
    rows = [BenchRow(length=2, audio_s=0.5, nar_s=[1.0], ar_s=[2.0]),
            BenchRow(length=4, audio_s=1.0, nar_s=[1.0, 1.0], ar_s=[6.0, 6.0])]
    # 3 s of parallel and 14 s of greedy decoding over 2.5 s of audio
    assert BenchResult(rows).table().splitlines()[-1] == \
        "total rtf: nar 1.2000  ar 5.6000  ratio 4.67"


def test_bench_ratio_is_median_of_per_repeat_ratios(checkpoints):
    nar, ar = checkpoints
    row = bench_rtf(nar, ar, [3], seed=0).rows[0]
    assert len(row.nar_s) == len(row.ar_s) == BENCH_REPEATS
    assert row.ratio == float(np.median(
        [a / n for a, n in zip(row.ar_s, row.nar_s)]))


@pytest.mark.parametrize("lengths", [[], [0], [4, -2]])
def test_bench_rejects_non_positive_lengths(checkpoints, lengths):
    nar, ar = checkpoints
    with pytest.raises(ConfigError, match="length"):
        bench_rtf(nar, ar, lengths)


def test_bench_warm_up_not_counted(checkpoints):
    nar, ar = checkpoints
    result = bench_rtf(nar, ar, [2, 3], seed=0)
    # 3 frames per output token at 8 ms; one entry per timed repeat only
    assert [row.audio_s for row in result.rows] == [6 * 8.0 / 1000, 9 * 8.0 / 1000]
    for row in result.rows:
        assert len(row.nar_s) == len(row.ar_s) == BENCH_REPEATS

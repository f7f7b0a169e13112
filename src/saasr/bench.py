"""Latency benchmark: wall-clock real-time factor of parallel versus greedy
autoregressive decoding at matched model sizes, bucketed by output length."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ArBaselineModel, SaAsrModel, load_checkpoint
from .speaker import SpeakerInventory, SpeakerProfile
from .tensor import Tensor

FRAME_SHIFT_MS = 8.0
FRAMES_PER_OUTPUT = 3
BENCH_REPEATS = 5


@dataclass
class BenchRow:
    """The timed repeats at one output length: the audio seconds of one
    input, then each repeat's parallel and greedy decode seconds."""
    length: int
    audio_s: float
    nar_s: list
    ar_s: list

    @property
    def rtf_nar(self) -> float:
        return sum(self.nar_s) / (len(self.nar_s) * self.audio_s)

    @property
    def rtf_ar(self) -> float:
        return sum(self.ar_s) / (len(self.ar_s) * self.audio_s)

    @property
    def ratio(self) -> float:
        """Median of the per-repeat AR/NAR time ratios."""
        return float(np.median([a / n for a, n in zip(self.ar_s, self.nar_s)]))


@dataclass
class BenchResult:
    rows: list

    def table(self) -> str:
        lines = [f"{'len':>5} {'rtf_nar':>10} {'rtf_ar':>10} {'ar/nar':>8}"]
        for row in self.rows:
            lines.append(f"{row.length:>5} {row.rtf_nar:>10.4f} "
                         f"{row.rtf_ar:>10.4f} {row.ratio:>8.2f}")
        # total decode seconds over total audio seconds, every repeat counted
        audio = sum(len(r.nar_s) * r.audio_s for r in self.rows)
        nar = sum(sum(r.nar_s) for r in self.rows) / audio
        ar = sum(sum(r.ar_s) for r in self.rows) / audio
        lines.append(f"total rtf: nar {nar:.4f}  ar {ar:.4f}  "
                     f"ratio {ar / nar:.2f}")
        return "\n".join(lines)


def _check_matched(nar_cfg, ar_cfg):
    same = (nar_cfg.attn == ar_cfg.attn
            and nar_cfg.encoder_layers == ar_cfg.encoder_layers
            and nar_cfg.decoder_layers == ar_cfg.decoder_layers
            and nar_cfg.vocab_size == ar_cfg.vocab_size
            and nar_cfg.feature_dim == ar_cfg.feature_dim)
    if not same:
        raise ConfigError(
            "refusing to compare: model configurations are not matched "
            f"({nar_cfg} vs {ar_cfg})")


def _rig_output_length(model: SaAsrModel, target_len: int, frames: int):
    """Point the weight predictor at a constant weight whose sum crosses the
    threshold exactly ``target_len`` times over ``frames`` frames."""
    p = (target_len + 0.5) / frames
    model.predictor.proj.w.data[:] = 0.0
    model.predictor.proj.b.data[:] = np.log(p / (1.0 - p))


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_rtf(nar_ckpt, ar_ckpt, lengths, seed: int = 0) -> BenchResult:
    """For each requested output length, synthesize inputs driving that
    length, then time parallel decodes against greedy decodes forced to
    emit the same number of tokens. After one untimed warm-up decode of
    each, the two alternate repeat by repeat, so both see the same phase of
    a host whose speed drifts; a length's ratio is the median of its
    ``BENCH_REPEATS`` per-repeat ratios. Runs serially."""
    lengths = [int(length) for length in lengths]
    if not lengths or min(lengths) < 1:
        raise ConfigError(
            f"bench needs at least one output length, all >= 1: {lengths}")
    nar_model, _ = load_checkpoint(nar_ckpt)
    ar_model, _ = load_checkpoint(ar_ckpt)
    if not isinstance(nar_model, SaAsrModel) or \
            not isinstance(ar_model, ArBaselineModel):
        raise ConfigError("bench needs one parallel and one autoregressive "
                          "checkpoint, in that order")
    _check_matched(nar_model.cfg, ar_model.cfg)

    rng = np.random.default_rng(seed)
    d_spk = nar_model.cfg.d_spk
    inv = SpeakerInventory(
        [SpeakerProfile(f"bench{i}", rng.normal(size=d_spk)) for i in range(2)],
        true_count=2)

    rows = []
    for length in lengths:
        frames = FRAMES_PER_OUTPUT * length
        x = Tensor(rng.uniform(-1, 1, (frames, nar_model.cfg.feature_dim)))
        _rig_output_length(nar_model, length, frames)

        def nar():
            nar_model.nar_infer(x, inv)

        def ar():
            ar_model.greedy_infer(x, inv, max_len=length, forbid_eos=True)

        nar()
        ar()
        row = BenchRow(length=length, audio_s=frames * FRAME_SHIFT_MS / 1000.0,
                       nar_s=[], ar_s=[])
        for _ in range(BENCH_REPEATS):
            row.nar_s.append(_seconds(nar))
            row.ar_s.append(_seconds(ar))
        rows.append(row)
    return BenchResult(rows)

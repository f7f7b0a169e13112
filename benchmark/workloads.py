"""The three workloads. Each builds its inputs from the seed, runs its
operations in a closed loop with one caller, times each operation, and
checks every output.

Calls into saasr go through module attributes (``saasr.training.x``) so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import saasr.data
import saasr.model
import saasr.training
from saasr.data import Dataset, SynthSpec
from saasr.errors import ConfigError, ContractError, ShapeError
from saasr.losses import LossWeights
from saasr.model import ArBaselineModel, ModelConfig, SaAsrModel
from saasr.nn import AttentionConfig
from saasr.speaker import SpeakerInventory, SpeakerProfile
from saasr.tensor import Tensor

import checks

FRAME_SHIFT_S = 0.008        # the frame shift saasr.bench assumes
FRAMES_PER_TOKEN = 3         # decode inputs: 3 frames per output token
FEATURE_DIM = 16
D_SPK = 16
# One decode round. Sorted by time, L=32 spans the 30th-70th percentile and
# L=64 the 70th-95th, so the median and the 90th percentile each fall
# inside one length's cluster rather than on a boundary between two.
LENGTH_MIX = (8,) * 3 + (16,) * 3 + (32,) * 8 + (64,) * 5 + (128,)
# Speakers per training session. A fixed half-and-half mix instead of a
# draw per session halves the spread of the data size across seeds.
SPEAKER_MIX = (2, 3) * 8
MIN_OPS = 100                # so that >= 10 operations lie above the p90
DETERMINISM_STEPS = 3


def model_config() -> ModelConfig:
    """The desk-scale model of acceptance criterion 6."""
    return ModelConfig(vocab_size=40, feature_dim=FEATURE_DIM,
                       attn=AttentionConfig(32, 4, 64), encoder_layers=2,
                       decoder_layers=2, speaker_encoder_layers=2,
                       d_spk=D_SPK, inter_ctc_layer=1,
                       sampling_factor_lambda=1.1)


@dataclass
class Outcome:
    """Everything one run measured, plus the reasons any check failed."""
    setup_s: float = 0.0
    ops: list = field(default_factory=list)   # (key, seconds, audio s, traced)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    rounds: list = field(default_factory=list)  # (traced, op s, audio s)
    traced: bool = False
    tracer: object = None

    @property
    def times(self) -> list:
        return [t for _, t, _, _ in self.ops]

    def op(self, audio_s: float, key, fn):
        """Time one operation. A saasr error counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except (ConfigError, ContractError, ShapeError) as exc:
            self.failed += 1
            self.fail(f"operation {key} raised {exc!r}")
            return None
        self.ops.append((key, time.perf_counter() - t0, audio_s, self.traced))
        return out

    @contextmanager
    def untraced(self):
        """Keeps a check that calls into saasr out of the per-layer
        figures."""
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True

    def fail(self, reason):
        if reason is not None and len(self.failures) < 50:
            self.failures.append(reason)


def measure(outcome: Outcome, run_round, seconds: float) -> None:
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops ran. With
    a tracer, rounds alternate traced and untraced; the untraced ones give
    the baseline for the tracing overhead."""
    tracer = outcome.tracer
    begin = time.perf_counter()
    while (len(outcome.ops) < MIN_OPS
           or time.perf_counter() - begin < seconds):
        outcome.traced = tracer is not None and len(outcome.rounds) % 2 == 0
        if tracer is not None:
            tracer.active = outcome.traced
        first = len(outcome.ops)
        ops = run_round()
        if outcome.traced:
            tracer.ops += ops
        done = outcome.ops[first:]
        outcome.rounds.append((outcome.traced, sum(op[1] for op in done),
                               sum(op[2] for op in done)))
        if outcome.failed == outcome.attempted:
            break
    outcome.traced = False
    if tracer is not None:
        tracer.active = False


def checkpoint_round_trip(model, work_dir: Path):
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        path = Path(tmp) / "model.ckpt"
        saasr.model.save_checkpoint(path, model)
        loaded, _ = saasr.model.load_checkpoint(path)
    return loaded


# -- train ---------------------------------------------------------------

def train_dataset(seed: int) -> Dataset:
    """16 synthetic sessions, vocab 40, overlap target 0.42, sessions
    seeded as ``saasr.data.generate_dataset`` seeds them."""
    spec = SynthSpec(num_sessions=len(SPEAKER_MIX),
                     speakers_per_session=(2, 3), vocab_size=40,
                     overlap_ratio_target=0.42, feature_dim=FEATURE_DIM,
                     seed=seed)
    return Dataset(spec, [saasr.data.generate_session(
        replace(spec, speakers_per_session=(k, k)), seed=seed * 7919 + i,
        session_id=f"s{i:03d}") for i, k in enumerate(SPEAKER_MIX)])


def train_config(seed: int):
    """The paper's full recipe: glancing factor 1.1, speaker filling, m=2
    interfering speakers, lambda1 = lambda2 = 0.3, batch 4."""
    return saasr.training.TrainConfig(
        model=model_config(), loss=LossWeights(0.3, 0.3), batch_size=4,
        learning_rate=5e-3, warmup_steps=200, seed=seed,
        fill_speakers_enabled=True, interfering_m=2)


def batch_loss(model, batch, weights, fill_to):
    """The mean composite loss of a batch, as ``saasr.training.train``
    forms it."""
    total = None
    for item in batch:
        breakdown, _ = saasr.training.session_losses(model, item, weights,
                                                     fill_to)
        scaled = breakdown.total * (1.0 / len(batch))
        total = scaled if total is None else total + scaled
    return total


def train_step(model, opt, batch, weights, fill_to) -> float:
    opt.zero_grad()
    total = batch_loss(model, batch, weights, fill_to)
    total.backward()
    opt.step()
    return total.item()


def epoch_batches(items, order_rng, batch_size):
    order = order_rng.permutation(len(items))
    return [[items[j] for j in order[s:s + batch_size]]
            for s in range(0, len(order), batch_size)]


def run_train(seed: int, seconds: float, tracer, start: float,
              work_dir: Path) -> Outcome:
    out = Outcome(tracer=tracer)
    dataset = train_dataset(seed)
    cfg = train_config(seed)
    items = saasr.training.prepare_batch_items(dataset, cfg)
    # as in saasr.training.train: one slot past the largest inventory
    fill_to = max(it.inventory.size for it in items) + 1
    frames = {it.session_id: it.features.data.shape[0] for it in items}
    tokens = {s.session_id: len(s.tokens) for s in dataset.sessions}

    model = checkpoint_round_trip(SaAsrModel(cfg.model, seed=seed), work_dir)
    opt = saasr.training.Adam(model.parameters(), lr=cfg.learning_rate,
                              warmup_steps=cfg.warmup_steps)
    batch_loss(model, items[:cfg.batch_size], cfg.loss, fill_to).backward()
    opt.zero_grad()
    out.setup_s = time.perf_counter() - start

    order_rng = np.random.default_rng(seed)
    losses = []
    expected_fired = 0

    def run_round():
        nonlocal expected_fired
        batches = epoch_batches(items, order_rng, cfg.batch_size)
        for batch in batches:
            audio = FRAME_SHIFT_S * sum(frames[it.session_id] for it in batch)
            loss = out.op(audio, "step", lambda: train_step(
                model, opt, batch, cfg.loss, fill_to))
            if loss is not None:
                losses.append(loss)
                if out.traced:
                    expected_fired += sum(tokens[it.session_id]
                                          for it in batch)
        return len(batches)

    measure(out, run_round, seconds)

    out.fail(checks.losses_finite(losses))
    out.fail(checks.loss_decreases(losses))
    if tracer is not None:
        out.fail(checks.tokens_fired(tracer.counts["cif.tokens_fired"],
                                     expected_fired))

    # two fresh models from one seed through the same first steps
    runs = []
    for _ in range(2):
        fresh = SaAsrModel(cfg.model, seed=seed)
        fresh_opt = saasr.training.Adam(fresh.parameters(),
                                        lr=cfg.learning_rate,
                                        warmup_steps=cfg.warmup_steps)
        batches = epoch_batches(items, np.random.default_rng(seed),
                                cfg.batch_size)
        for batch in batches[:DETERMINISM_STEPS]:
            train_step(fresh, fresh_opt, batch, cfg.loss, fill_to)
        runs.append(fresh)
    out.fail(checks.bit_identical(runs[0].parameters(), runs[1].parameters()))

    # directional derivative of one session's loss, first pass pinned
    probe, item = runs[0], items[0]
    pinned = probe.two_pass_train_forward(
        item.features, item.target_tokens, item.speaker_indices,
        item.inventory, sampler_seed=item.sampler_seed, fill_to=fill_to,
        fill_seed=item.fill_seed).first_pass_tokens

    def loss_fn():
        breakdown, _ = saasr.training.session_losses(
            probe, item, cfg.loss, fill_to, first_tokens_override=pinned)
        return breakdown.total

    params = probe.parameters()
    probe.zero_grad()
    loss_fn().backward()
    out.fail(checks.directional_derivative(
        loss_fn, [p.tensor for p in params],
        [p.tensor.grad for p in params], seed=seed))
    return out


# -- decode workloads ------------------------------------------------------

@dataclass
class Utterance:
    length: int
    x: Tensor
    inv: SpeakerInventory

    @property
    def audio_s(self) -> float:
        return FRAME_SHIFT_S * self.x.data.shape[0]


def decode_inputs(seed: int) -> list:
    """Random features of 3 frames per output token and a genuine inventory
    of 2-3 random profiles, one utterance per entry of LENGTH_MIX."""
    rng = np.random.default_rng(seed)
    utts = []
    for i, length in enumerate(LENGTH_MIX):
        x = Tensor(rng.uniform(-1, 1, (FRAMES_PER_TOKEN * length,
                                       FEATURE_DIM)))
        k = int(rng.integers(2, 4))
        inv = SpeakerInventory(
            [SpeakerProfile(f"u{i}s{j}", rng.normal(size=D_SPK))
             for j in range(k)], true_count=k)
        utts.append(Utterance(length, x, inv))
    return utts


def rig_output_length(model: SaAsrModel, utt: Utterance):
    """Point the weight predictor at the constant weight (L + 0.5) / T,
    which crosses the threshold exactly L times over T frames. Written
    here because the helper in saasr.bench is private."""
    p = (utt.length + 0.5) / utt.x.data.shape[0]
    model.predictor.proj.w.data[:] = 0.0
    model.predictor.proj.b.data[:] = np.log(p / (1.0 - p))


def run_decode(model_cls, decode_one, seed: int, seconds: float, tracer,
               start: float, work_dir: Path):
    """Shared driver of both decode workloads; ``decode_one(model, utt,
    out)`` runs, times and checks one decode and returns its hypothesis.
    Returns the outcome, the model, the inputs and each input's last
    hypothesis."""
    out = Outcome(tracer=tracer)
    utts = decode_inputs(seed)
    model = checkpoint_round_trip(model_cls(model_config(), seed=seed),
                                  work_dir)
    decode_one(model, utts[0], Outcome())
    out.setup_s = time.perf_counter() - start

    last = {}

    def run_round():
        for i, utt in enumerate(utts):
            hyp = decode_one(model, utt, out)
            if hyp is not None:
                last[i] = hyp
        return len(utts)

    measure(out, run_round, seconds)
    return out, model, utts, last


def nar_decode_one(model, utt, out):
    rig_output_length(model, utt)
    before = model.decoder_calls
    hyp = out.op(utt.audio_s, utt.length,
                 lambda: model.nar_infer(utt.x, utt.inv))
    if hyp is not None:
        out.fail(checks.hypothesis_length(hyp, utt.length))
        out.fail(checks.speakers_in_inventory(hyp, utt.inv))
        out.fail(checks.decoder_calls_rise(before, model.decoder_calls, 1))
    return hyp


def ar_decode_one(model, utt, out):
    before = model.decoder_calls
    hyp = out.op(utt.audio_s, utt.length, lambda: model.greedy_infer(
        utt.x, utt.inv, max_len=utt.length, forbid_eos=True))
    if hyp is not None:
        out.fail(checks.hypothesis_length(hyp, utt.length))
        out.fail(checks.decoder_calls_rise(before, model.decoder_calls,
                                           utt.length))
        with out.untraced():
            out.fail(checks.greedy_matches_teacher_forced(model, utt.x, hyp))
    return hyp


def run_nar_decode(seed, seconds, tracer, start, work_dir) -> Outcome:
    out, model, utts, last = run_decode(
        SaAsrModel, nar_decode_one, seed, seconds, tracer, start, work_dir)
    first_of_length = {}
    for i, utt in enumerate(utts):
        first_of_length.setdefault(utt.length, i)
    for i in first_of_length.values():
        if i in last:
            rig_output_length(model, utts[i])
            out.fail(checks.inventory_order_invariant(
                model, utts[i].x, utts[i].inv, last[i]))
    if tracer is not None:
        out.fail(checks.tokens_fired(
            tracer.counts["cif.tokens_fired"],
            sum(length for length, _, _, traced in out.ops if traced)))
    return out


def run_ar_decode(seed, seconds, tracer, start, work_dir) -> Outcome:
    out, *_ = run_decode(ArBaselineModel, ar_decode_one, seed, seconds,
                         tracer, start, work_dir)
    return out


WORKLOADS = {"train": run_train, "nar_decode": run_nar_decode,
             "ar_decode": run_ar_decode}


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict:
    """The RTF is taken per round (every round processes the same audio)
    and reported as the median over rounds, like the op times."""
    times = sorted(out.times)
    p90 = times[-(len(times) // 10) - 1]   # >= 10 ops above it at 100 ops
    rtf = statistics.median(s / a for _, s, a in out.rounds if a > 0)
    return {
        "setup_s": {"value": out.setup_s, "unit": "s"},
        "op_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * p90, "unit": "ms"},
        "rtf": {"value": rtf, "unit": "s/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_key(out: Outcome) -> dict:
    """Op count, median op time and RTF per op label (the output length on
    the decode workloads), for the reference tables."""
    groups = {}
    for key, t, audio, _ in out.ops:
        groups.setdefault(key, []).append((t, audio))
    return {str(k): {"ops": len(v),
                     "median_ms": 1e3 * statistics.median(t for t, _ in v),
                     "rtf": sum(t for t, _ in v) / sum(a for _, a in v)}
            for k, v in sorted(groups.items())}

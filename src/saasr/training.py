"""Training loop, optimizer, evaluation driver, and run manifests."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cif import mae_loss
from .data import Dataset, config_pairs, dataset_hash
from .errors import ConfigError, ContractError
from .losses import (CTC_INFEASIBLE_PENALTY, LossWeights, ce_loss,
                     composite_loss, ctc_loss, speaker_loss)
from .metrics import EditCounts, SDCERReport, edit_align, sd_cer
from .model import (ModelConfig, SaAsrModel, decoder_memories,
                    save_checkpoint)
from .speaker import add_interfering
from .tensor import Tensor, no_grad
from .tsot import deserialize, serialize


@dataclass
class TrainConfig:
    model: ModelConfig
    loss: LossWeights = field(default_factory=LossWeights)
    epochs: int = 60
    batch_size: int = 4
    learning_rate: float = 3e-3
    warmup_steps: int = 200
    seed: int = 0
    checkpoint_path: str | None = None
    fill_speakers_enabled: bool = True
    interfering_m: int = 2
    stage1_epochs: int = 0          # speaker-agnostic warm start
    early_stop_patience: int = 5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.warmup_steps < 1:
            raise ConfigError("epochs, batch_size and warmup_steps must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and nonnegative, "
                              f"got {self.learning_rate}")
        if self.interfering_m < 0:
            raise ConfigError("interfering_m must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


ADAM_B1, ADAM_B2 = 0.9, 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with a warmup-then-inverse-sqrt learning-rate schedule."""

    def __init__(self, parameters, lr: float, warmup_steps: int = 200):
        self.parameters = list(parameters)
        self.lr = lr
        self.warmup = warmup_steps
        self.t = 0
        self.m = [np.zeros_like(p.tensor.data) for p in self.parameters]
        self.v = [np.zeros_like(p.tensor.data) for p in self.parameters]

    def current_lr(self) -> float:
        t = max(self.t, 1)
        return self.lr * min(t / self.warmup, math.sqrt(self.warmup / t))

    def step(self):
        self.t += 1
        lr_t = self.current_lr()
        # overflow on exploding gradients saturates to inf; the training
        # loop detects the blow-up as divergence on the following batch
        with np.errstate(over="ignore"):
            for i, p in enumerate(self.parameters):
                g = p.tensor.grad
                if g is None:
                    continue
                self.m[i] = ADAM_B1 * self.m[i] + (1 - ADAM_B1) * g
                self.v[i] = ADAM_B2 * self.v[i] + (1 - ADAM_B2) * (g * g)
                m_hat = self.m[i] / (1 - ADAM_B1 ** self.t)
                v_hat = self.v[i] / (1 - ADAM_B2 ** self.t)
                p.tensor.data -= lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self):
        for p in self.parameters:
            p.tensor.zero_grad()


@dataclass
class RunManifest:
    config: dict               # the TrainConfig's flat key/value pairs
    data_hash: str
    epoch_log: list = field(default_factory=list)
    diverged_at_step: int | None = None
    stopped_early_at_epoch: int | None = None
    infeasible_ctc_events: int = 0
    wall_seconds: float = 0.0

    def save(self, path):
        Path(path).write_text(json.dumps(self.__dict__, indent=2,
                                         sort_keys=True, default=str))


@dataclass
class SessionBatchItem:
    session_id: str
    features: Tensor
    target_tokens: list
    speaker_indices: list
    inventory: object          # possibly augmented
    sampler_seed: int
    fill_seed: int


def _check_dims(model_cfg: ModelConfig, dataset: Dataset):
    """A dataset and a model must agree on vocabulary and feature size."""
    for name in ("vocab_size", "feature_dim"):
        data, model = getattr(dataset.spec, name), getattr(model_cfg, name)
        if data != model:
            raise ConfigError(f"{name} mismatch: data {data} vs model {model}")


def prepare_batch_items(dataset: Dataset, cfg: TrainConfig) -> list:
    """Targets, augmented inventories, and per-session seeds, fixed for the
    whole run so a frozen model sees identical batches every epoch."""
    items = []
    for i, sess in enumerate(dataset.sessions):
        target = serialize(sess.tokens, cfg.model.separator_id)
        inv = sess.inventory
        if cfg.interfering_m > 0:
            pool = dataset.profile_pool(sess.session_id)
            inv = add_interfering(inv, pool, cfg.interfering_m,
                                  seed=cfg.seed * 100003 + i)
        items.append(SessionBatchItem(
            session_id=sess.session_id,
            features=Tensor(sess.features),
            target_tokens=target.tokens,
            speaker_indices=[sess.inventory.index_of(lab)
                             for lab in target.speaker_labels],
            inventory=inv,
            sampler_seed=cfg.seed * 65537 + i,
            fill_seed=cfg.seed * 131071 + i))
    return items


def session_losses(model: SaAsrModel, item: SessionBatchItem,
                   weights: LossWeights, fill_to: int | None,
                   speaker_weight: float = 1.0,
                   first_tokens_override=None):
    """Full composite loss for one session. Returns (breakdown, infeasible)."""
    trace = model.two_pass_train_forward(
        item.features, item.target_tokens, item.speaker_indices,
        item.inventory, sampler_seed=item.sampler_seed, fill_to=fill_to,
        fill_seed=item.fill_seed, first_tokens_override=first_tokens_override)
    f = trace.front
    mae = mae_loss(f.weights, len(item.target_tokens))
    infeasible = 0
    ctc_terms = []
    for head, frames in ((model.ctc_head, f.h_asr),
                         (model.inter_ctc_head, f.h_inter)):
        term = ctc_loss(head(frames), item.target_tokens)
        if math.isinf(term.item()):
            term = Tensor(CTC_INFEASIBLE_PENALTY)
            infeasible += 1
        ctc_terms.append(term)
    ctc, inter = ctc_terms
    ce = ce_loss(trace.second_pass_logits, item.target_tokens)
    spk = speaker_loss(f.cosine, item.speaker_indices, item.inventory.size)
    if speaker_weight != 1.0:
        spk = spk * speaker_weight
    return composite_loss(mae=mae, ctc=ctc, inter_ctc=inter, ce=ce,
                          speaker=spk, weights=weights), infeasible


def train(cfg: TrainConfig, dataset: Dataset,
          init_model: SaAsrModel | None = None) -> RunManifest:
    """Run the optimizer over the dataset; logs one loss breakdown per epoch,
    checkpoints every epoch, stops early on a total-loss plateau, and aborts
    (with the step recorded) if the loss goes non-finite."""
    if not dataset.sessions:
        raise ContractError("training data is empty")
    _check_dims(cfg.model, dataset)

    started = time.perf_counter()
    model = init_model if init_model is not None else SaAsrModel(
        cfg.model, seed=cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.learning_rate, warmup_steps=cfg.warmup_steps)
    items = prepare_batch_items(dataset, cfg)
    fill_to = None
    if cfg.fill_speakers_enabled:
        # one slot past the largest augmented inventory, so every session
        # sees at least one disturbance column
        fill_to = max(it.inventory.size for it in items) + 1
    for item in items:
        # inside the loop, bad data would read as divergence at step one,
        # so each session's loss must be finite before any step
        if not item.target_tokens:
            raise ContractError(
                f"session {item.session_id!r} has no target tokens")
        try:
            with no_grad():
                total = session_losses(model, item, cfg.loss,
                                       fill_to)[0].total.item()
        except ContractError as exc:
            raise ContractError(
                f"session {item.session_id!r}: {exc}") from None
        if not math.isfinite(total):
            raise ContractError(f"session {item.session_id!r} has a "
                                f"non-finite loss {total} before training")

    manifest = RunManifest(config=dict(config_pairs(cfg)),
                           data_hash=dataset_hash(dataset))

    order_rng = np.random.default_rng(cfg.seed)
    best_total = math.inf
    stale_epochs = 0
    step = 0
    for epoch in range(cfg.epochs):
        speaker_weight = 0.0 if epoch < cfg.stage1_epochs else 1.0
        order = order_rng.permutation(len(items))
        sums = {"mae": 0.0, "ctc": 0.0, "inter_ctc": 0.0, "ce": 0.0,
                "speaker": 0.0, "total": 0.0}
        for start in range(0, len(order), cfg.batch_size):
            batch = [items[j] for j in order[start:start + cfg.batch_size]]
            opt.zero_grad()
            batch_total = None
            step += 1
            try:
                for item in batch:
                    breakdown, infeasible = session_losses(
                        model, item, cfg.loss, fill_to, speaker_weight)
                    manifest.infeasible_ctc_events += infeasible
                    for key in sums:
                        sums[key] += getattr(breakdown, key).item()
                    scaled = breakdown.total * (1.0 / len(batch))
                    batch_total = scaled if batch_total is None else \
                        batch_total + scaled
                diverged = not math.isfinite(batch_total.item())
            except ContractError:
                # saturated or non-finite activations violate op contracts
                # (softmax finiteness, degenerate predictor weights); in a
                # run that was healthy at step one this is numeric blow-up
                diverged = True
            if diverged:
                manifest.diverged_at_step = step
                manifest.wall_seconds = time.perf_counter() - started
                return manifest
            batch_total.backward()
            opt.step()
        epoch_mean = {k: v / len(items) for k, v in sums.items()}
        epoch_mean["epoch"] = epoch
        epoch_mean["lr"] = opt.current_lr()
        manifest.epoch_log.append(epoch_mean)
        if cfg.checkpoint_path:
            save_checkpoint(cfg.checkpoint_path, model,
                            extra={"epoch": epoch})
        if epoch_mean["total"] < best_total - 1e-6:
            best_total = epoch_mean["total"]
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= cfg.early_stop_patience:
                manifest.stopped_early_at_epoch = epoch
                break
    manifest.wall_seconds = time.perf_counter() - started
    return manifest


# -- evaluation ----------------------------------------------------------------

@dataclass
class EvalReport:
    sd: SDCERReport
    merged: EditCounts
    session_lines: list
    summary: str


def evaluate(model, dataset: Dataset) -> EvalReport:
    """Parallel-decode every session, regroup per speaker according to the
    serialization mode, and score speaker-dependent and merged error rates."""
    if not isinstance(model, SaAsrModel):
        raise ConfigError(
            f"evaluate needs a parallel (SaAsrModel) checkpoint, got "
            f"{type(model).__name__}")
    _check_dims(model.cfg, dataset)
    sep = model.cfg.separator_id

    all_refs = {}
    all_hyps = {}
    merged = EditCounts()
    lines = []
    for sess in dataset.sessions:
        ref = serialize(sess.tokens)
        refs = {}
        for tok, lab in zip(ref.tokens, ref.speaker_labels):
            refs.setdefault(lab, []).append(tok)
        hyp = model.nar_infer(Tensor(sess.features), sess.inventory)
        groups = deserialize(hyp, sep)
        hyp_merged = [t for t in hyp.tokens if t != sep]

        session_sd = sd_cer(refs, groups)
        session_merged = edit_align(ref.tokens, hyp_merged)
        merged = merged + session_merged
        all_refs.update(refs)
        all_hyps.update(groups)
        lines.append(
            f"session={sess.session_id} sd_cer={session_sd.sd_cer:.1f} "
            f"ins={session_merged.ins} del={session_merged.dels} "
            f"sub={session_merged.sub} ref_len={session_merged.ref_len} "
            f"hyp_len={len(hyp_merged)}")

    sd = sd_cer(all_refs, all_hyps)
    summary = (
        f"SD-CER {sd.sd_cer:.1f}% over {sd.total_ref_len} reference tokens | "
        f"merged CER {merged.cer:.1f}% "
        f"(Ins {merged.ins} Del {merged.dels} Sub {merged.sub})")
    return EvalReport(sd=sd, merged=merged, session_lines=lines,
                      summary=summary)


def validation_ce(model: SaAsrModel, dataset: Dataset) -> float:
    """Teacher-forced cross entropy without the sampler: weights scaled to
    the target length, a single decoder pass on pure acoustic embeddings."""
    total, count = 0.0, 0
    with no_grad():
        for sess in dataset.sessions:
            tokens = serialize(sess.tokens, model.cfg.separator_id).tokens
            f = model.front(Tensor(sess.features), sess.inventory,
                            target_len=len(tokens))
            logits = model.asr_decode(
                f.e_a, decoder_memories(model, f.h_asr), f.d_bar)
            total += ce_loss(logits, tokens).item() * len(tokens)
            count += len(tokens)
    return total / max(count, 1)

"""Model assembly: twin encoders, the weight predictor, the speaker decoder,
a speaker-fused parallel decoder with a two-pass training forward, and a
greedy autoregressive baseline for latency comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .cif import WeightPredictor, integrate_and_fire, scale_weights
from .data import (config_from_pairs, config_pairs, read_end, read_floats,
                   read_header, write_record)
from .errors import ConfigError, ContractError, ShapeError
from .metrics import edit_align
from .nn import (AttentionConfig, CrossBlock, DecoderLayer, Embedding,
                 EncoderLayer, Linear, Module, causal_mask,
                 positional_encoding)
from .speaker import (SpeakerDecoder, SpeakerInventory, assign_speakers,
                      cosine_scores, fill_speakers, weighted_profile)
from .tensor import Tensor, getitem, matmul, no_grad, softmax, transpose

CHECKPOINT_MAGIC = b"SAPF3\n"


@dataclass
class ModelConfig:
    vocab_size: int
    feature_dim: int = 16
    attn: AttentionConfig = field(
        default_factory=lambda: AttentionConfig(32, 4, 64))
    encoder_layers: int = 2
    decoder_layers: int = 2
    speaker_encoder_layers: int = 2
    d_spk: int = 16
    inter_ctc_layer: int = 1
    sampling_factor_lambda: float = 1.1
    use_cc_separator: bool = False

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not 1 <= self.inter_ctc_layer < self.encoder_layers:
            raise ConfigError(
                f"inter_ctc_layer {self.inter_ctc_layer} must lie in "
                f"1..{self.encoder_layers - 1}")
        if not (math.isfinite(self.sampling_factor_lambda)
                and self.sampling_factor_lambda >= 0):
            raise ConfigError(
                f"sampling_factor_lambda must be finite and nonnegative, "
                f"got {self.sampling_factor_lambda}")
        if self.decoder_layers < 1 or self.speaker_encoder_layers < 1:
            raise ConfigError("layer counts must be positive")
        if self.feature_dim < 1 or self.d_spk < 1:
            raise ConfigError(
                f"feature_dim and d_spk must be positive, got "
                f"{self.feature_dim} and {self.d_spk}")

    @property
    def separator_id(self) -> int | None:
        """The speaker-change token: the reserved last vocabulary slot in
        separator mode, None otherwise."""
        return self.vocab_size - 1 if self.use_cc_separator else None


@dataclass
class FrontHalf:
    """What the decoder and the losses read from the encoders, the
    predictor, CIF and the speaker path."""
    h_asr: Tensor
    h_inter: Tensor
    weights: Tensor            # alpha, unscaled, for the MAE term
    e_a: Tensor
    cosine: Tensor             # N x K cosine scores, filled columns last
    speaker_attention: Tensor  # beta, N x K rows summing to 1
    d_bar: Tensor              # weighted profiles, one row per token


@dataclass
class ForwardTrace:
    front: FrontHalf
    first_pass_logits: Tensor
    first_pass_tokens: list
    e_s: Tensor
    second_pass_logits: Tensor
    n_replaced: int


@dataclass
class Hypothesis:
    tokens: list
    speaker_ids: list
    scores: list

    def __post_init__(self):
        if not len(self.tokens) == len(self.speaker_ids) == len(self.scores):
            raise ContractError("hypothesis fields must be parallel")

    def __len__(self):
        return len(self.tokens)


def encode_frames(x: Tensor, input_proj: Linear, layers,
                  tap: int | None = None):
    """Input projection, sinusoidal positions, then the encoder layers.
    Returns the final frames and the output of layer ``tap`` (1-based), or
    None without a tap."""
    h = input_proj(x)
    h = h + Tensor(positional_encoding(h.data.shape[0], h.data.shape[1]))
    tapped = None
    for i, layer in enumerate(layers, start=1):
        h = layer(h)
        if tap is not None and i == tap:
            tapped = h
    return h, tapped


def decoder_memories(model, h_asr: Tensor) -> list:
    """Each of ``model``'s decoder blocks' cross-attention keys and values,
    projected from the encoder frames once for any number of passes."""
    return ([model.dec_first.memory(h_asr, h_asr)]
            + [layer.memory(h_asr) for layer in model.dec_layers])


def glancing_sample(e_a: Tensor, y_true, y_first, token_embed: Embedding,
                    sampling_factor: float, seed: int):
    """Replace a number of acoustic embedding rows with ground-truth token
    embeddings. The count is ceil(factor * edit_errors(truth, first pass)),
    positions drawn uniformly without replacement.

    Returns the mixed embeddings and the replacement count.
    """
    n = e_a.data.shape[0]
    if len(y_true) != n:
        raise ContractError(
            f"glancing_sample needs one target per row: {n} rows, "
            f"{len(y_true)} targets")
    if sampling_factor < 0:
        raise ContractError("sampling factor must be nonnegative")
    dist = edit_align(y_true, y_first).errors
    n_rep = min(n, math.ceil(sampling_factor * dist))
    if n_rep == 0:
        return e_a, 0
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=n_rep, replace=False)
    mask = np.zeros((n, 1))
    mask[picks] = 1.0
    replacement = token_embed(np.asarray(y_true, dtype=np.intp))
    e_s = e_a * Tensor(1.0 - mask) + replacement * Tensor(mask)
    return e_s, n_rep


class SaAsrModel(Module):
    """Speaker-attributed parallel-decoding recognizer.

    ``decoder_calls`` counts decoder forward passes; parallel inference
    performs exactly one regardless of output length.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        d = cfg.attn.model_dim
        self.cfg = cfg
        self.decoder_calls = 0

        self.asr_input = Linear(cfg.feature_dim, d, rng)
        self.asr_layers = [EncoderLayer(cfg.attn, rng)
                           for _ in range(cfg.encoder_layers)]
        self.spk_input = Linear(cfg.feature_dim, d, rng)
        self.spk_layers = [EncoderLayer(cfg.attn, rng)
                           for _ in range(cfg.speaker_encoder_layers)]

        self.predictor = WeightPredictor(d, rng)
        self.token_embed = Embedding(cfg.vocab_size, d, rng)
        self.speaker_decoder = SpeakerDecoder(cfg.attn, rng)
        # shared projection: token representations -> profile space, and
        # (transposed) weighted profiles -> decoder space
        self.w_spk = Tensor(
            rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), (d, cfg.d_spk)),
            requires_grad=True)

        # the weighted speaker profile, mapped back through the shared
        # projection, is added to the first block's feed-forward input
        self.dec_first = CrossBlock(cfg.attn, rng)
        self.dec_layers = [DecoderLayer(cfg.attn, rng)
                           for _ in range(cfg.decoder_layers - 1)]
        self.out_proj = Linear(d, cfg.vocab_size, rng)
        self.ctc_head = Linear(d, cfg.vocab_size + 1, rng)
        self.inter_ctc_head = Linear(d, cfg.vocab_size + 1, rng)

    # -- encoders ------------------------------------------------------

    def asr_encode(self, x: Tensor):
        """Returns the final hidden frames and the intermediate tap."""
        return encode_frames(x, self.asr_input, self.asr_layers,
                             tap=self.cfg.inter_ctc_layer)

    def speaker_encode(self, x: Tensor) -> Tensor:
        h, _ = encode_frames(x, self.spk_input, self.spk_layers)
        return h

    # -- decoder ---------------------------------------------------------

    def asr_decode(self, e: Tensor, memories: list, d_bar: Tensor) -> Tensor:
        """One parallel decoder pass over all token positions (no causal
        mask) against the blocks' ``memories``."""
        self.decoder_calls += 1
        fusion = matmul(d_bar, transpose(self.w_spk))
        e = self.dec_first(e, memories[0], fusion)
        for layer, mem in zip(self.dec_layers, memories[1:]):
            e = layer(e, mem)
        return self.out_proj(e)

    # -- speaker path -------------------------------------------------------

    def speaker_scores(self, e_a: Tensor, h_asr: Tensor, h_spk: Tensor,
                       inv: SpeakerInventory) -> Tensor:
        e_spk = self.speaker_decoder(e_a, h_asr, h_spk)
        return cosine_scores(matmul(e_spk, self.w_spk), inv)

    # -- front half ----------------------------------------------------------

    def check_inputs(self, x: Tensor, inv: SpeakerInventory):
        """Reject features and profiles the model cannot read, naming the
        input at fault."""
        cfg = self.cfg
        shape = x.data.shape
        if len(shape) != 2 or shape[1] != cfg.feature_dim:
            raise ShapeError(
                f"features must be frames x {cfg.feature_dim}, got {shape}")
        if shape[0] < 1:
            raise ContractError("features have no frames")
        if not np.isfinite(x.data).all():
            raise ContractError("features contain non-finite values")
        for p in inv.profiles:
            if p.vector.shape != (cfg.d_spk,):
                raise ShapeError(
                    f"speaker profile {p.id!r} has shape {p.vector.shape}, "
                    f"model expects d_spk {cfg.d_spk}")

    def front(self, x: Tensor, inv: SpeakerInventory,
              target_len: int | None = None, fill_to: int | None = None,
              fill_seed: int = 0) -> FrontHalf:
        """Encode, predict weights, fire token embeddings, score them
        against the inventory and weight its profiles. ``target_len``
        rescales the weights to fire exactly that many tokens (teacher
        forcing); ``fill_to`` pads the scores with speaker filling."""
        self.check_inputs(x, inv)
        h_asr, h_inter = self.asr_encode(x)
        h_spk = self.speaker_encode(x)
        weights = self.predictor(h_asr)
        fired = weights if target_len is None else scale_weights(
            weights, target_len)
        e_a = integrate_and_fire(h_asr, fired).embeddings
        scores = self.speaker_scores(e_a, h_asr, h_spk, inv)
        if fill_to is not None:
            scores = fill_speakers(scores, fill_to, fill_seed)
        att = softmax(scores, axis=1)
        return FrontHalf(h_asr=h_asr, h_inter=h_inter, weights=weights,
                         e_a=e_a, cosine=scores, speaker_attention=att,
                         d_bar=weighted_profile(att, inv))

    # -- training forward -------------------------------------------------

    def two_pass_train_forward(self, x: Tensor, y_true, speaker_indices,
                               inv: SpeakerInventory, sampler_seed: int,
                               fill_to: int | None = None,
                               fill_seed: int = 0,
                               first_tokens_override=None) -> ForwardTrace:
        """Teacher-forced pipeline: encode, fire exactly one embedding per
        target token, attribute speakers, decode once without gradients,
        mix in ground-truth embeddings, decode again with gradients.

        ``first_tokens_override`` pins the first-pass hypothesis (and with
        it the sampler's discrete choices); finite-difference checks use it
        to probe the loss conditional on the realized sampling path.
        """
        if len(speaker_indices) != len(y_true):
            raise ContractError("one speaker index per target token required")
        f = self.front(x, inv, target_len=len(y_true), fill_to=fill_to,
                       fill_seed=fill_seed)
        memories = decoder_memories(self, f.h_asr)  # shared by both passes
        with no_grad():
            first_logits = self.asr_decode(f.e_a, memories, f.d_bar)
        if first_tokens_override is not None:
            first_tokens = list(first_tokens_override)
        else:
            first_tokens = ([] if first_logits.data.shape[0] == 0
                            else list(np.argmax(first_logits.data, axis=1)))
        e_s, n_replaced = glancing_sample(
            f.e_a, y_true, first_tokens, self.token_embed,
            self.cfg.sampling_factor_lambda, sampler_seed)
        second_logits = self.asr_decode(e_s, memories, f.d_bar)
        return ForwardTrace(
            front=f, first_pass_logits=first_logits,
            first_pass_tokens=first_tokens, e_s=e_s,
            second_pass_logits=second_logits, n_replaced=n_replaced)

    # -- inference -----------------------------------------------------------

    def nar_infer(self, x: Tensor, inv: SpeakerInventory) -> Hypothesis:
        """Single-pass parallel inference; the accumulated predictor weight
        fixes the output length. Speaker attention is restricted to the
        genuine inventory prefix."""
        genuine = SpeakerInventory(list(inv.profiles[:inv.true_count]),
                                   inv.true_count)
        with no_grad():
            f = self.front(x, genuine)
            speaker_ids = assign_speakers(f.speaker_attention, genuine)
            logits = self.asr_decode(f.e_a, decoder_memories(self, f.h_asr),
                                     f.d_bar)
            if logits.data.shape[0] == 0:
                return Hypothesis([], [], [])
            posterior = softmax(logits, axis=1).data
            tokens = list(np.argmax(posterior, axis=1))
            confidences = list(posterior.max(axis=1))
        return Hypothesis(tokens=[int(t) for t in tokens],
                          speaker_ids=speaker_ids,
                          scores=[float(c) for c in confidences])


class ArBaselineModel(Module):
    """Architecture mirror of the parallel decoder with causal masking and
    token-by-token greedy emission; exists for the latency comparison.
    ``decoder_calls`` counts steps executed (the stopping step included)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        d = cfg.attn.model_dim
        self.cfg = cfg
        self.decoder_calls = 0
        self.eos_id = cfg.vocab_size
        self.bos_id = cfg.vocab_size + 1

        self.asr_input = Linear(cfg.feature_dim, d, rng)
        self.asr_layers = [EncoderLayer(cfg.attn, rng)
                           for _ in range(cfg.encoder_layers)]
        self.token_embed = Embedding(cfg.vocab_size + 2, d, rng)
        self.dec_first = CrossBlock(cfg.attn, rng)
        self.dec_layers = [DecoderLayer(cfg.attn, rng)
                           for _ in range(cfg.decoder_layers - 1)]
        self.out_proj = Linear(d, cfg.vocab_size + 1, rng)

    def encode(self, x: Tensor) -> Tensor:
        h, _ = encode_frames(x, self.asr_input, self.asr_layers)
        return h

    def decode_prefix(self, prefix_ids, memories: list,
                      last_only: bool = False) -> Tensor:
        """One causally masked decoder pass over the whole prefix against the
        blocks' ``memories``: logits for every position, or with
        ``last_only`` for the last position alone. Every block below the last
        runs over the whole prefix, since its rows are the keys and values of
        the next block's self-attention."""
        self.decoder_calls += 1
        length = len(prefix_ids)
        e = self.token_embed(np.asarray(prefix_ids, dtype=np.intp))
        e = e + Tensor(positional_encoding(length, e.data.shape[1]))
        mask = causal_mask(length)
        last = slice(length - 1, length) if last_only else None
        if last is not None and not self.dec_layers:
            e = getitem(e, last)    # the first block reads no other row
        e = self.dec_first(e, memories[0])
        for i, layer in enumerate(self.dec_layers, start=1):
            e = layer(e, memories[i], self_mask=mask,
                      query_rows=last if i == len(self.dec_layers) else None)
        return self.out_proj(e)

    def teacher_forced_logits(self, x: Tensor, y_true) -> Tensor:
        """Single causally masked pass; position i predicts target i, with a
        trailing end-of-sequence slot."""
        return self.decode_prefix([self.bos_id] + list(y_true),
                                  decoder_memories(self, self.encode(x)))

    def greedy_infer(self, x: Tensor, inv: SpeakerInventory, max_len: int,
                     forbid_eos: bool = False) -> Hypothesis:
        """Greedy decoding, one decoder pass per step; stops on the
        end-of-sequence token or at ``max_len`` emitted tokens. The encoder
        frames are projected once per utterance; each step recomputes the
        whole prefix below the last block, so no prefix state is cached.
        The baseline does not attribute speakers."""
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        with no_grad():
            memories = decoder_memories(self, self.encode(x))
            tokens: list = []
            confidences: list = []
            while len(tokens) < max_len:
                logits = self.decode_prefix([self.bos_id] + tokens, memories,
                                            last_only=True)
                row = logits.data[-1]
                if forbid_eos:
                    row = row[:self.eos_id]
                shifted = np.exp(row - row.max())
                posterior = shifted / shifted.sum()
                tok = int(np.argmax(row))
                if tok == self.eos_id:
                    break
                tokens.append(tok)
                confidences.append(float(posterior.max()))
        return Hypothesis(tokens=tokens, speaker_ids=[""] * len(tokens),
                          scores=confidences)


# -- checkpoint format -------------------------------------------------------

def _param_table(params) -> list:
    """[name, shape] for each parameter, in order, as the header stores it."""
    return [[p.name, list(p.tensor.data.shape)] for p in params]


def save_checkpoint(path, model, extra: dict | None = None):
    """Every parameter's float64 values in ``model.parameters()`` order, in
    the file layout of ``saasr.data``. The header holds the model kind, the
    config's flat key/value pairs as config files write them, and
    ``params``, the [name, shape] of each parameter in order."""
    kind = "ar" if isinstance(model, ArBaselineModel) else "nar"
    params = model.parameters()
    header = {"kind": kind, "config": dict(config_pairs(model.cfg)),
              "params": _param_table(params)}
    if extra:
        header["extra"] = extra
    write_record(path, CHECKPOINT_MAGIC, header,
                 (p.tensor.data for p in params))


def load_checkpoint(path):
    """Returns (model, header). The model class follows the header kind,
    and the header's parameter table must match that model's. A truncated
    or malformed file raises ContractError."""
    with open(path, "rb") as fh:
        header = read_header(fh, CHECKPOINT_MAGIC, "checkpoint")
        try:
            cfg = config_from_pairs(ModelConfig, header["config"])
            kind, table = header["kind"], list(header["params"])
        except (ConfigError, KeyError, TypeError, AttributeError) as exc:
            # TypeError, AttributeError: a config that is not a JSON object
            raise ContractError(f"malformed checkpoint header: {exc}") from None
        if kind not in ("nar", "ar"):
            raise ContractError(f"unknown checkpoint kind {kind!r}")
        model = ArBaselineModel(cfg) if kind == "ar" else SaAsrModel(cfg)
        params = model.parameters()
        expected = _param_table(params)
        if table != expected:
            i, got, want = next((i, a, b) for i, (a, b) in enumerate(
                zip_longest(table, expected)) if a != b)
            raise ContractError(
                f"checkpoint parameter {i} is {got}, model has {want}")
        for p in params:
            p.tensor.data = read_floats(fh, p.tensor.data.shape,
                                        f"checkpoint values of {p.name!r}")
        read_end(fh, "checkpoint")
    return model, header

"""Model assembly: contracts, barriers, counters, sampler, checkpoints."""

import struct

import saasr.data
import saasr.nn

import numpy as np
import pytest
from conftest import fuzz_reader, rewrite_header

from saasr.errors import ConfigError, ContractError
from saasr.data import config_from_pairs, config_pairs
from saasr.model import (CHECKPOINT_MAGIC, ArBaselineModel, ModelConfig,
                         SaAsrModel, decoder_memories, glancing_sample,
                         load_checkpoint, save_checkpoint)
from saasr.nn import AttentionConfig
from saasr.speaker import SpeakerInventory, SpeakerProfile
from saasr.tensor import Tensor, matmul, transpose, tsum


def tiny_cfg(**overrides):
    defaults = dict(vocab_size=11, feature_dim=5,
                    attn=AttentionConfig(8, 2, 16), encoder_layers=2,
                    decoder_layers=2, speaker_encoder_layers=1, d_spk=5,
                    inter_ctc_layer=1)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def make_inventory(k, d, seed=0, true_count=None):
    rng = np.random.default_rng(seed)
    profiles = [SpeakerProfile(f"spk{i}", rng.normal(size=d)) for i in range(k)]
    return SpeakerInventory(profiles, true_count or k)


def random_features(t_len, cfg, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(-1, 1,
                                                      (t_len, cfg.feature_dim)))


# -- config -----------------------------------------------------------------

def test_config_rejects_bad_inter_ctc_layer():
    with pytest.raises(ConfigError):
        tiny_cfg(inter_ctc_layer=2, encoder_layers=2)
    with pytest.raises(ConfigError):
        tiny_cfg(inter_ctc_layer=0)


def test_config_rejects_negative_sampling_factor():
    with pytest.raises(ConfigError):
        tiny_cfg(sampling_factor_lambda=-0.5)


def test_config_round_trips_through_dict():
    cfg = tiny_cfg(use_cc_separator=True, sampling_factor_lambda=0.9)
    assert config_from_pairs(ModelConfig, dict(config_pairs(cfg))) == cfg


# -- encoders -----------------------------------------------------------------

@pytest.mark.parametrize("t_len", [1, 50])
def test_asr_encode_shapes(t_len):
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=0)
    h, h_inter = model.asr_encode(random_features(t_len, cfg))
    assert h.data.shape == (t_len, 8)
    assert h_inter.data.shape == (t_len, 8)


def test_inter_tap_is_requested_layer_output():
    cfg = tiny_cfg(encoder_layers=3, inter_ctc_layer=2)
    model = SaAsrModel(cfg, seed=1)
    x = random_features(6, cfg)
    h, h_inter = model.asr_encode(x)
    # replay the stack by hand: the tap is the penultimate layer's output
    e = model.asr_input(x)
    from saasr.nn import positional_encoding
    e = e + Tensor(positional_encoding(6, 8))
    e = model.asr_layers[0](e)
    e = model.asr_layers[1](e)
    assert np.array_equal(h_inter.data, e.data)
    e = model.asr_layers[2](e)
    assert np.array_equal(h.data, e.data)


def test_ar_encoder_matches_asr_encoder_with_copied_weights():
    cfg = tiny_cfg()
    nar = SaAsrModel(cfg, seed=20)
    ar = ArBaselineModel(cfg, seed=21)
    source = {p.name: p.tensor for p in nar.parameters()}
    for p in ar.parameters():
        if p.name.startswith(("asr_input.", "asr_layers.")):
            p.tensor.data = source[p.name].data.copy()
    x = random_features(7, cfg, seed=22)
    h, _ = nar.asr_encode(x)
    assert np.array_equal(ar.encode(x).data, h.data)


def test_speaker_encode_shape_and_determinism():
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=2)
    x = random_features(7, cfg)
    a = model.speaker_encode(x)
    b = model.speaker_encode(x)
    assert a.data.shape == (7, 8)
    assert np.array_equal(a.data, b.data)


# -- decoder ---------------------------------------------------------------------

def test_decoder_zero_fusion_matches_no_fusion():
    cfg = tiny_cfg(decoder_layers=1)
    model = SaAsrModel(cfg, seed=3)
    model.w_spk.data[:] = 0.0
    x = random_features(9, cfg)
    h, _ = model.asr_encode(x)
    memories = decoder_memories(model, h)
    e = Tensor(np.random.default_rng(4).uniform(-1, 1, (4, 8)))
    d_bar = Tensor(np.random.default_rng(5).uniform(-1, 1, (4, cfg.d_spk)))
    with_fusion = model.asr_decode(e, memories, d_bar)
    without = model.out_proj(model.dec_first(e, memories[0]))
    assert np.array_equal(with_fusion.data, without.data)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_decoder_logit_shape(n):
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=6)
    h, _ = model.asr_encode(random_features(5, cfg))
    e = Tensor(np.random.default_rng(7).uniform(-1, 1, (n, 8)))
    d_bar = Tensor(np.random.default_rng(8).uniform(-1, 1, (n, cfg.d_spk)))
    logits = model.asr_decode(e, decoder_memories(model, h), d_bar)
    assert logits.data.shape == (n, cfg.vocab_size)


def test_profile_perturbation_is_local_without_self_attention():
    cfg = tiny_cfg(decoder_layers=3)
    model = SaAsrModel(cfg, seed=9)
    h, _ = model.asr_encode(random_features(6, cfg))
    memories = decoder_memories(model, h)
    rng = np.random.default_rng(10)
    e = Tensor(rng.uniform(-1, 1, (5, 8)))
    d_bar = rng.uniform(-1, 1, (5, cfg.d_spk))
    bumped = d_bar.copy()
    bumped[2] += 0.75

    # the fused first layer has no self-attention: positions stay apart
    def first_layer(profiles):
        fusion = matmul(Tensor(profiles), transpose(model.w_spk))
        return model.dec_first(e, memories[0], fusion)

    diff = np.abs(first_layer(bumped).data
                  - first_layer(d_bar).data).sum(axis=1)
    assert diff[2] > 1e-6
    assert np.all(diff[[0, 1, 3, 4]] == 0.0)
    # with self-attention active the perturbation spreads
    base_sa = model.asr_decode(e, memories, Tensor(d_bar))
    out_sa = model.asr_decode(e, memories, Tensor(bumped))
    diff_sa = np.abs(out_sa.data - base_sa.data).sum(axis=1)
    assert np.all(diff_sa > 0)


# -- glancing sampler ---------------------------------------------------------------

def sampler_fixture(n=6, seed=11):
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    e_a = Tensor(rng.uniform(-1, 1, (n, 8)))
    y_true = list(rng.integers(0, cfg.vocab_size, size=n))
    return model, e_a, y_true


def test_sampler_zero_factor_is_identity():
    model, e_a, y_true = sampler_fixture()
    y_first = [(t + 1) % 11 for t in y_true]  # everything wrong
    e_s, n_rep = glancing_sample(e_a, y_true, y_first, model.token_embed,
                                 0.0, seed=0)
    assert n_rep == 0
    assert e_s is e_a


def test_sampler_replacement_count_from_error_count():
    model, e_a, y_true = sampler_fixture()
    y_first = list(y_true)
    for i in range(3):
        y_first[i] = (y_first[i] + 1) % 11  # exactly 3 errors
    e_s, n_rep = glancing_sample(e_a, y_true, y_first, model.token_embed,
                                 1.1, seed=1)
    assert n_rep == 4  # ceil(1.1 * 3)
    changed = np.any(e_s.data != e_a.data, axis=1)
    assert changed.sum() <= 4


def test_sampler_no_errors_no_replacement():
    model, e_a, y_true = sampler_fixture()
    e_s, n_rep = glancing_sample(e_a, y_true, list(y_true), model.token_embed,
                                 5.0, seed=2)
    assert n_rep == 0
    assert e_s is e_a


def test_sampler_counts_cap_at_row_count():
    model, e_a, y_true = sampler_fixture(n=4)
    y_first = [(t + 1) % 11 for t in y_true]
    e_s, n_rep = glancing_sample(e_a, y_true, y_first, model.token_embed,
                                 10.0, seed=3)
    assert n_rep == 4
    expected = model.token_embed(np.asarray(y_true)).data
    assert np.allclose(e_s.data, expected, atol=1e-15)


def test_sampler_deterministic_per_seed():
    model, e_a, y_true = sampler_fixture()
    y_first = [(t + 1) % 11 for t in y_true]
    a, _ = glancing_sample(e_a, y_true, y_first, model.token_embed, 0.5, seed=7)
    b, _ = glancing_sample(e_a, y_true, y_first, model.token_embed, 0.5, seed=7)
    assert np.array_equal(a.data, b.data)


def test_sampler_routes_gradient_to_embedding_table():
    model, e_a, y_true = sampler_fixture()
    y_first = [(t + 1) % 11 for t in y_true]
    e_s, n_rep = glancing_sample(e_a, y_true, y_first, model.token_embed,
                                 1.0, seed=4)
    assert n_rep > 0
    tsum(e_s * e_s).backward()
    assert model.token_embed.table.grad is not None
    assert np.any(model.token_embed.table.grad != 0)


# -- two-pass training forward ----------------------------------------------------

def two_pass_fixture(seed=12, t_len=12, n_tokens=5):
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=seed)
    inv = make_inventory(3, cfg.d_spk, seed=seed)
    rng = np.random.default_rng(seed)
    x = random_features(t_len, cfg, seed=seed)
    y = list(rng.integers(0, cfg.vocab_size, size=n_tokens))
    spk = list(rng.integers(0, 3, size=n_tokens))
    return model, x, y, spk, inv


def test_two_pass_trace_is_deterministic():
    model, x, y, spk, inv = two_pass_fixture()
    a = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=5)
    b = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=5)
    assert np.array_equal(a.second_pass_logits.data, b.second_pass_logits.data)
    assert np.array_equal(a.first_pass_logits.data, b.first_pass_logits.data)
    assert a.first_pass_tokens == b.first_pass_tokens


def test_two_pass_projects_each_decoder_memory_once(monkeypatch):
    model, x, y, spk, inv = two_pass_fixture()
    blocks = [model.dec_first] + model.dec_layers
    calls = [0] * len(blocks)
    for i, block in enumerate(blocks):
        def spy(k, v, i=i, memory=block.cross_mha.memory):
            calls[i] += 1
            return memory(k, v)
        monkeypatch.setattr(block.cross_mha, "memory", spy)
    model.two_pass_train_forward(x, y, spk, inv, sampler_seed=5)
    # both glancing passes read the same projected encoder frames
    assert calls == [1] * len(blocks)


def test_two_pass_teacher_forcing_row_count():
    for n_tokens in (1, 4, 9):
        model, x, y, spk, inv = two_pass_fixture(n_tokens=n_tokens, t_len=14)
        trace = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=0)
        assert trace.front.e_a.data.shape[0] == n_tokens
        assert trace.second_pass_logits.data.shape == (n_tokens, 11)


def test_two_pass_first_pass_carries_no_gradient():
    model, x, y, spk, inv = two_pass_fixture()
    trace = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=1)
    assert not trace.first_pass_logits.requires_grad
    assert trace.second_pass_logits.requires_grad
    tsum(trace.second_pass_logits * trace.second_pass_logits).backward()
    assert trace.first_pass_logits.grad is None


def test_two_pass_zeroed_second_pass_leaves_parameters_untouched():
    model, x, y, spk, inv = two_pass_fixture()
    trace = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=2)
    model.zero_grad()
    tsum(trace.second_pass_logits * 0.0).backward()
    for p in model.parameters():
        if p.tensor.grad is not None:
            assert np.all(p.tensor.grad == 0.0), p.name


def test_two_pass_lambda_zero_feeds_pure_acoustic_embeddings():
    cfg = tiny_cfg(sampling_factor_lambda=0.0)
    model = SaAsrModel(cfg, seed=13)
    inv = make_inventory(2, cfg.d_spk, seed=13)
    rng = np.random.default_rng(13)
    x = random_features(10, cfg, seed=13)
    y = list(rng.integers(0, cfg.vocab_size, size=4))
    trace = model.two_pass_train_forward(x, y, [0, 1, 0, 1], inv, sampler_seed=3)
    assert trace.n_replaced == 0
    assert trace.e_s is trace.front.e_a


def test_two_pass_with_filling_keeps_targets_genuine():
    model, x, y, spk, inv = two_pass_fixture()
    trace = model.two_pass_train_forward(x, y, spk, inv, sampler_seed=4,
                                         fill_to=6, fill_seed=9)
    assert trace.front.cosine.data.shape[1] == 6
    # the profile columns come first, untouched by the filling
    plain = model.front(x, inv, target_len=len(y))
    assert np.array_equal(trace.front.cosine.data[:, :inv.size],
                          plain.cosine.data)
    assert trace.front.speaker_attention.data.shape[1] == 6
    sums = trace.front.speaker_attention.data.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


# -- parallel inference ---------------------------------------------------------------

def test_nar_infer_empty_when_predictor_silent():
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=14)
    model.predictor.proj.w.data[:] = 0.0
    model.predictor.proj.b.data[:] = -30.0  # alpha ~ 1e-13 per frame
    hyp = model.nar_infer(random_features(20, cfg, seed=14),
                          make_inventory(2, cfg.d_spk))
    assert len(hyp) == 0


def test_nar_infer_single_decoder_invocation():
    cfg = tiny_cfg()
    for target_n, t_len in ((1, 10), (10, 40), (100, 220)):
        model = SaAsrModel(cfg, seed=15)
        model.predictor.proj.w.data[:] = 0.0
        # alpha = sigmoid(logit((target_n + .5) / t_len)) fires target_n times
        p = (target_n + 0.5) / t_len
        model.predictor.proj.b.data[:] = np.log(p / (1 - p))
        before = model.decoder_calls
        hyp = model.nar_infer(random_features(t_len, cfg, seed=16),
                              make_inventory(3, cfg.d_spk))
        assert model.decoder_calls - before == 1
        assert len(hyp) == target_n


def test_nar_infer_restricts_speakers_to_genuine_prefix():
    cfg = tiny_cfg()
    model = SaAsrModel(cfg, seed=17)
    inv = make_inventory(5, cfg.d_spk, seed=17, true_count=3)
    hyp = model.nar_infer(random_features(30, cfg, seed=18), inv)
    genuine = {f"spk{i}" for i in range(3)}
    assert set(hyp.speaker_ids) <= genuine
    assert len(hyp.tokens) == len(hyp.speaker_ids) == len(hyp.scores)


# -- autoregressive baseline ------------------------------------------------------------

def test_ar_immediate_eos():
    cfg = tiny_cfg()
    model = ArBaselineModel(cfg, seed=18)
    model.out_proj.b.data[model.eos_id] = 50.0
    before = model.decoder_calls
    hyp = model.greedy_infer(random_features(8, cfg, seed=19),
                             make_inventory(2, cfg.d_spk), max_len=10)
    assert model.decoder_calls - before == 1
    assert len(hyp) == 0


def test_ar_counter_equals_steps_executed():
    cfg = tiny_cfg()
    model = ArBaselineModel(cfg, seed=20)
    model.out_proj.b.data[model.eos_id] = -50.0  # never stops early
    before = model.decoder_calls
    hyp = model.greedy_infer(random_features(8, cfg, seed=21),
                             make_inventory(2, cfg.d_spk), max_len=7)
    assert len(hyp) == 7
    assert model.decoder_calls - before == 7


def test_ar_forbid_eos_runs_to_max_len():
    cfg = tiny_cfg()
    model = ArBaselineModel(cfg, seed=22)
    model.out_proj.b.data[model.eos_id] = 50.0  # eos would win otherwise
    hyp = model.greedy_infer(random_features(8, cfg, seed=23),
                             make_inventory(2, cfg.d_spk), max_len=5,
                             forbid_eos=True)
    assert len(hyp) == 5
    assert all(t != model.eos_id for t in hyp.tokens)


def test_ar_teacher_forced_logit_shape():
    cfg = tiny_cfg()
    model = ArBaselineModel(cfg, seed=24)
    logits = model.teacher_forced_logits(random_features(9, cfg, seed=25),
                                         [1, 2, 3])
    assert logits.data.shape == (4, cfg.vocab_size + 1)


@pytest.mark.parametrize("decoder_layers", [1, 2, 3])
def test_ar_greedy_matches_teacher_forced_pass(monkeypatch, decoder_layers):
    cfg = tiny_cfg(decoder_layers=decoder_layers)
    model = ArBaselineModel(cfg, seed=29)
    x = random_features(12, cfg, seed=30)
    prefix_rows, cross_projections, encoded = [], [], []
    decode_prefix = ArBaselineModel.decode_prefix
    memory = saasr.nn.MultiHeadAttention.memory
    encode = ArBaselineModel.encode

    def spy_decode_prefix(self, prefix_ids, *args, **kwargs):
        prefix_rows.append(len(prefix_ids))
        return decode_prefix(self, prefix_ids, *args, **kwargs)

    def spy_memory(self, k, v):
        cross_projections.extend(t for t in (k, v)
                                 if any(t is h for h in encoded))
        return memory(self, k, v)

    def spy_encode(self, frames):
        encoded.append(encode(self, frames))
        return encoded[-1]

    monkeypatch.setattr(ArBaselineModel, "decode_prefix", spy_decode_prefix)
    monkeypatch.setattr(saasr.nn.MultiHeadAttention, "memory", spy_memory)
    monkeypatch.setattr(ArBaselineModel, "encode", spy_encode)
    hyp = model.greedy_infer(x, make_inventory(2, cfg.d_spk), max_len=40,
                             forbid_eos=True)
    assert prefix_rows == list(range(1, 41))
    # each block's cross-attention projects the encoder frames into its keys
    # and values once for the whole utterance
    assert len(encoded) == 1 and len(cross_projections) == 2 * decoder_layers
    monkeypatch.undo()

    # row i of one causally masked pass sees exactly what greedy step i saw
    full = model.teacher_forced_logits(x, hyp.tokens).data
    assert hyp.tokens == list(np.argmax(full[:40, :model.eos_id], axis=1))
    memories = decoder_memories(model, model.encode(x))
    for length in range(1, 41):
        prefix = [model.bos_id] + hyp.tokens[:length - 1]
        last = model.decode_prefix(prefix, memories, last_only=True).data
        assert last.shape == (1, cfg.vocab_size + 1)
        np.testing.assert_allclose(last[0], full[length - 1], rtol=0,
                                   atol=1e-12)


# -- checkpoints ------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg(use_cc_separator=True)
    model = SaAsrModel(cfg, seed=26)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, extra={"note": "round-trip"})
    loaded, header = load_checkpoint(path)
    assert header["kind"] == "nar"
    assert header["extra"]["note"] == "round-trip"
    assert loaded.cfg == cfg
    assert loaded.cfg.separator_id == cfg.vocab_size - 1
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.tensor.data, b.tensor.data)


def test_checkpoint_round_trip_ar(tmp_path):
    cfg = tiny_cfg()
    model = ArBaselineModel(cfg, seed=27)
    path = tmp_path / "ar.ckpt"
    save_checkpoint(path, model)
    loaded, header = load_checkpoint(path)
    assert header["kind"] == "ar"
    assert isinstance(loaded, ArBaselineModel)
    out_a = model.greedy_infer(random_features(6, cfg, seed=28),
                               make_inventory(2, cfg.d_spk), max_len=4)
    out_b = loaded.greedy_infer(random_features(6, cfg, seed=28),
                                make_inventory(2, cfg.d_spk), max_len=4)
    assert out_a.tokens == out_b.tokens


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ContractError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_header_holds_config_pairs(tmp_path):
    cfg = tiny_cfg(sampling_factor_lambda=0.7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SaAsrModel(cfg, seed=29))
    _, header = load_checkpoint(path)
    assert header["config"] == dict(config_pairs(cfg))


@pytest.mark.parametrize("edit", [
    lambda c: {**c, "attn.num_heads": "x"},
    lambda c: {**c, "attn.num_heads": "0"},
    lambda c: {**c, "vocab_size": "1"},
    lambda c: {**c, "bogus": "1"},
    lambda c: {k: v for k, v in c.items() if k != "vocab_size"},
    lambda c: {**c, "use_cc_separator": 1},
    lambda c: {**c, "vocab_size": 12.7},
    lambda c: list(c.items()),
    lambda c: {**c, "feature_dim": "0"},
], ids=["unreadable", "zero-heads", "small-vocab", "unknown-key",
        "missing-key", "non-string", "json-float", "not-a-dict",
        "zero-feature-dim"])
def test_checkpoint_rejects_malformed_header_config(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SaAsrModel(tiny_cfg(), seed=30))
    rewrite_header(
        path, lambda header: {**header, "config": edit(header["config"])})
    with pytest.raises(ContractError, match="malformed checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_rejects_previous_format(tmp_path):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, SaAsrModel(tiny_cfg(), seed=31))
    path.write_bytes(b"SAPF1\n" + path.read_bytes()[len(CHECKPOINT_MAGIC):])
    with pytest.raises(ContractError, match="bad magic b'SAPF1"):
        load_checkpoint(path)


def test_checkpoint_rejects_format_2_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SaAsrModel(tiny_cfg(), seed=32))
    blob = path.read_bytes()
    path.write_bytes(b"SAPF2\n" + blob[len(CHECKPOINT_MAGIC):])
    with pytest.raises(ContractError, match="bad magic b'SAPF2"):
        load_checkpoint(path)


def test_checkpoint_rejects_deeply_nested_header(tmp_path):
    path = tmp_path / "model.ckpt"
    nested = b"[" * 100000
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(nested))
                     + nested)
    with pytest.raises(ContractError, match="malformed checkpoint header"):
        load_checkpoint(path)


@pytest.mark.parametrize("model_class", [SaAsrModel, ArBaselineModel])
def test_checkpoint_reader_fuzz(tmp_path, model_class):
    """A damaged checkpoint fails as ContractError or loads the saved
    parameters bit for bit, under the parameter table that was saved."""
    model = model_class(tiny_cfg(), seed=35)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    saved = model.parameters()
    _, header = load_checkpoint(path)

    def check(result):
        loaded, loaded_header = result
        assert loaded_header["params"] == header["params"]
        params = loaded.parameters()
        assert len(params) == len(saved)
        for a, b in zip(saved, params):
            assert a.name == b.name
            assert np.array_equal(a.tensor.data, b.tensor.data), a.name

    fuzz_reader(path, load_checkpoint, check, seed=36)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SaAsrModel(tiny_cfg(), seed=37))
    path.write_bytes(path.read_bytes() + b"garbage" * 1000)
    with pytest.raises(ContractError, match="bytes after its last array"):
        load_checkpoint(path)


class _FailingFile:
    """A file whose writes fail after the first few, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 6:
            raise OSError("no space left on device")
        return self.fh.write(data)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    previous = SaAsrModel(tiny_cfg(), seed=33)
    save_checkpoint(path, previous)
    monkeypatch.setattr(saasr.data, "open",
                        lambda file, mode: _FailingFile(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, SaAsrModel(tiny_cfg(), seed=34))
    monkeypatch.undo()
    loaded, _ = load_checkpoint(path)
    for a, b in zip(previous.parameters(), loaded.parameters()):
        assert np.array_equal(a.tensor.data, b.tensor.data)
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

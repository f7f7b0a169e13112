"""Synthetic session construction and dataset file round trips."""

from dataclasses import fields

import numpy as np
import pytest
from conftest import fuzz_reader

from saasr.data import (SynthSpec, config_from_pairs, config_pairs,
                        dataset_hash, generate_dataset, generate_session,
                        measured_overlap, parse_flat_config, read_dataset,
                        write_dataset)
from saasr.errors import ConfigError, ContractError
from saasr.training import TrainConfig


def small_spec(**overrides):
    defaults = dict(num_sessions=4, speakers_per_session=(2, 3), vocab_size=12,
                    tokens_per_utterance=(3, 5), frames_per_token=(2, 4),
                    overlap_ratio_target=0.4, feature_dim=6, noise_std=0.05,
                    seed=3)
    defaults.update(overrides)
    return SynthSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(speakers_per_session=(3, 2))
    with pytest.raises(ConfigError):
        small_spec(overlap_ratio_target=1.5)
    with pytest.raises(ConfigError):
        small_spec(noise_std=-0.1)
    with pytest.raises(ConfigError, match="seed"):
        small_spec(seed=-3)


def test_single_speaker_clean_session_has_constant_token_spans():
    spec = small_spec(speakers_per_session=(1, 1), noise_std=0.0)
    sess = generate_session(spec, seed=5)
    for tok in sess.tokens:
        span = sess.features[tok.start_frame:tok.end_frame + 1]
        assert np.allclose(span, span[0], atol=1e-12)


def test_generated_session_is_deterministic():
    spec = small_spec()
    a = generate_session(spec, seed=9)
    b = generate_session(spec, seed=9)
    assert np.array_equal(a.features, b.features)
    assert a.tokens == b.tokens
    assert [p.id for p in a.inventory.profiles] == \
        [p.id for p in b.inventory.profiles]


def test_overlap_lands_near_target_on_average():
    spec = small_spec(num_sessions=100, overlap_ratio_target=0.42)
    ratios = []
    for i in range(100):
        sess = generate_session(spec, seed=1000 + i)
        spans = {}
        for t in sess.tokens:
            spans.setdefault(t.speaker, []).append((t.start_frame, t.end_frame))
        ratios.append(measured_overlap(list(spans.values())))
    mean = float(np.mean(ratios))
    assert abs(mean - 0.42) <= 0.05


def test_token_ids_reserve_separator_slot():
    spec = small_spec()
    for i in range(20):
        sess = generate_session(spec, seed=i)
        assert all(t.token < spec.vocab_size - 1 for t in sess.tokens)


def test_speaker_ids_unique_across_sessions():
    ds = generate_dataset(small_spec())
    ids = [p.id for s in ds.sessions for p in s.inventory.profiles]
    assert len(set(ids)) == len(ids)


def test_profile_pool_excludes_own_session():
    ds = generate_dataset(small_spec())
    pool = ds.profile_pool(ds.sessions[0].session_id)
    own = {p.id for p in ds.sessions[0].inventory.profiles}
    assert own.isdisjoint({p.id for p in pool})
    assert pool  # other sessions contribute


def test_dataset_round_trip_is_byte_identical(tmp_path):
    ds = generate_dataset(small_spec())
    write_dataset(tmp_path / "a.sads", ds)
    loaded = read_dataset(tmp_path / "a.sads")
    write_dataset(tmp_path / "b.sads", loaded)
    assert (tmp_path / "a.sads").read_bytes() == \
        (tmp_path / "b.sads").read_bytes()
    assert dataset_hash(loaded) == dataset_hash(ds)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.sads", "b.sads"]


def test_dataset_session_id_is_not_a_file_name(tmp_path):
    ds = generate_dataset(small_spec(num_sessions=2))
    ds.sessions[0].session_id = "a/b\x00c"
    write_dataset(tmp_path / "d.sads", ds)
    loaded = read_dataset(tmp_path / "d.sads")
    assert loaded.sessions[0].session_id == "a/b\x00c"
    assert dataset_hash(loaded) == dataset_hash(ds)


def test_dataset_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "d.sads"
    write_dataset(path, generate_dataset(small_spec(num_sessions=2)))
    path.write_bytes(path.read_bytes() + b"garbage" * 1000)
    with pytest.raises(ContractError, match="bytes after its last array"):
        read_dataset(path)


def test_dataset_reader_fuzz(tmp_path):
    """A damaged dataset fails as ContractError or reads back equal to the
    saved one."""
    ds = generate_dataset(small_spec(num_sessions=2, feature_dim=3))
    path = tmp_path / "d.sads"
    write_dataset(path, ds)

    def check(loaded):
        assert dataset_hash(loaded) == dataset_hash(ds)

    fuzz_reader(path, read_dataset, check, seed=38)


def test_dataset_hash_sensitive_to_content():
    ds = generate_dataset(small_spec())
    base = dataset_hash(ds)
    ds.sessions[0].features[0, 0] += 1e-9
    assert dataset_hash(ds) != base


def test_flat_config_parsing():
    pairs = parse_flat_config("# comment\nnum_sessions = 5\n\nseed = 7\n"
                              "frames_per_token = 2,4\n")
    spec = config_from_pairs(SynthSpec, pairs)
    assert spec.num_sessions == 5
    assert spec.seed == 7
    assert spec.frames_per_token == (2, 4)


def test_flat_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_pairs(SynthSpec, {"bogus_key": "1"})
    with pytest.raises(ConfigError):
        parse_flat_config("no equals sign here")


def test_spec_pairs_round_trip_every_field():
    spec = SynthSpec(num_sessions=5, speakers_per_session=(1, 4),
                     vocab_size=30, tokens_per_utterance=(2, 6),
                     frames_per_token=(1, 5), overlap_ratio_target=0.25,
                     feature_dim=12, noise_std=0.1, bigram_concentration=0.5,
                     seed=11)
    default = SynthSpec()
    assert all(getattr(spec, f.name) != getattr(default, f.name)
               for f in fields(SynthSpec))
    assert config_from_pairs(SynthSpec, dict(config_pairs(spec))) == spec


@pytest.mark.parametrize("key, value", [
    ("speakers_per_session", "1,2,3"), ("num_sessions", "1.5"),
    ("noise_std", "x")])
def test_spec_unreadable_value_is_config_error(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_pairs(SynthSpec, {key: value})


def test_config_without_required_key_is_config_error():
    with pytest.raises(ConfigError, match="missing key 'model.vocab_size'"):
        config_from_pairs(TrainConfig, {"epochs": "3"})

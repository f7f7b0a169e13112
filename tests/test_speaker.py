"""Speaker decoder, cosine scoring, inventory augmentation, readout."""

import numpy as np
import pytest

from saasr.errors import ContractError
from saasr.nn import AttentionConfig, Parameter
from saasr.speaker import (SpeakerDecoder, SpeakerInventory, SpeakerProfile,
                           add_interfering, assign_speakers, cosine_scores,
                           fill_speakers, weighted_profile)
from saasr.tensor import Tensor, grad_check, softmax, tsum


def orthonormal_inventory(k, d, true_count=None):
    eye = np.eye(d)
    profiles = [SpeakerProfile(f"spk{i}", eye[i]) for i in range(k)]
    return SpeakerInventory(profiles, true_count or k)


def random_inventory(k, d, rng, prefix="spk", true_count=None):
    profiles = [SpeakerProfile(f"{prefix}{i}", rng.normal(size=d))
                for i in range(k)]
    return SpeakerInventory(profiles, true_count or k)


# -- types -------------------------------------------------------------------

def test_profile_is_unit_normalized():
    p = SpeakerProfile("a", np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-12


def test_profile_rejects_zero_vector():
    with pytest.raises(ContractError):
        SpeakerProfile("z", np.zeros(4))


def test_profile_rejects_overflowing_norm():
    # the norm of a huge but finite vector overflows to inf
    with pytest.raises(ContractError, match="norm inf"):
        SpeakerProfile("a", np.array([1e200, 1.0, 2.0]))


def test_inventory_rejects_duplicate_ids():
    p = SpeakerProfile("a", np.array([1.0, 0.0]))
    q = SpeakerProfile("a", np.array([0.0, 1.0]))
    with pytest.raises(ContractError):
        SpeakerInventory([p, q], 2)


def test_inventory_true_count_bounds():
    p = SpeakerProfile("a", np.array([1.0, 0.0]))
    with pytest.raises(ContractError):
        SpeakerInventory([p], 2)


# -- decoder layers ------------------------------------------------------------

def test_layer1_single_frame_attention_collapses():
    cfg = AttentionConfig(4, 1, 8)
    rng = np.random.default_rng(0)
    dec = SpeakerDecoder(cfg, rng)
    h_asr = Tensor(rng.uniform(-1, 1, (1, 4)))
    h_spk = Tensor(rng.uniform(-1, 1, (1, 4)))
    # the attention term projects the single speaker frame whatever the query
    for seed in (1, 2):
        e_a = Tensor(np.random.default_rng(seed).uniform(-1, 1, (3, 4)))
        mha = dec.layer1.cross_mha
        att = mha(e_a, mha.memory(h_asr, h_spk))
        expected = mha.wo(mha.wv(h_spk)).data[0]
        for row in att.data:
            assert np.allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_layer1_output_shape(n):
    cfg = AttentionConfig(4, 2, 8)
    rng = np.random.default_rng(1)
    dec = SpeakerDecoder(cfg, rng)
    mem = dec.layer1.memory(Tensor(rng.uniform(-1, 1, (6, 4))),
                            Tensor(rng.uniform(-1, 1, (6, 4))))
    out = dec.layer1(Tensor(rng.uniform(-1, 1, (n, 4))), mem)
    assert out.data.shape == (n, 4)


def test_layer1_rejects_mismatched_encoder_lengths():
    cfg = AttentionConfig(4, 2, 8)
    rng = np.random.default_rng(2)
    dec = SpeakerDecoder(cfg, rng)
    with pytest.raises(ContractError):
        dec.layer1.memory(Tensor(rng.uniform(-1, 1, (5, 4))),
                          Tensor(rng.uniform(-1, 1, (6, 4))))


def test_layer2_single_frame_cross_attention_collapses():
    cfg = AttentionConfig(4, 1, 8)
    rng = np.random.default_rng(3)
    dec = SpeakerDecoder(cfg, rng)
    h_spk = Tensor(rng.uniform(-1, 1, (1, 4)))
    x = Tensor(rng.uniform(-1, 1, (3, 4)))
    mha = dec.layer2.cross_mha
    att = mha(x, mha.memory(h_spk, h_spk))
    expected = mha.wo(mha.wv(h_spk)).data[0]
    for row in att.data:
        assert np.allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_speaker_decoder_shape(n):
    cfg = AttentionConfig(4, 2, 8)
    rng = np.random.default_rng(4)
    dec = SpeakerDecoder(cfg, rng)
    out = dec(Tensor(rng.uniform(-1, 1, (n, 4))),
              Tensor(rng.uniform(-1, 1, (5, 4))),
              Tensor(rng.uniform(-1, 1, (5, 4))))
    assert out.data.shape == (n, 4)


def test_speaker_decoder_gradient():
    cfg = AttentionConfig(4, 2, 6)
    rng = np.random.default_rng(5)
    dec = SpeakerDecoder(cfg, rng)
    e_a = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    h_asr = Tensor(rng.uniform(-1, 1, (3, 4)))
    h_spk = Tensor(rng.uniform(-1, 1, (3, 4)))

    def loss():
        out = dec(e_a, h_asr, h_spk)
        return tsum(out * out)

    params = dec.named_parameters("spkdec") + [Parameter("e_a", e_a)]
    report = grad_check(loss, params, tolerance=1e-5, max_probes=6)
    assert report.passed, str(report)


# -- cosine scores ------------------------------------------------------------------

def test_cosine_scores_picks_out_matching_profile():
    inv = orthonormal_inventory(3, 5)
    q = Tensor(inv.profiles[0].vector[None, :])
    scores = cosine_scores(q, inv)
    assert np.allclose(scores.data[0], [1.0, 0.0, 0.0], atol=1e-7)


def test_cosine_scores_antipodal_query():
    inv = orthonormal_inventory(2, 4)
    q = Tensor(-inv.profiles[0].vector[None, :])
    scores = cosine_scores(q, inv)
    assert abs(scores.data[0, 0] + 1.0) < 1e-7


def test_cosine_scores_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    inv = random_inventory(3, 6, rng)
    q = rng.uniform(-1, 1, (4, 6))
    scores = cosine_scores(Tensor(q), inv)
    for n in range(4):
        for k in range(3):
            d = inv.profiles[k].vector
            expected = float(q[n] @ d) / (np.linalg.norm(q[n]) * np.linalg.norm(d))
            # implementation guards the query norm with a tiny epsilon
            assert abs(scores.data[n, k] - expected) < 1e-7


def test_cosine_scores_scale_invariant():
    rng = np.random.default_rng(9)
    inv = random_inventory(4, 5, rng)
    q = rng.uniform(-1, 1, (3, 5))
    s1 = cosine_scores(Tensor(q), inv)
    s2 = cosine_scores(Tensor(37.0 * q), inv)
    assert np.max(np.abs(s1.data - s2.data)) < 1e-9
    a1 = softmax(s1, axis=1)
    a2 = softmax(s2, axis=1)
    assert assign_speakers(a1, inv) == assign_speakers(a2, inv)


def test_cosine_scores_zero_norm_query_is_guarded():
    inv = orthonormal_inventory(2, 3)
    scores = cosine_scores(Tensor(np.zeros((1, 3))), inv)
    assert np.all(np.isfinite(scores.data))
    assert np.allclose(scores.data, 0.0)


def test_cosine_scores_gradient():
    rng = np.random.default_rng(10)
    inv = random_inventory(3, 4, rng)
    q = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)

    def loss():
        s = cosine_scores(q, inv)
        return tsum(s * s)

    report = grad_check(loss, [Parameter("q", q)], tolerance=1e-5)
    assert report.passed, str(report)


# -- weighted profile ------------------------------------------------------------

def test_weighted_profile_one_hot_selects_profile():
    inv = orthonormal_inventory(3, 4)
    att = Tensor([[0.0, 1.0, 0.0]])
    out = weighted_profile(att, inv)
    assert np.array_equal(out.data[0], inv.profiles[1].vector)


def test_weighted_profile_antipodal_cancel():
    v = np.array([1.0, 0.0, 0.0])
    inv = SpeakerInventory([SpeakerProfile("a", v), SpeakerProfile("b", -v)], 2)
    att = Tensor([[0.5, 0.5]])
    out = weighted_profile(att, inv)
    assert np.allclose(out.data, 0.0, atol=1e-15)


def test_weighted_profile_matches_sum_oracle():
    rng = np.random.default_rng(12)
    inv = random_inventory(4, 3, rng)
    beta = rng.dirichlet(np.ones(4), size=2)
    out = weighted_profile(Tensor(beta), inv)
    for n in range(2):
        expected = sum(beta[n, k] * inv.profiles[k].vector for k in range(4))
        assert np.max(np.abs(out.data[n] - expected)) < 1e-12


def test_weighted_profile_ignores_filled_columns():
    inv = orthonormal_inventory(2, 3)
    att = Tensor([[0.5, 0.25, 0.25]])  # one padded col
    out = weighted_profile(att, inv)
    expected = 0.5 * inv.profiles[0].vector + 0.25 * inv.profiles[1].vector
    assert np.allclose(out.data[0], expected, atol=1e-12)


# -- speaker filling ----------------------------------------------------------------

def test_fill_speakers_noop_when_width_matches():
    scores = Tensor(np.random.default_rng(13).uniform(-1, 1, (2, 3)))
    filled = fill_speakers(scores, 3, seed=0)
    assert np.array_equal(filled.data, scores.data)


def test_fill_speakers_pads_with_bounded_values():
    rng = np.random.default_rng(14)
    scores = Tensor(rng.uniform(-1, 1, (5, 2)))
    filled = fill_speakers(scores, 4, seed=1)
    assert filled.data.shape == (5, 4)
    assert np.array_equal(filled.data[:, :2], scores.data)
    pad = filled.data[:, 2:]
    assert np.all((pad >= -0.5) & (pad <= 0.5))


def test_fill_speakers_deterministic_per_seed():
    scores = Tensor(np.zeros((3, 2)))
    a = fill_speakers(scores, 5, seed=42)
    b = fill_speakers(scores, 5, seed=42)
    assert np.array_equal(a.data, b.data)
    c = fill_speakers(scores, 5, seed=43)
    assert not np.array_equal(a.data, c.data)


def test_fill_speakers_rejects_smaller_width():
    scores = Tensor(np.zeros((1, 4)))
    with pytest.raises(ContractError):
        fill_speakers(scores, 3, seed=0)


def test_fill_speakers_padding_carries_no_gradient():
    b = Tensor(np.random.default_rng(15).uniform(-1, 1, (2, 2)),
               requires_grad=True)
    filled = fill_speakers(b, 4, seed=2)
    tsum(filled * filled).backward()
    assert b.grad is not None and b.grad.shape == (2, 2)


def test_fill_values_have_near_zero_mean_over_many_draws():
    scores = Tensor(np.zeros((10, 1)))
    draws = []
    for seed in range(10_000):
        filled = fill_speakers(scores, 2, seed=seed)
        draws.append(filled.data[:, 1])
    mean = np.mean(draws, axis=0)  # per padded cell position
    assert np.all(np.abs(mean) < 0.05)


# -- interfering speakers -----------------------------------------------------------

def test_add_interfering_zero_is_identity():
    rng = np.random.default_rng(16)
    inv = random_inventory(3, 4, rng)
    pool = random_inventory(5, 4, rng, prefix="pool").profiles
    out = add_interfering(inv, pool, 0, seed=0)
    assert [p.id for p in out.profiles] == [p.id for p in inv.profiles]


def test_add_interfering_counts():
    rng = np.random.default_rng(17)
    inv = random_inventory(3, 4, rng)
    pool = random_inventory(6, 4, rng, prefix="pool").profiles
    out = add_interfering(inv, pool, 2, seed=1)
    assert out.size == 5
    assert out.true_count == 3
    assert [p.id for p in out.profiles[:3]] == [p.id for p in inv.profiles]


def test_add_interfering_never_collides_over_many_seeds():
    rng = np.random.default_rng(18)
    inv = random_inventory(2, 4, rng)
    pool = random_inventory(8, 4, rng, prefix="pool").profiles
    for seed in range(1000):
        out = add_interfering(inv, pool, 3, seed=seed)
        ids = [p.id for p in out.profiles]
        assert len(set(ids)) == len(ids)


def test_add_interfering_pool_exhausted():
    rng = np.random.default_rng(19)
    inv = random_inventory(2, 4, rng)
    pool = [inv.profiles[0]]  # already present
    with pytest.raises(ContractError, match="exhausted"):
        add_interfering(inv, pool, 1, seed=0)


# -- readout --------------------------------------------------------------------------

def test_assign_speakers_one_hot():
    inv = orthonormal_inventory(3, 3)
    att = Tensor([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert assign_speakers(att, inv) == ["spk2", "spk0", "spk1"]


def test_assign_speakers_tie_takes_lowest_index():
    inv = orthonormal_inventory(4, 4)
    att = Tensor([[0.25, 0.25, 0.25, 0.25]])
    assert assign_speakers(att, inv) == ["spk0"]


def test_assign_speakers_invariant_under_monotone_transform():
    rng = np.random.default_rng(20)
    inv = orthonormal_inventory(4, 4)
    rows = rng.uniform(0.01, 1, (6, 4))
    base = assign_speakers(Tensor(rows), inv)
    transformed = assign_speakers(
        Tensor(np.exp(3 * rows) + 1), inv)
    assert base == transformed


def test_assign_with_orthonormal_profiles_recovers_planted_speakers():
    rng = np.random.default_rng(21)
    inv = orthonormal_inventory(5, 8)
    planted = rng.integers(0, 5, size=30)
    q = np.stack([inv.profiles[j].vector for j in planted])
    att = softmax(cosine_scores(Tensor(q), inv), axis=1)
    assert assign_speakers(att, inv) == [f"spk{j}" for j in planted]

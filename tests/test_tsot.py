"""Serialization codec: merge order, separators, round trips."""

from dataclasses import dataclass

import numpy as np
import pytest

from saasr.errors import ContractError
from saasr.tsot import (SerializedTarget, TimedToken, deserialize, serialize,
                        speaker_change_count)

CC = 99  # reserved separator id used throughout these tests


@dataclass
class FakeHyp:
    tokens: list
    speaker_ids: list


def test_timed_token_validation():
    with pytest.raises(ContractError):
        TimedToken(1, "a", 5, 3)
    with pytest.raises(ContractError):
        TimedToken(1, "a", -1, 3)


def test_serialize_single_speaker_sorted_no_separator():
    toks = [TimedToken(3, "a", 4, 6), TimedToken(1, "a", 0, 1),
            TimedToken(2, "a", 2, 3)]
    out = serialize(toks, CC)
    assert out.tokens == [1, 2, 3]
    assert out.speaker_labels == ["a", "a", "a"]


def test_serialize_interleaved_speakers_with_separator():
    # A ends at 1 and 3, B ends at 2: stream A1 B1 A2 with a change marker
    # at each speaker change
    toks = [TimedToken(10, "A", 0, 1), TimedToken(11, "A", 2, 3),
            TimedToken(20, "B", 1, 2)]
    out = serialize(toks, CC)
    assert out.tokens == [10, CC, 20, CC, 11]
    assert out.speaker_labels == ["A", "B", "B", "A", "A"]


def test_serialize_same_input_without_separator():
    toks = [TimedToken(10, "A", 0, 1), TimedToken(11, "A", 2, 3),
            TimedToken(20, "B", 1, 2)]
    out = serialize(toks)
    assert out.tokens == [10, 20, 11]
    assert out.speaker_labels == ["A", "B", "A"]


def test_serialize_tie_break_is_deterministic():
    toks = [TimedToken(5, "B", 1, 4), TimedToken(6, "A", 2, 4),
            TimedToken(7, "A", 1, 4)]
    out = serialize(toks)
    # equal end frames: order by (start_frame, speaker)
    assert out.tokens == [7, 5, 6]


def test_serialize_empty_input():
    out = serialize([], CC)
    assert out.tokens == [] and out.speaker_labels == []


def test_separator_count_equals_speaker_changes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        toks = []
        for i in range(int(rng.integers(1, 12))):
            start = int(rng.integers(0, 30))
            toks.append(TimedToken(int(rng.integers(0, 20)),
                                   f"s{int(rng.integers(0, 3))}",
                                   start, start + int(rng.integers(0, 5))))
        out = serialize(toks, CC)
        assert out.tokens.count(CC) == speaker_change_count(toks)


def test_plain_stream_is_separator_stream_without_separators():
    # evaluation scores both modes against the plain stream
    rng = np.random.default_rng(2)
    for _ in range(100):
        toks = [TimedToken(int(rng.integers(0, 9)), f"s{int(rng.integers(0, 3))}",
                           int(rng.integers(0, 20)), int(rng.integers(20, 40)))
                for _ in range(int(rng.integers(1, 10)))]
        with_sep = serialize(toks, CC)
        kept = [(tok, lab) for tok, lab in
                zip(with_sep.tokens, with_sep.speaker_labels) if tok != CC]
        plain = serialize(toks)
        assert kept == list(zip(plain.tokens, plain.speaker_labels))


def test_deserialize_groups_by_label_without_separator():
    hyp = FakeHyp([1, 2, 3, 4], ["a", "b", "a", "b"])
    out = deserialize(hyp)
    assert out == {"a": [1, 3], "b": [2, 4]}


def test_deserialize_majority_vote_with_separator():
    hyp = FakeHyp([1, 2, 3, CC, 4], ["a", "b", "a", "a", "b"])
    out = deserialize(hyp, CC)
    assert out == {"a": [1, 2, 3], "b": [4]}


def test_deserialize_majority_tie_takes_first_seen():
    hyp = FakeHyp([1, 2], ["b", "a"])
    out = deserialize(hyp, CC)
    assert out == {"b": [1, 2]}


def test_round_trip_identity_per_speaker():
    rng = np.random.default_rng(3)
    for case in range(1000):
        n_spk = int(rng.integers(1, 4))
        toks = []
        for s in range(n_spk):
            pos = int(rng.integers(0, 6))
            for _ in range(int(rng.integers(1, 6))):
                length = int(rng.integers(1, 4))
                toks.append(TimedToken(int(rng.integers(0, 30)), f"spk{s}",
                                       pos, pos + length))
                pos += length + int(rng.integers(0, 3))
        separator = CC if case % 2 else None
        target = serialize(toks, separator)
        hyp = FakeHyp(target.tokens, target.speaker_labels)
        grouped = deserialize(hyp, separator)
        for s in range(n_spk):
            own = sorted((t for t in toks if t.speaker == f"spk{s}"),
                         key=lambda t: (t.end_frame, t.start_frame, t.speaker))
            assert grouped.get(f"spk{s}", []) == [t.token for t in own]


def test_stable_merge_preserves_per_speaker_order():
    rng = np.random.default_rng(4)
    for _ in range(200):
        toks = []
        for s in range(2):
            pos = int(rng.integers(0, 4))
            for _ in range(5):
                toks.append(TimedToken(int(rng.integers(0, 30)), f"spk{s}",
                                       pos, pos + 2))
                pos += int(rng.integers(2, 5))
        out = serialize(toks)
        for s in range(2):
            own_stream = [tok for tok, lab in
                          zip(out.tokens, out.speaker_labels) if lab == f"spk{s}"]
            own_sorted = [t.token for t in sorted(
                (t for t in toks if t.speaker == f"spk{s}"),
                key=lambda t: (t.end_frame, t.start_frame))]
            assert own_stream == own_sorted


def test_target_invariant_validation():
    with pytest.raises(ContractError):
        SerializedTarget([CC, 1], ["a", "a"], CC)
    with pytest.raises(ContractError):
        SerializedTarget([1, CC], ["a", "a"], CC)
    with pytest.raises(ContractError):
        SerializedTarget([1, CC, CC, 2], ["a", "b", "b", "b"], CC)

"""Serialize multi-speaker timed token streams into one training target
ordered by token end time, optionally marking speaker changes with a
reserved separator token, and invert the serialization for scoring."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError


@dataclass
class TimedToken:
    token: int
    speaker: str
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.start_frame < 0 or self.end_frame < 0:
            raise ContractError("frames must be nonnegative")
        if self.start_frame > self.end_frame:
            raise ContractError(
                f"start_frame {self.start_frame} after end_frame {self.end_frame}")


@dataclass
class SerializedTarget:
    tokens: list
    speaker_labels: list       # separator slots carry the upcoming speaker
    separator: int | None = None

    def __post_init__(self):
        if len(self.tokens) != len(self.speaker_labels):
            raise ContractError("tokens and speaker labels must be parallel")
        sep = self.separator
        if sep is not None:
            if self.tokens and (self.tokens[0] == sep or self.tokens[-1] == sep):
                raise ContractError("separator may not open or close the stream")
            for a, b in zip(self.tokens, self.tokens[1:]):
                if a == sep and b == sep:
                    raise ContractError("adjacent separators")

    def __len__(self):
        return len(self.tokens)


def serialize(utterance_tokens, separator: int | None = None) -> SerializedTarget:
    """Merge all speakers' tokens into one stream sorted by end time
    (ties: start time, then speaker id). Given a ``separator`` id, that
    token is inserted at every speaker change, labeled with the incoming
    speaker.
    """
    ordered = sorted(utterance_tokens,
                     key=lambda t: (t.end_frame, t.start_frame, t.speaker))
    tokens, labels = [], []
    prev_speaker = None
    for t in ordered:
        if separator is not None and prev_speaker not in (None, t.speaker):
            tokens.append(separator)
            labels.append(t.speaker)
        tokens.append(t.token)
        labels.append(t.speaker)
        prev_speaker = t.speaker
    return SerializedTarget(tokens=tokens, speaker_labels=labels,
                            separator=separator)


def deserialize(hyp, separator: int | None = None) -> dict:
    """Group a decoded stream back into per-speaker token sequences.

    Without a separator every token goes to its own predicted speaker
    label. With one, the stream is split at separator tokens and each
    segment goes whole to its majority predicted label (ties: the tied
    speaker seen earliest in the segment). Order within a speaker follows
    the stream.
    """
    tokens = list(hyp.tokens)
    labels = list(hyp.speaker_ids)
    if len(tokens) != len(labels):
        raise ContractError("hypothesis token/speaker sequences not parallel")

    out: dict = {}
    if separator is None:
        for tok, lab in zip(tokens, labels):
            out.setdefault(lab, []).append(tok)
        return out

    segment: list = []
    seg_labels: list = []

    def flush():
        if not segment:
            return
        counts: dict = {}
        first_seen: dict = {}
        for i, lab in enumerate(seg_labels):
            counts[lab] = counts.get(lab, 0) + 1
            first_seen.setdefault(lab, i)
        best = max(counts.values())
        winner = min((lab for lab, c in counts.items() if c == best),
                     key=lambda lab: first_seen[lab])
        out.setdefault(winner, []).extend(segment)
        segment.clear()
        seg_labels.clear()

    for tok, lab in zip(tokens, labels):
        if tok == separator:
            flush()
        else:
            segment.append(tok)
            seg_labels.append(lab)
    flush()
    return out


def speaker_change_count(tokens) -> int:
    """Number of adjacent speaker changes in a timed-token stream once
    sorted the way serialize sorts it."""
    ordered = sorted(tokens, key=lambda t: (t.end_frame, t.start_frame, t.speaker))
    return sum(1 for a, b in zip(ordered, ordered[1:]) if a.speaker != b.speaker)

"""Scoring: edit-distance alignment with insertion / deletion /
substitution decomposition and speaker-dependent CER."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class EditCounts:
    ins: int = 0
    dels: int = 0
    sub: int = 0
    correct: int = 0

    @property
    def ref_len(self) -> int:
        return self.dels + self.sub + self.correct

    @property
    def errors(self) -> int:
        return self.ins + self.dels + self.sub

    @property
    def cer(self) -> float:
        if self.ref_len == 0:
            return 0.0 if self.errors == 0 else math.inf
        return 100.0 * self.errors / self.ref_len

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(self.ins + other.ins, self.dels + other.dels,
                          self.sub + other.sub, self.correct + other.correct)


def edit_align(ref, hyp) -> EditCounts:
    """Minimal-edit alignment of two token sequences. When several optimal
    backtraces exist the decomposition prefers substitution, then deletion,
    then insertion."""
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        row = dp[i]
        prev = dp[i - 1]
        ri = ref[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ri == hyp[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1)

    counts = EditCounts()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and \
                dp[i][j] == dp[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] == hyp[j - 1]:
                counts.correct += 1
            else:
                counts.sub += 1
            i -= 1
            j -= 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            counts.dels += 1
            i -= 1
        else:
            counts.ins += 1
            j -= 1
    return counts


@dataclass
class SDCERReport:
    per_speaker: dict
    total_errors: int
    total_ref_len: int
    sd_cer: float


def sd_cer(refs: dict, hyps: dict) -> SDCERReport:
    """Score each speaker's hypothesis against that speaker's reference.

    A hypothesis speaker absent from the reference contributes pure
    insertions; a reference speaker with no hypothesis contributes pure
    deletions. The aggregate rate is 100 * total errors / total ref length.
    """
    per_speaker = {}
    for speaker in sorted(set(refs) | set(hyps), key=str):
        per_speaker[speaker] = edit_align(refs.get(speaker, []),
                                          hyps.get(speaker, []))
    total_errors = sum(c.errors for c in per_speaker.values())
    total_ref = sum(c.ref_len for c in per_speaker.values())
    rate = 100.0 * total_errors / total_ref if total_ref else \
        (0.0 if total_errors == 0 else math.inf)
    return SDCERReport(per_speaker=per_speaker, total_errors=total_errors,
                       total_ref_len=total_ref, sd_cer=rate)

"""Edit alignment against a recursive oracle and SD-CER."""

import functools
import itertools

import numpy as np

from saasr.metrics import EditCounts, edit_align, sd_cer


def levenshtein_oracle(ref, hyp):
    """Memoized recursive edit distance, independent of the DP module."""
    ref = tuple(ref)
    hyp = tuple(hyp)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(go(i - 1, j - 1) + cost, go(i - 1, j) + 1, go(i, j - 1) + 1)

    return go(len(ref), len(hyp))


def test_identical_sequences():
    c = edit_align([1, 2, 3], [1, 2, 3])
    assert (c.ins, c.dels, c.sub, c.correct) == (0, 0, 0, 3)
    assert c.cer == 0.0


def test_single_substitution():
    c = edit_align(list("abc"), list("axc"))
    assert c.sub == 1 and c.ins == 0 and c.dels == 0
    assert abs(c.cer - 100.0 / 3.0) < 1e-9


def test_suffix_deletion():
    c = edit_align(list("abc"), list("ab"))
    assert c.dels == 1 and c.ins == 0 and c.sub == 0


def test_pure_insertion_and_empty_cases():
    c = edit_align([], [5, 6])
    assert c.ins == 2 and c.ref_len == 0
    c2 = edit_align([5, 6], [])
    assert c2.dels == 2
    c3 = edit_align([], [])
    assert c3.errors == 0 and c3.cer == 0.0


def test_counts_are_consistent_with_ref_length():
    rng = np.random.default_rng(0)
    for _ in range(300):
        ref = list(rng.integers(0, 5, size=int(rng.integers(0, 10))))
        hyp = list(rng.integers(0, 5, size=int(rng.integers(0, 10))))
        c = edit_align(ref, hyp)
        assert c.dels + c.sub + c.correct == len(ref)
        assert c.ins + c.sub + c.correct == len(hyp)


def test_exhaustive_agreement_with_recursive_oracle():
    # every pair of sequences up to length 5 over a 3-symbol alphabet
    alphabet = (0, 1, 2)
    seqs = [seq for n in range(6) for seq in itertools.product(alphabet, repeat=n)]
    for ref in seqs:
        for hyp in seqs:
            assert edit_align(ref, hyp).errors == levenshtein_oracle(ref, hyp)


def test_backtrace_prefers_substitution():
    # distance 1 either way; the sub > del > ins preference must pick sub
    c = edit_align([1], [2])
    assert c.sub == 1 and c.dels == 0 and c.ins == 0


def test_edit_counts_addition():
    total = EditCounts(1, 2, 3, 4) + EditCounts(1, 0, 0, 6)
    assert (total.ins, total.dels, total.sub, total.correct) == (2, 2, 3, 10)


# -- SD-CER ----------------------------------------------------------------------

def test_sd_cer_perfect():
    refs = {"a": [1, 2], "b": [3]}
    report = sd_cer(refs, {"a": [1, 2], "b": [3]})
    assert report.sd_cer == 0.0
    assert report.total_ref_len == 3


def test_sd_cer_fully_swapped_two_speakers_is_100_percent():
    refs = {"a": [1, 2, 3], "b": [4, 5, 6]}
    hyps = {"a": [4, 5, 6], "b": [1, 2, 3]}
    report = sd_cer(refs, hyps)
    assert report.sd_cer == 100.0


def test_sd_cer_single_speaker_reduces_to_cer():
    ref = [1, 2, 3, 4]
    hyp = [1, 9, 4]
    report = sd_cer({"a": ref}, {"a": hyp})
    assert abs(report.sd_cer - edit_align(ref, hyp).cer) < 1e-12


def test_sd_cer_missing_speakers():
    report = sd_cer({"a": [1, 2]}, {"b": [3]})
    # speaker a: two deletions; speaker b: one insertion
    assert report.per_speaker["a"].dels == 2
    assert report.per_speaker["b"].ins == 1
    assert report.total_errors == 3


def test_sd_cer_invariant_under_consistent_relabeling():
    rng = np.random.default_rng(2)
    refs = {f"s{i}": list(rng.integers(0, 9, size=5)) for i in range(3)}
    hyps = {f"s{i}": list(rng.integers(0, 9, size=5)) for i in range(3)}
    base = sd_cer(refs, hyps).sd_cer
    mapping = {"s0": "x2", "s1": "x0", "s2": "x1"}
    renamed = sd_cer({mapping[k]: v for k, v in refs.items()},
                     {mapping[k]: v for k, v in hyps.items()}).sd_cer
    assert base == renamed

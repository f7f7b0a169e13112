"""Token-level speaker attribution: the two-layer speaker decoder, cosine
scoring against a profile inventory, inventory augmentation (speaker filling
and interfering speakers), and the argmax readout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .nn import AttentionConfig, CrossBlock, DecoderLayer, Module
from .tensor import Tensor, clip_min, concat, getitem, matmul, sqrt, tsum

NORM_EPS = 1e-8  # guards zero-norm queries in the cosine denominator


@dataclass
class SpeakerProfile:
    """A unit-normalized identity vector."""
    id: str
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        with np.errstate(over="ignore"):  # a huge value overflows to inf
            norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:  # NaN too, from a non-finite value
            raise ContractError(f"profile {self.id!r} has norm {norm}, "
                                "not finite and positive")
        # skip the division for already-unit vectors so re-ingesting a
        # stored profile reproduces its bytes exactly
        if abs(norm - 1.0) > 1e-12:
            v = v / norm
        self.vector = v


@dataclass
class SpeakerInventory:
    """Ordered profile set; the genuine speakers form the prefix."""
    profiles: list
    true_count: int

    def __post_init__(self):
        if len(self.profiles) < 1:
            raise ContractError("inventory must hold at least one profile")
        ids = [p.id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ContractError("inventory profile ids are not unique")
        if not 1 <= self.true_count <= len(self.profiles):
            raise ContractError(
                f"true_count {self.true_count} outside 1..{len(self.profiles)}")

    @property
    def size(self) -> int:
        return len(self.profiles)

    def matrix(self) -> np.ndarray:
        return np.stack([p.vector for p in self.profiles])

    def index_of(self, speaker_id: str) -> int:
        for i, p in enumerate(self.profiles):
            if p.id == speaker_id:
                return i
        raise ContractError(f"speaker {speaker_id!r} not in inventory")


class SpeakerDecoder(Module):
    """Two layers producing one speaker representation per token. The first
    attends with split sources (query: token embeddings, key: recognition
    frames, value: speaker frames)."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.layer1 = CrossBlock(cfg, rng)
        self.layer2 = DecoderLayer(cfg, rng)

    def __call__(self, e_a: Tensor, h_asr: Tensor, h_spk: Tensor) -> Tensor:
        e_as = self.layer1(e_a, h_asr, h_spk)
        return self.layer2(e_as, h_spk)


def cosine_scores(q: Tensor, inv: SpeakerInventory) -> Tensor:
    """Cosine similarity of each token query against each profile (N x K).

    Zero-norm queries are guarded by flooring the denominator at a tiny
    epsilon; flooring (rather than adding) keeps the scores exactly
    invariant to positive rescaling of the queries.
    """
    d_mat = inv.matrix()
    d_norms = np.linalg.norm(d_mat, axis=1)
    q_norm = clip_min(sqrt(tsum(q * q, axis=1, keepdims=True)), NORM_EPS)
    return matmul(q, Tensor(d_mat.T / d_norms)) / q_norm


def weighted_profile(beta: Tensor, inv: SpeakerInventory) -> Tensor:
    """Attention-weighted combination of the inventory profiles. Columns
    beyond the inventory (filled-in slots) carry no profile and drop out."""
    width = beta.data.shape[1]
    if width < inv.size:
        raise ContractError(
            f"attention width {width} smaller than inventory {inv.size}")
    if width > inv.size:
        beta = getitem(beta, (slice(None), slice(0, inv.size)))
    return matmul(beta, Tensor(inv.matrix()))


def fill_speakers(scores: Tensor, k_max: int, seed: int) -> Tensor:
    """Pad score rows to ``k_max`` columns with uniform[-0.5, 0.5] draws,
    after the profile columns.

    The padding is a constant (no gradient) and is never a training target;
    it only disturbs the attention softmax.
    """
    n, width = scores.data.shape
    if k_max < width:
        raise ContractError(f"k_max {k_max} smaller than score width {width}")
    if k_max == width:
        return scores
    rng = np.random.default_rng(seed)
    pad = rng.uniform(-0.5, 0.5, size=(n, k_max - width))
    return concat([scores, Tensor(pad)], axis=1)


def add_interfering(inv: SpeakerInventory, pool, m: int,
                    seed: int) -> SpeakerInventory:
    """Append ``m`` distinct profiles absent from the inventory."""
    if m == 0:
        return SpeakerInventory(list(inv.profiles), inv.true_count)
    present = {p.id for p in inv.profiles}
    candidates = [p for p in pool if p.id not in present]
    # profiles sharing an id are one candidate
    unique = {}
    for p in candidates:
        unique.setdefault(p.id, p)
    candidates = list(unique.values())
    if len(candidates) < m:
        raise ContractError(
            f"interfering pool exhausted: need {m}, have {len(candidates)}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=m, replace=False)
    extra = [candidates[i] for i in picks]
    return SpeakerInventory(list(inv.profiles) + extra, inv.true_count)


def assign_speakers(beta: Tensor, inv: SpeakerInventory) -> list:
    """Per-token argmax over the attention weights; ties resolve to the
    lowest inventory index."""
    rows = beta.data[:, :inv.size]
    if rows.shape[0] == 0:
        return []
    idx = np.argmax(rows, axis=1)
    return [inv.profiles[i].id for i in idx]

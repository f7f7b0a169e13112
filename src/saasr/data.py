"""Synthetic multi-speaker sessions and their on-disk layout.

A session plants unit speaker profiles and per-token feature signatures so
that both the token identity and the speaker identity of every frame are
linearly decodable from clean features; overlap between speakers is shifted
to a target ratio. Speaker profile dimension equals the feature dimension.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, ContractError
from .speaker import SpeakerInventory, SpeakerProfile
from .tsot import TimedToken

FEATURE_MAGIC = b"SAFT"
OVERLAP_BAND = 0.08          # per-session acceptance band around the target
OVERLAP_RETRIES = 60


@dataclass
class SynthSpec:
    num_sessions: int = 16
    speakers_per_session: tuple[int, int] = (2, 3)
    vocab_size: int = 40
    tokens_per_utterance: tuple[int, int] = (5, 8)
    frames_per_token: tuple[int, int] = (2, 4)
    overlap_ratio_target: float = 0.42
    feature_dim: int = 16
    noise_std: float = 0.05
    # token sequences follow a seeded bigram chain; smaller concentration
    # means more predictable transitions (context carries information)
    bigram_concentration: float = 0.25
    seed: int = 0

    def __post_init__(self):
        self.speakers_per_session = tuple(self.speakers_per_session)
        self.tokens_per_utterance = tuple(self.tokens_per_utterance)
        self.frames_per_token = tuple(self.frames_per_token)
        for name in ("speakers_per_session", "tokens_per_utterance",
                     "frames_per_token"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name} range ({lo}, {hi}) is empty")
        if not 0.0 <= self.overlap_ratio_target <= 1.0:
            raise ConfigError("overlap target must lie in [0, 1]")
        if self.vocab_size < 2:
            raise ConfigError("vocab needs at least one token plus the "
                              "reserved separator slot")
        if self.num_sessions < 1 or self.feature_dim < 1:
            raise ConfigError("num_sessions and feature_dim must be positive")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be finite and nonnegative, "
                              f"got {self.noise_std}")
        if not (math.isfinite(self.bigram_concentration)
                and self.bigram_concentration > 0):
            raise ConfigError(f"bigram_concentration must be finite and "
                              f"positive, got {self.bigram_concentration}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Session:
    session_id: str
    features: np.ndarray
    tokens: list
    inventory: SpeakerInventory

    @property
    def frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    spec: SynthSpec
    sessions: list = field(default_factory=list)

    def profile_pool(self, exclude_session_id: str) -> list:
        pool = []
        for sess in self.sessions:
            if sess.session_id != exclude_session_id:
                pool.extend(sess.inventory.profiles)
        return pool


def vocab_embeddings(spec: SynthSpec) -> np.ndarray:
    """Per-token feature signatures, fixed by the dataset seed."""
    rng = np.random.default_rng(spec.seed)
    emb = rng.normal(size=(spec.vocab_size, spec.feature_dim))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


def bigram_chain(spec: SynthSpec) -> np.ndarray:
    """Token transition matrix over the usable vocabulary (the separator
    slot excluded), fixed by the dataset seed."""
    usable = spec.vocab_size - 1
    rng = np.random.default_rng(spec.seed + 1)
    rows = rng.dirichlet(np.full(usable, spec.bigram_concentration),
                         size=usable)
    return rows


def _sample_tokens(rng, chain: np.ndarray, count: int) -> list:
    usable = chain.shape[0]
    tokens = [int(rng.integers(0, usable))]
    while len(tokens) < count:
        tokens.append(int(rng.choice(usable, p=chain[tokens[-1]])))
    return tokens


def _schedule_speaker(rng, spec, offset):
    """Contiguous token spans for one speaker starting at ``offset``."""
    n_tokens = int(rng.integers(spec.tokens_per_utterance[0],
                                spec.tokens_per_utterance[1] + 1))
    spans = []
    pos = offset
    for _ in range(n_tokens):
        length = int(rng.integers(spec.frames_per_token[0],
                                  spec.frames_per_token[1] + 1))
        spans.append((pos, pos + length - 1))
        pos += length
    return spans


def measured_overlap(span_lists) -> float:
    """Frames with two or more active speakers over frames with any."""
    end = max((e for spans in span_lists for _, e in spans), default=-1)
    active = np.zeros(end + 1, dtype=np.int64)
    for spans in span_lists:
        for s, e in spans:
            active[s:e + 1] += 1
    speech = int((active >= 1).sum())
    if speech == 0:
        return 0.0
    return float((active >= 2).sum()) / speech


def _place_speakers(rng, spec, k):
    """Shift each speaker's utterance until the overlap ratio lands in the
    target band; a single speaker cannot overlap and is placed at zero."""
    if k == 1:
        return [_schedule_speaker(rng, spec, 0)]
    target = spec.overlap_ratio_target
    for _ in range(OVERLAP_RETRIES):
        placed = [_schedule_speaker(rng, spec, 0)]
        for _ in range(1, k):
            spans = _schedule_speaker(rng, spec, 0)
            horizon = max(e for sp in placed for _, e in sp) + 1
            best = None
            for _ in range(40):
                shift = int(rng.integers(0, horizon + 1))
                shifted = [(s + shift, e + shift) for s, e in spans]
                ratio = measured_overlap(placed + [shifted])
                score = abs(ratio - target)
                if best is None or score < best[0]:
                    best = (score, shifted)
            placed.append(best[1])
        if abs(measured_overlap(placed) - target) <= OVERLAP_BAND:
            return placed
    raise ContractError(
        f"could not reach overlap target {target} given the timing ranges")


def generate_session(spec: SynthSpec, seed: int,
                     session_id: str = "s000") -> Session:
    """One synthetic session: speakers, timed tokens, features, inventory."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(spec.speakers_per_session[0],
                         spec.speakers_per_session[1] + 1))
    span_lists = _place_speakers(rng, spec, k)

    profiles = []
    timed = []
    chain = bigram_chain(spec)
    for s, spans in enumerate(span_lists):
        speaker_id = f"{session_id}_spk{s}"
        profiles.append(SpeakerProfile(speaker_id, rng.normal(size=spec.feature_dim)))
        tokens = _sample_tokens(rng, chain, len(spans))
        for tok, (start, end) in zip(tokens, spans):
            timed.append(TimedToken(tok, speaker_id, start, end))

    t_len = max(t.end_frame for t in timed) + 1
    emb = vocab_embeddings(spec)
    by_id = {p.id: p for p in profiles}
    features = np.zeros((t_len, spec.feature_dim))
    for tok in timed:
        signature = emb[tok.token] + by_id[tok.speaker].vector
        features[tok.start_frame:tok.end_frame + 1] += signature
    if spec.noise_std > 0:
        features += spec.noise_std * rng.normal(size=features.shape)

    inventory = SpeakerInventory(profiles, true_count=k)
    return Session(session_id=session_id, features=features,
                   tokens=timed, inventory=inventory)


def generate_dataset(spec: SynthSpec) -> Dataset:
    sessions = [generate_session(spec, seed=spec.seed * 7919 + i,
                                 session_id=f"s{i:03d}")
                for i in range(spec.num_sessions)]
    return Dataset(spec=spec, sessions=sessions)


# -- flat config files ---------------------------------------------------------
#
# A config dataclass is read and written through its own fields. A field of a
# kind with no parser below (such as ``TrainConfig.checkpoint_path``) has no
# key.

def parse_flat_config(text: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_flat_config(path) -> dict:
    """``parse_flat_config`` of a file; a file that is not UTF-8 text
    raises ConfigError naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_flat_config(text)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_pair(text: str) -> tuple:
    lo, hi = text.split(",")
    return (int(lo), int(hi))


_PARSERS = {int: int, float: float, bool: _parse_bool,
            tuple[int, int]: _parse_pair}


def _default(f):
    """A dataclass field's default value, or MISSING."""
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def _build_config(cls, pairs: dict, prefix: str, base):
    """``cls`` from ``pairs``, whose keys are relative to ``prefix``; a field
    not given takes its value from ``base``, or, when that is MISSING, its
    default."""
    kinds = get_type_hints(cls)
    values = {} if base is MISSING else {f.name: getattr(base, f.name)
                                         for f in fields(cls)}
    nested = {f.name: {} for f in fields(cls) if is_dataclass(kinds[f.name])}
    for key, text in pairs.items():
        name, dot, rest = key.partition(".")
        if dot and name in nested:
            nested[name][rest] = text
        elif not dot and kinds.get(name) in _PARSERS:
            try:
                # int(12.7) would truncate a value read from JSON
                if not isinstance(text, str):
                    raise ValueError(text)
                values[name] = _PARSERS[kinds[name]](text)
            except ValueError:
                raise ConfigError(
                    f"key {prefix + key!r}: cannot read {text!r}") from None
        else:
            raise ConfigError(f"unknown key {prefix + key!r}")
    for f in fields(cls):
        if f.name in nested:
            values[f.name] = _build_config(
                kinds[f.name], nested[f.name], f"{prefix}{f.name}.",
                values.get(f.name, _default(f)))
        elif f.name not in values and _default(f) is MISSING:
            raise ConfigError(f"missing key {prefix + f.name!r}")
    return cls(**values)


def config_from_pairs(cls, pairs: dict):
    """The config dataclass ``cls`` from flat ``key = value`` pairs. A key
    parses by its field's declared type: int, float, bool
    (1/true/yes/on, 0/false/no/off) or an int pair written ``lo,hi``. The
    keys of a nested config dataclass, under ``<field>.``, are layered over
    that field's default. An unknown key or an unreadable or non-string
    value raises ConfigError."""
    return _build_config(cls, pairs, "", MISSING)


def config_pairs(cfg) -> list:
    """(key, text) for every field of ``cfg`` that config_from_pairs reads,
    in field order. ``str`` of a float is its repr, the shortest text that
    reads back to the same value."""
    kinds = get_type_hints(type(cfg))
    pairs = []
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), kinds[f.name]
        if is_dataclass(kind):
            pairs.extend((f"{f.name}.{key}", text)
                         for key, text in config_pairs(value))
        elif kind == tuple[int, int]:
            pairs.append((f.name, f"{value[0]},{value[1]}"))
        elif kind in _PARSERS:
            pairs.append((f.name, str(value)))
    return pairs


# -- on-disk layout ---------------------------------------------------------
#
# <dir>/manifest.txt         flat key = value lines plus the session list
# <dir>/<sid>.feat           binary: magic, u32 T, u32 F, row-major float64
# <dir>/<sid>.tokens         text: "token speaker start end" per line
# <dir>/<sid>.inv            text: "true_count K" then "id v1 .. vF" per line

def write_dataset(directory, dataset: Dataset):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in config_pairs(dataset.spec)]
    lines.append("sessions = " + ",".join(s.session_id for s in dataset.sessions))
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")
    for sess in dataset.sessions:
        t_len, dim = sess.features.shape
        with open(directory / f"{sess.session_id}.feat", "wb") as fh:
            fh.write(FEATURE_MAGIC)
            fh.write(struct.pack("<II", t_len, dim))
            fh.write(sess.features.astype("<f8").tobytes())
        token_lines = [f"{t.token} {t.speaker} {t.start_frame} {t.end_frame}"
                       for t in sess.tokens]
        (directory / f"{sess.session_id}.tokens").write_text(
            "\n".join(token_lines) + ("\n" if token_lines else ""))
        inv_lines = [f"true_count {sess.inventory.true_count}"]
        for p in sess.inventory.profiles:
            inv_lines.append(p.id + " "
                             + " ".join(repr(float(v)) for v in p.vector))
        (directory / f"{sess.session_id}.inv").write_text(
            "\n".join(inv_lines) + "\n")


def read_exact(fh, count: int, what: str) -> bytes:
    """Exactly ``count`` bytes of ``what`` from a binary file; a file that
    ends first raises ContractError."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        # checked before reading, so a corrupt length field cannot ask
        # for more memory than the file holds
        raise ContractError(
            f"truncated {what}: needs {count} bytes, {left} left")
    return fh.read(count)


def read_u32s(fh, count: int, what: str) -> tuple:
    return struct.unpack(f"<{count}I", read_exact(fh, 4 * count, what))


def _parse_text(path: Path, parse):
    """``parse`` applied to a text file's lines; a file it cannot read
    raises ContractError naming the file."""
    try:
        return parse(path.read_text().splitlines())
    except (ValueError, IndexError, ContractError) as exc:
        raise ContractError(f"{path.name}: malformed ({exc})") from None


def _parse_tokens(lines, vocab_size: int) -> list:
    """One ``token speaker start end`` line per token. The last vocab slot
    is the separator, never a spoken token."""
    tokens = []
    for line in lines:
        tok, speaker, start, end = line.split()
        tokens.append(TimedToken(int(tok), speaker, int(start), int(end)))
        if not 0 <= tokens[-1].token < vocab_size - 1:
            raise ValueError(f"token id {tok} outside 0..{vocab_size - 2}")
    return tokens


def _parse_inventory(lines) -> SpeakerInventory:
    """``true_count K``, then one ``id v1 .. vF`` line per profile."""
    key, true_count = lines[0].split()
    if key != "true_count":
        raise ValueError(f"first line {lines[0]!r} is not 'true_count K'")
    profiles = []
    for line in lines[1:]:
        speaker, *values = line.split()
        profiles.append(SpeakerProfile(speaker,
                                       np.array([float(v) for v in values])))
    return SpeakerInventory(profiles, int(true_count))


def read_dataset(directory) -> Dataset:
    directory = Path(directory)
    pairs = read_flat_config(directory / "manifest.txt")
    if "sessions" not in pairs:
        raise ContractError(f"{directory / 'manifest.txt'} has no sessions line")
    session_ids = [s for s in pairs.pop("sessions").split(",") if s]
    spec = config_from_pairs(SynthSpec, pairs)
    sessions = []
    for sid in session_ids:
        with open(directory / f"{sid}.feat", "rb") as fh:
            if fh.read(len(FEATURE_MAGIC)) != FEATURE_MAGIC:
                raise ContractError(f"{sid}.feat: bad feature magic")
            t_len, dim = read_u32s(fh, 2, f"{sid}.feat shape")
            values = read_exact(fh, 8 * t_len * dim, f"{sid}.feat values")
            features = np.frombuffer(values, dtype="<f8").reshape(
                t_len, dim).copy()
        tokens = _parse_text(directory / f"{sid}.tokens",
                             lambda lines: _parse_tokens(lines, spec.vocab_size))
        inventory = _parse_text(directory / f"{sid}.inv", _parse_inventory)
        sessions.append(Session(session_id=sid, features=features, tokens=tokens,
                                inventory=inventory))
    return Dataset(spec=spec, sessions=sessions)


def dataset_hash(dataset: Dataset) -> str:
    """Content hash covering features, token timings, and inventories."""
    h = hashlib.sha256()
    for sess in dataset.sessions:
        h.update(sess.session_id.encode())
        h.update(sess.features.astype("<f8").tobytes())
        for t in sess.tokens:
            h.update(f"{t.token}|{t.speaker}|{t.start_frame}|{t.end_frame}"
                     .encode())
        h.update(str(sess.inventory.true_count).encode())
        for p in sess.inventory.profiles:
            h.update(p.id.encode())
            h.update(p.vector.astype("<f8").tobytes())
    return h.hexdigest()

"""Synthetic multi-speaker sessions and the file layout of datasets and
checkpoints.

A session plants unit speaker profiles and per-token feature signatures so
that both the token identity and the speaker identity of every frame are
linearly decodable from clean features; overlap between speakers is shifted
to a target ratio. Speaker profile dimension equals the feature dimension.
"""

from __future__ import annotations

import hashlib
import json
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

DATASET_MAGIC = b"SADS1\n"
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


# -- file layout -------------------------------------------------------------
#
# A checkpoint or a dataset is one file: a magic line, a u32 header length, a
# JSON header with sorted keys, then float64 arrays whose shapes the header
# fixes, and nothing after the last array.

def write_record(path, magic: bytes, header: dict, arrays):
    """Write the file beside ``path`` and then rename it over ``path``, so an
    interrupted write leaves the previous file whole."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for array in arrays:
                fh.write(array.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_exact(fh, count: int, what: str) -> bytes:
    """Exactly ``count`` bytes of ``what`` from a binary file; a negative
    count, or a file that ends first, raises ContractError."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= count <= left:
        # checked before reading, so a corrupt length field cannot ask
        # for more memory than the file holds
        raise ContractError(
            f"truncated {what}: needs {count} bytes, {left} left")
    return fh.read(count)


def read_header(fh, magic: bytes, what: str) -> dict:
    """The header of a ``what`` file; leaves ``fh`` at the first array."""
    found = fh.read(len(magic))
    if found != magic:
        raise ContractError(f"not a {what} file: bad magic {found!r}")
    (hlen,) = struct.unpack("<I", read_exact(fh, 4, f"{what} header length"))
    blob = read_exact(fh, hlen, f"{what} header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise ContractError(f"malformed {what} header: {exc}") from None
    if not isinstance(header, dict):
        raise ContractError(f"malformed {what} header: not a JSON object")
    return header


def read_floats(fh, shape, what: str) -> np.ndarray:
    values = read_exact(fh, 8 * math.prod(shape), what)
    return np.frombuffer(values, dtype="<f8").reshape(shape).astype(np.float64)


def read_end(fh, what: str):
    if fh.read(1):
        raise ContractError(f"{what} file has bytes after its last array")


def write_dataset(path, dataset: Dataset):
    """``dataset`` as one file. The header holds the spec's config pairs, the
    dataset_hash and, per session, its id, frame count, ``[token, speaker,
    start, end]`` tokens, true count and profile ids. The arrays are each
    session's features, then its profile vectors, all feature_dim wide."""
    entries = [{"id": s.session_id, "frames": s.frames,
                "tokens": [[t.token, t.speaker, t.start_frame, t.end_frame]
                           for t in s.tokens],
                "true_count": s.inventory.true_count,
                "profiles": [p.id for p in s.inventory.profiles]}
               for s in dataset.sessions]
    header = {"spec": dict(config_pairs(dataset.spec)),
              "hash": dataset_hash(dataset), "sessions": entries}
    write_record(path, DATASET_MAGIC, header,
                 [a for s in dataset.sessions
                  for a in (s.features, s.inventory.matrix())])


def _typed(value, kind):
    if type(value) is not kind:  # bool is an int, but not a count
        raise TypeError(f"{value!r} is not of type {kind.__name__}")
    return value


def _read_session(fh, spec: SynthSpec, entry: dict) -> Session:
    sid = _typed(entry["id"], str)
    features = read_floats(fh, (_typed(entry["frames"], int),
                                spec.feature_dim), f"features of {sid!r}")
    tokens = []
    for token, speaker, start, end in entry["tokens"]:
        tokens.append(TimedToken(_typed(token, int), _typed(speaker, str),
                                 _typed(start, int), _typed(end, int)))
        # the last vocab slot is the separator, never a spoken token
        if not 0 <= token < spec.vocab_size - 1:
            raise ValueError(f"token id {token} outside "
                             f"0..{spec.vocab_size - 2}")
    ids = entry["profiles"]
    vectors = read_floats(fh, (len(ids), spec.feature_dim),
                          f"profiles of {sid!r}")
    inventory = SpeakerInventory(
        [SpeakerProfile(_typed(pid, str), v) for pid, v in zip(ids, vectors)],
        _typed(entry["true_count"], int))
    return Session(sid, features, tokens, inventory)


def read_dataset(path) -> Dataset:
    """A damaged file raises ContractError naming it."""
    try:
        with open(path, "rb") as fh:
            header = read_header(fh, DATASET_MAGIC, "dataset")
            spec = config_from_pairs(SynthSpec, header["spec"])
            dataset = Dataset(spec, [_read_session(fh, spec, entry)
                                     for entry in header["sessions"]])
            read_end(fh, "dataset")
        if dataset_hash(dataset) != header["hash"]:
            raise ContractError("content does not match the header's hash")
    except KeyError as exc:
        raise ContractError(f"{path}: dataset header lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        # ValueError covers ContractError and ConfigError
        raise ContractError(f"{path}: {exc}") from None
    return dataset


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

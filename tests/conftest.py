"""Shared pytest wiring: surface acceptance-criterion results in the
terminal summary, where output capture cannot swallow them; a writer of the
previous checkpoint format; a header editor and a reader fuzz for
checkpoint and dataset files."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from saasr.errors import ContractError

CRITERION_RESULTS = []


def write_sapf1_checkpoint(path, model):
    """Write ``model`` in the previous checkpoint format, SAPF1: its header
    held the config as nested dicts, and the speaker decoder's first
    cross-attention was named ``layer1.mha``."""
    header = json.dumps({"kind": "nar", "config": asdict(model.cfg)},
                        sort_keys=True).encode("utf-8")
    params = model.parameters()
    with open(path, "wb") as fh:
        fh.write(b"SAPF1\n")
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.replace("layer1.cross_mha.", "layer1.mha.")
            name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            shape = p.tensor.data.shape
            fh.write(struct.pack("<I", len(shape)))
            fh.write(struct.pack(f"<{len(shape)}I", *shape))
            fh.write(p.tensor.data.astype("<f8").tobytes())


def _header_span(blob):
    """Where the JSON header of a checkpoint or dataset file starts and
    ends: after the magic line and the u32 length."""
    start = blob.index(b"\n") + 5
    (hlen,) = struct.unpack("<I", blob[start - 4:start])
    return start, start + hlen


def rewrite_header(path, edit):
    """Replace the JSON header of a saved checkpoint or dataset with
    ``edit(header)``, fixing its length field and keeping the arrays."""
    blob = path.read_bytes()
    start, end = _header_span(blob)
    new = json.dumps(edit(json.loads(blob[start:end]))).encode("utf-8")
    path.write_bytes(blob[:start - 4] + struct.pack("<I", len(new)) + new
                     + blob[end:])


def fuzz_reader(path, load, check, seed):
    """Feed ``load`` damaged copies of the checkpoint or dataset at ``path``:
    the file cut at every offset through its header and at every 97th
    through its arrays, 500 seeded byte flips in the header, and each digit
    in the header (config and spec values, shapes, frame and true counts)
    turned into another digit, which leaves the JSON valid. Each copy must
    raise ContractError or give a result that ``check`` accepts."""
    blob = path.read_bytes()
    start, payload = _header_span(blob)
    for end in [*range(payload), *range(payload, len(blob), 97)]:
        path.write_bytes(blob[:end])
        with pytest.raises(ContractError):
            load(path)
    rng = np.random.default_rng(seed)
    flips = list(zip(rng.integers(0, payload, 500), rng.integers(1, 256, 500)))
    for pos in range(start, payload):
        if chr(blob[pos]).isdigit():
            other = (blob[pos] - 48 + rng.integers(1, 10)) % 10 + 48
            flips.append((pos, blob[pos] ^ other))
    for pos, flip in flips:
        flipped = bytearray(blob)
        flipped[pos] ^= flip
        path.write_bytes(flipped)
        try:
            result = load(path)
        except ContractError:
            continue
        check(result)


def record_criterion(criterion: int, passed: bool, detail: str):
    CRITERION_RESULTS.append((criterion, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion, passed, detail in sorted(CRITERION_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {criterion}: {status} - {detail}")

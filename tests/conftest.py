"""Shared pytest wiring: surface acceptance-criterion results in the
terminal summary, where output capture cannot swallow them; a writer of the
previous checkpoint format; and a checkpoint corrupter."""

import json
import struct
from dataclasses import asdict

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


def flip_first_rank_high_byte(path):
    """Flip the high byte of the first parameter's rank field in a saved
    checkpoint, so the rank reads about 4.3e9."""
    blob = bytearray(path.read_bytes())
    pos = 6                                      # past the magic
    (hlen,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4 + hlen + 4                          # header, parameter count
    (nlen,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4 + nlen                              # the first name
    blob[pos + 3] ^= 0xFF
    path.write_bytes(bytes(blob))


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

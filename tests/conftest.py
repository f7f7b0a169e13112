"""Shared pytest wiring: surface acceptance-criterion results in the
terminal summary, where output capture cannot swallow them; a writer of the
previous checkpoint format; and a checkpoint header editor."""

import json
import struct
from dataclasses import asdict

from saasr.model import CHECKPOINT_MAGIC

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


def rewrite_checkpoint_header(path, edit):
    """Replace the JSON header of a saved checkpoint with ``edit(header)``,
    fixing its length field and keeping the payload."""
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack("<I", blob[start - 4:start])
    new = json.dumps(edit(json.loads(blob[start:start + hlen]))).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new
                     + blob[start + hlen:])


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

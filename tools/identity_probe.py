"""Fixed-seed identity probe: write the benchmark's ``train`` data at seed 3
with ``write_dataset`` and print its ``dataset_hash`` and that of the copy
``read_dataset`` reads back; then train 10 epochs of it and of the
benchmark's recipe, in both separator modes, and print the last epoch's
total loss, ``validation_ce``, the ``evaluate`` summary, a hash of every
parameter, and the same hash after a checkpoint save and load. Two trees
that print the same lines store datasets, train, score and round-trip
checkpoints bit-identically on this recipe. Exits 1, naming the hash, when
a reloaded hash differs from the saved one.

    python3 tools/identity_probe.py            # this tree
    python3 tools/identity_probe.py OTHER_TREE # another checkout's src/
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

SEED = 3
EPOCHS = 10


def param_hash(model) -> str:
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.name.encode("utf-8"))
        digest.update(p.tensor.data.tobytes())
    return digest.hexdigest()


def main(argv) -> int:
    tree = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent)
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmark")]
    from saasr.data import dataset_hash, read_dataset, write_dataset
    from saasr.model import SaAsrModel, load_checkpoint, save_checkpoint
    from saasr.training import evaluate, train, validation_ce
    from workloads import train_config, train_dataset

    dataset = train_dataset(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        # a name that write_dataset takes as a new directory or a new file
        write_dataset(Path(tmp) / "data", dataset)
        reloaded = read_dataset(Path(tmp) / "data")
    saved, back = dataset_hash(dataset), dataset_hash(reloaded)
    print(f"dataset {saved} reloaded {back}")
    differs = [] if back == saved else ["dataset"]
    base = train_config(SEED)
    for separator in (False, True):
        cfg = replace(base, epochs=EPOCHS,
                      model=replace(base.model, use_cc_separator=separator))
        model = SaAsrModel(cfg.model, seed=cfg.seed)
        manifest = train(cfg, dataset, init_model=model)
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(Path(tmp) / "model.ckpt", model)
            loaded, _ = load_checkpoint(Path(tmp) / "model.ckpt")
        print(f"use_cc_separator={separator}")
        print(f"  last total {manifest.epoch_log[-1]['total']!r}")
        print(f"  validation_ce {validation_ce(model, dataset)!r}")
        print(f"  {evaluate(model, dataset).summary}")
        saved, back = param_hash(model), param_hash(loaded)
        print(f"  params {saved}")
        print(f"  reloaded params {back}")
        if back != saved:
            differs.append(f"params with use_cc_separator={separator}")
    for name in differs:
        print(f"reloaded hash differs from the saved one: {name}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Command-line surface: data generation, training, evaluation, the latency
benchmark, and the gradient self-check."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import bench_rtf
from .data import (SynthSpec, config_from_pairs, generate_dataset,
                   read_dataset, read_flat_config, write_dataset)
from .diagnostics import run_gradient_suite
from .errors import ConfigError, ContractError, ShapeError
from .model import load_checkpoint
from .training import TrainConfig, evaluate, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saasr",
        description="Speaker-attributed parallel-decoding ASR on synthetic "
                    "multi-speaker data")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--config", help="flat key=value dataset spec file")
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--seed", type=int, help="override the spec seed")

    tr = sub.add_parser("train", help="train a model on a dataset")
    tr.add_argument("--data", required=True, help="dataset file")
    tr.add_argument("--out", required=True,
                    help="output directory for checkpoint and manifest")
    tr.add_argument("--config", help="flat key=value training config file")
    tr.add_argument("--seed", type=int, help="override the config seed")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="dataset file")
    ev.add_argument("--out", help="write session-level score lines here")

    be = sub.add_parser("bench", help="parallel vs autoregressive latency")
    be.add_argument("--nar", required=True, help="parallel-model checkpoint")
    be.add_argument("--ar", required=True, help="autoregressive checkpoint")
    be.add_argument("--lengths", default="8,16,32,64",
                    help="comma-separated output lengths")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", help="write the ratio table here")

    gc = sub.add_parser("grad-check", help="run the gradient self-check suite")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    return parser


# -- config plumbing -----------------------------------------------------------

def train_config_from_pairs(pairs: dict, dataset_spec: SynthSpec) -> TrainConfig:
    """A TrainConfig from flat dotted keys; the model's vocabulary, feature
    and speaker-profile dims default to the dataset's."""
    dims = {"model.vocab_size": str(dataset_spec.vocab_size),
            "model.feature_dim": str(dataset_spec.feature_dim),
            "model.d_spk": str(dataset_spec.feature_dim)}
    return config_from_pairs(TrainConfig, {**dims, **pairs})


# -- subcommands -----------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    pairs = read_flat_config(args.config) if args.config else {}
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    spec = config_from_pairs(SynthSpec, pairs)
    dataset = generate_dataset(spec)
    write_dataset(args.out, dataset)
    total_frames = sum(s.frames for s in dataset.sessions)
    print(f"wrote {len(dataset.sessions)} sessions "
          f"({total_frames} frames) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = read_dataset(args.data)
    pairs = read_flat_config(args.config) if args.config else {}
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    cfg = train_config_from_pairs(pairs, dataset.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.checkpoint_path = str(out / "model.ckpt")
    manifest = train(cfg, dataset)
    manifest.save(out / "manifest.json")
    if manifest.diverged_at_step is not None:
        print(f"training diverged at step {manifest.diverged_at_step}; "
              f"manifest written to {out / 'manifest.json'}", file=sys.stderr)
        return 1
    last = manifest.epoch_log[-1]
    print(f"trained {len(manifest.epoch_log)} epochs; "
          f"final total {last['total']:.4f}, ce {last['ce']:.4f}; "
          f"checkpoint at {cfg.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    dataset = read_dataset(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    report = evaluate(model, dataset)
    for line in report.session_lines:
        print(line)
    print(report.summary)
    if args.out:
        Path(args.out).write_text("\n".join(report.session_lines)
                                  + "\n" + report.summary + "\n")
    return 0


def _cmd_bench(args) -> int:
    try:
        lengths = [int(v) for v in args.lengths.split(",") if v]
    except ValueError:
        raise ConfigError(
            f"--lengths must be integers: {args.lengths!r}") from None
    result = bench_rtf(args.nar, args.ar, lengths, seed=args.seed)
    print(result.table())
    if args.out:
        Path(args.out).write_text(result.table() + "\n")
    return 0


def _cmd_grad_check(args) -> int:
    results = run_gradient_suite(seed=args.seed, tolerance=args.tolerance)
    all_pass = True
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        all_pass = all_pass and report.passed
        print(f"{status}  max rel err {report.worst:10.3e}  {name}")
    print("gradient suite:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen-data": _cmd_gen_data, "train": _cmd_train,
                "eval": _cmd_eval, "bench": _cmd_bench,
                "grad-check": _cmd_grad_check}
    try:
        return handlers[args.command](args)
    except (ConfigError, ContractError, ShapeError, OSError) as exc:
        # OSError: a missing or unreadable input file or directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

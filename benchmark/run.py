"""Checked benchmark of the saasr package: optimizer steps (train), parallel
decoding (nar_decode) and greedy autoregressive decoding (ar_decode).

    python3 benchmark/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/`` next
to this directory. One process, one caller, BLAS pinned to one thread.
Prints a summary, then as the last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A copy with
per-length detail goes to ``benchmark/results/``. Exits 1 when a check
fails or the sources are missing.
"""

import time

START = time.perf_counter()   # setup_s counts from here

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "nar_decode", "ar_decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_sources():
    """Import saasr from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "saasr" / "__init__.py").is_file():
        sys.exit(f"benchmark: no saasr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import saasr
    if Path(saasr.__file__).resolve().parent != (SRC / "saasr").resolve():
        sys.exit(f"benchmark: saasr imported from {saasr.__file__}, "
                 f"not from {SRC}")


def overhead_pct(rounds) -> float:
    traced = [s for t, s, _ in rounds if t]
    plain = [s for t, s, _ in rounds if not t]
    if not traced or not plain:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_sources()
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, tracer, START, BENCH_DIR / ".work")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = not out.failures and bool(out.ops)
    if not out.ops:
        metrics = {}
    elif tracer is not None:
        metrics = tracer.metrics(overhead_pct(out.rounds))
    else:
        metrics = workloads.end_to_end(out, peak_rss_mb)
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}

    per_key = workloads.per_key(out)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(out.ops)} ops in {len(out.rounds)} rounds, "
          f"setup {out.setup_s:.3f} s")
    for key, row in per_key.items():
        print(f"  {key:>5}: {row['ops']:5d} ops  median {row['median_ms']:9.3f}"
              f" ms  rtf {row['rtf']:.5f}")
    for reason in out.failures:
        print(f"CHECK FAILED: {reason}", file=sys.stderr)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  per_key=per_key, failures=out.failures)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: every output check passes on real output
and rejects a corrupted copy, and a short run of each workload finishes
with every metric BENCHMARK.json names.

    python3 -m pytest benchmark
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_sources()

import checks  # noqa: E402
import saasr.data  # noqa: E402
import saasr.training  # noqa: E402
import workloads  # noqa: E402
from saasr.model import (ArBaselineModel, Hypothesis,  # noqa: E402
                         SaAsrModel)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy(hyp, tokens=None, speaker_ids=None):
    tokens = list(hyp.tokens if tokens is None else tokens)
    speaker_ids = list(hyp.speaker_ids if speaker_ids is None
                       else speaker_ids)
    return Hypothesis(tokens, speaker_ids, [0.0] * len(tokens))


@pytest.fixture(scope="module")
def utt():
    return workloads.decode_inputs(seed=5)[3]      # L = 16


@pytest.fixture(scope="module")
def nar(utt):
    model = SaAsrModel(workloads.model_config(), seed=5)
    workloads.rig_output_length(model, utt)
    return model, model.nar_infer(utt.x, utt.inv)


@pytest.fixture(scope="module")
def ar(utt):
    model = ArBaselineModel(workloads.model_config(), seed=5)
    return model, model.greedy_infer(utt.x, utt.inv, max_len=utt.length,
                                     forbid_eos=True)


def test_length_check_rejects_wrong_length(utt, nar, ar):
    for _, hyp in (nar, ar):
        assert checks.hypothesis_length(hyp, utt.length) is None
        short = _copy(hyp, hyp.tokens[:-1], hyp.speaker_ids[:-1])
        assert checks.hypothesis_length(short, utt.length) is not None


def test_speaker_check_rejects_id_outside_inventory(utt, nar):
    _, hyp = nar
    assert checks.speakers_in_inventory(hyp, utt.inv) is None
    stray = _copy(hyp, speaker_ids=["intruder"] + hyp.speaker_ids[1:])
    assert checks.speakers_in_inventory(stray, utt.inv) is not None


def test_teacher_forced_check_rejects_one_swapped_token(utt, ar):
    model, hyp = ar
    assert checks.greedy_matches_teacher_forced(model, utt.x, hyp) is None
    tokens = list(hyp.tokens)
    tokens[5] = (tokens[5] + 1) % model.eos_id
    swapped = _copy(hyp, tokens)
    assert checks.greedy_matches_teacher_forced(model, utt.x,
                                                swapped) is not None


def test_inventory_order_check_rejects_changed_output(utt, nar):
    model, hyp = nar
    assert checks.inventory_order_invariant(model, utt.x, utt.inv,
                                            hyp) is None
    other = utt.inv.profiles[1].id if hyp.speaker_ids[0] == \
        utt.inv.profiles[0].id else utt.inv.profiles[0].id
    changed = _copy(hyp, speaker_ids=[other] + hyp.speaker_ids[1:])
    assert checks.inventory_order_invariant(model, utt.x, utt.inv,
                                            changed) is not None


def test_decoder_calls_check():
    assert checks.decoder_calls_rise(3, 4, 1) is None
    assert checks.decoder_calls_rise(3, 5, 1) is not None
    assert checks.decoder_calls_rise(0, 15, 16) is not None


def test_directional_derivative_rejects_flipped_gradient():
    cfg = workloads.train_config(seed=2)
    dataset = saasr.data.generate_dataset(saasr.data.SynthSpec(
        num_sessions=4, seed=2))
    item = saasr.training.prepare_batch_items(dataset, cfg)[0]
    fill_to = item.inventory.size + 1
    model = SaAsrModel(cfg.model, seed=2)

    def loss_fn():
        breakdown, _ = saasr.training.session_losses(
            model, item, cfg.loss, fill_to,
            first_tokens_override=[0] * len(item.target_tokens))
        return breakdown.total

    params = model.parameters()
    loss_fn().backward()
    tensors = [p.tensor for p in params]
    grads = [p.tensor.grad for p in params]
    before = [t.data.copy() for t in tensors]
    assert checks.directional_derivative(loss_fn, tensors, grads, 2) is None
    assert all(np.array_equal(a, t.data) for a, t in zip(before, tensors))
    flipped = list(grads)
    i = next(i for i, p in enumerate(params) if p.name == "out_proj.w")
    flipped[i] = -grads[i]
    assert checks.directional_derivative(loss_fn, tensors, flipped,
                                         2) is not None


def test_training_checks_reject_corrupted_runs():
    assert checks.losses_finite([3.0, 2.0]) is None
    assert checks.losses_finite([3.0, math.nan]) is not None
    assert checks.loss_decreases([5.0] * 10 + [4.0] * 10) is None
    assert checks.loss_decreases([4.0] * 10 + [5.0] * 10) is not None
    a = SaAsrModel(workloads.model_config(), seed=1).parameters()
    b = SaAsrModel(workloads.model_config(), seed=1).parameters()
    assert checks.bit_identical(a, b) is None
    nudged = b[7].tensor.data.copy()
    nudged.flat[0] = np.nextafter(nudged.flat[0], np.inf)
    b[7].tensor.data = nudged
    assert checks.bit_identical(a, b) is not None
    assert checks.tokens_fired(776, 776) is None
    assert checks.tokens_fired(775, 776) is not None


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_OPS
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

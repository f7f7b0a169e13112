"""End-to-end command-line flows on miniature configurations."""

import json
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from conftest import rewrite_header, write_sapf1_checkpoint

from saasr.cli import main, train_config_from_pairs
from saasr.data import SynthSpec, parse_flat_config
from saasr.model import load_checkpoint

DATA_CFG = """
num_sessions = 3
speakers_per_session = 2,2
vocab_size = 12
tokens_per_utterance = 3,4
frames_per_token = 2,3
overlap_ratio_target = 0.35
feature_dim = 8
noise_std = 0.05
seed = 5
"""

TRAIN_CFG = """
epochs = 2
batch_size = 2
learning_rate = 0.002
warmup_steps = 10
seed = 1
interfering_m = 1
model.attn.model_dim = 8
model.attn.num_heads = 2
model.attn.ff_dim = 16
model.encoder_layers = 2
model.decoder_layers = 2
model.speaker_encoder_layers = 1
model.inter_ctc_layer = 1
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.cfg").write_text(DATA_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    return tmp_path


def test_gen_train_eval_flow(workspace, capsys):
    data = workspace / "data.sads"
    run_dir = workspace / "run"
    assert main(["gen-data", "--config", str(workspace / "data.cfg"),
                 "--out", str(data)]) == 0
    assert data.is_file()

    assert main(["train", "--data", str(data), "--out", str(run_dir),
                 "--config", str(workspace / "train.cfg")]) == 0
    assert (run_dir / "model.ckpt").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["epoch_log"]) == 2

    out_file = workspace / "scores.txt"
    assert main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--data", str(data), "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert "SD-CER" in text and "session=" in text
    printed = capsys.readouterr().out
    assert "SD-CER" in printed


def test_gen_data_seed_override(workspace):
    a = workspace / "a.sads"
    b = workspace / "b.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(a), "--seed", "9"])
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(b), "--seed", "9"])
    assert a.read_bytes() == b.read_bytes()


def test_train_separator_mode_records_header(workspace):
    data = workspace / "data.sads"
    run_dir = workspace / "run_sep"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    (workspace / "train_sep.cfg").write_text(
        TRAIN_CFG + "model.use_cc_separator = true\n")
    assert main(["train", "--data", str(data), "--out", str(run_dir),
                 "--config", str(workspace / "train_sep.cfg")]) == 0
    model, _ = load_checkpoint(run_dir / "model.ckpt")
    assert model.cfg.separator_id == 11


def test_bench_command(workspace, capsys):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    nar_dir = workspace / "nar"
    main(["train", "--data", str(data), "--out", str(nar_dir),
          "--config", str(workspace / "train.cfg")])
    # an autoregressive twin at the same dims
    from saasr.data import read_dataset
    from saasr.model import ArBaselineModel, save_checkpoint
    ds = read_dataset(data)
    cfg = train_config_from_pairs(
        parse_flat_config((workspace / "train.cfg").read_text()), ds.spec)
    ar_path = workspace / "ar.ckpt"
    save_checkpoint(ar_path, ArBaselineModel(cfg.model, seed=2))

    out_file = workspace / "bench.txt"
    assert main(["bench", "--nar", str(nar_dir / "model.ckpt"),
                 "--ar", str(ar_path), "--lengths", "2,4",
                 "--out", str(out_file)]) == 0
    assert "ar/nar" in out_file.read_text()


def test_grad_check_command_exit_zero(capsys):
    assert main(["grad-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "gradient suite: PASS" in out


def test_grad_check_command_exit_one_on_failure(capsys, monkeypatch):
    from saasr.tensor import GradCheckReport
    import saasr.cli as cli

    failing = GradCheckReport(tolerance=1e-4, errors={"w": 0.5})
    monkeypatch.setattr(cli, "run_gradient_suite",
                        lambda seed, tolerance: [("rigged", failing)])
    assert main(["grad-check"]) == 1
    assert "gradient suite: FAIL" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--nonsense"])
    assert exc.value.code == 2


def test_config_errors_exit_one(workspace, capsys):
    data = workspace / "data2.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    (workspace / "bad.cfg").write_text("bogus_key = 1\n")
    code = main(["train", "--data", str(data),
                 "--out", str(workspace / "o2"),
                 "--config", str(workspace / "bad.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _small_model_config():
    from saasr.model import ModelConfig
    from saasr.nn import AttentionConfig
    return ModelConfig(vocab_size=12, feature_dim=8,
                       attn=AttentionConfig(8, 2, 16), encoder_layers=2,
                       decoder_layers=2, speaker_encoder_layers=1, d_spk=8,
                       inter_ctc_layer=1)


@pytest.mark.parametrize("keep", ["half", 8])
def test_eval_truncated_checkpoint_exits_one(workspace, capsys, keep):
    from saasr.model import SaAsrModel, save_checkpoint
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ckpt = workspace / "model.ckpt"
    save_checkpoint(ckpt, SaAsrModel(_small_model_config()))
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[:len(blob) // 2 if keep == "half" else keep])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert "error: truncated checkpoint" in capsys.readouterr().err


def test_eval_autoregressive_checkpoint_exits_one(workspace, capsys):
    from saasr.model import ArBaselineModel, save_checkpoint
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ckpt = workspace / "ar.ckpt"
    save_checkpoint(ckpt, ArBaselineModel(_small_model_config()))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert "ArBaselineModel" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{missing}", "--out", "{out}"],
    ["eval", "--checkpoint", "{missing}.ckpt", "--data", "{missing}"],
    ["gen-data", "--config", "{missing}.cfg", "--out", "{out}"],
], ids=["train-data", "eval-data", "gen-data-config"])
def test_missing_input_exits_one(workspace, capsys, argv):
    paths = {"missing": str(workspace / "absent"), "out": str(workspace / "o")}
    assert main([a.format(**paths) for a in argv]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_previous_checkpoint_format_exits_one(workspace, capsys):
    from saasr.model import SaAsrModel
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ckpt = workspace / "old.ckpt"
    write_sapf1_checkpoint(ckpt, SaAsrModel(_small_model_config()))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert "error: not a checkpoint file: bad magic b'SAPF1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("lengths", ["0", "4,-2", "4,x"])
def test_bench_bad_lengths_exit_one(workspace, capsys, lengths):
    from saasr.model import ArBaselineModel, SaAsrModel, save_checkpoint
    nar, ar = workspace / "nar.ckpt", workspace / "ar.ckpt"
    save_checkpoint(nar, SaAsrModel(_small_model_config()))
    save_checkpoint(ar, ArBaselineModel(_small_model_config()))
    assert main(["bench", "--nar", str(nar), "--ar", str(ar),
                 "--lengths", lengths]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    ("feature_dim", "feature_dim mismatch: data 7 vs model 8"),
    ("no_frames", "features have no frames"),
    ("nan", "features contain non-finite values"),
    ("profile_dim", "speaker profile 's000_spk0' has shape (7,)"),
])
def test_eval_bad_session_input_exits_one(workspace, capsys, damage, message):
    from saasr.data import read_dataset, write_dataset
    from saasr.model import SaAsrModel, save_checkpoint
    # a dataset holds features and profiles at its spec's feature_dim, so
    # widths the model does not expect come from a model of other dims;
    # test_training checks features narrower than their spec's
    width = 7 if damage in ("feature_dim", "profile_dim") else 8
    (workspace / "data.cfg").write_text(DATA_CFG + f"feature_dim = {width}\n")
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ds = read_dataset(data)
    if damage == "no_frames":
        ds.sessions[0].features = ds.sessions[0].features[:0]
    elif damage == "nan":
        ds.sessions[0].features[2, 3] = np.nan
    write_dataset(data, ds)
    cfg = _small_model_config()
    if damage == "profile_dim":
        cfg = replace(cfg, feature_dim=7)
    ckpt = workspace / "model.ckpt"
    save_checkpoint(ckpt, SaAsrModel(cfg))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("keep", ["half", 8])
def test_train_truncated_features_exit_one(workspace, capsys, keep):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    blob = data.read_bytes()
    data.write_bytes(blob[:len(blob) // 2 if keep == "half" else keep])
    capsys.readouterr()
    assert main(["train", "--data", str(data),
                 "--out", str(workspace / "run"),
                 "--config", str(workspace / "train.cfg")]) == 1
    assert f"error: {data}: truncated " in capsys.readouterr().err


def _damage_dataset(path, damage):
    """Give session s001 of the dataset at ``path`` one bad input: through
    its header, or through write_dataset for values the header does not
    hold."""
    from saasr.data import read_dataset, write_dataset

    def edit(header):
        session = header["sessions"][1]
        token = session["tokens"][0]
        if damage == "profile-id-not-text":
            session["profiles"][0] = 0.5
        elif damage == "no-true-count":
            del session["true_count"]
        elif damage == "float-true-count":
            session["true_count"] = 2.0
        elif damage == "short-token":
            session["tokens"][0] = token[:3]
        elif damage == "changed-token":
            token[0] = (token[0] + 1) % 11
        else:
            token[0] = {"separator-token": 11, "negative-token": -1}[damage]
        return header

    bad_value = {"nan-profile": np.nan, "inf-profile": np.inf,
                 "overflowing-profile": 1e200}
    if damage in bad_value or damage == "no-tokens":
        ds = read_dataset(path)
        if damage == "no-tokens":
            ds.sessions[1].tokens = []
        else:
            ds.sessions[1].inventory.profiles[0].vector[0] = bad_value[damage]
        write_dataset(path, ds)
    elif damage == "trailing-bytes":
        path.write_bytes(path.read_bytes() + b"\0")
    else:
        rewrite_header(path, edit)


# what the error line says for each damage; None: no tokens to train on
DAMAGE_MESSAGES = {
    "profile-id-not-text": "0.5 is not of type str",
    "no-true-count": "dataset header lacks 'true_count'",
    "float-true-count": "2.0 is not of type int",
    "short-token": "not enough values to unpack",
    "separator-token": "token id 11 outside 0..10",
    "negative-token": "token id -1 outside 0..10",
    "changed-token": "content does not match the header's hash",
    "nan-profile": "profile 's001_spk0' has norm nan",
    "inf-profile": "profile 's001_spk0' has norm inf",
    "overflowing-profile": "profile 's001_spk0' has norm inf",
    "trailing-bytes": "dataset file has bytes after its last array",
    "no-tokens": None,
}


@pytest.mark.parametrize("damage", DAMAGE_MESSAGES)
def test_train_damaged_dataset_exits_one(workspace, capsys, damage):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    _damage_dataset(data, damage)
    capsys.readouterr()
    assert main(["train", "--data", str(data),
                 "--out", str(workspace / "run"),
                 "--config", str(workspace / "train.cfg")]) == 1
    err = capsys.readouterr().err
    if DAMAGE_MESSAGES[damage] is None:
        assert "error: session 's001' has no target tokens" in err
        assert "diverged" not in err
    else:
        assert err.startswith(f"error: {data}: ")
        assert DAMAGE_MESSAGES[damage] in err


@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_non_utf8_config_or_manifest_exits_one(workspace, capsys, command):
    from saasr.model import SaAsrModel, save_checkpoint
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    if command == "eval":
        # the same length, so the header length field still holds
        culprit = data
        culprit.write_bytes(culprit.read_bytes().replace(
            b'"s000"', b'"s00\xff"', 1))
        ckpt = workspace / "model.ckpt"
        save_checkpoint(ckpt, SaAsrModel(_small_model_config()))
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data)]
    else:
        culprit = workspace / "bad.cfg"
        culprit.write_bytes(b"seed = 1\xff\n")
        inputs = [] if command == "gen-data" else ["--data", str(data)]
        argv = [command, *inputs, "--out", str(workspace / "out"),
                "--config", str(culprit)]
    capsys.readouterr()
    assert main(argv) == 1
    message = ("malformed dataset header: 'utf-8' codec" if command == "eval"
               else "not UTF-8 text")
    assert capsys.readouterr().err.startswith(f"error: {culprit}: {message}")


def test_train_corrupt_feature_length_exits_one(workspace, capsys):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])

    def lengthen(header):
        header["sessions"][0]["frames"] ^= 0xFF << 24
        return header

    rewrite_header(data, lengthen)
    capsys.readouterr()
    assert main(["train", "--data", str(data),
                 "--out", str(workspace / "run"),
                 "--config", str(workspace / "train.cfg")]) == 1
    assert f"error: {data}: truncated features of 's000'" in \
        capsys.readouterr().err


def test_eval_checkpoint_shape_mismatch_exits_one(workspace, capsys):
    from saasr.model import SaAsrModel, save_checkpoint
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ckpt = workspace / "model.ckpt"
    save_checkpoint(ckpt, SaAsrModel(_small_model_config()))

    def widen_first(header):
        name, shape = header["params"][0]
        header["params"][0] = [name, [shape[0], shape[1] + 1]]
        return header

    rewrite_header(ckpt, widen_first)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert "error: checkpoint parameter 0 is ['asr_input.w', [8, 9]], " \
        "model has ['asr_input.w', [8, 8]]" in capsys.readouterr().err


def test_eval_unknown_checkpoint_kind_exits_one(workspace, capsys):
    from saasr.model import SaAsrModel, save_checkpoint
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    ckpt = workspace / "model.ckpt"
    save_checkpoint(ckpt, SaAsrModel(_small_model_config()))
    blob = ckpt.read_bytes()
    assert b'"kind": "nar"' in blob
    # same length, so the header length field still holds
    ckpt.write_bytes(blob.replace(b'"kind": "nar"', b'"kind": "xyz"', 1))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 1
    assert "error: unknown checkpoint kind 'xyz'" in capsys.readouterr().err


def test_gen_data_unreadable_value_exits_one(workspace, capsys):
    (workspace / "bad.cfg").write_text("speakers_per_session = 3\n")
    assert main(["gen-data", "--config", str(workspace / "bad.cfg"),
                 "--out", str(workspace / "d")]) == 1
    assert "speakers_per_session" in capsys.readouterr().err


def test_train_manifest_without_sessions_exits_one(workspace, capsys):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    rewrite_header(data, lambda header: {key: value for key, value
                                         in header.items()
                                         if key != "sessions"})
    capsys.readouterr()
    assert main(["train", "--data", str(data),
                 "--out", str(workspace / "run")]) == 1
    assert "dataset header lacks 'sessions'" in capsys.readouterr().err


EVERY_TRAIN_FIELD = """
epochs = 7
batch_size = 3
learning_rate = 0.01
warmup_steps = 50
seed = 9
fill_speakers_enabled = off
interfering_m = 3
stage1_epochs = 2
early_stop_patience = 4
loss.lambda1 = 0.2
loss.lambda2 = 0.1
model.vocab_size = 20
model.feature_dim = 10
model.attn.model_dim = 12
model.attn.num_heads = 3
model.attn.ff_dim = 24
model.encoder_layers = 3
model.decoder_layers = 1
model.speaker_encoder_layers = 3
model.d_spk = 10
model.inter_ctc_layer = 2
model.sampling_factor_lambda = 0.5
model.use_cc_separator = yes
"""


def _leaves(cfg, prefix=""):
    """(dotted key, value) for every non-dataclass field, nested ones too."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def test_train_config_file_sets_every_field():
    # a config field the file format cannot set fails here; only the
    # checkpoint path is left to --out
    default = dict(_leaves(train_config_from_pairs({}, SynthSpec())))
    cfg = train_config_from_pairs(parse_flat_config(EVERY_TRAIN_FIELD),
                                  SynthSpec())
    changed = {key for key, value in _leaves(cfg) if value != default[key]}
    assert changed == set(default) - {"checkpoint_path"}


@pytest.mark.parametrize("line, message", [
    ("checkpoint_path = x", "unknown key 'checkpoint_path'"),
    ("model.attn = 3", "unknown key 'model.attn'"),
    ("epochs = abc", "key 'epochs': cannot read 'abc'"),
    ("epochs = 1.5", "key 'epochs': cannot read '1.5'"),
    ("model.attn.model_dim = x", "key 'model.attn.model_dim': cannot read"),
    ("model.use_cc_separator = maybe", "cannot read 'maybe'"),
])
def test_train_bad_config_line_exits_one(workspace, capsys, line, message):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    (workspace / "bad.cfg").write_text(line + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(data),
                 "--out", str(workspace / "run"),
                 "--config", str(workspace / "bad.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command, line, flags", [
    ("gen-data", "seed = -3", []),
    ("gen-data", "", ["--seed", "-1"]),
    ("train", "seed = -3", []),
    ("train", "", ["--seed", "-3"]),
])
def test_negative_seed_exits_one(workspace, capsys, command, line, flags):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    (workspace / "seed.cfg").write_text(line + "\n")
    capsys.readouterr()
    inputs = ([] if command == "gen-data" else ["--data", str(data)])
    assert main([command, *inputs, "--out", str(workspace / "out"),
                 "--config", str(workspace / "seed.cfg"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be nonnegative")


@pytest.mark.parametrize("command, line, message", [
    ("train", "model.attn.num_heads = 0", "attention dims must be positive"),
    ("train", "model.attn.model_dim = -4", "attention dims must be positive"),
    ("train", "model.attn.ff_dim = 0", "attention dims must be positive"),
    ("train", "model.d_spk = -1", "feature_dim and d_spk must be positive"),
    ("train", "model.sampling_factor_lambda = nan",
     "sampling_factor_lambda must be finite and nonnegative"),
    ("train", "learning_rate = nan",
     "learning_rate must be finite and nonnegative"),
    ("train", "loss.lambda1 = nan", "lambda1 must be finite and nonnegative"),
    ("gen-data", "bigram_concentration = nan",
     "bigram_concentration must be finite and positive"),
    ("gen-data", "noise_std = nan", "noise_std must be finite and nonnegative"),
    ("gen-data", "noise_std = inf", "noise_std must be finite and nonnegative"),
])
def test_out_of_range_config_value_exits_one(workspace, capsys, command,
                                             line, message):
    data = workspace / "data.sads"
    main(["gen-data", "--config", str(workspace / "data.cfg"),
          "--out", str(data)])
    (workspace / "bad.cfg").write_text(line + "\n")
    capsys.readouterr()
    inputs = ([] if command == "gen-data" else ["--data", str(data)])
    assert main([command, *inputs, "--out", str(workspace / "out"),
                 "--config", str(workspace / "bad.cfg")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")

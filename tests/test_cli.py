"""In-process command-line runs: exit codes, artifacts, config precedence."""

import hashlib
import json
import shutil

import pytest

from hypothesis import given, strategies as st

from umfdet import checkpoint as ckpt
from umfdet import cli
from umfdet.data import SplitSpec, load_manifest, save_manifest, split
from umfdet.errors import ConfigError, TransportError
from umfdet.instruct import Vocabulary
from umfdet.model import ModelConfig
from umfdet.trainer import TrainConfig

SMALL_MODEL = """\
h=16
n_heads=2
n_enc=1
n_moe=1
n_dec=1
max_len=128
max_vis_tokens=16
gen_max_tokens=8
"""


@pytest.fixture(autouse=True)
def _no_gen_env(monkeypatch):
    monkeypatch.delenv(cli.ENDPOINT_ENV, raising=False)
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.jsonl"
    assert cli.main(["synth-toy", "--n", "60", "--cue-strength", "0.9",
                     "--seed", "0", "--out", str(path)]) == 0
    return path


def _git_blob_hash(path):
    content = path.read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


# ---------------------------------------------------------------------------
# synth-toy


def test_synth_toy_writes_manifest_and_run_record(tmp_path, capsys):
    out = tmp_path / "toy.jsonl"
    assert cli.main(["synth-toy", "--n", "30", "--out", str(out)]) == 0
    assert "wrote 30 samples" in capsys.readouterr().out
    assert len(load_manifest(out)) == 30
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["command"] == "synth-toy"
    assert record["seed"] == 0
    assert record["effective_config"]["n"] == 30
    assert len(record["config_hash"]) == 12
    assert record["duration_s"] >= 0


def test_synth_toy_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert cli.main(["synth-toy", "--n", "30", "--seed", "7",
                         "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_toy_bad_n_exits_1(tmp_path, capsys):
    rc = cli.main(["synth-toy", "--n", "5", "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    assert "umfdet: error: ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["synth-toy", "--n", "30"],
    ["fabricate-text", "--manifest", "m.jsonl"],
])
def test_negative_seed_flag_exits_1_naming_it(tmp_path, capsys, command):
    rc = cli.main(command + ["--seed", "-1", "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    assert "ConfigError: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth-toy", "--n", "30"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# fabricate-text


def test_fabricate_text_distorts_titles(tmp_path, corpus, capsys):
    out = tmp_path / "fab.jsonl"
    assert cli.main(["fabricate-text", "--manifest", str(corpus), "--mock",
                     "--out", str(out)]) == 0
    assert "fabricated 60 titles" in capsys.readouterr().out
    originals = {s.id: s for s in load_manifest(corpus)}
    fabricated = load_manifest(out)
    assert len(fabricated) == 60
    for s in fabricated:
        assert s.id.endswith("-fab")
        assert s.label.value == "ai_synthesized"
        assert s.annotation.kind in ("keyword_distortion", "pure_fake_text")
        assert s.title != originals[s.id[:-4]].title
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["inputs"][str(corpus)] == _git_blob_hash(corpus)


def test_fabricate_text_bad_label_exits_1(tmp_path, corpus, capsys):
    rc = cli.main(["fabricate-text", "--manifest", str(corpus), "--label", "bogus",
                   "--mock", "--out", str(tmp_path / "f.jsonl")])
    assert rc == 1
    assert "--label" in capsys.readouterr().err


def test_fabricate_text_missing_manifest_exits_2(tmp_path, capsys):
    rc = cli.main(["fabricate-text", "--manifest", str(tmp_path / "absent.jsonl"),
                   "--mock", "--out", str(tmp_path / "f.jsonl")])
    assert rc == 2


# ---------------------------------------------------------------------------
# rationale commands


@pytest.mark.parametrize("workers", ["0", "33", "-1"])
def test_cot_gen_workers_out_of_range_exits_1(tmp_path, corpus, capsys, monkeypatch,
                                              workers):
    def no_run(*args, **kwargs):
        raise AssertionError("rationale generation started")

    monkeypatch.setattr(cli.cot_mod, "generate_corpus_cots", no_run)
    out = tmp_path / "cots.jsonl"
    rc = cli.main(["cot-gen", "--manifest", str(corpus), "--mock", "--workers", workers,
                   "--out", str(out)])
    assert rc == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
    args = cli.build_parser().parse_args(["cot-gen", "--manifest", str(corpus),
                                          "--workers", workers, "--out", str(out)])
    with pytest.raises(ConfigError, match="--workers"):
        cli.cmd_cot_gen(args)


def test_cot_gen_and_validate(tmp_path, corpus, capsys):
    out = tmp_path / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--mock",
                     "--out", str(out)]) == 0
    assert "60/60 accepted" in capsys.readouterr().out
    for s in load_manifest(out):
        assert s.cot is not None and s.cot.verdict == "accepted"

    report = tmp_path / "report.json"
    assert cli.main(["cot-validate", "--manifest", str(out),
                     "--out", str(report)]) == 0
    body = json.loads(report.read_text())
    assert body["n_samples"] == 60
    assert body["accepted"] == 60
    assert body["rejected_by_reason"] == {}

    # A whitespace-only rationale is missing; padding around one changes nothing.
    samples = load_manifest(out)
    samples[0].cot.think = " \n\t "
    samples[1].cot.think = f"  {samples[1].cot.think}\n"
    save_manifest(samples, out)
    assert cli.main(["cot-validate", "--manifest", str(out), "--out", str(report)]) == 0
    body = json.loads(report.read_text())
    assert (body["accepted"], body["missing"], body["rejected_by_reason"]) == (59, 1, {})


@pytest.mark.parametrize("workers", ["1", "4"])
def test_cot_gen_survives_a_transport_failure(tmp_path, corpus, capsys, monkeypatch,
                                              workers):
    failing = load_manifest(corpus)[7]

    class FailsForOnePost(cli.cot_mod.MockGenClient):
        def generate(self, prompt):
            if failing.title in prompt:
                raise TransportError("connection reset")
            return super().generate(prompt)

    monkeypatch.setattr(cli, "make_gen_client", lambda args: FailsForOnePost())
    out = tmp_path / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--workers", workers,
                     "--out", str(out)]) == 0
    assert "59/60 accepted (1 rejected)" in capsys.readouterr().out
    verdicts = {s.id: s.cot.verdict for s in load_manifest(out)}
    assert verdicts.pop(failing.id) == "rejected:transport"
    assert set(verdicts.values()) == {"accepted"}


@pytest.mark.parametrize("workers", ["1", "4"])
def test_cot_gen_exits_3_when_every_sample_fails_in_transport(tmp_path, corpus, capsys,
                                                              monkeypatch, workers):
    class AlwaysFails(cli.cot_mod.GenClient):
        def generate(self, prompt):
            raise TransportError("generation endpoint returned 401")

    monkeypatch.setattr(cli, "make_gen_client", lambda args: AlwaysFails())
    out = tmp_path / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--workers", workers,
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "TransportError" in err and str(corpus) in err
    assert load_manifest(corpus)[0].id in err and "401" in err
    assert not out.exists()


def test_corrupt_manifest_exits_2(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(corpus.read_text() + "{broken\n")
    rc = cli.main(["cot-validate", "--manifest", str(bad)])
    assert rc == 2
    assert "line 61" in capsys.readouterr().err



def test_ragged_feature_manifest_exits_2(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.jsonl"
    line = {"id": "r", "title": "t", "image": {"feat": [[0.0], [1.0, 2.0]]},
            "label": "real"}
    bad.write_text(corpus.read_text() + json.dumps(line) + "\n")
    rc = cli.main(["cot-validate", "--manifest", str(bad)])
    assert rc == 2
    assert "line 61" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"label": 7},
    {"label": "human_crafted", "manipulation": {"kind": "face_swap", "similarity": "x"}},
], ids=["numeric_label", "string_similarity"])
def test_mistyped_manifest_field_exits_2_naming_the_line(tmp_path, corpus, capsys, fields):
    bad = tmp_path / "bad.jsonl"
    line = {"id": "r", "title": "t", "image": {"path": "p.png"}, "label": "real", **fields}
    bad.write_text(corpus.read_text() + json.dumps(line) + "\n")
    rc = cli.main(["cot-validate", "--manifest", str(bad)])
    assert rc == 2
    assert "line 61" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval / route-report


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("train")
    cfg = out / "model.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out / "run"),
                   "--config", str(cfg), "--steps", "2", "--batch-size", "2",
                   "--eval-every", "2"])
    assert rc == 0
    return out / "run"


def test_train_artifacts(trained, corpus):
    assert (trained / "checkpoint" / "weights.umfd").exists()
    assert (trained / "history.csv").exists()
    record = json.loads((trained / "run.json").read_text())
    assert record["command"] == "train"
    assert record["effective_config"]["train"]["max_steps"] == 2
    assert record["effective_config"]["model"]["h"] == 16
    assert str(corpus) in record["inputs"]


def test_config_precedence_flags_over_file_over_defaults(tmp_path, corpus):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_MODEL + "max_steps=9\nlr=0.001\n")
    out = tmp_path / "run"
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out),
                   "--config", str(cfg), "--steps", "2", "--batch-size", "2"])
    assert rc == 0
    record = json.loads((out / "run.json").read_text())
    train_cfg = record["effective_config"]["train"]
    assert train_cfg["max_steps"] == 2        # flag beats file
    assert train_cfg["lr"] == 0.001           # file beats default
    assert train_cfg["beta1"] == 0.9          # untouched default


def test_config_file_unknown_key_exits_1(tmp_path, corpus, capsys):
    cfg = tmp_path / "c.cfg"
    for line in ("learning_rate=0.1", "build_cot_loss=false"):  # the latter a removed knob
        cfg.write_text(line + "\n")
        rc = cli.main(["train", "--manifest", str(corpus),
                       "--out", str(tmp_path / "run"), "--config", str(cfg),
                       "--steps", "1"])
        assert rc == 1
        assert f"unknown config key {line.split('=')[0]!r}" in capsys.readouterr().err


def test_config_file_duplicate_key_exits_1(tmp_path, corpus, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lr=0.1\nlr=0.2\n")
    rc = cli.main(["train", "--manifest", str(corpus),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == 1
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("line,kind", [("batch_size=abc", "int"),
                                       ("target_val_acc=x", "float"),
                                       ("moe_enabled=maybe", "bool")])
def test_config_file_bad_value_exits_1_naming_file_line_and_key(tmp_path, corpus, capsys,
                                                                 line, kind):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# comment\nlr=0.1\n{line}\n")
    rc = cli.main(["train", "--manifest", str(corpus),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    key, raw = line.split("=")
    assert f"ConfigError: {cfg}:3: {key}: not a valid {kind}: {raw!r}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["n_heads=0", "seed=-1", "split_seed=-1"])
def test_config_file_value_out_of_range_exits_1(tmp_path, corpus, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n")
    rc = cli.main(["train", "--manifest", str(corpus),
                   "--out", str(tmp_path / "run"), "--config", str(cfg), "--steps", "1"])
    assert rc == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["lr=nan", "eps=inf", "lambda_cot=nan"])
def test_config_file_non_finite_value_exits_1_naming_the_key(tmp_path, corpus, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n")
    rc = cli.main(["train", "--manifest", str(corpus),
                   "--out", str(tmp_path / "run"), "--config", str(cfg), "--steps", "1"])
    assert rc == 1
    assert f"ConfigError: {line.split('=')[0]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(sorted({**cli._MODEL_FIELDS, **cli._TRAIN_FIELDS,
                                      **cli._EXTRA_KEYS})) | st.text(max_size=6),
              st.sampled_from(["0", "1", "-1", "3", "0.5", "1e999", "nan", "off", ""])
              | st.text(max_size=6))
    .map(lambda kv: "=".join(kv)) | st.text(max_size=10), max_size=8)


@given(lines=_CONFIG_LINES, raw=st.none() | st.binary(max_size=40))
def test_config_file_fuzzed_loads_or_is_config_error(tmp_path_factory, lines, raw):
    """Arbitrary bytes (raw), or fuzzed key=value lines, either resolve into
    configs, a split seed and vocabulary bounds that train accepts, or are a
    ConfigError."""
    path = tmp_path_factory.mktemp("fuzz") / "c.cfg"
    path.write_bytes(raw if raw is not None else "\n".join(lines).encode("utf-8"))
    try:
        model_kv, train_kv, extra = cli.resolve_configs(path, {}, {})
        ModelConfig.from_json({**ModelConfig().to_json(), **model_kv})
        TrainConfig.from_json({**TrainConfig().to_json(), **train_kv})
        split([], SplitSpec(seed=extra["split_seed"]))
        Vocabulary.build([], extra["min_count"], extra["max_vocab"])
    except ConfigError:
        pass


def test_eval_writes_metrics(tmp_path, corpus, trained, capsys):
    out = tmp_path / "eval.json"
    rc = cli.main(["eval", "--manifest", str(corpus),
                   "--checkpoint", str(trained / "checkpoint"),
                   "--split", "test", "--out", str(out)])
    assert rc == 0
    assert "accuracy=" in capsys.readouterr().out
    body = json.loads(out.read_text())
    assert body["metrics"]["n_samples"] == 6
    assert len(body["predictions"]) == 6
    assert body["routing"] is not None


def test_route_report_renders_matrices(tmp_path, corpus, trained, capsys):
    out = tmp_path / "routing.json"
    rc = cli.main(["route-report", "--manifest", str(corpus),
                   "--checkpoint", str(trained / "checkpoint"),
                   "--split", "val", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "layer 0" in printed and "own expert share" in printed
    body = json.loads(out.read_text())
    assert body["experts"] == ["reality", "deception", "synthesis"]
    assert body["n_samples"] == 6


def test_route_report_rejects_plain_checkpoint(tmp_path, corpus, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    out = tmp_path / "plain"
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out),
                   "--config", str(cfg), "--steps", "1", "--batch-size", "2",
                   "--no-moe"])
    assert rc == 0
    rc = cli.main(["route-report", "--manifest", str(corpus),
                   "--checkpoint", str(out / "checkpoint")])
    assert rc == 1
    assert "mixture" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, corpus, capsys):
    rc = cli.main(["eval", "--manifest", str(corpus),
                   "--checkpoint", str(tmp_path / "absent")])
    assert rc == 2


def test_train_resume_continues(tmp_path, corpus):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    out = tmp_path / "run"
    base = ["train", "--manifest", str(corpus), "--out", str(out),
            "--config", str(cfg), "--batch-size", "2"]
    assert cli.main(base + ["--steps", "2"]) == 0
    assert cli.main(base + ["--steps", "4", "--resume"]) == 0
    state = json.loads((out / "checkpoint" / "train_state.json").read_text())
    assert state["step"] == 4


@pytest.mark.parametrize("model_cfg, flags, keys", [
    (SMALL_MODEL, ["--lambda-cot", "0.3", "--dropout", "0.0", "--no-moe"],
     ["lambda_cot=0.3", "dropout_rate=0.0", "moe_enabled=False"]),
    (SMALL_MODEL.replace("gen_max_tokens=8", "gen_max_tokens=9"), [], ["gen_max_tokens=9"]),
], ids=["flags", "config_file"])
def test_train_resume_refuses_changed_model_settings_naming_them(
        tmp_path, corpus, trained, capsys, model_cfg, flags, keys):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(model_cfg)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "4", "--batch-size", "2", "--resume"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError: --resume" in err and all(key in err for key in keys)
    state = json.loads((out / "checkpoint" / ckpt.TRAIN_STATE_FILE).read_text())
    assert state["step"] == 2


@pytest.mark.parametrize("flag, error", [("--config", "ConfigError"),
                                         ("--template", "TemplateError")])
def test_non_utf8_config_or_template_exits_1_naming_it(tmp_path, corpus, capsys, flag, error):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"lr=0.1\n\xff\xfe\n")
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(tmp_path / "run"),
                   flag, str(bad), "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{error}: {bad}: " in err and "not UTF-8" in err


def _json_edit(edit):
    """A file edit that loads JSON, applies edit to it and writes it back."""
    def apply(blob):
        obj = json.loads(blob)
        edit(obj)
        return json.dumps(obj).encode("utf-8")
    return apply


@pytest.mark.parametrize("name, edit, match", [
    ("vocab.tsv", lambda blob: b"\xff" + blob, "not UTF-8"),
    ("vocab.tsv", lambda blob: blob.replace(b"<pad>\t", b"pad\t", 1), "reserved tokens"),
    ("config.json", lambda blob: blob[:-3], "not JSON"),
    ("config.json", _json_edit(lambda c: c.update(h="x")), "h must be of type int"),
    ("config.json", _json_edit(lambda c: c.update(moe_enabled=1)), "moe_enabled"),
], ids=["vocab_not_utf8", "vocab_without_reserved_tokens", "config_not_json",
        "config_string_h", "config_int_flag"])
def test_malformed_checkpoint_file_exits_2_naming_it(tmp_path, corpus, trained, capsys,
                                                     name, edit, match):
    ckpt_dir = tmp_path / "checkpoint"
    shutil.copytree(trained / "checkpoint", ckpt_dir)
    path = ckpt_dir / name
    path.write_bytes(edit(path.read_bytes()))
    rc = cli.main(["eval", "--manifest", str(corpus), "--checkpoint", str(ckpt_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"DataError: {path}: " in err and match in err


def _drop_moment(ckpt_dir):
    arrays = ckpt.read_tensor_file(ckpt_dir / ckpt.OPTIMIZER_FILE)
    del arrays["adam.v.head.b"]
    ckpt.write_tensor_file(ckpt_dir / ckpt.OPTIMIZER_FILE, arrays)


def _edit_state(edit):
    def apply(ckpt_dir):
        path = ckpt_dir / ckpt.TRAIN_STATE_FILE
        path.write_bytes(edit(path.read_bytes()))
    return apply


@pytest.mark.parametrize("damage, file, match", [
    (_edit_state(lambda blob: blob[:10]), ckpt.TRAIN_STATE_FILE, "not JSON"),
    (_edit_state(lambda blob: b"[]"), ckpt.TRAIN_STATE_FILE, "JSON object"),
    (_edit_state(_json_edit(lambda m: m.pop("step"))), ckpt.TRAIN_STATE_FILE, "invalid step"),
    (_edit_state(_json_edit(lambda m: m.pop("rng_state"))), ckpt.TRAIN_STATE_FILE,
     "invalid rng_state"),
    (_edit_state(_json_edit(lambda m: m["rng_state"].pop("state"))), ckpt.TRAIN_STATE_FILE,
     "invalid rng_state"),
    (_edit_state(_json_edit(lambda m: m["sampler"].pop("perm"))), ckpt.TRAIN_STATE_FILE,
     "invalid sampler.perm"),
    (_edit_state(_json_edit(lambda m: m["sampler"].pop("cursor"))), ckpt.TRAIN_STATE_FILE,
     "invalid sampler.cursor"),
    (_edit_state(_json_edit(lambda m: m["sampler"]["perm"].append(10 ** 6))),
     ckpt.TRAIN_STATE_FILE, "invalid sampler.perm"),
    (_drop_moment, ckpt.OPTIMIZER_FILE, "adam.v.head.b"),
], ids=["state_not_json", "state_list", "no_step", "no_rng_state", "rng_state_no_state",
        "no_perm", "no_cursor", "perm_not_a_permutation", "no_adam_moment"])
def test_resume_from_malformed_trainer_state_exits_2_naming_file_and_key(
        tmp_path, corpus, trained, capsys, damage, file, match):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    damage(out / "checkpoint")
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "3", "--batch-size", "2", "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"DataError: {out / 'checkpoint' / file}: " in err and match in err


# ---------------------------------------------------------------------------
# similarity gate on load


def test_low_similarity_samples_dropped_on_load(tmp_path, corpus):
    samples = load_manifest(corpus)
    victim = next(s for s in samples if s.annotation.similarity is not None)
    victim.annotation.similarity = 0.2
    gated = tmp_path / "gated.jsonl"
    from umfdet.data import save_manifest
    save_manifest(samples, gated)
    kept = cli._load_corpus(gated)
    assert len(kept) == len(samples) - 1
    assert all(s.id != victim.id for s in kept)


# ---------------------------------------------------------------------------
# ablate


def test_ablate_cli_end_to_end(tmp_path, corpus, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    out = tmp_path / "ablation"
    rc = cli.main(["ablate", "--manifest", str(corpus), "--out", str(out),
                   "--config", str(cfg), "--steps", "2", "--batch-size", "2"])
    assert rc == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["name"] for r in rows] == ["base", "no_moe", "no_gate_scaling",
                                         "no_cot_loss", "routing_aux", "no_dropout"]
    assert len({r["config_hash"] for r in rows}) == 6
    printed = capsys.readouterr().out
    for name in ("base", "no_moe", "no_dropout"):
        assert name in printed

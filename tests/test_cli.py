"""In-process command-line runs: exit codes, artifacts, config precedence."""

import ctypes
import hashlib
import io
import json
import shutil
import types

import numpy as np
import pytest

from hypothesis import given, strategies as st

from umfdet import checkpoint as ckpt
from umfdet import cli
from umfdet.data import SplitSpec, load_manifest, save_manifest, similarity_gate, split
from umfdet.errors import ConfigError, TransportError
from umfdet.instruct import ANSWER_CLOSE, ANSWER_OPEN, EOS, UNK, Vocabulary
from umfdet.model import ModelConfig, _target_ids
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


def _assert_json_layout(path):
    """Every JSON artifact is indented by 2 with sorted keys and ends in a newline."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


# ---------------------------------------------------------------------------
# synth-toy


def test_synth_toy_writes_manifest_and_run_record(tmp_path, capsys):
    out = tmp_path / "toy.jsonl"
    argv = ["synth-toy", "--n", "30", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "wrote 30 samples" in capsys.readouterr().out
    assert len(load_manifest(out)) == 30
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["command"] == "synth-toy"
    assert record["argv"] == argv  # the list main was given, not the host's sys.argv
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
# heap policy


class _Mallopt:
    """Stands in for the C function: records each call, answers with answer."""

    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.answer


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_c_library],
                         ids=["no-mallopt", "no-c-library"])
def test_settle_heap_is_a_no_op_where_mallopt_is_missing(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._settle_heap() is None


@pytest.mark.parametrize("answer,calls", [
    (1, [(-3, 64 << 20), (-1, 256 << 20)]),  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    (0, [(-3, 64 << 20)]),                   # a refused mmap threshold stops there
])
def test_settle_heap_pins_the_thresholds_through_mallopt(monkeypatch, answer, calls):
    mallopt = _Mallopt(answer)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._settle_heap()
    assert mallopt.calls == calls


def test_main_settles_the_heap_before_parsing(monkeypatch):
    settled = []
    monkeypatch.setattr(cli, "_settle_heap", lambda: settled.append(True))
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    assert settled == [True]


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
    malformed = tmp_path / "bad.jsonl"
    malformed.write_text("{not json\n")
    rc = cli.main(["fabricate-text", "--manifest", str(malformed), "--label", "nonsense",
                   "--mock", "--out", str(tmp_path / "g.jsonl")])
    assert rc == 1  # the flag is checked before the manifest is read
    assert "--label" in capsys.readouterr().err
    # A fabricated title is never real: the loader would refuse its manifest.
    rc = cli.main(["fabricate-text", "--manifest", str(corpus), "--label", "real",
                   "--mock", "--out", str(tmp_path / "h" / "h.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "--label" in err
    assert not (tmp_path / "h").exists()


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


@pytest.mark.parametrize("attempts", ["0", "-1"])
@pytest.mark.parametrize("empty", [True, False])
def test_cot_gen_attempts_below_1_exits_1_naming_it(tmp_path, corpus, capsys, monkeypatch,
                                                    attempts, empty):
    def no_run(*args, **kwargs):
        raise AssertionError("rationale generation started")

    monkeypatch.setattr(cli.cot_mod, "generate_corpus_cots", no_run)
    manifest = tmp_path / "empty.jsonl" if empty else corpus
    if empty:
        manifest.write_text("")
    out = tmp_path / "out" / "cots.jsonl"
    rc = cli.main(["cot-gen", "--manifest", str(manifest), "--mock",
                   "--attempts", attempts, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "--attempts" in err
    assert not out.parent.exists()


def test_cot_gen_and_validate(tmp_path, corpus, capsys):
    out = tmp_path / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--mock",
                     "--out", str(out)]) == 0
    assert "60/60 accepted" in capsys.readouterr().out
    for s in load_manifest(out):
        assert s.cot is not None and s.cot.verdict == "accepted"

    report = tmp_path / "validate" / "report.json"
    argv = ["cot-validate", "--manifest", str(out), "--out", str(report)]
    assert cli.main(argv) == 0
    body = json.loads(report.read_text())
    assert body["n_samples"] == 60
    assert body["accepted"] == 60
    assert body["rejected_by_reason"] == {}
    record = json.loads((report.parent / "run.json").read_text())
    assert (record["command"], record["argv"]) == ("cot-validate", argv)
    assert record["inputs"] == {str(out): _git_blob_hash(out)}

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


def test_cot_gen_stops_after_the_first_posts_fail_in_transport(tmp_path, corpus, capsys,
                                                             monkeypatch):
    """Against an endpoint that refuses every connection, cot-gen asks only
    for the first PROBE_POSTS posts before it exits 3 and writes nothing."""
    monkeypatch.setattr(cli.cot_mod, "HTTP_BACKOFF_S", 0.0)
    manifest = tmp_path / "toy.jsonl"
    save_manifest(load_manifest(corpus)[:10], manifest)
    prompts = []

    class Refuses:
        def open(self, request, timeout=None):
            prompts.append(json.loads(request.data)["prompt"])
            raise ConnectionRefusedError("refused")

    monkeypatch.setattr(cli, "make_gen_client", lambda args: cli.cot_mod.HttpGenClient(
        "http://gen.local", opener=Refuses()))
    out = tmp_path / "out" / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert "TransportError" in capsys.readouterr().err
    titles = [s.title for s in load_manifest(manifest)]
    assert len(set(titles)) == 10
    assert len(prompts) == cli.PROBE_POSTS * (cli.cot_mod.HTTP_RETRIES + 1)
    assert {t for t in titles if any(f"Title: {t}\n" in p for p in prompts)} == set(
        titles[:cli.PROBE_POSTS])
    assert not out.parent.exists()


@pytest.mark.parametrize("workers", ["1", "4"])
def test_cot_gen_over_loopback_http_writes_what_mock_writes(tmp_path, corpus, gen_server,
                                                            monkeypatch, workers):
    url, seen = gen_server
    waits = []
    monkeypatch.setattr(cli.cot_mod.time, "sleep", waits.append)
    mock_out, http_out = tmp_path / "mock" / "cots.jsonl", tmp_path / "http" / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--mock",
                     "--out", str(mock_out)]) == 0
    monkeypatch.setenv(cli.ENDPOINT_ENV, url)
    monkeypatch.setenv(cli.TOKEN_ENV, "tok")
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--workers", workers,
                     "--out", str(http_out)]) == 0
    assert http_out.read_bytes() == mock_out.read_bytes()
    assert waits == [cli.cot_mod.HTTP_BACKOFF_S]  # the one 503 was retried
    assert len(seen) == len(load_manifest(corpus)) + 1
    assert {(ctype, auth) for ctype, auth, _ in seen} == {("application/json", "Bearer tok")}
    assert all(sorted(body) == ["max_tokens", "prompt"] and body["max_tokens"] == 512
               for _, _, body in seen)


@pytest.mark.parametrize("setting, value", [
    ("ENDPOINT_ENV", "gen.local"), ("ENDPOINT_ENV", "ftp://127.0.0.1:9/"),
    ("ENDPOINT_ENV", "http:///v1"), ("ENDPOINT_ENV", "http://127.0.0.1:99999/"),
    ("ENDPOINT_ENV", "http://127.0.0.1:9/a b"), ("ENDPOINT_ENV", "http://127.0.0.1:9/é"),
    ("TOKEN_ENV", "a\nb"), ("TOKEN_ENV", "tok\x7f"), ("TOKEN_ENV", "tök")])
def test_cot_gen_refuses_a_malformed_endpoint_or_token_without_waiting(
        tmp_path, corpus, capsys, monkeypatch, setting, value):
    waits = []
    monkeypatch.setattr(cli.cot_mod.time, "sleep", waits.append)
    monkeypatch.setenv(cli.ENDPOINT_ENV, "http://127.0.0.1:9/v1")
    monkeypatch.setenv(getattr(cli, setting), value)
    out = tmp_path / "cots.jsonl"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and getattr(cli, setting) in err
    assert waits == []
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


# sha256 of each manifest the offline rationale pipeline writes: synth-toy
# --n 30 --seed 1, fabricate-text --mock over it, and cot-gen --mock over both.
_PIPELINE_SHA256 = {
    "toy.jsonl": "89a82cd9f7a0c7763cf55465f634061430ceafc30663d182e41fef697a9d3860",
    "fab.jsonl": "c255a12ba376e4b3c86742db22c1e1ba8f5d1fc43ea863073a471823acfeb90b",
    "toy_cots.jsonl": "464294758c54b6e6ff2f37e67123b002b1ed71f602dce9d3d9b169110053eb36",
    "fab_cots.jsonl": "a59c6a5d6fd47169afe06ece41d05029e1f05be95ee18840301bbccb7ffaa744",
}


def test_mock_rationale_pipeline_writes_pinned_bytes(tmp_path):
    """Synthesis, fabrication, entity extraction, prompting and the rationale
    gate all feed these manifests, so a change that moves any of their bytes
    shows here."""
    paths = {name: tmp_path / name for name in _PIPELINE_SHA256}
    for argv in (["synth-toy", "--n", "30", "--seed", "1", "--out", paths["toy.jsonl"]],
                 ["fabricate-text", "--manifest", paths["toy.jsonl"], "--mock",
                  "--out", paths["fab.jsonl"]],
                 ["cot-gen", "--manifest", paths["toy.jsonl"], "--mock",
                  "--out", paths["toy_cots.jsonl"]],
                 ["cot-gen", "--manifest", paths["fab.jsonl"], "--mock",
                  "--out", paths["fab_cots.jsonl"]]):
        assert cli.main([str(a) for a in argv]) == 0
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()} == _PIPELINE_SHA256


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


def test_train_on_rationales_the_gate_rejected_trains_the_gold_label(
        tmp_path, corpus, monkeypatch):
    """synth-toy -> cot-gen against an endpoint that refuses two training posts
    and claims "real" for a third -> train exits 0, the refused posts
    training on the answer alone and the mislabelled one toward its label."""
    monkeypatch.setattr(cli.cot_mod, "HTTP_BACKOFF_S", 0.0)
    train_s = split(similarity_gate(load_manifest(corpus))[0], SplitSpec(seed=0))[0]
    refused = [s for s in train_s if s.label.value == "real"][:2]
    mislabelled = next(s for s in train_s if s.label.value == "ai_synthesized")

    class Endpoint:
        """Answers as MockGenClient would, but refuses the connection for
        the refused posts and claims "real" for the mislabelled one."""

        def open(self, request, timeout=None):
            prompt = json.loads(request.data)["prompt"]
            if any(f"Title: {s.title}\n" in prompt for s in refused):
                raise ConnectionRefusedError("refused")
            text = cli.cot_mod.MockGenClient().generate(prompt)
            if f"Title: {mislabelled.title}\n" in prompt:
                text = text.replace("<answer>ai_synthesized<", "<answer>real<")
            reply = io.BytesIO(json.dumps({"text": text}).encode())
            reply.status = 200
            return reply

    monkeypatch.setattr(cli, "make_gen_client", lambda args: cli.cot_mod.HttpGenClient(
        "http://gen.local", opener=Endpoint()))
    cots, cfg = tmp_path / "cots.jsonl", tmp_path / "model.cfg"
    assert cli.main(["cot-gen", "--manifest", str(corpus), "--out", str(cots)]) == 0
    notes = {s.id: s for s in load_manifest(cots)}
    assert [notes[s.id].cot.verdict for s in refused] == ["rejected:transport"] * 2
    assert notes[mislabelled.id].cot.verdict == "rejected:answer_label_mismatch"
    assert notes[mislabelled.id].cot.answer == "real"
    cfg.write_text(SMALL_MODEL)
    assert cli.main(["train", "--manifest", str(cots), "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--steps", "2", "--batch-size", "4"]) == 0
    params, vocab = ckpt.load_model(tmp_path / "run" / "checkpoint")
    for s in refused + [mislabelled]:
        ids, k = _target_ids(notes[s.id], vocab, params.config)
        assert k == 0
        assert ids == [ANSWER_OPEN, *vocab.encode(s.label.value), ANSWER_CLOSE, EOS]
        assert UNK not in ids


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_class_too_small_to_stratify_exits_2_naming_the_manifest(tmp_path, corpus,
                                                                   capsys, command):
    samples = load_manifest(corpus)
    real = [s for s in samples if s.label.value == "real"]
    small = tmp_path / "small.jsonl"
    save_manifest([s for s in samples if s.label.value != "real"] + real[:5], small)
    argv = {"train": ["--out", str(tmp_path / "run")],
            "eval": ["--checkpoint", str(tmp_path / "none")]}[command]
    assert cli.main([command, "--manifest", str(small), *argv]) == 2
    err = capsys.readouterr().err
    assert f"DataError: {small}: class real has only 5 samples; need >= 10" in err


@pytest.mark.parametrize("gated", [False, True], ids=["empty", "fully_gated"])
@pytest.mark.parametrize("command", ["train", "ablate", "eval", "route-report"])
def test_a_manifest_with_no_post_past_the_gate_exits_2_naming_it(tmp_path, corpus, capsys,
                                                                 command, gated):
    """An empty manifest, or one whose every post scores below the similarity
    gate, leaves nothing to split: a data error naming the manifest."""
    samples = [s for s in load_manifest(corpus) if s.annotation.similarity is not None]
    for s in samples:
        s.annotation.similarity = 0.5
    manifest = tmp_path / "none.jsonl"
    save_manifest(samples if gated else [], manifest)
    argv = (["--out", str(tmp_path / "run")] if command in ("train", "ablate")
            else ["--checkpoint", str(tmp_path / "none")])
    assert cli.main([command, "--manifest", str(manifest), *argv]) == 2
    err = capsys.readouterr().err
    assert (f"DataError: {manifest}: no post left after the similarity gate "
            f"({len(samples) if gated else 0} dropped)") in err


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


def test_config_file_vocab_size_exits_1_naming_file_and_line(tmp_path, corpus, capsys):
    """The vocabulary's length is the model's vocab_size; min_count and
    max_vocab shape it, and the key itself is refused."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lr=0.1\nvocab_size=100\n")
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(tmp_path / "run"),
                   "--config", str(cfg), "--steps", "1"])
    assert rc == 1
    assert (f"ConfigError: {cfg}:2: unknown config key 'vocab_size'; the vocabulary sets it"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("line", ["n_heads=0", "seed=-1", "split_seed=-1",
                                  "checkpoint_every=-3"])
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


@pytest.mark.parametrize("line", [f"h={2 ** 62}", f"max_len={10 ** 15}",
                                  f"expansion_ratio={2 ** 60}"])
def test_config_file_unallocatable_model_size_exits_1_naming_it(tmp_path, corpus, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n")
    rc = cli.main(["train", "--manifest", str(corpus),
                   "--out", str(tmp_path / "run"), "--config", str(cfg), "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError: cannot allocate the weights of" in err and line in err


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
        ModelConfig(**model_kv)
        TrainConfig(**train_kv)
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
    for path in (out, tmp_path / "run.json"):
        _assert_json_layout(path)
    assert json.loads((tmp_path / "run.json").read_text())["command"] == "eval"


def test_eval_run_record_hashes_the_checkpoint(tmp_path, corpus, trained):
    ckpt_dir = tmp_path / "checkpoint"
    shutil.copytree(trained / "checkpoint", ckpt_dir)
    weights_path = ckpt_dir / ckpt.WEIGHTS_FILE

    def eval_inputs(run):
        out = tmp_path / run / "eval.json"
        assert cli.main(["eval", "--manifest", str(corpus), "--checkpoint", str(ckpt_dir),
                         "--out", str(out)]) == 0
        return json.loads((out.parent / "run.json").read_text())["inputs"]

    first = eval_inputs("a")
    params, _ = ckpt.load_model(ckpt_dir)
    weights = {name: t.values for name, t in params.tensors.items()}
    weights["head.b"] = weights["head.b"] + 0.5
    ckpt.write_tensor_file(weights_path, weights)
    second = eval_inputs("b")
    for name in (ckpt.CONFIG_FILE, ckpt.VOCAB_FILE, ckpt.WEIGHTS_FILE):
        assert str(ckpt_dir / name) in first
    assert first[str(corpus)] == second[str(corpus)]
    assert first[str(weights_path)] != second[str(weights_path)]


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
    for path in (out / "run.json", out / "checkpoint" / "config.json",
                 out / "checkpoint" / "train_state.json"):
        _assert_json_layout(path)


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


@pytest.mark.parametrize("flags, mismatch", [
    (["--batch-size", "2", "--seed", "1"], "seed 0, not the 1 given"),
    (["--batch-size", "3"], "batch_size 2, not the 3 given"),
    (["--batch-size", "2", "--freeze-patch-embedder"],
     "freeze_patch_embedder False, not the True given"),
], ids=["seed", "batch_size", "freeze_patch_embedder"])
def test_train_resume_refuses_another_seed_or_batch_size_naming_it(
        tmp_path, corpus, trained, capsys, flags, mismatch):
    """The seed and the batch size decide every batch and dropout mask, and
    the freeze flag which weights move, so a resume must keep the ones the
    checkpoint was trained with."""
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    log = (out / "history.csv").read_bytes()
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "4", "--resume"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"ConfigError: checkpoint {out / 'checkpoint'} was trained with {mismatch}" in err
    assert (out / "history.csv").read_bytes() == log


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
    ("config.json", _json_edit(lambda c: c.update(mystery=1)), "unknown keys ['mystery']"),
    ("config.json", _json_edit(lambda c: c.update(h=2 ** 62)),
     f"cannot allocate the weights of h={2 ** 62}"),
    ("config.json", _json_edit(lambda c: c.update(max_len=10 ** 15)),
     f"max_len={10 ** 15}"),
    ("config.json", _json_edit(lambda c: c.update(expansion_ratio=2 ** 60)),
     f"expansion_ratio={2 ** 60}"),
    ("vocab.tsv", lambda blob: b"".join(blob.splitlines(keepends=True)[:-20]),
     "tokens, but config.json gives vocab_size"),
    ("vocab.tsv", lambda blob: blob + b"".join(b"extra%d\t%d\n" % (i, blob.count(b"\n") + i)
                                               for i in range(3)),
     "tokens, but config.json gives vocab_size"),
], ids=["vocab_not_utf8", "vocab_without_reserved_tokens", "config_not_json",
        "config_string_h", "config_int_flag", "config_unknown_key", "config_h_past_memory",
        "config_max_len_past_memory", "config_expansion_past_memory", "vocab_20_tokens_short",
        "vocab_3_tokens_long"])
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


def _moments(ckpt_dir):
    """The optimizer moments of the checkpoint in ckpt_dir."""
    params, _ = ckpt.load_model(ckpt_dir)
    arrays = {key: np.empty(params.values.size) for key in ("adam.m", "adam.v")}
    ckpt.read_tensor_file(ckpt_dir / ckpt.OPTIMIZER_FILE, arrays)
    return params, arrays


def _drop_moment(ckpt_dir):
    _, arrays = _moments(ckpt_dir)
    del arrays["adam.v"]
    ckpt.write_tensor_file(ckpt_dir / ckpt.OPTIMIZER_FILE, arrays)


def _edit_state(edit):
    def apply(ckpt_dir):
        path = ckpt_dir / ckpt.TRAIN_STATE_FILE
        path.write_bytes(edit(path.read_bytes()))
    return apply


@pytest.mark.parametrize("damage, file, match", [
    (_edit_state(lambda blob: blob[:10]), ckpt.TRAIN_STATE_FILE, "not JSON"),
    (_edit_state(lambda blob: b"[]"), ckpt.TRAIN_STATE_FILE, "JSON object"),
    (_edit_state(_json_edit(lambda m: m.pop("step"))), ckpt.TRAIN_STATE_FILE,
     "missing keys ['step']"),
    (_edit_state(_json_edit(lambda m: m.update(step=-1))), ckpt.TRAIN_STATE_FILE,
     "invalid step"),
    (_edit_state(_json_edit(lambda m: m.update(step=True))), ckpt.TRAIN_STATE_FILE,
     "step must be of type int, got bool"),
    (_edit_state(_json_edit(lambda m: m.update(mystery=1))), ckpt.TRAIN_STATE_FILE,
     "unknown keys ['mystery']"),
    (_edit_state(_json_edit(lambda m: m.pop("train_size"))), ckpt.TRAIN_STATE_FILE,
     "missing keys ['train_size']"),
    (_edit_state(_json_edit(lambda m: m.update(train_size=-1))), ckpt.TRAIN_STATE_FILE,
     "invalid train_size"),
    (_edit_state(_json_edit(lambda m: m.update(train_size=True))), ckpt.TRAIN_STATE_FILE,
     "train_size must be of type int, got bool"),
    (_edit_state(_json_edit(lambda m: m.pop("seed"))), ckpt.TRAIN_STATE_FILE,
     "missing keys ['seed']"),
    (_edit_state(_json_edit(lambda m: m.update(seed=-1))), ckpt.TRAIN_STATE_FILE,
     "invalid seed"),
    (_edit_state(_json_edit(lambda m: m.update(seed=True))), ckpt.TRAIN_STATE_FILE,
     "seed must be of type int, got bool"),
    (_edit_state(_json_edit(lambda m: m.pop("batch_size"))), ckpt.TRAIN_STATE_FILE,
     "missing keys ['batch_size']"),
    (_edit_state(_json_edit(lambda m: m.update(batch_size=-1))), ckpt.TRAIN_STATE_FILE,
     "invalid batch_size"),
    (_edit_state(_json_edit(lambda m: m.update(batch_size=True))), ckpt.TRAIN_STATE_FILE,
     "batch_size must be of type int, got bool"),
    (_edit_state(_json_edit(lambda m: m.update(history_bytes=-1))), ckpt.TRAIN_STATE_FILE,
     "invalid history_bytes"),
    (_edit_state(_json_edit(lambda m: m.pop("freeze_patch_embedder"))), ckpt.TRAIN_STATE_FILE,
     "missing keys ['freeze_patch_embedder']"),
    (_edit_state(_json_edit(lambda m: m.update(freeze_patch_embedder=0))),
     ckpt.TRAIN_STATE_FILE, "freeze_patch_embedder must be of type bool, got int"),
    (_drop_moment, ckpt.OPTIMIZER_FILE, "adam.v is missing"),
], ids=["state_not_json", "state_list", "no_step", "negative_step", "bool_step",
        "unknown_state_key", "no_train_size", "negative_train_size", "bool_train_size",
        "no_seed", "negative_seed", "bool_seed", "no_batch_size", "negative_batch_size",
        "bool_batch_size", "negative_history_bytes", "no_freeze_flag", "int_freeze_flag",
        "no_adam_moment"])
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


def _state_without_history_bytes(out):
    _edit_state(_json_edit(lambda m: m.pop("history_bytes")))(out / "checkpoint")


@pytest.mark.parametrize("damage, file, match", [
    (lambda out: (out / "history.csv").unlink(), "history.csv", "no such file"),
    (lambda out: (out / "history.csv").write_bytes((out / "history.csv").read_bytes()[:-1]),
     "history.csv", "bytes, but "),
    (_state_without_history_bytes, f"checkpoint/{ckpt.TRAIN_STATE_FILE}",
     "missing keys ['history_bytes']"),
], ids=["history_missing", "history_shorter", "state_without_history_bytes"])
def test_resume_needs_the_log_its_checkpoint_records(tmp_path, corpus, trained, capsys,
                                                     damage, file, match):
    """A resume cuts history.csv back to the length train_state.json records;
    a log shorter than that, or a state from before the length was recorded,
    exits 2 naming the file, and leaves the log as it was."""
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    damage(out)
    log = out / "history.csv"
    before = log.read_bytes() if log.exists() else None
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "3", "--batch-size", "2", "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"DataError: {out / file}: " in err and match in err
    assert (log.read_bytes() if log.exists() else None) == before


def test_a_state_without_history_bytes_still_loads_for_eval(tmp_path, corpus, trained):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    _state_without_history_bytes(out)
    assert cli.main(["eval", "--manifest", str(corpus), "--checkpoint",
                     str(out / "checkpoint"), "--out", str(tmp_path / "eval")]) == 0


def _state_with_a_stored_generator(meta):
    """The train_state.json of a run whose checkpoint stored its generator
    state and sampler rather than the seed, batch size and training-set size."""
    for key in ("seed", "batch_size", "train_size"):
        del meta[key]
    meta["rng_state"] = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3},
                         "has_uint32": 0, "uinteger": 0}
    meta["sampler"] = {"perm": [1, 0], "cursor": 2}


def test_a_state_with_a_stored_generator_loads_for_eval_but_not_for_resume(
        tmp_path, corpus, trained, capsys):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    path = out / "checkpoint" / ckpt.TRAIN_STATE_FILE
    _edit_state(_json_edit(_state_with_a_stored_generator))(out / "checkpoint")
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "3", "--batch-size", "2", "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"DataError: {path}: unknown keys ['rng_state', 'sampler']" in err
    assert cli.main(["eval", "--manifest", str(corpus), "--checkpoint",
                     str(out / "checkpoint"), "--out", str(tmp_path / "eval")]) == 0


def _per_weight_moments(ckpt_dir):
    """Rewrite optimizer.umfd as it was before the flat parameter store: an
    adam.m.<name> and an adam.v.<name> entry for each weight."""
    params, flat = _moments(ckpt_dir)
    arrays, start = {}, 0
    for name, t in params.tensors.items():
        for key in ("adam.m", "adam.v"):
            arrays[f"{key}.{name}"] = flat[key][start:start + t.values.size].reshape(t.shape)
        start += t.values.size
    ckpt.write_tensor_file(ckpt_dir / ckpt.OPTIMIZER_FILE, arrays)


def test_per_weight_moments_load_for_eval_but_not_for_resume(tmp_path, corpus, trained, capsys):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    _per_weight_moments(out / "checkpoint")
    cfg = tmp_path / "m.cfg"
    cfg.write_text(SMALL_MODEL)
    rc = cli.main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg),
                   "--steps", "3", "--batch-size", "2", "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"DataError: {out / 'checkpoint' / ckpt.OPTIMIZER_FILE}: adam.m is missing" in err
    assert cli.main(["eval", "--manifest", str(corpus), "--checkpoint",
                     str(out / "checkpoint"), "--out", str(tmp_path / "eval")]) == 0


# ---------------------------------------------------------------------------
# similarity gate on load


def test_low_similarity_samples_dropped_on_load(tmp_path, corpus):
    samples = load_manifest(corpus)
    victim = next(s for s in samples if s.annotation.similarity is not None)
    victim.annotation.similarity = 0.2
    gated = tmp_path / "gated.jsonl"
    from umfdet.data import save_manifest
    save_manifest(samples, gated)
    kept = [s for part in cli._corpus_splits(gated, 0) for s in part]
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
    for path in (out / "ablation.json", out / "run.json"):
        _assert_json_layout(path)
    printed = capsys.readouterr().out
    for name in ("base", "no_moe", "no_dropout"):
        assert name in printed

"""Corpus records, manifest io, gating, splitting, and toy synthesis."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umfdet.data import (
    CATEGORY_NAMES,
    Category,
    CotNote,
    ImagePayload,
    ManipulationAnnotation,
    NewsSample,
    REFERENCE_COUNTS,
    REFERENCE_TOTAL,
    SplitSpec,
    TOY_FEAT_TOKENS,
    TOY_FEAT_WIDTH,
    check_reference_counts,
    corpus_stats,
    load_manifest,
    save_manifest,
    similarity_gate,
    split,
    synth_toy_corpus,
    template_cot,
)
from umfdet.errors import ConfigError, DataError, ManifestError

from helpers import JSON_VALUES

# ---------------------------------------------------------------------------
# categories


def test_category_parse_and_expert_index():
    assert Category.parse("real") is Category.REAL
    assert Category.parse("  Human_Crafted ") is Category.HUMAN_CRAFTED
    assert Category.parse("AI_SYNTHESIZED") is Category.AI_SYNTHESIZED
    assert Category.parse("bogus") is None
    assert Category.parse("") is None
    assert [c.expert_index for c in Category] == [0, 1, 2]
    assert CATEGORY_NAMES == ("real", "human_crafted", "ai_synthesized")


# ---------------------------------------------------------------------------
# image payloads


def test_image_payload_exactly_one_variant():
    with pytest.raises(DataError):
        ImagePayload()
    with pytest.raises(DataError):
        ImagePayload(feat=np.zeros((2, 4)), path="img.png")


def test_image_payload_raw_shape_rules():
    ImagePayload(raw=np.zeros((1, 8, 8)))
    ImagePayload(raw=np.zeros((3, 64, 64)))
    with pytest.raises(DataError):
        ImagePayload(raw=np.zeros((2, 8, 8)))      # bad channel count
    with pytest.raises(DataError):
        ImagePayload(raw=np.zeros((1, 8, 16)))     # not square
    with pytest.raises(DataError):
        ImagePayload(raw=np.zeros((1, 72, 72)))    # side > 64
    with pytest.raises(DataError):
        ImagePayload(raw=np.full((1, 8, 8), np.nan))
    with pytest.raises(DataError):
        ImagePayload(feat=np.array([[np.inf, 0.0]]))


def test_image_payload_feat_round_trip_exact():
    rng = np.random.default_rng(3)
    feat = rng.normal(size=(5, 7))
    back = ImagePayload.from_json(ImagePayload(feat=feat).to_json())
    assert back.feat.shape == (5, 7)
    assert np.array_equal(back.feat, feat)


def test_image_payload_raw_round_trip_bit_exact():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(3, 16, 16))
    obj = ImagePayload(raw=raw).to_json()
    back = ImagePayload.from_json(json.loads(json.dumps(obj)))
    assert back.raw.dtype == np.float64
    assert np.array_equal(back.raw, raw)


def test_image_payload_json_rejects_unknown_shapes():
    with pytest.raises(DataError):
        ImagePayload.from_json({"path": "a", "feat": [[0.0]]})
    with pytest.raises(DataError):
        ImagePayload.from_json({"pixels": [1, 2]})
    with pytest.raises(DataError):
        ImagePayload.from_json("img.png")


# ---------------------------------------------------------------------------
# manipulation annotations


def test_annotation_none_iff_real():
    ManipulationAnnotation().validate(Category.REAL)
    with pytest.raises(DataError):
        ManipulationAnnotation().validate(Category.HUMAN_CRAFTED)
    with pytest.raises(DataError):
        ManipulationAnnotation(kind="full_generation").validate(Category.REAL)


def test_annotation_kind_requirements():
    with pytest.raises(DataError):
        ManipulationAnnotation(kind="made_up").validate(Category.AI_SYNTHESIZED)
    with pytest.raises(DataError):
        ManipulationAnnotation(kind="inpaint_replace").validate(Category.AI_SYNTHESIZED)
    with pytest.raises(DataError, match="p_src or p_mod"):
        ManipulationAnnotation(kind="inpaint_replace",
                               mask_ref="m.png").validate(Category.AI_SYNTHESIZED)
    for prompts in ({"p_src": "dog", "p_mod": "cat"}, {"p_src": "dog"}, {"p_mod": "cat"}):
        ManipulationAnnotation(kind="inpaint_replace", mask_ref="m.png",
                               **prompts).validate(Category.AI_SYNTHESIZED)
    with pytest.raises(DataError):
        ManipulationAnnotation(kind="pure_fake_text").validate(Category.HUMAN_CRAFTED)
    with pytest.raises(DataError):
        ManipulationAnnotation(kind="face_swap", similarity=1.5).validate(
            Category.AI_SYNTHESIZED)


def test_annotation_json_round_trip_keeps_the_manifest_keys():
    ann = ManipulationAnnotation(kind="inpaint_replace", mask_ref="masks/x.png",
                                 p_src="harbor", p_mod="painted harbor",
                                 edit_strength=0.4, similarity=0.82)
    obj = ann.to_json()
    assert list(obj) == ["kind", "mask_ref", "p_src", "p_mod", "rewrite_log",
                         "edit_strength", "similarity"]
    assert obj["p_src"] == "harbor" and obj["p_mod"] == "painted harbor"
    back = ManipulationAnnotation.from_json(obj)
    assert back == ann
    with pytest.raises(DataError):
        ManipulationAnnotation.from_json({"kind": "none", "extra": 1})


def test_cot_note_round_trip():
    note = CotNote(think="a [image]. b [text].", answer="real", verdict="accepted")
    assert CotNote.from_json(note.to_json()) == note
    with pytest.raises(DataError):
        CotNote.from_json({"think": "t", "answer": "real", "verdict": "v", "x": 1})


# ---------------------------------------------------------------------------
# samples and manifests


def _sample(i: int = 0, label: Category = Category.REAL, similarity=None) -> NewsSample:
    ann = ManipulationAnnotation()
    if label is not Category.REAL:
        ann = ManipulationAnnotation(kind="full_generation", similarity=similarity)
    return NewsSample(
        id=f"s-{i:04d}",
        title=f"Merkel visits the bright harbor in Oslo on Friday {i}",
        image=ImagePayload(feat=np.full((2, 4), float(i))),
        label=label,
        annotation=ann,
        cot=template_cot(label, "Merkel"),
    )


def test_sample_validate_requires_id():
    s = _sample()
    s.id = ""
    with pytest.raises(DataError):
        s.validate()


def test_sample_json_rejects_unknown_keys_and_bad_label():
    obj = _sample().to_json()
    obj["mystery"] = 1
    with pytest.raises(DataError):
        NewsSample.from_json(obj)
    obj = _sample().to_json()
    obj["label"] = "fake"
    with pytest.raises(DataError):
        NewsSample.from_json(obj)


def test_manifest_round_trip_identity(tmp_path):
    samples = [
        _sample(0, Category.REAL),
        _sample(1, Category.AI_SYNTHESIZED, similarity=0.9),
        NewsSample(id="s-raw", title="Obama opens the calm museum in Cairo on Monday",
                   image=ImagePayload(raw=np.arange(75.0).reshape(3, 5, 5)),
                   label=Category.HUMAN_CRAFTED,
                   annotation=ManipulationAnnotation(
                       kind="pure_fake_text",
                       rewrite_log={"strategy": "pure_fake", "preserved_entities": ["Obama"],
                                    "replacements": [], "output_title": "t"}),
                   cot=template_cot(Category.HUMAN_CRAFTED, "Obama")),
        NewsSample(id="s-path", title="Modi tours the quiet stadium in Tokyo on Sunday",
                   image=ImagePayload(path="images/s.png"), label=Category.REAL),
    ]
    path = tmp_path / "m.jsonl"
    save_manifest(samples, path)
    loaded = load_manifest(path)
    assert [s.to_json() for s in loaded] == [s.to_json() for s in samples]
    # serialization is canonical: keys sorted, compact separators, one line each
    lines = path.read_text().splitlines()
    assert len(lines) == len(samples)
    for line in lines:
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line


def test_manifest_blank_lines_skipped(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest([_sample(0)], path)
    path.write_text(path.read_text() + "\n\n")
    assert len(load_manifest(path)) == 1


def test_manifest_error_cites_line_numbers(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest([_sample(0), _sample(1)], path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "{not json", lines[1]]) + "\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_manifest_bad_sample_cites_line(tmp_path):
    path = tmp_path / "m.jsonl"
    good = _sample(0)
    bad = json.dumps({"id": "x", "title": "t", "image": {"path": "p"}, "label": "nope"})
    path.write_text(json.dumps(good.to_json(), sort_keys=True, separators=(",", ":"))
                    + "\n" + bad + "\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert exc.value.line == 2


def test_manifest_blank_title_is_manifest_error_naming_the_line(tmp_path):
    path = tmp_path / "m.jsonl"
    good = json.dumps(_sample(0).to_json())
    blank = json.dumps({**_sample(1).to_json(), "title": "   "})
    path.write_text(good + "\n" + blank + "\n")
    with pytest.raises(ManifestError, match="line 2: .*blank title") as exc:
        load_manifest(path)
    assert exc.value.line == 2


_GOOD = {"id": "x", "title": "t", "image": {"feat": [[0.0, 1.0], [2.0, 3.0]]},
         "label": "real"}


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


_HUMAN = {**_GOOD, "label": "human_crafted"}


@pytest.mark.parametrize("line", [
    {**_GOOD, "image": {"feat": [[0.0, 1.0], [2.0]]}},
    {**_GOOD, "image": {"feat": [["a", "b"]]}},
    {**_GOOD, "image": {"feat": [[1e400, 0.0]]}},
    {**_GOOD, "image": {"feat": [[10 ** 400, 0.0]]}},
    {**_GOOD, "image": {"feat_b64": _b64([0.0, 1.0, 2.0]), "shape": [2, 2]}},
    {**_GOOD, "image": {"feat_b64": _b64([0.0, 1.0, 2.0, 3.0]), "shape": [1, 2, 2]}},
    {**_GOOD, "image": {"feat_b64": _b64([0.0, 1.0, 2.0, 3.0]), "shape": [2, "2"]}},
    {**_GOOD, "image": {"feat_b64": 7, "shape": [2, 2]}},
    {**_GOOD, "image": {"feat_b64": _b64([0.0, np.nan, 2.0, 3.0]), "shape": [2, 2]}},
    {**_GOOD, "image": {"feat_b64": "!!!!", "shape": [1, 0]}},
    {**_GOOD, "image": {"feat_b64": "", "shape": [0, 64]}},
    {**_GOOD, "image": {"feat": [[]]}},
    {**_GOOD, "image": {"raw_b64": "", "shape": [1, 0, 0]}},
    {**_GOOD, "image": {"path": 7}},
    {**_GOOD, "label": 7},
    {**_HUMAN, "manipulation": {"kind": "face_swap", "similarity": "x"}},
    {**_HUMAN, "manipulation": {"kind": "face_swap", "similarity": True}},
    {**_HUMAN, "manipulation": {"kind": "face_swap", "edit_strength": float("nan")}},
    {**_HUMAN, "manipulation": {"kind": "face_swap", "edit_strength": float("inf")}},
    {**_HUMAN, "manipulation": {"kind": "face_swap", "mask_ref": 3}},
    {**_HUMAN, "manipulation": {"kind": "pure_fake_text", "rewrite_log": "log"}},
    {**_GOOD, "cot": {"think": 1, "answer": "real", "verdict": "accepted"}},
    {**_GOOD, "cot": {"think": "t", "answer": 2, "verdict": "accepted"}},
    {**_GOOD, "cot": {"think": "t", "answer": "real", "verdict": None}},
    {**_GOOD, "cot": {}},
    {**_GOOD, "cot": 0},
    {**_GOOD, "manipulation": False},
    {k: v for k, v in _GOOD.items() if k != "id"},
    {k: v for k, v in _GOOD.items() if k != "title"},
    {k: v for k, v in _GOOD.items() if k != "image"},
    {**_GOOD, "image": {"raw_b64": "AAAA", "shape": [1, 2, 2]}},
    {**_GOOD, "title": 7},
    {**_GOOD, "cot": {"think": "x"}},
    {**_GOOD, "cot": ["think", "answer", "verdict"]},
    {**_GOOD, "manipulation": ["kind"]},
    ["id", "title", "image"],
], ids=["ragged_feat", "non_numeric_feat", "infinite_feat", "huge_int_feat", "feat_b64_byte_count",
        "feat_b64_not_2d", "feat_b64_shape_not_ints", "feat_b64_not_string",
        "feat_b64_non_finite", "feat_b64_not_base64", "feat_b64_no_rows", "feat_no_columns",
        "raw_b64_side_0", "numeric_path", "numeric_label",
        "string_similarity", "bool_similarity", "nan_edit_strength", "inf_edit_strength",
        "numeric_mask_ref", "string_rewrite_log",
        "numeric_think", "numeric_answer", "null_verdict", "empty_cot", "zero_cot",
        "false_manipulation",
        "no_id", "no_title", "no_image",
        "short_raw", "non_string_title", "partial_cot", "list_cot",
        "list_manipulation", "list_line"])
def test_manifest_malformed_line_is_manifest_error(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**_GOOD, "id": "first"}) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("line", [
    b'{"id": "\xff"}',
    b'{"id": ' + b"9" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not_utf8", "integer_past_digit_limit", "nesting_past_recursion_limit"])
def test_manifest_undecodable_line_is_manifest_error(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_bytes(json.dumps({**_GOOD, "id": "first"}).encode() + b"\n" + line + b"\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert exc.value.line == 2


def test_save_manifest_writes_feat_b64_and_decimal_feat_still_loads_bit_exact(tmp_path):
    feat = np.random.default_rng(5).normal(size=(TOY_FEAT_TOKENS, TOY_FEAT_WIDTH))
    sample = NewsSample(id="s", title="Modi tours the quiet stadium", image=ImagePayload(feat=feat),
                        label=Category.REAL)
    path = tmp_path / "m.jsonl"
    save_manifest([sample], path)
    obj = json.loads(path.read_text())
    assert obj["image"] == {"feat_b64": _b64(feat), "shape": [TOY_FEAT_TOKENS, TOY_FEAT_WIDTH]}
    # the decimal encoding manifests were written in before feat_b64
    obj["image"] = {"feat": [[float(x) for x in row] for row in feat]}
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    new_feat, old_feat = load_manifest(path)[0].image.feat, load_manifest(old)[0].image.feat
    assert new_feat.dtype == old_feat.dtype == np.float64
    assert new_feat.tobytes() == old_feat.tobytes() == feat.tobytes()


_FUZZ_BASE = {
    "id": "s", "title": "Obama opens the calm museum in Cairo",
    "image": {"feat_b64": _b64(np.eye(2)), "shape": [2, 2]},
    "label": "ai_synthesized",
    "manipulation": {"kind": "inpaint_replace", "mask_ref": "m.png", "p_src": "museum",
                     "p_mod": "painted museum", "rewrite_log": None, "edit_strength": 0.5,
                     "similarity": 0.9},
    "cot": {"think": "t", "answer": "ai_synthesized", "verdict": "accepted"},
}
_FUZZ_FIELDS = [(k,) for k in _FUZZ_BASE] + [
    (k, sub) for k in ("image", "manipulation", "cot") for sub in _FUZZ_BASE[k]]


@given(field=st.sampled_from(_FUZZ_FIELDS), value=JSON_VALUES)
def test_manifest_fuzzed_field_loads_or_is_manifest_error(tmp_path_factory, field, value):
    obj = json.loads(json.dumps(_FUZZ_BASE))
    parent = obj
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    path = tmp_path_factory.mktemp("fuzz") / "m.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    try:
        load_manifest(path)
    except ManifestError as exc:
        assert exc.line == 1


def test_manifest_duplicate_ids_rejected(tmp_path):
    a, b = _sample(0), _sample(1)
    b.id = a.id
    path = tmp_path / "m.jsonl"
    save_manifest([a, b], path)
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert exc.value.line == 2
    assert "line 1" in str(exc.value)


# ---------------------------------------------------------------------------
# similarity gate


def test_similarity_gate_inclusive_boundary():
    keep = _sample(0, Category.AI_SYNTHESIZED, similarity=0.70)
    drop = _sample(1, Category.AI_SYNTHESIZED, similarity=0.699)
    ungated = _sample(2, Category.REAL)
    kept, dropped = similarity_gate([keep, drop, ungated])
    assert kept == [keep, ungated]
    assert dropped == [drop]


# ---------------------------------------------------------------------------
# splitting


def test_split_is_a_stratified_partition():
    samples = synth_toy_corpus(120, 0.5, seed=1)
    train, val, test = split(samples, SplitSpec(seed=3))
    ids = [s.id for s in train + val + test]
    assert sorted(ids) == sorted(s.id for s in samples)
    assert len(set(ids)) == len(samples)
    # 40 per class at 8:1:1 gives floor splits 32/4/4 per class
    assert (len(train), len(val), len(test)) == (96, 12, 12)
    for part in (train, val, test):
        by = {c: 0 for c in Category}
        for s in part:
            by[s.label] += 1
        assert len(set(by.values())) == 1


def test_split_deterministic_in_seed():
    samples = synth_toy_corpus(60, 0.5, seed=1)
    a = split(samples, SplitSpec(seed=7))
    b = split(samples, SplitSpec(seed=7))
    assert [[s.id for s in part] for part in a] == [[s.id for s in part] for part in b]
    c = split(samples, SplitSpec(seed=8))
    assert [[s.id for s in part] for part in a] != [[s.id for s in part] for part in c]


def test_split_rejects_bad_specs_and_tiny_classes():
    samples = synth_toy_corpus(60, 0.5, seed=1)
    with pytest.raises(ConfigError, match="seed"):
        split(samples, SplitSpec(seed=-1))
    with pytest.raises(DataError, match="^class real has only 4 samples; need >= 10"):
        split(samples[:12], SplitSpec())  # 4 per class, below the floor of 10


# ---------------------------------------------------------------------------
# toy corpus synthesis


def test_synth_toy_corpus_validates_arguments():
    with pytest.raises(ConfigError):
        synth_toy_corpus(29, 0.5, seed=0)
    with pytest.raises(ConfigError):
        synth_toy_corpus(60, 1.01, seed=0)
    with pytest.raises(ConfigError):
        synth_toy_corpus(60, -0.1, seed=0)


def test_synth_toy_corpus_balanced_and_valid():
    samples = synth_toy_corpus(90, 0.9, seed=5)
    stats = corpus_stats(samples)
    assert stats["total"] == 90
    assert set(stats["by_label"].values()) == {30}
    for s in samples:
        s.validate()
        assert s.image.feat.shape == (TOY_FEAT_TOKENS, TOY_FEAT_WIDTH)
        assert s.cot is not None and s.cot.answer == s.label.value
        assert "[image]" in s.cot.think and "[text]" in s.cot.think


def test_synth_toy_corpus_cues_at_high_strength():
    samples = synth_toy_corpus(300, 0.9, seed=2)
    human = [s for s in samples if s.label is Category.HUMAN_CRAFTED]
    ai = [s for s in samples if s.label is Category.AI_SYNTHESIZED]
    real = [s for s in samples if s.label is Category.REAL]
    prefixed = [s for s in human if s.title.split()[0].endswith(":")]
    assert len(prefixed) / len(human) > 0.75
    for s in prefixed:  # the inserted prefix is logged at position 0
        reps = s.annotation.rewrite_log["replacements"]
        assert reps and reps[0]["original"] == "" and reps[0]["position"] == 0
    # ai features carry the additive pattern in the first 16 columns
    ai_mean = np.mean([s.image.feat[:, :16].mean() for s in ai])
    real_mean = np.mean([s.image.feat[:, :16].mean() for s in real])
    assert ai_mean - real_mean > 1.0
    distorted = [s for s in ai if s.annotation.kind == "keyword_distortion"]
    assert len(distorted) / len(ai) > 0.75
    for s in distorted:
        log = s.annotation.rewrite_log
        assert log["output_title"] == s.title
        assert 2 <= len(log["replacements"]) <= 3


def test_synth_toy_corpus_cues_vanish_at_zero_strength():
    samples = synth_toy_corpus(300, 0.0, seed=2)
    human = [s for s in samples if s.label is Category.HUMAN_CRAFTED]
    ai = [s for s in samples if s.label is Category.AI_SYNTHESIZED]
    real = [s for s in samples if s.label is Category.REAL]
    assert all(not s.title.split()[0].endswith(":") for s in human)
    assert all(not s.annotation.rewrite_log["replacements"] for s in human)
    assert all(s.annotation.kind != "keyword_distortion" for s in ai)
    ai_mean = np.mean([s.image.feat[:, :16].mean() for s in ai])
    real_mean = np.mean([s.image.feat[:, :16].mean() for s in real])
    assert abs(ai_mean - real_mean) < 0.3
    for s in ai:
        assert s.annotation.similarity is None or 0.7 <= s.annotation.similarity <= 0.99


def test_synth_toy_corpus_deterministic(tmp_path):
    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_manifest(synth_toy_corpus(60, 0.9, seed=11), a_path)
    save_manifest(synth_toy_corpus(60, 0.9, seed=11), b_path)
    assert a_path.read_bytes() == b_path.read_bytes()
    save_manifest(synth_toy_corpus(60, 0.9, seed=12), b_path)
    assert a_path.read_bytes() != b_path.read_bytes()


def test_synth_manifest_round_trips(tmp_path):
    samples = synth_toy_corpus(60, 0.9, seed=11)
    path = tmp_path / "m.jsonl"
    save_manifest(samples, path)
    loaded = load_manifest(path)
    assert [s.to_json() for s in loaded] == [s.to_json() for s in samples]


# ---------------------------------------------------------------------------
# reference statistics


def test_reference_counts_pinned():
    assert REFERENCE_COUNTS == {"real": 49034, "human_crafted": 24726,
                                "ai_synthesized": 53523}
    assert sum(REFERENCE_COUNTS.values()) == REFERENCE_TOTAL == 127283


def test_check_reference_counts():
    assert check_reference_counts(dict(REFERENCE_COUNTS))
    off = dict(REFERENCE_COUNTS)
    off["real"] += 1
    assert not check_reference_counts(off)
    missing = {"real": 49034, "human_crafted": 24726}
    assert not check_reference_counts(missing)
    assert not check_reference_counts({"real": "many", "human_crafted": 1,
                                       "ai_synthesized": 2})
    assert not check_reference_counts(None)


def test_corpus_stats_counts_kinds():
    samples = synth_toy_corpus(90, 0.9, seed=5)
    stats = corpus_stats(samples)
    assert stats["by_kind"]["none"] == 30
    assert stats["by_kind"]["pure_fake_text"] == 30
    assert sum(stats["by_kind"].values()) == 90
    assert stats["matches_full_scale_reference"] is False


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_template_cot_always_grounded(seed):
    rng = np.random.default_rng(seed)
    label = list(Category)[rng.integers(3)]
    note = template_cot(label, "Merkel")
    assert "[image]" in note.think and "[text]" in note.think
    assert note.answer == label.value and note.verdict == "accepted"

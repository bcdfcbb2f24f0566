"""Templates, tokenization and the vocabulary contract."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from umfdet import instruct
from umfdet.data import CotNote
from umfdet.errors import ConfigError, DataError, TemplateError
from umfdet.instruct import (BOS, EOS, PAD, RESERVED_TOKENS, UNK,
                             InstructionTemplate, Vocabulary, parse_template,
                             render_prompt, split_tokens)

GOOD_TEMPLATE = """[TASK]
Judge the news item.
[OPT]
Categories: real, human_crafted, ai_synthesized.
[QUE]
Title: {TITLE}
Which one?
[RESP]
Answer inside <answer> tags.
"""


def test_parse_template_sections():
    t = parse_template(GOOD_TEMPLATE)
    assert t.p_task == "Judge the news item."
    assert t.p_que.startswith("Title: {TITLE}")
    assert t.p_resp.endswith("tags.")


def test_parse_template_errors():
    with pytest.raises(TemplateError, match="missing"):
        parse_template("[TASK]\nx\n[OPT]\ny\n[QUE]\n{TITLE}\n")
    with pytest.raises(TemplateError, match="duplicate"):
        parse_template("[TASK]\nx\n[TASK]\ny\n")
    with pytest.raises(TemplateError, match="expected section"):
        parse_template("[OPT]\nx\n[TASK]\ny\n[QUE]\nz\n[RESP]\nw\n")
    with pytest.raises(TemplateError, match="before first"):
        parse_template("stray\n[TASK]\nx\n[OPT]\ny\n[QUE]\nz\n[RESP]\nw\n")


def test_render_prompt_joins_and_substitutes():
    t = parse_template(GOOD_TEMPLATE)
    out = render_prompt(t, "Obama visits Berlin")
    lines = out.split("\n")
    assert lines[0] == "Judge the news item."
    assert "Title: Obama visits Berlin" in lines
    assert "{TITLE}" not in out


def test_render_prompt_errors():
    t = parse_template(GOOD_TEMPLATE)
    with pytest.raises(DataError):
        render_prompt(t, "   ")
    bad = InstructionTemplate(p_task="a", p_opt="b", p_que="no placeholder", p_resp="c")
    with pytest.raises(TemplateError):
        render_prompt(bad, "title")


def test_default_template_loads_and_renders():
    t = instruct.default_template()
    out = render_prompt(t, "Merkel opens the bridge")
    assert "Merkel opens the bridge" in out


# ---------------------------------------------------------------------------
# tokenization


def test_split_tokens_markers_atomic_and_lowercase():
    toks = split_tokens("<think>Obama Visits [image].</think><answer>Real</answer>")
    assert toks == ["<think>", "obama", "visits", "[image]", ".", "</think>",
                    "<answer>", "real", "</answer>"]


def test_split_tokens_punctuation_and_underscores():
    assert split_tokens("ai_synthesized, right?") == ["ai_synthesized", ",", "right", "?"]


def _reference_split_tokens(text):
    """The per-token form split_tokens had before it lowercased its tokens
    in one call, with the dotted capital I mapped to a plain i."""
    return [t.replace("\u0130", "i").lower() for t in instruct._TOKEN_RE.findall(text)]


# Markers and tags in several casings, letters whose lowercase depends on
# context (final sigma) or has another length (dotted capital I), marks and
# punctuation that str.lower skips over, and whitespace of several kinds.
_TOKEN_TEXT = st.lists(
    st.sampled_from(["<think>", "</think>", "<answer>", "</answer>", "<THINK>",
                     "</Answer>", "[image]", "[text]", "[IMAGE]", "[Text]", "<", ">", "/",
                     "[", "]", "ΑΣ", "Σ", "σς", "ΟΔΟΣ'", "İstanbul", "ǅ", "ß", "ẞ", "Ⅻ",
                     "ⓐ", "'", ".", ":", "\u0301", "\u00ad", "_", " ", "\n", "\t", "\u3000",
                     "Obama", "REAL", "x1", "42"])
    | st.text(max_size=4), max_size=12).map("".join)


@given(_TOKEN_TEXT | st.text())
def test_split_tokens_matches_the_per_token_lowercase(text):
    assert split_tokens(text) == _reference_split_tokens(text)


def test_vocab_reserved_ids():
    v = Vocabulary.build(["alpha alpha beta beta"])
    for i, tok in enumerate(RESERVED_TOKENS):
        assert v.token_to_id[tok] == i
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    assert v.token_to_id["<think>"] == 4
    assert v.token_to_id["</answer>"] == 7


def test_vocab_build_ranking_and_min_count():
    v = Vocabulary.build(["b b b a a c"], min_count=2)
    assert v.id_to_token[8:] == ["b", "a"]          # freq desc, c dropped
    v2 = Vocabulary.build(["zz aa zz aa"], min_count=1)
    assert v2.id_to_token[8:] == ["aa", "zz"]       # tie broken lexicographically


def _reference_vocab_tokens(texts, min_count, max_size):
    """Vocabulary.build's tokens as it counted them before one Counter.update
    per text: token by token, reserved tokens skipped as they are met."""
    counts = Counter()
    for text in texts:
        for tok in split_tokens(text):
            if tok not in RESERVED_TOKENS:
                counts[tok] += 1
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return list(RESERVED_TOKENS) + kept[:max_size - len(RESERVED_TOKENS)]


@given(texts=st.lists(_TOKEN_TEXT, max_size=8), min_count=st.integers(1, 3), data=st.data())
def test_vocab_build_counts_as_the_per_token_loop(texts, min_count, data):
    ranked = _reference_vocab_tokens(texts, min_count, 8192)[len(RESERVED_TOKENS):]
    tally = Counter(tok for text in texts for tok in split_tokens(text))
    # Where two neighbours in the ranking have equal counts, cap the size
    # between them, so the tie order decides which one is kept.
    ties = [k for k in range(1, len(ranked)) if tally[ranked[k - 1]] == tally[ranked[k]]]
    cut = data.draw(st.sampled_from(ties) if ties else st.integers(1, len(ranked) + 1))
    max_size = len(RESERVED_TOKENS) + cut
    got = Vocabulary.build(texts, min_count=min_count, max_size=max_size)
    assert got.id_to_token == _reference_vocab_tokens(texts, min_count, max_size)


def test_vocab_build_cap_and_validation():
    words = " ".join(f"w{i:03d} w{i:03d}" for i in range(20))
    v = Vocabulary.build([words], max_size=12)
    assert len(v) == 12
    with pytest.raises(ConfigError):
        Vocabulary.build(["x"], min_count=0)
    with pytest.raises(ConfigError):
        Vocabulary.build(["x"], max_size=8)


def test_encode_decode_round_trip_with_markers():
    text = "<think>scene looks clean [image]. wording is calm [text].</think>" \
           "<answer>real</answer>"
    v = Vocabulary.build([text], min_count=1)
    ids = v.encode(text)
    assert BOS not in ids and EOS not in ids
    assert v.decode(ids) == text
    assert v.decode([BOS] + ids + [EOS, PAD]) == text  # pad, begin and end are dropped


def test_encode_unknown_maps_to_unk():
    v = Vocabulary.build(["known words only"], min_count=1)
    ids = v.encode("known mystery")
    assert ids[1] == UNK


def test_decode_rejects_out_of_range():
    v = Vocabulary.build(["a a"], min_count=1)
    with pytest.raises(DataError):
        v.decode([len(v)])


def test_vocab_save_load_round_trip(tmp_path):
    v = Vocabulary.build(["some words appear twice some words appear twice"])
    path = tmp_path / "vocab.tsv"
    v.save(path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "<pad>\t0"
    v2 = Vocabulary.load(path)
    assert v2.id_to_token == v.id_to_token


def test_vocab_load_rejects_corruption(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("<pad>\t0\nonly-one-column\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        Vocabulary.load(p)
    p.write_text("<pad>\t0\n<bos>\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="contiguous"):
        Vocabulary.load(p)


@pytest.mark.parametrize("blob, match", [
    (b"<pad>\t0\n\xff\t1\n", "not UTF-8"),
    (b"pad\t0\n", "reserved tokens"),
    ("".join(f"{t}\t{i}\n" for i, t in enumerate(RESERVED_TOKENS + ("a", "a"))).encode(),
     "repeats a token"),
    (b"<pad>\t" + b"9" * 5000 + b"\n", "non-integer id"),
], ids=["not_utf8", "no_reserved_tokens", "duplicate_token", "huge_id"])
def test_vocab_load_fault_is_data_error_naming_the_file(tmp_path, blob, match):
    p = tmp_path / "vocab.tsv"
    p.write_bytes(blob)
    with pytest.raises(DataError, match=match) as exc:
        Vocabulary.load(p)
    assert str(p) in str(exc.value)


_VOCAB_LINES = st.lists(
    st.tuples(st.sampled_from(RESERVED_TOKENS + ("a", "b")) | st.text(max_size=4),
              st.integers(-1, 11).map(str) | st.text(max_size=4))
    .map(lambda pair: "\t".join(pair)) | st.text(max_size=6), max_size=12)


@given(lines=_VOCAB_LINES, reserved=st.booleans(), raw=st.none() | st.binary(max_size=40))
def test_vocab_load_fuzzed_file_loads_or_is_data_error(tmp_path_factory, lines, reserved,
                                                        raw):
    """Arbitrary bytes (raw), or fuzzed token<TAB>id lines after the reserved
    ones, load or are a DataError."""
    head = [f"{t}\t{i}" for i, t in enumerate(RESERVED_TOKENS)] if reserved else []
    p = tmp_path_factory.mktemp("fuzz") / "vocab.tsv"
    p.write_bytes(raw if raw is not None else "\n".join(head + lines).encode("utf-8"))
    try:
        v = Vocabulary.load(p)
    except DataError as exc:
        assert str(p) in str(exc)
    else:
        assert tuple(v.id_to_token[:len(RESERVED_TOKENS)]) == RESERVED_TOKENS


def test_load_template_non_utf8_is_template_error_naming_the_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(GOOD_TEMPLATE.encode("utf-8") + b"\xff\n")
    with pytest.raises(TemplateError, match="not UTF-8") as exc:
        instruct.load_template(p)
    assert str(p) in str(exc.value)


_TEMPLATE_LINES = st.lists(
    st.sampled_from(["[TASK]", "[OPT]", "[QUE]", "[RESP]", " [QUE] ", "Title: {TITLE}", ""])
    | st.text(max_size=12), max_size=10)


@given(lines=_TEMPLATE_LINES, raw=st.none() | st.binary(max_size=40))
def test_load_template_fuzzed_file_loads_or_is_template_error(tmp_path_factory, lines, raw):
    """Arbitrary bytes (raw), or lines mixing section headers and text, load
    or are a TemplateError."""
    p = tmp_path_factory.mktemp("fuzz") / "t.txt"
    p.write_bytes(raw if raw is not None else "\n".join(lines).encode("utf-8"))
    try:
        template = instruct.load_template(p)
    except TemplateError:
        return
    try:
        render_prompt(template, "Merkel visits Oslo")
    except TemplateError:
        pass


@given(_TOKEN_TEXT | st.text())
@example("0 _")  # a lone underscore is a word token, not punctuation to glue on
@example("İstanbul visits")  # str.lower gives i plus a combining dot
def test_decode_of_encode_is_stable(text):
    v = Vocabulary.build([text], min_count=1)
    once = v.decode(v.encode(text))
    twice = v.decode(v.encode(once))
    assert once == twice


@given(_TOKEN_TEXT | st.text())
@example("İstanbul")
def test_every_token_splits_to_itself(text):
    for tok in split_tokens(text):
        assert split_tokens(tok) == [tok]


def test_build_vocab_covers_prompts_and_rationales(toy_corpus, template):
    samples = toy_corpus[:20]
    texts = [render_prompt(template, s.title) for s in samples]
    texts += [f"<think>{s.cot.think}</think><answer>{s.cot.answer}</answer>"
              for s in samples]
    v = instruct.build_vocab(samples, template)
    assert v.id_to_token == Vocabulary.build(texts).id_to_token
    assert "[image]" in v.token_to_id and "human_crafted" in v.token_to_id
    capped = instruct.build_vocab(samples, template, min_count=1, max_size=20)
    assert len(capped) == 20


def _reference_build_vocab(samples, template, min_count=2, max_size=8192):
    """build_vocab as one formatted text per target: the think of an accepted
    note as stored, unstripped, in an always-kept think block, then the label."""
    texts = []
    for s in samples:
        texts.append(render_prompt(template, s.title))
        think = s.cot.think if s.cot is not None and s.cot.verdict == "accepted" else ""
        texts.append(f"<think>{think}</think><answer>{s.label.value}</answer>")
    return Vocabulary.build(texts, min_count=min_count, max_size=max_size)


_PADDING = st.sampled_from(["", " ", "  ", "\n", "\t ", "\u3000", "\x1c"])
# Empty, whitespace-only, and marker-rich text with whitespace around it.
_RATIONALE_PART = _PADDING | st.tuples(_PADDING, _TOKEN_TEXT, _PADDING).map("".join)
_VERDICT = st.sampled_from(["accepted", "rejected:answer_label_mismatch",
                            "rejected:transport", "rejected:think_too_short"])


@given(parts=st.lists(st.tuples(_RATIONALE_PART, _RATIONALE_PART, _VERDICT),
                      min_size=1, max_size=6),
       min_count=st.integers(1, 2))
def test_build_vocab_matches_the_unstripped_reference(toy_corpus, template, parts,
                                                      min_count):
    samples = [dataclasses.replace(s, cot=CotNote(*note))
               for s, note in zip(toy_corpus, parts)]
    got = instruct.build_vocab(samples, template, min_count=min_count)
    want = _reference_build_vocab(samples, template, min_count=min_count)
    assert got.id_to_token == want.id_to_token


def test_build_vocab_skips_missing_rationale(toy_corpus, template):
    bare = [dataclasses.replace(s, cot=None) for s in toy_corpus[:20]]
    v = instruct.build_vocab(bare, template, min_count=1)
    assert "[image]" not in v.token_to_id
    assert all(t in v.token_to_id for t in split_tokens(render_prompt(template, bare[0].title)))

"""Entity extraction, rationale schema parsing, quality gate, gen clients."""

import io
import json

import numpy as np
import pytest
import requests
from hypothesis import given, strategies as st

from umfdet import cot
from umfdet.cot import (
    CotRecord,
    Entity,
    EntitySet,
    Gazetteer,
    HttpGenClient,
    MockGenClient,
    build_cot_prompt,
    default_gazetteer,
    extract_entities,
    generate_corpus_cots,
    generate_with_qc,
    parse_cot,
    validate_cot,
)
from umfdet.data import Category, ImagePayload, ManipulationAnnotation, NewsSample
from umfdet.errors import ConfigError, TransportError

from helpers import JSON_VALUES


def _sample(title="Merkel visits the bright harbor in Oslo on Friday",
            label=Category.REAL) -> NewsSample:
    ann = ManipulationAnnotation()
    if label is not Category.REAL:
        ann = ManipulationAnnotation(kind="full_generation")
    return NewsSample(id="s-0", title=title, image=ImagePayload(feat=np.zeros((2, 4))),
                      label=label, annotation=ann)


# ---------------------------------------------------------------------------
# gazetteer


def test_gazetteer_from_tsv_and_lookup():
    tsv = io.StringIO(
        "# comment line\n"
        "Obama\tperson\tObama is a former head of state\n"
        "New York\tlocation\n"
        "\n"
        "Monday\tevent_time\tMonday is a weekday\n")
    g = Gazetteer.from_tsv(tsv)
    assert "obama" in g and "OBAMA" in g and "New York" in g
    assert g.kind_of("new york") == "location"
    assert g.description_of("Obama") == "Obama is a former head of state"
    assert g.description_of("New York") is None
    assert g.max_words == 2


def test_gazetteer_rejects_bad_rows():
    with pytest.raises(ConfigError):
        Gazetteer({"Obama": "celebrity"})
    with pytest.raises(ConfigError):
        Gazetteer.from_tsv(io.StringIO("just-a-surface\n"))


def test_default_gazetteer_has_core_entries():
    g = default_gazetteer()
    for surface, kind in (("Obama", "person"), ("Berlin", "location"),
                          ("NATO", "organization"), ("Monday", "event_time")):
        assert surface in g
        assert g.kind_of(surface) == kind


# ---------------------------------------------------------------------------
# entity extraction


def test_extract_entities_gazetteer_multiword_longest_match():
    g = Gazetteer({"New York": "location", "York": "location", "Obama": "person"})
    m = extract_entities("Obama lands in New York today", g)
    assert [(e.surface, e.kind) for e in m.entities] == [
        ("Obama", "person"), ("New York", "location")]


def test_extract_entities_cap_heuristic_mid_sentence_only():
    g = Gazetteer({"Berlin": "location"})
    m = extract_entities("Yesterday Snorkelwhistle toured Berlin", g)
    surfaces = m.surfaces()
    # sentence-initial "Yesterday" is skipped, unknown mid-sentence cap is a person
    assert "Yesterday" not in surfaces
    assert ("Snorkelwhistle", "person") in [(e.surface, e.kind) for e in m.entities]
    assert ("Berlin", "location") in [(e.surface, e.kind) for e in m.entities]


def test_extract_entities_gazetteer_hits_at_sentence_start():
    g = Gazetteer({"Berlin": "location"})
    m = extract_entities("Berlin hosts a fair. Berlin wins praise", g)
    assert m.surfaces() == ["Berlin"]  # found despite offset 0, deduped


def test_extract_entities_skips_stopwords_and_lowercase():
    g = Gazetteer({"Oslo": "location"})
    m = extract_entities("officials said The plan for Oslo holds", g)
    assert m.surfaces() == ["Oslo"]


def test_extract_entities_descriptions():
    g = Gazetteer({"Obama": "person", "Monday": "event_time"},
                  {"Obama": "Obama is a former head of state"})
    m = extract_entities("word Obama met aides on Monday", g)
    assert m.descriptions["Obama"] == "Obama is a former head of state"
    assert m.descriptions["Monday"] == "Monday is a known event or time"


def _reference_extract_entities(title, gazetteer):
    """extract_entities before the first-word index: every phrase width is
    tried at every token. Kept as the reference the indexed lookup must match."""
    tokens = [(m.group(0), m.start()) for m in cot._WORD.finditer(title)]
    initial = cot._sentence_initial_offsets(title)
    found, seen = [], set()
    i = 0
    while i < len(tokens):
        entity = None
        step = 1
        for width in range(min(gazetteer.max_words, len(tokens) - i), 0, -1):
            first, last = tokens[i], tokens[i + width - 1]
            phrase = title[first[1]:last[1] + len(last[0])]
            if " ".join(t[0] for t in tokens[i:i + width]) == phrase and phrase in gazetteer:
                entity = Entity(phrase, gazetteer.kind_of(phrase))
                step = width
                break
        if entity is None:
            word, off = tokens[i]
            if (word[0].isupper() and off not in initial
                    and word.lower() not in cot._CAP_STOPWORDS):
                entity = Entity(word, "person")
        if entity is not None and entity.surface.lower() not in seen:
            seen.add(entity.surface.lower())
            found.append(entity)
        i += step
    descriptions = {}
    for e in found:
        desc = gazetteer.description_of(e.surface)
        descriptions[e.surface] = desc or f"{e.surface} is a known {e.kind.replace('_', ' or ')}"
    return EntitySet(entities=found, descriptions=descriptions)


_CUSTOM_GAZETTEER = Gazetteer(
    {"New York": "location", "York": "location", "New York City Hall": "location",
     "O'Neill": "person", "Saint-Denis": "location", "the Hague": "location",
     "United Nations General Assembly": "organization", "Monday": "event_time"},
    {"New York": "largest city in the United States"})
# Every key, each of its leading word runs, and each of its words on its own.
_GAZETTEER_WORDS = sorted({piece for g in (default_gazetteer(), _CUSTOM_GAZETTEER)
                           for key in g._entries
                           for piece in [" ".join(key.split(" ")[:n])
                                         for n in range(1, len(key.split(" ")) + 1)]
                           + key.split(" ")})
_OTHER_WORDS = ["the", "said", "visits", "Breaking", "Yesterday", "Snorkelwhistle",
                "don't", "well-known", "it's", "UN", "new", "hall"]
_CASES = [str, str.lower, str.upper, str.title, str.swapcase]
_SEPARATORS = [" ", " ", " ", "  ", ", ", ". ", "! ", "? ", ": ", "-", "'", " - "]


@given(parts=st.lists(st.tuples(st.sampled_from(_GAZETTEER_WORDS + _OTHER_WORDS),
                                st.sampled_from(_CASES), st.sampled_from(_SEPARATORS)),
                      max_size=14),
       gazetteer=st.sampled_from([default_gazetteer(), _CUSTOM_GAZETTEER]))
def test_extract_entities_matches_the_unindexed_width_walk(parts, gazetteer):
    title = "".join(case(word) + sep for word, case, sep in parts).strip()
    got, want = extract_entities(title, gazetteer), _reference_extract_entities(title, gazetteer)
    assert got.entities == want.entities
    assert got.descriptions == want.descriptions


def test_gazetteer_first_words_index_the_lowercase_first_word_of_each_key():
    assert _CUSTOM_GAZETTEER.first_words == {
        "new", "york", "o'neill", "saint-denis", "the", "united", "monday"}


def test_entity_set_basics():
    empty = EntitySet()
    assert not empty and len(empty) == 0
    one = EntitySet(entities=[Entity("Oslo", "location")])
    assert one and one.surfaces() == ["Oslo"]


# ---------------------------------------------------------------------------
# schema parsing


GOOD_RAW = ("<think>Scene matches the caption [image]. Wording stays factual "
            "around Merkel with no rewrite cues [text]. Looks authentic "
            "overall.</think><answer>real</answer>")


def test_parse_cot_accepts_strict_schema():
    rec = parse_cot(GOOD_RAW)
    assert rec.verdict == "parsed"
    assert rec.answer == "real"
    assert rec.grounded_image_span == "Scene matches the caption [image]."
    assert "[text]" in rec.grounded_text_span
    assert rec.think.startswith("Scene matches")


def test_parse_cot_tolerates_surrounding_whitespace():
    rec = parse_cot("  \n" + GOOD_RAW + "\n ")
    assert rec.verdict == "parsed"


@pytest.mark.parametrize("raw,reason", [
    ("no tags at all", "missing_block"),
    ("<think>x</think>", "missing_block"),
    ("<answer>real</answer>", "missing_block"),
    ("<think>x</think><think>y</think><answer>real</answer>", "duplicate_block"),
    ("<think>x</think><answer>a</answer><answer>b</answer>", "duplicate_block"),
    ("<think>x<answer>real</answer>", "unclosed_tag"),
    ("<think>x</think><answer>real", "unclosed_tag"),
    ("<think>x</think><answer>real</answer> trailing", "trailing_garbage"),
    ("prefix <think>x</think><answer>real</answer>", "trailing_garbage"),
    ("<answer>real</answer><think>x</think>", "trailing_garbage"),
    ("<think>x</think> gap <answer>real</answer>", "trailing_garbage"),
])
def test_parse_cot_reject_reasons(raw, reason):
    rec = parse_cot(raw)
    assert rec.verdict == "rejected"
    assert rec.reject_reason == reason


@given(st.text(max_size=300))
def test_parse_cot_never_raises(raw):
    rec = parse_cot(raw)
    assert rec.verdict in ("parsed", "rejected")
    if rec.verdict == "rejected":
        assert rec.reject_reason in ("missing_block", "duplicate_block",
                                     "unclosed_tag", "trailing_garbage")


# ---------------------------------------------------------------------------
# quality gate


def _gaz():
    return Gazetteer({"Merkel": "person", "Oslo": "location", "Friday": "event_time"})


def _think(n_filler: int) -> str:
    # n_filler lowercase words, then the two marker sentences (2 word tokens)
    return " ".join(f"w{i}" for i in range(n_filler)) + " [image]. [text]."


def test_validate_cot_accepts_and_cites():
    rec = validate_cot(parse_cot(GOOD_RAW), _sample(), extract_entities(
        _sample().title, _gaz()), gazetteer=_gaz())
    assert rec.accepted and rec.reject_reason is None
    assert rec.cited_entities == ["Merkel"]
    assert rec.to_note().verdict == "accepted"


def test_validate_cot_keeps_prior_rejection():
    rec = validate_cot(parse_cot("garbage"), _sample(), EntitySet(), gazetteer=_gaz())
    assert rec.reject_reason == "missing_block"


@pytest.mark.parametrize("think,answer,reason", [
    ("w " * 30 + "[text].", "real", "missing_grounded_span"),
    ("w " * 30 + "[image].", "real", "missing_grounded_span"),
    (_think(30), "maybe", "invalid_answer"),
    (_think(30), "human_crafted", "answer_label_mismatch"),
    (_think(9), "real", "think_too_short"),      # 11 tokens
    (_think(159), "real", "think_too_long"),     # 161 tokens
    (_think(30)[:-1] + " Zorblaxian saw it.", "real", "unlinkable_entity"),
])
def test_validate_cot_reject_reasons(think, answer, reason):
    raw = f"<think>{think}</think><answer>{answer}</answer>"
    sample = _sample()
    rec = validate_cot(parse_cot(raw), sample,
                       extract_entities(sample.title, _gaz()), gazetteer=_gaz())
    assert rec.verdict == "rejected"
    assert rec.reject_reason == reason
    assert rec.to_note().verdict == f"rejected:{reason}"


def test_validate_cot_length_boundaries_inclusive():
    sample = _sample()
    m = extract_entities(sample.title, _gaz())
    for n_filler in (10, 158):  # totals 12 and 160
        raw = f"<think>{_think(n_filler)}</think><answer>real</answer>"
        rec = validate_cot(parse_cot(raw), sample, m, gazetteer=_gaz())
        assert rec.accepted, rec.reject_reason


def test_validate_cot_links_title_only_entities():
    # entity in the title but absent from the meta set still counts as linked
    sample = _sample(title="word Novakovic visits the calm harbor in Oslo")
    think = _think(28)[:-1] + " Novakovic appears composed."
    raw = f"<think>{think}</think><answer>real</answer>"
    rec = validate_cot(parse_cot(raw), sample, EntitySet(), gazetteer=_gaz())
    assert rec.accepted
    assert rec.cited_entities == ["Novakovic"]


def test_validate_cot_custom_limits(monkeypatch):
    """The gate reads its bounds from DEFAULT_THINK_RANGE, the name the
    acceptance gate test builds its cases from."""
    raw = f"<think>{_think(30)}</think><answer>real</answer>"
    sample = _sample()
    m = extract_entities(sample.title, _gaz())
    monkeypatch.setattr(cot, "DEFAULT_THINK_RANGE", (40, 60))
    rec = validate_cot(parse_cot(raw), sample, m, gazetteer=_gaz())
    assert rec.reject_reason == "think_too_short"


# ---------------------------------------------------------------------------
# prompting


def test_build_cot_prompt_sections_and_entities():
    sample = _sample(label=Category.HUMAN_CRAFTED)
    m = extract_entities(sample.title, _gaz())
    prompt = build_cot_prompt(sample, m)
    assert prompt.index("[TASK]") < prompt.index("[DEFINE]") < prompt.index("[RESP]")
    assert f"Title: {sample.title}" in prompt
    assert "Label: human_crafted" in prompt
    assert "- Merkel (person):" in prompt
    assert "[image]" in prompt and "[text]" in prompt


def test_build_cot_prompt_custom_knowledge():
    sample = _sample()
    m = extract_entities(sample.title, _gaz())
    m.descriptions["Merkel"] = "chancellor for 16 years"
    prompt = build_cot_prompt(sample, m)
    assert "- Merkel (person): chancellor for 16 years" in prompt


def test_build_cot_prompt_no_entities_omits_block():
    prompt = build_cot_prompt(_sample(title="storm hits coastal towns"), EntitySet())
    assert "Entities:" not in prompt


# ---------------------------------------------------------------------------
# mock client


@pytest.mark.parametrize("label", list(Category))
def test_mock_client_passes_qc_first_try(label):
    sample = _sample(label=label)
    rec = generate_with_qc(sample, MockGenClient(), gazetteer=_gaz())
    assert rec.accepted
    assert rec.attempts_used == 1
    assert rec.answer == label.value


def test_mock_client_rewrite_preserves_entities():
    client = MockGenClient()
    out = client.generate("Rewrite this news headline into a misleading fake version.\n"
                          "Keep these entity tokens verbatim: Merkel, Oslo\n"
                          "Headline: Merkel visits the bright harbor in Oslo")
    assert "Merkel" in out and "Oslo" in out
    out = client.generate("Rewrite this news headline into a misleading fake version.\n"
                          "Headline: storms hit the coast")
    assert out  # keep-list absent still yields a headline


# ---------------------------------------------------------------------------
# qc loop


class _ScriptedClient:
    """Replays canned outputs in order; repeats the last one when exhausted."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        i = min(self.calls - 1, len(self.outputs) - 1)
        return self.outputs[i]


def test_generate_with_qc_retries_until_accept():
    client = _ScriptedClient(["garbage", "<think>short</think><answer>real</answer>",
                              GOOD_RAW])
    rec = generate_with_qc(_sample(), client, gazetteer=_gaz())
    assert rec.accepted and rec.attempts_used == 3 and client.calls == 3


def test_generate_with_qc_exhausts_budget():
    client = _ScriptedClient(["garbage"])
    rec = generate_with_qc(_sample(), client, k_attempts=3, gazetteer=_gaz())
    assert not rec.accepted
    assert rec.attempts_used == 3
    assert rec.reject_reason == "missing_block"


def test_generate_with_qc_validates_budget():
    with pytest.raises(ConfigError):
        generate_with_qc(_sample(), MockGenClient(), k_attempts=0, gazetteer=_gaz())


def test_generate_with_qc_propagates_transport_errors():
    class Boom:
        def generate(self, prompt):
            raise TransportError("down")

    with pytest.raises(TransportError):
        generate_with_qc(_sample(), Boom(), gazetteer=_gaz())


def test_generate_corpus_cots_order_and_parallel():
    samples = [_sample(title=f"word Merkel opens the harbor in Oslo run {i}")
               for i in range(6)]
    for i, s in enumerate(samples):
        s.id = f"s-{i}"
    serial = generate_corpus_cots(samples, MockGenClient(), gazetteer=_gaz())
    parallel = generate_corpus_cots(samples, MockGenClient(), gazetteer=_gaz(),
                                    max_workers=4)
    assert [r.think for r in serial] == [r.think for r in parallel]
    assert all(r.accepted for r in serial)


class _FailsForOneTitle(MockGenClient):
    """The offline client, except that the prompt for one title fails in transport."""

    def __init__(self, title):
        self.title = title

    def generate(self, prompt):
        if self.title in prompt:
            raise TransportError("connection reset")
        return super().generate(prompt)


@pytest.mark.parametrize("workers", [1, 4])
def test_generate_corpus_cots_marks_a_transport_failure_and_goes_on(workers):
    samples = [_sample(title=f"word Merkel opens the harbor in Oslo run {i}")
               for i in range(6)]
    client = _FailsForOneTitle(samples[3].title)
    records = generate_corpus_cots(samples, client, gazetteer=_gaz(), max_workers=workers)
    assert records[3].to_note().verdict == "rejected:transport"
    plain = generate_corpus_cots(samples, MockGenClient(), gazetteer=_gaz())
    for i, (rec, ref) in enumerate(zip(records, plain)):
        if i != 3:
            assert rec.accepted and rec.think == ref.think


# ---------------------------------------------------------------------------
# http client


class _StubResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        if isinstance(self._body, str):  # raw text: decode it as requests does
            resp = requests.Response()
            resp._content, resp.encoding = self._body.encode("utf-8"), "utf-8"
            return resp.json()
        return self._body


class _StubSession:
    def __init__(self, script):
        self.script = list(script)  # responses or exceptions, in order
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers,
                              "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def test_http_client_success_payload_and_auth():
    session = _StubSession([_StubResponse(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local/v1", auth_token="tok", session=session)
    assert client.generate("hello") == "ok"
    req = session.requests[0]
    assert req["url"] == "http://gen.local/v1"
    assert req["json"] == {"prompt": "hello", "max_tokens": 512}
    assert req["timeout"] == 30.0
    assert req["headers"]["Authorization"] == "Bearer tok"


def test_http_client_omits_optional_fields():
    session = _StubSession([_StubResponse(200, {"text": "ok"})])
    HttpGenClient("http://gen.local", session=session).generate("p")
    req = session.requests[0]
    assert "model" not in req["json"]
    assert "Authorization" not in req["headers"]


def test_http_client_retries_on_5xx_then_succeeds():
    session = _StubSession([_StubResponse(503), _StubResponse(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local", retries=2, backoff=0.0, session=session)
    assert client.generate("p") == "ok"
    assert len(session.requests) == 2


def test_http_client_retries_on_connection_error():
    session = _StubSession([requests.ConnectionError("refused"),
                            _StubResponse(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local", retries=1, backoff=0.0, session=session)
    assert client.generate("p") == "ok"


def test_http_client_exhausted_retries_raise():
    session = _StubSession([_StubResponse(500)] * 3)
    client = HttpGenClient("http://gen.local", retries=2, backoff=0.0, session=session)
    with pytest.raises(TransportError, match="after 3 attempts"):
        client.generate("p")
    assert len(session.requests) == 3


def test_http_client_4xx_fails_without_retry():
    session = _StubSession([_StubResponse(404)])
    client = HttpGenClient("http://gen.local", retries=2, backoff=0.0, session=session)
    with pytest.raises(TransportError, match="404"):
        client.generate("p")
    assert len(session.requests) == 1


@pytest.mark.parametrize("body, match", [("<html>gateway</html>", "not JSON"),
                                         (["text"], "text"), ({"text": 5}, "string 'text'"),
                                         ({"text": None}, "string 'text'")])
def test_http_client_non_object_body_is_transport_error(body, match):
    session = _StubSession([_StubResponse(200, body)])
    client = HttpGenClient("http://gen.local", retries=2, backoff=0.0, session=session)
    with pytest.raises(TransportError, match=match):
        client.generate("p")
    assert len(session.requests) == 1


def test_http_client_missing_text_field():
    session = _StubSession([_StubResponse(200, {"output": "x"})])
    client = HttpGenClient("http://gen.local", session=session)
    with pytest.raises(TransportError, match="text"):
        client.generate("p")


def test_non_string_http_text_rejects_only_its_sample():
    samples = [_sample(title=f"word Merkel opens the harbor in Oslo run {i}")
               for i in range(4)]

    class Session:
        def post(self, url, json=None, headers=None, timeout=None):
            if samples[2].title in json["prompt"]:
                return _StubResponse(200, {"text": 5})
            return _StubResponse(200, {"text": MockGenClient().generate(json["prompt"])})

    client = HttpGenClient("http://gen.local", retries=0, session=Session())
    records = generate_corpus_cots(samples, client, gazetteer=_gaz())
    assert [r.to_note().verdict for r in records] == ["accepted", "accepted",
                                                      "rejected:transport", "accepted"]


_HTTP_REPLY = st.tuples(
    st.sampled_from([200, 404, 503]) | st.integers(100, 599),
    JSON_VALUES.map(json.dumps) | st.fixed_dictionaries({"text": JSON_VALUES}).map(json.dumps)
    | st.text(max_size=20))


@given(replies=st.lists(_HTTP_REPLY, min_size=3, max_size=3))
def test_http_client_fuzzed_replies_give_text_or_transport_error(replies):
    """Any status with any JSON (or non-JSON) body either yields a string or
    is a TransportError, after at most the configured attempts."""
    session = _StubSession([_StubResponse(status, body) for status, body in replies])
    client = HttpGenClient("http://gen.local", retries=2, backoff=0.0, session=session)
    try:
        assert isinstance(client.generate("p"), str)
    except TransportError:
        pass
    assert 1 <= len(session.requests) <= 3

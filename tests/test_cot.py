"""Entity extraction, rationale schema parsing, quality gate, gen clients."""

import http.client
import http.server
import io
import json
import os
import re
import subprocess
import sys
import urllib.error
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umfdet import cli, cot
from umfdet.cot import (
    CotRecord,
    Entity,
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
from umfdet.data import (Category, ImagePayload, ManipulationAnnotation, NewsSample,
                         save_manifest, synth_toy_corpus)
from umfdet.errors import ConfigError, TransportError

from helpers import JSON_VALUES, serve_loopback


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
    assert g.entries == {"obama": "person", "new york": "location", "monday": "event_time"}
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
        assert g.entries[surface.lower()] == kind


# ---------------------------------------------------------------------------
# entity extraction


def test_extract_entities_gazetteer_multiword_longest_match():
    g = Gazetteer({"New York": "location", "York": "location", "Obama": "person"})
    m = extract_entities("Obama lands in New York today", g)
    assert [(e.surface, e.kind) for e in m] == [
        ("Obama", "person"), ("New York", "location")]


def test_extract_entities_cap_heuristic_mid_sentence_only():
    g = Gazetteer({"Berlin": "location"})
    m = extract_entities("Yesterday Snorkelwhistle toured Berlin", g)
    surfaces = [e.surface for e in m]
    # sentence-initial "Yesterday" is skipped, unknown mid-sentence cap is a person
    assert "Yesterday" not in surfaces
    assert ("Snorkelwhistle", "person") in [(e.surface, e.kind) for e in m]
    assert ("Berlin", "location") in [(e.surface, e.kind) for e in m]


def test_extract_entities_gazetteer_hits_at_sentence_start():
    g = Gazetteer({"Berlin": "location"})
    m = extract_entities("Berlin hosts a fair. Berlin wins praise", g)
    assert m == [Entity("Berlin", "location")]  # found despite offset 0, deduped


def test_extract_entities_skips_stopwords_and_lowercase():
    g = Gazetteer({"Oslo": "location"})
    m = extract_entities("officials said The plan for Oslo holds", g)
    assert m == [Entity("Oslo", "location")]


def test_build_cot_prompt_describes_each_entity():
    """A gazetteer description where there is one, else one made from the kind."""
    g = Gazetteer({"Obama": "person", "Monday": "event_time"},
                  {"Obama": "Obama is a former head of state"})
    sample = _sample(title="word Obama met aides on Monday")
    lines = build_cot_prompt(sample, extract_entities(sample.title, g), g).splitlines()
    assert "- Obama (person): Obama is a former head of state" in lines
    assert "- Monday (event_time): Monday is a known event or time" in lines


_REF_WORD = re.compile(r"[A-Za-z][A-Za-z'\-]*")
_REF_CAP_STOPWORDS = {"the", "a", "an", "this", "that", "these", "those", "it",
                      "he", "she", "they", "we", "i", "you", "breaking"}


def _reference_sentence_initial_offsets(text):
    starts = {0}
    for m in re.finditer(r"[.!?:]\s+", text):
        starts.add(m.end())
    return starts


def _reference_extract_entities(title, gazetteer):
    """extract_entities before the first-word index: every phrase width is
    tried at every token. Kept as the reference the indexed lookup must match;
    it shares no tokenizer, stopword list or sentence finder with cot.
    Returns the entities and each one's description."""
    tokens = [(m.group(0), m.start()) for m in _REF_WORD.finditer(title)]
    initial = _reference_sentence_initial_offsets(title)
    found, seen = [], set()
    i = 0
    while i < len(tokens):
        entity = None
        step = 1
        for width in range(min(gazetteer.max_words, len(tokens) - i), 0, -1):
            first, last = tokens[i], tokens[i + width - 1]
            phrase = title[first[1]:last[1] + len(last[0])]
            kind = gazetteer.entries.get(phrase.lower())
            if " ".join(t[0] for t in tokens[i:i + width]) == phrase and kind:
                entity = Entity(phrase, kind)
                step = width
                break
        if entity is None:
            word, off = tokens[i]
            if (word[0].isupper() and off not in initial
                    and word.lower() not in _REF_CAP_STOPWORDS):
                entity = Entity(word, "person")
        if entity is not None and entity.surface.lower() not in seen:
            seen.add(entity.surface.lower())
            found.append(entity)
        i += step
    descriptions = {}
    for e in found:
        desc = gazetteer.description_of(e.surface)
        descriptions[e.surface] = desc or f"{e.surface} is a known {e.kind.replace('_', ' or ')}"
    return found, descriptions


_CUSTOM_GAZETTEER = Gazetteer(
    {"New York": "location", "York": "location", "New York City Hall": "location",
     "O'Neill": "person", "Saint-Denis": "location", "the Hague": "location",
     "United Nations General Assembly": "organization", "Monday": "event_time"},
    {"New York": "largest city in the United States"})
# Every key, each of its leading word runs, and each of its words on its own.
_GAZETTEER_WORDS = sorted({piece for g in (default_gazetteer(), _CUSTOM_GAZETTEER)
                           for key in g.entries
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
    got = extract_entities(title, gazetteer)
    want, descriptions = _reference_extract_entities(title, gazetteer)
    assert got == want
    prompt = build_cot_prompt(_sample(title=title), got, gazetteer).splitlines()
    assert [line for line in prompt if line.startswith("- ")] == [
        f"- {e.surface} ({e.kind}): {descriptions[e.surface]}" for e in want]


def test_gazetteer_first_words_index_the_lowercase_first_word_of_each_key():
    assert _CUSTOM_GAZETTEER.first_words == {
        "new", "york", "o'neill", "saint-denis", "the", "united", "monday"}


# ---------------------------------------------------------------------------
# schema parsing


GOOD_RAW = ("<think>Scene matches the caption [image]. Wording stays factual "
            "around Merkel with no rewrite cues [text]. Looks authentic "
            "overall.</think><answer>real</answer>")


def test_parse_cot_accepts_strict_schema():
    rec = parse_cot(GOOD_RAW)
    assert rec.verdict == "parsed"
    assert rec.answer == "real"
    assert rec.think == ("Scene matches the caption [image]. Wording stays factual "
                         "around Merkel with no rewrite cues [text]. Looks authentic overall.")
    assert "[image]" in rec.think and "[text]" in rec.think


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
    assert extract_entities(rec.think, _gaz()) == [Entity("Merkel", "person")]
    assert rec.to_note().verdict == "accepted"


def test_validate_cot_keeps_prior_rejection():
    rec = validate_cot(parse_cot("garbage"), _sample(), [], gazetteer=_gaz())
    assert rec.reject_reason == "missing_block"


@pytest.mark.parametrize("think,answer,reason", [
    ("w " * 30 + "[text].", "real", "missing_grounded_span"),
    ("w " * 30 + "[image].", "real", "missing_grounded_span"),
    ("w " * 30 + "the [image] matches and so on.", "real", "missing_grounded_span"),
    ("w " * 30 + "the [text] matches with no full stop", "real", "missing_grounded_span"),
    (_think(30).replace("[image]", "[IMAGE]"), "real", "missing_grounded_span"),
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


@pytest.mark.parametrize("think", [
    "w " * 30 + "the [image] matches while the [text] agrees. Nothing else.",
    "w " * 30 + "the [image] matches while the [text] agrees with no full stop",
])
def test_validate_cot_accepts_markers_anywhere_in_a_sentence(think):
    sample = _sample()
    rec = validate_cot(parse_cot(f"<think>{think}</think><answer>real</answer>"), sample,
                       extract_entities(sample.title, _gaz()), gazetteer=_gaz())
    assert rec.accepted, rec.reject_reason


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
    rec = validate_cot(parse_cot(raw), sample, [], gazetteer=_gaz())
    assert rec.accepted
    assert extract_entities(rec.think, _gaz()) == [Entity("Novakovic", "person")]


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
    prompt = build_cot_prompt(sample, m, _gaz())
    assert prompt.index("[TASK]") < prompt.index("[DEFINE]") < prompt.index("[RESP]")
    assert f"Title: {sample.title}" in prompt
    assert "Label: human_crafted" in prompt
    assert "- Merkel (person):" in prompt
    assert "[image]" in prompt and "[text]" in prompt


def test_build_cot_prompt_custom_knowledge():
    sample = _sample()
    g = Gazetteer({"Merkel": "person", "Oslo": "location", "Friday": "event_time"},
                  {"Merkel": "chancellor for 16 years"})
    prompt = build_cot_prompt(sample, extract_entities(sample.title, g), g)
    assert "- Merkel (person): chancellor for 16 years" in prompt


def test_build_cot_prompt_no_entities_omits_block():
    prompt = build_cot_prompt(_sample(title="storm hits coastal towns"), [], _gaz())
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


class _StubReply:
    """A 2xx reply as an opener returns it; body is JSON-encoded unless it is
    raw text, and an exception body is raised while the body is read."""

    def __init__(self, status, body=None):
        self.status = status
        self._body = body

    def read(self):
        if isinstance(self._body, Exception):
            raise self._body
        if isinstance(self._body, str):
            return self._body.encode("utf-8")
        return json.dumps(self._body or {}).encode("utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class _StubOpener:
    """Plays a script of replies and exceptions in order. It records each
    urllib.request.Request, and raises HTTPError for a status outside
    200-299, as the default opener's HTTPErrorProcessor does."""

    def __init__(self, script):
        self.script = list(script)
        self.requests, self.timeouts, self.errors = [], [], []

    def open(self, request, timeout=None):
        self.requests.append(request)
        self.timeouts.append(timeout)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        if not 200 <= item.status < 300:
            err = urllib.error.HTTPError(request.full_url, item.status, "stub", {},
                                         io.BytesIO(item.read()))
            self.errors.append(err)
            raise err
        return item


def _sent(request):
    """The JSON body of a recorded request."""
    return json.loads(request.data)


def test_http_stack_is_stdlib_and_loaded_only_when_a_client_is_built(tmp_path, gen_server,
                                                                     monkeypatch):
    """With requests made unimportable, importing the CLI loads neither
    http.client nor urllib.request, and cot-gen over loopback HTTP writes
    what cot-gen --mock writes."""
    url, _ = gen_server
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    manifest, mock_out = tmp_path / "toy.jsonl", tmp_path / "mock" / "cots.jsonl"
    save_manifest(synth_toy_corpus(30, 0.9, seed=0), manifest)
    assert cli.main(["cot-gen", "--manifest", str(manifest), "--mock",
                     "--out", str(mock_out)]) == 0
    src = Path(cot.__file__).resolve().parents[1]
    code = ("import sys\n"
            "sys.modules['requests'] = None  # any import of requests now fails\n"
            "from umfdet import cli\n"
            "loaded = [m for m in ('http.client', 'urllib.request') if m in sys.modules]\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(loaded, status, 'urllib.request' in sys.modules, sys.modules['requests'])\n")
    env = {**os.environ, "PYTHONPATH": str(src), cli.ENDPOINT_ENV: url}
    http_out = tmp_path / "http" / "cots.jsonl"
    out = subprocess.run([sys.executable, "-c", code, "cot-gen", "--manifest", str(manifest),
                          "--out", str(http_out)], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.splitlines()[-1] == "[] 0 True None"
    assert http_out.read_bytes() == mock_out.read_bytes()


def test_http_client_success_payload_and_auth():
    opener = _StubOpener([_StubReply(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local/v1", auth_token="tok", opener=opener)
    assert client.generate("hello") == "ok"
    req = opener.requests[0]
    assert req.full_url == "http://gen.local/v1"
    assert req.get_method() == "POST"
    assert _sent(req) == {"prompt": "hello", "max_tokens": 512}
    assert opener.timeouts[0] == 30.0
    assert req.get_header("Content-type") == "application/json"
    assert req.get_header("Authorization") == "Bearer tok"


def test_http_client_omits_optional_fields():
    opener = _StubOpener([_StubReply(200, {"text": "ok"})])
    HttpGenClient("http://gen.local", opener=opener).generate("p")
    req = opener.requests[0]
    assert "model" not in _sent(req)
    assert not req.has_header("Authorization")
    assert "Authorization" not in dict(req.header_items())


@pytest.fixture()
def slept(monkeypatch):
    """The backoff waits the client asks for, none of them taken."""
    waits = []
    monkeypatch.setattr(cot.time, "sleep", waits.append)
    return waits


def test_http_client_retries_on_5xx_then_succeeds(slept):
    opener = _StubOpener([_StubReply(503), _StubReply(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local", opener=opener)
    assert client.generate("p") == "ok"
    assert len(opener.requests) == 2
    assert slept == [cot.HTTP_BACKOFF_S]
    assert [err.fp.closed for err in opener.errors] == [True]


def test_http_client_retries_on_connection_error(slept):
    opener = _StubOpener([urllib.error.URLError(ConnectionRefusedError("refused")),
                          _StubReply(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local", opener=opener)
    assert client.generate("p") == "ok"


@pytest.mark.parametrize("failure", [http.client.IncompleteRead(b'{"te', 20),
                                     TimeoutError("timed out")], ids=type)
def test_http_client_retries_when_reading_the_body_fails(slept, failure):
    opener = _StubOpener([_StubReply(200, failure), _StubReply(200, {"text": "ok"})])
    client = HttpGenClient("http://gen.local", opener=opener)
    assert client.generate("p") == "ok"
    assert len(opener.requests) == 2
    assert slept == [cot.HTTP_BACKOFF_S]


def test_http_client_exhausted_retries_raise(slept):
    opener = _StubOpener([_StubReply(500)] * (cot.HTTP_RETRIES + 1))
    client = HttpGenClient("http://gen.local", opener=opener)
    with pytest.raises(TransportError, match=f"after {cot.HTTP_RETRIES + 1} attempts"):
        client.generate("p")
    assert len(opener.requests) == cot.HTTP_RETRIES + 1
    assert slept == [cot.HTTP_BACKOFF_S * 2 ** i for i in range(cot.HTTP_RETRIES)]


def test_http_client_4xx_fails_without_retry():
    opener = _StubOpener([_StubReply(404)])
    client = HttpGenClient("http://gen.local", opener=opener)
    with pytest.raises(TransportError, match="404"):
        client.generate("p")
    assert len(opener.requests) == 1


@pytest.mark.parametrize("code", [302, 307])
def test_http_client_sends_its_token_to_no_redirect_target(slept, code):
    """Over loopback: a 302 is followed as a GET that carries no token; a 307
    is not followed and, like any other status below 500, is not retried."""
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def reply(self):
            seen.append((self.command, self.path, self.headers["Authorization"]))
            self.send_response(code if self.path == "/old" else 404)
            self.send_header("Location", "/new")
            self.send_header("Content-Length", "0")
            self.end_headers()

        do_GET = do_POST = reply

        def log_message(self, format, *args):
            pass

    with serve_loopback(Handler) as url:
        client = HttpGenClient(f"{url}/old", auth_token="tok")
        with pytest.raises(TransportError, match=str(404 if code == 302 else code)):
            client.generate("p")
    followed = [("GET", "/new", None)] if code == 302 else []
    assert seen == [("POST", "/old", "Bearer tok")] + followed
    assert slept == []


@pytest.mark.parametrize("body, match", [("<html>gateway</html>", "not JSON"),
                                         (["text"], "text"), ({"text": 5}, "string 'text'"),
                                         ({"text": None}, "string 'text'")])
def test_http_client_non_object_body_is_transport_error(body, match):
    opener = _StubOpener([_StubReply(200, body)])
    client = HttpGenClient("http://gen.local", opener=opener)
    with pytest.raises(TransportError, match=match):
        client.generate("p")
    assert len(opener.requests) == 1


def test_http_client_missing_text_field():
    opener = _StubOpener([_StubReply(200, {"output": "x"})])
    client = HttpGenClient("http://gen.local", opener=opener)
    with pytest.raises(TransportError, match="text"):
        client.generate("p")


def test_non_string_http_text_rejects_only_its_sample():
    samples = [_sample(title=f"word Merkel opens the harbor in Oslo run {i}")
               for i in range(4)]

    class Opener:
        def open(self, request, timeout=None):
            prompt = _sent(request)["prompt"]
            if samples[2].title in prompt:
                return _StubReply(200, {"text": 5})
            return _StubReply(200, {"text": MockGenClient().generate(prompt)})

    client = HttpGenClient("http://gen.local", opener=Opener())
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
    is a TransportError, after at most HTTP_RETRIES + 1 attempts."""
    opener = _StubOpener([_StubReply(status, body) for status, body in replies])
    client = HttpGenClient("http://gen.local", opener=opener)
    with mock.patch.object(cot.time, "sleep"):
        try:
            assert isinstance(client.generate("p"), str)
        except TransportError:
            pass
    assert 1 <= len(opener.requests) <= cot.HTTP_RETRIES + 1

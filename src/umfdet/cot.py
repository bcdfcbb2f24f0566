"""Attribution chain-of-thought pipeline.

Stage 1 extracts meta entities from the title (gazetteer lookup plus a
capitalized-token heuristic). Stage 2 prompts a pluggable text-generation
client for a rationale in the strict ``<think>...</think><answer>...</answer>``
schema, then a lightweight quality gate checks grounding, answer/label
agreement, rationale length and entity linkage, regenerating up to K times
before giving up on a sample.

A rationale is grounded when it holds both the ``[image]`` and the ``[text]``
marker, which the prompt asks the generator to put on its grounded sentences.
"""

from __future__ import annotations

import functools
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

from .data import CATEGORY_NAMES, Category, CotNote, NewsSample, template_cot
from .errors import ConfigError, TransportError

ENTITY_KINDS = ("person", "location", "organization", "event_time")
DEFAULT_THINK_RANGE = (12, 160)  # accepted rationale length in tokens, inclusive
DEFAULT_ATTEMPTS = 3
HTTP_MAX_TOKENS = 512
HTTP_TIMEOUT_S = 30.0
HTTP_RETRIES = 2      # further attempts after a transport failure or a 5xx reply
HTTP_BACKOFF_S = 0.5  # the wait before retry i is HTTP_BACKOFF_S * 2 ** (i - 1)

_WORD = re.compile(r"[A-Za-z][A-Za-z'\-]*")
_WORD_SPLIT = re.compile(f"({_WORD.pattern})")
_SENTENCE_END = re.compile(r"[.!?:]\s+\Z")  # a separator that ends a sentence
_CAP_STOPWORDS = {"the", "a", "an", "this", "that", "these", "those", "it",
                  "he", "she", "they", "we", "i", "you", "breaking"}


# ---------------------------------------------------------------------------
# entities


@dataclass(frozen=True)
class Entity:
    surface: str
    kind: str


def tsv_rows(fh, table: str, layout: str) -> list:
    """The tab-separated fields of each row of an open text file, skipping
    blank and ``#`` lines; a row with fewer than two fields is a ConfigError
    naming the table and the layout it needs."""
    rows = []
    for line in fh.read().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ConfigError(f"{table} line needs {layout}: {line!r}")
        rows.append(parts)
    return rows


class Gazetteer:
    """Case-insensitive surface -> (kind, description) lookup; keys may be
    multi-word phrases. ``entries`` maps each lowercase surface to its kind;
    ``first_words`` holds each key's lowercase first word, so a lookup can
    skip tokens that start no key."""

    def __init__(self, entries, descriptions=None):
        self.entries = {}
        for surface, kind in entries.items():
            if kind not in ENTITY_KINDS:
                raise ConfigError(f"gazetteer kind {kind!r} for {surface!r} not in {ENTITY_KINDS}")
            self.entries[surface.lower()] = kind
        self._descriptions = {s.lower(): desc for s, desc in (descriptions or {}).items()}
        self.max_words = max((len(k.split()) for k in self.entries), default=1)
        self.first_words = {k.split(" ", 1)[0] for k in self.entries}

    def description_of(self, surface):
        return self._descriptions.get(surface.lower())

    @classmethod
    def from_tsv(cls, fh):
        """Load ``surface<TAB>kind[<TAB>description]`` lines from an open
        text file."""
        entries, descriptions = {}, {}
        for parts in tsv_rows(fh, "gazetteer", "surface<TAB>kind"):
            entries[parts[0]] = parts[1]
            if len(parts) > 2 and parts[2]:
                descriptions[parts[0]] = parts[2]
        return cls(entries, descriptions)


@functools.cache
def default_gazetteer() -> Gazetteer:
    """The packaged gazetteer, read once per process; callers only read it."""
    ref = resources.files("umfdet").joinpath("gazetteers/default.tsv")
    with ref.open("r", encoding="utf-8") as fh:
        return Gazetteer.from_tsv(fh)


def extract_entities(title: str, gazetteer: Gazetteer) -> list[Entity]:
    """Gazetteer lookup (longest phrase first) plus a capitalized-token
    heuristic for unknown mid-sentence names; deterministic, set semantics.

    Only candidate tokens are visited: those whose lowercase form is the first
    word of a gazetteer key, and capitalized non-stopwords. A phrase can
    match only when it is its tokens joined by single spaces, so its
    lowercase form is their lowercase forms joined the same way; the tokens
    are ASCII, so one str.lower over them all lowers each as it would alone.
    A token starts a sentence when it opens the title or follows sentence
    punctuation and whitespace.
    """
    parts = _WORD_SPLIT.split(title)  # separator, token, separator, ..., separator
    words = parts[1::2]
    lowers = " ".join(words).lower().split(" ")
    first, entries = gazetteer.first_words, gazetteer.entries
    found = []
    seen = set()
    end = 0  # tokens before end belong to a phrase already matched
    for i in [i for i, (word, low) in enumerate(zip(words, lowers))
              if low in first or (word[0].isupper() and low not in _CAP_STOPWORDS)]:
        if i < end:
            continue
        word, low, entity = words[i], lowers[i], None
        if low in first:
            span = 1
            while (span < gazetteer.max_words and i + span < len(words)
                   and parts[2 * (i + span)] == " "):
                span += 1
            for width in range(span, 0, -1):
                key = " ".join(lowers[i:i + width])
                if key in entries:
                    entity = Entity(" ".join(words[i:i + width]), entries[key])
                    end = i + width
                    break
        if (entity is None and word[0].isupper() and low not in _CAP_STOPWORDS
                and (i or parts[0]) and not _SENTENCE_END.search(parts[2 * i])):
            entity, key = Entity(word, "person"), low
        if entity is not None and key not in seen:
            seen.add(key)
            found.append(entity)
    return found


# ---------------------------------------------------------------------------
# record + schema parsing


@dataclass
class CotRecord:
    think: str = ""
    answer: str = ""
    attempts_used: int = 0
    verdict: str = "rejected"
    reject_reason: str | None = None
    error: str = ""        # the transport error of a rejected:transport record

    @property
    def accepted(self):
        return self.verdict == "accepted"

    def to_note(self) -> CotNote:
        verdict = self.verdict if self.accepted else f"rejected:{self.reject_reason}"
        return CotNote(think=self.think, answer=self.answer, verdict=verdict)


def _rejected(reason, **kw):
    return CotRecord(verdict="rejected", reject_reason=reason, **kw)


def parse_cot(raw: str) -> CotRecord:
    """Strict schema: optional whitespace, one think block, one answer block,
    optional whitespace, nothing else."""
    counts = {tag: raw.count(tag) for tag in ("<think>", "</think>", "<answer>", "</answer>")}
    if any(c > 1 for c in counts.values()):
        return _rejected("duplicate_block")
    if counts["<think>"] != counts["</think>"] or counts["<answer>"] != counts["</answer>"]:
        return _rejected("unclosed_tag")
    if counts["<think>"] == 0 or counts["<answer>"] == 0:
        return _rejected("missing_block")
    m = re.fullmatch(r"\s*<think>(.*?)</think>\s*<answer>(.*?)</answer>\s*", raw, re.DOTALL)
    if not m:
        return _rejected("trailing_garbage")
    return CotRecord(think=m.group(1).strip(), answer=m.group(2).strip(), verdict="parsed")


def _think_tokens(text):
    return re.findall(r"[\w']+", text)


def validate_cot(rec: CotRecord, sample: NewsSample, entities: list[Entity],
                 gazetteer: Gazetteer | None = None) -> CotRecord:
    """Quality gate over a parsed record; the verdict captures any failure.

    Accepts only when the rationale holds both the ``[image]`` and the
    ``[text]`` marker, the answer is a valid category equal to the sample
    label, the rationale length is inside DEFAULT_THINK_RANGE and every
    entity the rationale mentions is one of the title's entities or appears
    in the title.
    """
    if rec.verdict == "rejected":
        return rec
    answer = rec.answer.strip().lower()
    lo, hi = DEFAULT_THINK_RANGE
    reason = None
    if "[image]" not in rec.think or "[text]" not in rec.think:
        reason = "missing_grounded_span"
    elif answer not in CATEGORY_NAMES:
        reason = "invalid_answer"
    elif answer != sample.label.value:
        reason = "answer_label_mismatch"
    elif (n_tokens := len(_think_tokens(rec.think))) < lo:
        reason = "think_too_short"
    elif n_tokens > hi:
        reason = "think_too_long"
    else:
        known = {e.surface.lower() for e in entities}
        if not all(e.surface.lower() in known
                   or re.search(rf"\b{re.escape(e.surface)}\b", sample.title)
                   for e in extract_entities(rec.think, gazetteer or default_gazetteer())):
            reason = "unlinkable_entity"
    rec.verdict, rec.reject_reason = ("rejected", reason) if reason else ("accepted", None)
    return rec


# ---------------------------------------------------------------------------
# prompting


def build_cot_prompt(sample: NewsSample, entities: list[Entity], gazetteer: Gazetteer) -> str:
    """Render the rationale-generation prompt; the annotated label is spelled
    out so the generated reasoning stays consistent with it, and each entity
    carries its gazetteer description, or else one made from its kind."""
    lines = [
        "[TASK]",
        "Given the news image and title, explain step by step why this news belongs "
        "to its annotated category, grounding each step in visual and textual evidence.",
        f"Title: {sample.title}",
        f"Label: {sample.label.value}",
    ]
    if entities:
        lines.append("Entities:")
        for e in entities:
            desc = (gazetteer.description_of(e.surface)
                    or f"{e.surface} is a known {e.kind.replace('_', ' or ')}")
            lines.append(f"- {e.surface} ({e.kind}): {desc}")
    lines += [
        "[DEFINE]",
        "Decision criteria: real news keeps image-text consistency; human_crafted "
        "misinformation shows human text rewriting or sensational framing; "
        "ai_synthesized content carries visual manipulation traces or machine text "
        "generation cues. Cite the criteria you use. Mark the sentence grounded in "
        "the image with [image] and the sentence grounded in the title with [text].",
        "[RESP]",
        "Output exactly <think>...</think><answer>...</answer> where the answer is "
        "the annotated label.",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# generation clients


class GenClient:
    """Text-generation interface: generate(prompt) -> text.

    Implementations raise TransportError for delivery failures; content
    problems are left to the downstream parse/validate gate.
    """

    def generate(self, prompt: str) -> str:
        raise NotImplementedError


class HttpGenClient(GenClient):
    """JSON-over-HTTP client: POST {"prompt", "max_tokens": HTTP_MAX_TOKENS}
    -> {"text"}, each request bounded by HTTP_TIMEOUT_S and retried up to
    HTTP_RETRIES times with exponential backoff. A malformed endpoint or
    token is a ConfigError when the client is built. opener is anything
    with ``.open(request, timeout=)`` that raises HTTPError outside 200-299.

    urllib.request is imported when a client is built, so a process that
    never builds one does not load the HTTP stack."""

    def __init__(self, endpoint: str, auth_token: str | None = None, opener=None):
        import urllib.parse
        import urllib.request
        try:
            url = urllib.parse.urlsplit(endpoint)
            url.port  # raises ValueError unless the port is absent or in 0..65535
        except ValueError:
            url = None
        if (url is None or url.scheme not in ("http", "https") or not url.hostname
                or not all("!" <= c <= "~" for c in endpoint)):
            raise ConfigError(f"endpoint must be an absolute http or https URL with a host, "
                              f"in printable ASCII without spaces, got {endpoint!r}")
        if auth_token and not all(" " <= c <= "~" for c in auth_token):
            raise ConfigError("auth token holds a control or non-ASCII character")
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.opener = opener or urllib.request.build_opener()

    def generate(self, prompt: str) -> str:
        import http.client
        import json
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            self.endpoint, method="POST", headers={"Content-Type": "application/json"},
            data=json.dumps({"prompt": prompt, "max_tokens": HTTP_MAX_TOKENS}).encode())
        if self.auth_token:  # unredirected: never sent on to where a redirect points
            request.add_unredirected_header("Authorization", f"Bearer {self.auth_token}")
        last = None
        for attempt in range(HTTP_RETRIES + 1):
            if attempt:
                time.sleep(HTTP_BACKOFF_S * 2 ** (attempt - 1))
            try:
                with self.opener.open(request, timeout=HTTP_TIMEOUT_S) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # an OSError too, so caught first
                exc.close()
                status = exc.code
            except (OSError, http.client.HTTPException) as exc:  # refused, reset, timed out
                last = exc
                continue
            if status >= 500:
                last = RuntimeError(f"server error {status}")
                continue
            if status != 200:
                raise TransportError(f"generation endpoint returned {status}")
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise TransportError(f"generation response is not JSON: {exc}") from None
            if not isinstance(body, dict) or not isinstance(body.get("text"), str):
                raise TransportError("generation response has no string 'text' field")
            return body["text"]
        raise TransportError(f"generation failed after {HTTP_RETRIES + 1} attempts: {last}")


_LABEL_LINE = re.compile(r"^Label:\s*(\S+)", re.MULTILINE)
_ENTITY_LINE = re.compile(r"^- (.+?) \((\w+)\):", re.MULTILINE)
_KEEP_LINE = re.compile(r"^Keep these entity tokens verbatim:\s*(.+)$", re.MULTILINE)


class MockGenClient(GenClient):
    """Offline deterministic stand-in: fills a fixed rationale template from
    the label and entities it reads back out of the prompt, and fabricates
    entity-preserving headlines for rewrite prompts."""

    def generate(self, prompt: str) -> str:
        if prompt.lstrip().startswith("Rewrite"):
            return self._rewrite(prompt)
        label_m = _LABEL_LINE.search(prompt)
        label = label_m.group(1) if label_m else "real"
        if label not in CATEGORY_NAMES:
            label = "real"
        entities = _ENTITY_LINE.findall(prompt)
        ent = entities[0][0] if entities else "the subject"
        return template_cot(Category(label), ent).target_text()

    def _rewrite(self, prompt: str) -> str:
        keep_m = _KEEP_LINE.search(prompt)
        kept = [s.strip() for s in keep_m.group(1).split(",")] if keep_m else []
        kept = [s for s in kept if s]
        if kept:
            return f"Sources now dispute the account of {' and '.join(kept)} entirely"
        return "Entirely fabricated account emerges overnight, insiders claim"


def generate_with_qc(sample: NewsSample, client: GenClient,
                     k_attempts: int = DEFAULT_ATTEMPTS,
                     gazetteer: Gazetteer | None = None) -> CotRecord:
    """generate -> parse -> validate loop, bounded by k_attempts.

    Returns the first accepted record, or the last rejected one with
    attempts_used == k_attempts. Content failures never raise; transport
    failures from the client do (generate_corpus_cots turns them into a
    rejected:transport record for that sample).
    """
    if k_attempts < 1:
        raise ConfigError(f"k_attempts must be >= 1, got {k_attempts}")
    gaz = gazetteer or default_gazetteer()
    entities = extract_entities(sample.title, gaz)
    prompt = build_cot_prompt(sample, entities, gaz)
    for attempt in range(1, k_attempts + 1):
        rec = parse_cot(client.generate(prompt))
        rec = validate_cot(rec, sample, entities, gazetteer=gaz)
        rec.attempts_used = attempt
        if rec.accepted:
            return rec
    return rec


def generate_corpus_cots(samples, client: GenClient, k_attempts: int = DEFAULT_ATTEMPTS,
                         gazetteer: Gazetteer | None = None, max_workers: int = 1):
    """Per-sample QC generation over a corpus; output order follows input order.
    A sample whose generation fails in transport gets a record rejected for
    reason "transport", and the other samples go on."""

    def one(sample):
        try:
            return generate_with_qc(sample, client, k_attempts, gazetteer)
        except TransportError as exc:
            return _rejected("transport", error=str(exc))

    if max_workers <= 1:
        return [one(s) for s in samples]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(one, samples))

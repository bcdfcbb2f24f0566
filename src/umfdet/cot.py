"""Attribution chain-of-thought pipeline.

Stage 1 extracts meta entities from the title (gazetteer lookup plus a
capitalized-token heuristic). Stage 2 prompts a pluggable text-generation
client for a rationale in the strict ``<think>...</think><answer>...</answer>``
schema, then a lightweight quality gate checks grounded spans, answer/label
agreement, rationale length and entity linkage, regenerating up to K times
before giving up on a sample.

Grounded spans are detected through explicit ``[image]`` / ``[text]``
sentence markers, which the prompt requests from the generator.
"""

from __future__ import annotations

import functools
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources

import requests

from .data import CATEGORY_NAMES, Category, CotNote, NewsSample, template_cot
from .errors import ConfigError, TransportError

ENTITY_KINDS = ("person", "location", "organization", "event_time")
DEFAULT_THINK_RANGE = (12, 160)  # accepted rationale length in tokens, inclusive
DEFAULT_ATTEMPTS = 3
HTTP_MAX_TOKENS = 512
HTTP_TIMEOUT_S = 30.0

_WORD = re.compile(r"[A-Za-z][A-Za-z'\-]*")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_CAP_STOPWORDS = {"the", "a", "an", "this", "that", "these", "those", "it",
                  "he", "she", "they", "we", "i", "you", "breaking"}


# ---------------------------------------------------------------------------
# entities


@dataclass(frozen=True)
class Entity:
    surface: str
    kind: str


@dataclass
class EntitySet:
    """Meta entities found in a title, with short descriptions."""
    entities: list = field(default_factory=list)
    descriptions: dict = field(default_factory=dict)

    def surfaces(self):
        return [e.surface for e in self.entities]

    def __len__(self):
        return len(self.entities)

    def __bool__(self):
        return bool(self.entities)


class Gazetteer:
    """Case-insensitive surface -> (kind, description) lookup; keys may be
    multi-word phrases. ``first_words`` holds each key's lowercase first
    word, so a lookup can skip tokens that start no key."""

    def __init__(self, entries, descriptions=None):
        self._entries = {}
        self._descriptions = {}
        for surface, kind in entries.items():
            if kind not in ENTITY_KINDS:
                raise ConfigError(f"gazetteer kind {kind!r} for {surface!r} not in {ENTITY_KINDS}")
            self._entries[surface.lower()] = kind
        for surface, desc in (descriptions or {}).items():
            self._descriptions[surface.lower()] = desc
        self.max_words = max((len(k.split()) for k in self._entries), default=1)
        self.first_words = {k.split(" ", 1)[0] for k in self._entries}

    def __contains__(self, surface):
        return surface.lower() in self._entries

    def kind_of(self, surface):
        return self._entries[surface.lower()]

    def description_of(self, surface):
        return self._descriptions.get(surface.lower())

    @classmethod
    def from_tsv(cls, fh):
        """Load ``surface<TAB>kind[<TAB>description]`` lines from an open
        text file."""
        entries, descriptions = {}, {}
        for line in fh.read().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ConfigError(f"gazetteer line needs surface<TAB>kind: {line!r}")
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


def _sentence_initial_offsets(text):
    starts = {0}
    for m in re.finditer(r"[.!?:]\s+", text):
        starts.add(m.end())
    return starts


def extract_entities(title: str, gazetteer: Gazetteer) -> EntitySet:
    """Gazetteer lookup (longest phrase first) plus a capitalized-token
    heuristic for unknown mid-sentence names; deterministic, set semantics.

    A phrase can match only when it is its tokens joined by single spaces,
    so its lowercase first word is its first token lowercased: tokens that
    start no gazetteer key skip the width walk.
    """
    tokens = [(m.group(0), m.start()) for m in _WORD.finditer(title)]
    initial = _sentence_initial_offsets(title)
    found = []
    seen = set()
    i = 0
    while i < len(tokens):
        entity = None
        step = 1
        word, off = tokens[i]
        lower = word.lower()
        if lower in gazetteer.first_words:
            for width in range(min(gazetteer.max_words, len(tokens) - i), 0, -1):
                last = tokens[i + width - 1]
                phrase = title[off:last[1] + len(last[0])]
                if " ".join(t[0] for t in tokens[i:i + width]) == phrase and phrase in gazetteer:
                    entity = Entity(phrase, gazetteer.kind_of(phrase))
                    step = width
                    break
        if (entity is None and word[0].isupper() and off not in initial
                and lower not in _CAP_STOPWORDS):
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


# ---------------------------------------------------------------------------
# record + schema parsing


@dataclass
class CotRecord:
    think: str = ""
    answer: str = ""
    grounded_image_span: str = ""
    grounded_text_span: str = ""
    cited_entities: list = field(default_factory=list)
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
    think, answer = m.group(1).strip(), m.group(2).strip()
    sentences = _SENTENCE_SPLIT.split(think)
    image_span = next((s.strip() for s in sentences if "[image]" in s), "")
    text_span = next((s.strip() for s in sentences if "[text]" in s), "")
    return CotRecord(think=think, answer=answer, grounded_image_span=image_span,
                     grounded_text_span=text_span, verdict="parsed")


def _think_tokens(text):
    return re.findall(r"[\w']+", text)


def validate_cot(rec: CotRecord, sample: NewsSample, m: EntitySet,
                 gazetteer: Gazetteer | None = None) -> CotRecord:
    """Quality gate over a parsed record; the verdict captures any failure.

    Accepts only when both grounded spans exist, the answer is a valid
    category equal to the sample label, the rationale length is inside
    DEFAULT_THINK_RANGE and every entity the rationale mentions links back
    to the meta set or the title.
    """
    if rec.verdict == "rejected":
        return rec
    if not rec.grounded_image_span or not rec.grounded_text_span:
        rec.verdict, rec.reject_reason = "rejected", "missing_grounded_span"
        return rec
    answer = rec.answer.strip().lower()
    if answer not in CATEGORY_NAMES:
        rec.verdict, rec.reject_reason = "rejected", "invalid_answer"
        return rec
    if answer != sample.label.value:
        rec.verdict, rec.reject_reason = "rejected", "answer_label_mismatch"
        return rec
    lo, hi = DEFAULT_THINK_RANGE
    n_tokens = len(_think_tokens(rec.think))
    if n_tokens < lo:
        rec.verdict, rec.reject_reason = "rejected", "think_too_short"
        return rec
    if n_tokens > hi:
        rec.verdict, rec.reject_reason = "rejected", "think_too_long"
        return rec
    gaz = gazetteer or default_gazetteer()
    mentioned = extract_entities(rec.think, gaz)
    known = {s.lower() for s in m.surfaces()}
    cited = []
    for entity in mentioned.entities:
        surface = entity.surface
        linkable = (surface.lower() in known
                    or re.search(rf"\b{re.escape(surface)}\b", sample.title))
        if not linkable:
            rec.verdict, rec.reject_reason = "rejected", "unlinkable_entity"
            return rec
        cited.append(surface)
    rec.cited_entities = cited
    rec.verdict, rec.reject_reason = "accepted", None
    return rec


# ---------------------------------------------------------------------------
# prompting


def build_cot_prompt(sample: NewsSample, m: EntitySet) -> str:
    """Render the rationale-generation prompt; the annotated label is spelled
    out so the generated reasoning stays consistent with it, and each entity
    carries its description from m."""
    lines = [
        "[TASK]",
        "Given the news image and title, explain step by step why this news belongs "
        "to its annotated category, grounding each step in visual and textual evidence.",
        f"Title: {sample.title}",
        f"Label: {sample.label.value}",
    ]
    if m:
        lines.append("Entities:")
        for e in m.entities:
            lines.append(f"- {e.surface} ({e.kind}): {m.descriptions.get(e.surface, '')}")
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
    -> {"text"}, each request bounded by HTTP_TIMEOUT_S."""

    def __init__(self, endpoint: str, auth_token: str | None = None,
                 retries: int = 2, backoff: float = 0.5, session=None):
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.retries = retries
        self.backoff = backoff
        self.session = session or requests.Session()

    def generate(self, prompt: str) -> str:
        payload = {"prompt": prompt, "max_tokens": HTTP_MAX_TOKENS}
        headers = {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        last = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = self.session.post(self.endpoint, json=payload,
                                         headers=headers, timeout=HTTP_TIMEOUT_S)
            except requests.RequestException as exc:
                last = exc
                continue
            if resp.status_code >= 500:
                last = RuntimeError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"generation endpoint returned {resp.status_code}")
            try:
                body = resp.json()
            except (ValueError, RecursionError) as exc:
                raise TransportError(f"generation response is not JSON: {exc}") from None
            if not isinstance(body, dict) or not isinstance(body.get("text"), str):
                raise TransportError("generation response has no string 'text' field")
            return body["text"]
        raise TransportError(f"generation failed after {self.retries + 1} attempts: {last}")


_LABEL_LINE = re.compile(r"^Label:\s*(\S+)", re.MULTILINE)
_ENTITY_LINE = re.compile(r"^- (.+?) \((\w+)\):", re.MULTILINE)
_TITLE_LINE = re.compile(r"^(?:Title|Headline):\s*(.+)$", re.MULTILINE)
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
    m = extract_entities(sample.title, gaz)
    prompt = build_cot_prompt(sample, m)
    rec = CotRecord()
    for attempt in range(1, k_attempts + 1):
        rec = parse_cot(client.generate(prompt))
        rec = validate_cot(rec, sample, m, gazetteer=gaz)
        rec.attempts_used = attempt
        if rec.accepted:
            return rec
    return rec


def generate_corpus_cots(samples, client: GenClient, k_attempts: int = DEFAULT_ATTEMPTS,
                         gazetteer: Gazetteer | None = None, max_workers: int = 1):
    """Per-sample QC generation over a corpus; output order follows input order.
    A sample whose generation fails in transport gets a record rejected for
    reason "transport", and the other samples go on."""
    gaz = gazetteer or default_gazetteer()

    def one(sample):
        try:
            return generate_with_qc(sample, client, k_attempts, gaz)
        except TransportError as exc:
            return _rejected("transport", error=str(exc))

    if max_workers <= 1:
        return [one(s) for s in samples]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(one, samples))

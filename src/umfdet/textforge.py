"""Fabricated-text strategies for the misinformation classes.

Two strategies produce fake titles from real ones. pure_fake_rewrite asks a
generation client for a wholesale misleading rewrite while named entities
must survive verbatim; violations trigger regeneration inside a bounded
budget. keyword_distortion is fully offline: it swaps 2-3 non-entity content
words for opposing words from a small lexicon, preferring adjective flips,
and logs every edit with its character position in the source title so the
edit is auditable and replayable.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources

from .cot import _WORD, Entity, GenClient, tsv_rows
from .errors import ConfigError, FabricationError

_POS_RANK = {"adj": 0, "verb": 1, "noun": 2}
REWRITE_ATTEMPTS = 3


@dataclass(frozen=True)
class Replacement:
    original: str
    replacement: str
    position: int  # char offset of `original` in the source title


@dataclass
class RewriteLog:
    """Audit record of one fabrication; embeds into the manifest as a dict."""
    strategy: str
    preserved_entities: list = field(default_factory=list)
    replacements: list = field(default_factory=list)
    output_title: str = ""

    def to_manifest(self) -> dict:
        return {
            "strategy": self.strategy,
            "preserved_entities": list(self.preserved_entities),
            "replacements": [
                {"original": r.original, "replacement": r.replacement, "position": r.position}
                for r in self.replacements
            ],
            "output_title": self.output_title,
        }

    @classmethod
    def from_manifest(cls, d: dict) -> "RewriteLog":
        return cls(
            strategy=d["strategy"],
            preserved_entities=list(d.get("preserved_entities", [])),
            replacements=[Replacement(r["original"], r["replacement"], r["position"])
                          for r in d.get("replacements", [])],
            output_title=d.get("output_title", ""),
        )


def apply_rewrite_log(title: str, log: RewriteLog) -> str:
    """Replay logged edits against the source title.

    For keyword distortion the result must equal output_title (the positional
    integrity contract); pure rewrites carry no positions and replay as the
    stored output.
    """
    if not log.replacements:
        return log.output_title
    out = title
    for r in sorted(log.replacements, key=lambda r: r.position, reverse=True):
        if out[r.position:r.position + len(r.original)] != r.original:
            raise FabricationError(
                f"log replay mismatch at {r.position}: expected {r.original!r}")
        out = out[:r.position] + r.replacement + out[r.position + len(r.original):]
    return out


class AntonymLexicon:
    """word -> opposing word, case-insensitive, identity mappings rejected."""

    def __init__(self, pairs):
        self._map = {}
        self._pos = {}
        for word, antonym, *rest in pairs:
            w = word.lower()
            if w == antonym.lower():
                raise ConfigError(f"identity mapping {word!r} -> {antonym!r}")
            self._map[w] = antonym.lower()
            self._pos[w] = rest[0] if rest else "adj"

    def __contains__(self, word):
        return word.lower() in self._map

    def __len__(self):
        return len(self._map)

    def antonym(self, word: str) -> str:
        return self._map[word.lower()]

    def pos_of(self, word: str) -> str:
        return self._pos[word.lower()]

    @classmethod
    def from_tsv(cls, fh) -> "AntonymLexicon":
        """Load ``word<TAB>antonym[<TAB>pos]`` lines from an open text file;
        pos defaults to adj."""
        return cls([parts[:3] for parts in tsv_rows(fh, "lexicon", "word<TAB>antonym")])


@functools.cache
def default_lexicon() -> AntonymLexicon:
    """The packaged lexicon, read once per process; callers only read it."""
    ref = resources.files("umfdet").joinpath("lexicons/antonyms.tsv")
    with ref.open("r", encoding="utf-8") as fh:
        return AntonymLexicon.from_tsv(fh)


def _match_case(replacement: str, original: str) -> str:
    if original.isupper() and len(original) > 1:
        return replacement.upper()
    if original[0].isupper():
        return replacement.capitalize()
    return replacement


def _entity_char_spans(title: str, entities: list[Entity]):
    spans = []
    for e in entities:
        for hit in re.finditer(rf"(?<!\w){re.escape(e.surface)}(?!\w)", title):
            spans.append((hit.start(), hit.end()))
    return spans


def _inside(offset, end, spans):
    return any(offset < s_end and end > s_start for s_start, s_end in spans)


def pure_fake_rewrite(title: str, entities: list[Entity],
                      gen: GenClient) -> tuple[str, RewriteLog]:
    """Wholesale misleading rewrite with verbatim entity preservation.

    The generator output is checked, not trusted: every entity surface must
    appear verbatim and the text must actually change. Violations consume
    the regeneration budget of REWRITE_ATTEMPTS; exhaustion raises
    FabricationError.
    """
    surfaces = [e.surface for e in entities]
    prompt_lines = ["Rewrite this news headline into a misleading fake version."]
    if surfaces:
        prompt_lines.append("Keep these entity tokens verbatim: " + ", ".join(surfaces))
    prompt_lines.append(f"Headline: {title}")
    prompt = "\n".join(prompt_lines)
    problem = "no output"
    for _ in range(REWRITE_ATTEMPTS):
        out = gen.generate(prompt).strip()
        missing = [s for s in surfaces
                   if not re.search(rf"(?<!\w){re.escape(s)}(?!\w)", out)]
        if missing:
            problem = f"dropped entities {missing}"
            continue
        if not out or out == title.strip():
            problem = "output identical to source"
            continue
        log = RewriteLog(strategy="pure_fake", preserved_entities=list(surfaces),
                         replacements=[], output_title=out)
        return out, log
    raise FabricationError(
        f"pure_fake rewrite failed after {REWRITE_ATTEMPTS} attempts: {problem}")


def keyword_distortion(title: str, entities: list[Entity], lexicon: AntonymLexicon,
                       rng, gen: GenClient | None = None) -> tuple[str, RewriteLog]:
    """Swap 2-3 non-entity content words for lexicon opposites.

    Candidates are title words with a lexicon entry that do not overlap any
    entity occurrence. Adjective flips are taken first, in title order. With
    fewer than two candidates the strategy cannot produce a meaningful edit
    and falls back to pure_fake_rewrite (which needs a generator).
    """
    entity_spans = _entity_char_spans(title, entities)
    candidates = []
    for hit in _WORD.finditer(title):
        word, start = hit.group(0), hit.start()
        if word in lexicon and not _inside(start, hit.end(), entity_spans):
            candidates.append((word, start))
    if len(candidates) < 2:
        if gen is None:
            raise FabricationError(
                f"only {len(candidates)} distortion candidates and no fallback generator")
        return pure_fake_rewrite(title, entities, gen)
    n = min(len(candidates), int(rng.integers(2, 4)))
    ordered = sorted(candidates,
                     key=lambda c: (_POS_RANK.get(lexicon.pos_of(c[0]), 3), c[1]))
    chosen = sorted(ordered[:n], key=lambda c: c[1])
    replacements = []
    out = title
    for word, start in reversed(chosen):
        swap = _match_case(lexicon.antonym(word), word)
        out = out[:start] + swap + out[start + len(word):]
        replacements.append(Replacement(original=word, replacement=swap, position=start))
    replacements.reverse()
    log = RewriteLog(strategy="keyword_distortion",
                     preserved_entities=[e.surface for e in entities],
                     replacements=replacements, output_title=out)
    return out, log

"""Fabricated-text strategies: rewrite logs, lexicon flips, entity safety."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umfdet.cot import Entity
from umfdet.errors import ConfigError, FabricationError
from umfdet.textforge import (
    REWRITE_ATTEMPTS,
    AntonymLexicon,
    Replacement,
    RewriteLog,
    apply_rewrite_log,
    default_lexicon,
    keyword_distortion,
    pure_fake_rewrite,
)


def _meta(*pairs) -> list[Entity]:
    return [Entity(s, k) for s, k in pairs]


LEX = AntonymLexicon([
    ("large", "small", "adj"), ("peaceful", "violent", "adj"),
    ("bright", "dim", "adj"), ("calm", "chaotic", "adj"),
    ("visits", "abandons", "verb"), ("opens", "closes", "verb"),
    ("bridge", "barricade", "noun"), ("harbor", "wasteland", "noun"),
])


# ---------------------------------------------------------------------------
# lexicon


def test_lexicon_lookup_case_insensitive():
    assert "Large" in LEX and "LARGE" in LEX and "tiny" not in LEX
    assert LEX.antonym("Large") == "small"
    assert LEX.pos_of("visits") == "verb"
    assert len(LEX) == 8


def test_lexicon_rejects_identity_mappings():
    with pytest.raises(ConfigError):
        AntonymLexicon([("same", "Same")])


def test_lexicon_from_tsv_defaults_pos_to_adj():
    lex = AntonymLexicon.from_tsv(io.StringIO(
        "# pairs\nhot\tcold\n\nrises\tfalls\tverb\n"))
    assert lex.pos_of("hot") == "adj"
    assert lex.pos_of("rises") == "verb"
    with pytest.raises(ConfigError):
        AntonymLexicon.from_tsv(io.StringIO("lonely\n"))


def test_default_lexicon_contents():
    lex = default_lexicon()
    assert lex.antonym("large") == "small"
    assert lex.antonym("peaceful") == "violent"
    assert lex.pos_of("large") == "adj"
    assert len(lex) >= 100
    # flips never map a word to itself, by construction
    for word in ("happy", "strong", "visits", "bridge"):
        assert lex.antonym(word) != word


# ---------------------------------------------------------------------------
# rewrite logs


def test_rewrite_log_manifest_round_trip():
    log = RewriteLog(strategy="keyword_distortion",
                     preserved_entities=["Merkel", "Oslo"],
                     replacements=[Replacement("bright", "dim", 22),
                                   Replacement("calm", "chaotic", 40)],
                     output_title="out")
    d = log.to_manifest()
    assert d["replacements"][0] == {"original": "bright", "replacement": "dim",
                                    "position": 22}
    back = RewriteLog.from_manifest(d)
    assert back == log


def test_apply_rewrite_log_replays_positions():
    title = "Merkel visits the large bridge"
    log = RewriteLog(strategy="keyword_distortion",
                     replacements=[Replacement("visits", "abandons", 7),
                                   Replacement("large", "small", 18)],
                     output_title="Merkel abandons the small bridge")
    assert apply_rewrite_log(title, log) == log.output_title


def test_apply_rewrite_log_empty_replacements_returns_output():
    log = RewriteLog(strategy="pure_fake", output_title="whole new title")
    assert apply_rewrite_log("anything", log) == "whole new title"


def test_apply_rewrite_log_detects_mismatch():
    log = RewriteLog(strategy="keyword_distortion",
                     replacements=[Replacement("large", "small", 0)],
                     output_title="x")
    with pytest.raises(FabricationError, match="replay mismatch"):
        apply_rewrite_log("little bridge", log)


# ---------------------------------------------------------------------------
# keyword distortion


def test_keyword_distortion_swaps_and_logs():
    title = "Merkel visits the large peaceful bridge in Oslo"
    m = _meta(("Merkel", "person"), ("Oslo", "location"))
    rng = np.random.default_rng(0)
    out, log = keyword_distortion(title, m, LEX, rng)
    assert out != title
    assert log.strategy == "keyword_distortion"
    assert log.output_title == out
    assert 2 <= len(log.replacements) <= 3
    assert apply_rewrite_log(title, log) == out
    # entities survive verbatim
    assert "Merkel" in out and "Oslo" in out
    for r in log.replacements:
        assert title[r.position:r.position + len(r.original)] == r.original


def test_keyword_distortion_prefers_adjectives_in_title_order():
    title = "word opens the large peaceful calm bridge today"
    rng = np.random.default_rng(1)
    # force n = 2 by monkeypatching integers; simpler: sample until n == 2
    for seed in range(50):
        rng = np.random.default_rng(seed)
        if np.random.default_rng(seed).integers(2, 4) == 2:
            break
    out, log = keyword_distortion(title, _meta(), LEX, rng)
    assert [r.original for r in log.replacements] == ["large", "peaceful"]


def test_keyword_distortion_count_distribution():
    title = "word opens the large peaceful calm bright bridge harbor now"
    counts = set()
    for seed in range(40):
        _, log = keyword_distortion(title, _meta(), LEX, np.random.default_rng(seed))
        counts.add(len(log.replacements))
    assert counts == {2, 3}


def test_keyword_distortion_capped_by_candidates():
    title = "word visits the large gate"  # two candidates only
    for seed in range(10):
        _, log = keyword_distortion(title, _meta(), LEX, np.random.default_rng(seed))
        assert len(log.replacements) == 2


def test_keyword_distortion_preserves_case():
    title = "Large crowds gather as PEACEFUL marches begin calm"
    out, log = keyword_distortion(title, _meta(), LEX, np.random.default_rng(3))
    by_orig = {r.original: r.replacement for r in log.replacements}
    if "Large" in by_orig:
        assert by_orig["Large"] == "Small"
    if "PEACEFUL" in by_orig:
        assert by_orig["PEACEFUL"] == "VIOLENT"
    if "calm" in by_orig:
        assert by_orig["calm"] == "chaotic"


def test_keyword_distortion_skips_entity_occurrences():
    # "Large" inside the entity span must not be flipped; only free words are
    title = "Large Hadron opens the large peaceful bridge"
    m = _meta(("Large Hadron", "organization"))
    out, log = keyword_distortion(title, m, LEX, np.random.default_rng(0))
    assert out.startswith("Large Hadron")
    assert all(r.position > len("Large Hadron") for r in log.replacements)


def test_keyword_distortion_fallback_without_generator():
    with pytest.raises(FabricationError, match="candidates"):
        keyword_distortion("word at the gate", _meta(), LEX, np.random.default_rng(0))


def test_keyword_distortion_fallback_uses_generator():
    class Gen:
        def generate(self, prompt):
            assert prompt.startswith("Rewrite")
            return "Entirely fabricated account of Merkel emerges"

    out, log = keyword_distortion("Merkel at the gate", _meta(("Merkel", "person")),
                                  LEX, np.random.default_rng(0), gen=Gen())
    assert log.strategy == "pure_fake"
    assert "Merkel" in out


# ---------------------------------------------------------------------------
# pure fake rewrite


class _Scripted:
    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        return self.outputs.pop(0)


def test_pure_fake_rewrite_accepts_entity_preserving_output():
    m = _meta(("Merkel", "person"), ("Oslo", "location"))
    gen = _Scripted(["Sources now dispute the account of Merkel and Oslo entirely"])
    out, log = pure_fake_rewrite("Merkel visits Oslo", m, gen)
    assert out == "Sources now dispute the account of Merkel and Oslo entirely"
    assert log.strategy == "pure_fake"
    assert log.preserved_entities == ["Merkel", "Oslo"]
    assert log.replacements == []


def test_pure_fake_rewrite_retries_on_dropped_entity():
    m = _meta(("Merkel", "person"))
    gen = _Scripted(["no names here", "now Merkel is disputed"])
    out, _ = pure_fake_rewrite("Merkel speaks", m, gen)
    assert out == "now Merkel is disputed"
    assert gen.calls == 2


def test_pure_fake_rewrite_rejects_identical_output():
    m = _meta(("Merkel", "person"))
    gen = _Scripted(["Merkel speaks", "Merkel speaks", "Merkel speaks"])
    with pytest.raises(FabricationError, match="identical"):
        pure_fake_rewrite("Merkel speaks", m, gen)
    assert gen.calls == 3


def test_pure_fake_rewrite_entity_must_match_word_boundary():
    m = _meta(("Oslo", "location"))
    gen = _Scripted(["the Osloite account changes", "Oslo account changes"])
    out, _ = pure_fake_rewrite("news from Oslo", m, gen)
    assert out == "Oslo account changes"
    assert gen.calls == 2


def test_pure_fake_rewrite_budget_validation():
    """The budget is REWRITE_ATTEMPTS generations, each checked."""
    m = _meta(("Merkel", "person"))
    gen = _Scripted(["Oslo account changes"] * (REWRITE_ATTEMPTS + 1))
    with pytest.raises(FabricationError,
                       match=f"after {REWRITE_ATTEMPTS} attempts: dropped entities"):
        pure_fake_rewrite("Merkel speaks", m, gen)
    assert gen.calls == REWRITE_ATTEMPTS


# ---------------------------------------------------------------------------
# properties

_TITLE_WORDS = ("Merkel", "visits", "the", "large", "peaceful", "bridge",
                "in", "Oslo", "calm", "bright", "harbor", "opens")


@settings(max_examples=60)
@given(st.lists(st.sampled_from(_TITLE_WORDS), min_size=4, max_size=12),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_distortion_replay_and_entity_safety(words, seed):
    title = " ".join(words)
    m = _meta(("Merkel", "person"), ("Oslo", "location"))
    rng = np.random.default_rng(seed)
    try:
        out, log = keyword_distortion(title, m, LEX, rng)
    except FabricationError:
        # fewer than two free candidates and no fallback generator
        free = [w for w in words if w in LEX and w not in ("Merkel", "Oslo")]
        assert len(free) < 2
        return
    assert apply_rewrite_log(title, log) == out
    assert title.count("Merkel") == out.count("Merkel")
    assert title.count("Oslo") == out.count("Oslo")
    assert 2 <= len(log.replacements) <= 3
    for r in log.replacements:
        assert r.original.lower() != r.replacement.lower()

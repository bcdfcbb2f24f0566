"""Manifest data model and toy-corpus synthesis.

A corpus is a JSONL manifest, one sample per line, with the fixed field
layout ``id, title, image, label, manipulation{kind, mask_ref, p_src, p_mod,
rewrite_log, edit_strength, similarity}, cot{think, answer, verdict}``.
The toy synthesizer produces balanced ternary samples whose category cues
(sensational wording, image-feature perturbation, distorted titles) scale
with a single cue-strength knob, plus a template rationale per sample.
"""

from __future__ import annotations

import base64
import enum
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ManifestError, check_record, write_file


class Category(enum.Enum):
    REAL = "real"
    HUMAN_CRAFTED = "human_crafted"
    AI_SYNTHESIZED = "ai_synthesized"

    @property
    def expert_index(self) -> int:
        """Expert slot this category corresponds to: reality/deception/synthesis."""
        return _EXPERT_INDEX[self]

    @classmethod
    def parse(cls, text: str) -> "Category | None":
        try:
            return cls(text.strip().lower())
        except ValueError:
            return None


_EXPERT_INDEX = {Category.REAL: 0, Category.HUMAN_CRAFTED: 1, Category.AI_SYNTHESIZED: 2}
CATEGORY_NAMES = tuple(c.value for c in Category)

MANIPULATION_KINDS = ("none", "face_swap", "face_attribute", "full_generation",
                      "inpaint_replace", "style_transfer", "pure_fake_text",
                      "keyword_distortion")
TEXT_KINDS = ("pure_fake_text", "keyword_distortion")
SIMILARITY_THRESHOLD = 0.7  # similarity_gate keeps a scored sample at or above it


@dataclass
class ImagePayload:
    """Either a raw array [C, S, S] (1 <= S <= 64), a feature matrix [N_v, H_v],
    or an unresolved relative file reference; exactly one is set."""
    raw: np.ndarray | None = None
    feat: np.ndarray | None = None
    path: str | None = None

    def __post_init__(self):
        present = sum(x is not None for x in (self.raw, self.feat, self.path))
        if present != 1:
            raise DataError(f"image payload needs exactly one variant, got {present}")
        if self.raw is not None:
            self.raw = np.asarray(self.raw, dtype=np.float64)
            if self.raw.ndim != 3 or self.raw.shape[0] not in (1, 3):
                raise DataError(f"raw image must be [C, S, S] with C in (1, 3), got {self.raw.shape}")
            if self.raw.shape[1] != self.raw.shape[2] or not 0 < self.raw.shape[1] <= 64:
                raise DataError(f"raw image must be square with side 1-64, got {self.raw.shape}")
            if not np.isfinite(self.raw).all():
                raise DataError("raw image contains non-finite values")
        if self.feat is not None:
            self.feat = np.asarray(self.feat, dtype=np.float64)
            if self.feat.ndim != 2 or 0 in self.feat.shape:
                raise DataError(f"feature payload must be a non-empty [N_v, H_v], "
                                f"got {self.feat.shape}")
            if not np.isfinite(self.feat).all():
                raise DataError("feature payload contains non-finite values")

    def to_json(self):
        if self.path is not None:
            return {"path": self.path}
        if self.feat is not None:
            return _encode_array("feat_b64", self.feat)
        return _encode_array("raw_b64", self.raw)

    @classmethod
    def from_json(cls, obj):
        """Read any variant; ``feat`` may also be decimal JSON rows, the
        encoding manifests were written in before ``feat_b64``."""
        if not isinstance(obj, dict):
            raise DataError("image field must be an object")
        keys = set(obj)
        if keys == {"path"}:
            if not isinstance(obj["path"], str):
                raise DataError("image path must be a string")
            return cls(path=obj["path"])
        if keys == {"feat_b64", "shape"}:
            return cls(feat=_decode_array(obj["feat_b64"], obj["shape"]))
        if keys == {"raw_b64", "shape"}:
            return cls(raw=_decode_array(obj["raw_b64"], obj["shape"]))
        if keys == {"feat"}:
            try:
                return cls(feat=np.asarray(obj["feat"], dtype=np.float64))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"image payload is not a numeric array: {exc}") from None
        raise DataError(f"unrecognized image payload keys {sorted(keys)}")


def _encode_array(key, values):
    """{key: base64 of the little-endian float64 bytes, "shape": sizes}."""
    return {key: base64.b64encode(values.astype("<f8").tobytes()).decode("ascii"),
            "shape": list(values.shape)}


def _decode_array(b64, shape):
    """Inverse of _encode_array; a payload that is not exactly that is a DataError."""
    if not isinstance(b64, str):
        raise DataError("image payload bytes must be a base64 string")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"image payload shape must be a list of sizes, got {shape!r}")
    try:
        buf = base64.b64decode(b64, validate=True)
    except ValueError as exc:
        raise DataError(f"image payload is not base64: {exc}") from None
    if len(buf) != 8 * math.prod(shape):
        raise DataError(f"image payload has {len(buf)} bytes; shape {shape} "
                        f"needs {8 * math.prod(shape)}")
    return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()


# The manifest's manipulation keys, in the order to_json writes them, and
# their types; a bool is never a number here.
_NULL = type(None)
_MANIPULATION_TYPES = {"kind": str, "mask_ref": (str, _NULL), "p_src": (str, _NULL),
                       "p_mod": (str, _NULL), "rewrite_log": (dict, _NULL),
                       "edit_strength": (int, float, _NULL), "similarity": (int, float, _NULL)}
_SAMPLE_TYPES = {"id": str, "title": str, "image": dict, "label": str,
                 "manipulation": (dict, _NULL), "cot": (dict, _NULL)}


@dataclass
class ManipulationAnnotation:
    kind: str = "none"
    mask_ref: str | None = None
    p_src: str | None = None  # inpainting prompts: source and modified
    p_mod: str | None = None
    rewrite_log: dict | None = None  # embedded RewriteLog (see textforge)
    edit_strength: float | None = None
    similarity: float | None = None

    def validate(self, label: Category):
        if self.kind not in MANIPULATION_KINDS:
            raise DataError(f"unknown manipulation kind {self.kind!r}")
        if (self.kind == "none") != (label is Category.REAL):
            raise DataError(f"kind {self.kind!r} inconsistent with label {label.value!r} "
                            "(kind none <=> label real)")
        if self.kind == "inpaint_replace" and (
                self.mask_ref is None or (self.p_src is None and self.p_mod is None)):
            raise DataError("inpaint_replace requires mask_ref and p_src or p_mod")
        if self.kind in TEXT_KINDS and self.rewrite_log is None:
            raise DataError(f"text manipulation {self.kind!r} requires rewrite_log")
        if self.similarity is not None and not 0.0 <= self.similarity <= 1.0:
            raise DataError(f"similarity {self.similarity} outside [0, 1]")
        if self.edit_strength is not None and not math.isfinite(self.edit_strength):
            raise DataError(f"edit_strength {self.edit_strength} is not finite")

    def to_json(self):
        return {k: getattr(self, k) for k in _MANIPULATION_TYPES}

    @classmethod
    def from_json(cls, obj):
        return cls(**check_record(obj, _MANIPULATION_TYPES, "manipulation"))


@dataclass
class CotNote:
    """Manifest-level rationale record: the persisted slice of a CotRecord."""
    think: str
    answer: str
    verdict: str

    def to_json(self):
        return {"think": self.think, "answer": self.answer, "verdict": self.verdict}

    def target_text(self) -> str:
        """The note as generator output, <think>...</think><answer>...</answer>,
        with both parts stripped and the think block dropped when empty."""
        think, answer = self.think.strip(), self.answer.strip()
        block = f"<think>{think}</think>" if think else ""
        return f"{block}<answer>{answer}</answer>"

    @classmethod
    def from_json(cls, obj):
        keys = ("think", "answer", "verdict")
        return cls(**check_record(obj, dict.fromkeys(keys, str), "cot", required=keys))


@dataclass
class NewsSample:
    id: str
    title: str
    image: ImagePayload
    label: Category
    annotation: ManipulationAnnotation = field(default_factory=ManipulationAnnotation)
    cot: CotNote | None = None

    def validate(self):
        if not self.id:
            raise DataError("sample id must be non-empty")
        if not self.title.strip():
            raise DataError(f"sample {self.id!r} has a blank title")
        self.annotation.validate(self.label)

    def to_json(self):
        return {
            "id": self.id,
            "title": self.title,
            "image": self.image.to_json(),
            "label": self.label.value,
            "manipulation": self.annotation.to_json(),
            "cot": self.cot.to_json() if self.cot else None,
        }

    @classmethod
    def from_json(cls, obj):
        check_record(obj, _SAMPLE_TYPES, "sample", required=("id", "title", "image", "label"))
        label = Category.parse(obj["label"])
        if label is None:
            raise DataError(f"unknown label {obj['label']!r}")
        sample = cls(
            id=obj["id"],
            title=obj["title"],
            image=ImagePayload.from_json(obj["image"]),
            label=label,
            annotation=ManipulationAnnotation.from_json(obj.get("manipulation") or {}),
            cot=None if obj.get("cot") is None else CotNote.from_json(obj["cot"]),
        )
        sample.validate()
        return sample


# ---------------------------------------------------------------------------
# manifest io


def save_manifest(samples, path):
    """Write one JSON line per sample, through errors.write_file."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    write_file(path, ((encode(sample.to_json()) + "\n").encode("utf-8") for sample in samples))


def load_manifest(path):
    """Parse a JSONL manifest; failures cite the 1-based line number."""
    samples = []
    seen_ids = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            # Besides JSONDecodeError: bytes that are not UTF-8, an integer
            # past the interpreter's digit limit, nesting past the recursion limit.
            except (ValueError, RecursionError) as exc:
                reason = getattr(exc, "msg", None) or str(exc)
                raise ManifestError(f"malformed JSON ({reason})", line=lineno) from exc
            try:
                sample = NewsSample.from_json(obj)
            except DataError as exc:
                raise ManifestError(str(exc), line=lineno) from exc
            if sample.id in seen_ids:
                raise ManifestError(
                    f"duplicate id {sample.id!r} (first seen on line {seen_ids[sample.id]})",
                    line=lineno)
            seen_ids[sample.id] = lineno
            samples.append(sample)
    return samples


def similarity_gate(samples):
    """Keep samples whose similarity score is >= SIMILARITY_THRESHOLD
    (inclusive).

    Samples without a score are not subject to the gate and pass through.
    """
    kept, dropped = [], []
    for sample in samples:
        sim = sample.annotation.similarity
        if sim is None or sim >= SIMILARITY_THRESHOLD:
            kept.append(sample)
        else:
            dropped.append(sample)
    return kept, dropped


# ---------------------------------------------------------------------------
# splitting


@dataclass
class SplitSpec:
    seed: int = 0


def split(samples, spec: SplitSpec):
    """Stratified, seeded 8:1:1 partition; returns (train, val, test)."""
    if spec.seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {spec.seed}")
    by_label = {c: [] for c in Category}
    for sample in samples:
        by_label[sample.label].append(sample)
    for c, group in by_label.items():
        if 0 < len(group) < 10:
            raise DataError(f"class {c.value} has only {len(group)} samples; "
                            "need >= 10 to stratify")
    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    for c in Category:
        group = by_label[c]
        if not group:
            continue
        order = rng.permutation(len(group))
        n = len(group)
        n_train = math.floor(n * 8 / 10)
        n_val = math.floor(n * 1 / 10)
        shuffled = [group[i] for i in order]
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train:n_train + n_val])
        test.extend(shuffled[n_train + n_val:])
    return train, val, test


# ---------------------------------------------------------------------------
# toy corpus synthesis

_PERSONS = ("Obama", "Merkel", "Macron", "Ardern", "Biden", "Modi")
_LOCATIONS = ("Berlin", "Oslo", "Paris", "London", "Tokyo", "Madrid", "Cairo", "Sydney")
_DAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
_VERBS = ("visits", "opens", "announces", "inspects", "praises", "tours")
_NOUNS = ("bridge", "summit", "festival", "harbor", "museum", "stadium", "library", "market")
_ADJS = ("large", "peaceful", "happy", "strong", "bright", "calm", "modern", "quiet")
_SENSATIONAL = ("Shocking:", "Unbelievable:", "Exposed:", "Outrageous:")

TOY_FEAT_TOKENS = 4
TOY_FEAT_WIDTH = 64
# Added (scaled by cue strength) to every feature row of ai_synthesized images.
_AI_PATTERN = np.zeros((TOY_FEAT_TOKENS, TOY_FEAT_WIDTH))
_AI_PATTERN[:, :16] = 2.0

_THINK_TEMPLATES = {
    Category.REAL:
        "Scene and caption line up with no manipulation traces visible [image]. "
        "Wording around {ent} stays factual with no rewriting cues [text]. "
        "Evidence points to authentic reporting.",
    Category.HUMAN_CRAFTED:
        "The photo itself shows no editing artifacts [image]. "
        "Phrasing is sensational and overstates the situation in {ent} [text]. "
        "This reads like a human written rumor.",
    Category.AI_SYNTHESIZED:
        "Feature patterns in the image suggest generative manipulation [image]. "
        "Wording of the claim about {ent} looks rewritten [text]. "
        "Cues match machine generated content.",
}


def template_cot(label: Category, entity: str) -> CotNote:
    """Schema-valid rationale consistent with the label, grounded in both modalities."""
    think = _THINK_TEMPLATES[label].format(ent=entity)
    return CotNote(think=think, answer=label.value, verdict="accepted")


def _toy_title(rng):
    person = _PERSONS[rng.integers(len(_PERSONS))]
    verb = _VERBS[rng.integers(len(_VERBS))]
    adj = _ADJS[rng.integers(len(_ADJS))]
    noun = _NOUNS[rng.integers(len(_NOUNS))]
    location = _LOCATIONS[rng.integers(len(_LOCATIONS))]
    day = _DAYS[rng.integers(len(_DAYS))]
    return f"{person} {verb} the {adj} {noun} in {location} on {day}", person, location, noun


def synth_toy_corpus(n: int, cue_strength: float, seed: int):
    """Balanced ternary corpus with label cues in both modalities.

    Cue strength 1 makes the categories cleanly separable (sensational
    wording for rumors, a fixed feature perturbation plus optional title
    distortion for ai content); cue strength 0 makes all three label
    conditionals identical. Toy rumors are fabricated by sensational
    rewriting, so they carry a pure_fake_text annotation with the insertion
    logged (the manifest invariant ties kind "none" to real samples only).
    """
    from . import textforge  # late imports: textforge and cot depend on this module
    from .cot import extract_entities

    if n < 30:
        raise ConfigError(f"toy corpus needs n >= 30, got {n}")
    if not 0.0 <= cue_strength <= 1.0:
        raise ConfigError(f"cue_strength must be in [0, 1], got {cue_strength}")
    rng = np.random.default_rng(seed)
    lexicon, gazetteer = textforge.default_lexicon(), _toy_gazetteer()
    labels = [list(Category)[i % 3] for i in range(n)]
    samples = []
    for i, label in enumerate(labels):
        title, person, location, noun = _toy_title(rng)
        feat = rng.normal(0.0, 1.0, (TOY_FEAT_TOKENS, TOY_FEAT_WIDTH))
        annotation = ManipulationAnnotation()
        if label is Category.HUMAN_CRAFTED:
            log = textforge.RewriteLog("pure_fake", preserved_entities=[person, location])
            if rng.random() < cue_strength:
                prefix = _SENSATIONAL[rng.integers(len(_SENSATIONAL))]
                title = f"{prefix} {title}"
                log.replacements.append(textforge.Replacement("", prefix, 0))
            log.output_title = title
            annotation = ManipulationAnnotation(kind="pure_fake_text",
                                                rewrite_log=log.to_manifest())
        elif label is Category.AI_SYNTHESIZED:
            feat = feat + cue_strength * _AI_PATTERN
            if rng.random() < cue_strength:
                entities = extract_entities(title, gazetteer)
                child = np.random.default_rng(rng.integers(2**32))
                title, log = textforge.keyword_distortion(title, entities, lexicon, child)
                annotation = ManipulationAnnotation(kind="keyword_distortion",
                                                    rewrite_log=log.to_manifest())
            else:
                kind = ("full_generation", "inpaint_replace", "style_transfer")[rng.integers(3)]
                similarity = float(0.7 + 0.29 * rng.random())
                if kind == "inpaint_replace":
                    annotation = ManipulationAnnotation(
                        kind=kind, mask_ref=f"masks/toy-{i:05d}.png",
                        p_src=noun, p_mod=f"painted {noun}", similarity=similarity)
                else:
                    annotation = ManipulationAnnotation(kind=kind, similarity=similarity)
        entity = person if rng.random() < 0.5 else location
        sample = NewsSample(
            id=f"toy-{i:05d}",
            title=title,
            image=ImagePayload(feat=feat),
            label=label,
            annotation=annotation,
            cot=template_cot(label, entity),
        )
        sample.validate()
        samples.append(sample)
    return samples


@functools.cache
def _toy_gazetteer():
    """The toy gazetteer, built once per process and shared: extract_entities
    only reads it."""
    from .cot import Gazetteer  # late import: cot depends on this module
    entries = {}
    entries.update({p: "person" for p in _PERSONS})
    entries.update({loc: "location" for loc in _LOCATIONS})
    entries.update({d: "event_time" for d in _DAYS})
    return Gazetteer(entries)


# ---------------------------------------------------------------------------
# statistics

REFERENCE_COUNTS = {"real": 49034, "human_crafted": 24726, "ai_synthesized": 53523}
REFERENCE_TOTAL = 127283


def corpus_stats(samples):
    by_label = {name: 0 for name in CATEGORY_NAMES}
    by_kind = {}
    for sample in samples:
        by_label[sample.label.value] += 1
        by_kind[sample.annotation.kind] = by_kind.get(sample.annotation.kind, 0) + 1
    by_label_total = sum(by_label.values())
    return {
        "total": by_label_total,
        "by_label": by_label,
        "by_kind": dict(sorted(by_kind.items())),
        "matches_full_scale_reference": check_reference_counts(by_label),
    }


def check_reference_counts(by_label) -> bool:
    """True iff the counts equal the full-scale reference corpus breakdown
    (49,034 real + 24,726 human_crafted + 53,523 ai_synthesized = 127,283)."""
    try:
        counts = {name: int(by_label[name]) for name in CATEGORY_NAMES}
    except (KeyError, TypeError, ValueError):
        return False
    if counts != REFERENCE_COUNTS:
        return False
    return sum(counts.values()) == REFERENCE_TOTAL

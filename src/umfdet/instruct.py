"""Instruction templates and the word-level token pipeline.

The prompt is assembled from four template sections (task, options,
question, response format); the question section carries a {TITLE}
placeholder. Tokenization is lowercase word-level with the reasoning/answer
markers and the [image]/[text] grounding tags kept atomic, so generated
sequences survive a decode back into parseable text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError, DataError, TemplateError, read_utf8

TITLE_PLACEHOLDER = "{TITLE}"

PAD, BOS, EOS, UNK = 0, 1, 2, 3
THINK_OPEN, THINK_CLOSE, ANSWER_OPEN, ANSWER_CLOSE = 4, 5, 6, 7
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>",
                   "<think>", "</think>", "<answer>", "</answer>")

_OPENING_MARKERS = {"<think>", "<answer>"}
_CLOSING_MARKERS = {"</think>", "</answer>"}
_TOKEN_RE = re.compile(r"</?think>|</?answer>|\[image\]|\[text\]|[\w']+|[^\w\s]")


# ---------------------------------------------------------------------------
# templates


@dataclass(frozen=True)
class InstructionTemplate:
    p_task: str
    p_opt: str
    p_que: str
    p_resp: str


_SECTION_HEADERS = ("[TASK]", "[OPT]", "[QUE]", "[RESP]")


def parse_template(text: str) -> InstructionTemplate:
    """Parse the four-section template format; headers sit alone on a line
    and must appear once each, in order."""
    sections = {}
    current = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if line in _SECTION_HEADERS:
            if line in sections:
                raise TemplateError(f"duplicate section header {line}")
            expected = _SECTION_HEADERS[len(sections)]
            if line != expected:
                raise TemplateError(f"expected section {expected}, found {line}")
            current = line
            sections[current] = []
        elif current is None:
            if line:
                raise TemplateError(f"text before first section header: {line!r}")
        else:
            sections[current].append(raw_line)
    missing = [h for h in _SECTION_HEADERS if h not in sections]
    if missing:
        raise TemplateError(f"missing section headers: {missing}")
    task, opt, que, resp = ("\n".join(sections[h]).strip() for h in _SECTION_HEADERS)
    return InstructionTemplate(p_task=task, p_opt=opt, p_que=que, p_resp=resp)


def load_template(path) -> InstructionTemplate:
    return parse_template(read_utf8(path, TemplateError))


def default_template() -> InstructionTemplate:
    ref = resources.files("umfdet").joinpath("templates/detect.txt")
    with ref.open("r", encoding="utf-8") as fh:
        return parse_template(fh.read())


def render_prompt(template: InstructionTemplate, title: str) -> str:
    """Join the sections with single newlines, title substituted into the
    question section."""
    if not title or not title.strip():
        raise DataError("cannot render a prompt for an empty title")
    if TITLE_PLACEHOLDER not in template.p_que:
        raise TemplateError(f"question section lacks the {TITLE_PLACEHOLDER} placeholder")
    que = template.p_que.replace(TITLE_PLACEHOLDER, title.strip())
    return "\n".join([template.p_task, template.p_opt, que, template.p_resp])


# ---------------------------------------------------------------------------
# tokenization


def split_tokens(text: str) -> list:
    """Lowercase word-level split; structural markers and grounding tags stay
    atomic, punctuation becomes single-character tokens.

    The markers match case-sensitively (<THINK> is three tokens), so the
    tokens are found first and lowercased after, in one call over them joined
    by spaces: no token holds a space, and a space ends the context str.lower
    reads for a final sigma, so each token lowers as it would alone. The
    dotted capital I (U+0130) becomes a plain i, its Turkish lowercase: str.lower
    gives i plus a combining dot, which would split into two tokens again."""
    tokens = _TOKEN_RE.findall(text)
    return " ".join(tokens).replace("\u0130", "i").lower().split(" ") if tokens else []


class Vocabulary:
    """Frozen token<->id maps with fixed reserved ids 0-7."""

    def __init__(self, tokens):
        """tokens[i] is the token of id i, the reserved tokens first."""
        self.id_to_token = list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    @classmethod
    def build(cls, texts, min_count: int = 2, max_size: int = 8192) -> "Vocabulary":
        """Count word tokens over the corpus, keep those seen at least
        min_count times, rank by frequency then lexicographically, cap the
        total size."""
        if min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {min_count}")
        if max_size < len(RESERVED_TOKENS) + 1:
            raise ConfigError(f"max_size {max_size} leaves no room beyond reserved tokens")
        counts = Counter()
        for text in texts:
            counts.update(split_tokens(text))
        for tok in RESERVED_TOKENS:
            counts.pop(tok, None)
        kept = [t for t, c in counts.items() if c >= min_count]
        kept.sort(key=lambda t: (-counts[t], t))
        room = max_size - len(RESERVED_TOKENS)
        return cls(list(RESERVED_TOKENS) + kept[:room])

    def encode(self, text: str) -> list:
        return [self.token_to_id.get(t, UNK) for t in split_tokens(text)]

    def decode(self, ids) -> str:
        """Inverse of encode up to casing and spacing, with pad, begin and end
        tokens dropped; markers join tightly so the result stays parseable by
        the answer/rationale extractors."""
        out = []
        glue_next = False
        prev = None
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise DataError(f"token id {i} outside vocabulary of size {len(self)}")
            tok = self.id_to_token[i]
            if i in (PAD, BOS, EOS):
                continue
            tight = (tok in _CLOSING_MARKERS
                     or (tok in _OPENING_MARKERS and prev in _CLOSING_MARKERS)
                     or (len(tok) == 1 and not tok.isalnum() and tok not in "'_"))
            if not out or glue_next or tight:
                out.append(tok)
            else:
                out.append(" " + tok)
            glue_next = tok in _OPENING_MARKERS
            prev = tok
        return "".join(out)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, tok in enumerate(self.id_to_token):
                fh.write(f"{tok}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a token<TAB>id file; any fault in it is a DataError naming it."""
        tokens = {}
        for lineno, line in enumerate(read_utf8(path, DataError).split("\n"), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: vocab line {lineno} is not token<TAB>id: {line!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise DataError(f"{path}: vocab line {lineno} has non-integer id: "
                                f"{line!r}") from None
            if idx in tokens:
                raise DataError(f"{path}: vocab line {lineno} repeats id {idx}")
            tokens[idx] = parts[0]
        if sorted(tokens) != list(range(len(tokens))):
            raise DataError(f"{path}: vocab ids must be contiguous from 0")
        vocab = cls([tokens[i] for i in range(len(tokens))])
        if tuple(vocab.id_to_token[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise DataError(f"{path}: vocabulary must start with the reserved tokens "
                            f"{RESERVED_TOKENS}")
        if len(vocab.token_to_id) != len(vocab):
            raise DataError(f"{path}: vocabulary repeats a token")
        return vocab


def target_parts(sample) -> tuple:
    """(think, answer) a post trains on: the stripped think of a rationale note
    the gate accepted, else "", and the label's name, which is the supervision."""
    accepted = sample.cot is not None and sample.cot.verdict == "accepted"
    return (sample.cot.think.strip() if accepted else ""), sample.label.value


def build_vocab(samples, template: InstructionTemplate, min_count: int = 2,
                max_size: int = 8192) -> Vocabulary:
    """Vocabulary over each sample's rendered prompt and its target_parts."""
    texts = []
    for s in samples:
        texts.append(render_prompt(template, s.title))
        texts.extend(target_parts(s))
    return Vocabulary.build(texts, min_count=min_count, max_size=max_size)


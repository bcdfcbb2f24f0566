"""Output checks for the benchmark workloads.

Every check compares the program's output with a property of the method or
with a computation made apart from the code path under test; none compares
with a stored copy of earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from umfdet import checkpoint, data, instruct, model, textforge
from umfdet import ndtensor as nd

# history.csv stores each loss rounded to 6 decimals, so loss_total can differ
# from loss_det + lambda * loss_cot by up to half a unit in the last place of
# each of the three figures.
_HISTORY_ROUNDING = 5e-7
# "Clearly below": the last logged total loss is at most this share of the first.
LOSS_DROP = 0.75
# The 8:1:1 split may miss each part's ideal size by at most this many posts.
SPLIT_SLACK = 2

_ANSWER = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)


class CheckFailed(Exception):
    """An output of the program is wrong."""


# ---------------------------------------------------------------------------
# train


def check_history(history_path, lambda_cot, check_drop=True):
    """Every logged loss is finite, each row's total is det + lambda * cot to
    rounding, and (with check_drop) the last total is clearly below the first."""
    with open(history_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2:
        raise CheckFailed(f"history has {len(rows)} rows; need at least two")
    totals = []
    for row in rows:
        det, cot_, total = (float(row[k]) for k in ("loss_det", "loss_cot", "loss_total"))
        if not all(math.isfinite(x) for x in (det, cot_, total, float(row["grad_norm"]))):
            raise CheckFailed(f"step {row['step']}: non-finite figure in {row}")
        tol = _HISTORY_ROUNDING * (2.0 + lambda_cot) + 1e-12
        if abs(total - (det + lambda_cot * cot_)) > tol:
            raise CheckFailed(f"step {row['step']}: loss_total {total} != loss_det {det}"
                              f" + {lambda_cot} * loss_cot {cot_}")
        totals.append(total)
    if check_drop and not totals[-1] <= LOSS_DROP * totals[0]:
        raise CheckFailed(f"loss did not drop: first {totals[0]}, last {totals[-1]}")


def check_checkpoint(params, vocab, ckpt_dir):
    """The checkpoint loads back to the trained tensors, bit for bit."""
    loaded, loaded_vocab = checkpoint.load_model(ckpt_dir)
    if loaded_vocab.id_to_token != vocab.id_to_token:
        raise CheckFailed("checkpoint vocabulary differs from the trained one")
    if list(loaded.tensors) != list(params.tensors):
        raise CheckFailed("checkpoint tensor names differ from the trained ones")
    for name, t in params.tensors.items():
        a, b = t.values, loaded.tensors[name].values
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            raise CheckFailed(f"checkpoint tensor {name} is not bitwise equal")


# ---------------------------------------------------------------------------
# eval


def check_greedy(params, samples, vocab, template, predictions):
    """Each generated text is a greedy decode: one teacher-forced pass over
    BOS plus its tokens yields every token as the argmax, then EOS unless
    the budget was used up."""
    cfg = params.config
    budget = min(cfg.gen_max_tokens, cfg.max_len - 1)
    if len(predictions) != len(samples):
        raise CheckFailed(f"{len(predictions)} predictions for {len(samples)} posts")
    for sample, (sid, _, _, text) in zip(samples, predictions):
        if sid != sample.id:
            raise CheckFailed(f"prediction for {sid} where {sample.id} was expected")
        tokens = vocab.encode(text)
        if vocab.decode(tokens) != text:
            raise CheckFailed(f"{sid}: generated text does not re-tokenize: {text!r}")
        if len(tokens) > budget:
            raise CheckFailed(f"{sid}: {len(tokens)} tokens exceed the budget {budget}")
        with nd.no_grad():
            memory, _ = model.encode(params, sample, vocab, template)
            logits = model.decode(params, memory, [instruct.BOS] + tokens)
        best = np.argmax(logits.values, axis=1)
        for i, tok in enumerate(tokens):
            if best[i] != tok:
                raise CheckFailed(f"{sid}: token {i} is {vocab.id_to_token[tok]!r} but the "
                                  f"greedy choice is {vocab.id_to_token[best[i]]!r}")
        if len(tokens) < budget and best[len(tokens)] != instruct.EOS:
            raise CheckFailed(f"{sid}: generation stopped after {len(tokens)} tokens "
                              "but EOS is not the greedy choice there")


def recount_accuracy(samples, predictions):
    """Share of posts whose first answer block names their label."""
    correct = 0
    for sample, (_, _, _, text) in zip(samples, predictions):
        m = _ANSWER.search(text)
        correct += bool(m) and m.group(1).strip().lower() == sample.label.value
    return correct / len(samples)


def check_accuracy(samples, result, floor):
    """evalkit's accuracy equals the recount from the raw texts, and reaches
    the floor."""
    acc = recount_accuracy(samples, result.predictions)
    if result.metrics.n_samples != len(samples) or result.metrics.accuracy != acc:
        raise CheckFailed(f"evalkit reports accuracy {result.metrics.accuracy} over "
                          f"{result.metrics.n_samples} posts; recount gives {acc} over "
                          f"{len(samples)}")
    if acc < floor:
        raise CheckFailed(f"held-out accuracy {acc} is below {floor}")


# ---------------------------------------------------------------------------
# corpus


@dataclass
class CorpusOutput:
    synthesized: list   # synth_toy_corpus posts, in order
    fabricated: list    # one fabricated post per synthesized post, same order
    posts: list         # the samples written to the manifest
    manifest: str
    loaded: list        # the samples read back
    gated: list
    splits: tuple
    encoded: list       # prompt token ids per gated post


def check_rationales(samples):
    for s in samples:
        if s.cot is None:
            raise CheckFailed(f"{s.id}: no rationale")
        if s.cot.verdict != "accepted":
            raise CheckFailed(f"{s.id}: rationale verdict {s.cot.verdict!r}")
        if "[image]" not in s.cot.think or "[text]" not in s.cot.think:
            raise CheckFailed(f"{s.id}: rationale lacks an [image] or [text] grounding")
        if s.cot.answer != s.label.value:
            raise CheckFailed(f"{s.id}: rationale answers {s.cot.answer!r}, "
                              f"label is {s.label.value!r}")


def check_balance(samples):
    counts = [sum(s.label is c for s in samples) for c in data.Category]
    if max(counts) - min(counts) > 1:
        raise CheckFailed(f"synthesized labels are unbalanced: {counts}")


def check_fabrication(sources, fabricated):
    """Each fabricated title keeps every preserved entity verbatim, and its
    rewrite log replays from the source title to the same title."""
    if len(sources) != len(fabricated):
        raise CheckFailed(f"{len(fabricated)} fabricated titles for {len(sources)} posts")
    for src, fab in zip(sources, fabricated):
        log_dict = fab.annotation.rewrite_log
        for entity in log_dict["preserved_entities"]:
            if not re.search(rf"(?<!\w){re.escape(entity)}(?!\w)", fab.title):
                raise CheckFailed(f"{fab.id}: entity {entity!r} lost in {fab.title!r}")
        replayed = textforge.apply_rewrite_log(
            src.title, textforge.RewriteLog.from_manifest(log_dict))
        if replayed != fab.title or log_dict["output_title"] != fab.title:
            raise CheckFailed(f"{fab.id}: log replays to {replayed!r}, title is {fab.title!r}")


def check_manifest(saved, path, loaded):
    """Each manifest line holds its sample's record, and the loaded samples
    equal the saved ones."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if len(lines) != len(saved) or len(loaded) != len(saved):
        raise CheckFailed(f"{len(saved)} samples saved, {len(lines)} lines written, "
                          f"{len(loaded)} loaded")
    for lineno, (line, s, back) in enumerate(zip(lines, saved, loaded), start=1):
        record = s.to_json()
        if json.loads(line) != record or back.to_json() != record:
            raise CheckFailed(f"manifest line {lineno} ({s.id}) does not round-trip")


def check_split(gated, splits, ratios=(8, 1, 1)):
    """Disjoint parts that cover the gated corpus, each label within
    SPLIT_SLACK posts of the ratios."""
    ids = [[s.id for s in part] for part in splits]
    flat = [i for part in ids for i in part]
    if len(flat) != len(set(flat)):
        raise CheckFailed("split parts overlap")
    if set(flat) != {s.id for s in gated} or len(flat) != len(gated):
        raise CheckFailed("split does not cover the gated corpus")
    for c in data.Category:
        n = sum(s.label is c for s in gated)
        for part, r in zip(splits, ratios):
            got = sum(s.label is c for s in part)
            if abs(got - n * r / sum(ratios)) > SPLIT_SLACK:
                raise CheckFailed(f"label {c.value}: {got} of {n} posts in a part "
                                  f"of ratio {r}/{sum(ratios)}")


def check_corpus(out: CorpusOutput):
    check_balance(out.synthesized)
    check_fabrication(out.synthesized, out.fabricated)
    check_manifest(out.posts, out.manifest, out.loaded)
    check_rationales(out.loaded)
    check_split(out.gated, out.splits)
    if len(out.encoded) != len(out.gated) or not all(out.encoded):
        raise CheckFailed("a gated post has no encoded prompt")

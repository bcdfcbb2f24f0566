"""The three benchmark workloads: train, eval and corpus.

Each workload builds its inputs from the run seed in ``setup``, then runs
rounds of the same operations: ``prepare`` (untimed), ``run`` (timed) and
``check`` (untimed). A round always handles the same number of posts, so the
share of failed operations and every per-layer count are the same whatever
the run length.

All calls go through the library's public entry points; the module objects
are looked up at call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
from pathlib import Path

import numpy as np

from umfdet import checkpoint, cot, data, evalkit, instruct, model, textforge, trainer

import checks

TRAIN_BATCH = 8


def build_vocab(samples, template):
    """Vocabulary over the prompts and target texts of ``samples``, with the
    library's default count floor and size cap."""
    texts = []
    for s in samples:
        texts.append(instruct.render_prompt(template, s.title))
        if s.cot is not None:
            texts.append(f"<think>{s.cot.think}</think><answer>{s.cot.answer}</answer>")
    return instruct.Vocabulary.build(texts)


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TrainWorkload:
    """One long ``trainer.train`` run on a cue-1.0 toy corpus with the
    default ModelConfig, batch 8 and no validation, cut into rounds of one
    pass over the training split. Each round resumes from the checkpoint
    the previous round wrote, so the run writes a checkpoint every pass and
    reads the optimizer state back, as an interrupted long run does."""

    name = "train"

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.n_posts = 30 if smoke else 90
        self.passes_per_round = 4 if smoke else 1
        # The loss must have dropped clearly once the run has made this many
        # rounds; the run makes at least as many.
        self.min_rounds = 1 if smoke else 3
        self.steps_done = 0

    def setup(self):
        corpus = data.synth_toy_corpus(self.n_posts, 1.0, seed=self.seed)
        self.train_s, _, _ = data.split(corpus, data.SplitSpec(seed=self.seed))
        self.template = instruct.default_template()
        self.vocab = build_vocab(self.train_s, self.template)
        config = model.ModelConfig(vocab_size=len(self.vocab))
        self.steps_per_round = self.passes_per_round * len(self.train_s) // TRAIN_BATCH
        self.samples_per_round = self.steps_per_round * TRAIN_BATCH
        self.params = model.init_model(config, np.random.default_rng(self.seed))

    def prepare(self):
        gc.collect()
        return trainer.TrainConfig(max_steps=self.steps_done + self.steps_per_round,
                                   batch_size=TRAIN_BATCH, log_every=1, seed=self.seed)

    def run(self, tcfg):
        return trainer.train(self.params, self.train_s, [], self.vocab, self.template,
                             tcfg, self.work_dir / "train", resume=self.steps_done > 0)

    def check(self, result):
        if result.steps_run != self.steps_done + self.steps_per_round:
            raise checks.CheckFailed(f"ran to step {result.steps_run}, expected "
                                     f"{self.steps_done + self.steps_per_round}")
        self.steps_done = result.steps_run
        rounds = self.steps_done // self.steps_per_round
        checks.check_history(result.history_path, self.params.config.lambda_cot,
                             check_drop=rounds >= self.min_rounds)
        checks.check_checkpoint(self.params, self.vocab, result.checkpoint_dir)


class EvalWorkload:
    """``evalkit.evaluate_model`` by greedy generation over the held-out
    posts of a cue-1.0 toy corpus, with a model trained briefly in set-up and
    then loaded back from its checkpoint."""

    name = "eval"
    min_rounds = 1
    SETUP_STEPS = 100
    SETUP_LR = 2e-3
    MIN_ACCURACY = 0.90

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.n_posts = 150
        self.smoke = smoke
        self.first_predictions = None

    def setup(self):
        corpus = data.synth_toy_corpus(self.n_posts, 1.0, seed=self.seed)
        train_s, val_s, test_s = data.split(corpus, data.SplitSpec(seed=self.seed))
        self.template = instruct.default_template()
        vocab = build_vocab(train_s, self.template)
        params = model.init_model(model.ModelConfig(vocab_size=len(vocab)),
                                  np.random.default_rng(self.seed))
        tcfg = trainer.TrainConfig(lr=self.SETUP_LR, max_steps=self.SETUP_STEPS,
                                   seed=self.seed)
        result = trainer.train(params, train_s, [], vocab, self.template, tcfg,
                               self.work_dir / "setup_train")
        self.params, self.vocab = checkpoint.load_model(result.checkpoint_dir)
        self.held_out = val_s + test_s
        if self.smoke:
            self.held_out = self.held_out[::3]
        self.samples_per_round = len(self.held_out)

    def prepare(self):
        gc.collect()
        return None

    def run(self, _):
        return evalkit.evaluate_model(self.params, self.held_out, self.vocab, self.template)

    def check(self, result):
        if self.first_predictions is None:
            checks.check_greedy(self.params, self.held_out, self.vocab, self.template,
                                result.predictions)
            checks.check_accuracy(self.held_out, result, self.MIN_ACCURACY)
            self.first_predictions = result.predictions
        elif result.predictions != self.first_predictions:
            raise checks.CheckFailed("a repeated evaluation round gave other predictions")


class CorpusWorkload:
    """Corpus preparation over one chunk of posts per round: synthesis at cue
    0.9, title fabrication of every post (keyword distortion with the offline
    generator as fallback), quality-gated rationales, manifest save and load,
    similarity gate, split, vocabulary and prompt encoding."""

    name = "corpus"
    min_rounds = 1

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.chunk = 30 if smoke else 60
        self.first_digest = None

    def setup(self):
        self.template = instruct.default_template()
        self.client = cot.MockGenClient()
        self.lexicon = textforge.default_lexicon()
        self.gazetteer = cot.default_gazetteer()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = self.work_dir / "corpus.jsonl"
        self.samples_per_round = 2 * self.chunk

    def prepare(self):
        gc.collect()
        return np.random.default_rng(self.seed)

    def run(self, rng):
        synthesized = data.synth_toy_corpus(self.chunk, 0.9, seed=self.seed)
        fabricated = []
        for s in synthesized:
            entities = cot.extract_entities(s.title, self.gazetteer)
            title, log = textforge.keyword_distortion(s.title, entities, self.lexicon, rng,
                                                      gen=self.client)
            kind = ("keyword_distortion" if log.strategy == "keyword_distortion"
                    else "pure_fake_text")
            fabricated.append(data.NewsSample(
                id=f"{s.id}-fab", title=title, image=s.image,
                label=data.Category.AI_SYNTHESIZED,
                annotation=data.ManipulationAnnotation(kind=kind,
                                                       rewrite_log=log.to_manifest()),
                cot=None))
        posts = synthesized + fabricated
        records = cot.generate_corpus_cots(posts, self.client, max_workers=1)
        for s, rec in zip(posts, records):
            s.cot = rec.to_note()
        data.save_manifest(posts, self.manifest)
        loaded = data.load_manifest(self.manifest)
        gated, _ = data.similarity_gate(loaded)
        splits = data.split(gated, data.SplitSpec(seed=self.seed))
        vocab = build_vocab(splits[0], self.template)
        encoded = [vocab.encode(instruct.render_prompt(self.template, s.title))
                   for s in gated]
        return checks.CorpusOutput(synthesized=synthesized, fabricated=fabricated,
                                   posts=posts, manifest=str(self.manifest),
                                   loaded=loaded, gated=gated, splits=splits,
                                   encoded=encoded)

    def check(self, out):
        digest = _digest(out.manifest)
        if self.first_digest is None:
            checks.check_corpus(out)
            self.first_digest = digest
        elif digest != self.first_digest:
            raise checks.CheckFailed("a repeated corpus round wrote another manifest")


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, CorpusWorkload)}

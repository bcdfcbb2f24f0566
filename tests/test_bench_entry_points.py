"""The library names and call forms the benchmark in umfbench/ relies on:
its tracer patches functions by name, its greedy check calls the
one-sample encode and decode forms, and its train and corpus checks read
back what a resumed run and a saved manifest wrote. A rename, a changed
form or a reader that refuses its writer's output fails here, not only in
a benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from umfdet import checkpoint, data, evalkit, model, trainer

UMFBENCH = Path(__file__).resolve().parents[1] / "umfbench"


@pytest.fixture()
def bench(monkeypatch):
    """umfbench's checks and tracing modules, importable in this test only."""
    monkeypatch.syspath_prepend(str(UMFBENCH))
    yield importlib.import_module("checks"), importlib.import_module("tracing")
    for name in ("checks", "tracing"):
        sys.modules.pop(name, None)


def test_tracer_patch_points_and_greedy_check(bench, tmp_path, toy_corpus, toy_vocab,
                                              template, tiny_config):
    checks, tracing = bench
    params = model.init_model(tiny_config, np.random.default_rng(7))
    posts = toy_corpus[:4]
    encode = model.encode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trainer.train(params, toy_corpus[4:12], [], toy_vocab, template,
                      trainer.TrainConfig(max_steps=1, batch_size=4), tmp_path)
        result = evalkit.evaluate_model(params, posts, toy_vocab, template)
        checks.check_greedy(params, posts, toy_vocab, template, result.predictions)
    finally:
        tracer.uninstall()
    assert model.encode is encode
    seen = {span[0] for span in tracer.spans}
    assert {"trainer.step", "trainer.forward_train", "trainer.adam", "cmoe.forward",
            "model.encode", "model.decode", "model.generate",
            "evalkit.evaluate_model"} <= seen
    assert tracer.ops > 0


def test_resumed_run_and_saved_manifest_pass_the_benchmark_checks(bench, tmp_path, toy_corpus,
                                                                   toy_vocab, template,
                                                                   tiny_config):
    """A run resumed once from its checkpoint, as each train-workload round
    is, a model loaded back from that checkpoint decoding greedily, as in
    the eval workload's set-up, and a manifest saved and loaded back, as in
    the corpus workload."""
    checks, _ = bench
    params = model.init_model(tiny_config, np.random.default_rng(7))
    for steps in (1, 2):
        result = trainer.train(params, toy_corpus[4:12], [], toy_vocab, template,
                               trainer.TrainConfig(max_steps=steps, batch_size=4, log_every=1),
                               tmp_path / "train", resume=steps > 1)
    assert result.steps_run == 2
    checks.check_history(result.history_path, params.config.lambda_cot, check_drop=False)
    checks.check_checkpoint(params, toy_vocab, result.checkpoint_dir)
    loaded, vocab = checkpoint.load_model(result.checkpoint_dir)
    posts = toy_corpus[:4]
    evaluated = evalkit.evaluate_model(loaded, posts, vocab, template)
    checks.check_greedy(loaded, posts, vocab, template, evaluated.predictions)
    path = tmp_path / "toy.jsonl"
    data.save_manifest(toy_corpus, path)
    checks.check_manifest(toy_corpus, path, data.load_manifest(path))

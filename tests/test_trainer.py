"""Optimizer arithmetic, batch loop reproducibility, resume, ablation grid."""

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umfdet import checkpoint as ckpt
from umfdet import data as data_mod
from umfdet import trainer as tr
from umfdet.errors import ConfigError, DataError, NumericsError
from umfdet import ndtensor as nd
from umfdet.cmoe import routing_alignment_loss
from umfdet.data import CotNote
from umfdet.instruct import render_prompt
from umfdet.model import ModelConfig, _target_ids, forward_train, init_model
from umfdet.ndtensor import Tensor

from helpers import JSON_VALUES


@pytest.fixture(scope="module")
def splits(toy_corpus):
    return data_mod.split(toy_corpus, data_mod.SplitSpec(seed=0))


def _tcfg(**kw):
    base = dict(batch_size=2, max_steps=4, eval_every=100, log_every=1, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def _fresh(tiny_config, seed=0):
    return init_model(tiny_config, np.random.default_rng(seed))


def _moments(params):
    """Destinations for the optimizer moments of params."""
    return {key: np.empty(params.values.size) for key in ("adam.m", "adam.v")}


# ---------------------------------------------------------------------------
# configs


def test_train_config_validation():
    tr.TrainConfig()
    for bad in (dict(lr=0.0), dict(beta1=1.0), dict(beta2=-0.1), dict(eps=0.0),
                dict(clip_norm=-1.0), dict(batch_size=0), dict(max_steps=0),
                dict(eval_every=0), dict(log_every=0), dict(routing_aux_coeff=-0.5),
                dict(checkpoint_every=-1), dict(checkpoint_every=-3)):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)


@pytest.mark.parametrize("key", ["lr", "beta1", "beta2", "eps", "clip_norm",
                                 "routing_aux_coeff", "target_val_acc"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_values_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        tr.TrainConfig(**{key: value})


def test_config_hash_is_content_addressed():
    h1 = tr.config_hash({"a": 1, "b": [2, 3]})
    h2 = tr.config_hash({"b": [2, 3], "a": 1})
    h3 = tr.config_hash({"a": 1, "b": [2, 4]})
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 12
    assert all(c in "0123456789abcdef" for c in h1)


# ---------------------------------------------------------------------------
# optimizer


def _mirror_adam_step(values, g, m, v, t, lr, b1, b2, eps):
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    update = lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return values - update, m, v


# two whole blocks and a short tail
_ADAM_N = 2 * tr.ADAM_BLOCK + 5


def test_adam_matches_hand_formula():
    """The blocked update gives the bits of the per-element formula, since
    each element sees the same arithmetic in the same order."""
    rng = np.random.default_rng(0)
    values, grads = rng.normal(size=_ADAM_N), np.zeros(_ADAM_N)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    optim = tr.Adam(values, grads, lr, b1, b2, eps)
    ref_vals = values.copy()
    ref_m = np.zeros_like(ref_vals)
    ref_v = np.zeros_like(ref_vals)
    for t in range(1, 4):
        grads[...] = rng.normal(size=_ADAM_N)
        optim.step()
        ref_vals, ref_m, ref_v = _mirror_adam_step(ref_vals, grads, ref_m, ref_v,
                                                   t, lr, b1, b2, eps)
        assert np.array_equal(values, ref_vals), t
        assert np.array_equal(optim.m, ref_m), t
        assert np.array_equal(optim.v, ref_v), t
    assert optim.t == 3


def test_adam_moments_round_trip():
    """The two moment arrays and the step are all an optimizer needs to
    continue: one given them steps to the same bits."""
    grads = np.random.default_rng(1).normal(size=_ADAM_N)
    values = np.ones(_ADAM_N)
    optim = tr.Adam(values, grads, 0.01, 0.9, 0.999, 1e-8)
    optim.step()
    arrays = optim.moment_arrays()
    assert set(arrays) == {"adam.m", "adam.v"}
    values2 = values.copy()
    optim2 = tr.Adam(values2, grads, 0.01, 0.9, 0.999, 1e-8)
    for key, moment in optim2.moment_arrays().items():
        moment[...] = arrays[key]
    optim2.t = optim.t
    optim.step()
    optim2.step()
    assert np.array_equal(values2, values)
    assert np.array_equal(optim2.m, optim.m)
    assert np.array_equal(optim2.v, optim.v)


def test_clip_global_norm_scales_only_above_threshold():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad[...] = [3.0, 0.0, 0.0]
    b.grad[...] = [0.0, 4.0, 0.0, 0.0]
    norm = tr.clip_global_norm([a, b], 10.0)   # 3-4-5 triangle, below threshold
    assert norm == 5.0
    assert a.grad[0] == 3.0 and b.grad[1] == 4.0
    norm = tr.clip_global_norm([a, b], 1.0)
    assert norm == 5.0
    post = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
    assert abs(post - 1.0) < 1e-12


def test_clip_global_norm_zero_disables():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad[...] = [6.0, 8.0]
    assert tr.clip_global_norm([a], 0.0) == 10.0
    assert np.array_equal(a.grad, [6.0, 8.0])


# ---------------------------------------------------------------------------
# batches


@given(n=st.integers(1, 30), batch_size=st.integers(1, 12), seed=st.integers(0, 2 ** 64),
       k=st.integers(1, 12), order=st.randoms(use_true_random=False))
def test_batches_are_a_function_of_seed_and_step(n, batch_size, seed, k, order):
    """Step s takes entries (s-1)*B to s*B-1 of the concatenated epoch
    shuffles, whatever steps were drawn before it, so each complete epoch is
    a permutation of the training set."""
    steps = list(range(1, k + 1))
    batches = {s: tr._batch_ids(seed, n, batch_size, s) for s in steps}
    order.shuffle(steps)
    assert {s: tr._batch_ids(seed, n, batch_size, s) for s in steps} == batches
    stream = [i for s in range(1, k + 1) for i in batches[s]]
    assert len(stream) == k * batch_size
    perms = [np.random.default_rng([seed, 0, e]).permutation(n).tolist()
             for e in range(len(stream) // n + 1)]
    assert stream == sum(perms, [])[:len(stream)]
    for e in range(len(stream) // n):
        assert sorted(stream[e * n:(e + 1) * n]) == list(range(n))


# ---------------------------------------------------------------------------
# training loop


def test_train_smoke_outputs(tmp_path, splits, toy_vocab, template, tiny_config):
    train_s, val_s, _ = splits
    params = _fresh(tiny_config)
    result = tr.train(params, train_s, val_s[:4], toy_vocab, template,
                      _tcfg(max_steps=3), tmp_path / "run")
    assert result.steps_run == 3
    assert result.final_val_accuracy is not None
    ckpt_dir = tmp_path / "run" / "checkpoint"
    for name in (ckpt.WEIGHTS_FILE, ckpt.CONFIG_FILE, ckpt.VOCAB_FILE,
                 ckpt.OPTIMIZER_FILE, ckpt.TRAIN_STATE_FILE):
        assert (ckpt_dir / name).exists(), name
    with open(result.history_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss_det", "loss_cot", "loss_total",
                       "grad_norm", "val_acc"]
    assert rows[-1][0] == "3"
    assert rows[-1][5] != ""   # final step always evaluates
    # losses decrease or at least stay finite
    assert all(np.isfinite(float(r[3])) for r in rows[1:])


def test_train_requires_samples(tmp_path, toy_vocab, template, tiny_config):
    with pytest.raises(ConfigError):
        tr.train(_fresh(tiny_config), [], [], toy_vocab, template, _tcfg(),
                 tmp_path / "run")


def test_batch_loss_decomposes(splits, toy_vocab, template, tiny_config):
    train_s, _, _ = splits
    params = _fresh(tiny_config)
    rng = np.random.default_rng(0)
    total, det_avg, cot_avg = tr._batch_loss(params, train_s[:3], toy_vocab,
                                             template, _tcfg(), rng)
    lam = params.config.lambda_cot
    assert abs(float(total.values) - (det_avg + lam * cot_avg)) < 1e-12


def test_alignment_loss_zero_coefficient_is_inert(splits, toy_vocab, template, tiny_config,
                                                  monkeypatch):
    """routing_aux_coeff 0 puts no alignment term in the batch loss's graph."""
    train_s, _, _ = splits
    built = []

    def spy(*args):
        built.append(args)
        return routing_alignment_loss(*args)

    monkeypatch.setattr(tr, "routing_alignment_loss", spy)
    for coeff in (0.0, 0.5):
        tr._batch_loss(_fresh(tiny_config), train_s[:3], toy_vocab, template,
                       _tcfg(routing_aux_coeff=coeff), np.random.default_rng(0))
    assert [args[2] for args in built] == [0.5] * tiny_config.n_moe


def _per_sample_loss(params, batch, vocab, template, tcfg):
    """The minibatch loss as one graph per sample, summed and averaged."""
    lam = params.config.lambda_cot
    total = None
    for sample in batch:
        fr = forward_train(params, [sample], vocab, template, np.random.default_rng(0))
        loss = nd.add(fr.loss_det, nd.scale(fr.loss_cot, lam))
        for routing in fr.routings if tcfg.routing_aux_coeff else ():
            loss = nd.add(loss, routing_alignment_loss(routing, [sample.label],
                                                       tcfg.routing_aux_coeff))
        total = loss if total is None else nd.add(total, loss)
    return nd.scale(total, 1.0 / len(batch))


@pytest.mark.parametrize("moe_enabled", [True, False])
@pytest.mark.parametrize("aux", [0.0, 0.5])
def test_packed_batch_loss_equals_per_sample_sum(toy_corpus, toy_vocab, template,
                                                 tiny_config, moe_enabled, aux):
    cfg = ModelConfig.from_json({**tiny_config.to_json(), "dropout_rate": 0.0,
                                 "n_moe": 2, "moe_enabled": moe_enabled})
    batch = [copy.deepcopy(s) for s in toy_corpus[:5]]
    batch[2].cot = CotNote(think="", answer=batch[2].cot.answer, verdict="accepted")
    prompts = {len(toy_vocab.encode(render_prompt(template, s.title))) for s in batch}
    targets = {len(_target_ids(s, toy_vocab, cfg)[0]) for s in batch}
    assert len(prompts) > 1 and len(targets) > 1, "lengths must be uneven"
    tcfg = _tcfg(routing_aux_coeff=aux)
    grads, losses = [], []
    for build in ("packed", "per_sample"):
        params = _fresh(cfg)
        if build == "packed":
            loss = tr._batch_loss(params, batch, toy_vocab, template, tcfg,
                                  np.random.default_rng(0))[0]
        else:
            loss = _per_sample_loss(params, batch, toy_vocab, template, tcfg)
        loss.backward()
        losses.append(float(loss.values))
        grads.append({name: t.grad.copy() for name, t in params.tensors.items()})
    assert abs(losses[0] - losses[1]) < 1e-12
    for name, g in grads[1].items():
        assert np.allclose(grads[0][name], g, rtol=0.0, atol=1e-12), name
    routed = [name for name, g in grads[1].items() if "router" in name and g.any()]
    assert bool(routed) == moe_enabled


# helpers.recipe_digests on this host's OpenBLAS (DYNAMIC_ARCH) with one BLAS
# thread. A change that moves trained bytes on purpose updates these pins and
# says why.
_RECIPE_DIGESTS = {
    "vocab": [150, "ef4e7abb6b760f2d"],
    "0.0/False": ["05d9fcdedd0d46fb", "e69deda0b37290d9", "68fdf8263531f05e",
                  "b1d903c2f2620a5f", "7df16070810c75ad"],
    "0.5/False": ["c7d2ff2b17b11946", "a62e72d216a2775a", "476599d043ad4162",
                  "f8130634b8bb41bf", "e07f2fd518ed08c9"],
    "0.0/True": ["977e8c0c397e9284", "d5ed7ddf20b11b3e", "38e8b302da5df47f",
                 "28b45282409d6d51", "e2a11c0da23efe23"],
    "0.5/True": ["41a955d413c205f1", "93214e7b77d384d1", "110bd91eef00185e",
                 "f8e70567d3932727", "e2216026b7d74df5"],
}


def test_recipe_trains_pinned_bytes_and_resumes_to_them(tmp_path):
    """The 12-step recipe in a fresh process with one BLAS thread, so that
    the matrix products round the same way in every run."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = ("import json, sys, helpers\n"
            "print(json.dumps(helpers.recipe_digests(sys.argv[1])))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True).stdout
    digests = json.loads(out)
    assert digests.pop("resumed") == _RECIPE_DIGESTS["0.5/True"][:4]
    assert digests == _RECIPE_DIGESTS


def test_train_same_seed_bitwise_identical(tmp_path, splits, toy_vocab, template,
                                           tiny_config):
    train_s, val_s, _ = splits
    for name in ("a", "b"):
        tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                 _tcfg(max_steps=3), tmp_path / name)
    wa = (tmp_path / "a" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    wb = (tmp_path / "b" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    assert wa == wb


def test_train_resume_is_bitwise(tmp_path, splits, toy_vocab, template, tiny_config):
    """Seven posts in batches of two: the resume at step 3 falls mid-epoch,
    and step 4's batch spans the first and second epochs."""
    train_s, val_s, _ = splits
    train_s = train_s[:7]
    for coeff in (0.0, 0.5):
        runs = tmp_path / f"aux{coeff}"
        straight = tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                            _tcfg(max_steps=6, eval_every=3, routing_aux_coeff=coeff),
                            runs / "straight")
        assert straight.steps_run == 6
        first = tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                         _tcfg(max_steps=3, eval_every=3, routing_aux_coeff=coeff),
                         runs / "resumed")
        assert first.steps_run == 3
        params, vocab = ckpt.load_model(runs / "resumed" / "checkpoint")
        second = tr.train(params, train_s, val_s[:2], vocab, template,
                          _tcfg(max_steps=6, eval_every=3, routing_aux_coeff=coeff),
                          runs / "resumed", resume=True)
        assert second.steps_run == 6
        for name in (f"checkpoint/{ckpt.WEIGHTS_FILE}", f"checkpoint/{ckpt.OPTIMIZER_FILE}",
                     "history.csv"):
            assert ((runs / "straight" / name).read_bytes()
                    == (runs / "resumed" / name).read_bytes()), (coeff, name)


def test_train_resume_refuses_another_training_set_size(tmp_path, splits, toy_vocab,
                                                        template, tiny_config):
    train_s, _, _ = splits
    tr.train(_fresh(tiny_config), train_s, [], toy_vocab, template, _tcfg(max_steps=2),
             tmp_path / "run")
    params, vocab = ckpt.load_model(tmp_path / "run" / "checkpoint")
    with pytest.raises(ConfigError, match=f"train_size {len(train_s)}, not the "
                                          f"{len(train_s) - 2} given") as info:
        tr.train(params, train_s[:-2], [], vocab, template, _tcfg(max_steps=4),
                 tmp_path / "run", resume=True)
    assert str(tmp_path / "run" / "checkpoint") in str(info.value)


@pytest.fixture(scope="module")
def one_step_run(tmp_path_factory, splits, toy_vocab, template, tiny_config):
    """A run directory and its checkpoint after one step on eight posts."""
    out = tmp_path_factory.mktemp("one_step") / "run"
    tr.train(_fresh(tiny_config), splits[0][:8], [], toy_vocab, template, _tcfg(max_steps=1),
             out)
    return out


_STATE_FIELDS = ["step", "seed", "batch_size", "train_size", "history_bytes",
                 "freeze_patch_embedder", "mystery"]


@given(field=st.sampled_from(_STATE_FIELDS), value=JSON_VALUES)
def test_resume_from_a_fuzzed_train_state_runs_or_is_data_error(
        tmp_path_factory, one_step_run, splits, template, field, value):
    """A train_state.json with one field set to an arbitrary JSON value
    resumes, or is a DataError naming the file. Another valid seed, batch
    size, training-set size or freeze flag is the ConfigError of a resume
    that changes it."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    shutil.copytree(one_step_run, out)
    path = out / "checkpoint" / ckpt.TRAIN_STATE_FILE
    state = json.loads(path.read_text())
    state[field] = value
    path.write_text(json.dumps(state))
    params, vocab = ckpt.load_model(out / "checkpoint")
    try:
        tr.train(params, splits[0][:8], [], vocab, template, _tcfg(max_steps=2), out,
                 resume=True)
    except DataError as exc:
        assert str(path) in str(exc)
    except ConfigError as exc:
        assert f"resume needs the same {field}" in str(exc)


def test_train_resume_without_state(tmp_path, splits, toy_vocab, template, tiny_config):
    train_s, _, _ = splits
    with pytest.raises(ConfigError, match="resume"):
        tr.train(_fresh(tiny_config), train_s, [], toy_vocab, template, _tcfg(),
                 tmp_path / "none", resume=True)


def test_train_aborts_on_nan(tmp_path, splits, toy_vocab, template, tiny_config):
    train_s, _, _ = splits
    params = _fresh(tiny_config)
    params.tensors["head.W"].values[:] = np.nan
    with pytest.raises(NumericsError, match="step 1") as exc:
        tr.train(params, train_s, [], toy_vocab, template, _tcfg(),
                 tmp_path / "run")
    assert "toy-" in str(exc.value)  # offending batch ids are cited


def test_train_freeze_keeps_visual_embedder_fixed(tmp_path, splits, toy_vocab,
                                                  template, tiny_config):
    """Frozen weights keep their bits through training and a resume: their
    gradients are zeroed, so their moments stay exactly 0."""
    train_s, _, _ = splits
    params = _fresh(tiny_config)
    frozen = [name for name in params.tensors if name.startswith(tr.FREEZE_VISUAL_PREFIXES)]
    before = {name: params.tensors[name].values.copy() for name in frozen + ["tok_emb"]}
    tr.train(params, train_s, [], toy_vocab, template,
             _tcfg(max_steps=2, freeze_patch_embedder=True), tmp_path / "run")
    assert not np.array_equal(params.tensors["tok_emb"].values, before["tok_emb"])
    resumed, vocab = ckpt.load_model(tmp_path / "run" / "checkpoint")
    tr.train(resumed, train_s, [], vocab, template,
             _tcfg(max_steps=4, freeze_patch_embedder=True), tmp_path / "run", resume=True)
    for p in (params, resumed):
        for name in frozen:
            assert p.tensors[name].values.tobytes() == before[name].tobytes(), name
    moments = _moments(resumed)
    ckpt.read_tensor_file(tmp_path / "run" / "checkpoint" / ckpt.OPTIMIZER_FILE, moments)
    start = 0
    for name, t in resumed.tensors.items():
        end = start + t.values.size
        if name in frozen:
            assert not moments["adam.m"][start:end].any() and not moments["adam.v"][start:end].any()
        start = end


@pytest.mark.parametrize("frozen", [False, True])
def test_train_resume_refuses_another_freeze_flag(tmp_path, splits, toy_vocab, template,
                                                  tiny_config, frozen):
    """Turning the freeze on at a resume would move the frozen weights
    through their old moments, and turning it off would restart them from
    moments of 0; a resume refuses either."""
    train_s, _, _ = splits
    tr.train(_fresh(tiny_config), train_s, [], toy_vocab, template,
             _tcfg(max_steps=2, freeze_patch_embedder=frozen), tmp_path / "run")
    params, vocab = ckpt.load_model(tmp_path / "run" / "checkpoint")
    with pytest.raises(ConfigError, match=f"freeze_patch_embedder {frozen}, not the "
                                          f"{not frozen} given; resume needs the same "
                                          f"freeze_patch_embedder"):
        tr.train(params, train_s, [], vocab, template,
                 _tcfg(max_steps=4, freeze_patch_embedder=not frozen), tmp_path / "run",
                 resume=True)


def _assert_tiled(params):
    """Each weight's values and gradient are views of params.values and
    params.grads, and the views tile both arrays in insertion order."""
    def address(a):
        return a.__array_interface__["data"][0]

    start = 0
    for t in params.tensors.values():
        for view, store in ((t.values, params.values), (t.grad, params.grads)):
            assert np.shares_memory(view, store) and view.flags.c_contiguous
            assert address(view) == address(store) + store.itemsize * start
        start += t.values.size
    assert start == params.values.size == params.grads.size


def test_weights_and_gradients_are_views_into_the_store(tmp_path, splits, toy_vocab,
                                                        template, tiny_config):
    params = _fresh(tiny_config)
    _assert_tiled(params)
    assert "values=" not in repr(params) and "grads=" not in repr(params)
    tr.train(params, splits[0][:8], [], toy_vocab, template, _tcfg(max_steps=1),
             tmp_path / "run")
    _assert_tiled(params)
    assert params.grads.any()
    loaded, _ = ckpt.load_model(tmp_path / "run" / "checkpoint")
    _assert_tiled(loaded)
    assert loaded.values.tobytes() == params.values.tobytes()


def test_train_early_stop_on_target(tmp_path, splits, toy_vocab, template, tiny_config):
    train_s, val_s, _ = splits
    result = tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                      _tcfg(max_steps=50, eval_every=2, target_val_acc=0.0),
                      tmp_path / "run")
    assert result.stopped_early
    assert result.steps_run == 2


def test_train_routing_aux_changes_updates(tmp_path, splits, toy_vocab, template,
                                           tiny_config):
    train_s, _, _ = splits
    pa = _fresh(tiny_config)
    tr.train(pa, train_s, [], toy_vocab, template, _tcfg(max_steps=2),
             tmp_path / "plain")
    pb = _fresh(tiny_config)
    tr.train(pb, train_s, [], toy_vocab, template,
             _tcfg(max_steps=2, routing_aux_coeff=0.5), tmp_path / "aux")
    router = "cmoe.0.router.W"
    assert not np.array_equal(pa.tensors[router].values, pb.tensors[router].values)


def test_train_periodic_checkpointing(tmp_path, splits, toy_vocab, template,
                                      tiny_config):
    train_s, _, _ = splits
    seen = []

    class Spy:
        def __init__(self, real):
            self.real = real

        def __call__(self, *args):
            seen.append(args[-1])
            self.real(*args)

    real = tr._save_all
    tr._save_all = Spy(real)
    try:
        tr.train(_fresh(tiny_config), train_s, [], toy_vocab, template,
                 _tcfg(max_steps=5, checkpoint_every=2), tmp_path / "run")
    finally:
        tr._save_all = real
    assert seen == [2, 4, 5]


def test_train_resumes_from_a_periodic_checkpoint_after_a_crash(
        tmp_path, splits, toy_vocab, template, tiny_config, monkeypatch):
    """A run killed while writing its step-4 checkpoint resumes from the
    step-2 one to the straight run's weights and history.csv, byte for byte;
    the log on disk already holds every step a checkpoint holds."""
    train_s, val_s, _ = splits
    tcfg = _tcfg(max_steps=4, checkpoint_every=2)
    tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template, tcfg,
             tmp_path / "straight")

    real, saved_steps, logged_steps = tr._save_all, [], []
    run = tmp_path / "crashed"

    def crash_on_second_save(*args):
        saved_steps.append(args[-1])
        with open(run / "history.csv", newline="", encoding="utf-8") as fh:
            logged_steps.append([row[0] for row in csv.reader(fh)][1:])
        if len(saved_steps) == 2:
            raise RuntimeError("killed while checkpointing")
        real(*args)

    monkeypatch.setattr(tr, "_save_all", crash_on_second_save)
    with pytest.raises(RuntimeError, match="killed"):
        tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template, tcfg, run)
    monkeypatch.undo()
    assert saved_steps == [2, 4]
    assert logged_steps[0] == ["1", "2"]
    state = json.loads((run / "checkpoint" / ckpt.TRAIN_STATE_FILE).read_text())
    assert state["step"] == 2 and state["history_bytes"] < (run / "history.csv").stat().st_size

    params, vocab = ckpt.load_model(run / "checkpoint")
    assert tr.train(params, train_s, val_s[:2], vocab, template, tcfg, run,
                    resume=True).steps_run == 4
    wa = (tmp_path / "straight" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    assert (run / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes() == wa
    straight_log = (tmp_path / "straight" / "history.csv").read_bytes()
    assert (run / "history.csv").read_bytes() == straight_log


def test_fresh_run_killed_before_its_first_save_leaves_nothing_to_resume(
        tmp_path, splits, toy_vocab, template, tiny_config, monkeypatch):
    """A fresh run into a directory that holds an older checkpoint drops that
    checkpoint's trainer state before it rewrites history.csv, so a resume
    after the new run dies cannot continue the older run with the new log."""
    train_s, _, _ = splits
    run = tmp_path / "run"
    params = _fresh(tiny_config, seed=1)
    tr.train(params, train_s, [], toy_vocab, template, _tcfg(max_steps=2, seed=1), run)
    assert ckpt.load_train_state(run / "checkpoint", _moments(params)) is not None

    real, calls = tr._batch_loss, []

    def killed_in_step_4(*args):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("killed in step 4")
        return real(*args)

    monkeypatch.setattr(tr, "_batch_loss", killed_in_step_4)
    with pytest.raises(RuntimeError, match="killed"):
        tr.train(_fresh(tiny_config, seed=5), train_s, [], toy_vocab, template,
                 _tcfg(max_steps=6, seed=5, lr=1e-3), run)
    monkeypatch.undo()
    assert ckpt.load_train_state(run / "checkpoint", _moments(params)) is None
    params, vocab = ckpt.load_model(run / "checkpoint")
    with pytest.raises(ConfigError, match="holds no trainer state"):
        tr.train(params, train_s, [], vocab, template, _tcfg(max_steps=6, seed=5, lr=1e-3),
                 run, resume=True)


# ---------------------------------------------------------------------------
# ablation grid


def test_ablation_grid_shape():
    names = [name for name, _, _ in tr.ABLATION_GRID]
    assert names == ["base", "no_moe", "no_gate_scaling", "no_cot_loss",
                     "routing_aux", "no_dropout"]


def test_ablate_runs_all_variants(tmp_path, splits, toy_vocab, template, tiny_config):
    rows = tr.ablate(splits, toy_vocab, template, tiny_config,
                     _tcfg(max_steps=2), tmp_path / "ablate")
    assert [r["name"] for r in rows] == [name for name, _, _ in tr.ABLATION_GRID]
    hashes = [r["config_hash"] for r in rows]
    assert len(set(hashes)) == len(hashes)
    for r in rows:
        assert 0.0 <= r["test_accuracy"] <= 1.0
        assert 0.0 <= r["macro_f1"] <= 1.0
        assert r["steps"] == 2
    with open(tmp_path / "ablate" / "ablation.json") as fh:
        assert json.load(fh) == rows
    # each variant leaves its own checkpoint behind
    for name, _, _ in tr.ABLATION_GRID:
        assert (tmp_path / "ablate" / name / "checkpoint" / ckpt.WEIGHTS_FILE).exists()

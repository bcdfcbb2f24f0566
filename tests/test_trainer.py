"""Optimizer arithmetic, batch loop reproducibility, resume, ablation grid."""

import copy
import csv
import json

import numpy as np
import pytest

from umfdet import checkpoint as ckpt
from umfdet import data as data_mod
from umfdet import trainer as tr
from umfdet.errors import ConfigError, NumericsError
from umfdet import ndtensor as nd
from umfdet.cmoe import routing_alignment_loss
from umfdet.data import CotNote
from umfdet.instruct import render_prompt
from umfdet.model import ModelConfig, _target_ids, forward_train, init_model
from umfdet.ndtensor import Tensor


@pytest.fixture(scope="module")
def splits(toy_corpus):
    return data_mod.split(toy_corpus, data_mod.SplitSpec(seed=0))


def _tcfg(**kw):
    base = dict(batch_size=2, max_steps=4, eval_every=100, log_every=1, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def _fresh(tiny_config, seed=0):
    return init_model(tiny_config, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# configs


def test_train_config_validation():
    tr.TrainConfig()
    for bad in (dict(lr=0.0), dict(beta1=1.0), dict(beta2=-0.1), dict(eps=0.0),
                dict(clip_norm=-1.0), dict(batch_size=0), dict(max_steps=0),
                dict(eval_every=0), dict(log_every=0), dict(routing_aux_coeff=-0.5)):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)


@pytest.mark.parametrize("key", ["lr", "beta1", "beta2", "eps", "clip_norm",
                                 "routing_aux_coeff"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_values_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        tr.TrainConfig(**{key: value})


def test_train_config_json_round_trip():
    cfg = _tcfg(routing_aux_coeff=0.5, target_val_acc=0.9)
    assert tr.TrainConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_json({"lr": 1e-3, "warmup": 10})


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


def test_adam_matches_hand_formula():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    optim = tr.Adam([("w", w)], lr, b1, b2, eps)
    ref_vals = w.values.copy()
    ref_m = np.zeros_like(ref_vals)
    ref_v = np.zeros_like(ref_vals)
    for t in range(1, 4):
        g = rng.normal(size=(4, 3))
        w.zero_grad()
        w.grad[...] = g
        optim.step()
        ref_vals, ref_m, ref_v = _mirror_adam_step(ref_vals, g, ref_m, ref_v,
                                                   t, lr, b1, b2, eps)
        assert np.allclose(w.values, ref_vals, atol=1e-15), t
        assert np.allclose(optim.m["w"], ref_m, atol=1e-15)
        assert np.allclose(optim.v["w"], ref_v, atol=1e-15)
    assert optim.t == 3


def test_adam_moments_round_trip():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    optim = tr.Adam([("w", w)], 0.01, 0.9, 0.999, 1e-8)
    w.grad[...] = 0.5
    optim.step()
    arrays = optim.moment_arrays()
    assert set(arrays) == {"adam.m.w", "adam.v.w"}
    w2 = Tensor(np.ones((2, 2)), requires_grad=True)
    optim2 = tr.Adam([("w", w2)], 0.01, 0.9, 0.999, 1e-8)
    optim2.load_moments(arrays, optim.t)
    assert optim2.t == 1
    assert np.array_equal(optim2.m["w"], optim.m["w"])
    assert np.array_equal(optim2.v["w"], optim.v["w"])


def test_clip_global_norm_scales_only_above_threshold():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad[...] = [3.0, 0.0, 0.0]
    b.grad[...] = [0.0, 4.0, 0.0, 0.0]
    named = [("a", a), ("b", b)]
    norm = tr.clip_global_norm(named, 10.0)   # 3-4-5 triangle, below threshold
    assert norm == 5.0
    assert a.grad[0] == 3.0 and b.grad[1] == 4.0
    norm = tr.clip_global_norm(named, 1.0)
    assert norm == 5.0
    post = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
    assert abs(post - 1.0) < 1e-12


def test_clip_global_norm_zero_disables():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad[...] = [6.0, 8.0]
    assert tr.clip_global_norm([("a", a)], 0.0) == 10.0
    assert np.array_equal(a.grad, [6.0, 8.0])


# ---------------------------------------------------------------------------
# sampler


def test_sampler_covers_epochs_without_repeats():
    sampler = tr._Sampler(5, np.random.default_rng(0))
    seen = sampler.next_batch(5)
    assert sorted(seen) == [0, 1, 2, 3, 4]
    second = sampler.next_batch(5)
    assert sorted(second) == [0, 1, 2, 3, 4]


def test_sampler_state_round_trip():
    rng = np.random.default_rng(3)
    a = tr._Sampler(7, rng)
    a.next_batch(4)
    state = a.state()
    rng_state = rng.bit_generator.state
    upcoming = [a.next_batch(3) for _ in range(4)]

    rng2 = np.random.default_rng(99)
    b = tr._Sampler(7, rng2)
    b.load(json.loads(json.dumps(state)))      # survives JSON round trip
    rng2.bit_generator.state = rng_state
    assert [b.next_batch(3) for _ in range(4)] == upcoming


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
        fr = forward_train(params, [sample], vocab, template, training=True,
                           rng=np.random.default_rng(0))
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
    targets = {len(_target_ids(s, toy_vocab)) for s in batch}
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
    train_s, val_s, _ = splits
    straight = tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                        _tcfg(max_steps=6), tmp_path / "straight")

    first = tr.train(_fresh(tiny_config), train_s, val_s[:2], toy_vocab, template,
                     _tcfg(max_steps=3), tmp_path / "resumed")
    assert first.steps_run == 3
    params, vocab = ckpt.load_model(tmp_path / "resumed" / "checkpoint")
    second = tr.train(params, train_s, val_s[:2], vocab, template,
                      _tcfg(max_steps=6), tmp_path / "resumed", resume=True)
    assert second.steps_run == 6

    wa = (tmp_path / "straight" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    wb = (tmp_path / "resumed" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    assert wa == wb


def test_train_resume_refuses_another_training_set_size(tmp_path, splits, toy_vocab,
                                                        template, tiny_config):
    train_s, _, _ = splits
    tr.train(_fresh(tiny_config), train_s, [], toy_vocab, template, _tcfg(max_steps=2),
             tmp_path / "run")
    params, vocab = ckpt.load_model(tmp_path / "run" / "checkpoint")
    with pytest.raises(ConfigError, match=f"{len(train_s)} samples, not the "
                                          f"{len(train_s) - 2} given") as info:
        tr.train(params, train_s[:-2], [], vocab, template, _tcfg(max_steps=4),
                 tmp_path / "run", resume=True)
    assert str(tmp_path / "run" / "checkpoint") in str(info.value)


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
    train_s, _, _ = splits
    params = _fresh(tiny_config)
    before = {name: params.tensors[name].values.copy()
              for name in ("patch_proj.W", "vis_proj.W", "vis_pos_emb", "tok_emb")}
    tr.train(params, train_s, [], toy_vocab, template,
             _tcfg(max_steps=2, freeze_patch_embedder=True), tmp_path / "run")
    assert np.array_equal(params.tensors["patch_proj.W"].values, before["patch_proj.W"])
    assert np.array_equal(params.tensors["vis_proj.W"].values, before["vis_proj.W"])
    assert np.array_equal(params.tensors["vis_pos_emb"].values, before["vis_pos_emb"])
    assert not np.array_equal(params.tensors["tok_emb"].values, before["tok_emb"])


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

        def __call__(self, ckpt_dir, params, vocab, optim, rng, sampler, step):
            seen.append(step)
            self.real(ckpt_dir, params, vocab, optim, rng, sampler, step)

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
    assert json.loads((run / "checkpoint" / ckpt.TRAIN_STATE_FILE).read_text())["step"] == 2

    params, vocab = ckpt.load_model(run / "checkpoint")
    assert tr.train(params, train_s, val_s[:2], vocab, template, tcfg, run,
                    resume=True).steps_run == 4
    wa = (tmp_path / "straight" / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes()
    assert (run / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes() == wa
    straight_log = (tmp_path / "straight" / "history.csv").read_bytes()
    assert (run / "history.csv").read_bytes() == straight_log


_HEADER = ",".join(tr.HISTORY_HEADER)


@pytest.mark.parametrize("lines,kept", [
    (None, []),                                        # no log yet
    ([_HEADER, "1,a", "2,b", "3,c"], ["1", "2"]),      # rows past the checkpoint go
    (["1,a", "2,b"], ["1", "2"]),                      # a log that lost its header
    ([_HEADER, "1,a", "x,b", "2,c"], ["1"]),           # a row that does not parse ends it
    ([_HEADER, "1,a", "1,b", "2,c"], ["1"]),           # so does a step that does not increase
    ([_HEADER, "", "1,a"], []),
])
def test_resume_keeps_the_logged_rows_up_to_the_checkpoint(tmp_path, lines, kept):
    path = tmp_path / "history.csv"
    if lines is not None:
        path.write_text("".join(f"{line}\r\n" for line in lines), encoding="utf-8")
    assert [row[0] for row in tr._logged_rows(path, 2)] == kept


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

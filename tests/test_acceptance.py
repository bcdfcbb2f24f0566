"""End-to-end guarantee suite.

Each test exercises one contract-level guarantee of the package at its stated
tolerance and prints exactly one PASS line (with the measured numbers) when it
holds; a failing test is the corresponding FAIL line in the pytest report.
Heavyweight corpora and training runs are shared through module-scoped
fixtures, and every randomized check is seeded so reruns are reproducible.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import copy
import inspect
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from umfdet import checkpoint as ckpt
from umfdet import cli, cmoe, cot, data, evalkit, instruct, model, textforge, trainer
from umfdet import ndtensor as nd
from umfdet.data import Category
from umfdet.ndtensor import Tensor

from helpers import check_grads, wsum


def _ok(msg: str) -> None:
    print(f"PASS: {msg}", flush=True)


# ---------------------------------------------------------------------------
# shared heavyweight fixtures


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def corpus900():
    return data.synth_toy_corpus(900, 0.9, seed=11)


@pytest.fixture(scope="module")
def splits900(corpus900):
    return data.split(corpus900, data.SplitSpec())


@pytest.fixture(scope="module")
def vocab900(corpus900, template):
    return instruct.build_vocab(corpus900, template)


@pytest.fixture(scope="module")
def trained900(splits900, vocab900, template, work):
    """Default-architecture detector trained on the strong-cue corpus."""
    train_s, val_s, _ = splits900
    mcfg = model.ModelConfig(vocab_size=len(vocab900))
    params = model.init_model(mcfg, np.random.default_rng(0))
    tcfg = trainer.TrainConfig(max_steps=2000, batch_size=8, eval_every=100,
                               log_every=100, seed=0, target_val_acc=0.94)
    started = time.time()
    result = trainer.train(params, train_s, val_s, vocab900, template, tcfg,
                           work / "main_run")
    return params, result, time.time() - started


# ---------------------------------------------------------------------------
# gradients: every op, plus the composed expert / encoder / decoder paths


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _scalar(y, w=None):
    """Collapse any [N, H] tensor to a 0-d tensor: the sum of its entries, or
    with w [H, 1] the sum of y @ w."""
    if w is not None:
        y = nd.linear(y, w, Tensor(np.zeros(1)))
    return wsum(y, np.ones(y.values.size))


def _op_roster():
    """Builders named after the ndtensor op they cover (op or op_<variant>);
    builder(rng) -> (scalar closure, tensors)."""

    def add(rng):
        a, b, w = _rand(rng, 3, 4), _rand(rng, 3, 4), _rand(rng, 4, 1)
        return lambda: _scalar(nd.add(a, b), w), [a, b, w]

    def scale(rng):
        a = _rand(rng, 3, 4)
        return lambda: _scalar(nd.scale(a, -1.7)), [a]

    def scale_by(rng):
        a = _rand(rng, 3, 4)
        s = Tensor(np.asarray(rng.normal()), requires_grad=True)
        return lambda: _scalar(nd.scale_by(a, s)), [a, s]

    def linear(rng):
        x, w, b = _rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)
        return lambda: _scalar(nd.linear(x, w, b)), [x, w, b]

    def linear_untracked_input(rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w, b, m = _rand(rng, 4, 2), _rand(rng, 2), _rand(rng, 2, 1)
        return lambda: _scalar(nd.linear(x, w, b), m), [w, b, m]

    def concat_rows(rng):
        a, b, w = _rand(rng, 2, 4), _rand(rng, 3, 4), _rand(rng, 4, 1)
        return lambda: _scalar(nd.concat([a, b]), w), [a, b, w]

    def _attention(rng, tq, tk, mask):
        q, k, v, w = _rand(rng, tq, 4), _rand(rng, tk, 4), _rand(rng, tk, 4), _rand(rng, 4, 1)
        return lambda: _scalar(nd.attention(q, k, v, 2, mask), w), [q, k, v, w]

    def attention_causal(rng):
        return _attention(rng, 4, 4, np.triu(np.full((4, 4), -1e30), k=1))

    def attention_cross(rng):
        return _attention(rng, 3, 5, None)

    def attention_offset_causal(rng):
        return _attention(rng, 2, 5, np.triu(np.full((2, 5), -1e30), k=4))

    def _batched_attention(rng, tq, tk, mask):
        q, k, v = _rand(rng, 3 * tq, 4), _rand(rng, 3 * tk, 4), _rand(rng, 3 * tk, 4)
        w = _rand(rng, 4, 1)
        return lambda: _scalar(nd.attention(q, k, v, 2, mask, batch=3), w), [q, k, v, w]

    def _key_padding(lengths, tk):
        return np.where(np.arange(tk) < np.array(lengths)[:, None], 0.0, -1e30)[:, None]

    def attention_batched_padding(rng):
        return _batched_attention(rng, 4, 4, _key_padding([4, 1, 3], 4))

    def attention_batched_causal(rng):
        return _batched_attention(rng, 3, 3, np.triu(np.full((3, 3), -1e30), k=1))

    def attention_batched_cross(rng):
        return _batched_attention(rng, 2, 5, _key_padding([5, 2, 4], 5))

    def attention_head_major_kv(rng):
        # keys and values already split into heads, [B, heads, Tk, dh], as a
        # decode cache keeps them
        q, k, v = _rand(rng, 3 * 2, 4), _rand(rng, 3, 2, 5, 2), _rand(rng, 3, 2, 5, 2)
        w = _rand(rng, 4, 1)
        return (lambda: _scalar(nd.attention(q, k, v, 2, _key_padding([5, 2, 4], 5), batch=3),
                                w), [q, k, v, w])

    def pick(rng):
        a = _rand(rng, 3, 4)
        return lambda: nd.scale(nd.pick(a, (1, 2)), 2.5), [a]

    def mean_rows(rng):
        a, w = _rand(rng, 4, 5), _rand(rng, 5, 1)
        return lambda: _scalar(nd.mean_rows(a, [4]), w), [a, w]

    def mean_rows_blocks(rng):
        a, w = _rand(rng, 6, 5), _rand(rng, 5, 1)
        return lambda: _scalar(nd.mean_rows(a, [3, 1]), w), [a, w]

    def scale_by_blocks(rng):
        a, s = _rand(rng, 6, 4), _rand(rng, 3)
        return lambda: _scalar(nd.scale_by(a, s)), [a, s]

    def gated_silu(rng):
        a, b, w = _rand(rng, 3, 4), _rand(rng, 3, 4), _rand(rng, 4, 1)
        return lambda: _scalar(nd.gated_silu(a, b), w), [a, b, w]

    def silu(rng):
        a, w = _rand(rng, 3, 4), _rand(rng, 4, 1)
        return lambda: _scalar(nd.silu(a), w), [a, w]

    def softmax(rng):
        a, w = _rand(rng, 3, 5), _rand(rng, 5, 1)
        return lambda: _scalar(nd.softmax(a), w), [a, w]

    def dropout(rng):
        a, w = _rand(rng, 4, 5), _rand(rng, 5, 1)
        # fresh generator per call: identical mask on every rebuild
        return (lambda: _scalar(nd.dropout(a, 0.3, np.random.default_rng(1234)), w),
                [a, w])

    def layer_norm(rng):
        a = _rand(rng, 3, 5)
        gamma = Tensor(rng.normal(size=5) + 1.0, requires_grad=True)
        beta = _rand(rng, 5)
        return lambda: _scalar(nd.layer_norm(a, gamma, beta)), [a, gamma, beta]

    def embedding(rng):
        table, w = _rand(rng, 7, 4), _rand(rng, 4, 1)
        ids = [1, 0, 3, 3, 6]  # duplicate row: gradients must accumulate
        return lambda: _scalar(nd.embedding(table, ids), w), [table, w]

    def cross_entropy_lm(rng):
        logits = _rand(rng, 4, 6)
        targets = [2, nd.IGNORE, 0, 5]
        return lambda: nd.cross_entropy_lm(logits, targets), [logits]

    def cross_entropy_lm_weighted(rng):
        logits = _rand(rng, 5, 6)
        targets = [2, nd.IGNORE, 0, 5, 1]
        weights = rng.uniform(0.1, 1.0, size=5)
        return (lambda: nd.cross_entropy_lm(logits, targets, weights=weights)), [logits]

    def expert_path(rng):
        p = model.build_store(cmoe.expert_layout("e", 5), rng)[0]
        x = _rand(rng, 3, 5)
        tensors = list(p.values()) + [x]
        return lambda: _scalar(cmoe.expert_forward(p, "e", x)), tensors

    def routed_layer_path(rng):
        layer = model.build_store(cmoe.layer_layout("m", 6), rng)[0]
        x = _rand(rng, 4, 6)
        tensors = [x] + _under(layer, "m.router")
        tensors += _under(layer, f"m.{cmoe.EXPERT_NAMES[_routed(layer, x, [4])[0]]}")
        return lambda: _scalar(cmoe.cmoe_forward(layer, "m", x, [4])[0]), tensors

    def routed_batch_path(rng):
        layer = model.build_store(cmoe.layer_layout("m", 4), rng)[0]
        x = _rand(rng, 3 * 3, 4)
        lengths = [3, 1, 2]
        tensors = [x] + _under(layer, "m.router")
        for e in sorted(set(_routed(layer, x, lengths))):
            tensors += _under(layer, f"m.{cmoe.EXPERT_NAMES[e]}")
        return (lambda: _scalar(cmoe.cmoe_forward(layer, "m", x, lengths=lengths)[0]),
                tensors)

    return [add, scale, scale_by, scale_by_blocks, linear, linear_untracked_input,
            concat_rows, attention_causal, attention_cross,
            attention_offset_causal, attention_batched_padding, attention_batched_causal,
            attention_batched_cross, attention_head_major_kv, pick, mean_rows,
            mean_rows_blocks, gated_silu, silu, softmax, dropout, layer_norm, embedding,
            cross_entropy_lm, cross_entropy_lm_weighted, expert_path, routed_layer_path,
            routed_batch_path]


def _routed(layer, x, lengths):
    """The expert each sequence of x is routed to."""
    with nd.no_grad():
        return cmoe.route(layer, "m.router", x, lengths).selected.tolist()


def _under(named, prefix):
    return [t for name, t in named.items() if name.startswith(prefix + ".")]


def test_gradients_match_finite_differences_everywhere(toy_corpus, toy_vocab,
                                                       tiny_config, template):
    started = time.time()
    roster = _op_roster()
    worst = 0.0
    for seed in range(100):
        builder = roster[seed % len(roster)]
        fn, tensors = builder(np.random.default_rng(seed))
        worst = max(worst, check_grads(fn, tensors, h=1e-5, tol=1e-4))

    # whole-model path: embeddings -> encoder -> mixture -> decoder -> losses
    sample = toy_corpus[0]
    for seed in (0, 1, 2):
        params = model.init_model(tiny_config, np.random.default_rng(seed))
        small = [t for name, t in sorted(params.tensors.items())
                 if t.values.size <= 20][:4]
        assert small, "expected some low-dimensional parameters to probe"

        def full_loss():
            fr = model.forward_train(params, [sample], toy_vocab, template)
            return nd.add(fr.loss_det, nd.scale(fr.loss_cot,
                                                params.config.lambda_cot))

        worst = max(worst, check_grads(full_loss, small, h=1e-5, tol=1e-4))
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    _ok(f"gradient checks, 100 seeded op/expert cases + 3 full-model cases, "
        f"worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


def test_op_roster_covers_every_ndtensor_op():
    """Finite differences stay the oracle for every op: each public ndtensor
    function that returns a Tensor owns a roster case, the case named after
    the longest op name that is the case's name or a prefix of it plus "_"."""
    public = {name: fn for name, fn in vars(nd).items()
              if inspect.isfunction(fn) and fn.__module__ == nd.__name__
              and not name.startswith("_")}
    ops = {name for name, fn in public.items()
           if inspect.signature(fn).return_annotation == "Tensor"}
    assert set(public) - ops == {"is_grad_enabled", "no_grad"}, \
        "annotate every new ndtensor op with -> Tensor"
    covered = set()
    for case in _op_roster():
        owners = [op for op in ops if case.__name__ == op or case.__name__.startswith(op + "_")]
        covered.add(max(owners, key=len, default=None))
    missing = sorted(ops - covered)
    assert not missing, f"ndtensor ops without a finite-difference case: {missing}"
    _ok(f"all {len(ops)} public ndtensor ops have a finite-difference roster case")


# ---------------------------------------------------------------------------
# routing invariants


def test_routing_shift_invariance_and_gradient_isolation():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        h = int(rng.integers(4, 12))
        r = model.build_store([cmoe.glorot("r.W", h, cmoe.N_EXPERTS),
                               cmoe.bias("r.b", cmoe.N_EXPERTS)], rng)[0]
        x = Tensor(rng.normal(size=(int(rng.integers(1, 6)), h)))
        base = cmoe.route(r, "r", x, [x.shape[0]]).selected
        r["r.b"].values += rng.uniform(-50.0, 50.0)
        assert cmoe.route(r, "r", x, [x.shape[0]]).selected == base

    checked = 0
    for seed in range(60):
        case = np.random.default_rng(seed)
        gate_scaling = seed % 2 == 0
        layer = model.build_store(cmoe.layer_layout("m", 8), case)[0]
        x = Tensor(case.normal(size=(5, 8)), requires_grad=True)
        for t in layer.values():
            t.grad.fill(0.0)
        out, routing = cmoe.cmoe_forward(layer, "m", x, [5], dropout_rate=0.0,
                                         gate_scaling=gate_scaling)
        _scalar(out).backward()
        for idx, expert in enumerate(cmoe.EXPERT_NAMES):
            grads = [np.abs(t.grad).sum() for t in _under(layer, f"m.{expert}")]
            if idx == routing.selected[0]:
                assert sum(grads) > 0, "selected expert received no gradient"
            else:
                assert sum(grads) == 0.0, "unselected expert leaked gradient"
        router_mass = sum(float(np.abs(t.grad).sum())
                          for t in _under(layer, "m.router"))
        if gate_scaling:
            assert router_mass > 0.0, "gate scaling on: router must learn"
        else:
            assert router_mass == 0.0, "gate scaling off: router grad not exactly 0"
        checked += 1
    _ok(f"routing: argmax invariant under 10000 random logit shifts, "
        f"one-expert gradient isolation and gate-scaling on/off router "
        f"gradients verified over {checked} cases")


# ---------------------------------------------------------------------------
# loss bookkeeping


def test_loss_decomposition_holds_at_every_logged_step(toy_corpus, toy_vocab,
                                                       template, work,
                                                       monkeypatch):
    lam = 0.7
    cfg = model.ModelConfig.from_json({**_tiny_cfg_json(toy_vocab), "lambda_cot": lam})
    params = model.init_model(cfg, np.random.default_rng(3))
    records = []
    orig = trainer._batch_loss

    def spy(p, batch, vocab, tpl, tcfg, rng):
        total, det, cot_loss = orig(p, batch, vocab, tpl, tcfg, rng)
        records.append((float(total.values), det, cot_loss))
        return total, det, cot_loss

    monkeypatch.setattr(trainer, "_batch_loss", spy)
    tcfg = trainer.TrainConfig(max_steps=12, batch_size=4, eval_every=100,
                               log_every=1, seed=0)
    trainer.train(params, toy_corpus[:24], toy_corpus[24:30], toy_vocab,
                  template, tcfg, work / "decomp")
    assert len(records) == 12
    worst = max(abs(total - (det + lam * cot_loss))
                for total, det, cot_loss in records)
    assert worst <= 1e-12, f"decomposition drift {worst:.3e} > 1e-12"
    _ok(f"loss decomposition total = detection + {lam}*rationale at every one "
        f"of 12 logged steps, worst drift {worst:.2e} <= 1e-12")


def test_zero_weight_rationale_loss_is_bitwise_inert(toy_corpus, toy_vocab,
                                                     template, work, monkeypatch):
    cfg = model.ModelConfig.from_json({**_tiny_cfg_json(toy_vocab), "lambda_cot": 0.0})

    def detection_only(params, batch, vocab, template, tcfg, rng):
        fr = trainer.forward_train(params, batch, vocab, template, rng)
        return fr.loss_det, float(fr.loss_det.values), float(fr.loss_cot.values)

    blobs = []
    for tag in ("lambda0", "detection_only"):
        if tag == "detection_only":
            monkeypatch.setattr(trainer, "_batch_loss", detection_only)
        params = model.init_model(cfg, np.random.default_rng(5))
        tcfg = trainer.TrainConfig(max_steps=6, batch_size=4, eval_every=100,
                                   log_every=3, seed=9)
        out = work / f"zero_weight_{tag}"
        trainer.train(params, toy_corpus[:24], toy_corpus[24:30], toy_vocab,
                      template, tcfg, out)
        blobs.append((out / "checkpoint" / ckpt.WEIGHTS_FILE).read_bytes())
    assert blobs[0] == blobs[1], "zero-weight rationale loss altered training"
    _ok("zero-weight rationale loss: 6 training steps with lambda_cot = 0 and "
        "6 backed by the detection loss alone produce byte-identical weights")


def _tiny_cfg_json(vocab):
    return model.ModelConfig(h=16, h_v=64, n_heads=2, n_enc=1, n_moe=1,
                             n_dec=1, vocab_size=len(vocab), max_len=128,
                             max_vis_tokens=16, gen_max_tokens=48).to_json()


# ---------------------------------------------------------------------------
# learning on the synthetic corpus


def test_synthetic_corpus_learning_and_no_cue_chance_floor(
        trained900, splits900, vocab900, template, work):
    params, result, elapsed = trained900
    _, _, test_s = splits900
    ev = evalkit.evaluate_model(params, test_s, vocab900, template)
    acc = ev.metrics.accuracy
    assert result.steps_run <= 2000
    assert elapsed < 600.0, f"training took {elapsed:.0f}s (budget 600s)"
    assert acc >= 0.90, f"strong-cue test accuracy {acc:.3f} < 0.90"

    # zero cue strength: no signal may leak, accuracy must sit near chance
    blank = data.synth_toy_corpus(900, 0.0, seed=11)
    vocab0 = instruct.build_vocab(blank, template)
    train0, val0, test0 = data.split(blank, data.SplitSpec())
    params0 = model.init_model(model.ModelConfig(vocab_size=len(vocab0)),
                               np.random.default_rng(0))
    tcfg0 = trainer.TrainConfig(max_steps=400, batch_size=8, eval_every=400,
                                log_every=100, seed=0)
    trainer.train(params0, train0, val0, vocab0, template, tcfg0, work / "no_cue")
    acc0 = evalkit.evaluate_model(params0, test0, vocab0, template).metrics.accuracy
    assert 0.25 <= acc0 <= 0.45, f"no-cue accuracy {acc0:.3f} outside [0.25, 0.45]"
    _ok(f"synthetic-corpus learning: test accuracy {acc:.3f} >= 0.90 after "
        f"{result.steps_run} steps in {elapsed:.0f}s < 600s; zero-cue control "
        f"accuracy {acc0:.3f} inside [0.25, 0.45]")


# ---------------------------------------------------------------------------
# routing specialization under the alignment term


def test_alignment_term_specializes_routing(splits900, vocab900, template, work):
    train_s, val_s, test_s = splits900
    params = model.init_model(model.ModelConfig(vocab_size=len(vocab900)),
                              np.random.default_rng(1))
    tcfg = trainer.TrainConfig(max_steps=2000, batch_size=8, eval_every=100,
                               log_every=100, seed=1, routing_aux_coeff=0.5,
                               target_val_acc=0.94)
    result = trainer.train(params, train_s, val_s, vocab900, template, tcfg,
                           work / "aux_run")
    ev = evalkit.evaluate_model(params, test_s, vocab900, template)
    assert ev.routing is not None
    share = ev.routing.specialization["ai_synthesized"]
    assert share >= 0.85, f"synthesized-content expert share {share:.3f} < 0.85"

    # alignment off: routing stays emergent, the report still normalizes
    fresh = model.init_model(model.ModelConfig(vocab_size=len(vocab900)),
                             np.random.default_rng(2))
    rep = evalkit.evaluate_model(fresh, test_s[:24], vocab900, template).routing
    assert rep is not None and rep.n_samples == 24
    for cnt_layer, pct_layer in zip(rep.counts, rep.percent):
        assert sum(sum(row) for row in cnt_layer) == 24
        for cnt_row, pct_row in zip(cnt_layer, pct_layer):
            if sum(cnt_row) == 0:
                assert pct_row == [0.0, 0.0, 0.0]
            else:
                assert abs(sum(pct_row) - 100.0) < 1e-9
    assert set(rep.specialization) == {"real", "human_crafted", "ai_synthesized"}
    _ok(f"routing specialization: alignment coefficient 0.5 sends "
        f"{share:.3f} >= 0.85 of synthesized test samples to their expert "
        f"(after {result.steps_run} steps); with alignment off the report "
        f"emits and every row normalizes to 100% or stays zero")


# ---------------------------------------------------------------------------
# metrics against an independent oracle


def _brute_metrics(y_true, y_pred):
    cats = list(Category)
    idx = {c: i for i, c in enumerate(cats)}
    conf = [[0] * 3 for _ in range(3)]
    unp = [0, 0, 0]
    for t, p in zip(y_true, y_pred):
        if p is None:
            unp[idx[t]] += 1
        else:
            conf[idx[t]][idx[p]] += 1
    n = len(y_true)
    acc = sum(conf[i][i] for i in range(3)) / n
    precision, recall, f1, support = [], [], [], []
    for i in range(3):
        col = sum(conf[r][i] for r in range(3))
        row = sum(conf[i]) + unp[i]
        p = conf[i][i] / col if col else 0.0
        r = conf[i][i] / row if row else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
        support.append(row)
    return {"accuracy": acc, "precision": precision, "recall": recall,
            "f1": f1, "support": support, "confusion": conf, "unparseable": unp,
            "macro_precision": sum(precision) / 3, "macro_recall": sum(recall) / 3,
            "macro_f1": sum(f1) / 3}


def test_metrics_match_brute_force_oracle_exactly():
    rng = np.random.default_rng(17)
    cats = list(Category)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y_true = [cats[i] for i in rng.integers(0, 3, size=n)]
        y_pred = [None if rng.random() < 0.2 else cats[i]
                  for i in rng.integers(0, 3, size=n)]
        got = evalkit.compute_metrics(y_true, y_pred)
        want = _brute_metrics(y_true, y_pred)
        assert got.accuracy == want["accuracy"]
        per = [got.per_class[c.value] for c in Category]
        assert [m.precision for m in per] == want["precision"]
        assert [m.recall for m in per] == want["recall"]
        assert [m.f1 for m in per] == want["f1"]
        assert [m.support for m in per] == want["support"]
        assert got.confusion == want["confusion"]
        assert got.unparseable_by_class == want["unparseable"]
        assert got.macro_precision == want["macro_precision"]
        assert got.macro_recall == want["macro_recall"]
        assert got.macro_f1 == want["macro_f1"]
        assert sum(sum(r) for r in got.confusion) + got.n_unparseable == n

    hand_true = [Category.REAL, Category.REAL, Category.HUMAN_CRAFTED,
                 Category.AI_SYNTHESIZED]
    hand_pred = [Category.REAL, Category.HUMAN_CRAFTED, Category.HUMAN_CRAFTED,
                 Category.AI_SYNTHESIZED]
    hand = evalkit.compute_metrics(hand_true, hand_pred)
    assert hand.accuracy == 0.75
    assert hand.confusion == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    _ok("metrics equal an independent brute-force oracle exactly on 1000 "
        "randomized 3-class vectors (unparseable kept in recall denominators); "
        "hand-checked 0.75-accuracy case reproduced")


# ---------------------------------------------------------------------------
# rationale quality gate properties


_FILLER = ("the picture and the wording were checked against known reporting "
           "and the tone of the clauses").split()


def _fuzz_sample(rng, gaz):
    surfaces = ["Angela Merkel", "Oslo", "Reuters"]
    picked = [surfaces[i] for i in sorted(rng.choice(3, size=2, replace=False))]
    words = [str(w) for w in rng.choice(_FILLER, size=5)]
    title = f"{picked[0]} statement on {words[0]} {words[1]} reaches {picked[1]}"
    label = list(Category)[int(rng.integers(0, 3))]
    sample = data.NewsSample(
        id=f"fz-{rng.integers(1e9)}", title=title,
        image=data.ImagePayload(feat=np.zeros((4, 64))), label=label,
        annotation=_annotation_for(label))
    return sample, cot.extract_entities(title, gaz), picked


def _annotation_for(label):
    if label is Category.REAL:
        return data.ManipulationAnnotation(kind="none")
    if label is Category.HUMAN_CRAFTED:
        return data.ManipulationAnnotation(kind="pure_fake_text", rewrite_log={})
    return data.ManipulationAnnotation(kind="ai_full_synthesis")


def _good_think(rng, mention):
    n = int(rng.integers(10, 30))
    body = " ".join(str(w) for w in rng.choice(_FILLER, size=n))
    return (f"The [image] lighting looks consistent here. "
            f"The [text] mentions {mention} and {body}.")


class _AlwaysBad(cot.GenClient):
    def __init__(self):
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        return "no tags at all"


class _GoodAt(cot.GenClient):
    def __init__(self, j, good_raw):
        self.j, self.good_raw, self.calls = j, good_raw, 0

    def generate(self, prompt):
        self.calls += 1
        return self.good_raw if self.calls >= self.j else "<think>x</think>"


def test_rationale_gate_accepts_only_fully_valid_records():
    rng = np.random.default_rng(23)
    gaz = cot.Gazetteer({"Angela Merkel": "person", "Oslo": "location",
                         "Reuters": "organization"})
    lo, hi = cot.DEFAULT_THINK_RANGE
    accepted = 0
    for _ in range(200):
        sample, m, picked = _fuzz_sample(rng, gaz)
        think = _good_think(rng, picked[0])
        raw = f"<think>{think}</think><answer>{sample.label.value}</answer>"
        rec = cot.validate_cot(cot.parse_cot(raw), sample, m, gazetteer=gaz)
        assert rec.accepted, rec.reject_reason
        accepted += 1
        assert "[image]" in rec.think and "[text]" in rec.think
        assert rec.answer == sample.label.value
        assert lo <= len(re.findall(r"[\w']+", rec.think)) <= hi
        known = {e.surface.lower() for e in m}
        for e in cot.extract_entities(rec.think, gaz):
            assert (e.surface.lower() in known
                    or re.search(rf"\b{re.escape(e.surface)}\b", sample.title))

        mutations = [
            (raw.replace("[image]", "image"), "missing_grounded_span"),
            (f"<think>{think}</think><answer>maybe real</answer>", "invalid_answer"),
            (f"<think>{think}</think>"
             f"<answer>{_other_label(sample.label)}</answer>", "answer_label_mismatch"),
            ("<think>The [image] is odd. The [text] too.</think>"
             f"<answer>{sample.label.value}</answer>", "think_too_short"),
            (f"<think>The [image] is odd. The [text] says "
             f"{'word ' * (hi + 1)}.</think>"
             f"<answer>{sample.label.value}</answer>", "think_too_long"),
            (f"<think>{think} Also Zorblatt Vexing appears.</think>"
             f"<answer>{sample.label.value}</answer>", "unlinkable_entity"),
        ]
        for bad_raw, reason in mutations:
            bad = cot.validate_cot(cot.parse_cot(bad_raw), sample, m, gazetteer=gaz)
            assert not bad.accepted and bad.reject_reason == reason, (
                f"expected {reason}, got {bad.verdict}:{bad.reject_reason}")

        k = int(rng.integers(1, 6))
        client = _AlwaysBad()
        rec = cot.generate_with_qc(sample, client, k_attempts=k, gazetteer=gaz)
        assert not rec.accepted and rec.attempts_used == k == client.calls

        j = int(rng.integers(1, k + 1))
        client = _GoodAt(j, raw)
        rec = cot.generate_with_qc(sample, client, k_attempts=k, gazetteer=gaz)
        assert rec.accepted and rec.attempts_used == j
    _ok(f"rationale gate: {accepted} fuzz cases all satisfy grounding, "
        f"answer-label, length and entity-linking checks; each of 6 injected "
        f"violations flips the verdict with its reason; regeneration always "
        f"bounded by the attempt budget")


def _other_label(label):
    order = list(Category)
    return order[(order.index(label) + 1) % 3].value


# ---------------------------------------------------------------------------
# headline fabrication fuzz


_FAB_GAZ = {"Angela Merkel": "person", "Oslo": "location",
            "Reuters": "organization", "Lake Garda": "location",
            "Leipzig": "location", "Friday": "event_time"}
_FAB_PAIRS = [("calm", "furious", "adj"), ("quiet", "loud", "adj"),
              ("rising", "falling", "verb"), ("open", "closed", "adj"),
              ("early", "late", "adj"), ("growth", "decline", "noun"),
              ("approve", "reject", "verb"), ("strong", "weak", "adj"),
              ("public", "secret", "adj"), ("win", "loss", "noun")]
_FAB_FILLERS = ["officials", "report", "after", "talks", "over", "plan",
                "city", "vote", "market", "deal", "figures", "season"]


def _fab_title(rng):
    lex_words = [p[0] for p in _FAB_PAIRS]
    n_lex = int(rng.integers(0, 6))
    n_fill = int(rng.integers(3, 7))
    words = [str(w) for w in rng.choice(lex_words, size=n_lex)]
    words += [str(w) for w in rng.choice(_FAB_FILLERS, size=n_fill)]
    rng.shuffle(words)
    surfaces = [str(s) for s in
                rng.choice(sorted(_FAB_GAZ), size=int(rng.integers(0, 3)),
                           replace=False)]
    for surface in surfaces:  # keep entities non-adjacent for clean spans
        slot = int(rng.integers(0, len(words) - 1)) if len(words) > 1 else 0
        words.insert(slot, surface)
        words.insert(slot + 1, str(rng.choice(_FAB_FILLERS)))
    return " ".join(words), surfaces


def _count(surface, text):
    return len(re.findall(rf"(?<!\w){re.escape(surface)}(?!\w)", text))


def test_fabrication_preserves_entities_and_logs_replay():
    rng = np.random.default_rng(29)
    gaz = cot.Gazetteer(_FAB_GAZ)
    lex = textforge.AntonymLexicon(_FAB_PAIRS)
    gen = cot.MockGenClient()
    n_distort = n_fallback = 0
    for _ in range(10_000):
        title, _ = _fab_title(rng)
        m = cot.extract_entities(title, gaz)
        oracle_candidates = sum(1 for w in re.findall(r"[A-Za-z']+", title)
                                if w in lex)
        out, log = textforge.keyword_distortion(title, m, lex, rng, gen=gen)
        for surface in [e.surface for e in m]:
            before, after = _count(surface, title), _count(surface, out)
            assert after >= 1 and (log.strategy != "keyword_distortion"
                                   or after == before), (
                f"entity {surface!r} not preserved: {title!r} -> {out!r}")
        assert textforge.apply_rewrite_log(title, log) == out
        if log.strategy == "keyword_distortion":
            n_distort += 1
            reps = log.replacements
            assert len(reps) in (2, 3)
            if oracle_candidates >= 3:
                assert len(reps) in (2, 3)
            elif oracle_candidates == 2:
                assert len(reps) == 2
            for r in reps:
                assert title[r.position:r.position + len(r.original)] == r.original
                assert lex.antonym(r.original) == r.replacement.lower()
        else:
            assert log.strategy == "pure_fake"
            assert oracle_candidates < 2
            assert out.strip() and out != title
            n_fallback += 1
    assert n_distort and n_fallback, "fuzz corpus must hit both strategies"
    _ok(f"fabrication fuzz over 10000 titles: entity surfaces preserved in "
        f"100% of outputs ({n_distort} keyword distortions, {n_fallback} "
        f"wholesale rewrites), every log slice-exact and replayable, 2-3 "
        f"swaps whenever candidates >= 3")


# ---------------------------------------------------------------------------
# data layer guarantees


def test_similarity_gate_split_and_manifest_guarantees(corpus900, splits900,
                                                       work):
    donor = next(s for s in corpus900 if s.label is Category.AI_SYNTHESIZED)
    at, below, unscored = (copy.deepcopy(donor) for _ in range(3))
    at.annotation.similarity = 0.70
    below.annotation.similarity = 0.699
    unscored.annotation.similarity = None
    kept, dropped = data.similarity_gate([at, below, unscored])
    assert kept == [at, unscored] and dropped == [below]

    train_s, val_s, test_s = splits900
    assert (len(train_s), len(val_s), len(test_s)) == (720, 90, 90)
    for part in (train_s, val_s, test_s):
        per_class = {c: sum(1 for s in part if s.label is c) for c in Category}
        assert len(set(per_class.values())) == 1, f"not stratified: {per_class}"
    ids = [s.id for s in train_s + val_s + test_s]
    assert len(set(ids)) == len(ids) == 900
    assert set(ids) == {s.id for s in corpus900}
    again = data.split(corpus900, data.SplitSpec())
    assert [s.id for s in again[0]] == [s.id for s in train_s]

    path1, path2 = work / "m1.jsonl", work / "m2.jsonl"
    data.save_manifest(corpus900, path1)
    data.save_manifest(data.load_manifest(path1), path2)
    assert path1.read_bytes() == path2.read_bytes()

    by_label = dict(data.REFERENCE_COUNTS)
    assert sum(by_label.values()) == 127_283
    assert data.check_reference_counts(by_label)
    assert not data.check_reference_counts({**by_label, "real": 49_035})
    stats = data.corpus_stats(corpus900)
    assert set(stats["by_label"]) == {"real", "human_crafted", "ai_synthesized"}
    _ok("data layer: similarity gate keeps 0.70 and unscored but drops 0.699; "
        "8:1:1 split partitions 900 samples exactly and stratified; manifest "
        "write-read-write is byte-identical; reference counts "
        "49034+24726+53523=127283 verified")


# ---------------------------------------------------------------------------
# ablation grid


def test_ablation_grid_completes_and_mixture_does_not_hurt(template, work):
    corpus = data.synth_toy_corpus(300, 0.9, seed=3)
    vocab = instruct.build_vocab(corpus, template)
    splits = data.split(corpus, data.SplitSpec())
    mcfg = model.ModelConfig(vocab_size=len(vocab))
    tcfg = trainer.TrainConfig(max_steps=350, batch_size=8, eval_every=50,
                               log_every=50, seed=0, target_val_acc=1.0)
    started = time.time()
    rows = trainer.ablate(splits, vocab, template, mcfg, tcfg, work / "ablate")
    elapsed = time.time() - started
    assert elapsed < 3600.0, f"ablation took {elapsed:.0f}s (budget 3600s)"
    assert [r["name"] for r in rows] == [n for n, _, _ in trainer.ABLATION_GRID]
    for row in rows:
        assert set(row) == {"name", "config_hash", "test_accuracy", "macro_f1",
                            "steps", "duration_s"}
        assert 0.0 <= row["test_accuracy"] <= 1.0
        assert row["steps"] <= 350
    assert len({r["config_hash"] for r in rows}) == len(rows)
    acc = {r["name"]: r["test_accuracy"] for r in rows}
    assert acc["base"] >= acc["no_moe"] - 0.02, (
        f"mixture hurt accuracy: base {acc['base']:.3f} vs "
        f"solo {acc['no_moe']:.3f}")
    # Without the rationale loss the model still learns to answer. Over corpus
    # seeds 1-8 this row read accuracy 0.90-1.00 and macro-F1 0.8997-1.00 with
    # every test answer parsed; before it trained on the answer alone it read 0.0.
    no_cot = next(r for r in rows if r["name"] == "no_cot_loss")
    assert no_cot["test_accuracy"] >= 0.8 and no_cot["macro_f1"] >= 0.8, no_cot
    with open(work / "ablate" / "ablation.json", encoding="utf-8") as fh:
        assert json.load(fh) == rows
    _ok(f"ablation grid: all 6 variants trained and scored in {elapsed:.0f}s "
        f"< 3600s, machine-readable table complete, mixture accuracy "
        f"{acc['base']:.3f} >= solo {acc['no_moe']:.3f} - 0.02")


# ---------------------------------------------------------------------------
# command-level determinism


def test_commands_rerun_byte_identical(work):
    base = work / "cli"
    base.mkdir()
    cfg = base / "model.cfg"
    cfg.write_text("h = 16\nn_heads = 2\nn_enc = 1\nn_moe = 1\nn_dec = 1\n"
                   "max_len = 128\nmax_vis_tokens = 16\ngen_max_tokens = 8\n"
                   "max_steps = 3\n", encoding="utf-8")

    m_a, m_b = base / "synth_a.jsonl", base / "synth_b.jsonl"
    for path in (m_a, m_b):
        assert cli.main(["synth-toy", "--n", "60", "--cue-strength", "0.9",
                         "--seed", "5", "--out", str(path)]) == 0
    assert m_a.read_bytes() == m_b.read_bytes()

    for d in ("train_a", "train_b"):
        assert cli.main(["train", "--manifest", str(m_a), "--out",
                         str(base / d), "--config", str(cfg), "--seed", "4",
                         "--eval-every", "100"]) == 0
    for fname in (ckpt.WEIGHTS_FILE, ckpt.OPTIMIZER_FILE):
        blob_a = (base / "train_a" / "checkpoint" / fname).read_bytes()
        blob_b = (base / "train_b" / "checkpoint" / fname).read_bytes()
        assert blob_a == blob_b, f"{fname} differs between identical runs"
    assert ((base / "train_a" / "history.csv").read_bytes()
            == (base / "train_b" / "history.csv").read_bytes())

    ckpt_dir = str(base / "train_a" / "checkpoint")
    for name, out_a, out_b in (("eval", "eval_a.json", "eval_b.json"),
                               ("route-report", "route_a.json", "route_b.json")):
        for out in (out_a, out_b):
            assert cli.main([name, "--manifest", str(m_a), "--checkpoint",
                             ckpt_dir, "--split", "test", "--out",
                             str(base / out)]) == 0
        assert (base / out_a).read_bytes() == (base / out_b).read_bytes()
    _ok("determinism: reruns of synth-toy, train, eval and route-report with "
        "identical inputs reproduce manifests, checkpoints and reports "
        "byte for byte")

"""Model assembly: config, weights naming, fused encoding, masked losses."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import umfdet.ndtensor as nd
from umfdet import model as M
from umfdet.data import Category, ImagePayload, ManipulationAnnotation, NewsSample
from umfdet.data import CotNote, template_cot
from umfdet.errors import ConfigError, DataError, GraphError
from umfdet.instruct import (ANSWER_CLOSE, ANSWER_OPEN, BOS, EOS, THINK_CLOSE, THINK_OPEN,
                             render_prompt)
from umfdet.ndtensor import Tensor
from umfdet.trainer import FREEZE_VISUAL_PREFIXES

from helpers import backward_keeping_graph


def _sample(feat_width=64, title="Merkel visits the bright harbor in Oslo on Friday",
            label=Category.REAL, think=None) -> NewsSample:
    note = template_cot(label, "Merkel")
    if think is not None:
        note = CotNote(think=think, answer=label.value, verdict="accepted")
    return NewsSample(id="s-0", title=title,
                      image=ImagePayload(feat=np.full((3, feat_width), 0.1)),
                      label=label, annotation=ManipulationAnnotation(), cot=note)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    M.ModelConfig()  # defaults are valid
    with pytest.raises(ConfigError):
        M.ModelConfig(h=30, n_heads=4)
    with pytest.raises(ConfigError):
        M.ModelConfig(n_moe=0)
    with pytest.raises(ConfigError):
        M.ModelConfig(n_moe=5)
    with pytest.raises(ConfigError):
        M.ModelConfig(n_enc=0)
    with pytest.raises(ConfigError):
        M.ModelConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        M.ModelConfig(lambda_cot=-0.5)
    with pytest.raises(ConfigError):
        M.ModelConfig(vocab_size=8)
    with pytest.raises(ConfigError):
        M.ModelConfig(in_channels=2)
    with pytest.raises(ConfigError):
        M.ModelConfig(max_len=8)
    with pytest.raises(ConfigError, match="h_v"):
        M.ModelConfig(h_v=-1)


@pytest.mark.parametrize("key", ["lambda_cot", "dropout_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_values_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        M.ModelConfig(**{key: value})


def test_config_json_round_trip():
    cfg = M.ModelConfig(h=32, n_heads=2, lambda_cot=0.5, moe_enabled=False)
    assert M.ModelConfig.from_json(cfg.to_json()) == cfg
    assert M.ModelConfig.from_json({"dropout_rate": 0}).dropout_rate == 0  # an int is a float
    for obj, match in (({"h": 32, "mystery": 1}, r"unknown keys \['mystery'\]"),
                       ({"h": True}, "h must be of type int, got bool"),
                       ({"lambda_cot": False}, "lambda_cot must be of type int or float"),
                       ({"moe_enabled": 1}, "moe_enabled must be of type bool, got int"),
                       ([], "expected a JSON object, got list")):
        with pytest.raises(ConfigError, match=f"^model config: {match}"):
            M.ModelConfig.from_json(obj)


@pytest.mark.parametrize("sizes", [{"h": 2 ** 62}, {"max_len": 10 ** 15},
                                   {"expansion_ratio": 2 ** 60}],
                         ids=["h", "max_len", "expansion_ratio"])
def test_init_model_unallocatable_sizes_are_config_errors_naming_them(tiny_config, sizes):
    cfg = replace(tiny_config, **sizes)
    (key, value), = sizes.items()
    for rng in (None, np.random.default_rng(0)):
        with pytest.raises(ConfigError, match=f"cannot allocate the weights of .*{key}={value}"):
            M.init_model(cfg, rng)


# ---------------------------------------------------------------------------
# weight naming


def test_init_model_checkpoint_names(tiny_config):
    params = M.init_model(tiny_config, np.random.default_rng(0))
    names = set(params.tensors)
    for expected in ("tok_emb", "pos_emb", "vis_pos_emb", "vis_proj.W", "patch_proj.W",
                     "enc.0.ln1.gamma", "enc.0.attn.Wq", "enc.0.attn.bo",
                     "enc.0.ffn.W1", "cmoe.0.ln.gamma",
                     "cmoe.0.reality.W_a", "cmoe.0.deception.W_out",
                     "cmoe.0.synthesis.b_b", "cmoe.0.router.W", "cmoe.0.router.b",
                     "moe_out_ln.gamma", "dec.0.self_attn.Wq", "dec.0.cross_attn.Wk",
                     "dec.0.ffn.W2", "final_ln.beta", "head.W", "head.b"):
        assert expected in names, expected
    assert sum(n.endswith(".router.W") for n in names) == tiny_config.n_moe


def test_init_model_solo_names_without_moe(tiny_config):
    cfg = M.ModelConfig(**{**tiny_config.to_json(), "moe_enabled": False})
    params = M.init_model(cfg, np.random.default_rng(0))
    assert "cmoe.0.solo.W_a" in params.tensors
    assert "cmoe.0.solo.b_out" in params.tensors
    assert not any(".router." in n or ".reality." in n for n in params.tensors)


@pytest.mark.parametrize("moe_enabled", [True, False])
def test_init_model_without_rng_is_a_zero_skeleton(tiny_config, moe_enabled):
    """Without rng nothing is drawn or written: the names, shapes and
    trainable flags of a drawn model, every value 0, layer-norm gains too."""
    cfg = M.ModelConfig(**{**tiny_config.to_json(), "moe_enabled": moe_enabled})
    drawn = M.init_model(cfg, np.random.default_rng(0)).tensors
    skeleton = M.init_model(cfg, None)
    assert list(skeleton.tensors) == list(drawn)
    for name, t in skeleton.tensors.items():
        assert t.shape == drawn[name].shape and t.requires_grad, name
    assert not skeleton.values.any()


# sha256 of init_model(ModelConfig(moe_enabled=m), default_rng(0)).values: every
# weight's draw order, shape and rounding, and the store order.
INIT_SHA256 = {True: (324_742, "0300f1f35dd9809855fa22523d2288a112e39d278fe920798f900c0779bb5655"),
               False: (224_768, "24a2f1b243ccdccf44a1b9fe79a0724950b6e15ef41b39763dcbabb1da96294a")}


@pytest.mark.parametrize("moe_enabled", [True, False])
def test_init_model_draws_are_pinned(moe_enabled):
    values = M.init_model(M.ModelConfig(moe_enabled=moe_enabled), np.random.default_rng(0)).values
    assert (values.size, hashlib.sha256(values.tobytes()).hexdigest()) == INIT_SHA256[moe_enabled]


def test_layout_inits_are_stds_zeros_or_ones(tiny_config):
    """A float init is drawn, "zeros" stays 0 and "ones" is 1; the store
    holds the rows in layout order."""
    rows = M._layout(tiny_config)
    params = M.init_model(tiny_config, np.random.default_rng(0))
    assert [(name, shape) for name, shape, _ in rows] == [
        (name, t.shape) for name, t in params.tensors.items()]
    for name, _, init in rows:
        values = params.tensors[name].values
        if init == "ones":
            assert name.endswith(".gamma") and (values == 1.0).all(), name
        elif init == "zeros":
            assert not values.any(), name
        else:
            assert type(init) is float and values.all(), name


def test_trainable_freeze_prefixes(tiny_config):
    """The freeze prefixes name exactly the visual embedder's five weights."""
    params = M.init_model(tiny_config, np.random.default_rng(0))
    frozen = [name for name in params.tensors if name.startswith(FREEZE_VISUAL_PREFIXES)]
    assert sorted(frozen) == ["patch_proj.W", "patch_proj.b", "vis_pos_emb", "vis_proj.W",
                              "vis_proj.b"]


# ---------------------------------------------------------------------------
# image embedding


def test_embed_image_feature_payload(tiny_config):
    params = M.init_model(tiny_config, np.random.default_rng(0))
    out = M.embed_image(params, ImagePayload(feat=np.zeros((5, tiny_config.h_v))), "s-0")
    assert out.shape == (5, tiny_config.h)
    # zero features leave only the projection bias plus positional rows
    expected = params.tensors["vis_proj.b"].values + params.tensors["vis_pos_emb"].values[:5]
    assert np.allclose(out.values, expected)


def test_embed_image_raw_patches(tiny_config):
    params = M.init_model(tiny_config, np.random.default_rng(0))
    out = M.embed_image(params, ImagePayload(raw=np.ones((1, 16, 16))), "s-0")
    assert out.shape == (4, tiny_config.h)  # (16/8)^2 patches


def test_embed_image_raw_patch_values_order(tiny_config):
    params = M.init_model(tiny_config, np.random.default_rng(0))
    raw = np.arange(256.0).reshape(1, 16, 16)
    # patch grid row-major: token 1 covers columns 8..15 of rows 0..7
    W = params.tensors["patch_proj.W"].values
    b = params.tensors["patch_proj.b"].values
    pos = params.tensors["vis_pos_emb"].values
    flat = raw[0, 0:8, 8:16].reshape(-1)
    expected = flat @ W + b + pos[1]
    out = M.embed_image(params, ImagePayload(raw=raw), "s-0")
    assert np.allclose(out.values[1], expected)


def test_embed_image_errors(tiny_config):
    params = M.init_model(tiny_config, np.random.default_rng(0))
    with pytest.raises(DataError, match="resolve"):
        M.embed_image(params, ImagePayload(path="img.png"), "s-9")
    with pytest.raises(DataError, match="s-1.*h_v"):
        M.embed_image(params, ImagePayload(feat=np.zeros((2, tiny_config.h_v + 1))), "s-1")
    with pytest.raises(DataError, match="s-2.*channels"):
        M.embed_image(params, ImagePayload(raw=np.zeros((3, 16, 16))), "s-2")
    with pytest.raises(DataError, match="s-3.*multiple"):
        M.embed_image(params, ImagePayload(raw=np.zeros((1, 12, 12))), "s-3")
    with pytest.raises(DataError, match="s-7.*visual tokens"):
        M.embed_image(params, ImagePayload(
            feat=np.zeros((tiny_config.max_vis_tokens + 1, tiny_config.h_v))), "s-7")


# ---------------------------------------------------------------------------
# decoder target


def test_target_ids_encode_the_note_and_split_at_the_answer(toy_vocab, tiny_config):
    sample = _sample()
    ids, k = M._target_ids(sample, toy_vocab, tiny_config)
    assert ids == toy_vocab.encode(sample.cot.target_text()) + [EOS]
    think, answer = ids[:k], ids[k:]
    assert think[0] == THINK_OPEN and think[-1] == THINK_CLOSE and len(think) > 10
    assert answer == [ANSWER_OPEN] + toy_vocab.encode("real") + [ANSWER_CLOSE, EOS]


def test_target_ids_without_a_think_block_have_no_reasoning_span(toy_vocab, tiny_config):
    ids, k = M._target_ids(_sample(think=""), toy_vocab, tiny_config)
    assert k == 0
    assert ids == [ANSWER_OPEN] + toy_vocab.encode("real") + [ANSWER_CLOSE, EOS]


def test_target_ids_without_the_rationale_loss_are_the_answer_alone(toy_vocab, tiny_config,
                                                                    template):
    """With lambda_cot 0 nothing would train the reasoning span, so the target
    is the answer alone: greedy decoding from BOS learns to open it."""
    cfg = replace(tiny_config, lambda_cot=0.0)
    sample = _sample()
    ids, k = M._target_ids(sample, toy_vocab, cfg)
    assert k == 0 and ids[0] == ANSWER_OPEN
    assert THINK_OPEN not in ids and THINK_CLOSE not in ids
    assert ids == M._target_ids(_sample(think=""), toy_vocab, tiny_config)[0]
    fr = M.forward_train(M.init_model(cfg, np.random.default_rng(0)), [sample], toy_vocab,
                         template)
    assert float(fr.loss_cot.values) == 0.0 and float(fr.loss_det.values) > 0.0


@pytest.mark.parametrize("think, answer", [
    ("<think> a", "real"),               # a second <think>
    ("a </think> b", "real"),            # the reasoning closes early
    ("a <answer> b </answer>", "real"),  # an answer block inside the reasoning
])
def test_target_ids_reject_a_rationale_holding_a_marker(toy_vocab, tiny_config, think,
                                                        answer):
    sample = replace(_sample(), id="s-13", cot=CotNote(think, answer, "accepted"))
    with pytest.raises(DataError, match="^sample s-13: rationale holds a <think>/<answer> "
                                        "marker of its own$"):
        M._target_ids(sample, toy_vocab, tiny_config)


@pytest.mark.parametrize("verdict", ["rejected:answer_label_mismatch", "rejected:transport",
                                     "rejected:duplicate_block"])
def test_target_ids_of_a_rejected_note_are_the_gold_label_alone(toy_vocab, tiny_config,
                                                                 verdict):
    """The label is the supervision: a note the gate rejected trains neither
    its think, markers and all, nor its answer."""
    sample = replace(_sample(label=Category.AI_SYNTHESIZED),
                     cot=CotNote("Looks authentic [image] <answer> [text]", "real", verdict))
    ids, k = M._target_ids(sample, toy_vocab, tiny_config)
    assert k == 0
    assert ids == [ANSWER_OPEN] + toy_vocab.encode("ai_synthesized") + [ANSWER_CLOSE, EOS]


# ---------------------------------------------------------------------------
# training forward


@pytest.mark.parametrize("note", [None, CotNote("", "", "rejected:transport")],
                         ids=["no_note", "transport"])
def test_forward_train_without_an_accepted_rationale_trains_the_answer_alone(
        tiny_model, toy_vocab, template, note):
    """A post with no note, or with the note cot-gen writes when every
    request failed, trains beside an accepted one: k is 0, it adds 0 to the
    reasoning loss, and it still counts in B."""
    bare = replace(_sample(), id="s-bare", cot=note)
    ids, k = M._target_ids(bare, toy_vocab, tiny_model.config)
    assert k == 0
    assert ids == [ANSWER_OPEN] + toy_vocab.encode("real") + [ANSWER_CLOSE, EOS]
    alone = M.forward_train(tiny_model, [bare], toy_vocab, template)
    assert float(alone.loss_cot.values) == 0.0 and float(alone.loss_det.values) > 0.0
    accepted = M.forward_train(tiny_model, [_sample()], toy_vocab, template)
    both = M.forward_train(tiny_model, [_sample(), bare], toy_vocab, template)
    assert np.isclose(float(both.loss_cot.values), float(accepted.loss_cot.values) / 2)


def test_forward_train_rejects_a_target_beyond_max_len(tiny_model, toy_vocab, template):
    long = _sample(think="word " * tiny_model.config.max_len)
    long.id = "s-long"
    with pytest.raises(DataError, match="sample s-long: target of .* exceeds max_len 128"):
        M.forward_train(tiny_model, [_sample(), long], toy_vocab, template)


def test_forward_train_needs_a_sample(tiny_model, toy_vocab, template):
    with pytest.raises(DataError, match="at least one sample"):
        M.forward_train(tiny_model, [], toy_vocab, template)


def test_forward_train_losses_and_counts(tiny_model, toy_vocab, template):
    res = M.forward_train(tiny_model, [_sample()], toy_vocab, template)
    assert res.loss_det.values.shape == ()
    assert float(res.loss_det.values) > 0.0
    assert float(res.loss_cot.values) > 0.0
    assert len(res.routings) == tiny_model.config.n_moe
    for r in res.routings:
        assert r.logits.shape == r.weights.shape == (1, 3) and r.selected.shape == (1,)


def test_forward_train_no_think_gives_inert_zero(tiny_model, toy_vocab, template):
    res = M.forward_train(tiny_model, [_sample(think="")], toy_vocab, template)
    assert float(res.loss_cot.values) == 0.0
    assert not res.loss_cot.requires_grad
    assert float(res.loss_det.values) > 0.0


def _fresh(tiny_config):
    return M.init_model(tiny_config, np.random.default_rng(7))


def test_forward_train_deterministic_without_dropout(tiny_config, toy_vocab, template):
    """Without a generator there is no dropout: the losses are finite and two
    passes agree bit for bit, although dropout_rate is nonzero."""
    assert tiny_config.dropout_rate > 0.0
    a = M.forward_train(_fresh(tiny_config), [_sample()], toy_vocab, template)
    b = M.forward_train(_fresh(tiny_config), [_sample()], toy_vocab, template)
    for loss_a, loss_b in ((a.loss_det, b.loss_det), (a.loss_cot, b.loss_cot)):
        assert np.isfinite(loss_a.values)
        assert loss_a.values.tobytes() == loss_b.values.tobytes()


def test_zero_weight_rationale_loss_matches_detection_only(tiny_config, toy_vocab,
                                                           template):
    """Total with a zero-weighted rationale term backs the same gradients,
    bitwise, as a backward from the detection loss alone."""
    sample = _sample()

    pa = _fresh(tiny_config)
    ra = M.forward_train(pa, [sample], toy_vocab, template)
    total = nd.add(ra.loss_det, nd.scale(ra.loss_cot, 0.0))
    assert float(total.values) == float(ra.loss_det.values)  # x + 0.0 is bitwise x
    nd.Graph(total).backward()

    pb = _fresh(tiny_config)
    rb = M.forward_train(pb, [sample], toy_vocab, template)
    nd.Graph(rb.loss_det).backward()

    for name in pa.tensors:
        ga, gb = pa.tensors[name].grad, pb.tensors[name].grad
        if ga is None and gb is None:
            continue
        assert ga is not None and gb is not None, name
        assert np.array_equal(ga, gb), name


def test_backward_release_keeps_model_grads_bitwise(tiny_config, toy_vocab, template):
    grads = []
    for release in (False, True):
        params = _fresh(tiny_config)
        res = M.forward_train(params, [_sample(), _sample(think="")], toy_vocab, template,
                              rng=np.random.default_rng(3))
        total = nd.add(res.loss_det, res.loss_cot)
        if release:
            total.backward()
        else:
            backward_keeping_graph(total)
        grads.append([t.grad.tobytes() for t in params.tensors.values()])
    assert grads[0] == grads[1]


# tracemalloc bytes a default-config batch-8 training graph held once graph
# nodes stopped holding values, so that an op output no backward reads is
# freed when model code drops it (19.66 MB before, 28.25 MB before backward
# closures kept only what they cannot recompute).
TRAIN_GRAPH_BYTES = 14.27e6


def _closure_contents(fn):
    """Everything fn's closure cells hold, looking into the lists and tuples
    and the nested functions (such as attention's head split) they hold."""
    stack = [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(c.cell_contents for c in v.__closure__)


def test_training_graph_keeps_only_what_backward_reads(toy_corpus, toy_vocab, template):
    params = M.init_model(M.ModelConfig(vocab_size=len(toy_vocab)), np.random.default_rng(0))
    tracemalloc.start()
    try:
        res = M.forward_train(params, toy_corpus[:8], toy_vocab, template,
                              rng=np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.05 * TRAIN_GRAPH_BYTES, f"graph holds {held / 1e6:.2f} MB"
    closures = [n.backward for n in nd.Graph(nd.add(res.loss_det, res.loss_cot)).nodes
                if n.backward is not None]
    ops = {bw.__qualname__.split(".")[0] for bw in closures}
    assert {"linear", "attention", "dropout", "gated_silu", "concat", "pick"} <= ops
    for bw in closures:
        assert not any(isinstance(v, Tensor) for v in _closure_contents(bw)), bw.__qualname__
    dropouts = [bw for bw in closures if bw.__qualname__.startswith("dropout.")]
    for bw in dropouts:
        kept = [c.cell_contents for c in bw.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in kept)


def test_forward_train_dropout_depends_on_rng(tiny_config, toy_vocab, template):
    sample = _sample()
    a = M.forward_train(_fresh(tiny_config), [sample], toy_vocab, template,
                        rng=np.random.default_rng(1))
    b = M.forward_train(_fresh(tiny_config), [sample], toy_vocab, template,
                        rng=np.random.default_rng(2))
    assert float(a.loss_det.values) != float(b.loss_det.values)


# ---------------------------------------------------------------------------
# encode / generate


def test_embed_text_adds_positions():
    table = Tensor(np.arange(12, dtype=float).reshape(6, 2))
    pos = Tensor(np.full((4, 2), 0.5))
    out = M.embed_text(table, pos, [2, 0, 5])
    assert out.shape == (3, 2)
    assert np.allclose(out.values[0], table.values[2] + 0.5)
    pos = Tensor(np.arange(8, dtype=float).reshape(4, 2))
    out = M.embed_text(table, pos, [2, 0], start=2)
    assert np.array_equal(out.values, table.values[[2, 0]] + pos.values[2:4])


def test_embed_text_rejects_empty_and_overflow():
    table = Tensor(np.zeros((6, 2)))
    pos = Tensor(np.zeros((2, 2)))
    with pytest.raises(DataError):
        M.embed_text(table, pos, [])
    with pytest.raises(DataError, match="exceeds"):
        M.embed_text(table, pos, [0, 1, 2])
    with pytest.raises(DataError, match="exceeds"):
        M.embed_text(table, pos, [0], start=2)


def test_encode_shapes_and_routings(tiny_model, toy_vocab, template):
    memory, routings = M.encode(tiny_model, _sample(), toy_vocab, template)
    n_prompt = len(toy_vocab.encode(render_prompt(template, _sample().title)))
    assert memory.shape == (3 + n_prompt, tiny_model.config.h)
    assert len(routings) == tiny_model.config.n_moe
    assert all(r.selected.tolist() in ([0], [1], [2]) for r in routings)


def test_encode_rejects_an_over_long_prompt_naming_its_sample(tiny_model, toy_vocab,
                                                               template):
    long = _sample(title="harbor " * tiny_model.config.max_len)
    long.id = "s-long"
    n = len(toy_vocab.encode(render_prompt(template, long.title)))
    with pytest.raises(DataError, match=f"^sample s-long: prompt of {n} tokens exceeds "
                                        f"max_len 128$"):
        M.encode(tiny_model, [_sample(), long], toy_vocab, template)
    with pytest.raises(DataError, match="sample s-long: prompt of"):
        M.generate(tiny_model, [long], toy_vocab, template)


def test_encode_without_moe_has_no_routings(tiny_config, toy_vocab, template):
    cfg = M.ModelConfig(**{**tiny_config.to_json(), "moe_enabled": False})
    params = M.init_model(cfg, np.random.default_rng(0))
    memory, routings = M.encode(params, _sample(), toy_vocab, template)
    assert routings == []
    assert memory.shape[1] == cfg.h


def test_generate_budget_and_structure(tiny_config, toy_vocab, template):
    params = M.init_model(replace(tiny_config, gen_max_tokens=5), np.random.default_rng(7))
    [out] = M.generate(params, [_sample()], toy_vocab, template)
    assert len(out.token_ids) <= 5
    assert isinstance(out.text, str)
    assert len(out.experts) == params.config.n_moe
    assert all(e in (0, 1, 2) for e in out.experts)
    assert EOS not in out.token_ids


def test_generate_budget_capped_by_max_len(tiny_config, toy_vocab, template):
    params = M.init_model(replace(tiny_config, gen_max_tokens=10**6),
                          np.random.default_rng(3))
    [out] = M.generate(params, [_sample()], toy_vocab, template)
    assert len(out.token_ids) == tiny_config.max_len - 1  # untrained: never EOS


def test_generate_rejects_budget_below_one(tiny_config):
    """gen_max_tokens is the one generation budget, and it is at least 4."""
    for budget in (3, 0, -3):
        with pytest.raises(ConfigError, match="gen_max_tokens"):
            replace(tiny_config, gen_max_tokens=budget)


def test_cached_decode_rows_equal_full_prefix_rows(tiny_model, toy_vocab, template):
    rng = np.random.default_rng(5)
    ids = [BOS] + [int(i) for i in rng.integers(9, len(toy_vocab), 12)]
    with nd.no_grad():
        memory, _ = M.encode(tiny_model, _sample(), toy_vocab, template)
        full = M.decode(tiny_model, memory, ids).values
        cache = {}
        rows = [M.decode(tiny_model, memory, [i], cache=cache).values for i in ids]
    assert cache["len"] == len(ids)
    assert np.allclose(np.concatenate(rows), full, rtol=0.0, atol=1e-10)


def test_cached_decode_is_independent_of_the_cache_size(tiny_config, toy_corpus, toy_vocab,
                                                      template):
    """Attention reads only the filled rows of the cache, so its unfilled
    rows change no bit of the logits."""
    samples = _mixed_batch(toy_corpus)
    params = _batch_params(tiny_config, 2, True)
    rng = np.random.default_rng(9)
    ids = rng.integers(9, len(toy_vocab), (len(samples), 7))
    ids[:, 0] = BOS
    with nd.no_grad():
        memory, lengths, _ = M.encode(params, samples, toy_vocab, template)
        runs = []
        for size in (ids.shape[1], params.config.max_len):
            cache = {"size": size}
            runs.append(np.concatenate([
                M.decode(params, memory, ids[:, i:j], cache=cache, memory_lengths=lengths)
                .values for i, j in ((0, 1), (1, 4), (4, 5), (5, 7))]))
    assert np.array_equal(runs[0], runs[1])


def _assert_greedy(params, sample, vocab, template, tokens, budget):
    """One teacher-forced full-prefix pass over BOS plus the generated tokens
    picks each of them as its argmax, then EOS unless the budget was used."""
    with nd.no_grad():
        memory, _ = M.encode(params, sample, vocab, template)
        logits = M.decode(params, memory, [BOS] + tokens).values
    best = np.argmax(logits, axis=1)
    assert list(best[:len(tokens)]) == tokens
    assert len(tokens) <= budget
    if len(tokens) < budget:
        assert best[len(tokens)] == EOS
    return logits


@pytest.mark.parametrize("seed,moe_enabled,budget", [
    (0, True, None), (1, True, None), (2, True, None),
    (0, False, None), (1, False, None), (2, False, None),
    (3, True, 4),
])
def test_generate_is_greedy_under_teacher_forcing(tiny_config, toy_vocab, template,
                                                  seed, moe_enabled, budget):
    budget = budget or tiny_config.gen_max_tokens
    cfg = replace(tiny_config, moe_enabled=moe_enabled, gen_max_tokens=budget)
    params = M.init_model(cfg, np.random.default_rng(seed))
    sample = _sample()
    [out] = M.generate(params, [sample], toy_vocab, template)
    logits = _assert_greedy(params, sample, toy_vocab, template, out.token_ids, budget)
    # An untrained model never picks EOS, so each run uses its whole budget.
    # Lifting the EOS bias just past its smallest gap to the argmax makes a
    # second run stop at that position with the same tokens before it.
    assert len(out.token_ids) == budget
    gap = logits.max(axis=1) - logits[:, EOS]
    stop = int(np.argmin(gap[:budget]))
    params.tensors["head.b"].values[EOS] += gap[stop] + 1e-6
    [early] = M.generate(params, [sample], toy_vocab, template)
    assert early.token_ids == out.token_ids[:stop]
    _assert_greedy(params, sample, toy_vocab, template, early.token_ids, budget)


def test_generate_accumulates_no_grads(tiny_model, toy_vocab, template):
    M.generate(tiny_model, [_sample()], toy_vocab, template)
    assert all(not np.any(t.grad) for t in tiny_model.tensors.values())


# ---------------------------------------------------------------------------
# padded batches


def _mixed_batch(toy_corpus):
    """Posts with 3 or 4 visual tokens and prompts of several lengths, so
    every batch of them is padded."""
    return toy_corpus[:8] + [_sample()]


def _grouped_batch(toy_corpus):
    """17 posts, so encode runs three groups of up to ENCODE_GROUP: the
    longest post sits in the second group and the raw-image post alone in
    the third."""
    longest = _sample(title="Merkel visits the bright harbor in Oslo on Friday and the "
                            "quiet museum in Paris on Monday")
    return (toy_corpus[:8] + [_sample()] + toy_corpus[8:11] + [longest] + toy_corpus[11:14]
            + [_raw_post()])


def _batch_params(tiny_config, seed, moe_enabled):
    cfg = M.ModelConfig(**{**tiny_config.to_json(), "moe_enabled": moe_enabled,
                           "n_moe": 2, "gen_max_tokens": 12})
    return M.init_model(cfg, np.random.default_rng(seed))


def _lift_eos(params, samples, vocab, template):
    """Raise the EOS bias to the median over posts of the smallest gap
    between EOS and the greedy choice, so that some rows stop early, at
    different steps, and others run to the budget."""
    gaps = []
    for out, s in zip(M.generate(params, samples, vocab, template), samples):
        with nd.no_grad():
            memory, _ = M.encode(params, s, vocab, template)
            logits = M.decode(params, memory, [BOS] + out.token_ids).values
        gaps.append(float((logits.max(axis=1) - logits[:, EOS]).min()))
    params.tensors["head.b"].values[EOS] += float(np.median(gaps)) + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("moe_enabled", [True, False])
def test_batched_generate_equals_batches_of_one(tiny_config, toy_corpus, toy_vocab, template,
                                                seed, moe_enabled):
    samples = _grouped_batch(toy_corpus)
    params = _batch_params(tiny_config, seed, moe_enabled)
    for lifted in (False, True):
        if lifted:
            _lift_eos(params, samples, toy_vocab, template)
        batch = M.generate(params, samples, toy_vocab, template)
        assert len(batch) == len(samples)
        for s, out in zip(samples, batch):
            [one] = M.generate(params, [s], toy_vocab, template)
            assert out.token_ids == one.token_ids and out.text == one.text
            assert out.experts == one.experts
            assert len(out.experts) == (2 if moe_enabled else 0)
        n_tokens = {len(out.token_ids) for out in batch}
        assert (len(n_tokens) > 1) == lifted, n_tokens


def test_batched_generate_is_invariant_to_order_and_membership(tiny_config, toy_corpus,
                                                               toy_vocab, template):
    samples = _mixed_batch(toy_corpus)
    params = _batch_params(tiny_config, 0, True)
    _lift_eos(params, samples, toy_vocab, template)
    full = M.generate(params, samples, toy_vocab, template)
    # seed 0 routes these posts to more than one expert in a layer
    assert len({out.experts[0] for out in full}) > 1
    reverse = M.generate(params, samples[::-1], toy_vocab, template)[::-1]
    # The shorter posts only: their blocks shrink, so each carries less padding.
    subset = [0, 2, 8]
    with nd.no_grad():
        m_full, _, r_full = M.encode(params, samples, toy_vocab, template)
        _, _, r_rev = M.encode(params, samples[::-1], toy_vocab, template)
        m_part, _, r_part = M.encode(params, [samples[i] for i in subset], toy_vocab,
                                     template)
    assert m_part.shape[0] // len(subset) < m_full.shape[0] // len(samples)
    for full_r, rev_r, part_r in zip(r_full, r_rev, r_part):
        for other, rows in ((rev_r.weights.values[::-1], slice(None)),
                            (part_r.weights.values, subset)):
            assert np.allclose(full_r.weights.values[rows], other, rtol=0.0, atol=1e-12)
    part = M.generate(params, [samples[i] for i in subset], toy_vocab, template)
    for out, other in list(zip(full, reverse)) + [(full[i], o) for i, o in zip(subset, part)]:
        assert out.token_ids == other.token_ids
        assert out.experts == other.experts


def test_padded_encode_and_decode_equal_one_sample_rows(tiny_config, toy_corpus, toy_vocab,
                                                        template):
    samples = _mixed_batch(toy_corpus)
    params = _batch_params(tiny_config, 1, True)
    rng = np.random.default_rng(8)
    ids = rng.integers(9, len(toy_vocab), (len(samples), 6))
    ids[:, 0] = BOS
    with nd.no_grad():
        memory, lengths, routings = M.encode(params, samples, toy_vocab, template)
        logits = M.decode(params, memory, ids, memory_lengths=lengths).values
        n = memory.shape[0] // len(samples)
        assert max(lengths) == n and min(lengths) < n
        for b, s in enumerate(samples):
            one, one_routings = M.encode(params, s, toy_vocab, template)
            assert lengths[b] == one.shape[0]
            assert np.allclose(memory.values[b * n:b * n + lengths[b]], one.values,
                               rtol=0.0, atol=1e-12)
            assert [r.selected[b] for r in routings] == [r.selected[0] for r in one_routings]
            one_logits = M.decode(params, one, ids[b]).values
            assert np.allclose(logits[b * 6:(b + 1) * 6], one_logits, rtol=0.0, atol=1e-10)


def _raw_post():
    """A post whose [1, 16, 16] raw image goes through patch_proj, where the
    feature posts of _mixed_batch go through vis_proj."""
    return NewsSample(id="s-raw", title="Macron opens the quiet museum in Paris on Monday",
                      image=ImagePayload(raw=np.random.default_rng(4).normal(size=(1, 16, 16))),
                      label=Category.AI_SYNTHESIZED, annotation=ManipulationAnnotation(),
                      cot=template_cot(Category.AI_SYNTHESIZED, "Macron"))


@pytest.mark.parametrize("moe_enabled", [True, False])
def test_padded_batch_of_raw_and_feature_posts_equals_batches_of_one(
        tiny_config, toy_corpus, toy_vocab, template, moe_enabled):
    samples = _grouped_batch(toy_corpus)
    params = _batch_params(tiny_config, 1, moe_enabled)
    with nd.no_grad():
        memory, lengths, _ = M.encode(params, samples, toy_vocab, template)
        n = memory.shape[0] // len(samples)
        assert lengths.index(n) > M.ENCODE_GROUP and len(samples) > 2 * M.ENCODE_GROUP
        for b, s in enumerate(samples):
            one, [length], _ = M.encode(params, [s], toy_vocab, template)
            assert lengths[b] == length
            assert np.allclose(memory.values[b * n:b * n + length], one.values,
                               rtol=0.0, atol=1e-12)
    batch = M.generate(params, samples, toy_vocab, template)
    for s, out in zip(samples, batch):
        [one] = M.generate(params, [s], toy_vocab, template)
        assert out.token_ids == one.token_ids and out.experts == one.experts


@pytest.mark.parametrize("moe_enabled", [True, False])
def test_first_group_of_a_batch_encodes_the_bytes_of_that_group_alone(
        tiny_config, toy_corpus, toy_vocab, template, moe_enabled):
    samples = toy_corpus[:16] + [_raw_post()]
    params = _batch_params(tiny_config, 2, moe_enabled)
    with nd.no_grad():
        memory, lengths, routings = M.encode(params, samples, toy_vocab, template)
        first, first_lengths, first_routings = M.encode(params, samples[:M.ENCODE_GROUP],
                                                        toy_vocab, template)
    assert max(lengths) == max(first_lengths) and first_lengths == lengths[:M.ENCODE_GROUP]
    assert memory.values[:first.shape[0]].tobytes() == first.values.tobytes()
    assert len(routings) == len(first_routings) == (2 if moe_enabled else 0)
    for r, one in zip(routings, first_routings):
        assert r.weights.shape == r.logits.shape == (len(samples), 3)
        assert r.weights.values[:M.ENCODE_GROUP].tobytes() == one.weights.values.tobytes()
        assert r.logits.values[:M.ENCODE_GROUP].tobytes() == one.logits.values.tobytes()
        assert list(r.selected[:M.ENCODE_GROUP]) == list(one.selected)


def test_generate_never_encodes_more_than_a_group_at_once(tiny_model, toy_corpus, toy_vocab,
                                                           template, monkeypatch):
    batches, in_encode = [], []
    attention, encode = nd.attention, M.encode

    def spy_attention(q, k, v, n_heads, mask, batch=1):
        if in_encode:
            batches.append(batch)
        return attention(q, k, v, n_heads, mask, batch)

    def spy_encode(*args, **kwargs):
        in_encode.append(True)
        try:
            return encode(*args, **kwargs)
        finally:
            in_encode.pop()

    monkeypatch.setattr(nd, "attention", spy_attention)
    monkeypatch.setattr(M, "encode", spy_encode)
    assert len(M.generate(tiny_model, toy_corpus[:30], toy_vocab, template)) == 30
    assert batches == [8, 8, 8, 6] and M.ENCODE_GROUP == 8


def test_decode_cache_needs_no_grad_and_room(tiny_model, toy_vocab, template):
    memory, _ = M.encode(tiny_model, _sample(), toy_vocab, template)
    with pytest.raises(GraphError, match="no_grad"):
        M.decode(tiny_model, memory, [BOS], cache={})
    with nd.no_grad(), pytest.raises(DataError, match="cache"):
        M.decode(tiny_model, memory, [BOS, 9, 10], cache={"size": 2})


def test_generate_and_encode_reject_an_empty_batch(tiny_model, toy_vocab, template):
    with pytest.raises(DataError, match="at least one"):
        M.generate(tiny_model, [], toy_vocab, template)

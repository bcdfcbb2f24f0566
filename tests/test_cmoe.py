"""Mixture layer: expert math against a manual oracle, routing invariants,
gradient isolation, gate scaling semantics."""

import numpy as np
import pytest

import umfdet.ndtensor as nd
from umfdet import cmoe
from umfdet.data import Category
from umfdet.errors import DataError
from umfdet.model import build_store
from umfdet.ndtensor import Tensor

from helpers import check_grads, wsum


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def make_layer(h=6, seed=0):
    """Flat tensor dict holding one mixture layer named "m"."""
    return build_store(cmoe.layer_layout("m", h), np.random.default_rng(seed))[0]


def under(t, prefix):
    """The tensors of t whose names start with prefix + "."."""
    return [v for k, v in t.items() if k.startswith(prefix + ".")]


def test_expert_forward_matches_manual_formula():
    rng = np.random.default_rng(1)
    t = build_store(cmoe.expert_layout("e", 5), rng)[0]
    x = rng.normal(size=(4, 5))
    out = cmoe.expert_forward(t, "e", Tensor(x)).values
    a = x @ t["e.W_a"].values + t["e.b_a"].values
    b = x @ t["e.W_b"].values + t["e.b_b"].values
    manual = (a * _sigmoid(a) * _sigmoid(b)) @ t["e.W_out"].values + t["e.b_out"].values
    assert np.allclose(out, manual, atol=1e-12)


def test_expert_hidden_width_is_double_by_default():
    t = build_store(cmoe.expert_layout("e", 8), np.random.default_rng(0))[0]
    assert t["e.W_a"].shape == (8, 16) and t["e.W_out"].shape == (16, 8)


def test_route_weights_and_selection():
    t = make_layer(seed=2)
    x = Tensor(np.random.default_rng(3).normal(size=(7, 6)))
    r = cmoe.route(t, "m.router", x, [7])
    assert r.logits.shape == r.weights.shape == (1, 3)
    assert abs(r.weights.values.sum() - 1.0) < 1e-12
    assert r.selected.tolist() == [int(np.argmax(r.weights.values))]
    assert np.allclose(r.weights.values, np.exp(r.logits.values) / np.exp(r.logits.values).sum())


def test_route_tie_breaks_to_lowest_index():
    r = {"r.W": Tensor(np.zeros((4, 3))), "r.b": Tensor(np.zeros(3))}
    routing = cmoe.route(r, "r", Tensor(np.ones((2, 4))), [2])
    assert routing.selected.tolist() == [0]
    assert np.allclose(routing.weights.values, 1.0 / 3.0)


def test_route_shift_invariance_sample():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        c = rng.uniform(-20, 20)
        x = Tensor(rng.normal(size=(3, 5)))
        base = cmoe.route({"r.W": Tensor(w), "r.b": Tensor(b)}, "r", x, [3])
        shifted = cmoe.route({"r.W": Tensor(w), "r.b": Tensor(b + c)}, "r", x, [3])
        assert base.selected == shifted.selected


def test_route_rejects_empty_sequence():
    t = make_layer()
    with pytest.raises(DataError):
        cmoe.route(t, "m.router", Tensor(np.zeros((0, 6))), [0])


def test_only_selected_expert_receives_gradient():
    t = make_layer(seed=5)
    x = Tensor(np.random.default_rng(6).normal(size=(4, 6)), requires_grad=True)
    out, routing = cmoe.cmoe_forward(t, "m", x, [4])
    loss = nd.pick(nd.mean_rows(out, [4]), (0, 0))
    loss.backward()
    for i, expert in enumerate(cmoe.EXPERT_NAMES):
        touched = any(p._node.grad is not None and p.grad.any() for p in under(t, f"m.{expert}"))
        assert touched == (i == routing.selected[0])


def test_gate_off_router_gradient_exactly_zero():
    t = make_layer(seed=7)
    x = Tensor(np.random.default_rng(8).normal(size=(4, 6)), requires_grad=True)
    out, _ = cmoe.cmoe_forward(t, "m", x, [4], gate_scaling=False)
    nd.pick(nd.mean_rows(out, [4]), (0, 0)).backward()
    assert t["m.router.W"]._node.grad is None or not t["m.router.W"].grad.any()
    assert t["m.router.b"]._node.grad is None or not t["m.router.b"].grad.any()


def test_gate_on_router_gradient_nonzero():
    t = make_layer(seed=9)
    x = Tensor(np.random.default_rng(10).normal(size=(4, 6)), requires_grad=True)
    out, _ = cmoe.cmoe_forward(t, "m", x, [4], gate_scaling=True)
    nd.pick(nd.mean_rows(out, [4]), (0, 0)).backward()
    assert t["m.router.W"].grad.any()


def test_gate_scaling_multiplies_by_selected_probability():
    x_vals = np.random.default_rng(11).normal(size=(3, 6))
    t = make_layer(seed=12)
    out_on, r_on = cmoe.cmoe_forward(t, "m", Tensor(x_vals), [3], gate_scaling=True)
    out_off, r_off = cmoe.cmoe_forward(t, "m", Tensor(x_vals), [3], gate_scaling=False)
    assert r_on.selected == r_off.selected
    p = r_on.weights.values[0, r_on.selected[0]]
    assert np.allclose(out_on.values, out_off.values * p, atol=1e-12)


def test_cmoe_forward_gradients_vs_oracle():
    t = make_layer(h=4, seed=13)
    x = Tensor(np.random.default_rng(14).normal(size=(3, 4)), requires_grad=True)
    params = [x, t["m.router.W"], t["m.router.b"]]
    sel = cmoe.route(t, "m.router", x, [3]).selected[0]
    params += under(t, f"m.{cmoe.EXPERT_NAMES[sel]}")
    w = np.random.default_rng(15).normal(size=12)

    def build():
        return wsum(cmoe.cmoe_forward(t, "m", x, [3])[0], w)

    check_grads(build, params)


def test_alignment_loss_matches_nll_oracle_and_reaches_router():
    t = make_layer(seed=26)
    x = Tensor(np.random.default_rng(27).normal(size=(2, 6)))
    routing = cmoe.route(t, "m.router", x, [2])
    coeff = 0.5
    loss = cmoe.routing_alignment_loss(routing, [Category.AI_SYNTHESIZED],
                                       coefficient=coeff)
    expected = -np.log(routing.weights.values[0, Category.AI_SYNTHESIZED.expert_index]) * coeff
    assert abs(float(loss.values) - expected) < 1e-12
    loss.backward()
    assert t["m.router.W"].grad.any()


def test_expert_index_mapping():
    assert Category.REAL.expert_index == 0
    assert Category.HUMAN_CRAFTED.expert_index == 1
    assert Category.AI_SYNTHESIZED.expert_index == 2
    assert cmoe.EXPERT_NAMES == ("reality", "deception", "synthesis")


def test_layer_layout_checkpoint_names():
    named = build_store(cmoe.layer_layout("cmoe.1", 6), np.random.default_rng(28))[0]
    assert "cmoe.1.reality.W_a" in named
    assert "cmoe.1.synthesis.b_out" in named
    assert "cmoe.1.router.W" in named and "cmoe.1.router.b" in named
    assert len(named) == 3 * 6 + 2
    assert list(named)[-2:] == ["cmoe.1.router.W", "cmoe.1.router.b"]


@pytest.mark.parametrize("seed", [0, 1])  # three experts; two sequences sharing one
@pytest.mark.parametrize("gate_scaling", [True, False])
def test_batched_cmoe_forward_equals_one_sequence_calls(seed, gate_scaling):
    t = make_layer(seed=seed)
    lengths = [4, 2, 3]
    x = Tensor(np.random.default_rng(100 + seed).normal(0, 3, size=(12, 6)),
               requires_grad=True)
    out, routing = cmoe.cmoe_forward(t, "m", x, gate_scaling=gate_scaling, lengths=lengths)
    assert len(set(routing.selected.tolist())) > 1
    for b, n in enumerate(lengths):
        rows = slice(4 * b, 4 * b + n)
        one, r_one = cmoe.cmoe_forward(t, "m", Tensor(x.values[rows]), [n],
                                       gate_scaling=gate_scaling)
        assert routing.selected[b] == r_one.selected[0]
        assert np.allclose(routing.weights.values[b], r_one.weights.values[0], rtol=0.0,
                           atol=1e-12)
        assert np.allclose(routing.logits.values[b], r_one.logits.values[0], rtol=0.0,
                           atol=1e-12)
        assert np.allclose(out.values[rows], one.values, rtol=0.0, atol=1e-12)
    w = np.random.default_rng(200 + seed).normal(size=72)
    params = [x] + under(t, "m.router") + [p for e in routing.selected
                                          for p in under(t, f"m.{cmoe.EXPERT_NAMES[e]}")]

    def build():
        out, _ = cmoe.cmoe_forward(t, "m", x, gate_scaling=gate_scaling, lengths=lengths)
        return wsum(out, w)

    check_grads(build, list({id(p): p for p in params}.values()))


def test_alignment_loss_reads_its_own_row_of_a_batch():
    """One cross entropy over a batch's router logits is the mean of each
    row's term, and each row's term is its sequence's batch-of-one loss."""
    t = make_layer(seed=29)
    lengths = [3, 2, 1]
    x = Tensor(np.random.default_rng(30).normal(size=(9, 6)))
    routing = cmoe.route(t, "m.router", x, lengths=lengths)
    labels = [Category.HUMAN_CRAFTED, Category.REAL, Category.HUMAN_CRAFTED]
    loss = cmoe.routing_alignment_loss(routing, labels, coefficient=2.0)
    terms = []
    for b, label in enumerate(labels):
        one = cmoe.route(t, "m.router", Tensor(x.values[3 * b:3 * b + lengths[b]]), [lengths[b]])
        alone = float(cmoe.routing_alignment_loss(one, [label], coefficient=2.0).values)
        assert abs(alone + 2.0 * np.log(routing.weights.values[b, label.expert_index])) < 1e-12
        terms.append(alone)
    assert abs(float(loss.values) - sum(terms) / 3) < 1e-12

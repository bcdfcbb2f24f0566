"""Autodiff core: every op's gradient against the finite-difference oracle,
plus graph lifecycle rules and numeric edge cases."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import umfdet.ndtensor as nd
from umfdet.errors import ConfigError, DataError, GraphError, ShapeError
from umfdet.ndtensor import Tensor

from helpers import backward_keeping_graph, check_grads, wsum

RNG = np.random.default_rng(12345)


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)


def _op_backward(out, g):
    """Run the backward of the op that made out, for the output gradient g."""
    out._node.backward(g, *out._node.parents)


# ---------------------------------------------------------------------------
# gradient checks per op


def test_add_same_shape_grad():
    rng = np.random.default_rng(0)
    a, b = leaf((3, 4), rng), leaf((3, 4), rng)
    w = rng.normal(size=12)
    check_grads(lambda: wsum(nd.add(a, b), w), [a, b])


def test_add_shape_mismatch():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        nd.add(a, b)
    with pytest.raises(ShapeError):  # no bias broadcast: that is linear's job
        nd.add(Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))


def test_scale_grad():
    rng = np.random.default_rng(3)
    a = leaf((3, 3), rng)
    w = rng.normal(size=9)
    check_grads(lambda: wsum(nd.scale(a, -2.5), w), [a])


def test_scale_by_grad_both_args():
    rng = np.random.default_rng(4)
    a = leaf((3, 2), rng)
    s = Tensor(np.asarray(0.7), requires_grad=True)
    w = rng.normal(size=6)
    check_grads(lambda: wsum(nd.scale_by(a, s), w), [a, s])


def test_scale_by_blocks_grad_both_args():
    rng = np.random.default_rng(22)
    a = leaf((6, 2), rng)
    s = leaf((3,), rng)
    out = nd.scale_by(a, s)
    assert np.allclose(out.values, a.values * np.repeat(s.values, 2)[:, None],
                       rtol=0.0, atol=1e-15)
    w = rng.normal(size=12)
    check_grads(lambda: wsum(nd.scale_by(a, s), w), [a, s])


def test_scale_by_rejects_non_scalar():
    # a non-scalar s must split a into equal row blocks
    with pytest.raises(ShapeError):
        nd.scale_by(Tensor(np.zeros((2, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        nd.scale_by(Tensor(np.zeros((2, 2))), Tensor(np.zeros(0)))


def test_linear_matches_matmul_plus_bias_and_grads():
    rng = np.random.default_rng(5)
    x, w, b = leaf((3, 4), rng), leaf((4, 2), rng), leaf((2,), rng)
    out = nd.linear(x, w, b)
    assert out.values.tobytes() == (x.values @ w.values + b.values).tobytes()
    ws = rng.normal(size=6)
    check_grads(lambda: wsum(nd.linear(x, w, b), ws), [x, w, b])


def test_linear_untracked_input_gets_no_gradient():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)))
    w, b = leaf((4, 2), rng), leaf((2,), rng)
    ws = rng.normal(size=6)
    check_grads(lambda: wsum(nd.linear(x, w, b), ws), [w, b])
    assert x._node is None


def test_linear_shape_errors():
    w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError):
        nd.linear(Tensor(np.zeros((2, 2))), w, b)
    with pytest.raises(ShapeError):
        nd.linear(Tensor(np.zeros(3)), w, b)
    with pytest.raises(ShapeError, match="bias"):
        nd.linear(Tensor(np.zeros((2, 3))), w, Tensor(np.zeros(3)))


def _causal(n, m):
    return np.triu(np.full((n, m), -1e30), k=m - n + 1)


def _attention_per_head(q, k, v, n_heads, mask):
    """Loop-over-heads reference: each head attends over its own column block."""
    dh = q.shape[1] // n_heads
    heads = []
    for i in range(n_heads):
        cols = slice(i * dh, (i + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(heads, axis=1)


@pytest.mark.parametrize("tq,tk,n_heads,mask", [
    (4, 4, 2, _causal(4, 4)),   # causal self-attention
    (3, 6, 3, None),            # cross-attention, Tq != Tk
    (2, 5, 2, _causal(2, 5)),   # cached decoding: n new queries over m keys
    (1, 1, 1, None),
])
def test_attention_grads_and_per_head_reference(tq, tk, n_heads, mask):
    rng = np.random.default_rng(6 + tq + tk)
    h = 2 * n_heads
    q, k, v = leaf((tq, h), rng), leaf((tk, h), rng), leaf((tk, h), rng)
    out = nd.attention(q, k, v, n_heads, mask)
    ref = _attention_per_head(q.values, k.values, v.values, n_heads, mask)
    assert np.allclose(out.values, ref, rtol=0.0, atol=1e-12)
    w = rng.normal(size=tq * h)
    check_grads(lambda: wsum(nd.attention(q, k, v, n_heads, mask), w), [q, k, v])


def _key_padding(lengths, tk):
    return np.where(np.arange(tk) < np.asarray(lengths)[:, None], 0.0, -1e30)[:, None, :]


@pytest.mark.parametrize("tq,tk,n_heads,mask", [
    (4, 4, 2, _key_padding([4, 2, 3], 4)),   # encoder self-attention over padded rows
    (3, 3, 2, _causal(3, 3)),                # decoder self-attention, shared causal mask
    (2, 5, 1, _key_padding([5, 1, 3], 5)),   # cross-attention to padded memory, Tq != Tk
    (2, 5, 2, _causal(2, 5)[None] + _key_padding([5, 4, 5], 5)),  # both, per sequence
])
def test_batched_attention_grads_and_per_sequence_reference(tq, tk, n_heads, mask):
    rng = np.random.default_rng(20 + tq + tk)
    b, h = 3, 2 * n_heads
    q, k, v = leaf((b * tq, h), rng), leaf((b * tk, h), rng), leaf((b * tk, h), rng)
    out = nd.attention(q, k, v, n_heads, mask, batch=b)
    full = np.broadcast_to(mask, (b, tq, tk))
    ref = np.concatenate([
        _attention_per_head(q.values[i * tq:(i + 1) * tq], k.values[i * tk:(i + 1) * tk],
                            v.values[i * tk:(i + 1) * tk], n_heads, full[i])
        for i in range(b)])
    assert np.allclose(out.values, ref, rtol=0.0, atol=1e-12)
    w = rng.normal(size=b * tq * h)
    check_grads(lambda: wsum(nd.attention(q, k, v, n_heads, mask, batch=b), w), [q, k, v])


def _heads(x, b, n_heads):
    """[b*T, H] rows -> [b, heads, T, dh], as a decode cache keeps keys."""
    return Tensor(x.values.reshape(b, -1, n_heads, x.shape[1] // n_heads)
                  .transpose(0, 2, 1, 3).copy(), requires_grad=True)


@pytest.mark.parametrize("tq,tk,mask", [
    (1, 5, _key_padding([5, 2, 4], 5)),   # one cached query over padded memory
    (2, 5, _causal(2, 5)),                # two new queries over five cached keys
])
def test_attention_head_major_keys_equal_row_blocks(tq, tk, mask):
    rng = np.random.default_rng(40 + tq)
    b, n_heads = 3, 2
    q, k, v = leaf((b * tq, 4), rng), leaf((b * tk, 4), rng), leaf((b * tk, 4), rng)
    kh, vh = _heads(k, b, n_heads), _heads(v, b, n_heads)
    out = nd.attention(q, kh, vh, n_heads, mask, batch=b)
    assert np.allclose(out.values, nd.attention(q, k, v, n_heads, mask, batch=b).values,
                       rtol=0.0, atol=1e-12)
    w = rng.normal(size=b * tq * 4)
    check_grads(lambda: wsum(nd.attention(q, kh, vh, n_heads, mask, batch=b), w),
                [q, kh, vh])


def test_attention_shape_errors():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        nd.attention(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), 2)
    with pytest.raises(ShapeError):
        nd.attention(x, Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))), 2)
    with pytest.raises(ShapeError):
        nd.attention(x, x, x, 3)
    with pytest.raises(ShapeError):
        nd.attention(x, x, x, 2, np.zeros((3, 2)))
    y = Tensor(np.zeros((6, 4)))
    with pytest.raises(ShapeError):
        nd.attention(x, y, y, 2, batch=2)              # 3 query rows in 2 sequences
    with pytest.raises(ShapeError):
        nd.attention(y, y, y, 2, np.zeros((3, 1, 3)), batch=2)  # a mask for 3 sequences
    with pytest.raises(ShapeError):
        nd.attention(y, y, y, 2, np.zeros((1, 2, 1, 3)), batch=2)
    heads = Tensor(np.zeros((2, 2, 3, 2)))
    nd.attention(y, heads, heads, 2, batch=2)
    with pytest.raises(ShapeError):
        nd.attention(y, heads, heads, 2, batch=3)              # 2 key sequences, not 3
    with pytest.raises(ShapeError):
        nd.attention(y, heads, heads, 1, batch=2)              # 2 key heads, not 1
    with pytest.raises(ShapeError):
        nd.attention(y, heads, Tensor(np.zeros((2, 2, 4, 2))), 2, batch=2)
    with pytest.raises(ShapeError):
        nd.attention(y, Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2, 3))), 2, batch=2)


def test_concat_rows_grads():
    rng = np.random.default_rng(7)
    a, b, c = leaf((2, 3), rng), leaf((1, 3), rng), leaf((3, 3), rng)
    w0 = rng.normal(size=18)
    check_grads(lambda: wsum(nd.concat([a, b, c]), w0), [a, b, c])


def test_concat_skips_empty_and_rejects_all_empty():
    a = leaf((2, 3), np.random.default_rng(8))
    empty = Tensor(np.zeros((0, 3)))
    out = nd.concat([empty, a])
    assert out.shape == (2, 3)
    with pytest.raises(ShapeError):
        nd.concat([empty])


def test_pick_mean_rows_grads():
    rng = np.random.default_rng(9)
    a = leaf((4, 6), rng)
    check_grads(lambda: nd.pick(a, (2, 4)), [a])
    w2 = rng.normal(size=6)
    check_grads(lambda: wsum(nd.mean_rows(a, [4]), w2), [a])
    rows, cols = np.array([3, 0, 1]), np.array([5, 5, 0])
    assert np.array_equal(nd.pick(a, (rows, cols)).values, a.values[rows, cols])
    check_grads(lambda: wsum(nd.pick(a, (rows, cols)), w2[:3]), [a])
    order, w3 = np.array([2, 0, 3]), rng.normal(size=18)  # distinct rows
    assert np.array_equal(nd.pick(a, order).values, a.values[order])
    check_grads(lambda: wsum(nd.pick(a, order), w3), [a])


def test_mean_rows_over_blocks_grads_and_reference():
    rng = np.random.default_rng(21)
    a = leaf((3 * 4, 5), rng)
    lengths = [4, 1, 2]
    out = nd.mean_rows(a, lengths)
    ref = [a.values[i * 4:i * 4 + n].mean(axis=0) for i, n in enumerate(lengths)]
    assert np.allclose(out.values, ref, rtol=0.0, atol=1e-12)
    w = rng.normal(size=15)
    check_grads(lambda: wsum(nd.mean_rows(a, lengths), w), [a])


def test_mean_rows_rejects_empty():
    with pytest.raises(DataError):
        nd.mean_rows(Tensor(np.zeros((0, 4))), [0])
    for lengths in ([], [2, 0], [3, 1], [1, 1, 1, 1, 1]):
        with pytest.raises(DataError, match="lengths"):
            nd.mean_rows(Tensor(np.zeros((4, 3))), lengths)


def test_sigmoid_silu_softmax_grads():
    rng = np.random.default_rng(10)
    a = leaf((3, 5), rng, scale=2.0)
    w = rng.normal(size=15)
    b = leaf((3, 5), rng, scale=2.0)
    check_grads(lambda: wsum(nd.gated_silu(a, b), w), [a, b])
    check_grads(lambda: wsum(nd.silu(a), w), [a])
    check_grads(lambda: wsum(nd.softmax(a), w), [a])


def test_gated_silu_equals_silu_times_sigmoid_bit_for_bit():
    """Values and both gradients equal those of separate silu, sigmoid and
    product ops, each step in that order of arithmetic."""
    rng = np.random.default_rng(24)
    a, b = leaf((6, 7), rng, scale=4.0), leaf((6, 7), rng, scale=4.0)
    a.values[0, :4] = b.values[1, :4] = [800.0, -800.0, 0.0, -0.0]
    g = rng.normal(size=(6, 7))
    sa, sb = nd._sigmoid_vals(a.values), nd._sigmoid_vals(b.values)
    u = a.values * sa
    out = nd.gated_silu(a, b)
    assert np.array_equal(out.values, u * sb)
    _op_backward(out, g)
    gu, gv = g * sb, g * u  # the product's backward, then silu's and sigmoid's
    assert np.array_equal(a.grad, gu * sa * (1.0 + a.values * (1.0 - sa)))
    assert np.array_equal(b.grad, gv * sb * (1.0 - sb))
    with pytest.raises(ShapeError, match="gated_silu"):
        nd.gated_silu(a, Tensor(np.zeros((7, 6))))


def test_softmax_rows_normalized_and_stable():
    x = Tensor(np.array([[1e30, 1e30 - 1e14, 0.0], [-1e30, 0.0, 1.0]]))
    s = nd.softmax(x)
    assert np.isfinite(s.values).all()
    assert np.allclose(s.values.sum(axis=1), 1.0)


def test_layer_norm_grad():
    rng = np.random.default_rng(11)
    a = leaf((4, 6), rng, scale=3.0)
    gamma = Tensor(rng.normal(1.0, 0.2, 6), requires_grad=True)
    beta = Tensor(rng.normal(0.0, 0.2, 6), requires_grad=True)
    w = rng.normal(size=24)
    check_grads(lambda: wsum(nd.layer_norm(a, gamma, beta), w), [a, gamma, beta])


def _reference_layer_norm(a, gamma, beta, g, eps=1e-5):
    """layer_norm in the mean/var form it had before it reused its
    temporaries: the output, then the gradients of a, gamma and beta for
    the output gradient g."""
    h = a.shape[1]
    inv = 1.0 / np.sqrt(a.var(axis=1, keepdims=True) + eps)
    xhat = (a - a.mean(axis=1, keepdims=True)) * inv
    gx = g * gamma
    da = inv / h * (h * gx - gx.sum(axis=1, keepdims=True)
                    - xhat * (gx * xhat).sum(axis=1, keepdims=True))
    return xhat * gamma + beta, da, (g * xhat).sum(axis=0), g.sum(axis=0)


_FLOATS = st.floats(-1e6, 1e6)


@given(data=st.data(), shape=st.tuples(st.integers(1, 40), st.integers(1, 80)))
def test_layer_norm_is_bitwise_the_mean_var_form(data, shape):
    a = Tensor(data.draw(hnp.arrays(np.float64, shape, elements=_FLOATS)),
               requires_grad=True)
    gamma, beta = (Tensor(data.draw(hnp.arrays(np.float64, shape[1], elements=_FLOATS)),
                          requires_grad=True) for _ in range(2))
    g = data.draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
    out = nd.layer_norm(a, gamma, beta)
    _op_backward(out, g)
    ref = _reference_layer_norm(a.values, gamma.values, beta.values, g)
    for got, want in zip((out.values, a.grad, gamma.grad, beta.grad), ref):
        assert np.array_equal(got, want)


# Backward closures recompute what they used to keep. Each reference below is
# the op's closed form with every intermediate kept from forward; values past
# |x| = 709, where exp overflows, exercise the sigmoid's guard. Layer norm's
# is test_layer_norm_is_bitwise_the_mean_var_form above.
_WIDE = st.floats(-1e4, 1e4) | st.sampled_from([709.8, -709.8, 745.2, -745.2, 800.0, -800.0,
                                               1e300, -1e300, 0.0, -0.0])
_SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _kept_sigmoid(x):
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _draw(data, shape, elements=_WIDE):
    return data.draw(hnp.arrays(np.float64, shape, elements=elements))


@given(data=st.data(), shape=_SHAPES)
def test_silu_and_gated_silu_recompute_bit_for_bit(data, shape):
    x, y = _draw(data, shape), _draw(data, shape)
    g = _draw(data, shape, st.floats(-10, 10))
    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    s = _kept_sigmoid(x)
    out = nd.silu(a)
    _op_backward(out, g)
    assert _same_bits(out.values, x * s)
    assert _same_bits(a.grad, g * s * (1.0 + x * (1.0 - s)))

    a = Tensor(x, requires_grad=True)  # a fresh gradient, so a -0.0 keeps its sign
    sa, sb = _kept_sigmoid(x), _kept_sigmoid(y)
    u = x * sa
    out = nd.gated_silu(a, b)
    _op_backward(out, g)
    assert _same_bits(out.values, u * sb)
    assert _same_bits(a.grad, g * sb * sa * (1.0 + x * (1.0 - sa)))
    assert _same_bits(b.grad, g * u * sb * (1.0 - sb))


@given(data=st.data(), shape=_SHAPES, rate=st.floats(0.01, 0.95), seed=st.integers(0, 2**32 - 1))
def test_dropout_keeps_a_boolean_mask_bit_for_bit(data, shape, rate, seed):
    a = Tensor(_draw(data, shape, _FLOATS), requires_grad=True)
    g = _draw(data, shape, _FLOATS)
    keep = (np.random.default_rng(seed).random(shape) >= rate) / (1.0 - rate)
    out = nd.dropout(a, rate, np.random.default_rng(seed))
    _op_backward(out, g)
    assert _same_bits(out.values, a.values * keep)
    assert _same_bits(a.grad, g * keep)


@given(data=st.data(), t=st.integers(1, 10), v=st.integers(1, 8), weighted=st.booleans(),
       g=st.floats(-10, 10))
def test_cross_entropy_regathers_its_rows_bit_for_bit(data, t, v, weighted, g):
    logits = Tensor(_draw(data, (t, v), st.floats(-1e3, 1e3)), requires_grad=True)
    targets = np.asarray(data.draw(st.lists(st.sampled_from([nd.IGNORE, *range(v)]),
                                            min_size=t, max_size=t)))
    weights = _draw(data, t, st.floats(0, 10)) if weighted else None
    loss = nd.cross_entropy_lm(logits, targets, weights=weights)
    kept = np.nonzero(targets != nd.IGNORE)[0]
    if kept.size == 0:
        return
    _op_backward(loss, np.asarray(g))
    rows = logits.values[kept]
    m = rows.max(axis=1, keepdims=True)
    p = np.exp(rows - m)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(kept.size), targets[kept]] -= 1.0
    want = np.zeros_like(logits.values)
    want[kept] = p * (g / kept.size if weights is None else g * weights[kept][:, None])
    assert _same_bits(logits.grad, want)


def test_layer_norm_shape_errors():
    with pytest.raises(ShapeError):
        nd.layer_norm(Tensor(np.zeros(4)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        nd.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_embedding_grad_accumulates_repeated_rows():
    rng = np.random.default_rng(12)
    table = leaf((5, 3), rng)
    ids = [1, 3, 1, 1]
    w = rng.normal(size=len(ids) * 3)
    check_grads(lambda: wsum(nd.embedding(table, ids), w), [table])
    table.grad.fill(0.0)
    out = wsum(nd.embedding(table, ids), np.ones(12))
    out.backward()
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[3], 1.0)
    assert np.allclose(table.grad[0], 0.0)
    # the rows are the op's own copy, not a view of the table
    rows = nd.embedding(table, ids).values
    assert not np.shares_memory(rows, table.values)
    assert nd.embedding(table, []).shape == (0, 3)


def test_embedding_rejects_bad_ids():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(DataError, match="position 1"):
        nd.embedding(table, [0, 7])
    with pytest.raises(DataError):
        nd.embedding(table, [[0, 1]])


def test_dropout_modes():
    rng = np.random.default_rng(13)
    a = leaf((6, 4), rng)
    assert nd.dropout(a, 0.5, None) is a
    assert nd.dropout(a, 0.0, np.random.default_rng(0)) is a
    with pytest.raises(ConfigError):
        nd.dropout(a, 1.0, None)
    with pytest.raises(ConfigError):
        nd.dropout(a, 1.0, np.random.default_rng(0))
    out = nd.dropout(a, 0.5, np.random.default_rng(0))
    kept = out.values != 0.0
    assert np.allclose(out.values[kept], a.values[kept] * 2.0)


def test_dropout_grad_with_fixed_mask():
    base = np.random.default_rng(14)
    a = leaf((5, 3), base)
    w = base.normal(size=15)

    def build():
        rng = np.random.default_rng(99)  # same mask on every rebuild
        return wsum(nd.dropout(a, 0.4, rng), w)

    check_grads(build, [a])


def test_cross_entropy_matches_manual_and_grad():
    rng = np.random.default_rng(15)
    logits = leaf((6, 5), rng, scale=2.0)
    targets = [0, 3, nd.IGNORE, 2, 4, nd.IGNORE]
    loss = nd.cross_entropy_lm(logits, targets)
    kept = [0, 1, 3, 4]
    rows = logits.values[kept]
    lse = np.log(np.exp(rows).sum(axis=1))
    manual = float(np.mean(lse - rows[np.arange(4), [0, 3, 2, 4]]))
    assert abs(float(loss.values) - manual) < 1e-12
    check_grads(lambda: nd.cross_entropy_lm(logits, targets), [logits])


def test_weighted_cross_entropy_matches_manual_and_grad():
    rng = np.random.default_rng(17)
    logits = leaf((6, 5), rng, scale=2.0)
    targets = [0, 3, nd.IGNORE, 2, 4, nd.IGNORE]
    weights = np.array([0.5, 0.25, 9.0, 0.125, 1.0, 9.0])
    loss = nd.cross_entropy_lm(logits, targets, weights=weights)
    kept = [0, 1, 3, 4]
    rows = logits.values[kept]
    nll = np.log(np.exp(rows).sum(axis=1)) - rows[np.arange(4), [0, 3, 2, 4]]
    assert abs(float(loss.values) - float(nll @ weights[kept])) < 1e-12
    check_grads(lambda: nd.cross_entropy_lm(logits, targets, weights=weights), [logits])
    with pytest.raises(ShapeError, match="weights"):
        nd.cross_entropy_lm(logits, targets, weights=weights[:5])


def test_cross_entropy_all_ignored_is_inert_zero():
    logits = Tensor(np.random.default_rng(16).normal(size=(3, 4)), requires_grad=True)
    loss = nd.cross_entropy_lm(logits, [nd.IGNORE] * 3)
    assert float(loss.values) == 0.0
    assert loss._node is None


def test_cross_entropy_validation():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DataError, match="position 1"):
        nd.cross_entropy_lm(logits, [0, 9])
    with pytest.raises(ShapeError):
        nd.cross_entropy_lm(logits, [0])
    with pytest.raises(ShapeError):
        nd.cross_entropy_lm(Tensor(np.zeros(3)), [0, 1, 2])


# ---------------------------------------------------------------------------
# graph semantics


def test_backward_twice_raises():
    a = Tensor(np.asarray(2.0), requires_grad=True)
    out = nd.scale(a, 3.0)
    out.backward()
    with pytest.raises(GraphError):
        out.backward()


def test_backward_releases_the_graph_and_keeps_leaf_grads():
    rng = np.random.default_rng(18)
    a, w = leaf((4, 6), rng), leaf((6, 3), rng)
    b = leaf((3,), rng)

    def build():
        h = nd.silu(nd.linear(a, w, b))
        return wsum(nd.layer_norm(nd.gated_silu(h, h), Tensor(np.ones(3)), b),
                    rng.normal(size=12))

    rng = np.random.default_rng(19)
    backward_keeping_graph(build())
    before = [t.grad.copy() for t in (a, w, b)]
    for t in (a, w, b):
        t.grad.fill(0.0)
    rng = np.random.default_rng(19)
    out = build()
    graph = nd.Graph(out)
    interior = [n for n in graph.nodes if n.backward is not None]
    assert len(interior) > 5
    graph.backward()
    assert graph.nodes == []
    for n in interior:
        assert n.grad is None and n.backward is None and n.parents == ()
    for t, g in zip((a, w, b), before):
        assert t.grad.tobytes() == g.tobytes()
    with pytest.raises(GraphError):
        out.backward()


def test_an_output_no_backward_reads_is_freed_when_dropped():
    """dropout's backward reads only its mask, so the silu output it consumed
    goes with the caller's last reference; linear's reads its input, which
    lives until that backward has run. Gradients are those of a backward
    that releases nothing."""
    rng = np.random.default_rng(26)
    x, w, b = leaf((6, 5), rng), leaf((5, 3), rng), leaf((3,), rng)
    ws = rng.normal(size=18)

    def build():
        h = nd.silu(x)
        dropped = weakref.ref(h.values)
        d = nd.dropout(h, 0.5, np.random.default_rng(3))
        del h
        u = nd.silu(d)
        kept = weakref.ref(u.values)
        return wsum(nd.linear(u, w, b), ws), dropped, kept

    for t in (x, w, b):  # both runs accumulate onto zeros, so a -0.0 reads +0.0 in each
        t.grad.fill(0.0)
    backward_keeping_graph(build()[0])
    want = [t.grad.copy() for t in (x, w, b)]
    for t in (x, w, b):
        t.grad.fill(0.0)
    out, dropped, kept = build()
    gc.collect()
    assert dropped() is None
    assert kept() is not None
    out.backward()
    gc.collect()
    assert kept() is None
    for t, g in zip((x, w, b), want):
        assert t.grad.tobytes() == g.tobytes()


def test_backward_non_scalar_raises():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        nd.scale(a, 1.0).backward()


def test_no_grad_suppresses_tracking():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with nd.no_grad():
        out = nd.scale(a, 2.0)
    assert out._node is None


def test_reuse_accumulates():
    a = Tensor(np.full((2, 2), 1.5), requires_grad=True)
    out = wsum(nd.add(a, a), np.ones(4))
    out.backward()
    assert np.allclose(a.grad, 2.0)


def test_first_gradient_is_a_private_copy():
    # add hands one array to both parents; each must own its gradient
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    wsum(nd.add(a, b), np.ones(4)).backward()
    a.grad[0, 0] = 99.0
    assert np.allclose(b.grad, 1.0)


def test_exact_zero_branch_never_propagates():
    rng = np.random.default_rng(17)
    a, b = leaf((3, 3), rng), leaf((3, 3), rng)
    w = rng.normal(size=9)
    live = wsum(a, w)
    dead = nd.scale(wsum(b, w), 0.0)
    total = nd.add(live, dead)
    total.backward()
    assert b._node.grad is None  # skipped entirely, not merely zeroed
    assert np.allclose(a.grad, w.reshape(3, 3))


def test_grad_is_lazy():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    assert a._node.grad is None
    assert a.grad.shape == (2, 3) and not a.grad.any()


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 2**32 - 1))
def test_sigmoid_bounds_and_silu_identity(seed):
    x = np.random.default_rng(seed).normal(0, 50, (3, 4))
    s = nd._sigmoid_vals(x)
    assert ((s > 0) & (s < 1) | np.isclose(s, 0) | np.isclose(s, 1)).all()
    assert np.allclose(nd.silu(Tensor(x)).values, x * s)


def _sigmoid_by_sign(x):
    """Reference: the stable two-branch sigmoid, one masked pass per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_two_branch_reference_bit_for_bit():
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7,
                        700.0, -700.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf])
    for x in (special, np.random.default_rng(23).normal(0, 30, 10_000)):
        assert np.array_equal(nd._sigmoid_vals(x), _sigmoid_by_sign(x))
    assert np.isnan(nd._sigmoid_vals(np.array([np.nan]))).all()


@given(st.integers(0, 2**32 - 1))
def test_layer_norm_standardizes_rows(seed):
    x = np.random.default_rng(seed).normal(3.0, 5.0, (4, 8))
    out = nd.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).values
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-7)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

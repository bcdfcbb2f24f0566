"""Minimal dense-tensor library with reverse-mode autodiff.

Covers exactly the operations the detector needs: one affine map
(``linear``, x @ W + b) for every projection, addition, scaling, row
concatenation, gathers of distinct elements or rows, SiLU and the gated unit
silu(a) * sigmoid(b), last-axis softmax, fused multi-head attention over a
batch of sequences stacked as row blocks (keys and values may come split
into heads, as a decode cache keeps them), inverted dropout (which runs
only when given a generator, and without one draws nothing), layer norm,
token table lookup and a fused label-masked language-modeling cross
entropy. Everything runs in float64 so finite-difference gradient checks
are meaningful.

Gradient tracking is implicit. A tensor that requires a gradient, and every
op result computed from one, carries a graph node: the accumulated
gradient, the nodes of the op's parents, the op's backward closure and its
creation order. Nodes hold no values. Each closure owns the arrays it
reads, the "saved tensors" of PyTorch's autograd, and is called with the
parents' nodes, so it holds no Tensor: an op output that no backward reads
(a dropout's input, an addend, a concatenated or gathered part) is freed
as soon as the caller drops it, while its node still collects a gradient. Untracked results, under
``no_grad`` or from constants, get no node. ``Tensor.backward()`` replays the
recorded ops in reverse execution order, releasing each op's gradient,
closure and parents once it has run, so a graph is freed while backward
walks it. A leaf keeps its gradient in place in the array its node holds.
One graph is meant to live on one thread; there is no internal locking.

A backward closure keeps only what it cannot recompute from the arrays it
reads: silu and gated_silu keep their inputs and recompute their sigmoids,
dropout keeps its boolean keep-mask, linear its input and weight, layer
norm its input with the per-row mean and inverse deviation, softmax and
attention their probabilities, pick and embedding only their index and
the parent's shape, and the cross entropy its logits and row maxima. The
arrays a closure keeps are the very arrays of the forward pass, so nothing
may change them between forward and backward.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from operator import attrgetter

import numpy as np

from .errors import ConfigError, DataError, GraphError, ShapeError

_seq_counter = itertools.count()
_grad_enabled = True

IGNORE = -100  # the cross_entropy_lm target of a row that contributes nothing
LAYER_NORM_EPS = 1e-5


def is_grad_enabled() -> bool:
    """False inside a no_grad block."""
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / generation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """Gradient record of one tracked tensor: the accumulated gradient, the
    nodes of the op's parents (None for an untracked parent), the op's
    backward closure, called as backward(grad, *parents) (None for a leaf,
    and once it has run), and the creation order. It holds no values.

    It has no __init__: _result sets every field, so recording an op makes
    no Python call."""

    __slots__ = ("grad", "parents", "backward", "seq")


class _Leaf(_Node):
    """Node of a tensor that requires a gradient; backward never releases it."""

    __slots__ = ()

    def __init__(self):
        self.grad, self.parents, self.backward = None, (), None
        self.seq = next(_seq_counter)


class Tensor:
    """Dense float64 array plus, when tracked, the graph node that
    accumulates its gradient."""

    __slots__ = ("values", "_node")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self._node = _Leaf() if requires_grad else None

    @property
    def shape(self):
        return self.values.shape

    @property
    def requires_grad(self):
        """True for a leaf that collects a gradient, False for op results and
        constants."""
        return type(self._node) is _Leaf

    @property
    def grad(self):
        """Accumulated gradient; all-zero until a backward pass touches it."""
        node = self._node
        if node is None:
            return np.zeros_like(self.values)
        if node.grad is None:
            node.grad = np.zeros_like(self.values)
        return node.grad

    def backward(self):
        """Run reverse-mode accumulation from this (scalar) tensor."""
        Graph(self).backward()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Graph:
    """Ordered record of the ops that produced a root tensor.

    ``nodes`` holds the graph node of every tracked tensor reachable from the
    root, sorted by creation order, oldest first; backward pops and visits
    each recorded op exactly once, newest first.
    """

    def __init__(self, root):
        self.root = root
        nodes = []
        seen = set()
        stack = [root._node]
        while stack:
            node = stack.pop()
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
        nodes.sort(key=attrgetter("seq"))
        self.nodes = nodes

    def backward(self):
        root = self.root
        if root._node is None or root._node.backward is None:
            raise GraphError("backward already ran for this graph, or no op recorded its "
                             "root; re-run forward first")
        if root.values.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.shape}")
        root._node.grad = np.ones_like(root.values)
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            if node.backward is None:
                continue
            g = node.grad
            # Exact-zero incoming gradient propagates nothing; skipping keeps
            # zero-weighted loss branches bitwise inert.
            if g is not None and g.any():
                node.backward(g, *node.parents)
            # Every op that feeds this node is older, so nothing reads it
            # again: drop its gradient and closure, and the arrays they hold.
            node.grad = node.backward = None
            node.parents = ()


def _accum(node, g):
    if node is None:
        return
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def _result(values, parents):
    """The op output holding values, and its graph node when recording is on
    and one of the parent nodes is not None (the op then sets its backward),
    else None."""
    out = Tensor(values)
    if _grad_enabled and any(parents):
        node = out._node = _Node()
        node.grad, node.parents, node.backward = None, parents, None
        node.seq = next(_seq_counter)
        return out, node
    return out, None


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")
    out, node = _result(a.values + b.values, (a._node, b._node))
    if node:
        def _bw(g, na, nb):
            _accum(na, g)
            _accum(nb, g)
        node.backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)
    out, node = _result(a.values * c, (a._node,))
    if node:
        node.backward = lambda g, na: _accum(na, g * c)
    return out


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a by the n entries of s, differentiable in both arguments:
    a splits into n equal blocks of rows and block i is scaled by s[i], so a
    single entry scales all of a."""
    n = s.values.size
    if n == 0 or a.values.ndim == 0 or a.shape[0] % n:
        raise ShapeError(f"scale_by: {a.shape} does not split into {n} row blocks")
    blocks = a.values.reshape(n, -1)
    sv = s.values.reshape(n, 1)
    shape, s_shape = a.values.shape, s.values.shape
    out, node = _result((blocks * sv).reshape(shape), (a._node, s._node))
    if node:
        def _bw(g, na, ns):
            gb = g.reshape(n, -1)
            _accum(na, (gb * sv).reshape(shape))
            _accum(ns, (gb * blocks).sum(axis=1).reshape(s_shape))
        node.backward = _bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of x [N, I] by w [I, O] and a bias b [O] added to
    every row."""
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias must be [{w.shape[1]}], got {b.shape}")
    xv, wv = x.values, w.values
    y = xv @ wv
    y += b.values
    out, node = _result(y, (x._node, w._node, b._node))
    if node:
        def _bw(g, nx, nw, nb):
            _accum(nb, g.sum(axis=0))
            if nx is not None:
                _accum(nx, g @ wv.T)
            _accum(nw, xv.T @ g)
        node.backward = _bw
    return out


def concat(tensors) -> Tensor:
    """Stack the rows of the non-empty tensors, in order."""
    tensors = [t for t in tensors if t.values.size > 0]
    if not tensors:
        raise ShapeError("concat: nothing to concatenate")
    out, node = _result(np.concatenate([t.values for t in tensors]),
                        tuple([t._node for t in tensors]))
    if node:
        sizes = [t.values.shape[0] for t in tensors]

        def _bw(g, *parents):
            offset = 0
            for parent, n in zip(parents, sizes):
                _accum(parent, g[offset:offset + n])
                offset += n
        node.backward = _bw
    return out


def pick(a: Tensor, index) -> Tensor:
    """Gather what index names, each element at most once (the backward
    assigns): a tuple of ints gives a 0-d tensor, a tuple of equal-length
    index arrays an [n] tensor, an array of distinct row numbers [n, ...]."""
    shape = a.values.shape
    out, node = _result(np.asarray(a.values[index]), (a._node,))
    if node:
        def _bw(g, na):
            buf = np.zeros(shape)
            buf[index] = g
            _accum(na, buf)
        node.backward = _bw
    return out


def mean_rows(a: Tensor, lengths) -> Tensor:
    """Block means of an [N, H] tensor: a holds B = len(lengths) blocks of
    N / B rows, and row b of the [B, H] result averages the first lengths[b]
    rows of block b."""
    if a.values.ndim != 2 or a.shape[0] == 0:
        raise DataError(f"mean_rows: needs a non-empty 2-D operand, got {a.shape}")
    lens = np.asarray(lengths, dtype=np.int64)
    rows = a.shape[0] // max(lens.size, 1)
    if lens.size == 0 or a.shape[0] % lens.size or lens.min() < 1 or lens.max() > rows:
        raise DataError(f"mean_rows: lengths {lens.tolist()} do not fit {a.shape[0]} rows")
    blocks = a.values.reshape(lens.size, rows, a.shape[1])
    valid = (np.arange(rows) < lens[:, None])[:, :, None]
    shape = a.values.shape
    out, node = _result(np.where(valid, blocks, 0.0).sum(axis=1) / lens[:, None], (a._node,))
    if node:
        node.backward = lambda g, na: _accum(na, np.where(valid, (g / lens[:, None])[:, None],
                                                      0.0).reshape(shape))
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_vals(x):
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|) <= 1: no
    # exponent overflows, and exp(min(x, 0)) picks the numerator without a branch.
    # Each step writes into the numerator or the denominator, so no other
    # array of x's shape is made.
    s = np.minimum(x, 0.0)
    np.exp(s, out=s)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    s /= e
    return s


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). Backward recomputes sigmoid(x) from a."""
    av = a.values
    y = _sigmoid_vals(av)
    y *= av
    out, node = _result(y, (a._node,))
    if node:
        def _bw(g, na):
            s = _sigmoid_vals(av)
            _accum(na, g * s * (1.0 + av * (1.0 - s)))
        node.backward = _bw
    return out


def gated_silu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * sigmoid(b) of same-shape a and b, the experts' gated unit.
    Backward recomputes sigmoid(a), sigmoid(b) and silu(a) from a and b."""
    if a.shape != b.shape:
        raise ShapeError(f"gated_silu: shapes {a.shape} and {b.shape} do not match")
    av, bv = a.values, b.values
    y = _sigmoid_vals(av)
    y *= av
    y *= _sigmoid_vals(bv)
    out, node = _result(y, (a._node, b._node))
    if node:
        def _bw(g, na, nb):
            sa, sb = _sigmoid_vals(av), _sigmoid_vals(bv)
            _accum(na, g * sb * sa * (1.0 + av * (1.0 - sa)))
            _accum(nb, g * (av * sa) * sb * (1.0 - sb))
        node.backward = _bw
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out, node = _result(s, (a._node,))
    if node:
        def _bw(g, na):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accum(na, s * (g - dot))
        node.backward = _bw
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None,
              batch: int = 1) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh) + mask) v over a batch of sequences.

    q is [B*Tq, H] for B = batch: sequence b owns rows b*Tq:(b+1)*Tq, and
    head i owns columns i*dh:(i+1)*dh with dh = H / n_heads. k and v are
    [B*Tk, H] row blocks laid out the same way, or already split into heads
    as [B, heads, Tk, dh], as a decode cache keeps them. No row attends
    outside its own sequence. mask is an additive array that broadcasts to
    [B, Tq, Tk] and is shared by all heads, such as a causal [Tq, Tk] or a
    key-padding [B, 1, Tk], or None. Scores are [B, heads, Tq, Tk]. Returns
    the head outputs side by side, [B*Tq, H].
    """
    h = q.shape[1] if q.values.ndim == 2 else 0
    dh = h // n_heads if n_heads > 0 and h % n_heads == 0 else 0
    rows = k.values.ndim == 2  # else split into heads
    if (not dh or batch < 1 or q.shape[0] % batch or k.shape != v.shape
            or ((k.shape[0] % batch or k.shape[1] != h) if rows
                else k.shape[:2] + k.shape[3:] != (batch, n_heads, dh))):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not "
                         f"split into {batch} sequences and {n_heads} heads of one width")
    tq = q.shape[0] // batch
    tk = k.shape[0] // batch if rows else k.shape[2]
    if mask is not None:
        shape = (1,) * (3 - mask.ndim) + mask.shape
        if mask.ndim > 3 or any(m not in (1, n) for m, n in zip(shape, (batch, tq, tk))):
            raise ShapeError(f"attention: mask shape {mask.shape} does not broadcast "
                             f"to {(batch, tq, tk)}")
        if mask.ndim == 3:
            mask = mask[:, None]
    c = 1.0 / np.sqrt(dh)

    def split(x, n):  # [B*n, H] -> [B, heads, n, dh]
        return x.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x, n):  # [B, heads, n, dh] -> [B*n, H]
        return x.transpose(0, 2, 1, 3).reshape(batch * n, h)

    qh = split(q.values, tq)
    kh, vh = (split(k.values, tk), split(v.values, tk)) if rows else (k.values, v.values)
    # The softmax runs in place, so a batch holds one [B, heads, Tq, Tk] array.
    p = qh @ kh.swapaxes(-1, -2)
    p *= c
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out, node = _result(merge(p @ vh, tq), (q._node, k._node, v._node))
    if node:
        def _bw(g, nq, nk, nv):
            gh = split(g, tq)
            dp = gh @ vh.swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
            _accum(nq, merge(ds @ kh, tq))
            dk, dv = ds.swapaxes(-1, -2) @ qh, p.swapaxes(-1, -2) @ gh
            _accum(nk, merge(dk, tk) if rows else dk)
            _accum(nv, merge(dv, tk) if rows else dv)
        node.backward = _bw
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate). It runs only when a
    generator is passed; with rng None (evaluation) or rate 0 it is the
    identity and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    c = 1.0 / (1.0 - rate)
    y = a.values * keep
    y *= c
    out, node = _result(y, (a._node,))
    if node:
        node.backward = lambda g, na: _accum(na, g * keep * c)
    return out


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis of [N, H], then scale/shift by gamma/beta [H]."""
    if a.values.ndim != 2:
        raise ShapeError(f"layer_norm: needs a 2-D operand, got {a.shape}")
    h = a.shape[1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise ShapeError(f"layer_norm: gamma/beta must be [{h}], got {gamma.shape}/{beta.shape}")
    # The arithmetic of a.mean(1) and a.var(1), with the centred rows reused
    # as xhat and the squared deviations as the output buffer.
    av, gv = a.values, gamma.values
    mu = np.add.reduce(av, axis=1, keepdims=True) / h
    xhat = av - mu
    y = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=1, keepdims=True) / h + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gv, out=y)
    y += beta.values
    out, node = _result(y, (a._node, gamma._node, beta._node))
    if node:
        def _bw(g, na, ngamma, nbeta):
            xhat = (av - mu) * inv
            _accum(ngamma, (g * xhat).sum(axis=0))
            _accum(nbeta, g.sum(axis=0))
            gx = g * gv
            da = inv / h * (h * gx - gx.sum(axis=1, keepdims=True)
                            - xhat * (gx * xhat).sum(axis=1, keepdims=True))
            _accum(na, da)
        node.backward = _bw
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Token or position table lookup, ids [N] -> [N, H]; ids may repeat."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DataError(f"embedding: ids must be 1-D, got shape {ids.shape}")
    shape = table.values.shape
    v = shape[0]
    bad = np.nonzero((ids < 0) | (ids >= v))[0]
    if bad.size:
        raise DataError(f"embedding: id {ids[bad[0]]} at position {bad[0]} outside table of {v} rows")
    out, node = _result(table.values[ids], (table._node,))
    if node:
        def _bw(g, ntable):
            buf = np.zeros(shape)
            np.add.at(buf, ids, g)
            _accum(ntable, buf)
        node.backward = _bw
    return out


def cross_entropy_lm(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean NLL of targets under row-wise log-softmax of logits [T, V], or
    with weights [T] the weighted sum of the per-row NLLs.

    Positions whose target is IGNORE contribute nothing; if every
    position is ignored the loss is the constant 0 (empty-sum convention) and
    carries no gradient.
    """
    if logits.values.ndim != 2:
        raise ShapeError(f"cross_entropy_lm: logits must be [T, V], got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    t, v = logits.shape
    if targets.shape != (t,):
        raise ShapeError(f"cross_entropy_lm: {t} logit rows but targets shape {targets.shape}")
    if weights is not None and np.shape(weights) != (t,):
        raise ShapeError(f"cross_entropy_lm: {t} logit rows but weights shape "
                         f"{np.shape(weights)}")
    bad = np.nonzero((targets != IGNORE) & ((targets < 0) | (targets >= v)))[0]
    if bad.size:
        raise DataError(f"cross_entropy_lm: target {targets[bad[0]]} at position {bad[0]} "
                        f"outside vocabulary of {v}")
    kept = np.nonzero(targets != IGNORE)[0]
    if kept.size == 0:
        return Tensor(np.asarray(0.0))
    lv = logits.values
    rows = lv[kept]
    m = rows.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
    nll = lse - rows[np.arange(kept.size), targets[kept]]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[kept]
    out, node = _result(np.asarray(nll.mean() if w is None else nll @ w), (logits._node,))
    if node:
        def _bw(g, nlogits):
            p = np.exp(lv[kept] - m)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(kept.size), targets[kept]] -= 1.0
            buf = np.zeros(lv.shape)
            buf[kept] = p * (float(g) / kept.size if w is None else float(g) * w[:, None])
            _accum(nlogits, buf)
        node.backward = _bw
    return out

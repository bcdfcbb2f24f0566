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

Gradient tracking is implicit: every op result remembers its parents and a
backward closure, and ``Tensor.backward()`` replays the recorded ops in
reverse execution order, releasing each op's gradient, closure and parents
once it has run, so a graph is freed while backward walks it. Leaf tensors
keep their gradients. One graph is meant to live on one thread; there is
no internal locking.

A backward closure keeps only what it cannot recompute from its parents'
values: silu and gated_silu keep nothing and recompute their sigmoids,
dropout keeps its boolean keep-mask, layer norm its per-row mean and
inverse deviation, softmax and attention their probabilities, and the cross
entropy its row maxima. Backward reads the parents' values, so nothing may
change those values between forward and backward.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

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


class Tensor:
    """Dense float64 array plus an accumulated gradient of the same shape."""

    __slots__ = ("values", "requires_grad", "_grad", "_parents", "_backward",
                 "_seq", "_backward_done")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._parents = ()
        self._backward = None
        self._seq = next(_seq_counter)
        self._backward_done = False

    @property
    def shape(self):
        return self.values.shape

    @property
    def grad(self):
        """Accumulated gradient; all-zero until a backward pass touches it."""
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def zero_grad(self):
        self._grad = None

    @property
    def _tracked(self):
        return self.requires_grad or self._backward is not None

    def backward(self):
        """Run reverse-mode accumulation from this (scalar) tensor."""
        Graph(self).backward()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, seq={self._seq})"


class Graph:
    """Ordered record of the ops that produced a root tensor.

    ``nodes`` holds every tensor reachable from the root, sorted by creation
    order, oldest first; backward pops and visits each recorded op exactly
    once, newest first.
    """

    def __init__(self, root):
        self.root = root
        nodes = []
        seen = set()
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        nodes.sort(key=lambda t: t._seq)
        self.nodes = nodes

    def backward(self):
        root = self.root
        if root._backward_done:
            raise GraphError("backward already ran for this graph; re-run forward first")
        if root.values.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.shape}")
        root._backward_done = True
        root._grad = np.ones_like(root.values)
        nodes = self.nodes
        while nodes:
            t = nodes.pop()
            if t._backward is None:
                continue
            g = t._grad
            # Exact-zero incoming gradient propagates nothing; skipping keeps
            # zero-weighted loss branches bitwise inert.
            if g is not None and g.any():
                t._backward(g)
            # Every op that feeds t is older, so nothing reads t again: drop
            # its gradient and closure, and with them the arrays they hold.
            t._grad = t._backward = None
            t._parents = ()


def _accum(t, g):
    if not t._tracked:
        return
    if t._grad is None:
        t._grad = g.copy()
    else:
        t._grad += g


def _result(values, parents):
    out = Tensor(values)
    if _grad_enabled and any(p._tracked for p in parents):
        out._parents = tuple(parents)
        return out, True
    return out, False


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")
    out, track = _result(a.values + b.values, (a, b))
    if track:
        def _bw(g):
            _accum(a, g)
            _accum(b, g)
        out._backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)
    out, track = _result(a.values * c, (a,))
    if track:
        out._backward = lambda g: _accum(a, g * c)
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
    out, track = _result((blocks * sv).reshape(a.shape), (a, s))
    if track:
        def _bw(g):
            gb = g.reshape(n, -1)
            _accum(a, (gb * sv).reshape(a.shape))
            _accum(s, (gb * blocks).sum(axis=1).reshape(s.shape))
        out._backward = _bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of x [N, I] by w [I, O] and a bias b [O] added to
    every row."""
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias must be [{w.shape[1]}], got {b.shape}")
    y = x.values @ w.values
    y += b.values
    out, track = _result(y, (x, w, b))
    if track:
        def _bw(g):
            _accum(b, g.sum(axis=0))
            if x._tracked:
                _accum(x, g @ w.values.T)
            _accum(w, x.values.T @ g)
        out._backward = _bw
    return out


def concat(tensors) -> Tensor:
    """Stack the rows of the non-empty tensors, in order."""
    tensors = [t for t in tensors if t.values.size > 0]
    if not tensors:
        raise ShapeError("concat: nothing to concatenate")
    out, track = _result(np.concatenate([t.values for t in tensors]), tensors)
    if track:
        def _bw(g):
            offset = 0
            for t in tensors:
                n = t.shape[0]
                _accum(t, g[offset:offset + n])
                offset += n
        out._backward = _bw
    return out


def pick(a: Tensor, index) -> Tensor:
    """Gather what index names, each element at most once (the backward
    assigns): a tuple of ints gives a 0-d tensor, a tuple of equal-length
    index arrays an [n] tensor, an array of distinct row numbers [n, ...]."""
    out, track = _result(np.asarray(a.values[index]), (a,))
    if track:
        def _bw(g):
            buf = np.zeros_like(a.values)
            buf[index] = g
            _accum(a, buf)
        out._backward = _bw
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
    out, track = _result(np.where(valid, blocks, 0.0).sum(axis=1) / lens[:, None], (a,))
    if track:
        out._backward = lambda g: _accum(a, np.where(valid, (g / lens[:, None])[:, None],
                                                     0.0).reshape(a.shape))
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
    y = _sigmoid_vals(a.values)
    y *= a.values
    out, track = _result(y, (a,))
    if track:
        def _bw(g):
            s = _sigmoid_vals(a.values)
            _accum(a, g * s * (1.0 + a.values * (1.0 - s)))
        out._backward = _bw
    return out


def gated_silu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * sigmoid(b) of same-shape a and b, the experts' gated unit.
    Backward recomputes sigmoid(a), sigmoid(b) and silu(a) from a and b."""
    if a.shape != b.shape:
        raise ShapeError(f"gated_silu: shapes {a.shape} and {b.shape} do not match")
    y = _sigmoid_vals(a.values)
    y *= a.values
    y *= _sigmoid_vals(b.values)
    out, track = _result(y, (a, b))
    if track:
        def _bw(g):
            sa, sb = _sigmoid_vals(a.values), _sigmoid_vals(b.values)
            _accum(a, g * sb * sa * (1.0 + a.values * (1.0 - sa)))
            _accum(b, g * (a.values * sa) * sb * (1.0 - sb))
        out._backward = _bw
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out, track = _result(s, (a,))
    if track:
        def _bw(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accum(a, s * (g - dot))
        out._backward = _bw
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
    out, track = _result(merge(p @ vh, tq), (q, k, v))
    if track:
        def _bw(g):
            gh = split(g, tq)
            dp = gh @ vh.swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
            _accum(q, merge(ds @ kh, tq))
            dk, dv = ds.swapaxes(-1, -2) @ qh, p.swapaxes(-1, -2) @ gh
            _accum(k, merge(dk, tk) if rows else dk)
            _accum(v, merge(dv, tk) if rows else dv)
        out._backward = _bw
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
    out, track = _result(y, (a,))
    if track:
        out._backward = lambda g: _accum(a, g * keep * c)
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
    mu = np.add.reduce(a.values, axis=1, keepdims=True) / h
    xhat = a.values - mu
    y = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=1, keepdims=True) / h + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.values, out=y)
    y += beta.values
    out, track = _result(y, (a, gamma, beta))
    if track:
        def _bw(g):
            xhat = (a.values - mu) * inv
            _accum(gamma, (g * xhat).sum(axis=0))
            _accum(beta, g.sum(axis=0))
            gx = g * gamma.values
            da = inv / h * (h * gx - gx.sum(axis=1, keepdims=True)
                            - xhat * (gx * xhat).sum(axis=1, keepdims=True))
            _accum(a, da)
        out._backward = _bw
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Token or position table lookup, ids [N] -> [N, H]; ids may repeat."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DataError(f"embedding: ids must be 1-D, got shape {ids.shape}")
    v = table.shape[0]
    bad = np.nonzero((ids < 0) | (ids >= v))[0]
    if bad.size:
        raise DataError(f"embedding: id {ids[bad[0]]} at position {bad[0]} outside table of {v} rows")
    out, track = _result(table.values[ids].copy() if ids.size else
                         np.zeros((0, table.shape[1])), (table,))
    if track:
        def _bw(g):
            buf = np.zeros_like(table.values)
            np.add.at(buf, ids, g)
            _accum(table, buf)
        out._backward = _bw
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
    rows = logits.values[kept]
    m = rows.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
    nll = lse - rows[np.arange(kept.size), targets[kept]]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[kept]
    out, track = _result(np.asarray(nll.mean() if w is None else nll @ w), (logits,))
    if track:
        def _bw(g):
            p = np.exp(logits.values[kept] - m)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(kept.size), targets[kept]] -= 1.0
            buf = np.zeros_like(logits.values)
            buf[kept] = p * (float(g) / kept.size if w is None else float(g) * w[:, None])
            _accum(logits, buf)
        out._backward = _bw
    return out

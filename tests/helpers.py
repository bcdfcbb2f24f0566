"""Shared test utilities: the finite-difference gradient oracle, a weighted
sum that reduces any op output to a scalar, a backward walk that keeps the
graph, a hypothesis strategy for arbitrary JSON values, an HTTP server on
loopback, and the digests of the 12-step training recipe."""

import contextlib
import hashlib
import http.server
import json
import threading
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import umfdet.ndtensor as nd
from umfdet import checkpoint, data, evalkit, instruct, model, trainer
from umfdet.ndtensor import Tensor


def wsum(t, w):
    """Sum of t's entries weighted by the constants w (as many as t has),
    as a 0-d tensor, for 1-D or 2-D t; keeps gradients of order one."""
    w = np.asarray(w, dtype=float).reshape(t.shape)
    if t.values.ndim == 2:
        # Row i of t dotted with row i of w is entry (i, i) of t @ w^T.
        n = t.shape[0]
        t = nd.pick(nd.linear(t, Tensor(w.T), Tensor(np.zeros(n))),
                    (np.arange(n), np.arange(n)))
        w = np.ones(n)
    # The 1-D t scales the rows of the column w.
    rows = nd.scale_by(Tensor(w[:, None]), t)
    n, h = rows.shape
    total = nd.linear(nd.mean_rows(rows, [n]), Tensor(np.full((h, 1), float(n))), Tensor(np.zeros(1)))
    return nd.pick(total, (0, 0))


def finite_difference(build_scalar, tensors, h=1e-5):
    """Central-difference gradient of build_scalar() wrt each tensor.

    build_scalar must rebuild the forward graph from the tensors' current
    values on every call and return a plain float.
    """
    grads = []
    for t in tensors:
        flat = t.values.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build_scalar()
            flat[i] = orig - h
            fm = build_scalar()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
        grads.append(g.reshape(t.values.shape))
    return grads


def max_rel_err(analytic, numeric):
    """max over elements of |a - n| / max(|a| + |n|, 1e-4).

    Gradients of order one compare relatively; entries below the floor
    compare absolutely at the floor's scale, which keeps finite-difference
    round-off from producing false alarms.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_grads(build_scalar_tensor, tensors, h=1e-5, tol=1e-4):
    """Run backward once, compare against the numeric oracle; returns the
    observed worst relative error (asserting it is under tol)."""
    for t in tensors:
        t.grad.fill(0.0)
    out = build_scalar_tensor()
    out.backward()
    analytic = [t.grad.copy() for t in tensors]
    numeric = finite_difference(lambda: float(build_scalar_tensor().values), tensors, h=h)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err


def backward_keeping_graph(root):
    """Reference backward: every recorded op newest first, as Graph.backward
    runs them, but with nothing released."""
    root._node.grad = np.ones_like(root.values)
    for node in reversed(nd.Graph(root).nodes):
        if node.backward is not None and node.grad is not None and node.grad.any():
            node.backward(node.grad, *node.parents)


# Any JSON value, NaN and the infinities included, nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@contextlib.contextmanager
def serve_loopback(handler):
    """Serve handler (a BaseHTTPRequestHandler subclass) from a thread of this
    process on 127.0.0.1 and a free port; yields the base URL."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def recipe_digests(out_dir):
    """Train the 12-step recipe and return what it wrote, as sha256 prefixes.

    The recipe: synth_toy_corpus(120, 1.0, 1), split seed 1, the train split's
    vocabulary, default ModelConfig weights from default_rng(1), batch 8,
    eval_every 6, train seed 0. For each (routing_aux_coeff,
    freeze_patch_embedder) pair it maps "aux/freeze" to the prefixes of
    weights.umfd, optimizer.umfd, train_state.json, history.csv and the
    greedy test-split predictions of the saved model. "resumed" holds the
    four file prefixes of the (0.5, on) run trained 6 steps, reloaded and
    resumed to 12; "vocab" holds the vocabulary's size and prefix."""
    def sha(blob):
        return hashlib.sha256(blob).hexdigest()[:16]

    def files(run):
        return [sha((run / name).read_bytes()) for name in (
            f"checkpoint/{checkpoint.WEIGHTS_FILE}", f"checkpoint/{checkpoint.OPTIMIZER_FILE}",
            f"checkpoint/{checkpoint.TRAIN_STATE_FILE}", "history.csv")]

    out = Path(out_dir)
    train_s, val_s, test_s = data.split(data.synth_toy_corpus(120, 1.0, 1),
                                        data.SplitSpec(seed=1))
    template = instruct.default_template()
    vocab = instruct.build_vocab(train_s, template)

    def run(dest, aux, freeze, steps, resume=False):
        params = (checkpoint.load_model(dest / "checkpoint")[0] if resume else
                  model.init_model(model.ModelConfig(vocab_size=len(vocab)),
                                   np.random.default_rng(1)))
        tcfg = trainer.TrainConfig(max_steps=steps, batch_size=8, eval_every=6,
                                   routing_aux_coeff=aux, freeze_patch_embedder=freeze)
        trainer.train(params, train_s, val_s, vocab, template, tcfg, dest, resume=resume)

    digests = {"vocab": [len(vocab), sha("\n".join(vocab.id_to_token).encode())]}
    for aux, freeze in ((0.0, False), (0.5, False), (0.0, True), (0.5, True)):
        dest = out / f"{aux}-{freeze}"
        run(dest, aux, freeze, 12)
        params, saved_vocab = checkpoint.load_model(dest / "checkpoint")
        rows = evalkit.evaluate_model(params, test_s, saved_vocab, template).predictions
        digests[f"{aux}/{freeze}"] = files(dest) + [sha(json.dumps(rows).encode())]
    run(out / "resumed", 0.5, True, 6)
    run(out / "resumed", 0.5, True, 12, resume=True)
    digests["resumed"] = files(out / "resumed")
    return digests

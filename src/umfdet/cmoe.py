"""Category-aware mixture-of-experts layer.

Three gated-FFN experts (reality, deception, synthesis) sit behind a linear
softmax router. Routing is per sequence: each sequence is mean-pooled over
its valid rows, the router picks exactly one expert for it (argmax, lowest
index on ties) and only that expert runs on its rows. With gate scaling on,
the expert output is multiplied by its routing probability so the router
still receives gradient through the hard selection.

A batch of B sequences is one [B*T, H] tensor of B row blocks, each holding
its sequence in the first lengths[b] of its T rows; each selected expert
runs once, on the blocks of the sequences that chose it.

The weights live in the model's flat name -> Tensor dict: each function
takes that dict and the name of the module it reads or writes, such as
``cmoe.0`` for a layer or ``cmoe.0.router`` for its router.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .ndtensor import Tensor

EXPERT_NAMES = ("reality", "deception", "synthesis")
N_EXPERTS = 3


@dataclass
class Routing:
    """One mixture layer's routing of a batch of B sequences."""
    logits: Tensor       # [B, 3] router logits
    weights: Tensor      # [B, 3] softmax probabilities
    selected: np.ndarray  # [B] argmax expert per sequence, lowest index on ties


def normal(rng: np.random.Generator | None, std: float, shape) -> Tensor:
    """Trainable weight drawn from N(0, std^2), or zeros when rng is None
    (a skeleton whose values are about to be overwritten)."""
    values = np.zeros(shape) if rng is None else rng.normal(0.0, std, shape)
    return Tensor(values, requires_grad=True)


def xavier(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> Tensor:
    """Trainable [fan_in, fan_out] weight, Glorot-normal initialised."""
    return normal(rng, (2.0 / (fan_in + fan_out)) ** 0.5, (fan_in, fan_out))


def zeros(n: int) -> Tensor:
    """Trainable zero bias of width n."""
    return Tensor(np.zeros(n), requires_grad=True)


def init_expert(t: dict, rng: np.random.Generator, name: str, h: int,
                ratio: int = 2) -> None:
    """Gated two-layer expert: name.{W_a,b_a,W_b,b_b,W_out,b_out}."""
    he = ratio * h
    t[f"{name}.W_a"] = xavier(rng, h, he)
    t[f"{name}.b_a"] = zeros(he)
    t[f"{name}.W_b"] = xavier(rng, h, he)
    t[f"{name}.b_b"] = zeros(he)
    t[f"{name}.W_out"] = xavier(rng, he, h)
    t[f"{name}.b_out"] = zeros(h)


def init_cmoe_layer(t: dict, rng: np.random.Generator, name: str, h: int,
                    ratio: int = 2) -> None:
    """Three experts name.{reality,deception,synthesis}.*, then the linear
    router name.router.{W,b} from [H] to the 3 expert logits."""
    for expert in EXPERT_NAMES:
        init_expert(t, rng, f"{name}.{expert}", h, ratio)
    t[f"{name}.router.W"] = xavier(rng, h, N_EXPERTS)
    t[f"{name}.router.b"] = zeros(N_EXPERTS)


def expert_forward(t: dict, name: str, x: Tensor, training: bool = False,
                   rng: np.random.Generator | None = None,
                   dropout_rate: float = 0.0) -> Tensor:
    """Dropout(SiLU(xW_a + b_a) * sigmoid(xW_b + b_b)) W_out + b_out."""
    u = nd.silu(nd.linear(x, t[f"{name}.W_a"], t[f"{name}.b_a"]))
    v = nd.sigmoid(nd.linear(x, t[f"{name}.W_b"], t[f"{name}.b_b"]))
    y = nd.dropout(nd.mul(u, v), dropout_rate, training, rng)
    return nd.linear(y, t[f"{name}.W_out"], t[f"{name}.b_out"])


def route(t: dict, name: str, x: Tensor, lengths) -> Routing:
    """Mean-pool each sequence over its valid rows, softmax the router
    logits, hard-select one expert per sequence. x holds len(lengths) row
    blocks, one per sequence."""
    logits = nd.linear(nd.mean_rows(x, lengths), t[f"{name}.W"], t[f"{name}.b"])
    weights = nd.softmax(logits)
    return Routing(logits, weights, np.argmax(weights.values, axis=1))


def cmoe_forward(t: dict, name: str, x: Tensor, lengths, training: bool = False,
                 rng: np.random.Generator | None = None, dropout_rate: float = 0.0,
                 gate_scaling: bool = True):
    """Route each sequence, then run each selected expert once, on the row
    blocks of the sequences that chose it.

    Returns (output, routing). With gate scaling each block of the output is
    the expert output times its sequence's routing probability; without it,
    the literal expert output (the router then gets exactly zero gradient).
    """
    routing = route(t, f"{name}.router", x, lengths)
    b = len(routing.selected)
    n = x.shape[0] // b
    parts, order = [], []
    for e, expert in enumerate(EXPERT_NAMES):
        seqs = np.flatnonzero(routing.selected == e)
        if not seqs.size:
            continue
        rows = (seqs[:, None] * n + np.arange(n)).ravel()
        xe = x if len(seqs) == b else nd.embedding(x, rows)
        out = expert_forward(t, f"{name}.{expert}", xe, training, rng, dropout_rate)
        if gate_scaling:
            out = nd.scale_by(out, nd.pick(routing.weights, (seqs, np.full(len(seqs), e))))
        parts.append(out)
        order.append(rows)
    if len(parts) == 1:
        return parts[0], routing
    # Put the expert outputs' rows back into the input's row order.
    return nd.embedding(nd.concat(parts), np.argsort(np.concatenate(order))), routing


def routing_alignment_loss(routing: Routing, labels, coefficient: float) -> Tensor:
    """Cross-entropy pulling the router toward each label's expert, times
    coefficient.

    labels are the categories of the routed batch, in order; the loss is the
    mean over the batch of each sequence's cross entropy on its router
    logits. Training adds it only for a nonzero coefficient; routing is
    otherwise left emergent.
    """
    targets = np.array([label.expert_index for label in labels])
    return nd.scale(nd.cross_entropy_lm(routing.logits, targets), coefficient)

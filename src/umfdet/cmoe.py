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

The weights live in the model's parameter store. The forward functions
only read it: each takes its name -> Tensor dict and the name of the module
it reads, such as ``cmoe.0`` for a layer or ``cmoe.0.router`` for its
router. The module supplies those names as layout rows, (name, shape,
init), for one expert and for one layer, which ``model.build_store``
allocates and draws; init is a Normal std (a float) or "zeros".
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


def glorot(name: str, fan_in: int, fan_out: int) -> tuple:
    """Layout row of a [fan_in, fan_out] weight drawn Glorot-normal."""
    return name, (fan_in, fan_out), (2.0 / (fan_in + fan_out)) ** 0.5


def bias(name: str, n: int) -> tuple:
    """Layout row of a zero bias of width n."""
    return name, (n,), "zeros"


def expert_layout(name: str, h: int, ratio: int = 2) -> list:
    """Layout rows of one gated expert: name.{W_a,b_a,W_b,b_b,W_out,b_out}."""
    he = ratio * h
    return [glorot(f"{name}.W_a", h, he), bias(f"{name}.b_a", he),
            glorot(f"{name}.W_b", h, he), bias(f"{name}.b_b", he),
            glorot(f"{name}.W_out", he, h), bias(f"{name}.b_out", h)]


def layer_layout(name: str, h: int, ratio: int = 2) -> list:
    """Layout rows of one mixture layer: three experts
    name.{reality,deception,synthesis}.*, then the linear router
    name.router.{W,b} from [H] to the 3 expert logits."""
    return [*(row for expert in EXPERT_NAMES
              for row in expert_layout(f"{name}.{expert}", h, ratio)),
            glorot(f"{name}.router.W", h, N_EXPERTS), bias(f"{name}.router.b", N_EXPERTS)]


def expert_forward(t: dict, name: str, x: Tensor, rng: np.random.Generator | None = None,
                   dropout_rate: float = 0.0) -> Tensor:
    """Dropout(SiLU(xW_a + b_a) * sigmoid(xW_b + b_b)) W_out + b_out, the
    dropout only when a generator is passed (without one nothing is drawn)."""
    y = nd.gated_silu(nd.linear(x, t[f"{name}.W_a"], t[f"{name}.b_a"]),
                      nd.linear(x, t[f"{name}.W_b"], t[f"{name}.b_b"]))
    y = nd.dropout(y, dropout_rate, rng)
    return nd.linear(y, t[f"{name}.W_out"], t[f"{name}.b_out"])


def route(t: dict, name: str, x: Tensor, lengths) -> Routing:
    """Mean-pool each sequence over its valid rows, softmax the router
    logits, hard-select one expert per sequence. x holds len(lengths) row
    blocks, one per sequence."""
    logits = nd.linear(nd.mean_rows(x, lengths), t[f"{name}.W"], t[f"{name}.b"])
    weights = nd.softmax(logits)
    return Routing(logits, weights, np.argmax(weights.values, axis=1))


def cmoe_forward(t: dict, name: str, x: Tensor, lengths,
                 rng: np.random.Generator | None = None, dropout_rate: float = 0.0,
                 gate_scaling: bool = True):
    """Route each sequence, then run each selected expert once, on the row
    blocks of the sequences that chose it. Expert dropout runs only when a
    generator is passed, and without one nothing is drawn.

    Returns (output, routing). With gate scaling each block of the output is
    the expert output times its sequence's routing probability; without it,
    the literal expert output (the router then gets exactly zero gradient).
    """
    routing = route(t, f"{name}.router", x, lengths)
    b = len(routing.selected)
    expert_of_row = np.repeat(routing.selected, x.shape[0] // b)
    parts = []
    for e, expert in enumerate(EXPERT_NAMES):
        rows = np.flatnonzero(expert_of_row == e)
        if rows.size:
            xe = x if rows.size == x.shape[0] else nd.pick(x, rows)
            parts.append(expert_forward(t, f"{name}.{expert}", xe, rng, dropout_rate))
    # concat holds the rows stably sorted by expert; the inverse sort restores their order.
    out = parts[0] if len(parts) == 1 else nd.pick(
        nd.concat(parts), np.argsort(np.argsort(expert_of_row, kind="stable")))
    if gate_scaling:
        out = nd.scale_by(out, nd.pick(routing.weights, (np.arange(b), routing.selected)))
    return out, routing


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

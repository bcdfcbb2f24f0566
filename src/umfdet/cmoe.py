"""Category-aware mixture-of-experts layer.

Three gated-FFN experts (reality, deception, synthesis) sit behind a linear
softmax router. Routing is per sequence: the input is mean-pooled, the
router picks exactly one expert (argmax, lowest index on ties) and only that
expert runs. With gate scaling on, the expert output is multiplied by its
routing probability so the router still receives gradient through the hard
selection.

The weights live in the model's flat name -> Tensor dict: each function
takes that dict and the name of the module it reads or writes, such as
``cmoe.0`` for a layer or ``cmoe.0.router`` for its router.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndtensor as nd
from .data import Category
from .errors import DataError
from .ndtensor import Tensor

EXPERT_NAMES = ("reality", "deception", "synthesis")
N_EXPERTS = 3


@dataclass
class RoutingDecision:
    weights: list          # 3 softmax probabilities
    selected: int          # argmax index, lowest index wins ties
    sequence_id: str | None = None
    logits_t: Tensor | None = field(default=None, repr=False)
    weights_t: Tensor | None = field(default=None, repr=False)


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Trainable [fan_in, fan_out] weight, Glorot-normal initialised."""
    std = (2.0 / (fan_in + fan_out)) ** 0.5
    return Tensor(rng.normal(0.0, std, (fan_in, fan_out)), requires_grad=True)


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
    u = nd.silu(nd.add(nd.matmul(x, t[f"{name}.W_a"]), t[f"{name}.b_a"]))
    v = nd.sigmoid(nd.add(nd.matmul(x, t[f"{name}.W_b"]), t[f"{name}.b_b"]))
    y = nd.dropout(nd.mul(u, v), dropout_rate, training, rng)
    return nd.add(nd.matmul(y, t[f"{name}.W_out"]), t[f"{name}.b_out"])


def route(t: dict, name: str, x: Tensor,
          sequence_id: str | None = None) -> RoutingDecision:
    """Mean-pool the sequence, softmax the router logits, hard-select one expert."""
    if x.shape[0] == 0:
        raise DataError("route: empty sequence")
    pooled = nd.mean_rows(x)
    logits = nd.add(nd.matmul(pooled, t[f"{name}.W"]), t[f"{name}.b"])
    weights = nd.softmax(logits, axis=-1)
    return RoutingDecision(
        weights=[float(w) for w in weights.values[0]],
        selected=int(np.argmax(weights.values[0])),
        sequence_id=sequence_id,
        logits_t=logits,
        weights_t=weights,
    )


def cmoe_forward(t: dict, name: str, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None, dropout_rate: float = 0.0,
                 gate_scaling: bool = True, sequence_id: str | None = None):
    """Route, then evaluate only the selected expert.

    Returns (output, decision). With gate scaling the output is the expert
    output times its routing probability; without it, the literal expert
    output (router then gets exactly zero gradient).
    """
    decision = route(t, f"{name}.router", x, sequence_id)
    out = expert_forward(t, f"{name}.{EXPERT_NAMES[decision.selected]}", x,
                         training, rng, dropout_rate)
    if gate_scaling:
        gate = nd.pick(decision.weights_t, (0, decision.selected))
        out = nd.scale_by(out, gate)
    return out, decision


def routing_alignment_loss(decision: RoutingDecision, label: Category,
                           coefficient: float = 0.0) -> Tensor:
    """Optional cross-entropy pulling the router toward the label's expert.

    Off by default (coefficient 0 contributes a gradient-free constant 0);
    routing is otherwise left emergent.
    """
    if coefficient == 0.0:
        return Tensor(np.asarray(0.0))
    idx = label.expert_index
    return nd.scale(nd.cross_entropy_lm(decision.logits_t, [idx]), coefficient)

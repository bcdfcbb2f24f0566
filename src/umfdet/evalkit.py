"""Evaluation: answer extraction, classification metrics, routing analysis.

Metric conventions are fixed and deliberately simple: unparseable
predictions stay in every denominator they belong to (they are wrong
answers, not excluded ones), and any 0/0 ratio is defined as 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .cmoe import EXPERT_NAMES, N_EXPERTS
from .data import CATEGORY_NAMES, Category
from .errors import DataError
from . import model as model_mod

# A lockstep batch holds [B, heads, T, T] attention scores, so evaluation
# generates at most this many posts at once to bound its memory.
EVAL_BATCH = 64

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)


def parse_answer(text: str):
    """First answer block -> Category, else None (missing block, empty body
    or an unknown category string all count as unparseable)."""
    m = _ANSWER_RE.search(text)
    if not m:
        return None
    return Category.parse(m.group(1))


def _safe_div(num, den):
    return num / den if den else 0.0


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def to_json(self):
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "support": self.support}


@dataclass
class MetricsReport:
    accuracy: float
    per_class: dict
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: list            # 3x3 counts, rows true / cols predicted
    unparseable_by_class: list
    n_samples: int
    n_unparseable: int

    def to_json(self):
        return {
            "accuracy": self.accuracy,
            "n_samples": self.n_samples,
            "n_unparseable": self.n_unparseable,
            "per_class": {k: v.to_json() for k, v in self.per_class.items()},
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "confusion": self.confusion,
            "unparseable_by_class": self.unparseable_by_class,
        }

    def render_text(self) -> str:
        lines = [f"accuracy {self.accuracy:.4f} over {self.n_samples} samples "
                 f"({self.n_unparseable} unparseable)"]
        for name, m in self.per_class.items():
            lines.append(f"  {name:<15} P {m.precision:.4f}  R {m.recall:.4f}  "
                         f"F1 {m.f1:.4f}  support {m.support}")
        lines.append(f"  {'macro':<15} P {self.macro_precision:.4f}  "
                     f"R {self.macro_recall:.4f}  F1 {self.macro_f1:.4f}")
        return "\n".join(lines)


def compute_metrics(y_true, y_pred) -> MetricsReport:
    """Three-class report from aligned truth/prediction lists; predictions
    may be None for unparseable model output."""
    if len(y_true) != len(y_pred):
        raise DataError(f"metrics need aligned lists, got {len(y_true)} vs {len(y_pred)}")
    if not y_true:
        raise DataError("metrics need at least one sample")
    index = {c: i for i, c in enumerate(Category)}
    confusion = [[0] * len(CATEGORY_NAMES) for _ in CATEGORY_NAMES]
    unparseable = [0] * len(CATEGORY_NAMES)
    for t, p in zip(y_true, y_pred):
        ti = index[t]
        if p is None:
            unparseable[ti] += 1
        else:
            confusion[ti][index[p]] += 1
    n = len(y_true)
    correct = sum(confusion[i][i] for i in range(len(CATEGORY_NAMES)))
    per_class = {}
    precisions, recalls, f1s = [], [], []
    for i, name in enumerate(CATEGORY_NAMES):
        col = sum(confusion[r][i] for r in range(len(CATEGORY_NAMES)))
        row = sum(confusion[i]) + unparseable[i]
        p = _safe_div(confusion[i][i], col)
        r = _safe_div(confusion[i][i], row)
        f1 = _safe_div(2 * p * r, p + r)
        per_class[name] = ClassMetrics(precision=p, recall=r, f1=f1, support=row)
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
    return MetricsReport(
        accuracy=correct / n,
        per_class=per_class,
        macro_precision=sum(precisions) / len(precisions),
        macro_recall=sum(recalls) / len(recalls),
        macro_f1=sum(f1s) / len(f1s),
        confusion=confusion,
        unparseable_by_class=unparseable,
        n_samples=n,
        n_unparseable=sum(unparseable),
    )


# ---------------------------------------------------------------------------
# routing analysis


@dataclass
class RoutingReport:
    """Per-layer 3x3 matrices of category (rows) vs selected expert (cols)."""
    counts: list                      # [n_layers][3][3] ints
    percent: list                     # row-normalized, zero rows stay zero
    n_samples: int
    specialization: dict = field(default_factory=dict)  # category -> share on its expert

    def to_json(self):
        return {"n_samples": self.n_samples, "counts": self.counts,
                "percent": self.percent, "specialization": self.specialization,
                "experts": list(EXPERT_NAMES), "categories": list(CATEGORY_NAMES)}

    def render_text(self) -> str:
        lines = [f"routing over {self.n_samples} samples"]
        for li, (cnt, pct) in enumerate(zip(self.counts, self.percent)):
            lines.append(f"layer {li}  (rows: category, cols: {', '.join(EXPERT_NAMES)})")
            for ci, name in enumerate(CATEGORY_NAMES):
                cells = "  ".join(f"{cnt[ci][e]:>5} ({pct[ci][e]:5.1f}%)"
                                  for e in range(N_EXPERTS))
                lines.append(f"  {name:<15} {cells}")
        for cat, share in self.specialization.items():
            lines.append(f"  {cat} -> own expert share {share:.4f} (last layer)")
        return "\n".join(lines)


def routing_report(labels, experts) -> RoutingReport:
    """Build the report from N labels and the [N, n_layers] expert index each
    mixture layer selected for each sample."""
    experts = np.asarray(experts, dtype=np.int64)
    if not len(labels):
        raise DataError("routing report needs at least one routed sample")
    if experts.ndim != 2 or experts.shape[0] != len(labels) or not experts.size:
        raise DataError(f"routing report needs experts of shape [{len(labels)}, n_layers >= 1], "
                        f"got {list(experts.shape)}")
    order = list(Category)
    cats = np.array([order.index(label) for label in labels])
    counts = np.zeros((experts.shape[1], len(order), N_EXPERTS), dtype=np.int64)
    np.add.at(counts, (np.arange(experts.shape[1]), cats[:, None], experts), 1)
    rows = counts.sum(axis=2, keepdims=True)
    percent = np.divide(counts * 100.0, rows, out=np.zeros(counts.shape), where=rows > 0)
    own = counts[-1, np.arange(len(order)), [c.expert_index for c in order]]
    shares = own / np.maximum(rows[-1, :, 0], 1)
    specialization = {c.value: float(share) for c, share in zip(order, shares)}
    return RoutingReport(counts=counts.tolist(), percent=percent.tolist(),
                         n_samples=len(labels), specialization=specialization)


# ---------------------------------------------------------------------------
# model evaluation loop


@dataclass
class EvalResult:
    metrics: MetricsReport
    routing: RoutingReport | None
    predictions: list  # (sample_id, true_name, pred_name_or_None, raw_text)


def evaluate_model(params, samples, vocab, template) -> EvalResult:
    """Greedy-generate for every sample, score the parsed answers and report
    the experts each mixture layer selected. Posts are generated in batches
    of up to EVAL_BATCH, each in one lockstep model.generate call."""
    samples = list(samples)
    if not samples:
        raise DataError("evaluation needs at least one sample")
    y_true, y_pred, rows, experts = [], [], [], []
    for i in range(0, len(samples), EVAL_BATCH):
        chunk = samples[i:i + EVAL_BATCH]
        for s, gen in zip(chunk, model_mod.generate(params, chunk, vocab, template)):
            pred = parse_answer(gen.text)
            y_true.append(s.label)
            y_pred.append(pred)
            rows.append((s.id, s.label.value, pred.value if pred else None, gen.text))
            experts.append(gen.experts)
    routing = routing_report(y_true, experts) if experts[0] else None
    return EvalResult(metrics=compute_metrics(y_true, y_pred), routing=routing,
                      predictions=rows)

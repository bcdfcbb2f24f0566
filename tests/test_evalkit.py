"""Answer extraction, metric arithmetic against brute force, routing tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umfdet import evalkit
from umfdet.data import Category
from umfdet.errors import DataError
from umfdet.evalkit import (
    compute_metrics,
    evaluate_model,
    parse_answer,
    routing_report,
)

CATS = list(Category)


# ---------------------------------------------------------------------------
# answer extraction


@pytest.mark.parametrize("text,expected", [
    ("<think>x</think><answer>real</answer>", Category.REAL),
    ("<answer> human_crafted </answer>", Category.HUMAN_CRAFTED),
    ("<ANSWER>AI_SYNTHESIZED</ANSWER>", Category.AI_SYNTHESIZED),
    ("noise <answer>real</answer> <answer>human_crafted</answer>", Category.REAL),
    ("<answer>\nreal\n</answer>", Category.REAL),
    ("<answer>authentic</answer>", None),
    ("<answer></answer>", None),
    ("no blocks here", None),
    ("<answer>real", None),
])
def test_parse_answer(text, expected):
    assert parse_answer(text) is expected


# ---------------------------------------------------------------------------
# metrics


def _brute_force(y_true, y_pred):
    """Independent per-class tallies straight from the definitions."""
    n = len(y_true)
    accuracy = sum(t is p for t, p in zip(y_true, y_pred)) / n
    per = {}
    for c in CATS:
        tp = sum(t is c and p is c for t, p in zip(y_true, y_pred))
        pred_c = sum(p is c for p in y_pred)
        true_c = sum(t is c for t in y_true)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per[c.value] = (precision, recall, f1, true_c)
    macro_p = sum(v[0] for v in per.values()) / 3
    macro_r = sum(v[1] for v in per.values()) / 3
    macro_f = sum(v[2] for v in per.values()) / 3
    return accuracy, per, macro_p, macro_r, macro_f


def test_metrics_match_brute_force_on_random_vectors():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        y_true = [CATS[i] for i in rng.integers(0, 3, n)]
        y_pred = [None if rng.random() < 0.15 else CATS[i]
                  for i in rng.integers(0, 3, n)]
        rep = compute_metrics(y_true, y_pred)
        accuracy, per, macro_p, macro_r, macro_f = _brute_force(y_true, y_pred)
        assert rep.accuracy == accuracy, trial
        for name, (p, r, f1, support) in per.items():
            m = rep.per_class[name]
            assert (m.precision, m.recall, m.f1) == (p, r, f1), (trial, name)
            assert m.support == support
        assert rep.macro_precision == macro_p
        assert rep.macro_recall == macro_r
        assert rep.macro_f1 == macro_f
        assert rep.n_unparseable == sum(p is None for p in y_pred)
        assert sum(sum(row) for row in rep.confusion) + rep.n_unparseable == n


def test_metrics_hand_case():
    # 4 samples, 3 correct, one real predicted as human_crafted
    y_true = [Category.REAL, Category.REAL, Category.HUMAN_CRAFTED,
              Category.AI_SYNTHESIZED]
    y_pred = [Category.REAL, Category.HUMAN_CRAFTED, Category.HUMAN_CRAFTED,
              Category.AI_SYNTHESIZED]
    rep = compute_metrics(y_true, y_pred)
    assert rep.accuracy == 0.75
    assert rep.confusion == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    assert rep.per_class["real"].precision == 1.0
    assert rep.per_class["real"].recall == 0.5
    assert rep.per_class["human_crafted"].precision == 0.5
    assert rep.per_class["human_crafted"].recall == 1.0
    assert rep.per_class["ai_synthesized"].f1 == 1.0


def test_metrics_unparseable_stays_in_recall_denominator():
    y_true = [Category.REAL, Category.REAL]
    y_pred = [Category.REAL, None]
    rep = compute_metrics(y_true, y_pred)
    assert rep.per_class["real"].recall == 0.5
    assert rep.per_class["real"].precision == 1.0
    assert rep.accuracy == 0.5
    assert rep.unparseable_by_class == [1, 0, 0]


def test_metrics_all_unparseable_is_all_zero():
    rep = compute_metrics([Category.REAL], [None])
    assert rep.accuracy == 0.0
    assert rep.macro_f1 == 0.0
    assert rep.n_unparseable == 1


def test_metrics_input_validation():
    with pytest.raises(DataError):
        compute_metrics([], [])
    with pytest.raises(DataError):
        compute_metrics([Category.REAL], [])


def test_metrics_render_and_json():
    rep = compute_metrics([Category.REAL, Category.HUMAN_CRAFTED,
                           Category.AI_SYNTHESIZED],
                          [Category.REAL, Category.HUMAN_CRAFTED, None])
    text = rep.render_text()
    assert "accuracy 0.6667" in text
    assert "macro" in text
    obj = rep.to_json()
    assert obj["n_samples"] == 3 and obj["n_unparseable"] == 1
    assert obj["per_class"]["real"]["f1"] == 1.0


@given(st.lists(st.tuples(st.sampled_from(CATS),
                          st.sampled_from(CATS + [None])), min_size=1, max_size=60))
def test_metrics_bounds_property(pairs):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    rep = compute_metrics(y_true, y_pred)
    assert 0.0 <= rep.accuracy <= 1.0
    for m in rep.per_class.values():
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        assert min(m.precision, m.recall) <= m.f1 <= max(m.precision, m.recall) + 1e-12
    assert sum(m.support for m in rep.per_class.values()) == len(pairs)


# ---------------------------------------------------------------------------
# routing report


def test_routing_report_counts_and_specialization():
    labels = [Category.REAL, Category.REAL, Category.HUMAN_CRAFTED,
              Category.AI_SYNTHESIZED, Category.AI_SYNTHESIZED]
    experts = [[0, 0], [1, 0], [1, 1], [2, 2], [2, 1]]
    rep = routing_report(labels, experts)
    assert rep.n_samples == 5
    assert rep.counts[0][0] == [1, 1, 0]       # layer 0, real row
    assert rep.counts[1][2] == [0, 1, 1]       # layer 1, ai row
    assert rep.percent[1][0] == [100.0, 0.0, 0.0]
    assert rep.specialization["real"] == 1.0   # last layer only
    assert rep.specialization["human_crafted"] == 1.0
    assert rep.specialization["ai_synthesized"] == 0.5


def test_routing_report_zero_rows_stay_zero():
    rep = routing_report([Category.REAL], [[0]])
    assert rep.percent[0][1] == [0.0, 0.0, 0.0]
    assert rep.specialization["human_crafted"] == 0.0


def test_routing_report_validation():
    with pytest.raises(DataError):
        routing_report([], np.zeros((0, 2)))
    with pytest.raises(DataError, match="shape"):
        routing_report([Category.REAL, Category.REAL], [[0, 1]])
    with pytest.raises(DataError, match="shape"):
        routing_report([Category.REAL], [0])
    with pytest.raises(DataError, match="shape"):
        routing_report([Category.REAL], [[]])


def _brute_force_routing(labels, experts):
    """Nested-loop counts, row percentages and last-layer own-expert shares."""
    n_layers = len(experts[0])
    counts = [[[0] * 3 for _ in CATS] for _ in range(n_layers)]
    for label, row in zip(labels, experts):
        for li, e in enumerate(row):
            counts[li][CATS.index(label)][e] += 1
    percent = [[[c * 100.0 / sum(r) if sum(r) else 0.0 for c in r] for r in layer]
               for layer in counts]
    special = {}
    for ci, cat in enumerate(CATS):
        total = sum(counts[-1][ci])
        special[cat.value] = counts[-1][ci][cat.expert_index] / total if total else 0.0
    return counts, percent, special


@given(st.integers(1, 4).flatmap(lambda n_layers: st.lists(
    st.tuples(st.sampled_from(CATS), st.lists(st.integers(0, 2), min_size=n_layers,
                                              max_size=n_layers)),
    min_size=1, max_size=40)))
def test_routing_report_matches_brute_force_count(rows):
    labels = [label for label, _ in rows]
    experts = [e for _, e in rows]
    rep = routing_report(labels, np.array(experts))
    counts, percent, special = _brute_force_routing(labels, experts)
    assert rep.n_samples == len(rows)
    assert rep.counts == counts
    assert rep.percent == percent
    assert rep.specialization == special


def test_routing_report_render_and_json():
    rep = routing_report([Category.REAL, Category.AI_SYNTHESIZED], [[0], [2]])
    text = rep.render_text()
    assert "layer 0" in text and "own expert share" in text
    obj = rep.to_json()
    assert obj["experts"] == ["reality", "deception", "synthesis"]
    assert obj["counts"][0][0][0] == 1


# ---------------------------------------------------------------------------
# end-to-end evaluation loop


def test_evaluate_model_smoke(tiny_model, toy_vocab, template, toy_corpus):
    result = evaluate_model(tiny_model, toy_corpus[:6], toy_vocab, template, max_new=8)
    assert result.metrics.n_samples == 6
    assert len(result.predictions) == 6
    for sid, true_name, pred_name, text in result.predictions:
        assert sid.startswith("toy-")
        assert true_name in ("real", "human_crafted", "ai_synthesized")
        assert isinstance(text, str)
    assert result.routing is not None
    assert result.routing.n_samples == 6


def test_evaluate_model_needs_samples(tiny_model, toy_vocab, template):
    with pytest.raises(DataError):
        evaluate_model(tiny_model, [], toy_vocab, template)


def test_evaluate_model_generates_in_batches_of_eval_batch(tiny_model, toy_vocab, template,
                                                           toy_corpus, monkeypatch):
    samples = toy_corpus[:7]
    whole = evaluate_model(tiny_model, samples, toy_vocab, template, max_new=6)
    sizes = []
    generate = evalkit.model_mod.generate

    def counting(params, batch, *args, **kwargs):
        sizes.append(len(batch))
        return generate(params, batch, *args, **kwargs)

    monkeypatch.setattr(evalkit, "EVAL_BATCH", 3)
    monkeypatch.setattr(evalkit.model_mod, "generate", counting)
    chunked = evaluate_model(tiny_model, samples, toy_vocab, template, max_new=6)
    assert sizes == [3, 3, 1]
    assert chunked.predictions == whole.predictions
    assert chunked.routing.counts == whole.routing.counts

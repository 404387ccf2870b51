"""Evaluation metrics and experiment harnesses."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.corpus import SynthSpec, split_dataset, synthesize_corpus
from httpglass.evalx import (ConfusionMatrix, EvalError,
                             PAPER_REFERENCE_MALWARE_F1, accuracy,
                             precision_recall, render_malware_report,
                             render_semantics_report, report_to_json,
                             run_malware_experiment, run_semantics_experiment,
                             unweighted_f1)
from httpglass.forest import TrainParams
from httpglass.inference import train_bundle


def brute_force_f1(truth, predicted, labels):
    """Macro F1 recomputed from raw pairs, label by label."""
    scores = []
    for lab in labels:
        tp = sum(1 for t, p in zip(truth, predicted) if t == lab and p == lab)
        fp = sum(1 for t, p in zip(truth, predicted) if t != lab and p == lab)
        fn = sum(1 for t, p in zip(truth, predicted) if t == lab and p != lab)
        denom = 2 * tp + fp + fn
        scores.append((2 * tp / denom) if denom else 0.0)
    return float(np.mean(scores))


class TestConfusionMatrix:
    def test_from_pairs(self):
        cm = ConfusionMatrix.from_pairs(["a", "a", "b"], ["a", "b", "b"])
        assert cm.labels == ["a", "b"]
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])
        assert cm.total() == 3

    def test_explicit_labels_and_vacuous(self):
        cm = ConfusionMatrix.from_pairs(["a"], ["a"], labels=["a", "b", "c"])
        assert cm.vacuous_labels() == ["b", "c"]

    def test_unknown_pair_rejected(self):
        with pytest.raises(EvalError):
            ConfusionMatrix.from_pairs(["a"], ["z"], labels=["a", "b"])

    def test_csv(self):
        cm = ConfusionMatrix.from_pairs(["a", "b"], ["b", "b"])
        lines = cm.to_csv().strip().splitlines()
        assert lines[0] == "truth\\pred,a,b"
        assert lines[1] == "a,0,1"
        assert lines[2] == "b,0,1"


class TestMetrics:
    def test_hand_computed_binary_case(self):
        """truth a:[1 TP, 1 FN], truth b:[0, 2]: F1(a)=2/3, F1(b)=4/5,
        macro mean 11/15 = 0.7333..."""
        truth = ["a", "a", "b", "b"]
        pred = ["a", "b", "b", "b"]
        cm = ConfusionMatrix.from_pairs(truth, pred)
        assert unweighted_f1(cm) == pytest.approx(11 / 15)
        assert accuracy(cm) == pytest.approx(3 / 4)

    def test_perfect_and_zero(self):
        cm = ConfusionMatrix.from_pairs(["x", "y"], ["x", "y"])
        assert unweighted_f1(cm) == 1.0
        cm = ConfusionMatrix.from_pairs(["x", "y"], ["y", "x"])
        assert unweighted_f1(cm) == 0.0

    def test_vacuous_label_contributes_zero(self):
        cm = ConfusionMatrix.from_pairs(["a", "a"], ["a", "a"],
                                        labels=["a", "ghost"])
        assert unweighted_f1(cm) == pytest.approx(0.5)

    def test_precision_recall(self):
        cm = ConfusionMatrix.from_pairs(["p", "p", "n", "n", "n"],
                                        ["p", "n", "p", "n", "n"])
        prec, rec = precision_recall(cm, "p")
        assert prec == pytest.approx(0.5)
        assert rec == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_f1_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        labels = [f"l{i}" for i in range(k)]
        n = int(rng.integers(1, 120))
        truth = [labels[i] for i in rng.integers(0, k, n)]
        pred = [labels[i] for i in rng.integers(0, k, n)]
        cm = ConfusionMatrix.from_pairs(truth, pred, labels=labels)
        assert abs(unweighted_f1(cm) - brute_force_f1(truth, pred, labels)) \
            <= 1e-12
        assert accuracy(cm) == pytest.approx(
            np.mean([t == p for t, p in zip(truth, pred)]), abs=1e-12)


@pytest.fixture(scope="module")
def report():
    corpus = synthesize_corpus(SynthSpec(
        seed=31, n_connections=50, protocol_mix={"http1": 1.0},
        transactions_range=(1, 3)))
    train, test = split_dataset(corpus, policy="by_fraction",
                                fraction=0.7, seed=0)
    bundle = train_bundle(train, params=TrainParams(n_trees=10, max_depth=12,
                                                    min_leaf=2))
    return run_semantics_experiment(bundle, train, test, max_iters=5)


@pytest.fixture(scope="module", params=["standard", "tor"])
def mixed_world(request):
    """A bundle of both protocols and the corpus split it was trained on;
    filler records make it miss some message types, so filtering drops
    connections."""
    corpus = synthesize_corpus(SynthSpec(seed=32, n_connections=50,
                                         transactions_range=(1, 3),
                                         filler_range=(0, 3)))
    train, test = split_dataset(corpus, policy="by_fraction",
                                fraction=0.7, seed=0)
    return train_bundle(train, mode=request.param, params=TrainParams(
        n_trees=8, max_depth=12, min_leaf=2)), train, test


def _widened(entry, stage, labels):
    """``entry[stage]``'s accuracy, vacuous labels and confusion as they
    read on the wider label list ``labels``: the labels it lacks are never
    true and never predicted."""
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    at = [labels.index(l) for l in entry["labels"]]
    counts[np.ix_(at, at)] = entry[stage]["confusion"]
    cm = ConfusionMatrix(labels, counts)
    return {"accuracy": accuracy(cm), "vacuous_labels": cm.vacuous_labels(),
            "confusion": cm.counts.tolist()}


class TestSemanticsExperiment:
    @pytest.mark.parametrize("filter_misclassified", [False, True])
    def test_single_pass_is_a_one_pass_run(self, mixed_world,
                                           filter_misclassified):
        """Each problem's single-pass scores are those a run capped at one
        pass reports as iterative: the same F1, since each stage's F1
        averages only the labels that stage meets, and the same accuracy,
        vacuous labels and confusion on the label list the longer run
        observes; the later passes move some problem's scores."""
        many, one = (run_semantics_experiment(*mixed_world, max_iters,
                                              filter_misclassified)
                     for max_iters in (10, 1))
        assert many["problems"].keys() == one["problems"].keys()
        moved = False
        for key, entry in many["problems"].items():
            if entry["status"] != "ok":
                assert one["problems"][key] == entry
                continue
            other = one["problems"][key]
            assert other["n_test_records"] == entry["n_test_records"]
            assert set(other["labels"]) <= set(entry["labels"])
            single = dict(entry["single_pass"])
            assert single.pop("f1") == other["iterative"]["f1"]
            assert single == _widened(other, "iterative", entry["labels"])
            moved |= entry["single_pass"] != entry["iterative"]
        assert moved

    def test_report_shape(self, report):
        assert "protocol" in report and "message_type" in report
        assert "convergence" in report
        keys = [k for k in report["problems"]]
        assert any(k.endswith("request.method") for k in keys)
        for entry in report["problems"].values():
            if entry.get("status") != "ok":
                continue
            for stage in ("single_pass", "iterative"):
                assert 0.0 <= entry[stage]["f1"] <= 1.0
                assert 0.0 <= entry[stage]["accuracy"] <= 1.0

    def test_stage_f1_is_the_brute_force_count(self, mixed_world):
        """Each stage's F1 is the macro F1 of its confusion's pairs, counted
        label by label over the labels its truth or predictions hold."""
        report = run_semantics_experiment(*mixed_world)
        for entry in report["problems"].values():
            if entry["status"] != "ok":
                continue
            labels = entry["labels"]
            for stage in ("single_pass", "iterative"):
                truth, pred = zip(*[
                    (labels[i], labels[j])
                    for i, row in enumerate(entry[stage]["confusion"])
                    for j, n in enumerate(row) for _ in range(n)])
                met = [l for l in labels if l in truth or l in pred]
                assert met == [l for l in labels
                               if l not in entry[stage]["vacuous_labels"]]
                assert entry[stage]["f1"] == \
                    pytest.approx(brute_force_f1(truth, pred, met))

    def test_convergence_stats(self, report):
        conv = report["convergence"]
        assert len(conv["iterations"]) == len(conv["converged"]) > 0
        assert 0.0 <= conv["fraction_converged"] <= 1.0
        assert conv["max_iterations"] == max(conv["iterations"])

    def test_json_and_text_rendering(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed["protocol"]["accuracy"] == \
            pytest.approx(report["protocol"]["accuracy"])
        text = render_semantics_report(report)
        assert "request.method" in text

    def test_filter_misclassified_drops_connections(self):
        corpus = synthesize_corpus(SynthSpec(
            seed=32, n_connections=30, protocol_mix={"http1": 1.0}))
        train, test = split_dataset(corpus, policy="by_fraction",
                                    fraction=0.7, seed=0)
        bundle = train_bundle(train, params=TrainParams(
            n_trees=8, max_depth=10, min_leaf=2))
        plain = run_semantics_experiment(bundle, train, test, max_iters=2)
        filtered = run_semantics_experiment(bundle, train, test, max_iters=2,
                                            filter_misclassified=True)

        def n_records(rep):
            return sum(e.get("n_test_records", 0)
                       for e in rep["problems"].values())

        assert n_records(filtered) <= n_records(plain)


class TestMalwareExperiment:
    def test_paper_reference_constants(self):
        assert PAPER_REFERENCE_MALWARE_F1 == {"standard": 0.951,
                                              "enriched": 0.979}

    def test_report_structure(self):
        sem = synthesize_corpus(SynthSpec(seed=33, n_connections=30,
                                          protocol_mix={"http1": 1.0}))
        bundle = train_bundle(sem, params=TrainParams(n_trees=8, max_depth=10,
                                                      min_leaf=2), seed=0)
        benign = synthesize_corpus(SynthSpec(seed=34, n_connections=16,
                                             protocol_mix={"http1": 1.0}))
        mal_priors = {"request.method": {"POST": 0.8, "GET": 0.2}}
        malicious = synthesize_corpus(SynthSpec(
            seed=35, n_connections=16, protocol_mix={"http1": 1.0},
            label_priors=mal_priors))
        report = run_malware_experiment(benign, malicious, bundle, seed=0)
        for key in ("standard", "enriched"):
            block = report[key]
            assert 0.0 <= block["f1"] <= 1.0
            assert len(block["top_importances"]) == 10
            for item in block["top_importances"]:
                assert isinstance(item["feature"], str)
                assert item["importance"] >= 0.0
        # enriched importances may cite inferred-semantics features by name
        text = render_malware_report(report)
        assert "standard" in text and "enriched" in text

    def test_too_small_corpus_rejected(self):
        sem = synthesize_corpus(SynthSpec(seed=36, n_connections=10,
                                          protocol_mix={"http1": 1.0}))
        bundle = train_bundle(sem, params=TrainParams(n_trees=4), seed=0,
                              with_enhanced=False)
        tiny = synthesize_corpus(SynthSpec(seed=37, n_connections=2,
                                           protocol_mix={"http1": 1.0}))
        with pytest.raises(EvalError):
            run_malware_experiment(tiny, tiny, bundle)

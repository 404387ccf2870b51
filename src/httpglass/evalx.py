"""Metrics and experiment harnesses.

Confusion-matrix metrics (unweighted F1, accuracy), the semantics-inference
experiment (single-pass vs iterative per problem), and the malware-detection
comparison between the standard and semantics-enriched feature sets.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace

import numpy as np

from . import HttpglassError, forest as rf
from .corpus import LabeledConnection
from .features import (build_feature_vocab, enrich_malware_features,
                       extract_malware_standard, feature_names,
                       malware_categorical_indices, SCHEMA_MALWARE_STANDARD)
from .inference import (MAX_ITERS_DEFAULT, ModelBundle, aggregate_predictions,
                        classify_corpus)
from .registry import OTHER, PROTOCOLS, Layout, registry

# Table 4 reference points from the original study, recorded for context in
# malware reports (desk-scale synthetic runs are not expected to match them)
PAPER_REFERENCE_MALWARE_F1 = {"standard": 0.951, "enriched": 0.979}


class EvalError(HttpglassError):
    pass


@dataclass
class ConfusionMatrix:
    labels: list[str]
    counts: np.ndarray  # rows = truth, cols = predicted

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or \
                self.counts.shape != (len(self.labels), len(self.labels)):
            raise EvalError("counts must be square and match the label list")
        if (self.counts < 0).any():
            raise EvalError("counts must be non-negative")

    @classmethod
    def from_pairs(cls, truth, predicted, labels=None) -> "ConfusionMatrix":
        if len(truth) != len(predicted):
            raise EvalError("truth/prediction length mismatch")
        if labels is None:
            labels = sorted(set(truth) | set(predicted))
        index = {l: k for k, l in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for t, p in zip(truth, predicted):
            if t not in index or p not in index:
                raise EvalError(f"pair ({t!r}, {p!r}) outside label list")
            counts[index[t], index[p]] += 1
        return cls(list(labels), counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def vacuous_labels(self) -> list[str]:
        """Labels never true and never predicted (contribute 0 to mean F1)."""
        row = self.counts.sum(axis=1)
        col = self.counts.sum(axis=0)
        return [l for l, r, c in zip(self.labels, row, col) if r + c == 0]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("truth\\pred," + ",".join(self.labels) + "\n")
        for label, row in zip(self.labels, self.counts):
            out.write(label + "," + ",".join(str(int(v)) for v in row) + "\n")
        return out.getvalue()


def unweighted_f1(cm: ConfusionMatrix) -> float:
    """Mean over labels of 2PR/(P+R); zero-denominator labels contribute 0."""
    if not cm.labels:
        raise EvalError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(denom), where=denom > 0)
    return float(f1.mean())


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total()
    if total == 0:
        raise EvalError("confusion matrix has no observations")
    return float(np.trace(cm.counts)) / total


def precision_recall(cm: ConfusionMatrix, positive: str) -> tuple[float, float]:
    k = cm.labels.index(positive)
    tp = float(cm.counts[k, k])
    fp = float(cm.counts[:, k].sum() - tp)
    fn = float(cm.counts[k, :].sum() - tp)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall


# --- semantics experiment ---

def run_semantics_experiment(bundle: ModelBundle,
                             train: list[LabeledConnection],
                             test: list[LabeledConnection],
                             max_iters: int = MAX_ITERS_DEFAULT,
                             filter_misclassified: bool = False) -> dict:
    """Report a bundle's single-pass vs iterative metrics on ``test`` per
    problem, plus message-type, protocol, and convergence statistics;
    ``train`` is the corpus it was trained on, counted in the report.  Both
    stages come from one classification: the single pass is its first.

    A problem is scored on the records that are header-bearing in both
    truth and prediction; with paper-style filtering, a connection with any
    message-type disagreement is discarded outright.
    """
    results = classify_corpus(bundle, [lc.conn for lc in test], max_iters)

    proto_cm = ConfusionMatrix.from_pairs(
        [lc.protocol for lc in test], [r.protocol for r in results],
        labels=PROTOCOLS)

    # per protocol with test connections: (truth, first-pass, final labels)
    # of each evaluated record
    evaluated: dict[str, list] = {}
    mt_truth, mt_pred = [], []
    for lc, res in zip(test, results):
        for i in np.flatnonzero(lc.conn.records["type_code"] == 23).tolist():
            mt_truth.append(int(lc.records[i].message_type))
            mt_pred.append(int(i in res.headers))
        rows = evaluated.setdefault(lc.protocol, [])
        if filter_misclassified and any(
                lr.message_type != (lr.index in res.headers)
                for lr in lc.records):
            continue
        rows.extend((lr.labels, res.first_pass[lr.index], res.headers[lr.index])
                    for lr in lc.records
                    if lr.message_type and lr.index in res.headers)
    mt_cm = ConfusionMatrix.from_pairs(mt_truth, mt_pred, labels=[0, 1])

    problems_report = {}
    for protocol, rows in evaluated.items():
        for p in bundle.problems[protocol]:
            valid = set(p.labels) | {OTHER}
            scored = [[l if l in valid else OTHER for l in
                       (truth[p.id], first.get(p.id, OTHER),
                        final.get(p.id, OTHER))]
                      for truth, first, final in rows if p.id in truth]
            key = f"{protocol}.{p.id}"
            if not scored:
                problems_report[key] = {"status": "n/a"}
                continue
            entry = {"status": "ok", "n_test_records": len(scored)}
            truth, *stages = zip(*scored)
            # both matrices cover the labels either stage meets, and each
            # stage's F1 averages those it meets itself, so a label absent
            # from its truth and predictions cannot depress its mean
            seen = set(truth).union(*stages)
            labels = [l for l in list(p.labels) + [OTHER] if l in seen]
            for stage, pred in zip(("single_pass", "iterative"), stages):
                cm = ConfusionMatrix.from_pairs(truth, pred, labels=labels)
                vacuous = cm.vacuous_labels()
                met = [k for k, l in enumerate(labels) if l not in vacuous]
                entry[stage] = {
                    "f1": unweighted_f1(ConfusionMatrix(
                        [labels[k] for k in met], cm.counts[np.ix_(met, met)])),
                    "accuracy": accuracy(cm),
                    "vacuous_labels": vacuous,
                    "confusion": cm.counts.tolist(),
                }
            entry["labels"] = labels
            problems_report[key] = entry

    iters = [r.iterations for r in results]
    return {
        "mode": bundle.mode,
        "filter_misclassified": filter_misclassified,
        "n_train": len(train), "n_test": len(test),
        "protocol": {"accuracy": accuracy(proto_cm),
                     "confusion": proto_cm.counts.tolist()},
        "message_type": {"f1": unweighted_f1(mt_cm),
                         "accuracy": accuracy(mt_cm),
                         "confusion": mt_cm.counts.tolist()},
        "problems": problems_report,
        "convergence": {
            "iterations": iters,
            "converged": [bool(r.converged) for r in results],
            "fraction_converged": float(np.mean([r.converged
                                                 for r in results]))
            if results else 1.0,
            "max_iterations": max(iters) if iters else 0,
        },
        "f1_zero_denominator_convention": "labels with no support contribute 0",
    }


# --- malware experiment ---

def _binary_metrics(cm: ConfusionMatrix, positive: str) -> dict:
    precision, recall = precision_recall(cm, positive)
    return {"f1": unweighted_f1(cm), "accuracy": accuracy(cm),
            "precision": precision, "recall": recall,
            "confusion": cm.counts.tolist()}


def run_malware_experiment(benign: list[LabeledConnection],
                           malicious: list[LabeledConnection],
                           bundle: ModelBundle,
                           params: rf.TrainParams | None = None,
                           seed: int = 0) -> dict:
    """Compare standard vs semantics-enriched malware classifiers.

    The bundle must come from a separate semantics corpus.  Each corpus is
    split in half at random.  The enrichment block always uses the HTTP/1.1
    registry so the enriched width is constant across the corpus.
    """
    params = params or rf.TrainParams(n_trees=30, max_depth=12, min_leaf=2)
    for name, group in (("benign", benign), ("malicious", malicious)):
        if len(group) < 4:
            raise EvalError(f"{name} corpus too small to split")
    rng = np.random.default_rng(seed)

    def split(group):
        order = rng.permutation(len(group))
        cut = round(len(group) / 2)
        return [group[i] for i in order[:cut]], [group[i] for i in order[cut:]]

    # each half of each group holds at least two connections, so both
    # classes reach the training split
    btr, bte = split(benign)
    mtr, mte = split(malicious)
    conns = [lc.conn for lc in btr + mtr + bte + mte]
    y = (["benign"] * len(btr) + ["malicious"] * len(mtr)
         + ["benign"] * len(bte) + ["malicious"] * len(mte))
    n_train = len(btr) + len(mtr)
    vocab = build_feature_vocab(conns[:n_train])
    problems = registry("http1", bundle.include_etag)

    X = np.stack([
        enrich_malware_features(extract_malware_standard(c, vocab),
                                aggregate_predictions(problems, res))
        for c, res in zip(conns, classify_corpus(bundle, conns))])
    Xtr, Xte = X[:n_train], X[n_train:]
    y_tr, y_te = y[:n_train], y[n_train:]

    report = {"paper_reference_f1": PAPER_REFERENCE_MALWARE_F1,
              "n_train": n_train, "n_test": len(conns) - n_train,
              "enrich_protocol": "http1"}
    names = feature_names(SCHEMA_MALWARE_STANDARD, vocab)
    # an enriched row is a standard row and then its inferred sums, so
    # both forests grow in one call on the enriched table
    widths = {"standard": len(names), "enriched": Xtr.shape[1]}
    names += Layout(problems).names()
    models = rf.grow(Xtr, [
        rf.View(np.arange(len(y_tr)), np.arange(width), y_tr,
                replace(params, seed=seed), malware_categorical_indices(),
                f"malware-{name}") for name, width in widths.items()])
    for (name, width), model in zip(widths.items(), models):
        pred = rf.predict_labels(model, Xte[:, :width])
        cm = ConfusionMatrix.from_pairs(y_te, pred,
                                        labels=["benign", "malicious"])
        imp = rf.gini_importance(model)
        top = np.argsort(-imp)[:10]
        report[name] = _binary_metrics(cm, "malicious")
        report[name]["top_importances"] = [
            {"feature": names[i], "importance": float(imp[i])} for i in top]
    return report


# --- report rendering ---

def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def render_semantics_report(report: dict) -> str:
    lines = [f"mode: {report['mode']}  train: {report['n_train']}  "
             f"test: {report['n_test']}",
             f"protocol accuracy: {report['protocol']['accuracy']:.4f}",
             f"message-type F1: {report['message_type']['f1']:.4f}  "
             f"acc: {report['message_type']['accuracy']:.4f}",
             "",
             f"{'problem':<45} {'1-pass F1':>10} {'1-pass acc':>11} "
             f"{'iter F1':>10} {'iter acc':>10}"]
    for key, entry in sorted(report["problems"].items()):
        if entry.get("status") != "ok":
            lines.append(f"{key:<45} {'n/a':>10}")
            continue
        sp, it = entry["single_pass"], entry["iterative"]
        lines.append(f"{key:<45} {sp['f1']:>10.4f} {sp['accuracy']:>11.4f} "
                     f"{it['f1']:>10.4f} {it['accuracy']:>10.4f}")
    conv = report["convergence"]
    lines.append("")
    lines.append(f"converged: {conv['fraction_converged'] * 100:.1f}%  "
                 f"max iterations: {conv['max_iterations']}")
    return "\n".join(lines) + "\n"


def render_malware_report(report: dict) -> str:
    lines = [f"{'set':<10} {'F1':>8} {'acc':>8} {'prec':>8} {'recall':>8}"]
    for name in ("standard", "enriched"):
        m = report[name]
        lines.append(f"{name:<10} {m['f1']:>8.4f} {m['accuracy']:>8.4f} "
                     f"{m['precision']:>8.4f} {m['recall']:>8.4f}")
    lines.append("")
    for name in ("standard", "enriched"):
        lines.append(f"top importances ({name}):")
        for item in report[name]["top_importances"]:
            lines.append(f"  {item['importance']:.4f}  {item['feature']}")
    ref = report["paper_reference_f1"]
    lines.append("")
    lines.append(f"reference (original study): standard {ref['standard']}, "
                 f"enriched {ref['enriched']}")
    return "\n".join(lines) + "\n"

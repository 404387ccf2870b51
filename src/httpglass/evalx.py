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

from . import forest as rf
from .corpus import LabeledConnection
from .features import (build_feature_vocab, enrich_malware_features,
                       extract_malware_standard, feature_names,
                       malware_categorical_indices, SCHEMA_MALWARE_STANDARD)
from .inference import (ModelBundle, aggregate_predictions, classify_corpus,
                        train_bundle)
from .registry import OTHER, registry

# Table 4 reference points from the original study, recorded for context in
# malware reports (desk-scale synthetic runs are not expected to match them)
PAPER_REFERENCE_MALWARE_F1 = {"standard": 0.951, "enriched": 0.979}


class EvalError(Exception):
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

def _connection_eval_sets(lc: LabeledConnection, result,
                          filter_misclassified: bool):
    """(truth, predicted) header-record pairs for one connection.

    Evaluation covers records that are header-bearing in both truth and
    prediction; with paper-style filtering, a connection with any
    message-type disagreement is discarded outright.
    """
    gt = {lr.index: lr for lr in lc.records}
    pred = {rp.index: rp for rp in result.records}
    if filter_misclassified:
        for idx, lr in gt.items():
            if lr.message_type != pred[idx].message_type:
                return []
    return [(gt[idx], pred[idx]) for idx in gt
            if gt[idx].message_type and pred[idx].message_type]


def run_semantics_experiment(train: list[LabeledConnection],
                             test: list[LabeledConnection],
                             mode: str = "standard",
                             params: rf.TrainParams | None = None,
                             include_etag: bool = False, seed: int = 0,
                             max_iters: int = 10,
                             filter_misclassified: bool = False,
                             bundle: ModelBundle | None = None) -> dict:
    """Train (or reuse) a bundle and report single-pass vs iterative metrics
    per problem, plus message-type, protocol, and convergence statistics."""
    if bundle is None:
        bundle = train_bundle(train, mode=mode, params=params,
                              include_etag=include_etag, seed=seed)
    conns = [lc.conn for lc in test]
    ids = [lc.connection_id for lc in test]
    single = classify_corpus(bundle, conns, max_iters=1, connection_ids=ids)
    iterative = classify_corpus(bundle, conns, max_iters=max_iters,
                                connection_ids=ids)

    proto_cm = ConfusionMatrix.from_pairs(
        [lc.protocol for lc in test], [r.protocol for r in iterative],
        labels=["http1", "http2"])

    mt_truth, mt_pred = [], []
    for lc, res in zip(test, iterative):
        flags = {rp.index: rp.message_type for rp in res.records}
        for lr, rec in zip(lc.records, lc.conn.records):
            if rec.type_code == 23:
                mt_truth.append(int(lr.message_type))
                mt_pred.append(int(flags[lr.index]))
    mt_cm = ConfusionMatrix.from_pairs(mt_truth, mt_pred, labels=[0, 1])

    problems_report = {}
    for protocol in ("http1", "http2"):
        members = [(lc, s, it) for lc, s, it in zip(test, single, iterative)
                   if lc.protocol == protocol]
        if not members:
            continue
        for p in registry(protocol, include_etag):
            valid = set(p.labels) | {OTHER}
            pairs = {"single_pass": [], "iterative": []}
            for lc, s, it in members:
                for stage, res in (("single_pass", s), ("iterative", it)):
                    for lr, rp in _connection_eval_sets(lc, res,
                                                        filter_misclassified):
                        if p.id not in lr.labels:
                            continue
                        truth = lr.labels[p.id]
                        pred = rp.labels.get(p.id, OTHER)
                        pairs[stage].append(
                            (truth if truth in valid else OTHER,
                             pred if pred in valid else OTHER))
            key = f"{protocol}.{p.id}"
            if not pairs["single_pass"]:
                problems_report[key] = {"status": "n/a"}
                continue
            entry = {"status": "ok", "n_test_records": len(pairs["single_pass"])}
            # matrices cover observed labels only, so a label that never
            # occurs in the test split cannot depress the unweighted mean
            labels = [l for l in list(p.labels) + [OTHER]
                      if any(l in (t, q) for st in pairs.values()
                             for t, q in st)]
            for stage in ("single_pass", "iterative"):
                cm = ConfusionMatrix.from_pairs(
                    [t for t, _ in pairs[stage]], [q for _, q in pairs[stage]],
                    labels=labels)
                entry[stage] = {
                    "f1": unweighted_f1(cm), "accuracy": accuracy(cm),
                    "vacuous_labels": cm.vacuous_labels(),
                    "confusion": cm.counts.tolist(),
                }
            entry["labels"] = labels
            problems_report[key] = entry

    iters = [r.iterations for r in iterative]
    return {
        "mode": mode,
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
            "converged": [bool(r.converged) for r in iterative],
            "fraction_converged": float(np.mean([r.converged
                                                 for r in iterative]))
            if iterative else 1.0,
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
                           seed: int = 0, split_fraction: float = 0.5,
                           enrich_protocol: str = "http1",
                           max_iters: int = 10) -> dict:
    """Compare standard vs semantics-enriched malware classifiers.

    The bundle must come from a separate semantics corpus.  The enrichment
    block always uses one protocol's registry so the enriched width is
    constant across the corpus.
    """
    params = params or rf.TrainParams(n_trees=30, max_depth=12, min_leaf=2,
                                      seed=seed)
    for name, group in (("benign", benign), ("malicious", malicious)):
        if len(group) < 4:
            raise EvalError(f"{name} corpus too small to split")
    rng = np.random.default_rng(seed)

    def split(group):
        order = rng.permutation(len(group))
        cut = int(round(len(group) * split_fraction))
        return [group[i] for i in order[:cut]], [group[i] for i in order[cut:]]

    btr, bte = split(benign)
    mtr, mte = split(malicious)
    train_set = [(lc, "benign") for lc in btr] + [(lc, "malicious") for lc in mtr]
    test_set = [(lc, "benign") for lc in bte] + [(lc, "malicious") for lc in mte]
    vocab = build_feature_vocab([lc.conn for lc, _ in train_set])
    problems = registry(enrich_protocol, bundle.include_etag)

    def featurize(group):
        conns = [lc.conn for lc, _ in group]
        results = classify_corpus(bundle, conns, max_iters=max_iters)
        std = np.stack([extract_malware_standard(c, vocab) for c in conns])
        enr = np.stack([
            enrich_malware_features(row, aggregate_predictions(problems, res))
            for row, res in zip(std, results)])
        y = [label for _, label in group]
        return std, enr, y

    Xs_tr, Xe_tr, y_tr = featurize(train_set)
    Xs_te, Xe_te, y_te = featurize(test_set)
    if len(set(y_tr)) < 2:
        raise EvalError("both classes must appear in the training split")

    cat = malware_categorical_indices()
    report = {"paper_reference_f1": PAPER_REFERENCE_MALWARE_F1,
              "n_train": len(train_set), "n_test": len(test_set),
              "enrich_protocol": enrich_protocol}
    feature_sets = {
        "standard": (Xs_tr, Xs_te, feature_names(SCHEMA_MALWARE_STANDARD, vocab)),
        "enriched": (Xe_tr, Xe_te,
                     feature_names(SCHEMA_MALWARE_STANDARD, vocab)
                     + [f"semantics[{p.id}={l}]" for p in problems
                        for l in p.labels]),
    }
    for name, (Xtr, Xte, names) in feature_sets.items():
        model = rf.train(Xtr, y_tr, replace(params, seed=seed), categorical=cat,
                         schema_id=f"malware-{name}")
        pred = rf.predict_labels(model, Xte)
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

"""Random forest with class scores, Gini importances, and categorical splits.

Written against the needs of the inference pipeline rather than pulled from a
library: splits must be reproducible bit-for-bit given a seed, ties must break
deterministically (lowest feature index, then lowest threshold / smallest
category prefix), and integer-coded categorical features are split by subset
membership instead of one-hot encoding.

Split quality maximizes sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
which orders splits identically to minimizing weighted Gini impurity while
staying exact for integer class counts.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

FORMAT_VERSION = 1


class ForestError(Exception):
    pass


@dataclass(frozen=True)
class TrainParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None  # default ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ForestError("min_leaf must be >= 1")

    def resolved_mtry(self, d: int) -> int:
        m = self.features_per_split if self.features_per_split is not None \
            else ceil(sqrt(d))
        if m < 1:
            raise ForestError(f"features_per_split {m} must be >= 1")
        return min(m, d)


@dataclass(eq=False)
class Nodes:
    """Every node of a forest's trees, as parallel arrays indexed by node id.

    Tree t starts at ``roots[t]``; its nodes follow depth-first, left child
    first.  Training, prediction and persistence all read these arrays.
    """

    feature: np.ndarray    # split feature of each node, -1 at leaves
    threshold: np.ndarray  # numeric splits send x <= threshold left; else NaN
    left: np.ndarray       # child node ids, -1 at leaves
    right: np.ndarray
    roots: np.ndarray      # first node of each tree
    counts: np.ndarray     # (nodes, classes) training counts at leaves, 0 at splits
    cat: np.ndarray        # categorical splits: index into cats_left, else -1
    cats_left: list[np.ndarray]  # codes going left at each categorical split

    @classmethod
    def concat(cls, parts: list[Nodes]) -> Nodes:
        """One pool of the trees of all ``parts``: ids shifted, class counts
        zero-padded to the widest part."""
        if len(parts) == 1:
            return parts[0]
        node_base = np.cumsum([0] + [len(p.feature) for p in parts])
        cat_base = np.cumsum([0] + [len(p.cats_left) for p in parts])

        def shifted(name, bases):
            return np.concatenate([np.where(a >= 0, a + b, a) for a, b in
                                   zip((getattr(p, name) for p in parts), bases)])

        counts = np.zeros((node_base[-1], max(p.counts.shape[1] for p in parts)),
                          dtype=np.int64)
        for p, b in zip(parts, node_base):
            counts[b:b + len(p.feature), :p.counts.shape[1]] = p.counts
        return cls(feature=np.concatenate([p.feature for p in parts]),
                   threshold=np.concatenate([p.threshold for p in parts]),
                   left=shifted("left", node_base),
                   right=shifted("right", node_base),
                   roots=np.concatenate([p.roots + b
                                         for p, b in zip(parts, node_base)]),
                   counts=counts, cat=shifted("cat", cat_base),
                   cats_left=[c for p in parts for c in p.cats_left])


@dataclass(eq=False)
class Forest:
    """A trained forest: its classes, schema and parameters, and its trees
    as one struct of arrays."""

    classes: list
    schema_id: str
    n_features: int
    categorical: frozenset[int]
    params: TrainParams
    importance_raw: np.ndarray  # unnormalized Gini importance accumulator
    nodes: Nodes

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_trees(self) -> int:
        return len(self.nodes.roots)


@dataclass(eq=False)
class Stack:
    """Forests over the same features, with as many trees each, pooled so
    that one ``predict_scores`` walk scores rows meant for any of them."""

    forests: list[Forest]
    nodes: Nodes = field(init=False)

    def __post_init__(self):
        if len({(f.n_features, f.n_trees) for f in self.forests}) != 1:
            raise ForestError("stacked forests must share their features "
                              "and tree count")
        self.nodes = Nodes.concat([f.nodes for f in self.forests])


@dataclass
class _Grower:
    """Node lists a forest is built into, by training or from JSON."""

    n_classes: int
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    counts: list[list[int]] = field(default_factory=list)
    cat: list[int] = field(default_factory=list)
    cats_left: list[np.ndarray] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)

    def tree(self) -> int:
        """Start a tree; returns the id its root will get."""
        self.roots.append(len(self.feature))
        return self.roots[-1]

    def leaf(self, counts: list[int]) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(counts)
        self.cat.append(-1)
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float | None,
              cats_left: list[float] | None) -> None:
        """Turn leaf ``node`` into a split; its children are set later."""
        self.feature[node] = feature
        self.counts[node] = [0] * self.n_classes
        if cats_left is None:
            self.threshold[node] = threshold
        else:
            self.cat[node] = len(self.cats_left)
            self.cats_left.append(np.asarray(cats_left, dtype=np.float64))

    def nodes(self) -> Nodes:
        return Nodes(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            roots=np.asarray(self.roots, dtype=np.int64),
            counts=np.asarray(self.counts, dtype=np.int64).reshape(
                -1, self.n_classes),
            cat=np.asarray(self.cat, dtype=np.int64), cats_left=self.cats_left)


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p ** 2).sum())


def _numeric_candidates(col, Y, min_leaf):
    """Best threshold for one numeric column.

    Returns (score, threshold) or None.  Thresholds are midpoints between
    consecutive distinct values, scanned in ascending order.
    """
    order = np.argsort(col)
    sv = col[order]
    cum = Y[order].cumsum(axis=0)
    n = len(sv)
    boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
    if boundaries.size == 0:
        return None
    nl = boundaries + 1
    nr = n - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    boundaries = boundaries[ok]
    if boundaries.size == 0:
        return None
    nl = nl[ok]
    nr = nr[ok]
    total = cum[-1]
    left = cum[boundaries]
    right = total[None, :] - left
    score = (left ** 2).sum(axis=1) / nl + (right ** 2).sum(axis=1) / nr
    best = int(np.argmax(score))  # first max -> lowest threshold on ties
    b = boundaries[best]
    threshold = (sv[b] + sv[b + 1]) / 2.0
    return float(score[best]), threshold


def _categorical_candidates(col, Y, yv, min_leaf, node_counts):
    """Best code-subset split for one categorical column.

    Codes are ordered by the proportion of the reference class (class 1 for
    binary problems, otherwise the node's majority class), ties by ascending
    code, then prefix splits are scanned like an ordered feature.
    Returns (score, left_codes) or None.
    """
    codes, inv = np.unique(col, return_inverse=True)
    if codes.size < 2:
        return None
    K = Y.shape[1]
    cnt = np.zeros((codes.size, K), dtype=np.int64)
    np.add.at(cnt, (inv, yv), 1)
    ref = 1 if K == 2 else int(np.argmax(node_counts))
    prop = cnt[:, ref] / cnt.sum(axis=1)
    order = np.lexsort((codes, prop))
    ordered_cnt = cnt[order]
    prefix = ordered_cnt.cumsum(axis=0)
    total = prefix[-1]
    n = int(total.sum())
    cuts = np.arange(codes.size - 1)
    nl = prefix[cuts].sum(axis=1)
    nr = n - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    cuts = cuts[ok]
    if cuts.size == 0:
        return None
    left = prefix[cuts]
    right = total[None, :] - left
    score = (left ** 2).sum(axis=1) / nl[ok] + (right ** 2).sum(axis=1) / nr[ok]
    best = int(np.argmax(score))  # first max -> smallest prefix on ties
    j = int(cuts[best])
    left_codes = sorted(float(codes[k]) for k in order[:j + 1])
    return float(score[best]), left_codes


def _build_tree(X, yv, K, params, categorical, rng, importance, n_total,
                grow: _Grower) -> None:
    d = X.shape[1]
    mtry = params.resolved_mtry(d)
    grow.tree()
    if params.bootstrap:
        root_idx = np.sort(rng.integers(0, X.shape[0], X.shape[0]))
    else:
        root_idx = np.arange(X.shape[0])
    stack = [(root_idx, 0, None, False)]  # (sample idx, depth, parent, is_right)
    while stack:
        idx, depth, parent, is_right = stack.pop()
        counts = np.bincount(yv[idx], minlength=K)
        node_id = grow.leaf(counts.tolist())
        if parent is not None:
            (grow.right if is_right else grow.left)[parent] = node_id
        n = idx.size
        if n < 2 * params.min_leaf or (counts > 0).sum() < 2 or \
                (params.max_depth is not None and depth >= params.max_depth):
            continue
        base = float((counts.astype(np.float64) ** 2).sum()) / n
        cand = np.sort(rng.choice(d, size=mtry, replace=False))
        Y = np.zeros((n, K), dtype=np.int64)
        Y[np.arange(n), yv[idx]] = 1
        best_score = base
        best = None
        for f in cand:
            col = X[idx, f]
            if f in categorical:
                res = _categorical_candidates(col, Y, yv[idx], params.min_leaf,
                                              counts)
                if res is not None and res[0] > best_score:
                    best_score, best = res[0], (int(f), None, res[1])
            else:
                res = _numeric_candidates(col, Y, params.min_leaf)
                if res is not None and res[0] > best_score:
                    best_score, best = res[0], (int(f), res[1], None)
        if best is None:
            continue
        f, threshold, cats_left = best
        col = X[idx, f]
        if cats_left is not None:
            mask = np.isin(col, cats_left)
        else:
            mask = col <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        cl = np.bincount(yv[left_idx], minlength=K)
        cr = np.bincount(yv[right_idx], minlength=K)
        decrease = (n / n_total) * _gini(counts) \
            - (left_idx.size / n_total) * _gini(cl) \
            - (right_idx.size / n_total) * _gini(cr)
        importance[f] += decrease
        grow.split(node_id, f, threshold, cats_left)
        # push right first so the left child is materialized next (stable ids)
        stack.append((right_idx, depth + 1, node_id, True))
        stack.append((left_idx, depth + 1, node_id, False))


def train(X, y, params: TrainParams | None = None,
          categorical: frozenset[int] | set[int] = frozenset(),
          schema_id: str = "unspecified") -> Forest:
    """Train a forest on (X, y); y may hold arbitrary sortable labels."""
    params = params or TrainParams()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ForestError("X must be 2-dimensional")
    if len(y) != X.shape[0]:
        raise ForestError("X and y length mismatch")
    if X.shape[0] < 1:
        raise ForestError("need at least one sample")
    classes = sorted(set(y))
    class_index = {c: k for k, c in enumerate(classes)}
    yv = np.asarray([class_index[v] for v in y], dtype=np.int64)
    K = len(classes)
    categorical = frozenset(int(i) for i in categorical)
    for i in categorical:
        if not 0 <= i < X.shape[1]:
            raise ForestError(f"categorical index {i} out of range")
    importance = np.zeros(X.shape[1], dtype=np.float64)
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    grow = _Grower(K)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        _build_tree(X, yv, K, params, categorical, rng, importance, X.shape[0],
                    grow)
    return Forest(classes=classes, schema_id=schema_id, n_features=X.shape[1],
                  categorical=categorical, params=params,
                  importance_raw=importance, nodes=grow.nodes())


def _leaves(nodes: Nodes, X: np.ndarray, rows: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """Leaf reached from each (row of X, start node) pair.

    All pairs descend together, one level per step, until each is at a leaf.
    Numeric splits send x <= threshold left (NaN goes right); categorical
    splits send left only the values equal to one of the node's codes.
    """
    at = at.copy()
    active = np.flatnonzero(nodes.feature[at] >= 0)  # pairs not at a leaf
    while active.size:
        n = at[active]
        x = X[rows[active], nodes.feature[n]]
        go_left = x <= nodes.threshold[n]
        cat = nodes.cat[n]
        at_cat = np.flatnonzero(cat >= 0)
        # few distinct categorical splits are active at once; codes are
        # arbitrary floats, so each is tested by equality with its own codes
        for c in set(cat[at_cat].tolist()):
            sel = at_cat[cat[at_cat] == c]
            go_left[sel] = (x[sel, None] == nodes.cats_left[c]).any(axis=1)
        at[active] = np.where(go_left, nodes.left[n], nodes.right[n])
        active = active[nodes.feature[at[active]] >= 0]
    return at


def predict_scores(model: Forest | Stack, X, which=None) -> np.ndarray:
    """Mean of per-tree leaf class frequencies; rows sum to 1.

    For a Stack, ``which[i]`` is the index of row i's forest, and row i holds
    that forest's scores in its first n_classes columns, zeros after.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if isinstance(model, Forest):
        model, which = Stack([model]), np.zeros(X.shape[0], dtype=np.int64)
    n_features, n_trees = model.forests[0].n_features, model.forests[0].n_trees
    if X.shape[1] != n_features:
        raise ForestError(f"schema mismatch: expected {n_features} features, "
                          f"got {X.shape[1]}")
    # (row, tree) pairs, row-major; forest k's trees are roots[k*T:(k+1)*T]
    n_rows = X.shape[0]
    rows = np.repeat(np.arange(n_rows), n_trees)
    trees = np.asarray(which, dtype=np.int64)[:, None] * n_trees \
        + np.arange(n_trees)
    nodes = model.nodes
    counts = nodes.counts[_leaves(nodes, X, rows, nodes.roots[trees.ravel()])]
    freqs = (counts / counts.sum(axis=1, keepdims=True)).reshape(
        n_rows, n_trees, -1)
    total = np.zeros((n_rows, freqs.shape[2]), dtype=np.float64)
    for t in range(n_trees):  # summed in tree order: reproducible bit for bit
        total += freqs[:, t]
    return total / n_trees


def predict(forest: Forest, x):
    """(label, scores) for one vector; argmax ties go to the lowest class index."""
    scores = predict_scores(forest, x)[0]
    return forest.classes[int(np.argmax(scores))], scores


def predict_labels(forest: Forest, X) -> list:
    scores = predict_scores(forest, X)
    return [forest.classes[int(k)] for k in np.argmax(scores, axis=1)]


def gini_importance(forest: Forest) -> np.ndarray:
    """Per-feature mean impurity decrease, normalized to sum 1.

    A forest with no splits at all yields uniform zeros (flagged via
    ``forest_has_splits``).
    """
    total = forest.importance_raw.sum()
    if total <= 0:
        return np.zeros_like(forest.importance_raw)
    return forest.importance_raw / total


def forest_has_splits(forest: Forest) -> bool:
    return bool(forest.importance_raw.sum() > 0)


def to_dict(forest: Forest) -> dict:
    """The JSON layout: per tree, one [feature, threshold, cats_left, left,
    right, counts] list per node, with tree-local child ids."""
    nodes = forest.nodes
    feature, threshold, cat = (nodes.feature.tolist(), nodes.threshold.tolist(),
                               nodes.cat.tolist())
    left, right, counts = (nodes.left.tolist(), nodes.right.tolist(),
                           nodes.counts.tolist())
    roots = nodes.roots.tolist()
    trees = []
    for root, end in zip(roots, roots[1:] + [len(feature)]):
        trees.append([
            [feature[i],
             threshold[i] if feature[i] >= 0 and cat[i] < 0 else None,
             nodes.cats_left[cat[i]].tolist() if cat[i] >= 0 else None,
             left[i] - root if feature[i] >= 0 else -1,
             right[i] - root if feature[i] >= 0 else -1,
             counts[i] if feature[i] < 0 else None]
            for i in range(root, end)])
    return {
        "format_version": FORMAT_VERSION,
        "schema_id": forest.schema_id,
        "n_features": forest.n_features,
        "classes": list(forest.classes),
        "categorical": sorted(forest.categorical),
        "params": {
            "n_trees": forest.params.n_trees,
            "max_depth": forest.params.max_depth,
            "min_leaf": forest.params.min_leaf,
            "features_per_split": forest.params.features_per_split,
            "bootstrap": forest.params.bootstrap,
            "seed": forest.params.seed,
        },
        "importance_raw": [float(v) for v in forest.importance_raw],
        "trees": trees,
    }


def from_dict(data: dict) -> Forest:
    if data.get("format_version") != FORMAT_VERSION:
        raise ForestError("unsupported model format version")
    grow = _Grower(len(data["classes"]))
    for tree in data["trees"]:
        root = grow.tree()
        for f, t, c, l, r, cnt in tree:
            node = grow.leaf(cnt)
            if f >= 0:
                grow.split(node, f, t, c)
                grow.left[node], grow.right[node] = root + l, root + r
    return Forest(
        classes=data["classes"], schema_id=data["schema_id"],
        n_features=data["n_features"],
        categorical=frozenset(data["categorical"]),
        params=TrainParams(**data["params"]),
        importance_raw=np.asarray(data["importance_raw"], dtype=np.float64),
        nodes=grow.nodes())


def save(forest: Forest, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(forest), fh, sort_keys=True)


def load(path: str) -> Forest:
    with open(path) as fh:
        return from_dict(json.load(fh))

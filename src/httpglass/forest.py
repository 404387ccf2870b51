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

from dataclasses import asdict, dataclass, field
from math import ceil, sqrt

import numpy as np

FORMAT_VERSION = 2


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
    """Node lists training grows a forest's trees into."""

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
    p = counts / counts.sum()
    return float(1.0 - (p ** 2).sum())


def _best_split(B, y, counts, is_cat, min_leaf):
    """Best cut of a node over all its candidate columns at once.

    ``B`` holds the node's rows of its candidate features, ``y`` their class
    indices.  Runs of equal values in each column are groups: numeric groups
    in value order, categorical ones by the share of the reference class
    (class 1 for binary problems, else the node's majority class), then by
    code.  Every cut between groups leaving ``min_leaf`` rows a side is
    scored, and the first maximum in (column, cut) order wins.  Returns
    (score, column, threshold or None, left codes or None), or None when no
    cut is allowed; a numeric threshold is the midpoint of the values around
    the cut.
    """
    n, m = B.shape
    K = counts.size
    order = np.argsort(B, axis=0)
    S = B[order, np.arange(m)].T  # (columns, rows), ascending
    new = np.ones((m, n), dtype=bool)
    np.not_equal(S[:, 1:], S[:, :-1], out=new[:, 1:])
    col = np.nonzero(new)[0]  # column of each group, groups in column order
    val = S[new]
    gid = np.cumsum(new) - 1
    cnt = np.bincount(gid * K + y[order].T.ravel(),
                      minlength=col.size * K).reshape(-1, K)
    if is_cat.any():
        ref = 1 if K == 2 else int(np.argmax(counts))
        prop = np.where(is_cat[col], cnt[:, ref] / cnt.sum(axis=1), 0.0)
        perm = np.lexsort((val, prop, col))
        cnt, val = cnt[perm], val[perm]
    # every column holds all n rows, so column c's prefix starts at c * counts
    left = cnt.cumsum(axis=0) - col[:, None] * counts
    nl = left.sum(axis=1)
    # a column's last group leaves no rows right, so it is never a cut
    cut = np.flatnonzero((nl >= min_leaf) & (n - nl >= min_leaf))
    if cut.size == 0:
        return None
    left, nl = left[cut], nl[cut]
    right = counts - left
    score = (left ** 2).sum(axis=1) / nl + (right ** 2).sum(axis=1) / (n - nl)
    best = int(np.argmax(score))
    g = int(cut[best])
    c = int(col[g])
    if is_cat[c]:
        codes = val[np.searchsorted(col, c):g + 1]
        return float(score[best]), c, None, sorted(codes.tolist())
    a, b = val[g], val[g + 1]
    mid = (a + b) / 2.0
    # neighbouring doubles can round their midpoint up onto b
    return float(score[best]), c, mid if mid < b else a, None


def _build_tree(X, yv, K, params, is_cat, rng, importance, n_total,
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
        best = _best_split(X[idx[:, None], cand], yv[idx], counts,
                           is_cat[cand], params.min_leaf)
        if best is None or best[0] <= base:
            continue
        f, threshold, cats_left = int(cand[best[1]]), best[2], best[3]
        col = X[idx, f]
        mask = np.isin(col, cats_left) if cats_left else col <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
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
    if not np.isfinite(X).all():
        raise ForestError("X holds NaN or infinite values")
    classes = sorted(set(y))
    class_index = {c: k for k, c in enumerate(classes)}
    yv = np.asarray([class_index[v] for v in y], dtype=np.int64)
    K = len(classes)
    categorical = frozenset(int(i) for i in categorical)
    for i in categorical:
        if not 0 <= i < X.shape[1]:
            raise ForestError(f"categorical index {i} out of range")
    is_cat = np.isin(np.arange(X.shape[1]), list(categorical))
    importance = np.zeros(X.shape[1], dtype=np.float64)
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    grow = _Grower(K)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        _build_tree(X, yv, K, params, is_cat, rng, importance, X.shape[0],
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
    """The JSON layout: the ``Nodes`` arrays with forest-wide ids, thresholds
    null except at numeric splits, and class counts for leaves only."""
    nodes = forest.nodes
    numeric = (nodes.feature >= 0) & (nodes.cat < 0)
    return {
        "format_version": FORMAT_VERSION,
        "schema_id": forest.schema_id,
        "n_features": forest.n_features,
        "classes": list(forest.classes),
        "categorical": sorted(forest.categorical),
        "params": asdict(forest.params),
        "importance_raw": forest.importance_raw.tolist(),
        "nodes": {
            "feature": nodes.feature.tolist(),
            "threshold": np.where(numeric, nodes.threshold, None).tolist(),
            "left": nodes.left.tolist(),
            "right": nodes.right.tolist(),
            "roots": nodes.roots.tolist(),
            "cat": nodes.cat.tolist(),
            "cats_left": [c.tolist() for c in nodes.cats_left],
            "leaf_counts": nodes.counts[nodes.feature < 0].tolist(),
        },
    }


def _check_nodes(nodes: Nodes, leaf_counts: np.ndarray, n_features: int,
                 n_classes: int) -> None:
    """Refuse loaded node arrays that ``predict_scores`` could not use: each
    child must follow its parent inside its tree, so every walk ends at a
    leaf, and each leaf must hold a count."""
    n = nodes.feature.size
    ids, split, roots = np.arange(n), nodes.feature >= 0, nodes.roots
    if any(a.shape != (n,) for a in (nodes.feature, nodes.threshold,
                                      nodes.left, nodes.right, nodes.cat)):
        raise ForestError("node arrays differ in length")
    if roots.ndim != 1 or roots.size == 0 or roots[0] != 0 \
            or (np.diff(roots) <= 0).any() or roots[-1] >= n:
        raise ForestError("roots must be increasing node ids from 0")
    end = np.append(roots[1:], n)[np.searchsorted(roots, ids, side="right") - 1]
    children = np.stack([nodes.left, nodes.right])[:, split]
    for failed, message in [
            (((children <= ids[split]) | (children >= end[split])).any(),
             "a child id does not follow its parent in its tree"),
            (leaf_counts.shape != ((~split).sum(), n_classes)
             or (leaf_counts < 0).any() or (leaf_counts.sum(axis=1) <= 0).any(),
             "leaf_counts needs one positive row per leaf"),
            (((nodes.feature < -1) | (nodes.feature >= n_features)).any(),
             f"split feature out of range for {n_features} features"),
            (((nodes.cat < -1) | (nodes.cat >= len(nodes.cats_left))).any(),
             "categorical split index out of range"),
            (not np.isfinite(nodes.threshold[split & (nodes.cat < 0)]).all(),
             "numeric split without a finite threshold")]:
        if failed:
            raise ForestError(message)


def from_dict(data: dict) -> Forest:
    if data.get("format_version") != FORMAT_VERSION:
        raise ForestError("unsupported model format version")
    nd = data["nodes"]
    feature = np.asarray(nd["feature"], dtype=np.int64)
    nodes = Nodes(
        feature=feature,
        threshold=np.asarray(nd["threshold"], dtype=np.float64),
        left=np.asarray(nd["left"], dtype=np.int64),
        right=np.asarray(nd["right"], dtype=np.int64),
        roots=np.asarray(nd["roots"], dtype=np.int64),
        counts=np.zeros((feature.size, len(data["classes"])), dtype=np.int64),
        cat=np.asarray(nd["cat"], dtype=np.int64),
        cats_left=[np.asarray(c, dtype=np.float64) for c in nd["cats_left"]])
    leaf_counts = np.asarray(nd["leaf_counts"], dtype=np.int64)
    _check_nodes(nodes, leaf_counts, data["n_features"], len(data["classes"]))
    nodes.counts[feature < 0] = leaf_counts
    return Forest(
        classes=data["classes"], schema_id=data["schema_id"],
        n_features=data["n_features"],
        categorical=frozenset(data["categorical"]),
        params=TrainParams(**data["params"]),
        importance_raw=np.asarray(data["importance_raw"], dtype=np.float64),
        nodes=nodes)

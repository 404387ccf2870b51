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

from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property
from math import ceil, sqrt

import numpy as np

from . import HttpglassError

FORMAT_VERSION = 2


class ForestError(HttpglassError):
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
    first.  Training grows each tree as one and pools them with ``concat``,
    as ``Stack`` pools forests; prediction and persistence read them too.
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
            arrays = [getattr(p, name) for p in parts]
            shift = np.repeat(bases[:-1], [len(a) for a in arrays])
            a = np.concatenate(arrays)
            return np.where(a >= 0, a + shift, a)

        counts = np.zeros((node_base[-1], max(p.counts.shape[1] for p in parts)),
                          dtype=np.int64)
        for p, b in zip(parts, node_base):
            counts[b:b + len(p.feature), :p.counts.shape[1]] = p.counts
        return cls(feature=np.concatenate([p.feature for p in parts]),
                   threshold=np.concatenate([p.threshold for p in parts]),
                   left=shifted("left", node_base),
                   right=shifted("right", node_base),
                   roots=shifted("roots", node_base),
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

    @cached_property
    def stack(self) -> Stack:
        """The forest alone as a ``Stack``: its walk tables, built once."""
        return Stack([self])


@dataclass(eq=False)
class Stack:
    """Forests with as many trees each, pooled so that one
    ``predict_scores`` walk scores rows meant for any of them.  Rows are as
    wide as the widest forest; a narrower forest reads only its leading
    columns, so what lies past its width does not change its scores.

    The walk reads a compact input rather than X: the ``columns`` of X that
    numeric splits read, then one membership column per distinct (feature,
    code set) test of the categorical splits, 0 where the row's value equals
    one of the test's ``codes`` and 1 elsewhere.  A split's compact feature
    indexes that input, and a categorical split's threshold is 0.5, so every
    step of the walk is the same numeric compare and each test is made once
    per call, not once per step.

    The walk's tables are built once and indexed by slot: node i sits at
    slot 2i, and holds its entries at slots 2i and 2i + 1, so a step adds its
    compare to the slot.  They are each node's child slots (its right child
    read at 2i, its left at 2i + 1; a leaf's children are itself), its
    compact feature (0 at leaves), its threshold (NaN at leaves) and whether
    it splits.  Each leaf's class frequencies are indexed by node.  A stack
    keeps no reference to its forests, so a forest can cache its own without
    a reference cycle.
    """

    forests: InitVar[list[Forest]]
    n_features: int = field(init=False)
    n_trees: int = field(init=False)
    roots: np.ndarray = field(init=False)  # forest k's trees: k*T to (k+1)*T
    child: np.ndarray = field(init=False)
    feature: np.ndarray = field(init=False)
    threshold: np.ndarray = field(init=False)
    splits: np.ndarray = field(init=False)
    columns: np.ndarray = field(init=False)  # of X, read by numeric splits
    gather: np.ndarray = field(init=False)  # columns, then each test's feature
    codes: np.ndarray | None = field(init=False)  # None: no categorical split
    freqs: np.ndarray = field(init=False)  # (nodes, classes), 0 at splits

    def __post_init__(self, forests):
        trees = {f.n_trees for f in forests}
        if len(trees) != 1:
            raise ForestError("stacked forests must have as many trees each")
        self.n_trees = trees.pop()
        self.n_features = max(f.n_features for f in forests)
        nodes = Nodes.concat([f.nodes for f in forests])
        self.roots = nodes.roots
        leaf = nodes.feature < 0
        ids = np.arange(leaf.size)
        self.child = 2 * np.column_stack([np.where(leaf, ids, nodes.right),
                                          np.where(leaf, ids, nodes.left)]
                                         ).ravel()
        numeric = ~leaf & (nodes.cat < 0)
        # (np.unique would import numpy.ma, about 1 MB, on its first call)
        read = np.zeros(self.n_features, dtype=bool)
        read[nodes.feature[numeric]] = True
        self.columns = np.flatnonzero(read)
        feature = np.zeros(leaf.size, dtype=np.int64)
        feature[numeric] = np.searchsorted(self.columns,
                                           nodes.feature[numeric])
        threshold = np.where(numeric, nodes.threshold, np.nan)
        # a NaN code never equals a value, so it leaves a test unchanged
        tests = {}  # (feature, distinct codes) -> membership column
        for node in np.flatnonzero(~leaf & ~numeric).tolist():
            codes = nodes.cats_left[nodes.cat[node]]
            key = (int(nodes.feature[node]),
                   tuple(sorted(set(codes[~np.isnan(codes)].tolist()))))
            feature[node] = self.columns.size + tests.setdefault(key,
                                                                 len(tests))
            threshold[node] = 0.5
        self.feature = np.repeat(feature, 2)
        self.threshold = np.repeat(threshold, 2)
        self.splits = np.repeat(~leaf, 2)
        self.gather = np.append(self.columns, np.array([f for f, _ in tests],
                                                       dtype=np.int64))
        self.codes = None
        if tests:
            self.codes = np.full((len(tests), max(1, *(len(c) for _, c in
                                                      tests))), np.nan)
            for row, (_, c) in zip(self.codes, tests):
                row[:len(c)] = c
        counts = nodes.counts[leaf]
        self.freqs = np.zeros(nodes.counts.shape, dtype=np.float64)
        self.freqs[leaf] = counts / counts.sum(axis=1, keepdims=True)

    def compact(self, X: np.ndarray) -> np.ndarray:
        """The walk's input for the rows of X: its numeric columns, then its
        membership columns."""
        W = np.take(X, self.gather, axis=1)  # C order: _leaves ravels it
        if self.codes is not None:
            tested = W[:, self.columns.size:]
            # one compare per code column: a (rows, tests, codes) compare and
            # its any() cost several times more
            equal = tested == self.codes[:, 0]
            for codes in self.codes.T[1:]:
                equal |= tested == codes
            tested[...] = ~equal
        return W


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


def _build_tree(X, yv, K, params, is_cat, rng, importance) -> Nodes:
    """One tree, grown depth-first and left child first, as ``Nodes`` with
    ids from 0; each split adds its impurity decrease to ``importance``."""
    n_total, d = X.shape
    mtry = params.resolved_mtry(d)
    feature, threshold, right, cat, node_counts = [], [], [], [], []
    cats_left = []
    no_counts = np.zeros(K, dtype=np.int64)  # split nodes keep no counts
    if params.bootstrap:
        root_idx = np.sort(rng.integers(0, n_total, n_total))
    else:
        root_idx = np.arange(n_total)
    # (sample idx, their class counts, depth, parent if a right child else -1)
    stack = [(root_idx, np.bincount(yv[root_idx], minlength=K), 0, -1)]
    while stack:
        idx, counts, depth, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature)
        n = idx.size
        best = None
        if n >= 2 * params.min_leaf and (counts > 0).sum() >= 2 and \
                (params.max_depth is None or depth < params.max_depth):
            base = float((counts.astype(np.float64) ** 2).sum()) / n
            cand = np.sort(rng.choice(d, size=mtry, replace=False))
            best = _best_split(X[idx[:, None], cand], yv[idx], counts,
                               is_cat[cand], params.min_leaf)
            if best is not None and best[0] <= base:
                best = None
        f, t, codes = (-1, None, None) if best is None else \
            (int(cand[best[1]]), best[2], best[3])
        feature.append(f)
        threshold.append(np.nan if t is None else t)
        cat.append(-1 if codes is None else len(cats_left))
        right.append(-1)
        node_counts.append(counts if best is None else no_counts)
        if best is None:
            continue
        if codes is not None:
            cats_left.append(np.asarray(codes, dtype=np.float64))
        col = X[idx, f]
        mask = np.isin(col, codes) if codes else col <= t
        left_idx, right_idx = idx[mask], idx[~mask]
        cl = np.bincount(yv[left_idx], minlength=K)
        cr = counts - cl
        importance[f] += (n / n_total) * _gini(counts) \
            - (left_idx.size / n_total) * _gini(cl) \
            - (right_idx.size / n_total) * _gini(cr)
        # push right first so the left child is the next node
        stack.append((right_idx, cr, depth + 1, len(feature) - 1))
        stack.append((left_idx, cl, depth + 1, -1))
    feature = np.asarray(feature, dtype=np.int64)
    return Nodes(feature=feature,
                 threshold=np.asarray(threshold, dtype=np.float64),
                 left=np.where(feature >= 0, np.arange(feature.size) + 1, -1),
                 right=np.asarray(right, dtype=np.int64),
                 roots=np.zeros(1, np.int64),
                 counts=np.asarray(node_counts, dtype=np.int64),
                 cat=np.asarray(cat, dtype=np.int64), cats_left=cats_left)


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
    trees = [_build_tree(X, yv, K, params, is_cat, np.random.default_rng(ss),
                         importance) for ss in seeds]
    return Forest(classes=classes, schema_id=schema_id, n_features=X.shape[1],
                  categorical=categorical, params=params,
                  importance_raw=importance, nodes=Nodes.concat(trees))


def _leaves(stack: Stack, W: np.ndarray, rows: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """Leaf reached from each (row of the compact input W, start node) pair.

    All pairs step together, with no compaction, until every one is at a
    leaf: a pair at a leaf stays there.  A child's id exceeds its parent's
    within the same tree (``from_dict`` checks that), so the walk ends.
    Every split sends w <= threshold left and the rest, NaN included, right;
    at a categorical split w is the row's membership column, 0 for a value
    equal to one of the codes, so only those values go left.
    """
    values = W.ravel()
    row_base = rows * W.shape[1]
    slot = 2 * at
    while np.count_nonzero(stack.splits[slot]):
        slot = stack.child[slot + (values[row_base + stack.feature[slot]]
                                   <= stack.threshold[slot])]
    return slot // 2


def predict_scores(model: Forest | Stack, X, which=None) -> np.ndarray:
    """Mean of per-tree leaf class frequencies; rows sum to 1.

    For a Stack, ``which[i]`` is the index of row i's forest, and row i holds
    that forest's scores in its first n_classes columns, zeros after.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n_rows = X.shape[0]
    if isinstance(model, Forest):
        model, which = model.stack, np.zeros(n_rows, dtype=np.int64)
    else:
        which = _forest_of_rows(model, which, n_rows)
    n_features, n_trees = model.n_features, model.n_trees
    if X.shape[1] != n_features:
        raise ForestError(f"schema mismatch: expected {n_features} features, "
                          f"got {X.shape[1]}")
    # (row, tree) pairs, row-major; forest k's trees are roots[k*T:(k+1)*T]
    rows = np.repeat(np.arange(n_rows), n_trees)
    trees = which[:, None] * n_trees + np.arange(n_trees)
    leaves = _leaves(model, model.compact(X), rows,
                     model.roots[trees.ravel()])
    freqs = model.freqs[leaves].reshape(n_rows, n_trees, model.freqs.shape[1])
    total = np.zeros((n_rows, freqs.shape[2]), dtype=np.float64)
    for t in range(n_trees):  # summed in tree order: reproducible bit for bit
        total += freqs[:, t]
    return total / n_trees


def _forest_of_rows(stack: Stack, which, n_rows: int) -> np.ndarray:
    """``which`` as one forest index per row, refused unless each names one
    of the stack's forests."""
    try:
        which = np.asarray(which, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ForestError("a Stack needs each row's forest index") from exc
    n_forests = stack.roots.size // stack.n_trees
    if which.shape != (n_rows,) or (n_rows and not (
            0 <= which.min() and which.max() < n_forests)):
        raise ForestError(f"need one forest index per row, each below "
                          f"{n_forests}")
    return which


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
            (any(c.ndim != 1 for c in nodes.cats_left),
             "each categorical split needs a flat list of codes"),
            (not np.isfinite(nodes.threshold[split & (nodes.cat < 0)]).all(),
             "numeric split without a finite threshold")]:
        if failed:
            raise ForestError(message)


def from_dict(data: dict) -> Forest:
    """The forest ``to_dict`` saved as ``data``; a missing, unknown or
    wrongly typed field raises ForestError."""
    if not isinstance(data, dict):
        raise ForestError("a forest must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ForestError("unsupported model format version")
    try:
        nd, classes = data["nodes"], data["classes"]
        # predictions are indexed by class, and None is no label at all
        if not isinstance(classes, list) or None in classes \
                or len(set(classes)) != len(classes):
            raise ForestError("classes must be a list of distinct values, "
                              "none of them null")
        feature = np.asarray(nd["feature"], dtype=np.int64)
        nodes = Nodes(
            feature=feature,
            threshold=np.asarray(nd["threshold"], dtype=np.float64),
            left=np.asarray(nd["left"], dtype=np.int64),
            right=np.asarray(nd["right"], dtype=np.int64),
            roots=np.asarray(nd["roots"], dtype=np.int64),
            counts=np.zeros((feature.size, len(classes)), dtype=np.int64),
            cat=np.asarray(nd["cat"], dtype=np.int64),
            cats_left=[np.asarray(c, dtype=np.float64)
                       for c in nd["cats_left"]])
        leaf_counts = np.asarray(nd["leaf_counts"], dtype=np.int64)
        # exactly an int: 174.0 passes every comparison with 174 but sizes
        # no array, and a bool is no width
        n_features = data["n_features"]
        if type(n_features) is not int:
            raise ForestError("n_features must be an integer")
        _check_nodes(nodes, leaf_counts, n_features, len(classes))
        nodes.counts[feature < 0] = leaf_counts
        importance = np.asarray(data["importance_raw"], dtype=np.float64)
        if importance.shape != (n_features,):
            raise ForestError("importance_raw needs one value per feature")
        return Forest(
            classes=classes, schema_id=data["schema_id"],
            n_features=n_features,
            categorical=frozenset(data["categorical"]),
            params=TrainParams(**data["params"]),
            importance_raw=importance, nodes=nodes)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ForestError(f"malformed field ({exc!r})") from exc

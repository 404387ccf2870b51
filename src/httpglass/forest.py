"""Random forest with class scores, Gini importances, and categorical splits.

Written against the needs of the inference pipeline rather than pulled from a
library: splits must be reproducible bit-for-bit given a seed, ties must break
deterministically (lowest feature index, then lowest threshold / smallest
category prefix), and integer-coded categorical features are split by subset
membership instead of one-hot encoding.

Split quality maximizes sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
which orders splits identically to minimizing weighted Gini impurity while
staying exact for integer class counts.  ``grow`` trains many forests on one
table at once, each tree as it would grow alone.
"""
from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property
from itertools import accumulate, chain, pairwise
from math import ceil, sqrt
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import HttpglassError

FORMAT_VERSION = 2


class ForestError(HttpglassError):
    def __init__(self, message: str, forest: int | None = None):
        super().__init__(message)
        self.forest = forest  # of forests loaded together, the one refused


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
    first.  Training builds a forest's arrays once from its trees' node
    lists, ``Stack`` pools forests with ``concat``, and prediction and
    persistence read them too.  A loaded forest's arrays are views into
    its bundle's arrays, which ``from_dicts`` converts for every forest of
    the bundle at once.
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
    ``predict_compact`` walk scores rows meant for any of them.  Rows are as
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

    def compact(self, X: np.ndarray, width: int | None = None) -> np.ndarray:
        """The walk's input for the rows of X: its numeric columns, then its
        membership columns.  Given a ``width``, X holds only the first
        ``width`` features of each row, which every categorical test must
        read; the numeric columns that read past them, the last numeric ones,
        are left 0 for the caller to fill."""
        if width is None:
            W = np.take(X, self.gather, axis=1)  # C order: _leaves ravels it
        else:
            W = np.zeros((len(X), self.gather.size))
            read = self.gather < width
            W[:, read] = np.take(X, self.gather[read], axis=1)
        if self.codes is not None:
            tested = W[:, self.columns.size:]
            # one compare per code column: a (rows, tests, codes) compare and
            # its any() cost several times more
            equal = tested == self.codes[:, 0]
            for codes in self.codes.T[1:]:
                equal |= tested == codes
            tested[...] = ~equal
        return W


@dataclass(frozen=True, eq=False)
class View:
    """One forest for ``grow`` to train on its shared table: the table
    ``rows`` it reads, one per label in ``y``, and the table ``columns`` it
    reads, so that its own feature j is table column ``columns[j]``;
    ``categorical`` holds its own feature indices."""

    rows: np.ndarray
    columns: np.ndarray
    y: list
    params: TrainParams
    categorical: frozenset[int] = frozenset()
    schema_id: str = "unspecified"


class _Tree:
    """A tree while it grows: its forest's index, its RNG, its depth-first
    stack of open nodes, and its node lists in node order.  Class counts
    are lists, one per node, splits included: the forest's importances are
    computed from them once its trees are grown, a split's left child being
    the node after it."""

    __slots__ = ("forest", "rng", "stack", "feature", "threshold", "right",
                 "counts", "cats_left")

    def __init__(self, forest: int, rng, root: np.ndarray, counts: list):
        self.forest, self.rng = forest, rng
        # (samples, class counts, classes present, depth, parent if a right
        # child else -1)
        self.stack = [(root, counts, len(counts) - counts.count(0), 0, -1)]
        self.feature, self.threshold, self.right = [], [], []
        self.counts, self.cats_left = [], []

    def open_node(self, params: TrainParams, d: int, mtry: int):
        """Pop open nodes, keeping each one the split gate refuses as a
        leaf, until one may split; returns (node id, depth, samples, counts,
        classes present, candidate features drawn from the tree's RNG), or
        None once the tree is grown."""
        while self.stack:
            samples, counts, present, depth, parent = self.stack.pop()
            node = len(self.feature)
            if parent >= 0:
                self.right[parent] = node
            self.feature.append(-1)
            self.threshold.append(np.nan)
            self.right.append(-1)
            self.counts.append(counts)
            if samples.size >= 2 * params.min_leaf and present >= 2 and \
                    (params.max_depth is None or depth < params.max_depth):
                return node, depth, samples, counts, present, \
                    self.rng.choice(d, size=mtry, replace=False)
        self.rng = self.stack = None
        return None

    def split(self, node: int, depth: int, feature: int, threshold, codes,
              left, right) -> None:
        """Make ``node`` a split; ``left`` and ``right`` are its children's
        (samples, counts, classes present)."""
        self.feature[node] = feature
        if codes is None:
            self.threshold[node] = threshold
        else:
            self.cats_left.append(np.asarray(codes, dtype=np.float64))
        # push right first so the left child is the next node
        self.stack.append((*right, depth + 1, node))
        self.stack.append((*left, depth + 1, -1))


def grow(X, views: list[View]) -> list[Forest]:
    """Train one forest per view of the table X, growing the trees of all
    of them in lockstep.

    Each tree grows depth-first, left child first, drawing its bootstrap and
    each node's candidate features from its own RNG, as if it grew alone.
    At each step every unfinished tree opens its next node that may split
    (saving the ones the split gate refuses as leaves on the way), one
    split search scores all those nodes and partitions the rows of those
    that split.  A forest is put together once its last tree is grown, its
    importances summed in (tree, node) order, so every forest is what
    growing its trees one at a time would give, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ForestError("X must be 2-dimensional")
    if not np.isfinite(X).all():
        raise ForestError("X holds NaN or infinite values")
    if not views:
        return []
    specs, live, first, tables = [], [], [], {}
    # the samples of all views, numbered one after another: a node holds
    # the numbers of its rows, whose table rows (as where each starts among
    # X's values) and class indices these map
    row_start, label, offset = [], [], 0
    for f, view in enumerate(views):
        rows = np.asarray(view.rows, dtype=np.int64)
        cols = np.asarray(view.columns, dtype=np.int64)
        n, d = rows.size, cols.size
        if len(view.y) != n:
            raise ForestError("X and y length mismatch")
        if n < 1:
            raise ForestError("need at least one sample")
        if d < 1:
            raise ForestError("need at least one column")
        # a negative index would read X wrapped round, one past the end the
        # next row
        if rows.min() < 0 or rows.max() >= X.shape[0] or cols.min() < 0 \
                or cols.max() >= X.shape[1]:
            raise ForestError("view rows or columns outside X")
        for i in view.categorical:
            if not 0 <= i < d:
                raise ForestError(f"categorical index {i} out of range")
        classes = sorted(set(view.y))
        index = {c: k for k, c in enumerate(classes)}
        yv = np.asarray([index[v] for v in view.y], dtype=np.int64)
        row_start.append(rows * X.shape[1])
        label.append(yv)
        # views that share a column array share one copy of it here
        key = (id(view.columns), view.categorical)
        if key not in tables:
            is_cat = np.zeros(d, dtype=bool)
            is_cat[list(view.categorical)] = True
            tables[key] = (sum(c.size for _, c, _ in tables.values()), cols,
                           is_cat)
        first.append(tables[key][0])
        params = view.params
        trees = []
        for ss in np.random.SeedSequence(params.seed).spawn(params.n_trees):
            rng = np.random.default_rng(ss)
            root = np.sort(rng.integers(0, n, n)) if params.bootstrap \
                else np.arange(n)
            trees.append(_Tree(f, rng, root + offset, np.bincount(
                yv[root], minlength=len(classes)).tolist()))
        live += trees
        specs.append((view, classes, d, params.resolved_mtry(d), trees))
        offset += n
    row_start = np.concatenate(row_start)
    label = np.concatenate(label)
    # the distinct column arrays and their categorical flags, one after
    # another; then, indexed by forest, where its columns start, its
    # min_leaf and whether it is binary
    forests = (np.concatenate([c for _, c, _ in tables.values()]),
               np.concatenate([m for *_, m in tables.values()]),
               np.array(first),
               np.array([v.params.min_leaf for v in views]),
               np.array([len(classes) == 2 for _, classes, *_ in specs]))
    del tables

    out = [None] * len(views)
    unfinished = [view.params.n_trees for view in views]
    while live:
        nodes = []
        for tree in live:
            view, classes, d, mtry, trees = specs[tree.forest]
            found = tree.open_node(view.params, d, mtry)
            if found is not None:
                nodes.append((tree, *found))
                continue
            unfinished[tree.forest] -= 1
            if not unfinished[tree.forest]:
                out[tree.forest] = _forest(view, classes, trees)
                trees.clear()
        live = [tree for tree, *_ in nodes]
        _search(X, row_start, label, forests, nodes)
    return out


def _forest(view: View, classes: list, trees: list[_Tree]) -> Forest:
    """The forest of a view's grown trees: their node lists joined, ids
    shifted to the forest's numbering, one array per field."""
    roots, right = [], []
    for tree in trees:
        base = len(right)
        roots.append(base)
        right += [r + base if r >= 0 else -1 for r in tree.right]
    feature = np.array([f for tree in trees for f in tree.feature],
                       dtype=np.int64)
    threshold = np.array([t for tree in trees for t in tree.threshold],
                         dtype=np.float64)
    counts = np.fromiter(chain.from_iterable(
        c for tree in trees for c in tree.counts), np.int64,
        feature.size * len(classes)).reshape(feature.size, -1)
    split = (feature >= 0).nonzero()[0]
    importance = np.zeros(len(view.columns), dtype=np.float64)
    if split.size:
        # in (tree, node) order, as growing the trees one at a time would
        np.add.at(importance, feature[split], _gini_decrease(
            counts[split], counts[split + 1], len(view.y)))
    counts[split] = 0
    # a split without a threshold is categorical; each tree keeps its codes
    # in node order
    cat = np.full(feature.size, -1, dtype=np.int64)
    categorical = split[np.isnan(threshold[split])]
    cat[categorical] = np.arange(categorical.size)
    return Forest(classes=classes, schema_id=view.schema_id,
                  n_features=len(view.columns),
                  categorical=frozenset(int(i) for i in view.categorical),
                  params=view.params, importance_raw=importance,
                  nodes=Nodes(feature=feature, threshold=threshold,
                              left=np.where(feature >= 0,
                                            np.arange(1, feature.size + 1),
                                            -1),
                              right=np.array(right, dtype=np.int64),
                              roots=np.array(roots, dtype=np.int64),
                              counts=counts, cat=cat,
                              cats_left=[c for tree in trees
                                         for c in tree.cats_left]))


def _gini_decrease(counts, left, n_total) -> np.ndarray:
    """Each split's Gini impurity decrease, weighted by its share of the
    ``n_total`` training rows, from its class counts and its left child's."""
    m = len(counts)
    c = np.concatenate([counts, left, counts - left])
    n = c.sum(axis=1, keepdims=True)
    gini = (n[:, 0] / n_total) * (1.0 - ((c / n) ** 2).sum(axis=1))
    return gini[:m] - gini[m:2 * m] - gini[2 * m:]


# The most count-table cells (rows x candidate columns x (classes + 1)) one
# split search takes at once, unless the table has more cells; a node with
# more is searched alone.  The search's memory grows with it: about 21
# bytes per (row, column) cell and 5 per count cell, measured with
# tracemalloc on the bench's ``train`` workload.  There, at this size, the
# command peaks at 1.82-1.87 MB over seeds 1-3; twice the size adds 7-9 %.
# A larger table lets chunks grow with it, so the search holds at most a
# few times the table's own bytes: training one criterion-5 bundle (Tor
# mode, 40 deep trees per forest) then makes 6,348 searches instead of
# 19,980.
_CHUNK_CELLS = 16384


def _search(X, row_start, label, forests, nodes) -> None:
    """Split each node in its tree by its best split, if it has one: the
    nodes in chunks of at most ``_CHUNK_CELLS`` count cells or as many as X
    has, whichever is more (a larger node alone), largest nodes first so
    that a chunk pads little.

    A node is (its tree, its id and depth, its samples, their class counts,
    the classes present, its candidate features); ``forests`` holds the
    distinct column arrays of the forests and their categorical flags, one
    after another, then by forest where its columns start, its min_leaf and
    whether it is binary.
    """
    if not nodes:
        return
    step = _Step(forests, sorted(nodes, key=lambda node: -node[3].size))
    at = 0
    while at < len(step.size):
        # the first node is the chunk's largest
        n_max, columns, classes, end = step.size[at], 0, 0, at
        while end < len(step.size):
            width, present = step.width[end], step.present[end]
            if end > at and n_max * (columns + width) * (max(
                    classes, present) + 1) > max(_CHUNK_CELLS, X.size):
                break
            columns, classes, end = columns + width, max(classes,
                                                         present), end + 1
        _search_chunk(X, row_start, label, step, at, end)
        at = end


class _Step:
    """The nodes of one step's search, in search order, with what does not
    depend on the chunk laid out once: per node its tree, id, depth,
    samples, class counts, classes present and candidates, as tuples, and
    the arrays below.

    Each node's classes are renumbered in order among those it holds, so a
    count table is only as wide as the most classes one node holds:
    ``counts`` holds each node's class counts in its numbering, and
    ``code`` maps its forest's class numbers to it, -1 for a class the
    node lacks.  ``first`` is where the node's forest's columns start in
    ``columns`` (and ``categorical``), and ``seg_first`` where its
    segments start among the step's.
    """

    def __init__(self, forests, nodes):
        self.columns, self.categorical, first, min_leaf, binary = forests
        (self.tree, self.id, self.depth, self.samples, self.node_counts,
         self.present, self.cand) = zip(*nodes)
        k = len(nodes)
        self.size = [s.size for s in self.samples]
        self.width = [c.size for c in self.cand]
        self.seg_first = np.cumsum([0] + self.width)
        self.ns = np.array(self.size)
        forest = np.array([tree.forest for tree in self.tree])
        self.first, self.min_leaf = first[forest], min_leaf[forest]
        zero = [0] * max(map(len, self.node_counts))
        wide = np.fromiter(chain.from_iterable(
            [c + zero[len(c):] for c in self.node_counts]), np.int64,
            k * len(zero)).reshape(k, -1)
        held = wide > 0
        code = held.cumsum(axis=1) - 1
        self.counts = np.zeros((k, max(self.present)), dtype=np.int64)
        self.counts[held.nonzero()[0], code[held]] = wide[held]
        self.square = np.einsum("ij,ij->i", self.counts, self.counts)
        # the reference class that orders categorical groups: class 1 for
        # binary problems (a binary node holds both, so class 1 keeps its
        # number), else the node's majority class
        self.ref = np.where(binary[forest], 1,
                            code[np.arange(k), wide.argmax(axis=1)])
        code[~held] = -1
        # wide enough for the padding class, numbered up to len(zero)
        self.code = code.astype(np.min_scalar_type(-1 - len(zero)))


def _search_chunk(X, row_start, label, step, a: int, b: int) -> None:
    """Split each of the step's nodes a to b - 1 by its best split, if it
    has one, in its tree.

    Each (node, candidate feature) is a segment of the node's values in
    one column, all segments padded to the chunk's largest node with one
    more class, K, that sorts last in its segment and never makes a cut.
    Runs of equal values in a segment are groups: numeric groups in value
    order, categorical ones by the share of the node's reference class,
    then by value.  Every cut between groups leaving ``min_leaf`` rows a
    side is scored by sum(left^2)/n_left + sum(right^2)/n_right over the
    class counts, and a node's first maximum in (column, cut) order wins if
    it beats the node's own sum(counts^2)/n strictly.  A numeric threshold
    is the midpoint of the values around the cut (the lower one if the
    midpoint rounds onto the upper); a categorical split sends the codes of
    the groups up to the cut left.  But for a slice per child and per
    categorical split's codes, the chunk makes the same numpy calls however
    many nodes it holds.
    """
    ns = step.ns[a:b]
    n_max, K = step.size[a], max(step.present[a:b])
    # each (node, candidate) is a segment
    width = step.width[a:b]
    seg_node = np.repeat(np.arange(b - a), width)
    # each segment's own feature, in increasing order within its node
    own = np.concatenate(step.cand[a:b])
    offset = seg_node * step.columns.size  # above any forest's column count
    own += offset
    own.sort()
    own -= offset
    column = own + np.repeat(step.first[a:b], width)
    column, is_cat = step.columns[column], step.categorical[column]
    # each node's samples and their classes, padded to n_max with the
    # chunk's first sample, whose label every row of ``code`` can map
    pad = np.arange(n_max) >= ns[:, None]
    fill = np.full(n_max, step.samples[a][0])
    samples = np.concatenate([part for s in step.samples[a:b]
                              for part in (s, fill[s.size:])]).reshape(
                                  b - a, n_max)
    classes = step.code[np.arange(a, b)[:, None], label.take(samples)]
    classes[pad] = K
    counts = np.concatenate([step.counts[a:b, :K], (n_max - ns)[:, None]],
                            axis=1)
    # (flat takes: about twice as fast as 2-d fancy indexing here)
    index = row_start.take(samples).take(seg_node, axis=0)
    index += column[:, None]
    B = X.take(index)
    del index
    # -0.0 and 0.0 are one value: without this, which of them a group
    # saves as its threshold or code would depend on the sort
    B += 0.0
    B[pad.take(seg_node, axis=0)] = np.inf
    at = B.argsort(axis=1)
    at += np.arange(0, B.size, n_max)[:, None]
    v = B.take(at).ravel()
    del B
    # segment s holds values s * n_max to (s + 1) * n_max; ``new`` marks
    # where each group starts
    new = np.empty(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=new[1:])
    new[::n_max] = True
    first = new.nonzero()[0]
    val = v[first]
    del v
    G = val.size
    gseg = first // n_max
    gnode = seg_node[gseg]
    key = new.cumsum()  # each value's group, from 1
    seg_g0 = key[::n_max] - 1  # each segment's first group
    # each group's class counts (group 0's bins stay empty)
    key *= K + 1
    key += classes.take(seg_node, axis=0).take(at).ravel()
    cnt = np.bincount(key, minlength=(G + 1) * (K + 1))[K + 1:].reshape(
        G, K + 1)
    del key
    rank = None  # each group's place in cut order, when it moved
    # each categorical segment's groups but its padding, which stays last
    cat = (is_cat[gseg] & (val < np.inf)).nonzero()[0]
    if cat.size:  # reorder them
        c = cnt.take(cat, axis=0)
        share = c[np.arange(cat.size), step.ref[a:b][gnode[cat]]] \
            / np.einsum("ij->i", c)
        # a stable sort: groups of one share stay in value order
        order = cat[np.lexsort((share, gseg[cat]))]
        cnt[cat], val[cat] = cnt.take(order, axis=0), val[order]
        rank = np.arange(G)
        rank[order] = cat
    # the class counts left of each cut: a running sum over all groups,
    # restarted at each segment by taking the previous segment's total off
    # its first group
    cnt[seg_g0[1:]] -= counts.take(seg_node[:-1], axis=0)
    left = np.cumsum(cnt, axis=0, out=cnt)
    # (row sums: einsum is several times faster than sum(axis=1) here)
    nl = np.einsum("ij->i", left)
    sum_l = np.einsum("ij,ij->i", left, left)
    # the class counts right of each cut, the padding's left out: a
    # segment's last group leaves no rows right, and is never a cut
    right = counts.take(gnode, axis=0)
    right -= left
    right = right[:, :K]
    nr = ns.take(gnode) - nl
    score = sum_l / nl + np.einsum("ij,ij->i", right, right) / np.maximum(
        nr, 1)
    score[np.minimum(nl, nr) < step.min_leaf[a:b][gnode]] = -np.inf
    # each node's first maximum: groups run in (node, column, cut) order
    node_g0 = seg_g0[step.seg_first[a:b] - step.seg_first[a]]
    top = np.maximum.reduceat(score, node_g0)
    hit = np.minimum.reduceat(np.where(score == top[gnode], np.arange(G), G),
                              node_g0)
    node = (top > step.square[a:b] / ns).nonzero()[0]
    if not node.size:
        return
    g = hit[node]
    seg = gseg[g]
    nn, nleft = ns[node], nl[g]
    # each split's segment in sorted order: its samples, and whether each
    # one's group is at or before the cut; the padding sorts last
    moved = at.take(seg, axis=0)
    moved += ((node - seg) * n_max)[:, None]
    moved = samples.take(moved)
    group = new.reshape(-1, n_max).take(seg, axis=0).cumsum(axis=1)
    group += (seg_g0[seg] - 1)[:, None]
    goes_left = (group if rank is None else rank[group]) <= g[:, None]
    to_left = moved[goes_left]
    goes_left |= pad.take(node, axis=0)
    to_right = moved[~goes_left]
    # the children's counts, back in their forests' class numbers: a class
    # the node lacks reads the padding column, 0 left of a cut
    node += a
    cl = left[g[:, None], step.code.take(node, axis=0)].tolist()
    lo, hi = val[g], val[g + 1]
    mid = (lo + hi) / 2.0
    # neighbouring doubles can round their midpoint up onto hi
    threshold = np.where(mid < hi, mid, lo).tolist()
    # a categorical split sends the codes of its groups up to the cut left
    codes = [None] * node.size
    for j in is_cat[seg].nonzero()[0].tolist():
        codes[j], threshold[j] = sorted(
            val[seg_g0[seg[j]]:g[j] + 1].tolist()), None
    at_l = at_r = 0
    for i, f, t, c, end_l, end_r, lc in zip(
            node.tolist(), own[seg].tolist(), threshold, codes,
            nleft.cumsum().tolist(), (nn - nleft).cumsum().tolist(), cl):
        # the right child's counts, as wide as the node's forest's classes
        rc = [n - m for n, m in zip(step.node_counts[i], lc)]
        lc = lc[:len(rc)]
        step.tree[i].split(step.id[i], step.depth[i], f, t, c,
                           (to_left[at_l:end_l], lc, len(lc) - lc.count(0)),
                           (to_right[at_r:end_r].copy(), rc,
                            len(rc) - rc.count(0)))
        at_l, at_r = end_l, end_r


def train(X, y, params: TrainParams | None = None,
          categorical: frozenset[int] | set[int] = frozenset(),
          schema_id: str = "unspecified") -> Forest:
    """Train a forest on (X, y), alone: ``grow`` with one view of all of X;
    y may hold arbitrary sortable labels."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ForestError("X must be 2-dimensional")
    return grow(X, [View(np.arange(X.shape[0]), np.arange(X.shape[1]), y,
                         params or TrainParams(), frozenset(categorical),
                         schema_id)])[0]


def _leaves(stack: Stack, W: np.ndarray, rows: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """Leaf reached from each (row of the compact input W, start node) pair.

    All pairs step together, with no compaction, until every one is at a
    leaf: a pair at a leaf stays there.  A child's id exceeds its parent's
    within the same tree (``from_dicts`` checks that), so the walk ends.
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


def predict_scores(forest: Forest, X) -> np.ndarray:
    """Mean of per-tree leaf class frequencies; rows sum to 1."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise ForestError(f"schema mismatch: expected {forest.n_features} "
                          f"features, got {X.shape[1]}")
    stack = forest.stack
    return predict_compact(stack, stack.compact(X),
                           np.zeros(X.shape[0], dtype=np.int64))


def predict_compact(stack: Stack, W: np.ndarray, which: np.ndarray,
                    ) -> np.ndarray:
    """``predict_scores`` of the rows whose walk input is W, as
    ``stack.compact`` gives it, row i scored by forest ``which[i]`` (an
    int64 array, unchecked): row i holds that forest's scores in its first
    n_classes columns, zeros after."""
    n_rows, n_trees = W.shape[0], stack.n_trees
    # (row, tree) pairs, row-major; forest k's trees are roots[k*T:(k+1)*T]
    rows = np.repeat(np.arange(n_rows), n_trees)
    trees = which[:, None] * n_trees + np.arange(n_trees)
    leaves = _leaves(stack, W, rows, stack.roots[trees.ravel()])
    freqs = stack.freqs[leaves].reshape(n_rows, n_trees, stack.freqs.shape[1])
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


# the fields saved as one flat list per forest, converted for all forests
# together: their dtypes, and the refusal when a forest's list is not flat
_FLAT = (("feature", np.int64, "node arrays differ in length"),
         ("threshold", np.float64, "node arrays differ in length"),
         ("left", np.int64, "node arrays differ in length"),
         ("right", np.int64, "node arrays differ in length"),
         ("roots", np.int64, "roots must be increasing node ids from 0"),
         ("cat", np.int64, "node arrays differ in length"),
         ("importance_raw", np.float64,
          "importance_raw needs one value per feature"))
# the field saved with nulls: to_dict writes each threshold but a numeric
# split's as null
_NULLS = "threshold"
# a saved forest's node lists: the flat ones of _FLAT, then leaf_counts
_NODE_LISTS = itemgetter(*(name for name, *_ in _FLAT[:-1]), "leaf_counts")
_CONVERT_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


class _Saved(NamedTuple):
    """A saved forest's fields, their types checked, not yet converted."""

    classes: list
    n_features: int
    flat: tuple  # the lists of the _FLAT fields, in that order
    cats_left: list
    leaf_counts: list
    schema_id: object
    categorical: frozenset
    params: TrainParams


def _unpack(data) -> _Saved:
    """The fields of the forest ``to_dict`` saved as ``data``; ForestError
    for a missing, unknown or wrongly typed one."""
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
        # exactly an int: 174.0 passes every comparison with 174 but sizes
        # no array, and a bool is no width
        n_features = data["n_features"]
        if type(n_features) is not int:
            raise ForestError("n_features must be an integer")
        lists = _NODE_LISTS(nd)
        if set(map(type, lists)) != {list}:
            raise ForestError("each node field must be a list")
        importance = data["importance_raw"]
        if type(importance) is not list or len(importance) != n_features:
            raise ForestError("importance_raw needs one value per feature")
        return _Saved(classes, n_features, (*lists[:-1], importance),
                      list(nd["cats_left"]), lists[-1], data["schema_id"],
                      frozenset(data["categorical"]),
                      TrainParams(**data["params"]))
    except _CONVERT_ERRORS as exc:
        raise ForestError(f"malformed field ({exc!r})") from exc


def _chained(lists: list, dtype, refusal: str, nulls: bool = False,
             widths: list | None = None) -> np.ndarray:
    """The values of ``lists`` as one flat array, in one conversion; if
    that fails, the lists as ``np.asarray`` converts each in turn, a
    ForestError for the first it does not convert or that does not have its
    shape (with ``refusal``).  A list is flat, or given ``widths``, a list
    of rows of its forest's width.  Given ``nulls``, the lists hold many
    None, which np.asarray reads as NaN."""
    try:
        values = chain.from_iterable(lists)
        if widths is None:
            size = sum(map(len, lists))
        else:
            rows = list(values)
            if rows and set(map(type, rows)) != {list}:
                raise TypeError("a row is not a list")
            lengths = np.fromiter(map(len, rows), np.int64, len(rows))
            if not np.array_equal(lengths, np.repeat(widths,
                                                     list(map(len, lists)))):
                raise ValueError("a row is not as long as its forest's width")
            values, size = chain.from_iterable(rows), int(lengths.sum())
        if nulls:  # (np.fromiter refuses None)
            values = [np.nan if v is None else v for v in values]
        # np.fromiter converts each value as np.asarray does in a list of
        # numbers, without asarray's search for nested lists, which takes
        # as long as the conversion
        return np.fromiter(values, dtype, size)
    except _CONVERT_ERRORS:
        pass
    parts = [np.empty(0, dtype=dtype)]
    for k, v in enumerate(lists):
        try:
            part = np.asarray(v, dtype=dtype)
        except _CONVERT_ERRORS as exc:
            raise ForestError(f"malformed field ({exc!r})") from exc
        if part.shape != ((len(v),) if widths is None else (len(v),
                                                            widths[k])):
            raise ForestError(refusal)
        parts.append(part.ravel())
    return np.concatenate(parts)


def _refuse(bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise ForestError(message)


def _bases(sizes) -> np.ndarray:
    """Where each of consecutive parts of ``sizes`` starts, and the end."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def from_dicts(data: list) -> list[Forest]:
    """The forests ``to_dict`` saved as the items of ``data``, loaded as one
    node table.  Each field of all of them (each node array, the roots,
    the leaf counts, the importances and the codes of every categorical
    split) is chained in order and converted in one call; each forest's
    arrays are views into those, and its class counts a view into one
    shared array.

    The table is checked in one pass, against each forest's bounds (its
    node range, roots, n_features, class count and number of categorical
    splits) by one array test per check, for what ``predict_scores`` could
    not use: each child must follow its parent inside its tree, so every
    walk ends at a leaf, each leaf must hold a positive count, and numeric
    thresholds and importances must be finite.  A missing, unknown or
    wrongly typed field is refused too; numeric node values are converted
    as numpy converts them.  A refused table is loaded again one forest at
    a time, in ``data``'s order: the first forest refused alone raises its
    ForestError, whose ``forest`` is its index there.  Each check is local
    to its forest, so one is always refused alone; were none, the table's
    own ForestError, naming no forest, would be raised."""
    try:
        return _load(data)
    except ForestError:
        for k, d in enumerate(data):
            try:
                _load([d])
            except ForestError as exc:
                exc.forest = k
                raise
        raise


def _load(data: list) -> list[Forest]:
    """``from_dicts`` of ``data``, all or nothing: a ForestError at the
    first check that fails, naming no forest."""
    saved = [_unpack(d) for d in data]
    feature, threshold, left, right, roots, cat, importance = (
        _chained([s.flat[j] for s in saved], dtype, not_flat, name == _NULLS)
        for j, (name, dtype, not_flat) in enumerate(_FLAT))
    size = np.fromiter(map(len, chain.from_iterable(s.flat for s in saved)),
                       np.int64, len(saved) * len(_FLAT)).reshape(
                           -1, len(_FLAT))
    # threshold, left, right and cat as long as feature
    _refuse(size[:, [1, 2, 3, 5]] != size[:, :1],
            "node arrays differ in length")
    # roots: 0 first, then increasing, all inside their forest
    n_nodes, n_roots = size[:, 0], size[:, 4]
    root_base = _bases(n_roots)
    first_root = np.zeros(roots.size, dtype=bool)
    first_root[root_base[:-1][n_roots > 0]] = True
    roots_message = "roots must be increasing node ids from 0"
    _refuse(n_roots == 0, roots_message)
    _refuse(np.where(first_root, roots != 0,
                     roots <= np.append(0, roots[:-1]))
            | (roots >= np.repeat(n_nodes, n_roots)), roots_message)

    # the node arrays line up, and each forest's trees follow one another
    node_base = _bases(n_nodes)
    N = node_base[-1]
    split = feature >= 0
    # each node's id and its tree's end, in its forest's numbering
    base = np.repeat(node_base[:-1], n_nodes)
    tops = roots + np.repeat(node_base[:-1], n_roots)
    ids = np.arange(N)
    end = np.append(tops[1:], N)[np.searchsorted(tops, ids, "right") - 1] \
        - base
    ids -= base
    _refuse(split & ((left <= ids) | (left >= end) | (right <= ids)
                     | (right >= end)),
            "a child id does not follow its parent in its tree")

    # one positive row of class counts per leaf (each tree ends in one)
    leaf = ~split
    n_leaves = np.diff(_bases(leaf)[node_base])
    width = [len(s.classes) for s in saved]
    leaf_message = "leaf_counts needs one positive row per leaf"
    _refuse((np.array([len(s.leaf_counts) for s in saved], dtype=np.int64)
             != n_leaves) | (np.array(width, dtype=np.int64) == 0),
            leaf_message)
    values = _chained([s.leaf_counts for s in saved], np.int64, leaf_message,
                      widths=width)
    row_width = np.repeat(np.array(width, dtype=np.int64), n_leaves)
    row_start = np.cumsum(row_width) - row_width
    if row_start.size:
        _refuse((np.add.reduceat(values, row_start) <= 0)
                | (np.minimum.reduceat(values, row_start) < 0), leaf_message)

    n_features = [s.n_features for s in saved]
    _refuse((feature < -1) | (feature >= np.repeat(n_features, n_nodes)),
            f"split feature out of range for {n_features[0]} features"
            if len(saved) == 1 else "split feature out of range")
    n_cats = [len(s.cats_left) for s in saved]
    _refuse((cat < -1) | (cat >= np.repeat(n_cats, n_nodes)),
            "categorical split index out of range")
    codes_message = "each categorical split needs a flat list of codes"
    if not all(type(c) is list for s in saved for c in s.cats_left):
        raise ForestError(codes_message)
    codes = _chained([list(chain.from_iterable(s.cats_left)) for s in saved],
                     np.float64, codes_message)
    _refuse(split & (cat < 0) & ~np.isfinite(threshold),
            "numeric split without a finite threshold")
    _refuse(~np.isfinite(importance),
            "importance_raw holds a NaN or infinite value")

    # every forest loaded: its class counts, 0 at splits, are a view into
    # one array, a leaf's row starting at its forest's cell base + its id
    # times its class count
    n_classes = np.array(width, dtype=np.int64)
    cell_base = _bases(n_nodes * n_classes)
    cells = np.zeros(cell_base[-1], dtype=np.int64)
    leaf_forest = np.repeat(np.arange(len(saved)), n_leaves)
    row_at = cell_base[leaf_forest] + (np.flatnonzero(leaf)
                                       - node_base[leaf_forest]) \
        * n_classes[leaf_forest]
    cells[np.repeat(row_at - row_start, row_width)
          + np.arange(values.size)] = values
    codes = np.split(codes, list(accumulate(
        len(c) for s in saved for c in s.cats_left))[:-1])
    forests = []
    for s, (a, b), (r, t), (i, j), (c, d), (e, f) in zip(
            saved, *(pairwise(x.tolist()) for x in (
                node_base, root_base, _bases(n_features), cell_base,
                _bases(n_cats)))):
        nodes = Nodes(feature=feature[a:b], threshold=threshold[a:b],
                      left=left[a:b], right=right[a:b], roots=roots[r:t],
                      counts=cells[c:d].reshape(b - a, len(s.classes)),
                      cat=cat[a:b], cats_left=codes[e:f])
        forests.append(Forest(
            classes=s.classes, schema_id=s.schema_id,
            n_features=s.n_features, categorical=s.categorical,
            params=s.params, importance_raw=importance[i:j], nodes=nodes))
    return forests


def from_dict(data: dict) -> Forest:
    """The forest ``to_dict`` saved as ``data``: ``from_dicts`` of it
    alone.  As a bundle's forests' arrays are views into the bundle's
    arrays, its arrays are views into arrays of its own."""
    return from_dicts([data])[0]

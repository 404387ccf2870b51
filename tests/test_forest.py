"""Random forest training, prediction, and serialization oracles."""

import hashlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass import forest as rf

from helpers import (assert_same_forest, random_dataset,
                     reference_forest_from_dict)


def _split_score(yv, mask, k):
    nl, nr = int(mask.sum()), int((~mask).sum())
    if nl == 0 or nr == 0:
        return None
    cl = np.bincount(yv[mask], minlength=k).astype(float)
    cr = np.bincount(yv[~mask], minlength=k).astype(float)
    return (cl @ cl) / nl + (cr @ cr) / nr


def _encode(y):
    labels = sorted(set(y))
    idx = {l: i for i, l in enumerate(labels)}
    return np.array([idx[l] for l in y]), len(labels)


def exhaustive_numeric_stump(X, y):
    """Best depth-1 numeric split by brute force over every midpoint.

    Returns (best_score, winners) where winners is the set of
    (feature, threshold) pairs achieving the best score, the score being
    sum(counts^2)/n_left + sum(counts^2)/n_right — the forest's objective.
    """
    yv, k = _encode(y)
    best = -np.inf
    winners = set()
    for f in range(X.shape[1]):
        col = X[:, f]
        vals = np.unique(col)
        for a, b in zip(vals, vals[1:]):
            t = (a + b) / 2.0
            score = _split_score(yv, col <= t, k)
            if score is None:
                continue
            if score > best + 1e-9:
                best, winners = score, {(f, t)}
            elif score > best - 1e-9:
                winners.add((f, t))
    return best, winners


def exhaustive_subset_stump(X, y, categorical):
    """Best depth-1 split allowing any code subset on categorical features."""
    yv, k = _encode(y)
    best = -np.inf
    for f in range(X.shape[1]):
        col = X[:, f]
        if f in categorical:
            codes = list(np.unique(col))
            for r in range(1, len(codes)):
                for left in itertools.combinations(codes, r):
                    score = _split_score(yv, np.isin(col, left), k)
                    if score is not None and score > best:
                        best = score
        else:
            vals = np.unique(col)
            for a, b in zip(vals, vals[1:]):
                score = _split_score(yv, col <= (a + b) / 2.0, k)
                if score is not None and score > best:
                    best = score
    return best


def _stump_params(seed=0):
    return rf.TrainParams(n_trees=1, max_depth=1, min_leaf=1,
                          features_per_split=8, bootstrap=False, seed=seed)


def test_stump_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    for _ in range(20):
        X, y = random_dataset(rng)
        forest = rf.train(X, y, _stump_params())
        nodes = forest.nodes
        root = nodes.roots[0]
        yv, k = _encode(y)
        counts = np.bincount(yv, minlength=k).astype(float)
        base = (counts @ counts) / len(y)
        best, winners = exhaustive_numeric_stump(X, y)
        if nodes.feature[root] < 0:
            # a leaf root is only legal when no split improves on the node
            assert best <= base + 1e-9
            continue
        assert (nodes.feature[root], nodes.threshold[root]) in winners


def test_stump_categorical_binary_matches_exhaustive_subsets():
    """For two classes the ordered-prefix scan finds the globally optimal
    code subset, so it must tie the brute-force search over all subsets."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(12, 60))
        X = rng.integers(0, 5, size=(n, 3)).astype(float)
        y = ["pos" if v else "neg" for v in rng.integers(0, 2, size=n)]
        cat = frozenset({0, 2})
        forest = rf.train(X, y, _stump_params(), categorical=cat)
        nodes = forest.nodes
        root = nodes.roots[0]
        if nodes.feature[root] < 0:
            continue
        yv, k = _encode(y)
        col = X[:, nodes.feature[root]]
        if nodes.cat[root] >= 0:
            achieved = _split_score(
                yv, np.isin(col, nodes.cats_left[nodes.cat[root]]), k)
        else:
            achieved = _split_score(yv, col <= nodes.threshold[root], k)
        best = exhaustive_subset_stump(X, y, cat)
        assert achieved == pytest.approx(best, abs=1e-9)


def _numeric_candidates(col, Y, min_leaf):
    """Best threshold for one numeric column, scanned in ascending order.

    Returns (score, threshold) or None; the threshold is the midpoint of two
    neighbouring values, or the lower one when the midpoint rounds onto the
    upper."""
    order = np.argsort(col)
    sv = col[order]
    cum = Y[order].cumsum(axis=0)
    boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
    nl = boundaries + 1
    nr = len(sv) - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    boundaries, nl, nr = boundaries[ok], nl[ok], nr[ok]
    if boundaries.size == 0:
        return None
    left = cum[boundaries]
    right = cum[-1][None, :] - left
    score = (left ** 2).sum(axis=1) / nl + (right ** 2).sum(axis=1) / nr
    best = int(np.argmax(score))  # first max -> lowest threshold on ties
    a, b = sv[boundaries[best]], sv[boundaries[best] + 1]
    return float(score[best]), (a + b) / 2.0 if (a + b) / 2.0 < b else a


def _categorical_candidates(col, Y, yv, min_leaf, node_counts):
    """Best code-subset split for one categorical column.

    Codes are ordered by the proportion of the reference class (class 1 for
    binary problems, otherwise the node's majority class), ties by ascending
    code, then prefix splits are scanned like an ordered feature.
    Returns (score, left_codes) or None.
    """
    codes, inv = np.unique(col, return_inverse=True)
    K = Y.shape[1]
    cnt = np.zeros((codes.size, K), dtype=np.int64)
    np.add.at(cnt, (inv, yv), 1)
    ref = 1 if K == 2 else int(np.argmax(node_counts))
    order = np.lexsort((codes, cnt[:, ref] / cnt.sum(axis=1)))
    prefix = cnt[order].cumsum(axis=0)
    cuts = np.arange(codes.size - 1)
    nl = prefix[cuts].sum(axis=1)
    nr = int(prefix[-1].sum()) - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    cuts = cuts[ok]
    if cuts.size == 0:
        return None
    left = prefix[cuts]
    right = prefix[-1][None, :] - left
    score = (left ** 2).sum(axis=1) / nl[ok] + (right ** 2).sum(axis=1) / nr[ok]
    best = int(np.argmax(score))  # first max -> smallest prefix on ties
    left_codes = sorted(float(codes[k]) for k in order[:cuts[best] + 1])
    return float(score[best]), left_codes


def scalar_best_split(B, y, counts, is_cat, min_leaf):
    """The split search one column at a time: the first column whose best
    cut beats every earlier column's wins."""
    Y = np.zeros((len(y), counts.size), dtype=np.int64)
    Y[np.arange(len(y)), y] = 1
    best = None
    for j in range(B.shape[1]):
        if is_cat[j]:
            res = _categorical_candidates(B[:, j], Y, y, min_leaf, counts)
            found = res and (res[0], j, None, res[1])
        else:
            res = _numeric_candidates(B[:, j], Y, min_leaf)
            found = res and (res[0], j, res[1], None)
        if found and (best is None or found[0] > best[0]):
            best = found
    return best


def _gini(counts):
    p = counts / counts.sum()
    return float(1.0 - (p ** 2).sum())


def _reference_tree(X, yv, K, params, is_cat, rng, importance):
    """One tree grown alone, depth-first and left child first, with the
    scalar split search; each split adds its impurity decrease to
    ``importance`` as it is made."""
    n_total, d = X.shape
    mtry = params.resolved_mtry(d)
    feature, threshold, right, cat, node_counts, cats_left = [], [], [], [], [], []
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
            best = scalar_best_split(X[idx[:, None], cand], yv[idx], counts,
                                     is_cat[cand], params.min_leaf)
            if best is not None and best[0] <= base:
                best = None
        f, t, codes = (-1, None, None) if best is None else \
            (int(cand[best[1]]), best[2], best[3])
        feature.append(f)
        threshold.append(np.nan if t is None else t)
        cat.append(-1 if codes is None else len(cats_left))
        right.append(-1)
        node_counts.append(counts if best is None else np.zeros(K, np.int64))
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
    return rf.Nodes(feature=feature,
                    threshold=np.asarray(threshold, dtype=np.float64),
                    left=np.where(feature >= 0, np.arange(feature.size) + 1,
                                  -1),
                    right=np.asarray(right, dtype=np.int64),
                    roots=np.zeros(1, np.int64),
                    counts=np.asarray(node_counts, dtype=np.int64),
                    cat=np.asarray(cat, dtype=np.int64), cats_left=cats_left)


def reference_train(X, y, params, categorical=frozenset(),
                    schema_id="unspecified"):
    """The reference trainer: one tree at a time, one scalar split search
    per node.  -0.0 counts as 0.0, as in training."""
    X = np.asarray(X, dtype=np.float64) + 0.0
    classes = sorted(set(y))
    yv = np.array([classes.index(v) for v in y], dtype=np.int64)
    is_cat = np.isin(np.arange(X.shape[1]), list(categorical))
    importance = np.zeros(X.shape[1])
    trees = [_reference_tree(X, yv, len(classes), params, is_cat,
                             np.random.default_rng(ss), importance)
             for ss in np.random.SeedSequence(params.seed).spawn(
                 params.n_trees)]
    return rf.Forest(classes=classes, schema_id=schema_id,
                     n_features=X.shape[1],
                     categorical=frozenset(int(i) for i in categorical),
                     params=params, importance_raw=importance,
                     nodes=rf.Nodes.concat(trees))


def _saved(forest):
    return json.dumps(rf.to_dict(forest), sort_keys=True)


def _oracle_dataset(rng, k, n_codes):
    """Integer-valued numeric columns (many ties), one real-valued column
    and two categorical columns with ``n_codes`` arbitrary float codes."""
    n = int(rng.integers(10, 80))
    X = np.column_stack([
        rng.integers(0, 4, n), rng.integers(-2, 3, n),
        np.round(rng.normal(size=n), 1),
        rng.choice(np.linspace(-3.5, 20.0, n_codes), n),
        rng.choice(np.arange(n_codes) * 7.5, n)]).astype(float)
    y = [f"c{int(v) % k}"
         for v in (X[:, 0] + X[:, 4] > 4) + rng.integers(0, k, n)]
    return X, y


def test_batched_search_matches_scalar_oracle():
    """Whole forests grown in lockstep with the batched split search, and
    by the reference trainer with the scalar one, are equal in their saved
    form: splits, thresholds, codes, node ids, counts and importances."""
    rng = np.random.default_rng(21)
    cases = itertools.product((2, 3, 5), (1, 2, 3), (True, False), (None, 1))
    for k, min_leaf, bootstrap, max_depth in cases:
        X, y = _oracle_dataset(rng, k, n_codes=2 if k == 2 else 5)
        params = rf.TrainParams(n_trees=3, max_depth=max_depth,
                                min_leaf=min_leaf, features_per_split=3,
                                bootstrap=bootstrap, seed=int(rng.integers(99)))
        assert _saved(rf.train(X, y, params, categorical={3, 4})) == \
            _saved(reference_train(X, y, params, categorical={3, 4}))


_VIEW_SHAPES = st.lists(st.tuples(st.integers(min_value=1, max_value=20),
                                  st.integers(min_value=1, max_value=3),
                                  st.sampled_from([None, 1, 3]), st.booleans()),
                        min_size=1, max_size=6)


def _check_grown_batch(seed, shapes):
    """Forests grown together over one table, each on its own rows
    (repeated ones too) and columns of it, equal the reference trainer's
    forests on those rows and columns: classes, min_leaf, max_depth and
    bootstrap vary by forest.  Columns 5 and 6 are categorical, and
    rounding leaves both signs of zero in column 4."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    X = np.column_stack([
        rng.integers(0, 4, n), rng.integers(-2, 3, n), rng.normal(size=n),
        rng.integers(0, 2, n), np.round(rng.normal(size=n) / 4, 1),
        rng.choice([-1.5, 0.0, 4.0, 7.25], n), rng.integers(0, 6, n) * 2.5,
    ]).astype(float)
    views = []
    for k, (n_classes, min_leaf, max_depth, bootstrap) in enumerate(shapes):
        rows = rng.integers(0, n, int(rng.integers(1, 2 * n)))
        columns = rng.choice(X.shape[1], int(rng.integers(1, X.shape[1] + 1)),
                             replace=False)
        params = rf.TrainParams(
            n_trees=int(rng.integers(1, 4)), max_depth=max_depth,
            min_leaf=min_leaf, bootstrap=bootstrap,
            features_per_split=int(rng.integers(1, columns.size + 1)),
            seed=int(rng.integers(1000)))
        views.append(rf.View(
            rows, columns, [f"c{v}" for v in rng.integers(0, n_classes,
                                                          rows.size)],
            params, frozenset(np.flatnonzero(columns >= 5).tolist()),
            f"view{k}"))
    for view, forest in zip(views, rf.grow(X, views)):
        assert _saved(forest) == _saved(reference_train(
            X[view.rows][:, view.columns], view.y, view.params,
            view.categorical, view.schema_id))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), _VIEW_SHAPES)
def test_grown_batch_matches_reference_trainer(seed, shapes):
    _check_grown_batch(seed, shapes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), _VIEW_SHAPES)
def test_grown_batch_in_many_chunks_matches_reference_trainer(seed, shapes):
    """The same property with the smallest chunk cap, the table's size: a
    step's nodes are then searched in several chunks, each padded to its
    own largest node and with its own class numbering, so state that leaks
    from one chunk into the next shows."""
    with mock.patch.object(rf, "_CHUNK_CELLS", 1):
        _check_grown_batch(seed, shapes)


@pytest.mark.parametrize("rows, columns", [
    (np.arange(-5, 25), np.arange(3)),  # a negative row
    (np.arange(30), np.array([0, -1])),  # a negative column
    (np.arange(29), np.array([0, 3])),  # a column past the end
    (np.arange(30), np.array([3])),  # ... and X's last row
    (np.array([0, 30]), np.arange(3)),  # a row past the end
    (np.arange(30), np.array([], dtype=np.int64)),  # no column at all
])
def test_view_outside_x_is_refused(rows, columns):
    """A view reads only X: a negative index would wrap round, and a column
    past the end would read the next row's first column."""
    X = np.arange(90, dtype=np.float64).reshape(30, 3)
    view = rf.View(rows, columns, [i % 2 for i in range(rows.size)],
                   rf.TrainParams(n_trees=2, features_per_split=1))
    with pytest.raises(rf.ForestError, match="outside X|column"):
        rf.grow(X, [view])


def test_a_node_holding_128_classes_matches_reference_trainer():
    """A node's classes are coded in the smallest integer type that also
    holds the padding class, numbered after them: with 128 classes that
    is not int8."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 2))
    y = [i % 128 for i in range(300)]
    params = rf.TrainParams(n_trees=2, max_depth=2, bootstrap=False, seed=3)
    assert _saved(rf.train(X, y, params)) == \
        _saved(reference_train(X, y, params))


def test_signed_zeros_train_the_same_forest():
    """-0.0 and 0.0 are one value: a forest trained with every zero
    negated saves the same bytes, its codes and thresholds included."""
    rng = np.random.default_rng(30)
    n = 120
    X = np.column_stack([rng.integers(-1, 2, n) * 0.5,
                         rng.choice([0.0, 1.0, 2.0], n),
                         np.round(rng.normal(size=n) / 4, 1)])
    y = [f"c{int(v)}" for v in (X[:, 0] > 0) + (X[:, 1] == 0)
         + rng.integers(0, 2, n)]
    params = rf.TrainParams(n_trees=5, features_per_split=2, seed=4)
    negated = np.where(X == 0, -0.0, X)
    forest = rf.train(X + 0.0, y, params, categorical={1})
    assert forest.nodes.cat.max() >= 0  # a categorical split saves codes
    assert _saved(rf.train(negated, y, params, categorical={1})) == \
        _saved(forest)


def test_predict_matches_manual_tree_walk():
    rng = np.random.default_rng(3)
    X, y = random_dataset(rng)
    forest = rf.train(X, y, rf.TrainParams(n_trees=5, max_depth=4, seed=1))
    scores = rf.predict_scores(forest, X)
    nodes = forest.nodes

    def walk(node, x):
        while nodes.feature[node] >= 0:
            f, c = nodes.feature[node], nodes.cat[node]
            if c >= 0:
                go_left = x[f] in nodes.cats_left[c].tolist()
            else:
                go_left = x[f] <= nodes.threshold[node]
            node = nodes.left[node] if go_left else nodes.right[node]
        counts = nodes.counts[node]
        return np.asarray(counts, dtype=float) / np.sum(counts)

    for i in range(len(X)):
        manual = np.mean([walk(r, X[i]) for r in nodes.roots], axis=0)
        np.testing.assert_allclose(scores[i], manual, atol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_training_input_is_refused(bad):
    """A NaN or infinite midpoint would send every row to one side, and
    training would grow empty leaves (or, without a depth limit, never
    end)."""
    X = np.array([[0.0], [1.0], [bad], [bad]])
    with pytest.raises(rf.ForestError, match="NaN or infinite"):
        rf.train(X, ["a", "b", "a", "b"],
                 rf.TrainParams(n_trees=2, max_depth=3, seed=0))


def test_midpoint_rounding_onto_upper_value():
    """Between neighbouring doubles the midpoint rounds onto the upper one;
    the lower value is the threshold then, so both sides keep their row."""
    a, b = 1.0000000000000002, 1.0000000000000004
    assert (a + b) / 2 == b
    X = np.array([[a], [b], [a], [b]])
    y = ["lo", "hi", "lo", "hi"]
    forest = rf.train(X, y, rf.TrainParams(n_trees=1, max_depth=3,
                                           bootstrap=False))
    nodes = forest.nodes
    assert nodes.threshold[0] == a
    assert nodes.counts[nodes.feature < 0].sum(axis=1).tolist() == [2, 2]
    assert rf.predict_labels(forest, X) == y


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_leaf_holds_training_rows(seed):
    """Columns of a few neighbouring doubles, where midpoints round, next to
    ordinary ones: no split may leave a child empty."""
    rng = np.random.default_rng(seed)
    X, y = random_dataset(rng, n_max=60, d_max=4)
    X[:, 0] = 1.0 + rng.integers(0, 4, len(X)) * np.spacing(1.0)
    forest = rf.train(X, y, rf.TrainParams(
        n_trees=3, max_depth=8, min_leaf=int(rng.integers(1, 3)), seed=seed))
    leaves = forest.nodes.counts[forest.nodes.feature < 0]
    assert (leaves.sum(axis=1) > 0).all()


def test_training_fit_on_separable_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-5, 0.5, size=(50, 3)),
                        rng.normal(5, 0.5, size=(50, 3))])
    y = ["neg"] * 50 + ["pos"] * 50
    forest = rf.train(X, y, rf.TrainParams(n_trees=10, seed=0))
    assert rf.predict_labels(forest, X) == y


def test_min_leaf_respected():
    rng = np.random.default_rng(1)
    X, y = random_dataset(rng)
    forest = rf.train(X, y, rf.TrainParams(n_trees=3, min_leaf=5,
                                           bootstrap=False, seed=0))
    nodes = forest.nodes
    for node in range(len(nodes.feature)):
        if nodes.feature[node] < 0:
            assert int(np.sum(nodes.counts[node])) >= 5


def test_max_depth_respected():
    rng = np.random.default_rng(2)
    X, y = random_dataset(rng)
    forest = rf.train(X, y, rf.TrainParams(n_trees=3, max_depth=2, seed=0))
    nodes = forest.nodes
    ends = nodes.roots.tolist()[1:] + [len(nodes.feature)]
    for root, end in zip(nodes.roots.tolist(), ends):
        depth = {root: 0}
        for i in range(root, end):  # parents come before their children
            if nodes.feature[i] >= 0:
                depth[nodes.left[i]] = depth[i] + 1
                depth[nodes.right[i]] = depth[i] + 1
                assert depth[i] < 2


def test_determinism_same_seed():
    rng = np.random.default_rng(5)
    X, y = random_dataset(rng)
    a = rf.train(X, y, rf.TrainParams(n_trees=8, seed=11))
    b = rf.train(X, y, rf.TrainParams(n_trees=8, seed=11))
    assert rf.to_dict(a) == rf.to_dict(b)
    c = rf.train(X, y, rf.TrainParams(n_trees=8, seed=12))
    assert rf.to_dict(a) != rf.to_dict(c)


def test_trained_forest_bytes_are_pinned():
    """A seeded forest saves to the same bytes as when this test was
    written: node order, ids, splits, codes, counts and importances."""
    rng = np.random.default_rng(8)
    n = 90
    X = np.column_stack([rng.integers(0, 5, n), rng.integers(-3, 3, n),
                         rng.integers(0, 2, n),
                         rng.choice([-1.5, 4.0, 7.25, 30.0], n)]).astype(float)
    y = [f"c{int(v) % 3}" for v in X[:, 0] + X[:, 3] + rng.integers(0, 2, n)]
    forest = rf.train(X, y, rf.TrainParams(n_trees=6, max_depth=None,
                                           features_per_split=2,
                                           bootstrap=True, seed=19),
                      categorical={3})
    saved = json.dumps(rf.to_dict(forest), sort_keys=True).encode()
    assert hashlib.sha256(saved).hexdigest() == (
        "2e99802895bc3ed1bdab1af222d5c327c7486b35eacaaf3c1fc4e70d6f1eae9f")


def test_serialization_round_trip():
    rng = np.random.default_rng(6)
    X, y = random_dataset(rng)
    forest = rf.train(X, y, rf.TrainParams(n_trees=4, seed=2),
                      categorical=frozenset({0}), schema_id="test-v1")
    loaded = rf.from_dict(json.loads(json.dumps(rf.to_dict(forest))))
    assert loaded.classes == forest.classes
    assert loaded.categorical == forest.categorical
    assert loaded.schema_id == forest.schema_id
    assert loaded.params == forest.params
    for name in ("feature", "threshold", "left", "right", "roots", "counts",
                 "cat"):
        a, b = getattr(loaded.nodes, name), getattr(forest.nodes, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    assert len(loaded.nodes.cats_left) == len(forest.nodes.cats_left)
    for a, b in zip(loaded.nodes.cats_left, forest.nodes.cats_left):
        assert np.array_equal(a, b)
    assert np.array_equal(rf.predict_scores(loaded, X),
                          rf.predict_scores(forest, X))


def test_format_1_forest_is_refused():
    """The per-tree node lists of format 1 have no reader any more."""
    old = {"format_version": 1, "schema_id": "tiny-v1", "n_features": 1,
           "classes": ["a", "b"], "categorical": [],
           "params": {"n_trees": 1, "max_depth": None, "min_leaf": 1,
                      "features_per_split": None, "bootstrap": True,
                      "seed": 0},
           "importance_raw": [0.0],
           "trees": [[[-1, None, None, -1, -1, [3, 1]]]]}
    with pytest.raises(rf.ForestError, match="format version"):
        rf.from_dict(old)


# a forest saved in format 1 (per tree, [feature, threshold, cats_left, left,
# right, counts] per node) before the forest became flat arrays, written
# again in format 2, and the scores predict_scores gave in format 1 for
# _SAVED_ROWS; feature 0 is categorical, and the rows hold unseen codes and
# NaN
_SAVED_FOREST = (
    '{"categorical": [0], "classes": ["a", "b", "c"], "format_version": 2, '
    '"importance_raw": [0.09268416927899675, 0.21189171122994654, '
    '0.14879529932003704], "n_features": 3, "nodes": {"cat": [0, -1, -1, '
    '-1, -1, -1, -1, -1, -1, -1, -1, -1], "cats_left": [[15.0]], '
    '"feature": [0, 2, -1, -1, 2, -1, -1, 1, 1, -1, -1, -1], '
    '"leaf_counts": [[5, 3, 1], [0, 0, 2], [0, 22, 1], [4, 2, 0], [3, 10, '
    '4], [8, 1, 2], [0, 12, 0]], "left": [1, 2, -1, -1, 5, -1, -1, 8, 9, '
    '-1, -1, -1], "right": [4, 3, -1, -1, 6, -1, -1, 11, 10, -1, -1, -1], '
    '"roots": [0, 7], "threshold": [null, 2.2, null, null, 1.2, null, '
    'null, 2.15, 0.55, null, null, null]}, "params": {"bootstrap": true, '
    '"features_per_split": null, "max_depth": 2, "min_leaf": 1, "n_trees": '
    '2, "seed": 3}, "schema_id": "tiny-v1"}')
_SAVED_ROWS = [[15.0, 0.0, 0.0], [21.0, 3.0, 1.5], [-1.0, np.nan, 2.2],
                [22.5, 0.55, np.nan], [np.nan, 2.15, 1.2], [0.0, 0.6, 5.0]]
_SAVED_SCORES = [
    [0.36601307189542487, 0.4607843137254902, 0.17320261437908496],
    [0.3333333333333333, 0.6666666666666666, 0.0],
    [0.3333333333333333, 0.6666666666666666, 0.0],
    [0.4215686274509804, 0.4607843137254902, 0.11764705882352941],
    [0.36363636363636365, 0.5237154150197628, 0.11264822134387352],
    [0.696969696969697, 0.2121212121212121, 0.09090909090909091]]


def test_saved_forest_layout_round_trips_byte_for_byte():
    forest = rf.from_dict(json.loads(_SAVED_FOREST))
    assert json.dumps(rf.to_dict(forest), sort_keys=True) == _SAVED_FOREST
    assert rf.predict_scores(forest, _SAVED_ROWS).tolist() == _SAVED_SCORES


# (node field, index, value) corruptions of _SAVED_FOREST, each with a part
# of the refusal it must give
CORRUPTIONS = [
    ("left", 0, 0, "child id"),  # a cycle: the walk would never end
    ("left", 0, 10**6, "child id"),
    ("right", 0, 7, "child id"),  # into the second tree
    ("roots", 1, 0, "roots"),
    ("feature", 1, 3, "feature"),
    ("cat", 0, 1, "categorical"),
    ("threshold", 1, None, "threshold"),
    ("leaf_counts", 1, [0, 0, 0], "leaf_counts"),
    ("cats_left", 0, 15.0, "flat list"),
    ("feature", 1, 2**70, "malformed"),
]


@pytest.mark.parametrize("field, index, value, problem", CORRUPTIONS)
def test_corrupt_saved_forest_is_refused(field, index, value, problem):
    data = json.loads(_SAVED_FOREST)
    data["nodes"][field][index] = value
    with pytest.raises(rf.ForestError, match=problem):
        rf.from_dict(data)


def test_saved_forest_with_a_leaf_count_missing_is_refused():
    data = json.loads(_SAVED_FOREST)
    del data["nodes"]["leaf_counts"][-1]
    with pytest.raises(rf.ForestError, match="leaf_counts"):
        rf.from_dict(data)


def _small_edits(nodes: dict) -> list:
    """(field, new value) for one small edit of a saved forest's node
    lists: an id, feature, categorical index, root or class count moved by
    one, a list one entry longer or shorter or empty, the last root past
    the nodes, two rows of class counts of compensating widths, a row as a
    string."""
    edits = []
    for field in ("feature", "left", "right", "roots", "cat"):
        for i in range(len(nodes[field])):
            for step in (-1, 1):
                value = list(nodes[field])
                value[i] += step
                edits.append((field, value))
    counts = nodes["leaf_counts"]
    for r, row in enumerate(counts):
        for j in range(len(row)):
            for step in (-1, 1):
                value = [list(c) for c in counts]
                value[r][j] += step
                edits.append(("leaf_counts", value))
    for field, value in nodes.items():
        edits += [(field, value + value[-1:]), (field, value[:-1]),
                  (field, [])]
    return edits + [
        ("roots", nodes["roots"][:-1] + [len(nodes["feature"])]),
        ("leaf_counts", [counts[0][:-1], counts[1] + counts[0][-1:],
                         *counts[2:]]),
        ("leaf_counts", ["".join(map(str, counts[0])), *counts[1:]])]


def test_every_small_edit_loads_as_the_reference_loads_it():
    """_SAVED_FOREST between two other forests, with one small edit of its
    node lists, loads as the one-forest reference loads it alone: the same
    arrays, or a refusal of that forest with the same message."""
    rng = np.random.default_rng(3)
    X, y = random_dataset(rng)
    around = [rf.to_dict(rf.train(X, y, rf.TrainParams(n_trees=2, seed=s)))
              for s in (0, 1)]
    refused = 0
    for field, value in _small_edits(json.loads(_SAVED_FOREST)["nodes"]):
        data = json.loads(_SAVED_FOREST)
        data["nodes"][field] = value
        try:
            want = reference_forest_from_dict(data)
        except rf.ForestError as exc:
            refused += 1
            with pytest.raises(rf.ForestError) as got:
                rf.from_dicts([around[0], data, around[1]])
            assert (got.value.forest, str(got.value)) == (1, str(exc))
            continue
        assert_same_forest(rf.from_dicts([around[0], data, around[1]])[1],
                           want)
    assert refused > 60


def test_a_forest_without_nodes_is_refused_as_the_reference_refuses_it():
    """A forest whose node lists are all empty has no tree to score with:
    it is refused alone and between two other forests, with the
    reference loader's message."""
    data = json.loads(_SAVED_FOREST)
    data["nodes"] = dict.fromkeys(data["nodes"], [])
    with pytest.raises(rf.ForestError) as want:
        reference_forest_from_dict(data)
    with pytest.raises(rf.ForestError) as alone:
        rf.from_dict(data)
    with pytest.raises(rf.ForestError) as among:
        rf.from_dicts([json.loads(_SAVED_FOREST), data,
                       json.loads(_SAVED_FOREST)])
    assert str(alone.value) == str(want.value)
    assert (among.value.forest, str(among.value)) == (1, str(want.value))


def test_stacked_call_equals_each_forest():
    """One call over several forests (2, 3 and 4 classes) equals each
    forest's own call, row for row and bit for bit, including categorical
    codes never seen in training."""
    rng = np.random.default_rng(12)
    n = 150
    X = np.round(rng.normal(size=(n, 5)) * 3, 1)
    X[:, 0] = rng.integers(0, 3, n) * 7.5  # categorical codes 0, 7.5, 15
    forests = []
    for k in (2, 3, 4):
        y = [f"c{int(v)}" for v in (X[:, 0] / 7.5 + (X[:, 1] > 0)
                                    + rng.integers(0, 2, n)) % k]
        forests.append(rf.train(X, y, rf.TrainParams(n_trees=4, seed=k),
                                categorical=frozenset({0})))
    Xt = np.round(rng.normal(size=(60, 5)) * 3, 1)
    Xt[:, 0] = rng.choice([0.0, 7.5, 15.0, 21.0, -1.0, 22.5, np.nan], 60)
    Xt[::7, 2] = np.nan
    which = rng.integers(0, len(forests), 60)
    stack = rf.Stack(forests)
    stacked = rf.predict_compact(stack, stack.compact(Xt), which)
    assert stacked.shape == (60, 4)
    alone = [rf.predict_scores(f, Xt) for f in forests]
    for i, k in enumerate(which):
        K = forests[k].n_classes
        assert np.array_equal(stacked[i, :K], alone[k][i])
        assert not stacked[i, K:].any()


def scalar_scores(forests, x, k):
    """Forest k's scores for row x, one tree at a time: follow left/right
    from each root to a leaf, then average the leaves' class frequencies in
    tree order, padded to the widest of the forests."""
    width = max(f.n_classes for f in forests)
    forest = forests[k]
    nodes = forest.nodes
    total = np.zeros(width)
    for root in nodes.roots:
        node = root
        while nodes.feature[node] >= 0:
            v, c = x[nodes.feature[node]], nodes.cat[node]
            go_left = any(v == code for code in nodes.cats_left[c]) if c >= 0 \
                else v <= nodes.threshold[node]
            node = nodes.left[node] if go_left else nodes.right[node]
        counts = np.zeros(width, dtype=np.int64)
        counts[:forest.n_classes] = nodes.counts[node]
        total += counts / counts.sum()
    return total / forest.n_trees


def test_stacked_walk_matches_scalar_walk():
    """Every row scored for every forest of a stack (2, 3 and 4 classes,
    and a forest with a tree that is one leaf) equals the scalar walk bit
    for bit, with non-integer categorical codes, unseen codes and NaN in
    numeric and categorical columns."""
    rng = np.random.default_rng(14)
    n, codes = 120, [-1.25, 0.5, 7.5, 22.0]
    X = np.round(rng.normal(size=(n, 4)) * 3, 1)
    X[:, 0] = rng.choice(codes, n)
    forests = []
    for k in (2, 3, 4):
        signal = np.searchsorted(codes, X[:, 0]) + (X[:, 1] > 0)
        y = [f"c{int(v)}" for v in (signal + rng.integers(0, 2, n)) % k]
        forests.append(rf.train(X, y, rf.TrainParams(n_trees=5, seed=k),
                                categorical={0}))
    # one row of class b: most bootstrap draws miss it, leaving a lone leaf
    forests.append(rf.train(X, ["a"] * (n - 1) + ["b"],
                            rf.TrainParams(n_trees=5, seed=1),
                            categorical={0}))
    lone = forests[-1].nodes
    assert (lone.feature[lone.roots] < 0).any()
    assert (lone.feature[lone.roots] >= 0).any()
    stack = rf.Stack(forests)
    assert stack.codes is not None
    Xt = np.round(rng.normal(size=(40, 4)) * 3, 1)
    Xt[:, 0] = rng.choice(codes + [3.0, -1.0, np.nan], 40)
    Xt[::5, 1] = np.nan
    Xt[::7, 3] = np.nan
    rows = np.repeat(Xt, len(forests), axis=0)
    which = np.tile(np.arange(len(forests)), len(Xt))
    got = rf.predict_compact(stack, stack.compact(rows), which)
    for row, x, k in zip(got, rows, which):
        want = scalar_scores(forests, x, k)
        assert np.array_equal(row, want)
    for k, forest in enumerate(forests):
        alone = rf.predict_scores(forest, Xt)
        for row, x in zip(alone, Xt):
            assert np.array_equal(row, scalar_scores(forests, x, k)[
                :forest.n_classes])


@pytest.mark.parametrize("classes", [["a", "b", "a"], ["a", None, "c"],
                                     "abc"])
def test_saved_forest_with_unusable_classes_is_refused(classes):
    """Predictions index the class list, and None means no label."""
    data = json.loads(_SAVED_FOREST)
    data["classes"] = classes
    with pytest.raises(rf.ForestError, match="classes"):
        rf.from_dict(data)


def test_stack_needs_one_tree_count_and_pads_narrow_forests():
    """Unequal tree counts are refused.  Forests of different widths stack:
    rows padded to the widest forest score bit for bit as each forest
    scores them alone, whatever the padding holds, and a row narrower than
    a forest is refused."""
    rng = np.random.default_rng(13)
    X, y = random_dataset(rng, d_max=4)
    a = rf.train(X, y, rf.TrainParams(n_trees=3, seed=0))
    with pytest.raises(rf.ForestError):
        rf.Stack([a, rf.train(X, y, rf.TrainParams(n_trees=4, seed=0))])
    n, d = X.shape
    wide = np.hstack([X, np.round(rng.normal(size=(n, 3)) * 3, 1)])
    wide[:, d] = rng.integers(0, 3, n) * 7.5  # categorical codes
    y_wide = [f"c{int(v)}" for v in (wide[:, d] / 7.5 + (wide[:, -1] > 0))]
    b = rf.train(wide, y_wide, rf.TrainParams(n_trees=3, seed=1),
                 categorical=frozenset({0, d}))
    assert (b.nodes.feature >= d).any()
    stack = rf.Stack([a, b])
    assert stack.n_features == d + 3
    which = rng.integers(0, 2, n)
    rows = wide.copy()
    rows[which == 0, d:] = rng.choice([np.nan, -1e300, 7.5, 1e300],
                                      size=(int((which == 0).sum()), 3))
    stacked = rf.predict_compact(stack, stack.compact(rows), which)
    for k, (forest, own) in enumerate(((a, X), (b, wide))):
        mine = which == k
        assert np.array_equal(stacked[mine, :forest.n_classes],
                              rf.predict_scores(forest, own[mine]))
    with pytest.raises(rf.ForestError, match="schema mismatch"):
        rf.predict_scores(b, X)


def test_zero_rows_score_to_an_empty_array():
    rng = np.random.default_rng(15)
    X, y = random_dataset(rng, d_max=4)
    forest = rf.train(X, y, rf.TrainParams(n_trees=3, seed=0))
    empty = np.zeros((0, X.shape[1]))
    assert rf.predict_scores(forest, empty).shape == (0, forest.n_classes)
    assert rf.predict_labels(forest, empty) == []
    stack = rf.Stack([forest, forest])
    assert rf.predict_compact(stack, stack.compact(empty),
                              np.zeros(0, dtype=np.int64)).shape == \
        (0, forest.n_classes)


# features 1, 4 and 6 are categorical; numeric splits may read any feature
_D, _CATEGORICAL = 8, (1, 4, 6)
_CODES = (-1.25, 0.0, 7.5, 22.0)
# code sets drawn from a small pool, so tests repeat across trees and
# forests; (7.5, 0.0) and (0.0, 0.0, 7.5) are the test of (0.0, 7.5)
_CODE_SETS = ((0.0,), (0.0, 7.5), (7.5, 0.0), (0.0, 0.0, 7.5), (-1.25, 22.0),
              (22.0,), ())
_THRESHOLDS = (-3.0, -0.5, 0.0, 0.25, 7.5, 21.9)
_VALUES = (_CODES + _THRESHOLDS + (3.0, -1.0, 100.0, np.nan, np.inf, -np.inf)
           + tuple(np.nextafter(v, s) for v in _CODES + _THRESHOLDS
                   for s in (-np.inf, np.inf)))


def _random_tree(rng, kind, n_classes, max_depth):
    """One tree as ``Nodes``, depth-first and left child first: splits of
    ``kind`` ("numeric", "categorical" or "mixed"; "leaves" has none) down
    to ``max_depth``, and a random positive count at each leaf."""
    feature, threshold, right, cat, counts, cats_left = [], [], [], [], [], []

    def grow(depth):
        node = len(feature)
        right.append(-1)
        if kind == "leaves" or depth == max_depth or rng.random() < 0.25:
            feature.append(-1)
            threshold.append(np.nan)
            cat.append(-1)
            leaf = rng.integers(0, 3, n_classes)
            leaf[rng.integers(n_classes)] += 1
            counts.append(leaf)
            return
        if kind == "categorical" or (kind == "mixed" and rng.random() < 0.5):
            feature.append(int(rng.choice(_CATEGORICAL)))
            threshold.append(np.nan)
            cat.append(len(cats_left))
            cats_left.append(np.array(
                _CODE_SETS[rng.integers(len(_CODE_SETS))], dtype=np.float64))
        else:
            feature.append(int(rng.integers(_D)))
            threshold.append(float(rng.choice(_THRESHOLDS)))
            cat.append(-1)
        counts.append(np.zeros(n_classes, dtype=np.int64))
        grow(depth + 1)
        right[node] = len(feature)
        grow(depth + 1)

    grow(0)
    feature = np.array(feature)
    return rf.Nodes(feature=feature, threshold=np.array(threshold),
                    left=np.where(feature >= 0, np.arange(feature.size) + 1,
                                  -1),
                    right=np.array(right), roots=np.zeros(1, np.int64),
                    counts=np.array(counts, dtype=np.int64),
                    cat=np.array(cat), cats_left=cats_left)


def _test_of(nodes, node):
    codes = nodes.cats_left[nodes.cat[node]]
    return int(nodes.feature[node]), frozenset(codes.tolist())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.sampled_from(["numeric", "categorical", "mixed", "leaves"]),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=4))
def test_random_stacks_match_the_scalar_walk(seed, kinds, n_trees):
    """Stacks of hand-built forests (numeric-only, categorical-only, mixed
    and leaves-only, with membership tests repeated across trees and
    forests) score every row as the scalar walk does, bit for bit, on rows
    of codes, unseen codes, values next to a code or threshold, NaN and
    ±inf; and the stack holds one membership column per distinct (feature,
    code set) test, which each categorical split reads."""
    rng = np.random.default_rng(seed)
    forests = []
    for kind in kinds:
        K = int(rng.integers(1, 5))
        forests.append(rf.Forest(
            classes=[f"c{k}" for k in range(K)], schema_id="random",
            n_features=_D, categorical=frozenset(_CATEGORICAL),
            params=rf.TrainParams(n_trees=n_trees),
            importance_raw=np.zeros(_D),
            nodes=rf.Nodes.concat([_random_tree(rng, kind, K, 4)
                                   for _ in range(n_trees)])))
    stack = rf.Stack(forests)

    n_columns = stack.columns.size
    tests = [(int(f), frozenset(c[~np.isnan(c)].tolist())) for f, c in zip(
        stack.gather[n_columns:],
        stack.codes if stack.codes is not None else [])]
    base, wanted = 0, set()
    for forest in forests:
        nodes = forest.nodes
        for node in np.flatnonzero(nodes.cat >= 0).tolist():
            wanted.add(_test_of(nodes, node))
            assert stack.threshold[2 * (base + node)] == 0.5
            assert tests[stack.feature[2 * (base + node)] - n_columns] == \
                _test_of(nodes, node)
        numeric = np.flatnonzero((nodes.feature >= 0) & (nodes.cat < 0))
        slots = 2 * (base + numeric)
        assert np.array_equal(stack.columns[stack.feature[slots]],
                              nodes.feature[numeric])
        base += nodes.feature.size
    assert len(tests) == len(set(tests)) and set(tests) == wanted

    n = 30
    X = rng.choice(_VALUES, size=(n, _D))
    which = rng.integers(0, len(forests), n)
    got = rf.predict_compact(stack, stack.compact(X), which)
    for row, x, k in zip(got, X, which):
        assert np.array_equal(row, scalar_scores(forests, x, k))


def test_gini_importance_identifies_signal_feature():
    rng = np.random.default_rng(8)
    n = 300
    X = rng.normal(size=(n, 6))
    y = ["a" if v > 0 else "b" for v in X[:, 4]]
    forest = rf.train(X, y, rf.TrainParams(n_trees=10, seed=0))
    imp = rf.gini_importance(forest)
    assert imp.shape == (6,)
    assert imp[4] == imp.max()
    assert imp.sum() == pytest.approx(1.0)


def test_single_class_training():
    X = np.zeros((10, 2))
    forest = rf.train(X, ["only"] * 10, rf.TrainParams(n_trees=2, seed=0))
    assert not rf.forest_has_splits(forest)
    assert rf.predict_labels(forest, X) == ["only"] * 10


def test_resolved_mtry_clamped():
    p = rf.TrainParams(features_per_split=120)
    assert p.resolved_mtry(20) == 20
    assert rf.TrainParams().resolved_mtry(100) == 10
    assert rf.TrainParams(features_per_split=3).resolved_mtry(8) == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_predict_scores_are_distributions(seed):
    rng = np.random.default_rng(seed)
    X, y = random_dataset(rng, n_max=60, d_max=4)
    forest = rf.train(X, y, rf.TrainParams(n_trees=3, seed=seed))
    scores = rf.predict_scores(forest, X)
    assert scores.shape == (len(X), len(forest.classes))
    assert np.all(scores >= 0)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

"""Random forest training, prediction, and serialization oracles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass import forest as rf

from helpers import random_dataset


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
    """``rf._best_split`` one column at a time: the first column whose best
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


def test_batched_search_matches_scalar_oracle(monkeypatch):
    """Whole forests trained with the batched split search and with the
    scalar one are equal in their saved form: splits, thresholds, codes,
    node ids, counts and importances."""
    rng = np.random.default_rng(21)
    cases = itertools.product((2, 3, 5), (1, 2, 3), (True, False), (None, 1))
    trained = []
    for k, min_leaf, bootstrap, max_depth in cases:
        X, y = _oracle_dataset(rng, k, n_codes=2 if k == 2 else 5)
        params = rf.TrainParams(n_trees=3, max_depth=max_depth,
                                min_leaf=min_leaf, features_per_split=3,
                                bootstrap=bootstrap, seed=int(rng.integers(99)))
        trained.append((X, y, params))
    batched = [json.dumps(rf.to_dict(rf.train(X, y, p, categorical={3, 4})))
               for X, y, p in trained]
    monkeypatch.setattr(rf, "_best_split", scalar_best_split)
    for (X, y, p), saved in zip(trained, batched):
        assert json.dumps(rf.to_dict(rf.train(X, y, p,
                                              categorical={3, 4}))) == saved


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


@pytest.mark.parametrize("field, index, value, problem", [
    ("left", 0, 0, "child id"),  # a cycle: the walk would never end
    ("left", 0, 10**6, "child id"),
    ("right", 0, 7, "child id"),  # into the second tree
    ("roots", 1, 0, "roots"),
    ("feature", 1, 3, "feature"),
    ("cat", 0, 1, "categorical"),
    ("threshold", 1, None, "threshold"),
    ("leaf_counts", 1, [0, 0, 0], "leaf_counts"),
])
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
    stacked = rf.predict_scores(rf.Stack(forests), Xt, which)
    assert stacked.shape == (60, 4)
    alone = [rf.predict_scores(f, Xt) for f in forests]
    for i, k in enumerate(which):
        K = forests[k].n_classes
        assert np.array_equal(stacked[i, :K], alone[k][i])
        assert not stacked[i, K:].any()


def test_stack_needs_one_width_and_tree_count():
    rng = np.random.default_rng(13)
    X, y = random_dataset(rng, d_max=4)
    a = rf.train(X, y, rf.TrainParams(n_trees=3, seed=0))
    with pytest.raises(rf.ForestError):
        rf.Stack([a, rf.train(X, y, rf.TrainParams(n_trees=4, seed=0))])
    with pytest.raises(rf.ForestError):
        rf.Stack([a, rf.train(np.hstack([X, X]), y,
                              rf.TrainParams(n_trees=3, seed=0))])


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

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


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    X, y = random_dataset(rng)
    forest = rf.train(X, y, rf.TrainParams(n_trees=4, seed=2),
                      categorical=frozenset({0}), schema_id="test-v1")
    path = str(tmp_path / "forest.json")
    rf.save(forest, path)
    loaded = rf.load(path)
    assert loaded.classes == forest.classes
    assert loaded.categorical == forest.categorical
    assert loaded.schema_id == forest.schema_id
    np.testing.assert_allclose(rf.predict_scores(loaded, X),
                               rf.predict_scores(forest, X))


# a forest saved in the JSON layout (per tree, [feature, threshold,
# cats_left, left, right, counts] per node) before the forest became flat
# arrays, and the scores predict_scores gave then for _SAVED_ROWS; feature 0
# is categorical, and the rows hold unseen codes and NaN
_SAVED_FOREST = (
    '{"categorical": [0], "classes": ["a", "b", "c"], "format_version": 1, '
    '"importance_raw": [0.09268416927899675, 0.21189171122994654, '
    '0.14879529932003704], "n_features": 3, "params": {"bootstrap": true, '
    '"features_per_split": null, "max_depth": 2, "min_leaf": 1, "n_trees": 2, '
    '"seed": 3}, "schema_id": "tiny-v1", "trees": [[[0, null, [15.0], 1, 4, '
    'null], [2, 2.2, null, 2, 3, null], [-1, null, null, -1, -1, [5, 3, 1]], '
    '[-1, null, null, -1, -1, [0, 0, 2]], [2, 1.2, null, 5, 6, null], '
    '[-1, null, null, -1, -1, [0, 22, 1]], [-1, null, null, -1, -1, '
    '[4, 2, 0]]], [[1, 2.15, null, 1, 4, null], [1, 0.55, null, 2, 3, null], '
    '[-1, null, null, -1, -1, [3, 10, 4]], [-1, null, null, -1, -1, '
    '[8, 1, 2]], [-1, null, null, -1, -1, [0, 12, 0]]]]}')
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

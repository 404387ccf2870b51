"""Iterative semantics classification: contexts, gating, and training."""

import json

import numpy as np
import pytest

from httpglass.corpus import SynthSpec, split_dataset, synthesize_corpus
from httpglass.forest import TrainParams
from httpglass.inference import (DEFAULT_PARAMS, TOR_WINDOW, InferenceError,
                                 aggregate_predictions,
                                 build_enhanced_features, bundle_from_dict,
                                 bundle_to_dict, classify_alp,
                                 classify_connection, classify_corpus,
                                 indicator_layout, indicator_vector,
                                 load_bundle, save_bundle,
                                 single_pass_classify, tor_enhanced_window,
                                 train_bundle)
from httpglass.registry import (ABSENT, OTHER, PRESENT, Side,
                                enhanced_length, registry)

PROBS_H1 = registry("http1")
PARAMS_FAST = TrainParams(n_trees=8, max_depth=10, min_leaf=2)


def _layout_offset(problems, pid):
    return {p: (off, labels) for p, off, labels in
            indicator_layout(problems)}[pid]


class TestIndicators:
    def test_layout_is_contiguous_registry_order(self):
        layout = indicator_layout(PROBS_H1)
        assert [pid for pid, _, _ in layout] == [p.id for p in PROBS_H1]
        off = 0
        for pid, o, labels in layout:
            assert o == off
            off += len(labels)
        assert off == enhanced_length(PROBS_H1) == 58

    def test_vector_one_hot(self):
        labels = {"request.method": "POST", "request.cookie": PRESENT}
        v = indicator_vector(PROBS_H1, labels)
        assert v.sum() == 2.0
        off, lset = _layout_offset(PROBS_H1, "request.method")
        assert v[off + lset.index("POST")] == 1.0
        off, lset = _layout_offset(PROBS_H1, "request.cookie")
        assert v[off + lset.index(PRESENT)] == 1.0

    def test_other_contributes_zero(self):
        v = indicator_vector(PROBS_H1, {"request.method": OTHER,
                                        "response.server": "no-such"})
        assert v.sum() == 0.0


class TestEnhancedFeatures:
    def test_referer_worked_example(self):
        """Seven requests; four of the six non-target carry Referer.  The
        target's Referer subcomponent must be exactly [2, 4]."""
        vecs = []
        for i in range(7):
            labels = {"request.method": "GET",
                      "request.referer": PRESENT if i < 4 else ABSENT}
            vecs.append(indicator_vector(PROBS_H1, labels))
        target = 5  # an absent-Referer request
        ctx = build_enhanced_features(PROBS_H1, vecs, target,
                                      "request.referer")
        off, lset = _layout_offset(PROBS_H1, "request.referer")
        assert ctx[off:off + 2].tolist() == [2.0, 4.0]
        # other problems keep the full 7-record sum
        moff, mlset = _layout_offset(PROBS_H1, "request.method")
        assert ctx[moff + mlset.index("GET")] == 7.0

    def test_exclude_whole_record(self):
        vecs = [indicator_vector(PROBS_H1, {"request.method": "GET",
                                            "request.cookie": PRESENT})
                for _ in range(3)]
        ctx = build_enhanced_features(PROBS_H1, vecs, 1, "request.method",
                                      exclude_whole_record=True)
        moff, mlset = _layout_offset(PROBS_H1, "request.method")
        coff, clset = _layout_offset(PROBS_H1, "request.cookie")
        assert ctx[moff + mlset.index("GET")] == 2.0
        assert ctx[coff + clset.index(PRESENT)] == 2.0

    def test_window_restriction(self):
        vecs = [indicator_vector(PROBS_H1, {"request.method": "GET"})
                for _ in range(20)]
        ctx = build_enhanced_features(PROBS_H1, vecs, 10, "request.cookie",
                                      window=(8, 12))
        moff, mlset = _layout_offset(PROBS_H1, "request.method")
        assert ctx[moff + mlset.index("GET")] == 5.0

    def test_target_outside_window_not_subtracted(self):
        vecs = [indicator_vector(PROBS_H1, {"request.method": "GET"})
                for _ in range(10)]
        ctx = build_enhanced_features(PROBS_H1, vecs, 0, "request.method",
                                      window=(5, 9))
        moff, mlset = _layout_offset(PROBS_H1, "request.method")
        assert ctx[moff + mlset.index("GET")] == 5.0

    def test_width(self):
        vecs = [np.zeros(enhanced_length(PROBS_H1))]
        ctx = build_enhanced_features(PROBS_H1, vecs, 0, "request.method")
        assert ctx.shape == (58,)


class TestTorWindow:
    def test_interior(self):
        assert tor_enhanced_window(100, 50) == (45, 55)

    def test_edges(self):
        assert tor_enhanced_window(100, 2) == (0, 7)
        assert tor_enhanced_window(100, 98) == (93, 99)
        assert tor_enhanced_window(3, 0) == (0, 2)

    def test_radius_constant(self):
        assert TOR_WINDOW == 5


@pytest.fixture(scope="module")
def small_world():
    """A small trained bundle plus its train/test corpora."""
    spec = SynthSpec(seed=21, n_connections=60,
                     protocol_mix={"http1": 0.5, "http2": 0.5},
                     transactions_range=(1, 3))
    corpus = synthesize_corpus(spec)
    train, test = split_dataset(corpus, policy="by_fraction", fraction=0.7,
                                seed=0)
    bundle = train_bundle(train, params=PARAMS_FAST, seed=0)
    return bundle, train, test


class TestClassification:
    def test_alpn_decides_protocol(self, small_world):
        bundle, _, test = small_world
        for lc in test:
            if lc.conn.handshake.alpn_selected is not None:
                assert classify_alp(bundle, lc.conn) == lc.protocol

    def test_message_type_and_side_gating(self, small_world):
        bundle, _, test = small_world
        for lc in test[:8]:
            res = classify_connection(bundle, lc.conn)
            probs = {p.id: p for p in registry(res.protocol)}
            for rp in res.records:
                rec = lc.conn.records[rp.index]
                if not rp.message_type:
                    assert rp.labels == {}
                    continue
                for pid in rp.labels:
                    side = probs[pid].side
                    expected = Side.CLIENT if rec.direction == 0 else Side.SERVER
                    assert side == expected

    def test_non_app_records_never_headers(self, small_world):
        bundle, _, test = small_world
        for lc in test[:8]:
            res = classify_connection(bundle, lc.conn)
            for rp in res.records:
                if lc.conn.records[rp.index].type_code != 23:
                    assert not rp.message_type

    def test_single_pass_is_iteration_one(self, small_world):
        bundle, _, test = small_world
        res = single_pass_classify(bundle, test[0].conn)
        assert res.iterations == 1

    def test_iterations_bounded_and_converged_flag(self, small_world):
        bundle, _, test = small_world
        for lc in test:
            res = classify_connection(bundle, lc.conn, max_iters=10)
            assert 1 <= res.iterations <= 10
            if res.iterations < 10:
                assert res.converged

    def test_classify_corpus_matches_per_connection(self, small_world):
        bundle, _, test = small_world
        conns = [lc.conn for lc in test[:5]]
        batch = classify_corpus(bundle, conns, max_iters=10)
        for conn, got in zip(conns, batch):
            solo = classify_connection(bundle, conn, max_iters=10)
            assert got.protocol == solo.protocol
            assert [(r.index, r.message_type, r.labels) for r in got.records] \
                == [(r.index, r.message_type, r.labels) for r in solo.records]

    def test_aggregate_predictions_counts(self, small_world):
        bundle, _, test = small_world
        lc = test[0]
        res = classify_connection(bundle, lc.conn)
        probs = registry("http1")
        agg = aggregate_predictions(probs, res)
        assert agg.shape == (58,)
        n_pred_headers = sum(1 for r in res.records if r.message_type)
        # every header contributes at most one indicator per problem
        assert agg.sum() <= n_pred_headers * len(probs)


class TestTraining:
    def test_bundle_modes_and_schema(self, small_world):
        bundle, _, _ = small_world
        assert bundle.mode == "standard"
        assert bundle.base_schema() == "record-v1-standard"
        tor = train_bundle(synthesize_corpus(
            SynthSpec(seed=22, n_connections=20,
                      protocol_mix={"http1": 1.0})), mode="tor",
            params=PARAMS_FAST, seed=0)
        assert tor.base_schema() == "record-v1-tor"

    def test_single_protocol_has_no_fallback(self):
        corpus = synthesize_corpus(SynthSpec(
            seed=23, n_connections=15, protocol_mix={"http1": 1.0}))
        bundle = train_bundle(corpus, params=PARAMS_FAST, seed=0)
        assert bundle.alp_fallback is None
        assert bundle.default_protocol == "http1"
        # the unseen protocol keeps an empty placeholder entry
        assert bundle.models["http2"].message_type is None
        assert not bundle.models["http2"].single
        assert bundle.models["http1"].single

    def test_training_determinism(self):
        corpus = synthesize_corpus(SynthSpec(seed=24, n_connections=15,
                                             protocol_mix={"http1": 1.0}))
        a = train_bundle(corpus, params=PARAMS_FAST, seed=5)
        b = train_bundle(corpus, params=PARAMS_FAST, seed=5)
        assert bundle_to_dict(a) == bundle_to_dict(b)
        c = train_bundle(corpus, params=PARAMS_FAST, seed=6)
        assert bundle_to_dict(a) != bundle_to_dict(c)

    def test_ground_truth_context_option(self):
        corpus = synthesize_corpus(SynthSpec(seed=25, n_connections=15,
                                             protocol_mix={"http1": 1.0}))
        bundle = train_bundle(corpus, params=PARAMS_FAST, seed=0,
                              context_source="ground_truth")
        assert bundle.models["http1"].enhanced

    def test_bundle_round_trip(self, small_world, tmp_path):
        bundle, _, test = small_world
        path = str(tmp_path / "bundle.json")
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert bundle_to_dict(loaded) == bundle_to_dict(bundle)
        conn = test[0].conn
        a = classify_connection(bundle, conn)
        b = classify_connection(loaded, conn)
        assert [(r.message_type, r.labels) for r in a.records] == \
            [(r.message_type, r.labels) for r in b.records]


    def test_bundle_json_round_trips_byte_for_byte(self, small_world):
        bundle, _, _ = small_world
        text = json.dumps(bundle_to_dict(bundle), sort_keys=True)
        again = bundle_to_dict(bundle_from_dict(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text

    def test_flipped_mode_names_the_forest(self, small_world):
        bundle, _, _ = small_world
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        data["mode"] = "tor"
        with pytest.raises(InferenceError,
                           match=r"forest http\d\.message_type .*'tor'"):
            bundle_from_dict(data)
        data["mode"] = "standard"
        data["protocols"]["http1"]["single"]["request.method"]["n_features"] = 66
        with pytest.raises(InferenceError,
                           match=r"forest http1\.single\.request\.method "):
            bundle_from_dict(data)


class TestFixedPoint:
    def test_single_transaction_connections_converge(self):
        """With one transaction per connection the context is just the peer
        header; iteration must settle quickly and keep the message-type and
        protocol decisions from the first pass."""
        corpus = synthesize_corpus(SynthSpec(
            seed=26, n_connections=30, protocol_mix={"http1": 1.0},
            transactions_range=(1, 1)))
        train, test = split_dataset(corpus, policy="by_fraction",
                                    fraction=0.7, seed=0)
        bundle = train_bundle(train, params=PARAMS_FAST, seed=0)
        for lc in test:
            one = classify_connection(bundle, lc.conn, max_iters=1)
            many = classify_connection(bundle, lc.conn, max_iters=10)
            assert many.converged
            assert many.protocol == one.protocol
            assert [r.message_type for r in many.records] == \
                [r.message_type for r in one.records]

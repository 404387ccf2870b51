"""Iterative semantics classification: contexts, gating, and training."""

import copy
import hashlib
import itertools
import json
import re
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass import HttpglassError, forest as rf, inference
from httpglass.capture import Direction
from httpglass.corpus import (SynthSpec, load_corpus, save_corpus,
                              split_dataset, synthesize_corpus)
from httpglass.forest import TrainParams
from httpglass.features import record_table
from httpglass.inference import (DEFAULT_PARAMS, MAX_ITERS_DEFAULT,
                                 PROTOCOLS, TOR_WINDOW, InferenceError,
                                 aggregate_predictions, bundle_from_dict,
                                 bundle_to_dict, classify_corpus, load_bundle,
                                 save_bundle, train_bundle)
from httpglass.registry import ABSENT, OTHER, PRESENT, Layout, Side, registry

from helpers import (assert_same_bundle, bundle_forests,
                     reference_bundle_from_dict, reference_rows,
                     synthetic_connection)
from test_forest import _SAVED_FOREST, CORRUPTIONS

PROBS_H1 = registry("http1")
PARAMS_FAST = TrainParams(n_trees=8, max_depth=10, min_leaf=2)


def classify_connection(bundle, conn, max_iters=10):
    return classify_corpus(bundle, [conn], max_iters)[0]


def single_pass_classify(bundle, conn):
    """First-pass predictions only (no enhanced iterations)."""
    return classify_corpus(bundle, [conn], max_iters=1)[0]


def _outcome(res):
    return (res.protocol, res.iterations, res.converged,
            list(res.first_pass.items()), list(res.headers.items()))


def _tor_window(n_headers, pos):
    """Header-position bounds [lo, hi] of a Tor-mode context window."""
    return max(0, pos - TOR_WINDOW), min(n_headers - 1, pos + TOR_WINDOW)


def _context(vecs, pos, spans, window):
    """Context blocks of header ``pos`` by slice sums, one row per target
    span [start, end): the sum of ``vecs`` over the window [lo, hi] (all
    headers when None), less the header's own indicators in the span."""
    lo, hi = window if window is not None else (0, len(vecs) - 1)
    out = np.repeat(vecs[lo:hi + 1].sum(0)[None], len(spans), axis=0)
    for row, (start, end) in zip(out, spans):
        row[start:end] -= vecs[pos, start:end]
    return out


def stacked_scores(stack, X, which):
    """The scores of the rows of X, row i scored by forest ``which[i]`` of
    the stack."""
    return rf.predict_compact(stack, stack.compact(X),
                              np.asarray(which, dtype=np.int64))


def reference_passes(models, problems, block, members, max_iters):
    """The enhanced passes one (connection, model) job at a time: each
    connection's rows at a position are built from slice sums of its
    indicator vectors, every row is scored, and each label is applied in
    Python.  Run on one protocol's block by ``reference_classify``; the
    one loop of ``classify_corpus`` must give the same labels, pass counts
    and flags.

    Gives back how many of the rows scored could have had another outcome:
    a header's rows count when the labels in its window differ from those
    it saw at its last scoring, or when it was never scored."""
    enhanced = [p for p in problems if p.id in models.enhanced]
    layout = Layout(problems)
    spans = [layout.span[p.id] for p in enhanced]
    stack = rf.Stack([models.enhanced[p.id] for p in enhanced])
    by_sender = {code: [k for k, p in enumerate(enhanced)
                        if inference._SENDER[p.side] == code]
                 for code in inference._SENDER.values()}
    # each connection's header rows, and their indicator vectors kept apart
    heads = [range(at, at + n) for at, n in
             zip(block.start.tolist(), block.size.tolist())]
    vecs = [layout.vectors([block.labels[g] for g in rows]) for rows in heads]
    seen = {}  # (c, pos): the labels in the header's window at its scoring
    counted = 0

    def rows(c, pos, ks):
        nonlocal counted
        window = _tor_window(len(heads[c]), pos) if block.tor else None
        lo, hi = window or (0, len(heads[c]) - 1)
        now = [dict(block.labels[g]) for g in heads[c][lo:hi + 1]]
        if seen.get((c, pos)) != now:
            counted += len(ks)
        seen[c, pos] = now
        ctx = _context(vecs[c], pos, [spans[k] for k in ks], window)
        base = np.broadcast_to(block.base[heads[c][pos]],
                               (len(ks), block.base.shape[1]))
        return np.hstack([base, ctx])

    active = [c for c, s in enumerate(members) if not s.converged]
    while active:
        for c in active:
            members[c].converged = True
        for pos in range(max(len(heads[c]) for c in active)):
            jobs, blocks = [], []
            for c in active:
                if pos >= len(heads[c]):
                    continue
                ks = by_sender[int(block.direction[heads[c][pos]])]
                if ks:
                    jobs += [(c, k) for k in ks]
                    blocks.append(rows(c, pos, ks))
            if not jobs:
                continue
            scores = stacked_scores(stack, np.concatenate(blocks),
                                    [k for _, k in jobs])
            for (c, k), row in zip(jobs, scores):
                p = enhanced[k]
                model = models.enhanced[p.id]
                label = model.classes[int(row.argmax())]
                labels = block.labels[heads[c][pos]]
                current = labels.get(p.id)
                if current == label:
                    continue
                if current is not None:
                    cur_score = row[model.classes.index(current)] \
                        if current in model.classes else 0.0
                    if row.max() - cur_score <= inference.SWITCH_MARGIN:
                        continue
                labels[p.id] = label
                vecs[c][pos] = layout.vectors([labels])[0]
                members[c].converged = False
        for c in active:
            members[c].iterations += 1
        active = [c for c in active if not members[c].converged
                  and members[c].iterations < max_iters]
    return counted


def reference_classify(bundle, conns, max_iters):
    """``classify_corpus`` with the enhanced passes of ``reference_passes``,
    one protocol at a time, and the rows those count.  The first pass is
    ``classify_corpus``'s at max_iters=1; each protocol's headers then form
    a block of their own, whose label dicts are the results' own, so the
    passes label them in place."""
    results = classify_corpus(bundle, conns, max_iters=1)
    counted = 0
    for protocol in PROTOCOLS:
        picked = [c for c, res in enumerate(results)
                  if res.protocol == protocol]
        members = [results[c] for c in picked]
        if max_iters == 1 or all(res.converged for res in members):
            continue
        heads = [list(res.headers) for res in members]
        block = inference._Block(
            [conns[c] for c in picked], [protocol] * len(picked), heads,
            [record_table(conns[c], bundle.mode)[idx]
             for c, idx in zip(picked, heads)],
            [list(res.headers.values()) for res in members],
            bundle.mode == "tor")
        counted += reference_passes(bundle.models[protocol],
                                    bundle.problems[protocol], block, members,
                                    max_iters)
    return results, counted


def _header_block(label_lists, tor=False, problems=PROBS_H1):
    """A block of one client-sent header record per label dict, one
    connection per list, indexed as context with its own labels."""
    conns = [synthetic_connection([(100, 0)] * len(labs))
             for labs in label_lists]
    protocol = problems[0].protocol
    block = inference._Block(
        conns, [protocol] * len(conns),
        [list(range(len(labs))) for labs in label_lists],
        [record_table(conn, "tor" if tor else "standard") for conn in conns],
        label_lists, tor)
    block.context(block.labels, {protocol: Layout(problems)})
    return block


def _context_of(block, conn, pos, pid, problems=PROBS_H1):
    """The context block of header ``pos`` of connection ``conn`` as the
    ``pid`` model reads it, from the reference row builder."""
    layout = Layout(problems)
    g = np.array([block.start[conn] + pos])
    row = reference_rows(block, g, np.array([0]), layout.mask(pid)[None])[0]
    assert row.shape == (block.base.shape[1] + layout.width,)
    return row[block.base.shape[1]:]


@pytest.mark.parametrize("tor", [False, True])
def test_block_addresses_rows_by_protocol_and_side(tor):
    """Two http1 and two http2 connections with client and server headers:
    ``sent(p)`` is exactly the rows p's side sends in p's protocol, and
    ``context`` lays each header out in its own protocol's layout, zero
    past that layout's width and on the padding rows."""
    protocols = ["http1", "http2", "http2", "http1"]
    problems = {protocol: registry(protocol) for protocol in PROTOCOLS}
    layouts = {protocol: Layout(problems[protocol]) for protocol in PROTOCOLS}
    sender = {Side.CLIENT: Direction.CLIENT_TO_SERVER,
              Side.SERVER: Direction.SERVER_TO_CLIENT}
    conns, label_lists = [], []
    for c, protocol in enumerate(protocols):
        directions = [Direction.CLIENT_TO_SERVER,
                      Direction.SERVER_TO_CLIENT] * (c + 1)
        conns.append(synthetic_connection(
            [(100 + 7 * i, d) for i, d in enumerate(directions)]))
        label_lists.append([{p.id: p.labels[(c + i) % len(p.labels)]
                             for p in problems[protocol]
                             if sender[p.side] == d}
                            for i, d in enumerate(directions)])
    mode = "tor" if tor else "standard"
    block = inference._Block(
        conns, protocols, [list(range(len(labs))) for labs in label_lists],
        [record_table(conn, mode) for conn in conns], label_lists, tor)
    heads = np.flatnonzero(block.conn >= 0).tolist()
    assert len(heads) == 20
    for protocol in PROTOCOLS:
        for p in problems[protocol]:
            assert block.sent(p).tolist() == [
                g for g in heads if protocols[block.conn[g]] == protocol
                and conns[block.conn[g]].records[block.index[g]].direction
                == sender[p.side]]
    block.context(block.labels, layouts)
    width = max(layout.width for layout in layouts.values())
    # and a scratch column, zero until the passes move a label outside its
    # layout
    assert block.vecs.shape == (len(block.labels), width + 1)
    for g in heads:
        layout = layouts[protocols[block.conn[g]]]
        vec = layout.vectors([label_lists[block.conn[g]][block.index[g]]])[0]
        assert block.vecs[g].tolist() == \
            vec.tolist() + [0.0] * (width + 1 - layout.width)
    padding = block.conn < 0
    assert padding.sum() == (len(conns) + 1) * TOR_WINDOW
    assert not block.vecs[padding].any()


class TestIndicators:
    def test_layout_is_contiguous_registry_order(self):
        layout = Layout(PROBS_H1)
        assert list(layout.span) == [p.id for p in PROBS_H1]
        off = 0
        for p in PROBS_H1:
            assert layout.span[p.id] == (off, off + len(p.labels))
            assert [layout.column[p.id, label] for label in p.labels] == \
                list(range(off, off + len(p.labels)))
            off += len(p.labels)
        assert off == layout.width == 58
        assert layout.names() == [f"semantics[{p.id}={label}]"
                                  for p in PROBS_H1 for label in p.labels]

    def test_vector_one_hot(self):
        layout = Layout(PROBS_H1)
        v = layout.vectors([{"request.method": "POST",
                             "request.cookie": PRESENT}])[0]
        assert v.sum() == 2.0
        assert v[layout.column["request.method", "POST"]] == 1.0
        assert v[layout.column["request.cookie", PRESENT]] == 1.0

    def test_other_contributes_zero(self):
        v = Layout(PROBS_H1).vectors([{"request.method": OTHER,
                                       "response.server": "no-such"}])[0]
        assert v.sum() == 0.0


class TestEnhancedFeatures:
    def test_referer_worked_example(self):
        """Seven requests; four of the six non-target carry Referer.  The
        target's Referer subcomponent must be exactly [2, 4]."""
        labels = [{"request.method": "GET",
                   "request.referer": PRESENT if i < 4 else ABSENT}
                  for i in range(7)]
        ctx = _context_of(_header_block([labels]), 0, 5, "request.referer")
        layout = Layout(PROBS_H1)
        assert ctx[slice(*layout.span["request.referer"])].tolist() == \
            [2.0, 4.0]
        # other problems keep the full 7-record sum
        assert ctx[layout.column["request.method", "GET"]] == 7.0

    def test_standard_context_is_the_connection_total(self):
        """A second connection's headers never enter the context."""
        block = _header_block([[{"request.method": "GET"}] * 3,
                               [{"request.method": "POST"}] * 20])
        ctx = _context_of(block, 0, 1, "request.cookie")
        layout = Layout(PROBS_H1)
        assert ctx[layout.column["request.method", "GET"]] == 3.0
        assert ctx.sum() == 3.0

    def test_window_restriction(self):
        assert _tor_gets(20, 10) == 11

    def test_width(self):
        block = _header_block([[{}]])
        assert _context_of(block, 0, 0, "request.method").tolist() == \
            [0.0] * 58


def _tor_gets(n, pos):
    """The GET count in the Tor-mode context of header ``pos`` of a
    connection of ``n`` GET requests, as the request.cookie model reads it:
    the headers within TOR_WINDOW of the target, clipped at the ends."""
    block = _header_block([[{"request.method": "GET"}] * n], tor=True)
    ctx = _context_of(block, 0, pos, "request.cookie")
    return ctx[Layout(PROBS_H1).column["request.method", "GET"]]


class TestTorWindow:
    def test_interior(self):
        assert _tor_gets(100, 50) == 11

    def test_edges(self):
        assert _tor_gets(100, 2) == 8
        assert _tor_gets(100, 98) == 7
        assert _tor_gets(3, 0) == 3

    def test_window_stops_at_the_connection(self):
        block = _header_block([[{"request.method": "GET"}] * 2,
                               [{"request.method": "POST"}] * 2,
                               [{"request.method": "GET"}] * 2], tor=True)
        ctx = _context_of(block, 1, 0, "request.cookie")
        layout = Layout(PROBS_H1)
        assert ctx[layout.column["request.method", "POST"]] == 2.0
        assert ctx.sum() == 2.0

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
                assert inference._protocols(bundle, [lc.conn])[0] == \
                    lc.protocol

    def test_protocol_fallback_is_one_call_per_corpus(self, small_world,
                                                      monkeypatch):
        """Every connection without a known ALPN is scored by one fallback
        call, and gets the protocol ``_protocols`` gives it alone."""
        bundle, _, test = small_world
        conns = [lc.conn for lc in test]
        unknown = [c for c in conns if c.handshake.alpn_selected is None]
        assert bundle.alp_fallback is not None and len(unknown) > 1
        rows, predict = [], rf.predict_labels

        def counted(forest, X):
            if forest is bundle.alp_fallback:
                rows.append(len(X))
            return predict(forest, X)

        monkeypatch.setattr(rf, "predict_labels", counted)
        results = classify_corpus(bundle, conns, max_iters=1)
        assert rows == [len(unknown)]
        assert [r.protocol for r in results] == \
            [inference._protocols(bundle, [c])[0] for c in conns]

    def test_message_type_and_side_gating(self, small_world):
        bundle, _, test = small_world
        for lc in test[:8]:
            res = classify_connection(bundle, lc.conn)
            probs = {p.id: p for p in registry(res.protocol)}
            for index, labels in res.headers.items():
                rec = lc.conn.records[index]
                for pid in labels:
                    side = probs[pid].side
                    expected = Side.CLIENT if rec.direction == 0 else Side.SERVER
                    assert side == expected

    def test_non_app_records_never_headers(self, small_world):
        bundle, _, test = small_world
        for lc in test[:8]:
            res = classify_connection(bundle, lc.conn)
            for index in res.headers:
                assert lc.conn.records[index].type_code == 23

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

    def test_converged_labels_are_a_fixed_point(self, small_world):
        """A connection that converged after n passes gets the same labels,
        pass count and flag with a limit of n and with a limit of n + 3; with
        a limit of n - 1 it gets the same labels unconverged, since its last
        pass moved none."""
        bundle, _, test = small_world
        conns = [lc.conn for lc in test]
        done = [(conn, res) for conn, res in
                zip(conns, classify_corpus(bundle, conns, max_iters=10))
                if res.converged]
        assert any(res.iterations >= 2 for _, res in done)
        for conn, res in done:
            n = res.iterations
            for limit, expected in ((n, (n, True)), (n + 3, (n, True)),
                                    (n - 1, (n - 1, False))):
                if limit < 1:
                    continue
                again = classify_connection(bundle, conn, max_iters=limit)
                assert (again.iterations, again.converged) == expected
                assert list(again.headers.items()) == \
                    list(res.headers.items())

    def test_classify_corpus_matches_per_connection(self, small_world):
        bundle, _, test = small_world
        conns = [lc.conn for lc in test[:5]]
        batch = classify_corpus(bundle, conns, max_iters=10)
        for conn, got in zip(conns, batch):
            solo = classify_connection(bundle, conn, max_iters=10)
            assert got.protocol == solo.protocol
            assert list(got.headers.items()) == list(solo.headers.items())

    def test_one_pass_converges_only_without_headers(self, small_world):
        """At max_iters=1 no enhanced pass runs, so a connection with headers
        has not converged; one without headers has nothing to iterate."""
        bundle, _, test = small_world
        assert all(bundle.models[p].enhanced for p in PROTOCOLS)
        conns = [lc.conn for lc in test]
        bare = replace(conns[0], records=conns[0].records[
            conns[0].records.type_code != 23])
        results = classify_corpus(bundle, conns + [bare], max_iters=1)
        has_headers = [bool(res.headers) for res in results]
        assert has_headers[-1] is False and sum(has_headers) >= 10
        for res, headers in zip(results, has_headers):
            assert res.iterations == 1
            assert res.converged is not headers

    def test_without_enhanced_models_every_connection_converges(
            self, small_world):
        _, train, test = small_world
        bundle = train_bundle(train, params=PARAMS_FAST, seed=0,
                              with_enhanced=False)
        for res in classify_corpus(bundle, [lc.conn for lc in test]):
            assert (res.iterations, res.converged) == (1, True)

    def test_protocols_are_classified_on_their_own(self, oracle_worlds,
                                                   monkeypatch):
        """A mixed corpus gets, record for record, the results each
        protocol's connections get alone, and scores as many rows in fewer
        stacked calls: one per header position, not one per protocol and
        position."""
        bundles, conns = oracle_worlds
        counted = _counting_stacked_calls(monkeypatch)
        for bundle in bundles:
            counted.append([0, 0])
            mixed = classify_corpus(bundle, conns)
            assert {res.protocol for res in mixed} == set(PROTOCOLS)
            counted.append([0, 0])
            for protocol in PROTOCOLS:
                picked = [(conn, res) for conn, res in zip(conns, mixed)
                          if res.protocol == protocol]
                alone = classify_corpus(bundle, [conn for conn, _ in picked])
                assert [_outcome(res) for res in alone] == \
                    [_outcome(res) for _, res in picked]
            (calls, rows), (calls_alone, rows_alone) = counted[-2:]
            assert calls < calls_alone and rows == rows_alone

    def test_aggregate_predictions_counts(self, small_world):
        bundle, _, test = small_world
        lc = test[0]
        res = classify_connection(bundle, lc.conn)
        probs = registry("http1")
        agg = aggregate_predictions(probs, res)
        assert agg.shape == (58,)
        n_pred_headers = len(res.headers)
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

    def test_labels_that_never_vary_train_no_problem_forest(self):
        """One connection of one transaction: every problem has a single
        label, so its protocol gets a message-type forest and nothing
        else."""
        corpus = synthesize_corpus(SynthSpec(
            seed=3, n_connections=1, protocol_mix={"http1": 1.0},
            transactions_range=(1, 1)))
        pm = train_bundle(corpus, params=PARAMS_FAST, seed=0).models["http1"]
        assert pm.message_type is not None
        assert not pm.single and not pm.enhanced

    def test_a_protocol_of_headers_only_keeps_its_message_types(self):
        """When every application record of a protocol is a header, its
        message-type forest has the one class 1: the bundle loads, and
        classification still finds that protocol's headers."""
        corpus = synthesize_corpus(SynthSpec(seed=3, n_connections=12,
                                             transactions_range=(1, 2)))
        app = {}
        for lc in corpus:
            app[lc.connection_id] = np.flatnonzero(
                lc.conn.records.type_code == 23).tolist()
            if lc.protocol == "http1":
                for lr in lc.records:
                    lr.message_type |= lr.index in app[lc.connection_id]
        bundle = bundle_from_dict(bundle_to_dict(
            train_bundle(corpus, params=PARAMS_FAST, seed=0)))
        assert bundle.models["http1"].message_type.classes == [1]
        results = classify_corpus(bundle, [lc.conn for lc in corpus], 1)
        http1 = [(lc, res) for lc, res in zip(corpus, results)
                 if res.protocol == "http1"]
        assert http1
        for lc, res in http1:
            assert list(res.headers) == app[lc.connection_id]

    def test_training_determinism(self):
        corpus = synthesize_corpus(SynthSpec(seed=24, n_connections=15,
                                             protocol_mix={"http1": 1.0}))
        a = train_bundle(corpus, params=PARAMS_FAST, seed=5)
        b = train_bundle(corpus, params=PARAMS_FAST, seed=5)
        assert bundle_to_dict(a) == bundle_to_dict(b)
        c = train_bundle(corpus, params=PARAMS_FAST, seed=6)
        assert bundle_to_dict(a) != bundle_to_dict(c)

    @pytest.mark.parametrize("mode, digest", [
        ("standard",
         "3d1ded68cb22515e30e58498c3c59822793a298cf127c1c2c92c3393e97f2b8f"),
        ("tor",
         "4e946b5fda0c69f8d4283698a8791018193dd446fddda38404d52ea4685af0a6"),
    ], ids=["standard", "tor"])
    def test_trained_bundle_bytes_are_pinned(self, mode, digest):
        """A seeded bundle of both protocols, with its ALPN fallback,
        cross-fitted context and enhanced models, saves to the same bytes."""
        corpus = synthesize_corpus(SynthSpec(
            seed=41, n_connections=20,
            protocol_mix={"http1": 0.5, "http2": 0.5},
            transactions_range=(1, 3)))
        bundle = train_bundle(corpus, mode=mode, params=TrainParams(
            n_trees=3, min_leaf=2), seed=7)
        assert bundle.alp_fallback is not None
        assert all(pm.enhanced for pm in bundle.models.values())
        saved = json.dumps(bundle_to_dict(bundle), sort_keys=True).encode()
        assert hashlib.sha256(saved).hexdigest() == digest

    @pytest.mark.parametrize("mode, mix", [
        ("standard", {"http1": 0.5, "http2": 0.5}),
        ("tor", {"http1": 0.5, "http2": 0.5}),
        ("standard", {"http1": 1.0}),
    ], ids=["standard", "tor", "no-fallback"])
    def test_saved_bytes_are_the_sorted_dump(self, tmp_path, mode, mix):
        """``save_bundle`` writes forest by forest the bytes of one sorted
        dump, with null forests and an unseen protocol's empty maps."""
        corpus = synthesize_corpus(SynthSpec(seed=42, n_connections=16,
                                             protocol_mix=mix,
                                             transactions_range=(1, 3)))
        bundle = train_bundle(corpus, mode=mode, params=TrainParams(
            n_trees=2, min_leaf=2), seed=3)
        assert (bundle.alp_fallback is None) == (len(mix) == 1)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, str(path))
        assert path.read_text() == json.dumps(bundle_to_dict(bundle),
                                              sort_keys=True)

    @pytest.mark.parametrize("mix", [{"http1": 0.5, "http2": 0.5},
                                     {"http1": 1.0}], ids=["mixed", "http1"])
    @pytest.mark.parametrize("include_etag", [False, True],
                             ids=["no-etag", "etag"])
    @pytest.mark.parametrize("mode", ["standard", "tor"])
    def test_every_trained_bundle_passes_the_loader(self, mode, include_etag,
                                                    mix):
        """The loader refuses every shape training never writes, so each
        bundle training writes must load back unchanged."""
        corpus = synthesize_corpus(SynthSpec(
            seed=43, n_connections=12, protocol_mix=mix,
            include_etag=include_etag, transactions_range=(1, 3)))
        bundle = train_bundle(corpus, mode=mode, params=TrainParams(
            n_trees=2, min_leaf=2), include_etag=include_etag, seed=1)
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        assert bundle_to_dict(bundle_from_dict(data)) == data

    @pytest.mark.parametrize("mix", [{"http1": 0.5, "http2": 0.5},
                                     {"http1": 1.0}], ids=["mixed", "http1"])
    @pytest.mark.parametrize("include_etag", [False, True],
                             ids=["no-etag", "etag"])
    @pytest.mark.parametrize("mode", ["standard", "tor"])
    def test_every_trained_bundle_loads_as_the_reference_loads_it(
            self, mode, include_etag, mix):
        """The bundle loaded as one node table equals the bundle loaded
        one forest at a time, array for array, and its forests' arrays are
        views into arrays the bundle's forests share."""
        corpus = synthesize_corpus(SynthSpec(
            seed=43, n_connections=12, protocol_mix=mix,
            include_etag=include_etag, transactions_range=(1, 3)))
        bundle = train_bundle(corpus, mode=mode, params=TrainParams(
            n_trees=2, min_leaf=2), include_etag=include_etag, seed=1)
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        loaded = bundle_from_dict(data)
        assert_same_bundle(loaded, reference_bundle_from_dict(data))
        forests = [f for _, f in bundle_forests(loaded)]
        assert len(forests) > 1
        for name in ("feature", "threshold", "roots", "counts"):
            assert len({id(getattr(f.nodes, name).base)
                        for f in forests}) == 1, name

    def test_bundle_round_trip(self, small_world, tmp_path):
        bundle, _, test = small_world
        path = str(tmp_path / "bundle.json")
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert bundle_to_dict(loaded) == bundle_to_dict(bundle)
        conn = test[0].conn
        a = classify_connection(bundle, conn)
        b = classify_connection(loaded, conn)
        assert list(a.headers.items()) == list(b.headers.items())

    @pytest.mark.parametrize("content", [b"not a bundle\n",
                                         b"\xff\xfe\x80\x00{}"],
                             ids=["text", "binary"])
    def test_a_file_that_is_not_json_is_refused(self, tmp_path, content):
        path = tmp_path / "bundle.json"
        path.write_bytes(content)
        with pytest.raises(InferenceError, match="the bundle is not JSON"):
            load_bundle(str(path))

    def test_bundle_json_round_trips_byte_for_byte(self, small_world):
        bundle, _, _ = small_world
        text = json.dumps(bundle_to_dict(bundle), sort_keys=True)
        again = bundle_to_dict(bundle_from_dict(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text

    def test_format_1_bundle_is_refused(self, small_world):
        bundle, _, _ = small_world
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        data["format_version"] = 1
        data["exclude_whole_record"] = False
        with pytest.raises(InferenceError, match="format version"):
            bundle_from_dict(data)

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


    def test_unequal_enhanced_tree_counts_are_refused(self, small_world):
        """Both protocols' enhanced forests share one stacked walk, so a
        bundle whose forests differ in tree count is refused at load."""
        bundle, _, _ = small_world
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        for forest in data["protocols"]["http2"]["enhanced"].values():
            del forest["nodes"]["roots"][-1]
        with pytest.raises(InferenceError, match=r"\[7, 8\] trees"):
            bundle_from_dict(data)


    def test_a_categorical_split_on_the_context_is_refused(self,
                                                          small_world):
        """The passes test each categorical split once, on the base
        features, so an enhanced forest whose categorical split reads a
        context feature is refused, by name."""
        bundle, _, _ = small_world
        data = json.loads(json.dumps(bundle_to_dict(bundle)))
        edited = []
        for pid, forest in sorted(data["protocols"]["http1"]["enhanced"]
                                  .items()):
            nodes = forest["nodes"]
            split = [i for i, c in enumerate(nodes["cat"]) if c >= 0]
            if split:
                nodes["feature"][split[0]] = forest["n_features"] - 1
                edited.append(pid)
        assert edited
        with pytest.raises(InferenceError, match=(
                rf"forest http1\.enhanced\.{edited[0]} has a categorical "
                rf"split on a context feature")):
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
            assert list(many.headers) == list(one.headers)


@pytest.fixture(scope="module")
def oracle_worlds(small_world):
    """Standard and Tor bundles and the test connections, whose header
    counts differ."""
    bundle, train, test = small_world
    tor = train_bundle(train, mode="tor", params=PARAMS_FAST, seed=0)
    return [bundle, tor], [lc.conn for lc in test]


@pytest.fixture(scope="module")
def oracle_inputs(oracle_worlds):
    """The oracle bundles and two corpora: the test connections, and four
    long ones, where a Tor window holds only part of a connection and two
    Tor-mode connections cycle until the pass limit."""
    bundles, conns = oracle_worlds
    long = synthesize_corpus(SynthSpec(seed=27, n_connections=4,
                                       transactions_range=(20, 25),
                                       filler_range=(0, 4)))
    return bundles, [conns, [lc.conn for lc in long]]


def _counting_stacked_calls(monkeypatch):
    """Count the calls and rows that a Stack scores, into the last entry of
    the list returned: the passes' inputs (each ``_Block.compact`` input is
    scored by one call) and the reference's ``stacked_scores`` calls."""
    predict, compact = stacked_scores, inference._Block.compact
    counted = []

    def count(rows):
        counted[-1][0] += 1
        counted[-1][1] += rows

    def counting(stack, X, which):
        count(len(X))
        return predict(stack, X, which)

    def compacting(block, heads, head_of, ks):
        count(len(ks))
        return compact(block, heads, head_of, ks)

    monkeypatch.setitem(globals(), "stacked_scores", counting)
    monkeypatch.setattr(inference._Block, "compact", compacting)
    return counted


class TestGaussSeidelOracle:
    @pytest.mark.parametrize("max_iters", [1, 2, 10])
    def test_block_passes_match_the_reference(self, oracle_inputs, max_iters):
        bundles, corpora = oracle_inputs
        for bundle, conns in itertools.product(bundles, corpora):
            got = classify_corpus(bundle, conns, max_iters)
            want, _ = reference_classify(bundle, conns, max_iters)
            assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
            assert {res.protocol for res in got} == set(PROTOCOLS)
            assert len({len(res.headers) for res in got}) > 1
            if max_iters == 10:
                assert any(res.iterations > 2 for res in got)

    @pytest.mark.parametrize("max_iters", [1, 2, 10])
    def test_compact_inputs_match_the_reference_rows(self, oracle_inputs,
                                                     monkeypatch, max_iters):
        """Every walk input that the passes score is, bit for bit, the
        stack's compact input of the rows built in full from the block's
        base features and its context at that moment."""
        static, compact = inference._Block.static, inference._Block.compact
        checked = []

        def keeping(block, stack, masks, rows):
            # ``static`` drops the base features: keep them for the check
            block.reference = (block.base, stack, masks)
            static(block, stack, masks, rows)

        def checking(block, heads, head_of, ks):
            W = compact(block, heads, head_of, ks)
            base, stack, masks = block.reference
            want = stack.compact(reference_rows(block, heads, head_of,
                                                masks[ks], base))
            checked.append((W.dtype, W.shape, W.tobytes())
                           == (want.dtype, want.shape, want.tobytes()))
            return W

        monkeypatch.setattr(inference._Block, "static", keeping)
        monkeypatch.setattr(inference._Block, "compact", checking)
        bundles, corpora = oracle_inputs
        for bundle, conns in itertools.product(bundles, corpora):
            checked.clear()
            classify_corpus(bundle, conns, max_iters)
            assert all(checked)
            assert bool(checked) == (max_iters > 1)

    def test_clean_rows_are_not_scored(self, oracle_inputs, monkeypatch):
        """Skipping headers whose window did not move since their last
        scoring gives the same results, from exactly the rows that the
        reference counts: those of headers whose window labels changed."""
        bundles, corpora = oracle_inputs
        counted = _counting_stacked_calls(monkeypatch)
        for bundle, conns in itertools.product(bundles, corpora):
            counted.append([0, 0])
            got = classify_corpus(bundle, conns)
            counted.append([0, 0])
            want, rows = reference_classify(bundle, conns, MAX_ITERS_DEFAULT)
            assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
            assert counted[-2][1] == rows < counted[-1][1]

    def test_first_pass_is_a_one_pass_run(self, oracle_inputs):
        """A result's first-pass labels are the labels a run capped at one
        pass ends with, on the same headers, though the later passes move
        labels."""
        bundles, corpora = oracle_inputs
        for bundle, conns in itertools.product(bundles, corpora):
            many = classify_corpus(bundle, conns, 10)
            one = classify_corpus(bundle, conns, 1)
            for a, b in zip(many, one):
                assert list(a.headers) == list(b.headers)
                assert list(a.first_pass.items()) == list(b.headers.items())
            assert any(a.headers != a.first_pass for a in many)

    @pytest.mark.parametrize("max_iters", [1, 10])
    def test_empty_and_headerless_corpora(self, oracle_worlds, max_iters):
        """The one block takes an empty corpus and connections without
        headers, alone or among others: these have converged after one
        pass, and the others get the results they get without them."""
        bundles, conns = oracle_worlds
        bare = [synthetic_connection([(100, 0), (200, 1)],
                                     type_codes=[22, 22]),
                synthetic_connection([])]
        for bundle in bundles:
            assert classify_corpus(bundle, [], max_iters) == []
            alone = classify_corpus(bundle, bare, max_iters)
            assert [(res.first_pass, res.headers, res.iterations,
                     res.converged) for res in alone] == \
                [({}, {}, 1, True)] * 2
            mixed = classify_corpus(bundle, bare[:1] + conns + bare[1:],
                                    max_iters)
            assert [_outcome(r) for r in mixed] == [_outcome(r) for r in (
                alone[:1] + classify_corpus(bundle, conns, max_iters)
                + alone[1:])]


@pytest.fixture(scope="module")
def fuzz_world():
    """A small trained bundle as JSON, and connections of both protocols."""
    corpus = synthesize_corpus(SynthSpec(
        seed=31, n_connections=8, protocol_mix={"http1": 0.5, "http2": 0.5},
        transactions_range=(1, 2)))
    bundle = train_bundle(corpus, params=TrainParams(n_trees=2, max_depth=4,
                                                     min_leaf=2), seed=0)
    return json.dumps(bundle_to_dict(bundle)), [lc.conn for lc in corpus]


def _positions(node, out):
    """Every (container, key) of the JSON ``node``, depth-first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _positions(child, out)
    return out


def _mutate(data, index, op, value):
    """Apply ``op`` at the position ``index`` (modulo their number) picks,
    so that each key or element of the bundle is as likely as another."""
    positions = _positions(data, [])
    parent, key = positions[index % len(positions)]
    node = parent[key]
    if op == "set":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif op == "shift" and type(node) is int:
        parent[key] = node + (value if type(value) is int else 1)
    elif op == "cut" and isinstance(node, list):
        del node[len(node) // 2:]
    elif op == "grow" and isinstance(node, list) and node:
        node.append(copy.deepcopy(node[-1]))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.just([]), st.just({}), st.lists(st.integers(-1, 4), max_size=3))


_REFUSED = re.compile(r"forest (.*) is refused: ")


def _refusal(exc: Exception) -> str:
    """The forest a load error names as refused, else its whole message."""
    found = _REFUSED.match(str(exc))
    return found.group(1) if found else str(exc)


def _refused_as_the_reference_does(exc: Exception, data: dict) -> None:
    """The reference loader refuses the bundle ``data`` as the loader did
    with ``exc``: the same forest, or the same bundle error; or it loads it,
    and the loader refused its first forest with a NaN or infinite
    importance."""
    try:
        reference = reference_bundle_from_dict(data)
    except HttpglassError as refused:
        assert _refusal(exc) == _refusal(refused)
        return
    nonfinite = [name for name, f in bundle_forests(reference)
                 if not np.isfinite(f.importance_raw).all()]
    assert nonfinite and _refusal(exc) == nonfinite[0]
    assert "importance_raw" in str(exc)


@settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 1 << 20),
                          st.sampled_from(["set", "delete", "shift", "cut",
                                           "grow"]),
                          _JSON_VALUES), min_size=1, max_size=4))
def test_mutated_bundles_never_crash(fuzz_world, mutations):
    """Mutated values, ids, lengths and deleted keys raise nothing but
    HttpglassError from bundle load through classification.  After one
    mutation, the loader agrees with the one-forest-at-a-time reference: it
    loads an equal bundle, or refuses the same forest or gives the same
    bundle error; but a forest with a NaN or infinite importance, which the
    reference lets through, is refused."""
    text, conns = fuzz_world
    data = json.loads(text)
    for mutation in mutations:
        _mutate(data, *mutation)
    try:
        bundle = bundle_from_dict(data)
    except HttpglassError as exc:
        if len(mutations) == 1:
            _refused_as_the_reference_does(exc, data)
        return
    if len(mutations) == 1:
        assert_same_bundle(bundle, reference_bundle_from_dict(data))
    try:
        classify_corpus(bundle, conns, max_iters=3)
    except HttpglassError:
        pass


def _with_saved_forest(text: str, *placed) -> dict:
    """The bundle ``text`` with _SAVED_FOREST, corrupted, in place of some
    of its forests: each of ``placed`` is (protocol, kind, the index of
    the problem in sorted order, a CORRUPTIONS entry)."""
    data = json.loads(text)
    for protocol, kind, index, (field, at, value, _) in placed:
        forests = data["protocols"][protocol][kind]
        forest = json.loads(_SAVED_FOREST)
        forest["nodes"][field][at] = value
        forests[sorted(forests)[index]] = forest
    return data


@pytest.mark.parametrize("corruption", CORRUPTIONS,
                         ids=[problem for *_, problem in CORRUPTIONS])
def test_a_refusal_names_the_forest_late_in_load_order(fuzz_world,
                                                       corruption):
    """A corrupt forest late in load order, the first enhanced forest of
    http2, is named, with the reference loader's message.  Its bounds are
    not its neighbours' (3 features, 12 nodes in 2 trees), so only its
    own bounds refuse each corruption."""
    data = _with_saved_forest(fuzz_world[0], ("http2", "enhanced", 0,
                                              corruption))
    pid = sorted(data["protocols"]["http2"]["enhanced"])[0]
    with pytest.raises(InferenceError) as reference:
        reference_bundle_from_dict(data)
    with pytest.raises(InferenceError, match=corruption[-1]) as refused:
        bundle_from_dict(data)
    assert str(refused.value).startswith(f"forest http2.enhanced.{pid} is "
                                         f"refused: ")
    assert str(refused.value) == str(reference.value)


@pytest.mark.parametrize("early", CORRUPTIONS,
                         ids=[problem for *_, problem in CORRUPTIONS])
def test_of_two_refused_forests_the_first_in_load_order_is_named(fuzz_world,
                                                                early):
    """With one corrupt forest early in load order and another late, the
    early one is named, whichever check refuses each, with the reference
    loader's message."""
    for late in CORRUPTIONS:
        data = _with_saved_forest(fuzz_world[0],
                                  ("http1", "single", 0, early),
                                  ("http2", "enhanced", 0, late))
        pid = sorted(data["protocols"]["http1"]["single"])[0]
        with pytest.raises(InferenceError) as reference:
            reference_bundle_from_dict(data)
        with pytest.raises(InferenceError) as refused:
            bundle_from_dict(data)
        assert str(refused.value).startswith(f"forest http1.single.{pid} is "
                                             f"refused: ")
        assert str(refused.value) == str(reference.value)


@pytest.mark.parametrize("emptied", [["roots"], None],
                         ids=["roots", "every node list"])
def test_a_forest_without_roots_is_named(fuzz_world, emptied):
    """A forest late in load order with no roots (its roots, or every node
    list, empty) is named, with the reference loader's message."""
    data = json.loads(fuzz_world[0])
    forests = data["protocols"]["http2"]["enhanced"]
    pid = sorted(forests)[0]
    nodes = forests[pid]["nodes"]
    nodes.update(dict.fromkeys(emptied or nodes, []))
    with pytest.raises(InferenceError) as reference:
        reference_bundle_from_dict(data)
    with pytest.raises(InferenceError, match="roots") as refused:
        bundle_from_dict(data)
    assert str(refused.value).startswith(f"forest http2.enhanced.{pid} is "
                                         f"refused: ")
    assert str(refused.value) == str(reference.value)


def test_a_refusal_naming_no_forest_is_a_bundle_error(fuzz_world,
                                                      monkeypatch):
    """Were a table refused with every forest loading alone, the loader's
    ForestError would name no forest; the bundle is refused all the same,
    with an InferenceError, not a crash."""
    def refuse(data):
        raise rf.ForestError("refused together")
    monkeypatch.setattr(rf, "from_dicts", refuse)
    with pytest.raises(InferenceError,
                       match="^a forest is refused: refused together$"):
        bundle_from_dict(json.loads(fuzz_world[0]))


@pytest.fixture(scope="module")
def corpus_fuzz_world(tmp_path_factory):
    """A small corpus of both protocols as its JSONL lines, parsed, and a
    path to write mutated copies to."""
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    save_corpus(str(path), synthesize_corpus(SynthSpec(
        seed=32, n_connections=6, protocol_mix={"http1": 0.5, "http2": 0.5},
        transactions_range=(1, 2))))
    return [json.loads(line) for line in path.read_text().splitlines()], path


@settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 1 << 20),
                          st.sampled_from(["set", "delete", "shift", "cut",
                                           "grow"]),
                          _JSON_VALUES), min_size=1, max_size=4))
def test_mutated_corpora_never_crash(corpus_fuzz_world, mutations):
    """Mutated values, lengths and deleted keys or lines of a corpus raise
    nothing but HttpglassError from load through training and
    classification."""
    lines, path = corpus_fuzz_world
    data = copy.deepcopy(lines)
    for mutation in mutations:
        _mutate(data, *mutation)
    path.write_text("".join(json.dumps(line) + "\n" for line in data))
    try:
        corpus = load_corpus(str(path))
        bundle = train_bundle(corpus, params=TrainParams(
            n_trees=2, max_depth=4, min_leaf=2), seed=0)
        classify_corpus(bundle, [lc.conn for lc in corpus], max_iters=3)
    except HttpglassError:
        pass

"""Acceptance suite: eleven numbered criteria, one pass/fail line each.

Each test prints `CRITERION <n>: PASS|FAIL — <summary>` before asserting, so
the teed pytest output carries a per-criterion verdict line.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from httpglass import forest as rf, inference
from httpglass.capture import write_pcap
from httpglass.cli import main as cli_main
from httpglass.corpus import SynthSpec, split_dataset, synthesize_corpus
from httpglass.evalx import ConfusionMatrix, accuracy, unweighted_f1
from httpglass.evalx import run_malware_experiment, run_semantics_experiment
from httpglass.features import (MALWARE_STANDARD_LEN, STANDARD_LEN, TOR_LEN,
                                assemble_record_sample, build_feature_vocab,
                                enrich_malware_features,
                                extract_malware_standard, record_table)
from httpglass.inference import classify_corpus, train_bundle
from httpglass.keyscan import (PROFILE_NAMES, build_fixture,
                               expected_false_positives, pattern_span,
                               scan, scan_file)
from httpglass.registry import ABSENT, PRESENT, Layout, registry

from helpers import (handshake_payloads, pcap_frames, reference_rows,
                     synthetic_connection, tls_stream)
from test_evalx import brute_force_f1
from test_forest import _encode, _split_score, exhaustive_numeric_stump


def _verdict(n, ok, summary):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {summary}")
    assert ok, f"criterion {n}: {summary}"


def test_criterion_01_feature_dimensionality():
    corpus = synthesize_corpus(SynthSpec(seed=1, n_connections=1000))
    conns = [lc.conn for lc in corpus]
    vocab = build_feature_vocab(conns)
    enh = {"http1": Layout(registry("http1")).width,
           "http2": Layout(registry("http2")).width}
    t0 = time.monotonic()
    ok = True
    for lc in corpus:
        for i in range(len(lc.conn.records)):
            std = assemble_record_sample(lc.conn, i, "standard").values
            tor = assemble_record_sample(lc.conn, i, "tor").values
            ok &= std.shape == (174,) and tor.shape == (66,)
        mal = extract_malware_standard(lc.conn, vocab)
        enriched = enrich_malware_features(mal, np.zeros(enh[lc.protocol]))
        ok &= mal.shape == (234,)
        ok &= enriched.shape == (234 + enh[lc.protocol],)
    elapsed = time.monotonic() - t0
    ok &= STANDARD_LEN == 174 and TOR_LEN == 66 and MALWARE_STANDARD_LEN == 234
    ok &= enh == {"http1": 58, "http2": 64}
    ok &= elapsed < 10.0
    _verdict(1, ok, f"174/66/234/234+58|64 on 1000 connections "
                    f"in {elapsed:.1f}s (<10s)")


def test_criterion_02_metric_oracle():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(2, 7))
        labels = [f"l{i}" for i in range(k)]
        n = int(rng.integers(1, 200))
        truth = [labels[i] for i in rng.integers(0, k, n)]
        pred = [labels[i] for i in rng.integers(0, k, n)]
        cm = ConfusionMatrix.from_pairs(truth, pred, labels=labels)
        worst = max(worst,
                    abs(unweighted_f1(cm) - brute_force_f1(truth, pred,
                                                           labels)),
                    abs(accuracy(cm)
                        - float(np.mean([t == p
                                         for t, p in zip(truth, pred)]))))
    ok = worst <= 1e-12
    _verdict(2, ok, f"unweighted_f1/accuracy vs brute force on 100 random "
                    f"matrices, max |diff| = {worst:.2e} (<=1e-12)")


def test_criterion_03_forest_vs_exhaustive_stump():
    params = rf.TrainParams(n_trees=1, max_depth=1, min_leaf=1,
                            features_per_split=8, bootstrap=False, seed=0)
    failures = 0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(8, 201))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        X = np.round(rng.normal(size=(n, d)) * 4.0, 1)
        y = [f"c{int(v)}" for v in rng.integers(0, k, n)]
        forest = rf.train(X, y, params)
        nodes = forest.nodes
        root = nodes.roots[0]
        yv, kk = _encode(y)
        counts = np.bincount(yv, minlength=kk).astype(float)
        base = (counts @ counts) / n
        best, winners = exhaustive_numeric_stump(X, y)
        if nodes.feature[root] < 0:
            if best > base + 1e-9:
                failures += 1
        elif (nodes.feature[root], nodes.threshold[root]) not in winners:
            failures += 1
    ok = failures == 0
    _verdict(3, ok, f"depth-1 stump equals exhaustive best Gini stump on "
                    f"50/50 datasets ({failures} mismatches)")


def test_criterion_04_separable_corpus_single_pass():
    t0 = time.monotonic()
    corpus = synthesize_corpus(SynthSpec(seed=11, n_connections=700,
                                         transactions_range=(2, 5)))
    train, test = split_dataset(corpus, policy="by_fraction", fraction=0.7,
                                seed=0)
    params = rf.TrainParams(n_trees=40, max_depth=None, min_leaf=1,
                            features_per_split=120)
    bundle = train_bundle(train, params=params, with_enhanced=False, seed=0)
    report = run_semantics_experiment(bundle, train, test, max_iters=1)
    f1s = {key: e["single_pass"]["f1"]
           for key, e in report["problems"].items() if e["status"] == "ok"}
    worst_key = min(f1s, key=f1s.get)
    mt_f1 = report["message_type"]["f1"]
    elapsed = time.monotonic() - t0
    ok = bool(f1s) and f1s[worst_key] >= 0.99 and mt_f1 >= 0.99 \
        and elapsed < 120.0
    _verdict(4, ok, f"single-pass F1 >= 0.99 on every problem (worst "
                    f"{f1s[worst_key]:.4f} at {worst_key}), message-type F1 "
                    f"{mt_f1:.4f}, {elapsed:.0f}s (<120s)")


@pytest.fixture(scope="module")
def iterative_reports():
    """Tor-mode correlated-corpus experiments for criteria 5 and 6."""
    reports = []
    params = rf.TrainParams(n_trees=40, max_depth=None, min_leaf=2,
                            features_per_split=30)
    for seed in range(5):
        spec = SynthSpec(
            seed=seed, n_connections=180, transactions_range=(5, 9),
            protocol_mix={"http1": 1.0}, filler_range=(1, 6),
            correlation={"request.content_type": 1.0,
                         "response.content_type": 1.0},
            noise_scale={"request.content_type": 3.0,
                         "response.content_type": 3.0})
        corpus = synthesize_corpus(spec)
        train, test = split_dataset(corpus, policy="by_fraction", seed=0)
        bundle = train_bundle(train, mode="tor", params=params, seed=seed)
        reports.append(run_semantics_experiment(bundle, train, test,
                                                max_iters=10))
    return reports


def test_criterion_05_iterative_gain(iterative_reports):
    correlated = ("http1.request.content_type", "http1.response.content_type")
    gains = {key: [] for key in correlated}
    for report in iterative_reports:
        for key in correlated:
            entry = report["problems"][key]
            gains[key].append(entry["iterative"]["f1"]
                              - entry["single_pass"]["f1"])
    means = {key: float(np.mean(v)) for key, v in gains.items()}
    ok = all(m >= 0.02 for m in means.values())
    detail = ", ".join(f"{k.split('.')[-1]} +{v:.3f}"
                       for k, v in means.items())
    _verdict(5, ok, f"iterative - single-pass F1 over 5 seeds: {detail} "
                    f"(each >= 0.02)")


def test_criterion_06_convergence(iterative_reports):
    iters, converged = [], []
    for report in iterative_reports:
        iters.extend(report["convergence"]["iterations"])
        converged.extend(report["convergence"]["converged"])
    n = len(iters)
    frac_conv = float(np.mean(converged))
    frac_4 = float(np.mean([i <= 4 for i in iters]))
    ok = n > 0 and frac_conv == 1.0 and frac_4 >= 0.95
    _verdict(6, ok, f"{n} connections: {frac_conv:.1%} converged within 10 "
                    f"iterations, {frac_4:.1%} within 4 (>=95%)")


def test_criterion_07_malware_enrichment_direction():
    sem = synthesize_corpus(SynthSpec(seed=100, n_connections=150,
                                      protocol_mix={"http1": 1.0},
                                      filler_range=(1, 6)))
    bundle = train_bundle(sem, params=rf.TrainParams(
        n_trees=30, max_depth=None, min_leaf=2, features_per_split=60),
        seed=0)
    benign_priors = {
        "request.method": {"GET": 0.55, "POST": 0.15, "OPTIONS": 0.1,
                           "HEAD": 0.1, "PUT": 0.1},
        "response.status_code": {"200": 0.6, "204": 0.1, "301": 0.1,
                                 "302": 0.1, "404": 0.1},
        "response.content_type": {"html": 0.4, "image": 0.2, "css": 0.1,
                                  "javascript": 0.2, "json": 0.1},
    }
    malicious_priors = {
        "request.method": {"GET": 0.15, "POST": 0.55, "OPTIONS": 0.1,
                           "HEAD": 0.1, "PUT": 0.1},
        "response.status_code": {"200": 0.2, "204": 0.1, "301": 0.1,
                                 "302": 0.1, "404": 0.5},
        "response.content_type": {"html": 0.1, "image": 0.1, "css": 0.1,
                                  "javascript": 0.2, "octet": 0.3,
                                  "json": 0.2},
    }
    wins, pairs = 0, []
    for seed in range(5):
        benign = synthesize_corpus(SynthSpec(
            seed=200 + seed, n_connections=120, protocol_mix={"http1": 1.0},
            filler_range=(1, 6), transactions_range=(2, 5),
            label_priors=benign_priors))
        malicious = synthesize_corpus(SynthSpec(
            seed=300 + seed, n_connections=120, protocol_mix={"http1": 1.0},
            filler_range=(1, 6), transactions_range=(2, 5),
            label_priors=malicious_priors))
        report = run_malware_experiment(benign, malicious, bundle, seed=seed)
        s, e = report["standard"]["f1"], report["enriched"]["f1"]
        pairs.append((s, e))
        wins += e > s
    # one-sided sign test: P(5/5 wins | no effect) = 2^-5 = 0.03125 < 0.05
    ok = wins == 5
    detail = ", ".join(f"{s:.3f}->{e:.3f}" for s, e in pairs)
    _verdict(7, ok, f"enriched > standard F1 in {wins}/5 seeds "
                    f"(sign test p=0.031): {detail}")


def test_criterion_08_referer_aggregation_oracle():
    """The production context: a ``_Block`` of 7 requests, whose target's
    Referer span must read [2, 4] in the rows of ``reference_rows``, which
    the enhanced passes' compact inputs equal bit for bit (tested in
    test_inference.py)."""
    problems = registry("http1")
    labels = [{"request.method": "GET",
               "request.referer": PRESENT if i < 4 else ABSENT}
              for i in range(7)]
    conn = synthetic_connection([(200, 0)] * 7)
    block = inference._Block([conn], ["http1"], [list(range(7))],
                             [record_table(conn)], [labels], tor=False)
    layout = Layout(problems)
    block.context(block.labels, {"http1": layout})
    target = np.array([block.start[0] + 5])  # an absent-Referer request
    row = reference_rows(block, target, np.array([0]),
                         layout.mask("request.referer"))[0]
    ctx = row[STANDARD_LEN:]
    lo, hi = layout.span["request.referer"]
    sub = ctx[lo:hi].tolist()
    get = ctx[layout.column["request.method", "GET"]]
    ok = (sub == [2.0, 4.0] and get == 7.0 and len(ctx) == layout.width
          and layout.column["request.referer", ABSENT] == lo)
    _verdict(8, ok, f"7 requests, 4/6 non-target with Referer -> "
                    f"subcomponent {sub} (expected [2.0, 4.0]), "
                    f"GET {get} (expected 7.0)")


def test_criterion_09_keyscan_recall_and_false_positives(tmp_path):
    rng = np.random.default_rng(90)
    stride = 4096 - 256
    recall_ok = True
    for profile in PROFILE_NAMES:
        mat_len = 32 if profile == "tor_aes" else 48
        span = pattern_span(profile)
        planted = []
        occupied = []
        buf = bytearray(rng.bytes(110 * 1000))
        # 20 plants straddling multiples of the stride, then 80 spaced
        # plants nudged clear of them
        offsets = [k * stride - span // 2 for k in range(1, 21)]
        occupied = [(o, o + span) for o in offsets]
        for i in range(80):
            offset = i * 1200 + int(rng.integers(0, 200))
            while any(offset < b and offset + span > a
                      for a, b in occupied):
                offset += span
            offsets.append(offset)
            occupied.append((offset, offset + span))
        for offset in offsets:
            material = rng.bytes(mat_len)
            fixture = build_fixture(profile, material, rng)
            buf[offset:offset + len(fixture)] = fixture
            planted.append((offset, material))
        dump = tmp_path / f"{profile}.bin"
        dump.write_bytes(bytes(buf))
        hits = scan_file(str(dump), profiles=[profile])
        found = {(h.offset, h.material) for h in hits}
        recall_ok &= all(p in found for p in planted)

    n_random = 100 * 1024 * 1024
    random_data = np.random.default_rng(91).bytes(n_random)
    fp_ok = True
    fp_counts = {}
    for profile in PROFILE_NAMES:
        n_fp = len(scan(random_data, profiles=[profile]))
        bound = expected_false_positives(profile, n_random) * 10
        fp_counts[profile] = n_fp
        fp_ok &= n_fp <= bound
    ok = recall_ok and fp_ok
    _verdict(9, ok, f"100/100 planted secrets recovered per profile "
                    f"through scan_file; false positives on 100 MiB "
                    f"random: {fp_counts} (each <= 10x expectation)")


def test_criterion_10_determinism(tmp_path, capsys):
    pcap = str(tmp_path / "sample.pcap")
    ch, sh = handshake_payloads(alpn_selected="http/1.1")
    write_pcap(pcap, pcap_frames([ch, tls_stream([(23, b"q" * 200)])],
                                 [sh, tls_stream([(23, b"r" * 800)])]))
    artifacts = {}
    for run in ("a", "b"):
        feats = str(tmp_path / f"f_{run}.csv")
        corpus = str(tmp_path / f"c_{run}.jsonl")
        bundle = str(tmp_path / f"b_{run}.json")
        preds = str(tmp_path / f"p_{run}.jsonl")
        assert cli_main(["extract", pcap, "--seed", "5",
                         "--out", feats]) == 0
        assert cli_main(["synth", "--connections", "30", "--seed", "5",
                         "--out", corpus]) == 0
        assert cli_main(["train", corpus, "--trees", "8", "--seed", "5",
                         "--out", bundle]) == 0
        assert cli_main(["infer", "--corpus", corpus, "--bundle", bundle,
                         "--seed", "5", "--out", preds]) == 0
        artifacts[run] = tuple(Path(p).read_bytes()
                               for p in (feats, corpus, bundle, preds))
    capsys.readouterr()  # drop CLI chatter so the verdict line stands alone
    ok = artifacts["a"] == artifacts["b"]
    _verdict(10, ok, "identical --seed gives byte-identical feature dump, "
                     "corpus, bundle, and prediction files")


def test_criterion_11_alpn_fallback():
    corpus = synthesize_corpus(SynthSpec(
        seed=7, n_connections=400, protocol_mix={"http1": 0.5, "http2": 0.5},
        alpn_present_prob=0.0, transactions_range=(1, 4)))
    train, test = split_dataset(corpus, policy="by_fraction", fraction=0.7,
                                seed=0)
    bundle = train_bundle(train, params=rf.TrainParams(n_trees=30), seed=0,
                          with_enhanced=False)
    results = classify_corpus(bundle, [lc.conn for lc in test], max_iters=1)
    acc = float(np.mean([r.protocol == lc.protocol
                         for r, lc in zip(results, test)]))
    ok = acc >= 0.95
    _verdict(11, ok, f"no-ALPN fallback holdout accuracy {acc:.4f} (>=0.95) "
                     f"on {len(test)} mixed-protocol connections")

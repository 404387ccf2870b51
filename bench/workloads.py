"""The benchmark's workloads: seeded inputs, the CLI command, output checks.

Every input is generated from the workload seed during set-up; the program
only sees the files written here.  Sizes keep one command near a second on
a 2-vCPU machine, so that a run holds ten or more of them (run.py reports
their median), and one run (the set-ups, one memory-traced command, the
timed commands and the checks) near 30 s.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from collections import defaultdict

import numpy as np

from httpglass import cli, keyscan
from httpglass.corpus import (SynthSpec, load_corpus, save_corpus,
                              synthesize_corpus)
from httpglass.evalx import ConfusionMatrix, unweighted_f1
from httpglass.inference import load_bundle
from httpglass.registry import registry

import wire

# inputs of short connections are sized in HTTP messages (the records that
# carry a header, which the classifier labels), not in connections or TLS
# records, so that one command does about the same work whatever the seed
TRAIN_MESSAGES = 105
HELDOUT_MESSAGES = 480
BUNDLE_MESSAGES = 160
# a long connection holds 50 messages in ~230 records, so infer_long is sized
# in whole connections and infer_short matches its message count; eight of
# them, four of each protocol, average out how many passes each needs to
# converge (3 to 5, rarely 10)
LONG_CONNECTIONS = 8
LONG_TRANSACTIONS = 25
INFER_MESSAGES = 2 * LONG_TRANSACTIONS * LONG_CONNECTIONS
TREES = 5
# both infer workloads classify with one bundle, trained from a corpus of its
# own fixed seed so that every run of them uses the same models
BUNDLE_SEED = 0
# a broken classifier lands near chance; every seed measured is far above
LABEL_F1_FLOOR = 0.35
DUMP_PAGES = 4096  # 4 KiB pages: 16 MiB
PAGE = 4096
KEYS_PER_PROFILE = 3
MISSING = "(no prediction)"


def derived_seed(seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence((seed, purpose)).generate_state(1)[0])


def synthesize(seed: int, messages: int = 0, connections: int = 0,
               **spec) -> list:
    """Seeded synthetic connections, HTTP/1.1 and HTTP/2 in turn.

    The default protocol mix draws each connection's protocol at random;
    taking the two in turn keeps its equal shares without the seed moving
    them, so that one command does about the same work whatever the seed.
    Returns the first ``connections``, or else as many as hold at least
    ``messages`` HTTP messages, with ids ``synth-0``, ``synth-1``, ...
    """
    # n connections of each protocol; a default connection carries 6
    # messages on average, so generate a quarter more than that needs and a
    # second, larger try is rare
    n = (connections + 1) // 2 if connections else messages // 10 + 2
    while True:
        halves = [synthesize_corpus(SynthSpec(
            n_connections=n, seed=derived_seed(seed, 10 + k),
            protocol_mix={protocol: 1.0}, **spec))
            for k, protocol in enumerate(("http1", "http2"))]
        corpus = [lc for pair in zip(*halves) for lc in pair]
        if connections:
            corpus = corpus[:connections]
            break
        total = np.cumsum([sum(lr.message_type for lr in lc.records)
                           for lc in corpus])
        if total[-1] >= messages:
            corpus = corpus[:int(np.searchsorted(total, messages)) + 1]
            break
        n *= 2
    return [dataclasses.replace(lc, connection_id=f"synth-{k}")
            for k, lc in enumerate(corpus)]


class Outcome:
    """What the output checks found: operations attempted and failed, the
    ids of the failures, label F1 and any failed check."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed_ids: list[str] = []
        self.label_f1 = 0.0
        self.problems: list[str] = []


# --- label F1 against planted labels ---

def _f1_missing_wrong(pairs) -> float:
    """Unweighted F1 over the observed labels, a missing prediction counting
    as wrong.  The placeholder label for a missing prediction is never true,
    so its own F1 is 0; it is left out of the mean."""
    labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    cm = ConfusionMatrix.from_pairs([t for t, _ in pairs],
                                    [p for _, p in pairs], labels=labels)
    f1 = unweighted_f1(cm)
    if MISSING in labels:
        f1 *= len(labels) / (len(labels) - 1)
    return f1


def read_predictions(path: str) -> dict:
    """{(connection id, record index): {problem: label}} from infer JSONL."""
    preds: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            preds[(row["connection"], row["record"])][row["problem"]] = row["label"]
    return preds


def label_f1(preds: dict, planted) -> float:
    """Mean unweighted F1 over message_type and every semantic problem.

    ``planted`` pairs each planted connection with the connection id the CLI
    gave it (None when the program lost it).  A record is predicted to carry
    a message when the predictions have any line for it.
    """
    mt_truth, mt_pred = [], []
    pairs = defaultdict(list)
    for cid, lc in planted:
        for lr, rec in zip(lc.records, lc.conn.records):
            if rec.type_code != 23:
                continue
            got = preds.get((cid, lr.index))
            mt_truth.append(int(lr.message_type))
            mt_pred.append(int(got is not None))
            for pid, truth in lr.labels.items():
                pairs[f"{lc.protocol}.{pid}"].append(
                    (truth, got.get(pid, MISSING) if got else MISSING))
    f1s = [unweighted_f1(ConfusionMatrix.from_pairs(mt_truth, mt_pred,
                                                    labels=[0, 1]))]
    f1s += [_f1_missing_wrong(pairs[key]) for key in sorted(pairs)]
    return float(np.mean(f1s))


# --- workloads ---

class Workload:
    """One set of inputs and the CLI command run on them."""

    name = ""
    output = ""   # the command's output file, fingerprinted after every run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.records = 0      # records (keyscan: pages) one command handles
        self.input_bytes = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def attempted(self) -> int:
        """Operations one command attempts; a command that exits non-zero
        fails them all."""
        return len(self.planted)

    def check(self) -> Outcome:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    output = "bundle.json"

    def setup(self):
        self.corpus = synthesize(self.seed, messages=TRAIN_MESSAGES)
        save_corpus(self.path("corpus.jsonl"), self.corpus)
        save_corpus(self.path("heldout.jsonl"),
                    synthesize(derived_seed(self.seed, 1),
                               messages=HELDOUT_MESSAGES))
        self.records = sum(len(lc.conn.records) for lc in self.corpus)
        self.input_bytes = os.path.getsize(self.path("corpus.jsonl"))

    def argv(self):
        return ["train", self.path("corpus.jsonl"), "--trees", str(TREES),
                "--seed", str(self.seed), "--out", self.path(self.output)]

    def expected_forests(self) -> list[str]:
        """Every forest the corpus has the labels to train."""
        out = []
        if len({lc.protocol for lc in self.corpus}) > 1:
            out.append("alp_fallback")
        for protocol in ("http1", "http2"):
            members = [lc for lc in self.corpus if lc.protocol == protocol]
            flags = {lr.message_type for lc in members for lr, rec in
                     zip(lc.records, lc.conn.records) if rec.type_code == 23}
            if len(flags) > 1:
                out.append(f"{protocol}.message_type")
            for p in registry(protocol):
                seen = {lr.labels[p.id] for lc in members for lr in lc.records
                        if p.id in lr.labels}
                if len(seen) > 1:
                    out += [f"{protocol}.single.{p.id}",
                            f"{protocol}.enhanced.{p.id}"]
        return out

    def attempted(self):
        return len(self.expected_forests())

    def check(self):
        expected = self.expected_forests()
        outcome = Outcome(len(expected))
        bundle = load_bundle(self.path(self.output))
        have = {"alp_fallback"} if bundle.alp_fallback is not None else set()
        for protocol, pm in bundle.models.items():
            if pm.message_type is not None:
                have.add(f"{protocol}.message_type")
            have.update(f"{protocol}.single.{pid}" for pid in pm.single)
            have.update(f"{protocol}.enhanced.{pid}" for pid in pm.enhanced)
        outcome.failed_ids = [name for name in expected if name not in have]
        pred = self.path("heldout-predictions.jsonl")
        code = cli.main(["infer", "--corpus", self.path("heldout.jsonl"),
                         "--bundle", self.path(self.output), "--out", pred])
        if code != 0:
            outcome.problems.append(f"held-out infer exited {code}")
            return outcome
        heldout = load_corpus(self.path("heldout.jsonl"))
        outcome.label_f1 = label_f1(read_predictions(pred),
                                    [(lc.connection_id, lc) for lc in heldout])
        return outcome


class Infer(Workload):
    """``httpglass infer --pcap`` with a bundle trained during set-up."""

    output = "predictions.jsonl"

    def setup(self):
        save_corpus(self.path("bundle-corpus.jsonl"),
                    synthesize(BUNDLE_SEED, messages=BUNDLE_MESSAGES,
                               filler_range=(0, 2)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["train", self.path("bundle-corpus.jsonl"),
                             "--trees", str(TREES), "--seed", str(BUNDLE_SEED),
                             "--out", self.path("bundle.json")])
        if code != 0:
            raise RuntimeError(f"set-up: train exited {code}: {err.getvalue()}")
        corpus = self.capture_corpus()
        self.planted = wire.write_corpus_pcap(self.path("capture.pcap"),
                                              corpus, self.seed)
        self.records = sum(len(lc.conn.records) for lc in corpus)
        self.input_bytes = os.path.getsize(self.path("capture.pcap"))

    def argv(self):
        return ["infer", "--pcap", self.path("capture.pcap"),
                "--bundle", self.path("bundle.json"),
                "--out", self.path(self.output)]

    def check(self):
        outcome = Outcome(self.attempted())
        pcap_ids, failed = wire.round_trip(self.path("capture.pcap"),
                                           self.planted)
        preds = read_predictions(self.path(self.output))
        answered = {cid for cid, _ in preds}
        failed = set(failed) | {cid for cid in pcap_ids
                                if pcap_ids[cid] not in answered}
        outcome.failed_ids = sorted(failed,
                                    key=lambda cid: int(cid.split("-")[-1]))
        outcome.label_f1 = label_f1(preds, [(pcap_ids.get(lc.connection_id), lc)
                                            for lc in self.planted.values()])
        return outcome


class InferShort(Infer):
    name = "infer_short"

    def capture_corpus(self):
        return synthesize(self.seed, messages=INFER_MESSAGES,
                          emit_streams=True)


class InferLong(Infer):
    name = "infer_long"

    def capture_corpus(self):
        return synthesize(self.seed, connections=LONG_CONNECTIONS,
                          emit_streams=True,
                          transactions_range=(LONG_TRANSACTIONS,
                                              LONG_TRANSACTIONS),
                          filler_range=(0, 8))


def poisson_tail(k: int, lam: float) -> float:
    """P(X >= k) for X ~ Poisson(lam)."""
    if k <= 0:
        return 1.0
    if lam <= 0:
        return 0.0
    return sum(math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))
               for i in range(k, k + 200))


class Keyscan(Workload):
    name = "keyscan"
    output = "keys.txt"

    def setup(self):
        """A dump of random, zero and low-entropy pages in fixed shares
        (1/2, 1/4, 1/4) with a few fixture keys per profile planted at
        seeded offsets.  Low-entropy pages hold bytes 0..15, which none of
        the patterns can match."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 3)))
        kinds = rng.permutation(np.arange(DUMP_PAGES) % 4)  # 0,1: random
        pages = np.zeros((DUMP_PAGES, PAGE), dtype=np.uint8)
        random_pages = kinds <= 1
        pages[random_pages] = rng.integers(
            0, 256, (int(random_pages.sum()), PAGE), dtype=np.uint8)
        low = kinds == 3
        pages[low] = rng.integers(0, 16, (int(low.sum()), PAGE), dtype=np.uint8)
        data = pages.reshape(-1)
        self.planted = []
        slots = rng.choice(DUMP_PAGES, KEYS_PER_PROFILE * len(keyscan.PROFILE_NAMES),
                           replace=False)
        for k, page in enumerate(slots):
            profile = keyscan.PROFILE_NAMES[k % len(keyscan.PROFILE_NAMES)]
            size = 32 if profile == "tor_aes" else 48
            material = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            block = keyscan.build_fixture(profile, material, rng)
            offset = int(page) * PAGE + int(rng.integers(0, PAGE - len(block)))
            data[offset:offset + len(block)] = np.frombuffer(block, np.uint8)
            self.planted.append((offset, profile, material))
        self.planted.sort()
        with open(self.path("dump.bin"), "wb") as fh:
            fh.write(data.tobytes())
        self.random_pages = random_pages
        self.random_bytes = int(random_pages.sum()) * PAGE
        self.records = DUMP_PAGES
        self.input_bytes = DUMP_PAGES * PAGE

    def argv(self):
        return ["keyscan", self.path("dump.bin"), "--out", self.path(self.output)]

    def check(self):
        """The CLI's key file must equal the key file of a direct scan, whose
        hits carry offsets; every planted key must be among those hits."""
        outcome = Outcome(self.attempted())
        hits = keyscan.scan_file(self.path("dump.bin"))
        with open(self.path(self.output)) as fh:
            if fh.read() != keyscan.emit_keys(hits):
                outcome.problems.append("key file differs from a direct scan")
        found = {(h.offset, h.profile, h.material) for h in hits}
        outcome.failed_ids = [f"{p}@{o}" for o, p, m in self.planted
                              if (o, p, m) not in found]
        extra = [(o, p) for o, p, m in found - set(self.planted)]
        # a match may also span a random page and the zero page after it;
        # only matches inside random pages follow the random-data rate
        in_random = sum(
            self.random_pages[o // PAGE:
                              (o + keyscan.pattern_span(p) - 1) // PAGE + 1].all()
            for o, p in extra)
        expected = sum(keyscan.expected_false_positives(p, self.random_bytes)
                       for p in keyscan.PROFILE_NAMES)
        print(f"keyscan: {len(extra)} unplanted hits, {in_random} inside "
              f"random pages where {expected:.3g} are expected")
        if poisson_tail(in_random, expected) < 1e-6:
            outcome.problems.append(f"{in_random} unplanted hits inside "
                                    f"random pages; {expected:.3g} expected")
        tp = len(self.planted) - len(outcome.failed_ids)
        outcome.label_f1 = 2 * tp / (2 * tp + len(extra)
                                     + len(outcome.failed_ids))
        return outcome


WORKLOADS = {w.name: w for w in (Train, InferShort, InferLong, Keyscan)}

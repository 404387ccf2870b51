"""The benchmark uses the program from files under ``bench/``; these tests
run that use in tier-1, so that a change that breaks it shows before a
benchmark run does."""

import importlib
import importlib.util
from pathlib import Path

from httpglass.corpus import SynthSpec, synthesize_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """The traced runs wrap program functions by name (``spans.TARGETS``);
    every name must resolve, or each traced run fails when it installs its
    wrappers."""
    spans = _bench_module("spans")
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_wire_round_trip_finds_every_planted_connection(tmp_path):
    """The infer workloads write planted connections to a pcap and check
    each one parses back, reading ``conn.records`` and ``raw.packets`` row
    by row: every planted connection must come back, with no failed id."""
    wire = _bench_module("wire")
    corpus = synthesize_corpus(SynthSpec(seed=4, n_connections=12,
                                         filler_range=(0, 3),
                                         emit_streams=True))
    path = str(tmp_path / "planted.pcap")
    planted = wire.write_corpus_pcap(path, corpus, seed=4)
    ids, failed = wire.round_trip(path, planted)
    assert failed == []
    assert sorted(ids) == sorted(lc.connection_id for lc in corpus)

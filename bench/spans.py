"""Tracing for the benchmark's traced runs, from outside the program.

Each layer's public functions are wrapped at the names their callers look
them up by (``httpglass.cli.load_pcap``, ``httpglass.inference.
assemble_record_sample``, ``httpglass.forest.predict_scores``, ...), and
``httpglass.cli.main`` itself, whose span is the root of one command.  Every
call records a span: name, start, end, parent span and the command it
belongs to.  Spans stay in memory until the run ends.  Only a traced run
imports this module.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

import numpy as np

ROOT = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "counts")

    def __init__(self, name, start, parent, command):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.command = command
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []  # indices of the spans now running
        self.commands = 0
        self.touched = set()       # (connection, record) rows assembled

    def begin(self, name: str) -> Span:
        if not self.open:  # a root span starts a command
            self.commands += 1
            self.touched = set()
        span = Span(name, time.perf_counter(),
                    self.open[-1] if self.open else None, self.commands - 1)
        self.open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.open.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "command": s.command,
                                     "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def _count_features(tracer, args, result):
    tracer.touched.add((id(args[0]), args[1]))
    return {}


# (module, attribute, span name, counter over (tracer, args, result))
TARGETS = (
    ("httpglass.cli", "main", ROOT,
     lambda t, a, r: {"rows_touched": len(t.touched)}),
    ("httpglass.cli", "load_pcap", "capture.load_pcap",
     lambda t, a, r: {"connections": len(r),
                      "packets": sum(len(c.packets) for c in r),
                      "bytes": os.path.getsize(a[0])}),
    ("httpglass.cli", "parse_tls_records", "tlsparse.parse_tls_records",
     lambda t, a, r: {"rejected": 1} if r is None
     else {"records": len(r.records)}),
    ("httpglass.cli", "load_corpus", "corpus.load_corpus", None),
    ("httpglass.cli", "train_bundle", "inference.train_bundle", None),
    ("httpglass.cli", "classify_corpus", "inference.classify_corpus",
     lambda t, a, r: {"connections": len(r),
                      "passes": sum(x.iterations for x in r),
                      "converged": sum(bool(x.converged) for x in r)}),
    ("httpglass.cli", "load_bundle", "inference.load_bundle",
     lambda t, a, r: {"bytes": os.path.getsize(a[0])}),
    ("httpglass.cli", "save_bundle", "inference.save_bundle",
     lambda t, a, r: {"bytes": os.path.getsize(a[1])}),
    ("httpglass.inference", "assemble_record_sample",
     "features.assemble_record_sample", _count_features),
    ("httpglass.forest", "train", "forest.train", None),
    ("httpglass.forest", "predict_scores", "forest.predict_scores",
     lambda t, a, r: {"rows": _rows(a[1])}),
    ("httpglass.keyscan", "scan_file", "keyscan.scan_file",
     lambda t, a, r: {"hits": len(r)}),
    ("httpglass.keyscan", "scan", "keyscan.scan", None),
)


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if count is not None:
            span.counts = count(tracer, args, result)
        return result
    return traced


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    saved = []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, name, count))

    def restore():
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def command_metrics(spans: list[Span], base: int) -> tuple[dict, float]:
    """Per-layer numbers for the spans of one command, and the sum of their
    self times.

    ``base`` is the index of the command's root span in the tracer.  A span's
    self time is its duration minus its children's; calls are sequential,
    so children never overlap and their durations add.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent - base] -= s.duration
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    def own_total(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {}
    load_s = total("capture.load_pcap")
    m["capture.load_s"] = load_s
    m["capture.packets_per_s"] = _ratio(count("capture.load_pcap", "packets"), load_s)
    m["capture.mb_per_s"] = _ratio(count("capture.load_pcap", "bytes") / 1e6, load_s)
    m["capture.connections"] = count("capture.load_pcap", "connections")

    parse_s = total("tlsparse.parse_tls_records")
    m["tlsparse.parse_s"] = parse_s
    m["tlsparse.records_per_s"] = _ratio(
        count("tlsparse.parse_tls_records", "records"), parse_s)
    m["tlsparse.rejected"] = count("tlsparse.parse_tls_records", "rejected")

    feat = "features.assemble_record_sample"
    m["features.calls"] = calls(feat)
    m["features.s"] = total(feat)
    m["features.us_per_row"] = _ratio(1e6 * total(feat), calls(feat))
    m["features.rows_per_record"] = _ratio(calls(feat),
                                           spans[0].counts["rows_touched"])

    trains = [spans[i].duration for i in by_name.get("forest.train", ())]
    m["forest.train_calls"] = len(trains)
    m["forest.train_s"] = sum(trains)
    m["forest.train_s_per_forest.median"] = statistics.median(trains) if trains else 0.0
    m["forest.train_s_per_forest.max"] = max(trains, default=0.0)
    pred = "forest.predict_scores"
    rows = count(pred, "rows")
    m["forest.predict_calls"] = calls(pred)
    m["forest.predict_rows"] = rows
    m["forest.rows_per_call"] = _ratio(rows, calls(pred))
    m["forest.predict_s"] = total(pred)
    m["forest.us_per_row"] = _ratio(1e6 * total(pred), rows)

    cls = "inference.classify_corpus"
    m["inference.classify_s"] = total(cls)
    m["inference.classify_self_s"] = own_total(cls)
    m["inference.passes_mean"] = _ratio(count(cls, "passes"), count(cls, "connections"))
    m["inference.converged_frac"] = _ratio(count(cls, "converged"),
                                           count(cls, "connections"))
    m["inference.train_bundle_s"] = total("inference.train_bundle")
    m["inference.train_self_s"] = own_total("inference.train_bundle")
    m["inference.load_bundle_s"] = total("inference.load_bundle")
    m["inference.save_bundle_s"] = total("inference.save_bundle")
    m["inference.bundle_bytes"] = (count("inference.load_bundle", "bytes")
                                   + count("inference.save_bundle", "bytes"))

    m["corpus.load_corpus_s"] = total("corpus.load_corpus")

    m["keyscan.scan_s"] = total("keyscan.scan_file")
    m["keyscan.windows"] = calls("keyscan.scan")
    m["keyscan.hits"] = count("keyscan.scan_file", "hits")

    m["cli.self_s"] = own[0]
    return m, sum(own)


def layer_metrics(tracer: Tracer) -> tuple[dict, list[float], list[float]]:
    """The median of each per-layer metric over the traced commands, with
    each command's traced wall time and the sum of its spans' self times."""
    roots = [i for i, s in enumerate(tracer.spans) if s.name == ROOT]
    bounds = zip(roots, roots[1:] + [len(tracer.spans)])
    per_command, self_sums = [], []
    for start, stop in bounds:
        m, self_sum = command_metrics(tracer.spans[start:stop], start)
        per_command.append(m)
        self_sums.append(self_sum)
    walls = [tracer.spans[i].duration for i in roots]
    medians = {key: statistics.median(m[key] for m in per_command)
               for key in per_command[0]}
    return medians, walls, self_sums

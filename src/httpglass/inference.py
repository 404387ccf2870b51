"""Iterative protocol-semantics inference over parsed TLS connections.

Pipeline per connection: application-protocol determination (ALPN with a
record-length fallback), message-type detection over application_data records,
a first semantics pass per problem, then repeated enhanced passes whose extra
features summarize the previous iteration's predictions across the connection,
until the predictions reach a fixed point.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import forest as rf
from .capture import Direction
from .corpus import LabeledConnection
from .features import (ALP_FALLBACK_LEN, SCHEMA_ALP_FALLBACK, SCHEMA_STANDARD,
                       SCHEMA_TOR, STANDARD_LEN, TOR_LEN, alp_fallback_features,
                       record_categorical_indices, record_table)
# the row view stays importable here: bench/spans.py traces it by this name
from .features import assemble_record_sample  # noqa: F401
from .registry import ProblemSpec, Side, enhanced_length, registry
from .tlsparse import Connection

BUNDLE_FORMAT_VERSION = 2
MAX_ITERS_DEFAULT = 10
TOR_WINDOW = 5

PROTOCOLS = ("http1", "http2")
_ALPN_MAP = {"h2": "http2", "http/1.1": "http1", "http/1.0": "http1"}

DEFAULT_PARAMS = rf.TrainParams(n_trees=20, max_depth=14, min_leaf=2)


class InferenceError(Exception):
    pass


@dataclass
class RecordPrediction:
    index: int
    message_type: bool
    labels: dict[str, str] = field(default_factory=dict)


@dataclass
class ConnectionResult:
    protocol: str
    iterations: int
    converged: bool
    records: list[RecordPrediction]
    connection_id: str = ""

    def header_indices(self) -> list[int]:
        return [r.index for r in self.records if r.message_type]


@dataclass
class ProtocolModels:
    message_type: rf.Forest | None = None
    single: dict[str, rf.Forest] = field(default_factory=dict)
    enhanced: dict[str, rf.Forest] = field(default_factory=dict)


@dataclass
class ModelBundle:
    mode: str  # "standard" | "tor"
    include_etag: bool
    problems: dict[str, list[ProblemSpec]]
    models: dict[str, ProtocolModels]
    alp_fallback: rf.Forest | None = None
    default_protocol: str = "http1"

    def base_schema(self) -> str:
        return SCHEMA_TOR if self.mode == "tor" else SCHEMA_STANDARD


# --- indicator-block layout ---

def indicator_layout(problems: list[ProblemSpec]) -> list[tuple[str, int, tuple[str, ...]]]:
    """(problem id, offset, labels) for each registry entry, in registry order."""
    out = []
    off = 0
    for p in problems:
        out.append((p.id, off, p.labels))
        off += len(p.labels)
    return out


class _Layout:
    """A protocol's indicator-block layout, computed once and reused for
    every record, problem and pass."""

    def __init__(self, problems: list[ProblemSpec]):
        layout = indicator_layout(problems)
        self.width = enhanced_length(problems)
        self.span = {pid: (off, off + len(labels))
                     for pid, off, labels in layout}
        self.column = {(pid, label): off + k for pid, off, labels in layout
                       for k, label in enumerate(labels)}

    def vector(self, labels: dict[str, str]) -> np.ndarray:
        vec = np.zeros(self.width, dtype=np.float64)
        for pid, label in labels.items():
            col = self.column.get((pid, label))
            if col is not None:
                vec[col] = 1.0
        return vec


def indicator_vector(problems: list[ProblemSpec], labels: dict[str, str],
                     ) -> np.ndarray:
    """Concatenated one-hot indicators for one record's predicted labels.

    Labels outside a problem's set (the ``other`` class) and problems with no
    prediction on this record contribute zeros.
    """
    return _Layout(problems).vector(labels)


def _context(vecs: np.ndarray, target_pos: int,
             target_spans: list[tuple[int, int] | None],
             window: tuple[int, int] | None) -> np.ndarray:
    """Context blocks of one header, one row per target problem's indicator
    span ([start, end), or None for a problem outside the layout)."""
    lo, hi = window if window is not None else (0, len(vecs) - 1)
    total = vecs[max(lo, 0):max(hi + 1, 0)].sum(0)
    out = np.repeat(total[None], len(target_spans), axis=0)
    if lo <= target_pos <= hi:
        target = vecs[target_pos]
        for row, span in zip(out, target_spans):
            if span is not None:
                row[span[0]:span[1]] -= target[span[0]:span[1]]
    return out


def build_enhanced_features(problems: list[ProblemSpec],
                            header_vectors: np.ndarray,
                            target_pos: int, target_problem: str,
                            window: tuple[int, int] | None = None,
                            ) -> np.ndarray:
    """Context block for one (record, problem) classification.

    Sums the rows of ``header_vectors`` (predicted-label indicators, one per
    header record); the target record's contribution to the target problem's
    subcomponent is excluded.  ``window`` restricts the sum to header
    positions [lo, hi] (Tor mode).
    """
    layout = _Layout(problems)
    vecs = np.asarray(header_vectors, dtype=np.float64).reshape(
        -1, layout.width)
    return _context(vecs, target_pos, [layout.span.get(target_problem)],
                    window)[0]


def tor_enhanced_window(n_headers: int, pos: int,
                        radius: int = TOR_WINDOW) -> tuple[int, int]:
    """Header-position bounds [lo, hi] of the Tor-mode context window."""
    return max(0, pos - radius), min(n_headers - 1, pos + radius)


# --- classification ---

def classify_alp(bundle: ModelBundle, conn: Connection) -> str:
    alpn = conn.handshake.alpn_selected
    if alpn in _ALPN_MAP:
        return _ALPN_MAP[alpn]
    if bundle.alp_fallback is None:
        return bundle.default_protocol
    return rf.predict_labels(bundle.alp_fallback,
                             alp_fallback_features(conn)[None])[0]


# direction code of the records each side sends (plain ints: numpy compares
# them with the codes far faster than it does Direction members)
_SENDER = {Side.CLIENT: int(Direction.CLIENT_TO_SERVER),
           Side.SERVER: int(Direction.SERVER_TO_CLIENT)}


@dataclass
class _Headers:
    """One connection's header records: rows of its record table and the
    labels the per-problem models train on or predict."""

    base: np.ndarray              # base features, one row per header record
    directions: np.ndarray        # Direction code of each header record
    labels: list[dict[str, str]]  # ground truth (training) or predictions
    vecs: np.ndarray | None = None  # context indicator vector per header

    @classmethod
    def of(cls, conn: Connection, table: np.ndarray, header_idx: list[int],
           labels: list[dict[str, str]]) -> "_Headers":
        directions = np.array([conn.records[i].direction for i in header_idx],
                              dtype=np.int64)
        return cls(table[header_idx], directions, labels)

    def enhanced_rows(self, pos: int, spans: list[tuple[int, int]],
                      tor: bool) -> np.ndarray:
        """Enhanced-model inputs of header ``pos``: its base features and a
        context block, one row per target problem's indicator span."""
        window = tor_enhanced_window(len(self.vecs), pos) if tor else None
        ctx = _context(self.vecs, pos, spans, window)
        base = np.broadcast_to(self.base[pos], (len(spans), self.base.shape[1]))
        return np.hstack([base, ctx])


def _gather(headers: list[_Headers], p: ProblemSpec, labelled: bool = False,
            ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Base rows of the header records sent by p's side (with a label for p
    when ``labelled``), and their (index into ``headers``, position)."""
    picks = [[pos for pos in
              np.flatnonzero(h.directions == _SENDER[p.side]).tolist()
              if not labelled or p.id in h.labels[pos]] for h in headers]
    owners = [(j, pos) for j, sel in enumerate(picks) for pos in sel]
    if not owners:
        return np.zeros((0, 0)), owners
    return np.concatenate([h.base[sel] for h, sel in zip(headers, picks)]), owners


@dataclass
class _ConnState:
    conn: Connection
    connection_id: str
    protocol: str
    table: np.ndarray | None      # record table, until the headers are known
    msg_flags: list[bool] = field(default_factory=list)
    header_idx: list[int] = field(default_factory=list)  # header record indices
    h: _Headers | None = None
    iterations: int = 1
    converged: bool = False


SWITCH_MARGIN = 0.05


def classify_corpus(bundle: ModelBundle, conns: list[Connection],
                    max_iters: int = MAX_ITERS_DEFAULT,
                    connection_ids: list[str] | None = None,
                    ) -> list[ConnectionResult]:
    """Run the full iterative pipeline over a corpus.

    Connections are processed in lockstep so every model is invoked in large
    batches; iteration state is tracked per connection.  During enhanced
    iterations a prediction only changes when the model prefers the new
    label by more than ``SWITCH_MARGIN``; this hysteresis suppresses
    oscillation between near-tied labels without affecting fixed points.
    """
    if max_iters < 1:
        raise InferenceError("max_iters must be >= 1")
    ids = connection_ids or [f"conn-{i}" for i in range(len(conns))]
    mode = "tor" if bundle.mode == "tor" else "standard"
    states = [_ConnState(conn=conn, connection_id=cid,
                         protocol=classify_alp(bundle, conn),
                         table=record_table(conn, mode))
              for conn, cid in zip(conns, ids)]

    # message types, batched per protocol
    for protocol in PROTOCOLS:
        members = [s for s in states if s.protocol == protocol]
        model = bundle.models.get(protocol, ProtocolModels()).message_type
        for s in members:
            s.msg_flags = [False] * len(s.conn.records)
        app = [[rec.index for rec in s.conn.records if rec.type_code == 23]
               for s in members]
        if model is None or not any(app):
            continue
        flags = iter(rf.predict_labels(model, np.concatenate(
            [s.table[idx] for s, idx in zip(members, app)])))
        for s, idx in zip(members, app):
            for i in idx:
                s.msg_flags[i] = bool(int(next(flags)))

    for s in states:
        s.header_idx = [i for i, f in enumerate(s.msg_flags) if f]
        s.h = _Headers.of(s.conn, s.table, s.header_idx,
                          [{} for _ in s.header_idx])
        s.table = None

    # first semantics pass, batched per (protocol, problem)
    for protocol in PROTOCOLS:
        members = [s.h for s in states if s.protocol == protocol]
        models = bundle.models.get(protocol, ProtocolModels())
        for p in bundle.problems[protocol]:
            model = models.single.get(p.id)
            if model is None:
                continue
            X, owners = _gather(members, p)
            if owners:
                for (j, pos), label in zip(owners, rf.predict_labels(model, X)):
                    members[j].labels[pos][p.id] = label

    # iterative enhanced passes; records update sequentially within a pass so
    # each classification sees the freshest predictions (this converges far
    # faster than simultaneous updates)
    active = [s for s in states
              if s.header_idx and bundle.models.get(s.protocol)
              and bundle.models[s.protocol].enhanced]
    layouts = {protocol: _Layout(bundle.problems[protocol])
               for protocol in PROTOCOLS}
    for s in active:
        s.h.vecs = np.array([layouts[s.protocol].vector(lab)
                             for lab in s.h.labels])
    # each protocol's enhanced models, stacked to be walked together: one
    # predict call per (position, protocol), with a model index per row
    enhanced = {}
    for protocol in PROTOCOLS:
        models = bundle.models.get(protocol, ProtocolModels()).enhanced
        problems = [p for p in bundle.problems[protocol] if p.id in models]
        if problems:
            # model indices by the direction code of the records they label
            by_sender = {code: [k for k, p in enumerate(problems)
                                if _SENDER[p.side] == code]
                         for code in _SENDER.values()}
            enhanced[protocol] = (problems, by_sender, rf.Stack(
                [models[p.id] for p in problems]))
    while active and max(s.iterations for s in active) < max_iters:
        for s in active:
            s.converged = True  # until one of its labels moves in this pass
        max_headers = max(len(s.header_idx) for s in active)
        for pos in range(max_headers):
            for protocol, (problems, by_sender, stack) in enhanced.items():
                layout = layouts[protocol]
                jobs, blocks = [], []
                for s in active:
                    if s.protocol != protocol or pos >= len(s.header_idx):
                        continue
                    ks = by_sender[int(s.h.directions[pos])]
                    if ks:
                        jobs += [(s, k) for k in ks]
                        blocks.append(s.h.enhanced_rows(
                            pos, [layout.span[problems[k].id] for k in ks],
                            mode == "tor"))
                if not jobs:
                    continue
                scores = rf.predict_scores(stack, np.concatenate(blocks),
                                           [k for _, k in jobs])
                # a row's padding past its model's classes is zero and the
                # row sums to 1, so the padding never holds the first maximum
                bests = scores.argmax(axis=1).tolist()
                # every row is built already, and a connection's rows all sit
                # in this call, so labels and vectors can move right away
                for (s, k), row, best in zip(jobs, scores, bests):
                    p, model = problems[k], stack.forests[k]
                    label = model.classes[best]
                    current = s.h.labels[pos].get(p.id)
                    if current == label:
                        continue
                    if current is not None:
                        cur_score = row[model.classes.index(current)] \
                            if current in model.classes else 0.0
                        if row[best] - cur_score <= SWITCH_MARGIN:
                            continue
                    s.h.labels[pos][p.id] = label
                    s.h.vecs[pos] = layout.vector(s.h.labels[pos])
                    s.converged = False
        for s in active:
            s.iterations += 1
        active = [s for s in active
                  if not s.converged and s.iterations < max_iters]

    results = []
    for s in states:
        if not s.header_idx or not (bundle.models.get(s.protocol)
                                    and bundle.models[s.protocol].enhanced):
            s.converged = True
        by_pos = dict(zip(s.header_idx, s.h.labels))
        recs = [RecordPrediction(index=i, message_type=s.msg_flags[i],
                                 labels=by_pos.get(i, {}))
                for i in range(len(s.conn.records))]
        results.append(ConnectionResult(protocol=s.protocol,
                                        iterations=s.iterations,
                                        converged=s.converged, records=recs,
                                        connection_id=s.connection_id))
    return results


def classify_connection(bundle: ModelBundle, conn: Connection,
                        max_iters: int = MAX_ITERS_DEFAULT) -> ConnectionResult:
    return classify_corpus(bundle, [conn], max_iters)[0]


def single_pass_classify(bundle: ModelBundle, conn: Connection,
                         ) -> ConnectionResult:
    """First-pass predictions only (no enhanced iterations)."""
    return classify_corpus(bundle, [conn], max_iters=1)[0]


def aggregate_predictions(problems: list[ProblemSpec],
                          result: ConnectionResult) -> np.ndarray:
    """Connection-level sum of predicted indicator vectors (Section 5 enrichment)."""
    layout = _Layout(problems)
    total = np.zeros(layout.width, dtype=np.float64)
    for rec in result.records:
        if rec.message_type:
            total += layout.vector(rec.labels)
    return total


# --- training ---

def _child_params(params: rf.TrainParams, base_seed: int, index: int,
                  ) -> rf.TrainParams:
    seed = int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])
    return replace(params, seed=seed)


def train_bundle(train: list[LabeledConnection], mode: str = "standard",
                 params: rf.TrainParams | None = None,
                 include_etag: bool = False, seed: int = 0,
                 with_enhanced: bool = True) -> ModelBundle:
    """Train every model in the bundle from a labeled corpus.

    Enhanced-model training contexts are built with the same exclusion rule
    applied at inference time.  The context labels come from held-out
    first-pass predictions (two folds), so the enhanced models see the noisy
    count distributions they will receive when iterating.
    """
    if mode not in ("standard", "tor"):
        raise InferenceError(f"unknown mode {mode!r}")
    params = params or DEFAULT_PARAMS
    problems = {p: registry(p, include_etag) for p in PROTOCOLS}
    bundle = ModelBundle(mode=mode, include_etag=include_etag,
                         problems=problems, models={})
    cat = record_categorical_indices()
    model_index = 0

    protocols_seen = sorted({lc.protocol for lc in train})
    if not protocols_seen:
        raise InferenceError("empty training corpus")
    bundle.default_protocol = protocols_seen[0]
    if len(protocols_seen) > 1:
        X = np.stack([alp_fallback_features(lc.conn) for lc in train])
        y = [lc.protocol for lc in train]
        bundle.alp_fallback = rf.train(X, y, _child_params(params, seed, model_index),
                                       schema_id=SCHEMA_ALP_FALLBACK)
    model_index += 1

    for protocol in PROTOCOLS:
        members = [lc for lc in train if lc.protocol == protocol]
        pm = ProtocolModels()
        bundle.models[protocol] = pm
        if not members:
            model_index += 1 + 2 * len(problems[protocol])
            continue
        schema = bundle.base_schema()

        mt_rows, mt_y, headers = [], [], []
        for lc in members:
            table = record_table(lc.conn, mode)
            flags = {lr.index: lr.message_type for lr in lc.records}
            app = [rec.index for rec in lc.conn.records if rec.type_code == 23]
            mt_rows.append(table[app])
            mt_y += [int(flags.get(i, False)) for i in app]
            heads = [lr for lr in lc.records if lr.message_type]
            headers.append(_Headers.of(lc.conn, table,
                                       [lr.index for lr in heads],
                                       [lr.labels for lr in heads]))

        if len(set(mt_y)) > 1:
            pm.message_type = rf.train(np.concatenate(mt_rows), mt_y,
                                       _child_params(params, seed, model_index),
                                       categorical=cat, schema_id=schema)
        model_index += 1

        layout = _Layout(problems[protocol])
        if with_enhanced:
            context = _cross_fit_context(
                headers, problems[protocol], params, seed, cat, schema)
            for h, labels in zip(headers, context):
                h.vecs = np.array([layout.vector(lab) for lab in labels])

        for p in problems[protocol]:
            sX, owners = _gather(headers, p, labelled=True)
            sy = [headers[j].labels[pos][p.id] for j, pos in owners]
            if len(set(sy)) > 1:
                pm.single[p.id] = rf.train(
                    sX, sy, _child_params(params, seed, model_index),
                    categorical=cat, schema_id=f"{schema}/{p.id}")
                if with_enhanced:
                    eX = np.concatenate([headers[j].enhanced_rows(
                        pos, [layout.span[p.id]], mode == "tor")
                        for j, pos in owners])
                    pm.enhanced[p.id] = rf.train(
                        eX, sy,
                        _child_params(params, seed, model_index + 1),
                        categorical=cat, schema_id=f"{schema}/{p.id}/enhanced")
            model_index += 2
    return bundle


def _cross_fit_context(headers, problems, params, seed, cat, schema):
    """Held-out first-pass predictions to serve as enhanced-training context.

    Connections are split into two folds; each fold's header records are
    relabeled by per-problem models trained on the other fold.  Records a
    fold model cannot cover keep their ground-truth label.
    """
    context = [[dict(lab) for lab in h.labels] for h in headers]
    for fold in (0, 1):
        train_members = [h for m, h in enumerate(headers) if m % 2 != fold]
        predict_members = [m for m in range(len(headers)) if m % 2 == fold]
        if not train_members or not predict_members:
            continue
        for k, p in enumerate(problems):
            sX, owners = _gather(train_members, p, labelled=True)
            sy = [train_members[j].labels[pos][p.id] for j, pos in owners]
            if len(set(sy)) < 2:
                continue
            child = _child_params(params, seed, 1000 + 10 * k + fold)
            model = rf.train(sX, sy, child, categorical=cat,
                             schema_id=f"{schema}/{p.id}/fold{fold}")
            X, owners = _gather([headers[m] for m in predict_members], p,
                                labelled=True)
            if owners:
                for (j, pos), label in zip(owners, rf.predict_labels(model, X)):
                    context[predict_members[j]][pos][p.id] = label
    return context


# --- persistence ---

def bundle_to_dict(bundle: ModelBundle) -> dict:
    def opt(f):
        return rf.to_dict(f) if f is not None else None

    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "mode": bundle.mode,
        "include_etag": bundle.include_etag,
        "default_protocol": bundle.default_protocol,
        "alp_fallback": opt(bundle.alp_fallback),
        "protocols": {
            protocol: {
                "message_type": opt(pm.message_type),
                "single": {pid: rf.to_dict(f) for pid, f in sorted(pm.single.items())},
                "enhanced": {pid: rf.to_dict(f)
                             for pid, f in sorted(pm.enhanced.items())},
            }
            for protocol, pm in sorted(bundle.models.items())
        },
    }


def bundle_from_dict(data: dict) -> ModelBundle:
    if data.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise InferenceError("unsupported bundle format version")

    def load(name, d):
        """The forest saved as ``d``, if any; a refused one is named."""
        try:
            return rf.from_dict(d) if d is not None else None
        except rf.ForestError as exc:
            raise InferenceError(f"forest {name} is refused: {exc}") from exc

    include_etag = data["include_etag"]
    bundle = ModelBundle(
        mode=data["mode"], include_etag=include_etag,
        problems={p: registry(p, include_etag) for p in PROTOCOLS},
        models={}, alp_fallback=load("alp_fallback", data["alp_fallback"]),
        default_protocol=data["default_protocol"])
    for protocol, pd in data["protocols"].items():
        bundle.models[protocol] = ProtocolModels(
            message_type=load(f"{protocol}.message_type", pd["message_type"]),
            single={pid: load(f"{protocol}.single.{pid}", d)
                    for pid, d in pd["single"].items()},
            enhanced={pid: load(f"{protocol}.enhanced.{pid}", d)
                      for pid, d in pd["enhanced"].items()},
        )
    _check_schemas(bundle)
    return bundle


def _check_schemas(bundle: ModelBundle) -> None:
    """Every forest must carry the schema id and width ``train_bundle`` gives
    it for the bundle's mode; otherwise prediction would fail far from the
    cause, or read features in the wrong places."""
    if bundle.mode not in ("standard", "tor"):
        raise InferenceError(f"unknown bundle mode {bundle.mode!r}")
    schema = bundle.base_schema()
    width = TOR_LEN if bundle.mode == "tor" else STANDARD_LEN
    expected = [("alp_fallback", bundle.alp_fallback, SCHEMA_ALP_FALLBACK,
                 ALP_FALLBACK_LEN)]
    for protocol, pm in bundle.models.items():
        if protocol not in PROTOCOLS:
            raise InferenceError(f"unknown protocol {protocol!r} in bundle")
        context = enhanced_length(bundle.problems[protocol])
        expected.append((f"{protocol}.message_type", pm.message_type, schema,
                         width))
        expected += [(f"{protocol}.single.{pid}", f, f"{schema}/{pid}", width)
                     for pid, f in pm.single.items()]
        expected += [(f"{protocol}.enhanced.{pid}", f,
                      f"{schema}/{pid}/enhanced", width + context)
                     for pid, f in pm.enhanced.items()]
    for name, f, schema_id, n_features in expected:
        if f is not None and (f.schema_id, f.n_features) != (schema_id,
                                                             n_features):
            raise InferenceError(
                f"forest {name} has schema {f.schema_id!r} with "
                f"{f.n_features} features; a {bundle.mode!r} bundle needs "
                f"{schema_id!r} with {n_features}")


def save_bundle(bundle: ModelBundle, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_dict(bundle), fh, sort_keys=True)


def load_bundle(path: str) -> ModelBundle:
    with open(path) as fh:
        return bundle_from_dict(json.load(fh))

"""Iterative protocol-semantics inference over parsed TLS connections.

Pipeline per connection: application-protocol determination (ALPN with a
record-length fallback), message-type detection over application_data records,
a first semantics pass per problem, then repeated enhanced passes whose extra
features summarize the newest predictions around each header, until a pass
moves no label or ``max_iters`` passes have run (Tor-mode labels can cycle).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import HttpglassError, forest as rf
from .capture import Direction
from .corpus import LabeledConnection
from .features import (ALP_FALLBACK_LEN, MODES, SCHEMA_ALP_FALLBACK,
                       alp_fallback_features, record_categorical_indices,
                       record_table)
# the row view stays importable here: bench/spans.py traces it by this name
from .features import assemble_record_sample  # noqa: F401
from .registry import PROTOCOLS, Layout, ProblemSpec, Side, registry
from .tlsparse import Connection

BUNDLE_FORMAT_VERSION = 2
MAX_ITERS_DEFAULT = 10
TOR_WINDOW = 5

_ALPN_MAP = {"h2": "http2", "http/1.1": "http1", "http/1.0": "http1"}

DEFAULT_PARAMS = rf.TrainParams(n_trees=20, max_depth=14, min_leaf=2)


class InferenceError(HttpglassError):
    pass


@dataclass
class ConnectionResult:
    """What classification decided for one connection: each predicted
    header's labels, keyed by record index, after the first pass and after
    the last."""
    protocol: str
    iterations: int
    converged: bool
    first_pass: dict[int, dict[str, str]]
    headers: dict[int, dict[str, str]]


@dataclass
class ProtocolModels:
    message_type: rf.Forest | None = None
    single: dict[str, rf.Forest] = field(default_factory=dict)
    enhanced: dict[str, rf.Forest] = field(default_factory=dict)


@dataclass
class ModelBundle:
    mode: str  # "standard" | "tor"
    include_etag: bool
    models: dict[str, ProtocolModels]
    alp_fallback: rf.Forest | None = None
    default_protocol: str = "http1"

    @cached_property
    def problems(self) -> dict[str, list[ProblemSpec]]:
        return {p: registry(p, self.include_etag) for p in PROTOCOLS}

    def base_schema(self) -> str:
        return MODES[self.mode][0]


# --- classification ---

def _protocols(bundle: ModelBundle, conns: list[Connection]) -> list[str]:
    """Each connection's protocol: the one its ALPN names, else the bundle's
    fallback forest's label (one call scores every such connection), else
    the bundle's default."""
    protocols = [_ALPN_MAP.get(conn.handshake.alpn_selected) for conn in conns]
    unknown = [i for i, p in enumerate(protocols) if p is None]
    if unknown and bundle.alp_fallback is not None:
        labels = rf.predict_labels(bundle.alp_fallback, np.stack(
            [alp_fallback_features(conns[i]) for i in unknown]))
    else:
        labels = [bundle.default_protocol] * len(unknown)
    for i, label in zip(unknown, labels):
        protocols[i] = label
    return protocols


# direction code of the records each side sends (plain ints: numpy compares
# them with the codes far faster than it does Direction members)
_SENDER = {Side.CLIENT: int(Direction.CLIENT_TO_SERVER),
           Side.SERVER: int(Direction.SERVER_TO_CLIENT)}

# a Tor-mode context window, as offsets from its header
_WINDOW = np.arange(-TOR_WINDOW, TOR_WINDOW + 1)


class _Block:
    """The header records of a set of connections as one array block, which
    training, cross-fitting and both passes read and label.

    Connection c's headers are the ``size[c]`` rows from ``start[c]``, each
    with its record ``index``, ``base`` features, ``direction`` code,
    ``protocol`` (its index in PROTOCOLS), connection ``conn`` and
    ``labels`` dict (ground truth in training, predictions in inference).
    TOR_WINDOW padding rows (direction and protocol -1) lie before, between
    and after the connections, so a Tor-mode window is a fixed-width slice
    that never crosses into another connection.

    ``context`` adds the enhanced models' input: ``vecs``, one indicator
    vector per row in its own protocol's layout, then a scratch column that
    no window reads, and each connection's total, kept in ``totals`` as
    labels move.  The indicators are 0/1, so every float64 sum of them is
    exact, whatever its order.  ``static`` builds, once, the part of a
    stack's walk input that the passes never change; ``compact`` completes
    it for the rows being scored.
    """

    def __init__(self, conns: list[Connection], protocols: list[str],
                 heads: list[list[int]], bases: list[np.ndarray],
                 labels: list[list[dict[str, str]]], tor: bool):
        self.size = np.array([len(idx) for idx in heads], dtype=np.int64)
        # each connection's headers and the padding after them
        ends = np.cumsum(self.size + TOR_WINDOW)
        self.start = ends - self.size
        n_rows = TOR_WINDOW + (int(ends[-1]) if ends.size else 0)
        self.tor = tor
        self.index = np.full(n_rows, -1, dtype=np.int64)
        self.base = np.zeros((n_rows, max((b.shape[1] for b in bases),
                                          default=0)))
        self.direction = np.full(n_rows, -1, dtype=np.int64)
        self.protocol = np.full(n_rows, -1, dtype=np.int64)
        self.conn = np.full(n_rows, -1, dtype=np.int64)
        self.labels: list[dict[str, str]] = [{} for _ in range(n_rows)]
        for c, (conn, protocol, idx, base, labs, at) in enumerate(zip(
                conns, protocols, heads, bases, labels, self.start.tolist())):
            rows = slice(at, at + len(idx))
            self.index[rows], self.base[rows] = idx, base
            self.direction[rows] = conn.records["direction"][idx]
            self.protocol[rows] = PROTOCOLS.index(protocol)
            self.conn[rows] = c
            self.labels[rows] = labs

    def sent(self, p: ProblemSpec, labelled: bool = False) -> np.ndarray:
        """The rows p's models label: the headers p's side sends in p's
        protocol (with a label for p when ``labelled``), in block order."""
        rows = np.flatnonzero((self.direction == _SENDER[p.side])
                              & (self.protocol == PROTOCOLS.index(p.protocol)))
        if labelled:
            rows = rows[np.array([p.id in self.labels[g]
                                  for g in rows.tolist()], dtype=bool)]
        return rows

    def context(self, labels: list[dict[str, str]],
                layouts: dict[str, Layout]) -> None:
        """Index the enhanced models' context: each row's ``labels`` dict as
        indicators in its own protocol's layout (of ``layouts``), zero past
        that layout's width and on the rows of other protocols."""
        width = max(layout.width for layout in layouts.values())
        self.vecs = np.zeros((len(labels), width + 1))
        for protocol, layout in layouts.items():
            rows = np.flatnonzero(self.protocol == PROTOCOLS.index(protocol))
            self.vecs[rows, :layout.width] = layout.vectors(
                [labels[g] for g in rows.tolist()])
        self.totals = np.add.reduceat(self.vecs, self.start, axis=0)

    def window(self, heads: np.ndarray) -> np.ndarray:
        """Each header's context: the indicator sums over its window (its
        whole connection in standard mode), its own included, in the
        columns of ``vecs`` (the scratch one too)."""
        if self.tor:
            return self.vecs[heads[:, None] + _WINDOW].sum(axis=1)
        return self.totals.take(self.conn[heads], axis=0)

    def static(self, stack: rf.Stack, masks: np.ndarray,
               rows: np.ndarray) -> None:
        """Build the static part of ``stack``'s walk input for each of
        ``rows``, once, and drop ``base``.  Forest k of the stack reads a
        row's base features, then its context less the header's own
        indicators under ``masks[k]``; only the context columns change as
        labels move, and every categorical test reads a base feature (the
        loader checks it), so the static part is the numeric base columns
        and every membership column."""
        n_base = self.base.shape[1]
        self.at = np.full(len(self.labels), -1, dtype=np.int64)
        self.at[rows] = np.arange(rows.size)
        self.table = stack.compact(self.base[rows], n_base)
        del self.base
        # the numeric columns the stack reads in the context, which come
        # last among its numeric columns
        late = stack.columns >= n_base
        self.late = slice(stack.columns.size - np.count_nonzero(late),
                          stack.columns.size)
        self.late_columns = stack.columns[late] - n_base
        self.late_masks = masks[:, self.late_columns]

    def compact(self, heads: np.ndarray, head_of: np.ndarray,
                ks: np.ndarray) -> np.ndarray:
        """The walk input of rows whose row i is header ``heads[head_of[i]]``
        for the stack's forest ``ks[i]``: its static part, with the context
        columns the stack reads written in."""
        W = self.table.take(self.at[heads[head_of]], axis=0)
        columns = self.late_columns
        ctx = self.window(heads).take(columns, axis=1)
        own = self.vecs.take(heads, axis=0).take(columns, axis=1)
        np.subtract(ctx.take(head_of, axis=0), own.take(head_of, axis=0)
                    * self.late_masks.take(ks, axis=0), out=W[:, self.late])
        return W


SWITCH_MARGIN = 0.05


def classify_corpus(bundle: ModelBundle, conns: list[Connection],
                    max_iters: int = MAX_ITERS_DEFAULT,
                    ) -> list[ConnectionResult]:
    """Run the full iterative pipeline over a corpus, classifying every
    connection in lockstep so that every model is invoked in large batches.

    The headers of all connections, whatever their protocol, form one
    ``_Block``.  Message types and the first pass make one call per protocol
    and problem; the enhanced passes then run once over the whole block.  No
    model, label or context vector crosses protocols: a header is scored
    only by its own protocol's models, on its own connection's context.
    """
    if max_iters < 1:
        raise InferenceError("max_iters must be >= 1")
    results = [ConnectionResult(protocol=protocol, iterations=1,
                                converged=False, first_pass={}, headers={})
               for protocol in _protocols(bundle, conns)]

    # message types, one batch per protocol; only the header rows of its
    # record tables are kept
    heads, bases = [[] for _ in conns], [None for _ in conns]
    for protocol, pm in bundle.models.items():
        picked = [c for c, res in enumerate(results)
                  if res.protocol == protocol]
        tables = [record_table(conns[c], bundle.mode) for c in picked]
        app = [np.flatnonzero(conns[c].records["type_code"] == 23).tolist()
               for c in picked]
        if pm.message_type is not None and any(app):
            flags = iter(rf.predict_labels(pm.message_type, np.concatenate(
                [table[idx] for table, idx in zip(tables, app)])))
            for c, table, idx in zip(picked, tables, app):
                heads[c] = [i for i in idx if int(next(flags))]
        for c, table in zip(picked, tables):
            bases[c] = table[heads[c]]
        del tables
    block = _Block(conns, [res.protocol for res in results], heads, bases,
                   [[{} for _ in idx] for idx in heads], bundle.mode == "tor")
    del bases

    # first semantics pass, one batch per protocol and problem
    for protocol, pm in bundle.models.items():
        for p in bundle.problems[protocol]:
            rows = block.sent(p)
            if rows.size and p.id in pm.single:
                labels = rf.predict_labels(pm.single[p.id], block.base[rows])
                for g, label in zip(rows.tolist(), labels):
                    block.labels[g][p.id] = label

    # each connection's headers, read from its row range; the passes below
    # relabel the row dicts in place
    for res, at, n in zip(results, block.start.tolist(), block.size.tolist()):
        res.headers = dict(zip(block.index[at:at + n].tolist(),
                               block.labels[at:at + n]))
        res.first_pass = {i: dict(labels) for i, labels in res.headers.items()}
        # a connection without headers or enhanced models has nothing to
        # iterate, so it has converged
        res.converged = not (bundle.models[res.protocol].enhanced and n)
    if max_iters > 1 and not all(res.converged for res in results):
        _enhanced_passes(bundle, block, results, max_iters)
    return results


def _enhanced_passes(bundle: ModelBundle, block: _Block,
                     results: list[ConnectionResult], max_iters: int) -> None:
    """Iterative enhanced passes over the connections not yet converged.

    Records update sequentially within a pass, so each classification sees
    the freshest predictions (this converges far faster than simultaneous
    updates), and during a pass a prediction only changes when the model
    prefers the new label by more than ``SWITCH_MARGIN``; this hysteresis
    suppresses oscillation between near-tied labels without affecting fixed
    points.

    Each header position is one block: the rows of all connections' headers
    there, of every protocol, are scored at once, with one
    ``predict_compact`` call over the stacked enhanced models of every
    protocol.  Its input is the block's static table, built once, with the
    context columns the stack reads written in (``_Block.compact``).  A
    row's context takes its own protocol's ``Layout`` in the columns after
    the base features; past that layout's width it is zero, and its
    protocol's forests never read there.  The moves a call decides land as
    arrays, and the label dicts are written once, after the last pass.
    Only ``dirty`` headers are scored: first every header a model labels,
    then each one whose window (its whole connection in standard mode) had
    a label move since it was last scored; a clean header's input and
    labels are unchanged, so none could move.  A moved header stays dirty
    until it is next scored, so a connection has converged when a pass
    leaves none of its headers dirty.
    """
    iterated = {res.protocol for res in results if not res.converged}
    layouts = {protocol: Layout(bundle.problems[protocol])
               for protocol in PROTOCOLS if protocol in iterated}
    # every iterated protocol's enhanced models
    enhanced = [p for protocol in layouts for p in bundle.problems[protocol]
                if p.id in bundle.models[protocol].enhanced]
    forests = [bundle.models[p.protocol].enhanced[p.id] for p in enhanced]
    stack = rf.Stack(forests)
    block.context(block.labels, layouts)
    scratch = block.vecs.shape[1] - 1  # vecs' last column, past the layouts
    # masks[k]: model k's span; uses[g, k]: model k labels header g;
    # current[g, k]: the class index of its label there, which the first
    # pass set (the loader holds the model's classes to its single model's);
    # column[k, c]: the indicator column of model k's class c, the scratch
    # column for a class outside the layout
    masks = np.zeros((len(enhanced), scratch))
    uses = np.zeros((len(block.labels), len(enhanced)), dtype=bool)
    current = np.zeros(uses.shape, dtype=np.int64)
    column = np.full((len(enhanced), max(f.n_classes for f in forests)),
                     scratch, dtype=np.int64)
    for k, (p, forest) in enumerate(zip(enhanced, forests)):
        layout = layouts[p.protocol]
        masks[k, :layout.width] = layout.mask(p.id)
        rows = block.sent(p)
        uses[rows, k] = True
        index = {c: i for i, c in enumerate(forest.classes)}
        current[rows, k] = [index[block.labels[g][p.id]]
                            for g in rows.tolist()]
        column[k, :forest.n_classes] = [layout.column.get((p.id, c), scratch)
                                        for c in forest.classes]
    first = current.copy()
    has_model = uses.any(axis=1)
    block.static(stack, masks, np.flatnonzero(has_model))
    dirty = has_model.copy()
    sizes = block.size
    live = np.array([c for c, res in enumerate(results) if not res.converged],
                    dtype=np.int64)
    while live.size:
        for pos in range(int(sizes[live].max())):
            heads = block.start[live[sizes[live] > pos]] + pos
            heads = heads[dirty[heads]]
            if not heads.size:
                continue
            dirty[heads] = False
            head_of, ks = np.nonzero(uses[heads])
            scores = rf.predict_compact(stack,
                                        block.compact(heads, head_of, ks), ks)
            g = heads[head_of]
            r = np.arange(len(ks))
            best = scores.argmax(axis=1)
            cur = current[g, ks]
            # a row's padding past its model's classes is zero and the row
            # sums to 1, so the padding never holds the first maximum
            moves = np.flatnonzero(scores[r, best] - scores[r, cur]
                                   > SWITCH_MARGIN)
            if not moves.size:
                continue
            # the call scored all its rows, and each header once, so every
            # move lands at once; a header's models have disjoint spans
            g, k, old, new = g[moves], ks[moves], cur[moves], best[moves]
            current[g, k] = new
            old, new = column[k, old], column[k, new]
            block.vecs[g, old] = 0.0
            block.vecs[g, new] = 1.0
            c = block.conn[g]
            np.add.at(block.totals, (c, old), -1.0)
            np.add.at(block.totals, (c, new), 1.0)
            # the rows whose window holds a moved header
            if block.tor:
                reach = (g[:, None] + _WINDOW).ravel()
            else:  # the rows of each moved header's connection
                moved = np.zeros(heads.size, dtype=bool)
                moved[head_of[moves]] = True
                c = block.conn[heads[moved]]
                n = block.size[c]
                reach = np.arange(n.sum()) + np.repeat(
                    block.start[c] - (np.cumsum(n) - n), n)
            dirty[reach] = has_model[reach]
        busy = np.logical_or.reduceat(dirty, block.start)
        for c in live.tolist():
            results[c].iterations += 1
            results[c].converged = not busy[c]
        live = np.array([c for c in live.tolist() if busy[c]
                         and results[c].iterations < max_iters],
                        dtype=np.int64)
    for g, k in zip(*np.nonzero(current != first)):
        block.labels[g][enhanced[k].id] = forests[k].classes[current[g, k]]


def aggregate_predictions(problems: list[ProblemSpec],
                          result: ConnectionResult) -> np.ndarray:
    """Connection-level sum of predicted indicator vectors (Section 5 enrichment)."""
    return Layout(problems).vectors(list(result.headers.values())).sum(axis=0)


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

    Each ``rf.grow`` call trains the forests that share a table: the
    protocol fallback; then per protocol its message-type forest, its fold
    and single forests (all on the header block's base features), and its
    enhanced forests (all on one table of base features and context).
    """
    if mode not in MODES:
        raise InferenceError(f"unknown mode {mode!r}")
    params = params or DEFAULT_PARAMS
    bundle = ModelBundle(mode=mode, include_etag=include_etag, models={})
    problems = bundle.problems
    cat = record_categorical_indices()

    def view(rows, y, index: int, schema_id: str, columns) -> rf.View:
        """The bundle's forest number ``index``, seeded from (seed, index);
        a record schema's window slots have categorical columns, the
        protocol fallback's record lengths none."""
        categorical = cat if schema_id != SCHEMA_ALP_FALLBACK else frozenset()
        return rf.View(rows, columns, y, _child_params(params, seed, index),
                       categorical, schema_id)

    def alone(X, y, index: int, schema_id: str) -> rf.Forest:
        """Forest number ``index``, on all of the table X."""
        return rf.grow(X, [view(np.arange(len(y)), y, index, schema_id,
                                np.arange(X.shape[1]))])[0]

    protocols_seen = sorted({lc.protocol for lc in train})
    if not protocols_seen:
        raise InferenceError("empty training corpus")
    bundle.default_protocol = protocols_seen[0]
    if len(protocols_seen) > 1:
        X = np.stack([alp_fallback_features(lc.conn) for lc in train])
        bundle.alp_fallback = alone(X, [lc.protocol for lc in train], 0,
                                    SCHEMA_ALP_FALLBACK)
    model_index = 1

    for protocol in PROTOCOLS:
        members = [lc for lc in train if lc.protocol == protocol]
        pm = ProtocolModels()
        bundle.models[protocol] = pm
        if not members:
            model_index += 1 + 2 * len(problems[protocol])
            continue
        schema = bundle.base_schema()

        mt_rows, mt_y, heads, bases, labels = [], [], [], [], []
        for lc in members:
            table = record_table(lc.conn, mode)
            app = np.flatnonzero(lc.conn.records["type_code"] == 23).tolist()
            mt_rows.append(table[app])
            mt_y += [int(lc.records[i].message_type) for i in app]
            heads.append([lr.index for lr in lc.records if lr.message_type])
            labels.append([lr.labels for lr in lc.records if lr.message_type])
            bases.append(table[heads[-1]])
        del table
        block = _Block([lc.conn for lc in members], [protocol] * len(members),
                       heads, bases, labels, mode == "tor")
        del bases
        if mt_y:  # one class still labels this protocol's records
            pm.message_type = alone(np.concatenate(mt_rows), mt_y,
                                    model_index, schema)
        del mt_rows
        model_index += 1

        # the single forests, and the cross-fit fold forests that label
        # held-out headers as enhanced-training context: connections are
        # split into two folds by parity, and each fold's headers are
        # labelled by a forest trained on the other fold (a fold forest that
        # would see fewer than two labels is skipped, and its headers keep
        # their ground truth); all of them on the block's base features
        base = np.arange(block.base.shape[1])
        singles, views, folds, fold_views = [], [], [], []
        for k, p in enumerate(problems[protocol]):
            rows = block.sent(p, labelled=True)
            sy = [block.labels[g][p.id] for g in rows.tolist()]
            index = model_index + 2 * k
            if len(set(sy)) > 1:
                singles.append((p, rows, sy, index))
                views.append(view(rows, sy, index, f"{schema}/{p.id}", base))
            parity = block.conn[rows] % 2
            for fold in (0, 1) if with_enhanced else ():
                other = parity != fold
                y = [label for label, keep in zip(sy, other.tolist()) if keep]
                if not other.all() and len(set(y)) > 1:
                    folds.append((p, rows[~other]))
                    fold_views.append(view(rows[other], y, 1000 + 10 * k + fold,
                                           f"{schema}/{p.id}/fold{fold}", base))
        forests = rf.grow(block.base, views + fold_views)
        for (p, *_), f in zip(singles, forests):
            pm.single[p.id] = f
        folds = list(zip(folds, forests[len(views):]))
        del forests
        model_index += 2 * len(problems[protocol])
        if not (with_enhanced and singles):
            continue

        # context from the fold forests, then the enhanced forests on one
        # table: the used headers' base features, their context, and their
        # context less their own indicators, so each forest's columns take
        # the latter over its problem's span and the former elsewhere
        context = [dict(lab) for lab in block.labels]
        while folds:  # each fold forest is dropped once it has labelled
            (p, held), model = folds.pop()
            for g, label in zip(held.tolist(),
                                rf.predict_labels(model, block.base[held])):
                context[g][p.id] = label
            del model
        layout = Layout(problems[protocol])
        block.context(context, {protocol: layout})
        del context
        used = np.zeros(len(block.labels), dtype=bool)
        for _, rows, _, _ in singles:
            used[rows] = True
        used = np.flatnonzero(used)
        ctx = block.window(used)[:, :-1]
        table = np.hstack([block.base[used], ctx,
                           ctx - block.vecs[used, :-1]])
        del ctx, block
        width, span = base.size, layout.width
        enhanced = rf.grow(table, [
            view(np.searchsorted(used, rows), sy, index + 1,
                 f"{schema}/{p.id}/enhanced",
                 np.concatenate([base, width + np.arange(span)
                                 + span * (layout.mask(p.id) > 0)]))
            for p, rows, sy, index in singles])
        for (p, *_), f in zip(singles, enhanced):
            pm.enhanced[p.id] = f
    return bundle


# --- persistence ---

def bundle_to_dict(bundle: ModelBundle, forest=rf.to_dict) -> dict:
    """The bundle's JSON layout, with ``forest(f)`` in place of each forest
    ``f``."""
    def opt(f):
        return forest(f) if f is not None else None

    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "mode": bundle.mode,
        "include_etag": bundle.include_etag,
        "default_protocol": bundle.default_protocol,
        "alp_fallback": opt(bundle.alp_fallback),
        "protocols": {
            protocol: {
                "message_type": opt(pm.message_type),
                "single": {pid: forest(f)
                           for pid, f in sorted(pm.single.items())},
                "enhanced": {pid: forest(f)
                             for pid, f in sorted(pm.enhanced.items())},
            }
            for protocol, pm in sorted(bundle.models.items())
        },
    }


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise InferenceError(f"{name} must be a JSON object")
    return value


def _field(d: dict, key: str, name: str = "the bundle"):
    try:
        return d[key]
    except KeyError:
        raise InferenceError(f"{name} lacks the key {key!r}") from None


def bundle_from_dict(data: dict) -> ModelBundle:
    if _object(data, "a bundle").get("format_version") \
            != BUNDLE_FORMAT_VERSION:
        raise InferenceError("unsupported bundle format version")

    names, saved = [], []

    def gather(name, d, optional=False):
        """The place of the forest saved as ``d`` among those to load, or
        None for an optional one saved as null."""
        if optional and d is None:
            return None
        names.append(name)
        saved.append(d)
        return len(saved) - 1

    mode, include_etag = _field(data, "mode"), _field(data, "include_etag")
    alp_fallback = gather("alp_fallback", _field(data, "alp_fallback"), True)
    default_protocol = _field(data, "default_protocol")
    places = {}
    for protocol, pd in _object(_field(data, "protocols"),
                                "protocols").items():
        name = f"protocols.{protocol}"
        pd = _object(pd, name)
        places[protocol] = (
            gather(f"{protocol}.message_type",
                   _field(pd, "message_type", name), True),
            *({pid: gather(f"{protocol}.{kind}.{pid}", d) for pid, d in
               _object(_field(pd, kind, name),
                       f"{protocol}.{kind}").items()}
              for kind in ("single", "enhanced")))
    # every forest in one call, so that the bundle is one node table
    try:
        forests = rf.from_dicts(saved)
    except rf.ForestError as exc:
        which = "a forest" if exc.forest is None else \
            f"forest {names[exc.forest]}"
        raise InferenceError(f"{which} is refused: {exc}") from exc

    def at(place):
        return None if place is None else forests[place]

    bundle = ModelBundle(
        mode=mode, include_etag=include_etag, models={
            protocol: ProtocolModels(
                message_type=at(mt),
                single={pid: forests[i] for pid, i in single.items()},
                enhanced={pid: forests[i] for pid, i in enhanced.items()})
            for protocol, (mt, single, enhanced) in places.items()},
        alp_fallback=at(alp_fallback), default_protocol=default_protocol)
    fallback = [bundle.default_protocol,
                *(bundle.alp_fallback.classes if bundle.alp_fallback else [])]
    if any(p not in PROTOCOLS for p in fallback):
        raise InferenceError(f"the protocol fallback names {fallback!r}; "
                             f"only {PROTOCOLS!r} are known")
    _check_schemas(bundle)
    return bundle


def _check_schemas(bundle: ModelBundle) -> None:
    """The bundle must have the shape ``train_bundle`` writes: an entry for
    every protocol, every forest with the schema id and width training
    gives it for the bundle's mode, a message-type forest no class but 0
    and 1, every enhanced forest the single forest of its problem with the
    same classes, categorical splits on base features only, and as many
    trees as each other enhanced forest;
    otherwise prediction would fail far from the cause, or read features in
    the wrong places."""
    if not isinstance(bundle.mode, str) or bundle.mode not in MODES:
        raise InferenceError(f"unknown bundle mode {bundle.mode!r}")
    if sorted(bundle.models) != sorted(PROTOCOLS):
        raise InferenceError(f"the bundle has models for "
                             f"{sorted(bundle.models)!r}; it needs an entry "
                             f"for each of {list(PROTOCOLS)!r}")
    schema, width = MODES[bundle.mode]
    expected = [("alp_fallback", bundle.alp_fallback, SCHEMA_ALP_FALLBACK,
                 ALP_FALLBACK_LEN)]
    for protocol, pm in bundle.models.items():
        known = {p.id for p in bundle.problems[protocol]}
        if not known.issuperset([*pm.single, *pm.enhanced]):
            raise InferenceError(f"bundle has models for an unknown protocol "
                                 f"or problem under {protocol!r}")
        classes = pm.message_type.classes if pm.message_type else []
        if any(c not in (0, 1) for c in classes):
            raise InferenceError(f"forest {protocol}.message_type has classes "
                                 f"{classes!r}; a message type is 0 or 1")
        # the enhanced passes start from the single forest's labels, and
        # test each categorical split once, on the base features
        for pid, f in pm.enhanced.items():
            single = pm.single.get(pid)
            if single is None or single.classes != f.classes:
                raise InferenceError(
                    f"forest {protocol}.enhanced.{pid} needs a single forest "
                    f"{protocol}.single.{pid} with its classes {f.classes!r}")
            if (f.nodes.feature[f.nodes.cat >= 0] >= width).any():
                raise InferenceError(
                    f"forest {protocol}.enhanced.{pid} has a categorical "
                    f"split on a context feature; only the first {width} "
                    f"(base) features may be categorical")
        context = Layout(bundle.problems[protocol]).width
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
    # one stacked walk scores every enhanced forest, so they need as many
    # trees each
    trees = sorted({f.n_trees for pm in bundle.models.values()
                    for f in pm.enhanced.values()})
    if len(trees) > 1:
        raise InferenceError(f"the enhanced forests have {trees} trees; "
                             f"they need as many each")


def save_bundle(bundle: ModelBundle, path: str) -> None:
    """Write the bytes of ``json.dumps(bundle_to_dict(bundle),
    sort_keys=True)``, one forest at a time: each is converted and encoded
    in one ``json.dumps`` call (the C encoder; ``json.dump`` runs the pure
    Python one), so only one forest's dict is alive at once."""
    def write(fh, value):
        if isinstance(value, rf.Forest):
            fh.write(json.dumps(rf.to_dict(value), sort_keys=True))
        elif isinstance(value, dict):
            fh.write("{")
            for i, key in enumerate(sorted(value)):
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                write(fh, value[key])
            fh.write("}")
        else:
            fh.write(json.dumps(value))

    with open(path, "w") as fh:
        write(fh, bundle_to_dict(bundle, forest=lambda f: f))


def load_bundle(path: str) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also UnicodeDecodeError
            raise InferenceError(f"the bundle is not JSON: {exc}") from exc
    return bundle_from_dict(data)

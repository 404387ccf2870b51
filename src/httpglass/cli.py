"""Command-line interface.

Subcommands: extract, train, infer, eval, synth, keyscan, importance.
All randomness flows from --seed; outputs carry schema-version fields and are
byte-identical across runs with the same inputs and seed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import HttpglassError, __version__
from . import evalx, forest as rf, keyscan
from .capture import load_pcap
from .corpus import (SynthSpec, ground_truth_session, load_corpus, save_corpus,
                     split_dataset, synthesize_corpus)
from .features import MODES, feature_names, record_table
from .inference import (DEFAULT_PARAMS, MAX_ITERS_DEFAULT, classify_corpus,
                        load_bundle, save_bundle, train_bundle)
from .registry import PROTOCOLS, Layout
from .tlsparse import parse_connections
# the one-connection call stays importable here: bench/spans.py traces it by
# this name
from .tlsparse import parse_tls_records  # noqa: F401

OUTPUT_SCHEMA_VERSION = 1


def _parse_connections(pcap_path: str):
    return [(f"{pcap_path}#{i}", conn) for i, conn in
            enumerate(parse_connections(load_pcap(pcap_path)))
            if conn is not None]


def _open_out(path):
    # "-" is standard output, which stays open for in-process callers
    return open(path, "w") if path and path != "-" else \
        contextlib.nullcontext(sys.stdout)


def _load_any(args):
    """Connections from --pcap or --corpus (labels dropped for inference)."""
    if getattr(args, "pcap", None):
        return _parse_connections(args.pcap)
    corpus = load_corpus(args.corpus)
    return [(lc.connection_id, lc.conn) for lc in corpus]


def cmd_extract(args) -> int:
    conns = _parse_connections(args.pcap)
    schema, _ = MODES[args.mode]
    csv = args.format == "csv"
    with _open_out(args.out) as out:
        if csv:
            out.write("connection,record,"
                      + ",".join(feature_names(schema)) + "\n")
        for cid, conn in conns:
            for index, values in enumerate(record_table(conn, args.mode)):
                if csv:
                    out.write(f"{cid},{index},"
                              + ",".join(map(repr, values.tolist())) + "\n")
                else:
                    out.write(json.dumps(
                        {"schema_version": OUTPUT_SCHEMA_VERSION,
                         "schema_id": schema, "connection": cid,
                         "record": index,
                         "values": list(values)}, sort_keys=True) + "\n")
    return 0


def _train_params(args) -> rf.TrainParams:
    return rf.TrainParams(
        n_trees=args.trees, max_depth=args.max_depth, min_leaf=args.min_leaf,
        seed=args.seed)


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    bundle = train_bundle(corpus, mode=args.mode, params=_train_params(args),
                          include_etag=args.include_etag, seed=args.seed)
    trained = sum(len(pm.single) for pm in bundle.models.values())
    if trained == 0:
        print("error: no problem model could be trained", file=sys.stderr)
        return 1
    seen = {lc.protocol for lc in corpus}
    for protocol, pm in sorted(bundle.models.items()):
        missing = [p.id for p in bundle.problems[protocol]
                   if p.id not in pm.single]
        if protocol not in seen:
            print(f"warning: {protocol}: skipped (the corpus has no "
                  f"{protocol} connection)", file=sys.stderr)
        elif missing:
            print(f"warning: {protocol}: skipped (too few labels): "
                  f"{', '.join(missing)}", file=sys.stderr)
    save_bundle(bundle, args.out)
    return 0


def cmd_infer(args) -> int:
    bundle = load_bundle(args.bundle)
    items = _load_any(args)
    results = classify_corpus(bundle, [c for _, c in items],
                              max_iters=args.max_iters)
    # each line is the json.dumps(..., sort_keys=True) of one (record,
    # problem); the keys around "label" and "problem" are formatted once,
    # and each distinct label and problem is encoded once (typed: 1, 1.0
    # and True are equal but encode apart)
    encode = functools.lru_cache(maxsize=None, typed=True)(json.dumps)
    with _open_out(args.out) as out:
        for (cid, conn), res in zip(items, results):
            head = (f'{{"connection": {json.dumps(cid)}, '
                    f'"converged": {json.dumps(res.converged)}, "direction": ')
            direction = conn.records["direction"].tolist()
            for index, labels in res.headers.items():
                prefix = (f"{head}{direction[index]}, "
                          f'"iteration_count": {res.iterations}, "label": ')
                suffix = (f', "record": {index}, "schema_version": '
                          f'{OUTPUT_SCHEMA_VERSION}, "score": null}}\n')
                for problem, label in sorted(labels.items()):
                    out.write(f"{prefix}{encode(label)}, "
                              f'"problem": {encode(problem)}{suffix}')
    return 0


def cmd_eval(args) -> int:
    if args.experiment == "semantics":
        corpus = load_corpus(args.corpus)
        train, test = split_dataset(corpus, policy=args.split, seed=args.seed)
        bundle = train_bundle(train, mode=args.mode,
                              params=_train_params(args),
                              include_etag=args.include_etag, seed=args.seed)
        report = evalx.run_semantics_experiment(
            bundle, train, test,
            filter_misclassified=args.filter_misclassified)
        text = evalx.render_semantics_report(report)
    else:
        bundle = load_bundle(args.bundle)
        benign = load_corpus(args.benign)
        malicious = load_corpus(args.malicious)
        report = evalx.run_malware_experiment(
            benign, malicious, bundle, params=_train_params(args),
            seed=args.seed)
        text = evalx.render_malware_report(report)
    report["schema_version"] = OUTPUT_SCHEMA_VERSION
    with _open_out(args.out) as out:
        out.write(evalx.report_to_json(report) + "\n" if args.format == "json"
                  else text)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(seed=args.seed, n_connections=args.connections,
                     include_etag=args.include_etag)
    if args.preset == "correlated":
        spec.correlation = {"request.content_type": 0.9,
                            "response.content_type": 0.9}
        spec.noise_scale = {"request.content_type": 6.0,
                            "response.content_type": 6.0}
    corpus = synthesize_corpus(spec)
    save_corpus(args.out, corpus, spec)
    if args.ground_truth:
        with open(args.ground_truth, "w") as fh:
            for lc in corpus:
                session = ground_truth_session(lc)
                session["connection_id"] = lc.connection_id
                fh.write(json.dumps(session, sort_keys=True) + "\n")
    return 0


def cmd_keyscan(args) -> int:
    profiles = args.profiles.split(",") if args.profiles else None
    hits = keyscan.scan_file(args.input, profiles=profiles)
    with _open_out(args.out) as out:
        out.write(keyscan.emit_keys(hits))
    size = os.path.getsize(args.input)
    for profile in (profiles or keyscan.PROFILE_NAMES):
        n = sum(1 for h in hits if h.profile == profile)
        expected = keyscan.expected_false_positives(profile, size)
        print(f"{profile}: {n} hits "
              f"(random-data expectation {expected:.3g})", file=sys.stderr)
    return 0


def cmd_importance(args) -> int:
    bundle = load_bundle(args.bundle)
    pm = bundle.models[args.protocol]
    # message types have no enhanced stage
    model = (pm.enhanced if args.stage == "enhanced" else
             {**pm.single, "message_type": pm.message_type}).get(args.problem)
    if model is None:
        print(f"error: no {args.stage} model for {args.problem}",
              file=sys.stderr)
        return 1
    imp = rf.gini_importance(model)
    names = feature_names(bundle.base_schema())
    if len(imp) > len(names):  # an enhanced model's context columns
        names += Layout(bundle.problems[args.protocol]).names()
    order = np.argsort(-imp)[:args.top]
    with _open_out(args.out) as out:
        for i in order:
            out.write(f"{imp[i]:.6f} {names[i]}\n")
    if not rf.forest_has_splits(model):
        print("warning: model has no splits; importances are all zero",
              file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of ``main``: parsing leaves it unchanged, and nothing may change
    it."""
    parser = argparse.ArgumentParser(
        prog="httpglass",
        description="HTTP semantics inference over encrypted TLS traffic")
    parser.add_argument("--version", action="version", version=__version__)

    # each subparser gets fresh parent parsers: argparse parents share action
    # objects, so per-subcommand set_defaults would otherwise leak across
    # subcommands
    def common():
        c = argparse.ArgumentParser(add_help=False)
        c.add_argument("--seed", type=int, default=0)
        c.add_argument("--out", default="-")
        return c

    def train_common():
        t = argparse.ArgumentParser(add_help=False)
        t.add_argument("--trees", type=int, default=DEFAULT_PARAMS.n_trees)
        t.add_argument("--max-depth", type=int,
                       default=DEFAULT_PARAMS.max_depth)
        t.add_argument("--min-leaf", type=int,
                       default=DEFAULT_PARAMS.min_leaf)
        t.add_argument("--include-etag", action="store_true")
        return t

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common()],
                       help="pcap -> per-record feature dump")
    p.add_argument("--mode", choices=tuple(MODES), default="standard")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("pcap")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common(), train_common()],
                       help="labeled corpus -> model bundle")
    p.add_argument("--mode", choices=tuple(MODES), default="standard")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[common()],
                       help="classify connections with a trained bundle")
    p.add_argument("--pcap")
    p.add_argument("--corpus")
    p.add_argument("--bundle", required=True)
    p.add_argument("--max-iters", type=int, default=MAX_ITERS_DEFAULT)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval",
                       parents=[common(), train_common()],
                       help="run an experiment and report metrics")
    p.add_argument("--mode", choices=tuple(MODES), default="standard")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--experiment", choices=("semantics", "malware"),
                   default="semantics")
    p.add_argument("--corpus")
    p.add_argument("--split", choices=("by_week", "by_fraction"),
                   default="by_week")
    p.add_argument("--filter-misclassified", action="store_true")
    p.add_argument("--bundle")
    p.add_argument("--benign")
    p.add_argument("--malicious")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", parents=[common()],
                       help="generate a synthetic labeled corpus")
    p.add_argument("--include-etag", action="store_true")
    p.add_argument("--connections", type=int, default=200)
    p.add_argument("--preset", choices=("default", "correlated"),
                   default="default")
    p.add_argument("--ground-truth",
                   help="also write decrypted-session JSONL here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("keyscan", parents=[common()],
                       help="scan a memory dump for key material")
    p.add_argument("input")
    p.add_argument("--profiles",
                   help="comma-separated subset of: "
                        + ",".join(keyscan.PROFILE_NAMES))
    p.set_defaults(func=cmd_keyscan)

    p = sub.add_parser("importance", parents=[common()],
                       help="top Gini importances of a bundle model")
    p.add_argument("--bundle", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, default="http1")
    p.add_argument("--problem", required=True)
    p.add_argument("--stage", choices=("single", "enhanced"), default="single")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "infer" and bool(args.pcap) == bool(args.corpus):
        print("error: infer needs one of --pcap and --corpus", file=sys.stderr)
        return 2
    if args.command == "eval" and args.experiment == "malware" and \
            not (args.bundle and args.benign and args.malicious):
        print("error: malware eval needs --bundle, --benign, --malicious",
              file=sys.stderr)
        return 2
    if args.command == "eval" and args.experiment == "semantics" \
            and not args.corpus:
        print("error: semantics eval needs --corpus", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if getattr(args, "max_depth", 0) < 0:
        print("error: --max-depth must be >= 0", file=sys.stderr)
        return 2
    if getattr(args, "top", 1) < 1:
        print("error: --top must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (HttpglassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

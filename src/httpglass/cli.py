"""Command-line interface.

Subcommands: extract, train, infer, eval, synth, keyscan, importance.
All randomness flows from --seed; outputs carry schema-version fields and are
byte-identical across runs with the same inputs and seed.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import evalx, forest as rf, keyscan
from .capture import PcapError, load_pcap
from .corpus import (CorpusError, SynthSpec, ground_truth_session,
                     load_corpus, save_corpus, split_dataset, synthesize_corpus)
from .features import (SCHEMA_STANDARD, SCHEMA_TOR, feature_names,
                       record_table)
from .inference import (DEFAULT_PARAMS, InferenceError, classify_corpus,
                        load_bundle, save_bundle, train_bundle)
from .tlsparse import parse_tls_records

OUTPUT_SCHEMA_VERSION = 1


def _parse_connections(pcap_path: str):
    conns = []
    for i, raw in enumerate(load_pcap(pcap_path)):
        conn = parse_tls_records(raw)
        if conn is not None:
            conns.append((f"{pcap_path}#{i}", conn))
    return conns


def _open_out(path):
    return open(path, "w") if path and path != "-" else sys.stdout


def _load_any(args):
    """Connections from --pcap or --corpus (labels dropped for inference)."""
    if getattr(args, "pcap", None):
        return _parse_connections(args.pcap)
    corpus = load_corpus(args.corpus)
    return [(lc.connection_id, lc.conn) for lc in corpus]


def cmd_extract(args) -> int:
    conns = _parse_connections(args.pcap)
    schema = SCHEMA_TOR if args.mode == "tor" else SCHEMA_STANDARD
    csv = args.format == "csv"
    with _open_out(args.out) as out:
        if csv:
            out.write("connection,record,"
                      + ",".join(feature_names(schema)) + "\n")
        for cid, conn in conns:
            for rec, values in zip(conn.records,
                                   record_table(conn, args.mode)):
                if csv:
                    out.write(f"{cid},{rec.index},"
                              + ",".join(map(repr, values.tolist())) + "\n")
                else:
                    out.write(json.dumps(
                        {"schema_version": OUTPUT_SCHEMA_VERSION,
                         "schema_id": schema, "connection": cid,
                         "record": rec.index,
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
    for protocol, pm in sorted(bundle.models.items()):
        missing = [p.id for p in bundle.problems[protocol]
                   if p.id not in pm.single]
        if missing:
            print(f"warning: {protocol}: skipped (too few labels): "
                  f"{', '.join(missing)}", file=sys.stderr)
    save_bundle(bundle, args.out)
    return 0


def cmd_infer(args) -> int:
    bundle = load_bundle(args.bundle)
    items = _load_any(args)
    results = classify_corpus(bundle, [c for _, c in items],
                              max_iters=args.max_iters,
                              connection_ids=[cid for cid, _ in items])
    with _open_out(args.out) as out:
        for (cid, conn), res in zip(items, results):
            for rp in res.records:
                if not rp.message_type:
                    continue
                direction = int(conn.records[rp.index].direction)
                for problem, label in sorted(rp.labels.items()):
                    out.write(json.dumps(
                        {"schema_version": OUTPUT_SCHEMA_VERSION,
                         "connection": cid, "record": rp.index,
                         "direction": direction, "problem": problem,
                         "label": label, "score": None,
                         "iteration_count": res.iterations,
                         "converged": res.converged}, sort_keys=True) + "\n")
    return 0


def cmd_eval(args) -> int:
    if args.experiment == "semantics":
        corpus = load_corpus(args.corpus)
        train, test = split_dataset(corpus, policy=args.split, seed=args.seed)
        report = evalx.run_semantics_experiment(
            train, test, mode=args.mode, params=_train_params(args),
            include_etag=args.include_etag, seed=args.seed,
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
    import os
    size = os.path.getsize(args.input)
    for profile in (profiles or keyscan.PROFILE_NAMES):
        n = sum(1 for h in hits if h.profile == profile)
        expected = keyscan.expected_false_positives(profile, size)
        print(f"{profile}: {n} hits "
              f"(random-data expectation {expected:.3g})", file=sys.stderr)
    return 0


def cmd_importance(args) -> int:
    bundle = load_bundle(args.bundle)
    pm = bundle.models.get(args.protocol)
    if pm is None:
        print(f"error: bundle has no models for {args.protocol}",
              file=sys.stderr)
        return 1
    model = pm.message_type if args.problem == "message_type" else \
        (pm.enhanced if args.stage == "enhanced" else pm.single).get(args.problem)
    if model is None:
        print(f"error: no {args.stage} model for {args.problem}",
              file=sys.stderr)
        return 1
    imp = rf.gini_importance(model)
    base = feature_names(bundle.base_schema())
    names = base + [f"semantics[{i}]" for i in range(len(imp) - len(base))]
    order = np.argsort(-imp)[:args.top]
    with _open_out(args.out) as out:
        for i in order:
            out.write(f"{imp[i]:.6f} {names[i]}\n")
    if not rf.forest_has_splits(model):
        print("warning: model has no splits; importances are all zero",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mode", choices=("standard", "tor"), default="standard")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("pcap")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common(), train_common()],
                       help="labeled corpus -> model bundle")
    p.add_argument("--mode", choices=("standard", "tor"), default="standard")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[common()],
                       help="classify connections with a trained bundle")
    p.add_argument("--pcap")
    p.add_argument("--corpus")
    p.add_argument("--bundle", required=True)
    p.add_argument("--max-iters", type=int, default=10)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval",
                       parents=[common(), train_common()],
                       help="run an experiment and report metrics")
    p.add_argument("--mode", choices=("standard", "tor"), default="standard")
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
    p.add_argument("--protocol", choices=("http1", "http2"), default="http1")
    p.add_argument("--problem", required=True)
    p.add_argument("--stage", choices=("single", "enhanced"), default="single")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "infer" and not (args.pcap or args.corpus):
        print("error: infer needs --pcap or --corpus", file=sys.stderr)
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
    try:
        return args.func(args)
    except (PcapError, rf.ForestError, InferenceError, CorpusError, OSError,
            ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

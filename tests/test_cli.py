"""End-to-end command-line workflows."""

import argparse
import copy
import hashlib
import json
from pathlib import Path

import pytest

from httpglass.capture import write_pcap
from httpglass.cli import build_parser, main
from httpglass.corpus import load_corpus
from httpglass.evalx import render_semantics_report
from httpglass.features import SCHEMA_STANDARD, feature_names
from httpglass.keyscan import build_fixture
from httpglass.registry import Layout, registry

from helpers import handshake_payloads, pcap_frames, tls_stream


@pytest.fixture()
def sample_pcap(tmp_path):
    path = str(tmp_path / "sample.pcap")
    ch, sh = handshake_payloads(alpn_selected="http/1.1")
    write_pcap(path, pcap_frames(
        [ch, tls_stream([(23, b"q" * 150)])],
        [sh, tls_stream([(23, b"r" * 900)])]))
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_csv(sample_pcap, tmp_path, capsys):
    out = str(tmp_path / "features.csv")
    code, _, _ = _run(capsys, "extract", sample_pcap, "--out", out)
    assert code == 0
    lines = Path(out).read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["connection", "record"]
    assert len(header) == 2 + 174
    assert len(lines) >= 5  # header + 4 records
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        for cell in cells[2:]:
            float(cell)  # plain numbers, not numpy reprs


def test_extract_tor_jsonl(sample_pcap, tmp_path, capsys):
    out = str(tmp_path / "features.jsonl")
    code, _, _ = _run(capsys, "extract", sample_pcap, "--mode", "tor",
                      "--format", "jsonl", "--out", out)
    assert code == 0
    rows = [json.loads(l) for l in Path(out).read_text().splitlines()]
    assert rows
    for row in rows:
        assert row["schema_id"] == "record-v1-tor"
        assert len(row["values"]) == 66
        assert row["schema_version"] == 1


def test_synth_train_infer_eval_pipeline(tmp_path, capsys):
    corpus = str(tmp_path / "corpus.jsonl")
    gt = str(tmp_path / "sessions.jsonl")
    bundle = str(tmp_path / "bundle.json")
    preds = str(tmp_path / "preds.jsonl")
    report = str(tmp_path / "report.json")

    code, _, _ = _run(capsys, "synth", "--connections", "40", "--seed", "3",
                      "--out", corpus, "--ground-truth", gt)
    assert code == 0
    assert len(load_corpus(corpus)) == 40
    sessions = [json.loads(l) for l in Path(gt).read_text().splitlines()]
    assert len(sessions) == 40
    assert all("tls_records" in s for s in sessions)

    code, _, err = _run(capsys, "train", corpus, "--trees", "8",
                        "--out", bundle)
    assert code == 0

    code, _, _ = _run(capsys, "infer", "--corpus", corpus, "--bundle", bundle,
                      "--out", preds)
    assert code == 0
    lines = Path(preds).read_text().splitlines()
    # each line is byte-identical to the sorted-key dump of its object
    assert lines == [json.dumps(json.loads(l), sort_keys=True) for l in lines]
    rows = [json.loads(l) for l in lines]
    assert rows
    for row in rows[:20]:
        assert set(row) == {"schema_version", "connection", "record",
                            "direction", "problem", "label", "score",
                            "iteration_count", "converged"}
        assert row["score"] is None
        assert 1 <= row["iteration_count"] <= 10

    code, _, _ = _run(capsys, "eval", "--experiment", "semantics",
                      "--corpus", corpus, "--split", "by_fraction",
                      "--trees", "8", "--out", report)
    assert code == 0
    parsed = json.loads(Path(report).read_text())
    assert "problems" in parsed and "convergence" in parsed

    table = str(tmp_path / "report.txt")
    code, _, _ = _run(capsys, "eval", "--experiment", "semantics",
                      "--corpus", corpus, "--split", "by_fraction",
                      "--trees", "8", "--format", "text", "--out", table)
    assert code == 0
    assert Path(table).read_text() == render_semantics_report(parsed)


def test_train_names_an_absent_protocol_once(tmp_path, capsys):
    """A protocol the corpus has no connection of gets one warning line,
    not a list of its problems; a present protocol short of labels still
    lists its problems."""
    full, corpus = str(tmp_path / "full.jsonl"), str(tmp_path / "h1.jsonl")
    assert main(["synth", "--connections", "20", "--seed", "5",
                 "--out", full]) == 0
    with open(full) as src, open(corpus, "w") as dst:
        for line in src:
            if json.loads(line).get("protocol", "http1") == "http1":
                dst.write(line)
    assert any(c.protocol == "http2" for c in load_corpus(full))
    code, _, err = _run(capsys, "train", corpus, "--trees", "2",
                        "--out", str(tmp_path / "b.json"))
    assert code == 0
    lines = err.splitlines()
    assert [l for l in lines if "http2" in l] == [
        "warning: http2: skipped (the corpus has no http2 connection)"]
    assert all(l.startswith("warning: http1: skipped (too few labels): ")
               for l in lines if "http2" not in l)


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys,
                                                     monkeypatch):
    """``main`` reuses one parser: a Tor-mode train, an infer and a train in
    one process each parse to the Namespace a fresh parser gives, so no
    command's options or defaults leak into the next; ``--version`` still
    exits 0."""
    corpus, bundle = str(tmp_path / "c.jsonl"), str(tmp_path / "b.json")
    assert _run(capsys, "synth", "--connections", "6", "--seed", "2",
                "--out", corpus)[0] == 0
    parsed, parse = [], argparse.ArgumentParser.parse_args

    def recording(parser, args=None, namespace=None):
        parsed.append((parser, list(args)))
        return parse(parser, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    runs = [["train", corpus, "--mode", "tor", "--trees", "1",
             "--include-etag", "--out", bundle],
            ["infer", "--corpus", corpus, "--bundle", bundle,
             "--max-iters", "2", "--out", str(tmp_path / "p.jsonl")],
            ["train", corpus, "--trees", "1", "--out", bundle]]
    for argv in runs:
        assert _run(capsys, *argv)[0] == 0
    monkeypatch.undo()
    assert [args for _, args in parsed] == runs
    assert all(parser is build_parser() for parser, _ in parsed)
    for argv in runs:
        assert build_parser().parse_args(argv) == \
            build_parser.__wrapped__().parse_args(argv)
    assert build_parser().parse_args(runs[2]).mode == "standard"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert build_parser().parse_args(runs[0]) == \
        build_parser.__wrapped__().parse_args(runs[0])


def test_infer_requires_input(tmp_path, capsys):
    code, _, err = _run(capsys, "infer", "--bundle", "nope.json")
    assert code == 2
    assert "error" in err


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "infer", "--corpus", "missing.jsonl",
                        "--bundle", "missing.json")
    assert code == 1
    assert "error" in err


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory):
    """A small corpus and the JSON of a bundle trained on it."""
    d = tmp_path_factory.mktemp("bundle")
    corpus, bundle = str(d / "c.jsonl"), str(d / "b.json")
    assert main(["synth", "--connections", "20", "--seed", "5",
                 "--out", corpus]) == 0
    assert main(["train", corpus, "--trees", "2", "--out", bundle]) == 0
    return corpus, json.loads(Path(bundle).read_text())


def _format_1(data):
    data["format_version"] = 1


def _cyclic_child(data):
    forests = data["protocols"]["http1"]["single"].values()
    nodes = next(f["nodes"] for f in forests if f["nodes"]["feature"][0] >= 0)
    nodes["left"][0] = 0  # the root's left child is the root itself


def _default_http3(data):
    # with no fallback forest, a connection without ALPN gets the default
    data["default_protocol"] = "http3"
    data["alp_fallback"] = None


def _fallback_class_http3(data):
    data["alp_fallback"]["classes"][1] = "http3"


def _unknown_params_key(data):
    data["protocols"]["http1"]["single"]["request.method"]["params"][
        "shrinkage"] = 0.5


def _n_features_string(data):
    forest = data["protocols"]["http1"]["single"]["request.method"]
    forest["n_features"] = str(forest["n_features"])


def _n_features_float(data):
    forest = data["protocols"]["http1"]["single"]["request.method"]
    forest["n_features"] = float(forest["n_features"])


def _importance_too_long(data):
    forest = data["protocols"]["http1"]["single"]["request.method"]
    forest["importance_raw"].append(0.0)


def _importance_nan(data):
    forest = data["protocols"]["http1"]["single"]["request.method"]
    forest["importance_raw"][0] = float("nan")  # json.dumps writes NaN


def _importance_1e400(data):
    # json.dumps writes no overflowing literal; json.load reads this one as
    # infinity
    forest = data["protocols"]["http1"]["single"]["request.method"]
    forest["importance_raw"][0] = "1e400"
    return json.dumps(data).replace('"1e400"', "1e400")


def _unknown_problem(data):
    enhanced = data["protocols"]["http1"]["enhanced"]
    forest = copy.deepcopy(enhanced["request.method"])
    forest["schema_id"] = forest["schema_id"].replace("method", "teapot")
    enhanced["request.teapot"] = forest


def _bundle_as_list(data):
    return [data]


def _protocols_as_list(data):
    data["protocols"] = list(data["protocols"].values())


def _protocol_as_list(data):
    data["protocols"]["http1"] = list(data["protocols"]["http1"].values())


def _single_as_list(data):
    single = data["protocols"]["http1"]["single"]
    data["protocols"]["http1"]["single"] = list(single.values())


def _enhanced_as_list(data):
    enhanced = data["protocols"]["http1"]["enhanced"]
    data["protocols"]["http1"]["enhanced"] = list(enhanced.values())


def _forest_as_list(data):
    data["protocols"]["http1"]["single"]["request.method"] = [1]


def _single_forest_null(data):
    data["protocols"]["http1"]["single"]["request.method"] = None


def _no_include_etag(data):
    del data["include_etag"]


def _no_mode(data):
    del data["mode"]


def _no_alp_fallback(data):
    del data["alp_fallback"]


def _no_default_protocol(data):
    del data["default_protocol"]


def _no_message_type(data):
    del data["protocols"]["http1"]["message_type"]


def _no_enhanced(data):
    del data["protocols"]["http2"]["enhanced"]


def _message_type_classes_ab(data):
    data["protocols"]["http1"]["message_type"]["classes"] = ["a", "b"]


def _no_http2(data):
    del data["protocols"]["http2"]


def _enhanced_without_single(data):
    del data["protocols"]["http1"]["single"]["response.server"]


def _enhanced_classes_differ(data):
    data["protocols"]["http1"]["enhanced"]["response.server"]["classes"][
        0] = "teapot"


# each corruption and a part of the one error line it must give; a
# corruption that returns a value replaces the whole JSON with it, and one
# that returns a str the file's text
BAD_BUNDLES = {
    _format_1: "format version",
    _cyclic_child: "forest http1.single.",
    _default_http3: "'http3'",
    _fallback_class_http3: "'http3'",
    _unknown_params_key: "forest http1.single.request.method is refused",
    _n_features_string: "forest http1.single.request.method is refused",
    _n_features_float: "forest http1.single.request.method is refused",
    _importance_too_long: "forest http1.single.request.method is refused",
    _unknown_problem: "unknown protocol or problem under 'http1'",
    _bundle_as_list: "a bundle must be a JSON object",
    _protocols_as_list: "protocols must be a JSON object",
    _protocol_as_list: "protocols.http1 must be a JSON object",
    _single_as_list: "http1.single must be a JSON object",
    _enhanced_as_list: "http1.enhanced must be a JSON object",
    _forest_as_list: "forest http1.single.request.method is refused: "
                     "a forest must be a JSON object",
    _single_forest_null: "forest http1.single.request.method is refused: "
                         "a forest must be a JSON object",
    _no_include_etag: "the bundle lacks the key 'include_etag'",
    _no_mode: "the bundle lacks the key 'mode'",
    _no_alp_fallback: "the bundle lacks the key 'alp_fallback'",
    _no_default_protocol: "the bundle lacks the key 'default_protocol'",
    _no_message_type: "protocols.http1 lacks the key 'message_type'",
    _no_enhanced: "protocols.http2 lacks the key 'enhanced'",
    _message_type_classes_ab: "forest http1.message_type has classes "
                              "['a', 'b']",
    _no_http2: "the bundle has models for ['http1']; it needs an entry for "
               "each of ['http1', 'http2']",
    _enhanced_without_single: "forest http1.enhanced.response.server needs "
                              "a single forest http1.single.response.server",
    _enhanced_classes_differ: "forest http1.enhanced.response.server needs "
                              "a single forest http1.single.response.server "
                              "with its classes ['teapot', ",
    _importance_nan: "forest http1.single.request.method is refused: "
                     "importance_raw holds a NaN or infinite value",
    _importance_1e400: "forest http1.single.request.method is refused: "
                       "importance_raw holds a NaN or infinite value"}


@pytest.mark.parametrize("corrupt", list(BAD_BUNDLES))
def test_bad_bundle_is_one_error_line(saved_bundle, corrupt, tmp_path,
                                      capsys):
    corpus, data = saved_bundle
    assert data["alp_fallback"] is not None  # the corpus mixes protocols
    data = copy.deepcopy(data)
    data = corrupt(data) or data
    bundle = tmp_path / "bad.json"
    bundle.write_text(data if isinstance(data, str) else json.dumps(data))
    code, _, err = _run(capsys, "infer", "--corpus", corpus, "--bundle",
                        str(bundle), "--out", str(tmp_path / "p.jsonl"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert BAD_BUNDLES[corrupt] in err


def _protocol_http3(conn):
    conn["protocol"] = "http3"


def _label_index_999(conn):
    next(l for l in conn["labels"] if l["message_type"])["index"] = 999


def _labels_cut_to_3(conn):
    del conn["labels"][3:]


def _extra_handshake_key(conn):
    conn["handshake"]["handshake"] = {}


def _suites_as_int(conn):
    conn["handshake"]["offered_cipher_suites"] = 5


def _extension_as_string(conn):
    conn["handshake"]["advertised_extensions"][0] = "x"


def _length_as_string(conn):
    conn["records"][0][2] = str(conn["records"][0][2])


def _length_10_pow_400(conn):
    conn["records"][0][2] = 10**400


def _payload_len_negative(conn):
    conn["packets"][0][2] = -1


def _duration_nan(conn):
    conn["duration"] = float("nan")


def _packet_time_infinity(conn):
    conn["packets"][0][0] = float("inf")


def _avg_pkt_size_minus_infinity(conn):
    conn["records"][0][6] = float("-inf")


def _record_direction_2(conn):
    conn["records"][0][3] = 2


def _packet_direction_2(conn):
    conn["packets"][0][1] = 2


BAD_CORPORA = {
    _protocol_http3: "unknown protocol 'http3'",
    _label_index_999: "labels must be one per record",
    _labels_cut_to_3: "labels must be one per record",
    _extra_handshake_key: "TypeError: HandshakeMeta",
    _suites_as_int: "wrong type",
    _extension_as_string: "wrong type",
    _length_as_string: "wrong type",
    _length_10_pow_400: "outside int64",
    _payload_len_negative: "CorpusError: payload_len must be >= 0",
    _duration_nan: "ValueError: a number is not finite: NaN",
    _packet_time_infinity: "ValueError: a number is not finite: Infinity",
    _avg_pkt_size_minus_infinity:
        "ValueError: a number is not finite: -Infinity",
    _record_direction_2: "CorpusError: a record direction must be 0 or 1",
    _packet_direction_2: "CorpusError: a packet direction must be 0 or 1"}


@pytest.mark.parametrize("corrupt", list(BAD_CORPORA))
def test_bad_corpus_is_one_error_line(saved_bundle, corrupt, tmp_path,
                                      capsys):
    corpus, _ = saved_bundle
    lines = Path(corpus).read_text().splitlines()
    conn = json.loads(lines[2])
    corrupt(conn)
    lines[2] = json.dumps(conn)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = _run(capsys, "train", str(bad), "--trees", "2", "--out",
                        str(tmp_path / "b.json"))
    assert code == 1
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    assert BAD_CORPORA[corrupt] in err


@pytest.mark.parametrize("command", ["synth", "train", "eval"])
def test_negative_seed_is_one_error_line(saved_bundle, command, tmp_path,
                                         capsys):
    corpus, _ = saved_bundle
    argv = {"synth": ["synth"], "train": ["train", corpus],
            "eval": ["eval", "--corpus", corpus]}[command]
    code, _, err = _run(capsys, *argv, "--seed", "-1",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize("command, option, value", [
    ("train", "--max-depth", "-1"), ("eval", "--max-depth", "-1"),
    ("importance", "--top", "0"), ("importance", "--top", "-1")])
def test_out_of_range_option_is_one_error_line(saved_bundle, command, option,
                                               value, tmp_path, capsys):
    """A negative --max-depth or a --top below 1 is refused before the
    command runs: exit 2, one error line and no output file."""
    corpus, data = saved_bundle
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(data))
    argv = {"train": ["train", corpus],
            "eval": ["eval", "--corpus", corpus],
            "importance": ["importance", "--bundle", str(bundle),
                           "--problem", "request.method"]}[command]
    out = tmp_path / "out"
    code, _, err = _run(capsys, *argv, option, value, "--out", str(out))
    assert code == 2
    bound = "0" if option == "--max-depth" else "1"
    assert err == f"error: {option} must be >= {bound}\n"
    assert not out.exists()


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_infer_needs_one_input(saved_bundle, sample_pcap, both, tmp_path,
                               capsys):
    """infer reads one input: given neither --pcap nor --corpus, or both,
    it exits 2 with one error line and writes nothing."""
    corpus, data = saved_bundle
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(data))
    inputs = ["--pcap", sample_pcap, "--corpus", corpus] if both else []
    out = tmp_path / "p.jsonl"
    code, _, err = _run(capsys, "infer", *inputs, "--bundle", str(bundle),
                        "--out", str(out))
    assert code == 2
    assert err == "error: infer needs one of --pcap and --corpus\n"
    assert not out.exists()


def test_infer_on_a_capture_without_tls_writes_nothing(saved_bundle,
                                                      tmp_path, capsys):
    """A capture whose only connection is not TLS gives an empty output and
    exit 0."""
    _, data = saved_bundle
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(data))
    pcap = str(tmp_path / "plain.pcap")
    write_pcap(pcap, pcap_frames([b"GET / HTTP/1.1\r\n\r\n"],
                                 [b"HTTP/1.1 200 OK\r\n\r\n"]))
    out = tmp_path / "p.jsonl"
    code, _, err = _run(capsys, "infer", "--pcap", pcap, "--bundle",
                        str(bundle), "--out", str(out))
    assert (code, err) == (0, "")
    assert out.read_bytes() == b""


def test_unknown_keyscan_profile_is_one_error_line(tmp_path, capsys):
    dump = tmp_path / "dump.bin"
    dump.write_bytes(bytes(64))
    code, _, err = _run(capsys, "keyscan", str(dump), "--profiles", "nope")
    assert code == 1
    assert err == "error: unknown profile 'nope'\n"


def test_malware_eval_on_tiny_corpora_is_one_error_line(saved_bundle,
                                                        tmp_path, capsys):
    corpus, data = saved_bundle
    lines = Path(corpus).read_text().splitlines()
    tiny = tmp_path / "tiny.jsonl"
    tiny.write_text("\n".join(lines[:4]) + "\n")  # manifest + 3 connections
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(data))
    code, _, err = _run(capsys, "eval", "--experiment", "malware",
                        "--bundle", str(bundle), "--benign", str(tiny),
                        "--malicious", str(tiny))
    assert code == 1
    assert err == "error: benign corpus too small to split\n"


def test_corpus_of_another_schema_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"manifest": {"schema_version": 0}}) + "\n")
    code, _, err = _run(capsys, "train", str(corpus), "--out",
                        str(tmp_path / "b.json"))
    assert code == 1
    assert err == "error: unsupported corpus schema version\n"


@pytest.mark.parametrize("first_line", ["[1]", '{"manifest": [1]}', "1"],
                         ids=["list", "manifest_list", "number"])
def test_corpus_without_a_manifest_is_one_error_line(first_line, tmp_path,
                                                      capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(first_line + "\n")
    code, _, err = _run(capsys, "train", str(corpus), "--out",
                        str(tmp_path / "b.json"))
    assert code == 1
    assert err == "error: line 1 is not a corpus manifest\n"


def test_keyscan_command(tmp_path, capsys):
    dump = tmp_path / "dump.bin"
    dump.write_bytes(b"\xAB" * 500
                     + build_fixture("openssl", bytes(48))
                     + b"\xAB" * 500)
    out = str(tmp_path / "keys.txt")
    code, _, err = _run(capsys, "keyscan", str(dump), "--out", out)
    assert code == 0
    text = Path(out).read_text()
    assert text.startswith("openssl ")
    assert bytes(48).hex() in text
    assert "random-data expectation" in err


def test_keyscan_command_on_an_empty_file_leaves_stdout_open(tmp_path,
                                                              capsys):
    """The default ``--out -`` writes to standard output without closing it,
    so a second in-process command can still write there."""
    dump = tmp_path / "empty.bin"
    dump.write_bytes(b"")
    for _ in range(2):
        code, out, err = _run(capsys, "keyscan", str(dump))
        assert code == 0 and out == ""
        assert "openssl: 0 hits" in err


def test_importance_command(tmp_path, capsys):
    corpus = str(tmp_path / "c.jsonl")
    bundle = str(tmp_path / "b.json")
    _run(capsys, "synth", "--connections", "30", "--seed", "4",
         "--out", corpus)
    _run(capsys, "train", corpus, "--trees", "6", "--out", bundle)
    out = str(tmp_path / "imp.txt")
    code, _, _ = _run(capsys, "importance", "--bundle", bundle,
                      "--protocol", "http1", "--problem", "request.method",
                      "--out", out)
    assert code == 0
    lines = Path(out).read_text().strip().splitlines()
    assert 1 <= len(lines) <= 10
    for line in lines:
        weight, name = line.split(" ", 1)
        assert float(weight) >= 0.0


def test_importance_refuses_a_nan_importance(saved_bundle, tmp_path,
                                             capsys):
    """A NaN importance is refused at load, not printed as ``nan``."""
    _, data = saved_bundle
    data = copy.deepcopy(data)
    _importance_nan(data)
    bundle = str(tmp_path / "b.json")
    Path(bundle).write_text(json.dumps(data))
    code, _, err = _run(capsys, "importance", "--bundle", bundle,
                        "--protocol", "http1", "--problem", "request.method",
                        "--out", str(tmp_path / "imp.txt"))
    assert code == 1
    assert err == BAD_BUNDLES[_importance_nan].join(["error: ", "\n"])


def test_importance_names_enhanced_context_columns(saved_bundle, tmp_path,
                                                   capsys):
    """An enhanced model's context columns carry the names the malware
    enrichment gives them: ``semantics[<problem>=<label>]``."""
    _, data = saved_bundle
    bundle = str(tmp_path / "b.json")
    Path(bundle).write_text(json.dumps(data))
    code, out, _ = _run(capsys, "importance", "--bundle", bundle,
                        "--protocol", "http2", "--problem", "response.server",
                        "--stage", "enhanced", "--top", "1000")
    assert code == 0
    names = [line.split(" ", 1)[1] for line in out.splitlines()]
    expected = (feature_names(SCHEMA_STANDARD)
                + Layout(registry("http2")).names())
    assert sorted(names) == sorted(expected)
    assert "semantics[response.server=gws]" in names


def test_importance_without_a_model_is_one_error_line(saved_bundle, tmp_path,
                                                      capsys):
    """An http1-only bundle has no http2 models, no bundle has a model for
    an unknown problem, and message types have no enhanced stage: each is
    one error line and exit 1."""
    corpus, _ = saved_bundle
    lines = Path(corpus).read_text().splitlines()
    http1 = tmp_path / "http1.jsonl"
    http1.write_text("".join(line + "\n" for line in lines if
                             json.loads(line).get("protocol") != "http2"))
    bundle = str(tmp_path / "b.json")
    assert _run(capsys, "train", str(http1), "--trees", "2", "--out",
                bundle)[0] == 0
    for protocol, problem, stage in [("http2", "request.method", "single"),
                                     ("http1", "request.teapot", "single"),
                                     ("http1", "message_type", "enhanced")]:
        code, out, err = _run(capsys, "importance", "--bundle", bundle,
                              "--protocol", protocol, "--problem", problem,
                              "--stage", stage)
        assert (code, out) == (1, "")
        assert err == f"error: no {stage} model for {problem}\n"
    code, out, _ = _run(capsys, "importance", "--bundle", bundle,
                        "--problem", "message_type")
    assert code == 0 and out


def test_determinism_across_runs(tmp_path, capsys):
    """Identical --seed must produce byte-identical corpus, bundle, and
    prediction artifacts."""
    artifacts = {}
    for run in ("a", "b"):
        corpus = str(tmp_path / f"c_{run}.jsonl")
        bundle = str(tmp_path / f"b_{run}.json")
        preds = str(tmp_path / f"p_{run}.jsonl")
        _run(capsys, "synth", "--connections", "25", "--seed", "7",
             "--out", corpus)
        _run(capsys, "train", corpus, "--trees", "6", "--seed", "7",
             "--out", bundle)
        _run(capsys, "infer", "--corpus", corpus, "--bundle", bundle,
             "--out", preds)
        artifacts[run] = tuple(Path(p).read_bytes()
                               for p in (corpus, bundle, preds))
    assert artifacts["a"] == artifacts["b"]


# sha256 of each output of test_infer_and_eval_outputs_are_pinned
PINNED_OUTPUTS = {
    "standard": {
        "infer-1":
            "7d54b9485be1fb93336fc2efe3334aa3500255654d89230c8f2480a4bf88b8e1",
        "infer-10":
            "0c875099eda9bce8ff8c7c5cb95ebf6be53f8877594438cdf535225d6b98a0ec",
        "eval":
            "2b747426b5ee734e20722def78566e66a428f772c3b1ca2a726f0b037d2cc51f",
    },
    "tor": {
        "infer-1":
            "8bf413d23be9aacd4856f54834bb1a20128399fc82ce08bd3e7f3a9f0baa88d5",
        "infer-10":
            "bfc12f4ae3ed057b65184607d8fcc0590f833fa43b92a1ed07a3740eb4cc6b12",
        "eval":
            "f2799fd423c9bb5089be6956841dbdbb14f2c356df60e5436756dd7384f1174c",
    },
}


@pytest.mark.parametrize("mode", ["standard", "tor"])
def test_infer_and_eval_outputs_are_pinned(mode, tmp_path, capsys):
    """The bytes ``infer`` writes at one pass and at ten, and the bytes of
    an ``eval`` report as json, on a small seeded corpus."""
    corpus = str(tmp_path / "corpus.jsonl")
    bundle = str(tmp_path / "bundle.json")
    assert _run(capsys, "synth", "--connections", "30", "--seed", "11",
                "--out", corpus)[0] == 0
    assert _run(capsys, "train", corpus, "--mode", mode, "--trees", "4",
                "--seed", "2", "--out", bundle)[0] == 0
    got = {}
    for iters in ("1", "10"):
        code, out, _ = _run(capsys, "infer", "--corpus", corpus, "--bundle",
                            bundle, "--max-iters", iters)
        assert code == 0 and out
        got[f"infer-{iters}"] = hashlib.sha256(out.encode()).hexdigest()
    code, out, _ = _run(capsys, "eval", "--corpus", corpus, "--mode", mode,
                        "--split", "by_fraction", "--trees", "4",
                        "--seed", "2")
    assert code == 0
    got["eval"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_OUTPUTS[mode]

"""End-to-end command-line workflows."""

import json

import pytest

from httpglass.capture import write_pcap
from httpglass.cli import main
from httpglass.corpus import load_corpus
from httpglass.evalx import render_semantics_report
from httpglass.keyscan import build_fixture

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
    lines = open(out).read().strip().splitlines()
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
    rows = [json.loads(l) for l in open(out)]
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
    sessions = [json.loads(l) for l in open(gt)]
    assert len(sessions) == 40
    assert all("tls_records" in s for s in sessions)

    code, _, err = _run(capsys, "train", corpus, "--trees", "8",
                        "--out", bundle)
    assert code == 0

    code, _, _ = _run(capsys, "infer", "--corpus", corpus, "--bundle", bundle,
                      "--out", preds)
    assert code == 0
    rows = [json.loads(l) for l in open(preds)]
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
    parsed = json.load(open(report))
    assert "problems" in parsed and "convergence" in parsed

    table = str(tmp_path / "report.txt")
    code, _, _ = _run(capsys, "eval", "--experiment", "semantics",
                      "--corpus", corpus, "--split", "by_fraction",
                      "--trees", "8", "--format", "text", "--out", table)
    assert code == 0
    assert open(table).read() == render_semantics_report(parsed)


def test_infer_requires_input(tmp_path, capsys):
    code, _, err = _run(capsys, "infer", "--bundle", "nope.json")
    assert code == 2
    assert "error" in err


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "infer", "--corpus", "missing.jsonl",
                        "--bundle", "missing.json")
    assert code == 1
    assert "error" in err


def test_keyscan_command(tmp_path, capsys):
    dump = tmp_path / "dump.bin"
    dump.write_bytes(b"\xAB" * 500
                     + build_fixture("openssl", bytes(48))
                     + b"\xAB" * 500)
    out = str(tmp_path / "keys.txt")
    code, _, err = _run(capsys, "keyscan", str(dump), "--out", out)
    assert code == 0
    text = open(out).read()
    assert text.startswith("openssl ")
    assert bytes(48).hex() in text
    assert "random-data expectation" in err


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
    lines = open(out).read().strip().splitlines()
    assert 1 <= len(lines) <= 10
    for line in lines:
        weight, name = line.split(" ", 1)
        assert float(weight) >= 0.0


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
        artifacts[run] = tuple(open(p, "rb").read()
                               for p in (corpus, bundle, preds))
    assert artifacts["a"] == artifacts["b"]

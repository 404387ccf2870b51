"""Label normalization, ground-truth alignment, synthesis, and persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.capture import Direction
from httpglass.corpus import (AlignmentError, CorpusError, SynthSpec,
                              ground_truth_session, ingest_ground_truth,
                              load_corpus, normalize_label, save_corpus,
                              split_dataset, synthesize_corpus)
from httpglass.features import record_table
from httpglass.registry import (ABSENT, OTHER, PRESENT, Side, registry)
from httpglass.tlsparse import RECORD_DTYPE


def _problem(pid, protocol="http1"):
    return {p.id: p for p in registry(protocol, include_etag=True)}[pid]


class TestNormalizeLabel:
    def test_method(self):
        p = _problem("request.method")
        assert normalize_label(p, "get") == "GET"
        assert normalize_label(p, "POST") == "POST"
        assert normalize_label(p, "BREW") == OTHER

    def test_status(self):
        p = _problem("response.status_code")
        assert normalize_label(p, "200") == "200"
        assert normalize_label(p, "404") == "404"
        assert normalize_label(p, "418") == OTHER

    def test_content_type(self):
        p = _problem("response.content_type")
        assert normalize_label(p, "text/html; charset=utf-8") == "html"
        assert normalize_label(p, "application/json") == "json"
        assert normalize_label(p, "image/png") == "image"
        assert normalize_label(p, "video/mp4") == "video"
        assert normalize_label(p, "application/octet-stream") == "octet"
        assert normalize_label(p, "application/x-javascript") == "javascript"
        assert normalize_label(p, "font/woff2") == "font"
        assert normalize_label(p, "chemical/x-pdb") == OTHER

    def test_request_content_type(self):
        p = _problem("request.content_type")
        assert normalize_label(p, "application/json") == "json"
        assert normalize_label(p, "text/plain") == "plain"
        assert normalize_label(p, "text/html") == OTHER

    def test_server(self):
        p = _problem("response.server")
        assert normalize_label(p, "nginx/1.13.7") == "nginx-1.13"
        assert normalize_label(p, "nginx") == "nginx"
        assert normalize_label(p, "Apache/2.4.18 (Ubuntu)") == "Apache"
        assert normalize_label(p, "cloudflare-nginx") == "cloudflare-nginx"
        assert normalize_label(p, "Microsoft-IIS/7.5") == "IIS-7.5"
        assert normalize_label(p, "Jetty(9.4.6.v20170531)") == "jetty-9.4"
        assert normalize_label(p, "TotallyNewServer/3.0") == OTHER

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([
        ("request.method", ["get", "HEAD", "weird"]),
        ("response.status_code", ["200", "304", "999"]),
        ("response.content_type",
         ["text/html", "application/json;q=1", "junk"]),
        ("response.server", ["nginx/1.12.1", "openresty/1.11.2", "zzz"]),
    ]), st.data())
    def test_idempotent(self, case, data):
        pid, raws = case
        p = _problem(pid)
        raw = data.draw(st.sampled_from(raws))
        once = normalize_label(p, raw)
        assert normalize_label(p, once) == once
        assert once == OTHER or once in p.labels


class TestGroundTruth:
    def _corpus(self, **kw):
        spec = SynthSpec(seed=3, n_connections=6, **kw)
        return synthesize_corpus(spec)

    @pytest.mark.parametrize("mix", [{"http1": 1.0}, {"http2": 1.0}])
    def test_session_round_trip(self, mix):
        """Re-ingesting an emitted decrypted-session tree reproduces every
        record's message-type flag and labels."""
        for lc in self._corpus(protocol_mix=mix, include_etag=True):
            session = ground_truth_session(lc)
            relabeled = ingest_ground_truth(
                lc.conn, session, lc.protocol,
                problems=registry(lc.protocol, include_etag=True))
            assert len(relabeled) == len(lc.records)
            for orig, back in zip(lc.records, relabeled):
                assert back.message_type == orig.message_type
                assert back.labels == orig.labels

    @pytest.mark.parametrize("protocol,shape", [
        (protocol, shape) for protocol in ("http1", "http2")
        for shape in ("tls_records", "tor_cells", "tor_cell_message",
                      "messages", "dict_headers")] + [("http2", "frames")])
    def test_decrypted_data_shapes(self, protocol, shape):
        """A message tree wrapped in nested TLS records, in Tor cells (with
        or without their own TLS records), in a list of messages (the first
        supplies the labels), with dict headers, or among HTTP/2 frames
        that carry no semantics ingests to the labels of the plain tree; a
        record tree with no message in it is not a message."""
        def dict_headers(dd):
            if "frames" in dd:
                return {"frames": [{**f, "headers": dict(f["headers"])}
                                   for f in dd["frames"]]}
            return {**dd, "headers": dict(dd["headers"])}

        wrap = {
            "tls_records": lambda dd: {"tls_records": [{"decrypted_data": dd}]},
            "tor_cells": lambda dd: {"cells": [
                "padding", {"decrypted_data": {"relay": "data"}},
                {"decrypted_data": {"tls_records": [{"decrypted_data": dd}]}}]},
            "tor_cell_message": lambda dd: {"cells": [{"decrypted_data": dd}]},
            "messages": lambda dd: {"messages": [
                dd, {"status_code": "500", "headers": [["Server", "x"]]}]},
            "dict_headers": dict_headers,
            "frames": lambda dd: {"frames": [
                {"type": "DATA"},
                {"type": "headers", "headers": [["server", "nginx"]]},
                *dd["frames"]]},
        }[shape]
        empty = {"cells": ["padding", {"decrypted_data": {
            "tls_records": [{"decrypted_data": {"frames": [
                {"type": "DATA"}]}}]}}]}
        corpus = self._corpus(protocol_mix={protocol: 1.0},
                              filler_range=(1, 2), include_etag=True)
        problems = registry(protocol, include_etag=True)
        for lc in corpus:
            session = ground_truth_session(lc)
            for gt in session["tls_records"]:
                dd = gt.get("decrypted_data")
                gt["decrypted_data"] = wrap(dd) if dd is not None else empty
            relabeled = ingest_ground_truth(lc.conn, session, lc.protocol,
                                            problems=problems)
            assert [(r.message_type, r.labels) for r in relabeled] == \
                [(r.message_type, r.labels) for r in lc.records]
            assert any(r.message_type for r in relabeled)
            assert not all(r.message_type for r in relabeled)

    def test_count_mismatch_raises(self):
        lc = self._corpus()[0]
        session = ground_truth_session(lc)
        session["tls_records"].pop()
        with pytest.raises(AlignmentError):
            ingest_ground_truth(lc.conn, session, lc.protocol)

    def test_length_mismatch_raises(self):
        lc = self._corpus()[0]
        session = ground_truth_session(lc)
        session["tls_records"][0]["length"] += 1
        with pytest.raises(AlignmentError):
            ingest_ground_truth(lc.conn, session, lc.protocol)

    def test_missing_tree_raises(self):
        lc = self._corpus()[0]
        with pytest.raises(AlignmentError):
            ingest_ground_truth(lc.conn, {}, lc.protocol)


class TestSynthesis:
    def test_deterministic(self):
        spec = SynthSpec(seed=9, n_connections=5)
        a = synthesize_corpus(spec)
        b = synthesize_corpus(spec)
        for x, y in zip(a, b):
            assert x.protocol == y.protocol
            assert x.records == y.records
            assert [(r.type_code, r.length, r.direction) for r in x.conn.records] \
                == [(r.type_code, r.length, r.direction) for r in y.conn.records]

    def test_seed_changes_output(self):
        a = synthesize_corpus(SynthSpec(seed=1, n_connections=5))
        b = synthesize_corpus(SynthSpec(seed=2, n_connections=5))
        assert [len(x.conn.records) for x in a] != \
            [len(x.conn.records) for x in b] or \
            [r.length for x in a for r in x.conn.records] != \
            [r.length for x in b for r in x.conn.records]

    def test_labels_cover_problems(self):
        for lc in synthesize_corpus(SynthSpec(seed=4, n_connections=4)):
            probs = registry(lc.protocol)
            client = {p.id for p in probs if p.side == Side.CLIENT}
            server = {p.id for p in probs if p.side == Side.SERVER}
            headers = [r for r in lc.records if r.message_type]
            assert headers
            for lr in headers:
                keys = set(lr.labels)
                assert keys == client or keys == server
                for p in probs:
                    if p.id in keys:
                        assert lr.labels[p.id] in p.labels

    def test_protocol_mix_and_alpn(self):
        corpus = synthesize_corpus(SynthSpec(
            seed=5, n_connections=40, protocol_mix={"http1": 0.5, "http2": 0.5},
            alpn_present_prob=1.0))
        protos = {lc.protocol for lc in corpus}
        assert protos == {"http1", "http2"}
        for lc in corpus:
            expected = "h2" if lc.protocol == "http2" else "http/1.1"
            assert lc.conn.handshake.alpn_selected == expected

    def test_alpn_absent(self):
        corpus = synthesize_corpus(SynthSpec(
            seed=5, n_connections=10, alpn_present_prob=0.0))
        assert all(lc.conn.handshake.alpn_selected is None for lc in corpus)

    def test_filler_records_have_no_labels(self):
        base = SynthSpec(seed=6, n_connections=10)
        filled = SynthSpec(seed=6, n_connections=10, filler_range=(2, 4))
        n_base = sum(len(lc.conn.records) for lc in synthesize_corpus(base))
        n_filled = sum(len(lc.conn.records) for lc in synthesize_corpus(filled))
        assert n_filled > n_base
        for lc in synthesize_corpus(filled):
            assert len(lc.records) == len(lc.conn.records)

    def test_transactions_range(self):
        corpus = synthesize_corpus(SynthSpec(
            seed=7, n_connections=10, transactions_range=(3, 3)))
        for lc in corpus:
            n_headers = sum(1 for r in lc.records if r.message_type)
            assert n_headers == 6  # 3 request + 3 response headers

    def test_invalid_spec(self):
        with pytest.raises(CorpusError):
            SynthSpec(seed=0, n_connections=0).validate()
        with pytest.raises(CorpusError):
            SynthSpec(seed=0, n_connections=1,
                      protocol_mix={"gopher": 1.0}).validate()
        with pytest.raises(CorpusError):
            SynthSpec(seed=0, n_connections=1,
                      transactions_range=(4, 2)).validate()


class TestSplit:
    def _corpus(self):
        return synthesize_corpus(SynthSpec(seed=8, n_connections=30,
                                           span_days=14))

    def test_by_week(self):
        corpus = self._corpus()
        train, test = split_dataset(corpus, policy="by_week")
        assert len(train) + len(test) == len(corpus)
        assert train and test
        boundary = min(lc.conn.start_time for lc in corpus) + 7 * 86400
        assert all(lc.conn.start_time < boundary for lc in train)
        assert all(lc.conn.start_time >= boundary for lc in test)

    def test_by_fraction(self):
        corpus = self._corpus()
        train, test = split_dataset(corpus, policy="by_fraction",
                                    fraction=0.7, seed=0)
        assert len(train) == 21 and len(test) == 9
        ids = {id(lc) for lc in corpus}
        assert {id(lc) for lc in train} | {id(lc) for lc in test} == ids
        train2, test2 = split_dataset(corpus, policy="by_fraction",
                                      fraction=0.7, seed=0)
        assert [lc.connection_id for lc in train] == \
            [lc.connection_id for lc in train2]

    def test_empty_raises(self):
        with pytest.raises(CorpusError):
            split_dataset([])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = synthesize_corpus(SynthSpec(seed=10, n_connections=6,
                                             protocol_mix={"http1": 0.5,
                                                           "http2": 0.5}))
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(path, corpus)
        loaded = load_corpus(path)
        assert len(loaded) == len(corpus)
        for a, b in zip(corpus, loaded):
            assert a.protocol == b.protocol
            assert a.connection_id == b.connection_id
            assert a.records == b.records
            assert [(r.type_code, r.length, int(r.direction), r.pkt_count,
                     r.push_count) for r in a.conn.records] == \
                [(r.type_code, r.length, int(r.direction), r.pkt_count,
                  r.push_count) for r in b.conn.records]
            hs_a, hs_b = a.conn.handshake, b.conn.handshake
            assert hs_a.offered_cipher_suites == hs_b.offered_cipher_suites
            assert hs_a.alpn_selected == hs_b.alpn_selected

    def test_round_trip_keeps_the_record_arrays(self, tmp_path):
        """Every record field the format holds comes back bit for bit, so
        both modes' record tables are equal byte for byte; the stream
        offsets and truncation flags, which it does not hold, load as 0 and
        False."""
        corpus = synthesize_corpus(SynthSpec(seed=11, n_connections=8,
                                             filler_range=(0, 4)))
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(path, corpus)
        held = [f for f in RECORD_DTYPE.names
                if f not in ("stream_offset", "truncated")]
        for a, b in zip(corpus, load_corpus(path)):
            assert a.conn.records.dtype == b.conn.records.dtype
            assert a.conn.records[held].tolist() == \
                b.conn.records[held].tolist()
            assert not b.conn.records.stream_offset.any()
            assert not b.conn.records.truncated.any()
            for mode in ("standard", "tor"):
                assert record_table(a.conn, mode).tobytes() == \
                    record_table(b.conn, mode).tobytes()

    @pytest.mark.parametrize("value, refused", [
        (2**63 - 1, False), (-2**63, False), (2**63, True), (-2**63 - 1, True),
        (10**400, True)], ids=["max", "min", "max+1", "min-1", "10**400"])
    def test_integers_outside_int64_are_refused(self, tmp_path, value,
                                                refused):
        """No field holds an integer outside int64: the features would
        overflow float() far from the cause."""
        corpus = synthesize_corpus(SynthSpec(seed=10, n_connections=2))
        path = tmp_path / "corpus.jsonl"
        save_corpus(str(path), corpus)
        lines = path.read_text().splitlines()
        conn = json.loads(lines[2])
        conn["records"][0][2] = value
        lines[2] = json.dumps(conn)
        path.write_text("\n".join(lines) + "\n")
        if refused:
            with pytest.raises(CorpusError, match="line 3: .*outside int64"):
                load_corpus(str(path))
        else:
            assert load_corpus(str(path))[1].conn.records[0].length == value

    @pytest.mark.parametrize("name, where", [
        ("first_byte_ts", ("records", 0, 7)),
        ("avg_pkt_size", ("records", 0, 6)),
        ("packet time", ("packets", 0, 0)), ("duration", ("duration",)),
        ("start_time", ("start_time",))])
    def test_an_overflowing_literal_is_refused(self, tmp_path, name, where):
        """JSON reads 1e400 as an infinity without calling the hook that
        refuses NaN and Infinity; the loaded floats are checked, naming the
        line and the field."""
        corpus = synthesize_corpus(SynthSpec(seed=10, n_connections=2))
        path = tmp_path / "corpus.jsonl"
        save_corpus(str(path), corpus)
        lines = path.read_text().splitlines()
        conn = json.loads(lines[2])
        *outer, last = where
        target = conn
        for key in outer:
            target = target[key]
        target[last] = "X"
        lines[2] = json.dumps(conn).replace('"X"', "1e400")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError,
                           match=f"line 3: CorpusError: {name} is not finite"):
            load_corpus(str(path))

    def test_invalid_utf8_after_line_1_names_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(str(path), synthesize_corpus(SynthSpec(seed=10,
                                                           n_connections=3)))
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\x80\n")
        with pytest.raises(CorpusError, match="line 5: UnicodeDecodeError"):
            load_corpus(str(path))

    def test_manifest_integer_outside_int64_is_refused(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"manifest": {
            "schema_version": 1, "n_connections": 2**70}}) + "\n")
        with pytest.raises(CorpusError, match="line 1: .*outside int64"):
            load_corpus(str(path))

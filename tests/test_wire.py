"""Wire-path oracles: planted connections written as a real pcap must parse
back to what the generator planted, and malformed captures never crash."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from httpglass.capture import PcapError, load_pcap, write_pcap
from httpglass.corpus import (SynthSpec, ground_truth_session,
                              ingest_ground_truth, synthesize_corpus)
from httpglass.features import SCHEMA_STANDARD, feature_names, record_table
from httpglass.registry import registry
from httpglass.tlsparse import parse_tls_records

from helpers import (assert_tiles, handshake_payloads, pcap_frames,
                     planted_pcap_frames, reference_load_pcap, tls_stream)

# pcap stores microseconds, so times come back rounded to 1 us
DURATION_COL = feature_names(SCHEMA_STANDARD).index("duration")
TIME_TOL = 1e-6


# the record fields that come back exactly, row for row
EXACT = ["type_code", "length", "direction", "pkt_count", "push_count",
         "avg_pkt_size"]


@pytest.mark.parametrize("etag", [False, True])
@pytest.mark.parametrize("isn", [0, 0xFFFFFF00, 0xFFFFFFFF])
def test_planted_connections_come_back(tmp_path, isn, etag):
    corpus = synthesize_corpus(SynthSpec(
        seed=3, n_connections=30, filler_range=(0, 3), include_etag=etag,
        emit_streams=True))
    assert {lc.protocol for lc in corpus} == {"http1", "http2"}
    frames, planted = planted_pcap_frames(corpus, isn)
    path = str(tmp_path / "planted.pcap")
    write_pcap(path, frames)
    raws = load_pcap(path)
    assert raws == reference_load_pcap(path)
    assert sorted(raw.five_tuple for raw in raws) == sorted(planted)
    for raw in raws:
        lc = planted[raw.five_tuple]
        want = lc.conn
        assert not (raw.gap_client or raw.gap_server or raw.overlap_anomaly)
        conn = parse_tls_records(raw)
        assert conn is not None
        assert conn.records[EXACT].tolist() == want.records[EXACT].tolist()
        assert conn.records.first_byte_ts.tolist() == pytest.approx(
            want.records.first_byte_ts.tolist(), rel=0, abs=TIME_TOL)
        assert conn.handshake == want.handshake
        assert np.array_equal(record_table(conn, "tor"),
                              record_table(want, "tor"))
        got, exp = record_table(conn, "standard"), record_table(want, "standard")
        assert np.array_equal(np.delete(got, DURATION_COL, axis=1),
                              np.delete(exp, DURATION_COL, axis=1))
        assert got[:, DURATION_COL] == pytest.approx(
            exp[:, DURATION_COL], rel=0, abs=TIME_TOL)
        back = ingest_ground_truth(conn, ground_truth_session(lc), lc.protocol,
                                   registry(lc.protocol, etag))
        assert [(r.index, r.message_type, r.labels) for r in back] == \
            [(r.index, r.message_type, r.labels) for r in lc.records]


@pytest.mark.parametrize("isn", [0, 0xFFFFFF00, 0xFFFFFFFF])
def test_reused_port_pairs_come_back(tmp_path, isn):
    """Two connections one after the other on each client endpoint, the
    second opened by a SYN with another ISN, come back as two connections,
    each with its own streams, records, handshake and labels."""
    corpus = synthesize_corpus(SynthSpec(
        seed=3, n_connections=30, filler_range=(0, 3), emit_streams=True))
    frames, planted = planted_pcap_frames(corpus, isn, reuse=True)
    path = str(tmp_path / "reused.pcap")
    write_pcap(path, frames)
    raws = load_pcap(path)
    assert raws == reference_load_pcap(path)
    keys = [(raw.five_tuple, [r.five_tuple for r in raws[:i]].count(
        raw.five_tuple)) for i, raw in enumerate(raws)]
    assert sorted(keys) == sorted(planted)
    for key, raw in zip(keys, raws):
        lc = planted[key]
        want = lc.conn
        assert (raw.client_stream, raw.server_stream) == \
            (want.raw.client_stream, want.raw.server_stream)
        assert not (raw.gap_client or raw.gap_server or raw.overlap_anomaly)
        conn = parse_tls_records(raw)
        assert conn.records[EXACT].tolist() == want.records[EXACT].tolist()
        assert conn.handshake == want.handshake
        back = ingest_ground_truth(conn, ground_truth_session(lc), lc.protocol,
                                   registry(lc.protocol, False))
        assert [(r.index, r.message_type, r.labels) for r in back] == \
            [(r.index, r.message_type, r.labels) for r in lc.records]

def _valid_pcap(path, on_syn):
    """A TLS flow; with ``on_syn`` its ClientHello rides on the SYN."""
    ch, sh = handshake_payloads()
    app = tls_stream([(20, b"\x01"), (23, b"q" * 90)])
    write_pcap(path, pcap_frames(
        [app] if on_syn else [ch, app],
        [sh, tls_stream([(23, b"r" * 200)]), tls_stream([(23, b"s" * 40)])],
        syn_data=ch if on_syn else b""))
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)),
                      min_size=1, max_size=8),
       cut=st.none() | st.integers(0, 1 << 20), on_syn=st.booleans())
def test_malformed_pcaps_never_crash(tmp_path, flips, cut, on_syn):
    """Byte flips and truncation, of a capture with or without data on its
    SYN, raise nothing but PcapError anywhere from pcap ingest to the
    record tables, ``load_pcap`` agrees with the per-frame reference
    reader, and every stream stays tiled by its segment map, as
    ``parse_tls_records`` requires."""
    path = str(tmp_path / "fuzz.pcap")
    data = bytearray(_valid_pcap(path, on_syn))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        raws = load_pcap(path)
    except PcapError:
        with pytest.raises(PcapError):
            reference_load_pcap(path)
        return
    assert raws == reference_load_pcap(path)
    for raw in raws:
        assert_tiles(raw.client_stream, raw.client_segments)
        assert_tiles(raw.server_stream, raw.server_segments)
        conn = parse_tls_records(raw)
        if conn is not None:
            record_table(conn, "standard")
            record_table(conn, "tor")

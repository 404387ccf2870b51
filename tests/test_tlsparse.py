"""TLS record cutting, packet attribution, and hello parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.capture import Direction, Segment, load_pcap, write_pcap
from httpglass.tlsparse import (GREASE_COLLAPSED, RECORD_HEADER_LEN,
                                _attribute_packets, collapse_grease,
                                build_client_hello, build_server_hello,
                                parse_tls_records, record_header)

from helpers import handshake_payloads, pcap_frames, tls_stream


def _load_single(tmp_path, client_chunks, server_chunks):
    path = str(tmp_path / "t.pcap")
    write_pcap(path, pcap_frames(client_chunks, server_chunks))
    raws = load_pcap(path)
    assert len(raws) == 1
    return parse_tls_records(raws[0])


def test_basic_record_cutting(tmp_path):
    ch, sh = handshake_payloads()
    conn = _load_single(
        tmp_path,
        [ch, tls_stream([(23, b"q" * 120)])],
        [sh, tls_stream([(23, b"r" * 300), (23, b"s" * 40)])])
    assert conn is not None
    kinds = [(r.type_code, r.length, r.direction) for r in conn.records]
    assert (23, 120, Direction.CLIENT_TO_SERVER) in kinds
    assert (23, 300, Direction.SERVER_TO_CLIENT) in kinds
    assert (23, 40, Direction.SERVER_TO_CLIENT) in kinds
    assert sum(1 for r in conn.records if r.type_code == 22) == 2
    # timestamps strictly order the record list
    ts = [r.first_byte_ts for r in conn.records]
    assert ts == sorted(ts)


def test_record_split_across_packets(tmp_path):
    ch, sh = handshake_payloads()
    body = tls_stream([(23, b"x" * 1000)])
    conn = _load_single(tmp_path, [ch, body[:400], body[400:]], [sh])
    rec = [r for r in conn.records if r.type_code == 23][0]
    assert rec.length == 1000
    assert rec.pkt_count == 2
    assert rec.push_count == 2
    assert rec.avg_pkt_size == pytest.approx((400 + len(body) - 400) / 2)


def test_two_records_in_one_packet(tmp_path):
    ch, sh = handshake_payloads()
    packed = tls_stream([(23, b"a" * 50), (23, b"b" * 70)])
    conn = _load_single(tmp_path, [ch, packed], [sh])
    data = [r for r in conn.records if r.type_code == 23]
    assert [r.length for r in data] == [50, 70]
    assert all(r.pkt_count == 1 for r in data)


def test_first_byte_timestamps(tmp_path):
    """A record's timestamp is that of the packet holding its first byte."""
    ch, sh = handshake_payloads()
    packed = tls_stream([(23, b"a" * 50), (23, b"b" * 70)])
    # client packets at 100.011 (hello), 100.031 and 100.041: the first
    # record is split across the last two, which also carries the second
    conn = _load_single(tmp_path, [ch, packed[:30], packed[30:]], [sh])
    data = [r for r in conn.records if r.type_code == 23]
    assert [r.length for r in data] == [50, 70]
    assert [r.first_byte_ts for r in data] == \
        [conn.raw.packets[2].timestamp, conn.raw.packets[3].timestamp]
    assert [r.first_byte_ts for r in data] == \
        pytest.approx([100.031, 100.041], abs=1e-6)
    assert [r.pkt_count for r in data] == [2, 1]
    # both records whole in one packet share its timestamp
    conn = _load_single(tmp_path, [ch, packed], [sh])
    data = [r for r in conn.records if r.type_code == 23]
    assert [r.first_byte_ts for r in data] == \
        [conn.raw.packets[2].timestamp] * 2


def _brute_attribution(segments, span_start, span_end):
    """Every segment tested against the span, in stream order."""
    hits, first = [], None
    for seg in segments:
        if seg.stream_offset < span_end and \
                seg.stream_offset + seg.length > span_start:
            if seg.packet_index not in hits:
                hits.append(seg.packet_index)
            if seg.stream_offset <= span_start:
                first = seg.packet_index
    return hits, first


def test_attribution_sweep_matches_brute_force():
    """Sorted, non-overlapping segments with holes; spans anywhere,
    including empty ones, ones past the end and ones inside a hole."""
    rng = np.random.default_rng(20)
    for _ in range(200):
        segments, off = [], int(rng.integers(0, 5))
        for k in range(int(rng.integers(0, 30))):
            length = int(rng.integers(1, 12))
            segments.append(Segment(off, length, int(rng.integers(0, 10))))
            off += length + int(rng.choice([0, 0, 0, 3]))
        starts = [seg.stream_offset for seg in segments]
        for _ in range(20):
            a = int(rng.integers(0, off + 5))
            b = a + int(rng.integers(0, 60))
            assert _attribute_packets(segments, starts, a, b) == \
                _brute_attribution(segments, a, b)


def test_attribution_of_records_over_many_packets(tmp_path):
    """Records cut into many small packets, several records per packet."""
    rng = np.random.default_rng(21)
    ch, sh = handshake_payloads()
    for trial in range(5):
        streams = []
        for _ in range(2):
            body = tls_stream([(23, bytes(int(rng.integers(0, 300))))
                               for _ in range(int(rng.integers(5, 40)))])
            cuts = np.cumsum(rng.integers(1, 40, size=len(body)))
            cuts = [0] + [int(c) for c in cuts if c < len(body)] + [len(body)]
            streams.append([body[a:b] for a, b in zip(cuts, cuts[1:])])
        conn = _load_single(tmp_path, [ch] + streams[0], [sh] + streams[1])
        assert sum(r.pkt_count > 2 for r in conn.records) > 5
        raw = conn.raw
        for r in conn.records:
            stream_len = len(raw.stream(r.direction))
            end = min(r.stream_offset + RECORD_HEADER_LEN + r.length, stream_len)
            hits, first = _brute_attribution(raw.segments(r.direction),
                                             r.stream_offset, end)
            sizes = [raw.packets[i].payload_len for i in hits]
            assert r.pkt_count == len(hits)
            assert r.push_count == sum(raw.packets[i].push_flag for i in hits)
            assert r.avg_pkt_size == sum(sizes) / len(sizes)
            assert r.first_byte_ts == raw.packets[first].timestamp


def test_non_tls_rejected(tmp_path):
    conn = _load_single(tmp_path, [b"GET / HTTP/1.1\r\n\r\n"], [])
    assert conn is None


def test_trailing_garbage_tolerated(tmp_path):
    ch, sh = handshake_payloads()
    conn = _load_single(tmp_path, [ch, tls_stream([(23, b"ok" * 10)]) + b"\xff junk"],
                        [sh])
    assert conn is not None
    assert any(r.type_code == 23 and r.length == 20 for r in conn.records)


def test_truncated_final_record(tmp_path):
    ch, sh = handshake_payloads()
    cut = tls_stream([(23, b"z" * 500)])[:100]
    conn = _load_single(tmp_path, [ch, cut], [sh])
    trunc = [r for r in conn.records if r.truncated]
    assert len(trunc) == 1
    assert trunc[0].length == 500


def test_handshake_meta_alpn(tmp_path):
    ch, sh = handshake_payloads(alpn_offered=("h2", "http/1.1"),
                                alpn_selected="h2",
                                suites=(0x1301, 0xC02B),
                                extensions=(0, 16, 43))
    conn = _load_single(tmp_path, [ch], [sh])
    hs = conn.handshake
    assert hs.alpn_offered == ["h2", "http/1.1"]
    assert hs.alpn_selected == "h2"
    assert hs.offered_cipher_suites == [0x1301, 0xC02B]
    assert hs.advertised_extensions == [0, 16, 43]
    assert hs.selected_cipher_suite == 0x1301


def test_handshake_meta_no_alpn(tmp_path):
    ch = tls_stream([(22, build_client_hello([0x1301], [0, 43]))])
    sh = tls_stream([(22, build_server_hello(0x1301))])
    conn = _load_single(tmp_path, [ch], [sh])
    assert conn.handshake.alpn_offered == []
    assert conn.handshake.alpn_selected is None


def test_grease_collapse_in_hello(tmp_path):
    ch = tls_stream([(22, build_client_hello(
        [0x3A3A, 0x1301, 0xFAFA], [0x1A1A, 0, 16]))])
    sh = tls_stream([(22, build_server_hello(0x1301))])
    conn = _load_single(tmp_path, [ch], [sh])
    assert conn.handshake.offered_cipher_suites == [GREASE_COLLAPSED, 0x1301]
    assert conn.handshake.advertised_extensions == [GREASE_COLLAPSED, 0, 16]


def test_collapse_grease_unit():
    assert collapse_grease([0x0A0A, 0x1A1A, 7]) == [GREASE_COLLAPSED, 7]
    assert collapse_grease([5, 0xFAFA, 6, 0x2A2A]) == [5, GREASE_COLLAPSED, 6]
    assert collapse_grease([1, 2, 3]) == [1, 2, 3]
    assert collapse_grease([]) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=20))
def test_collapse_grease_idempotent(codes):
    once = collapse_grease(codes)
    assert collapse_grease(once) == once
    assert sum(1 for c in once if c == GREASE_COLLAPSED) <= \
        max(1, sum(1 for c in codes if c == GREASE_COLLAPSED))


def test_record_header_round_trip():
    hdr = record_header(23, 1234)
    assert hdr == b"\x17\x03\x03\x04\xd2"

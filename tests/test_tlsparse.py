"""TLS record cutting, packet attribution, and hello parsing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.capture import (Direction, PacketMeta, RawConnection,
                               load_pcap, write_pcap)
from httpglass.features import record_table
from httpglass.tlsparse import (GREASE_COLLAPSED, RECORD_HEADER_LEN,
                                RECORD_TYPES, collapse_grease,
                                build_client_hello, build_server_hello,
                                parse_tls_records, record_header)

from helpers import (handshake_payloads, pcap_frames,
                     reference_parse_tls_records, reference_record_table,
                     tls_stream)


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


def _brute_attribution(segments, stream_len, span_start, span_end):
    """Every (offset, packet index) run tested against the span, in stream
    order; a run ends where the next starts, the last at the stream's end."""
    hits, first = [], None
    ends = [off for off, _ in segments[1:]] + [stream_len]
    for (off, idx), end in zip(segments, ends):
        if off < span_end and end > span_start:
            if idx not in hits:
                hits.append(idx)
            if off <= span_start:
                first = idx
    return hits, first


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
        path = str(tmp_path / "t.pcap")
        write_pcap(path, pcap_frames([ch] + streams[0], [sh] + streams[1]))
        (raw,) = load_pcap(path)
        conn = parse_tls_records(raw)
        assert sum(r.pkt_count > 2 for r in conn.records) > 5
        raw_streams = (raw.client_stream, raw.server_stream)
        segmaps = (raw.client_segments, raw.server_segments)
        for r in conn.records:
            stream_len = len(raw_streams[r.direction])
            end = min(r.stream_offset + RECORD_HEADER_LEN + r.length, stream_len)
            hits, first = _brute_attribution(segmaps[r.direction], stream_len,
                                             r.stream_offset, end)
            sizes = [raw.packets[i].payload_len for i in hits]
            assert r.pkt_count == len(hits)
            assert r.push_count == sum(raw.packets[i].push_flag for i in hits)
            assert r.avg_pkt_size == sum(sizes) / len(sizes)
            assert r.first_byte_ts == raw.packets[first].timestamp


def test_parsed_connection_keeps_no_payload(tmp_path):
    """A parsed connection's raw holds no streams or segment maps, as one
    loaded from a corpus does; the RawConnection parsed keeps its own, and
    the records, handshake and record tables are those it gives."""
    ch, sh = handshake_payloads(alpn_selected="http/1.1")
    path = str(tmp_path / "t.pcap")
    write_pcap(path, pcap_frames(
        [ch, tls_stream([(23, b"q" * 150)])],
        [sh, tls_stream([(23, b"r" * 900), (23, b"s" * 40)])]))
    (raw,) = load_pcap(path)
    kept = replace(raw)
    conn = parse_tls_records(raw)
    assert (conn.raw.client_stream, conn.raw.server_stream,
            conn.raw.client_segments, conn.raw.server_segments) == \
        (b"", b"", [], [])
    assert raw == kept and raw.client_stream and raw.server_segments
    assert replace(conn.raw, client_stream=raw.client_stream,
                   server_stream=raw.server_stream,
                   client_segments=raw.client_segments,
                   server_segments=raw.server_segments) == raw
    assert [(r.type_code, r.length, r.direction) for r in conn.records] == [
        (22, len(ch) - 5, Direction.CLIENT_TO_SERVER),
        (22, len(sh) - 5, Direction.SERVER_TO_CLIENT),
        (23, 150, Direction.CLIENT_TO_SERVER),
        (23, 900, Direction.SERVER_TO_CLIENT),
        (23, 40, Direction.SERVER_TO_CLIENT)]
    assert conn.handshake.alpn_selected == "http/1.1"
    assert conn.handshake.alpn_offered == ["h2", "http/1.1"]
    whole = replace(conn, raw=raw)
    for mode in ("standard", "tor"):
        assert np.array_equal(record_table(conn, mode),
                              record_table(whole, mode))


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


def test_last_of_consecutive_client_hellos_wins(tmp_path):
    """The retry case; the second hello also spans two records."""
    first = build_client_hello([0x1301], [0, 16], alpn=["http/1.1"])
    second = build_client_hello([0x1302, 0x1303], [0, 16, 43], alpn=["h2"])
    ch = tls_stream([(22, first + second[:20]), (22, second[20:])])
    _, sh = handshake_payloads()
    hs = _load_single(tmp_path, [ch], [sh]).handshake
    assert not hs.anomaly
    assert hs.offered_cipher_suites == [0x1302, 0x1303]
    assert hs.advertised_extensions == [0, 16, 43]
    assert hs.alpn_offered == ["h2"]


def test_hello_after_another_handshake_message_is_ignored(tmp_path):
    """Only the leading hellos count: a ClientHello after a type-11
    (certificate) message is not read."""
    first = build_client_hello([0x1301], [0, 16], alpn=["http/1.1"])
    later = build_client_hello([0x1302], [0, 43], alpn=["h2"])
    other = b"\x0b" + (3).to_bytes(3, "big") + b"abc"
    ch = tls_stream([(22, first + other + later)])
    _, sh = handshake_payloads()
    hs = _load_single(tmp_path, [ch], [sh]).handshake
    assert not hs.anomaly
    assert hs.offered_cipher_suites == [0x1301]
    assert hs.advertised_extensions == [0, 16]
    assert hs.alpn_offered == ["http/1.1"]


@pytest.mark.parametrize("cut,version", [(1, 0x0301), (36, 0x0302)])
def test_truncated_client_hello_is_an_anomaly(tmp_path, cut, version):
    """A hello body cut short clears every field but ``version``, which
    keeps what it held: the record-layer version, or the hello's own once
    the body got that far."""
    body = build_client_hello([0x1301], [0, 16], alpn=["h2"],
                              version=0x0302)[4:4 + cut]
    msg = b"\x01" + len(body).to_bytes(3, "big") + body
    ch = record_header(22, len(msg), version=0x0301) + msg
    _, sh = handshake_payloads()
    hs = _load_single(tmp_path, [ch], [sh]).handshake
    assert hs.anomaly
    assert hs.offered_cipher_suites == []
    assert hs.advertised_extensions == []
    assert hs.alpn_offered == []
    assert hs.alpn_selected is None
    assert hs.selected_cipher_suite is None
    assert hs.version == version


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


@st.composite
def _record_stream(draw, direction):
    """(stream, segment starts) of one direction: TLS records, perhaps a
    hello first, then perhaps a truncated record or trailing garbage, cut
    into segments at random bounds or at every byte.  The stream may be
    empty, or not start with a record at all."""
    hello = {0: build_client_hello([0x1301, 0x0A0A], [0, 16], ["h2"]),
             1: build_server_hello(0x1301, "h2")}[direction]
    version = draw(st.sampled_from([0x0301, 0x0303]))
    parts = [record_header(22, len(hello), version) + hello] \
        if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.integers(0, 40))
        parts.append(record_header(draw(st.sampled_from(RECORD_TYPES)),
                                   length) + bytes(length))
    tail = draw(st.sampled_from(["none", "truncated", "garbage", "not_tls"]))
    if tail == "truncated":
        length = draw(st.integers(1, 40))
        parts.append((record_header(23, length) + bytes(length))[
            :draw(st.integers(1, RECORD_HEADER_LEN + length - 1))])
    elif tail == "garbage":
        parts.append(draw(st.binary(min_size=1, max_size=8)))
    elif tail == "not_tls":
        parts.insert(0, b"GET / HTTP/1.1\r\n")
    stream = b"".join(parts)
    if len(stream) < 2:
        return stream, [0] if stream else []
    if draw(st.booleans()):
        cuts = range(1, len(stream))  # one-byte segments
    else:
        cuts = draw(st.sets(st.integers(1, len(stream) - 1), max_size=12))
    return stream, [0] + sorted(cuts)


@st.composite
def _raw_connections(draw):
    """A connection as ``load_pcap`` leaves it: each direction's segment
    map tiles its stream, and packet times often tie across directions."""
    packets, streams, maps = [], [], []
    for direction in Direction:
        stream, starts = draw(_record_stream(int(direction)))
        ts, segments = 0.0, []
        for off, end in zip(starts, starts[1:] + [len(stream)]):
            ts += draw(st.sampled_from([0.0, 0.25, 0.5]))
            segments.append((off, len(packets)))
            packets.append(PacketMeta(ts, direction, end - off,
                                      draw(st.booleans()), off))
        streams.append(stream)
        maps.append(segments)
    return RawConnection(("10.0.0.1", 1, "10.0.0.2", 443, "tcp"), packets,
                         *streams, duration=ts, client_segments=maps[0],
                         server_segments=maps[1])


@settings(max_examples=120, deadline=None)
@given(_raw_connections())
def test_records_match_the_reference_cut(raw):
    """The record array holds what the per-record cut built, in the same
    order; the handshake and both modes' record tables are equal too."""
    want = reference_parse_tls_records(raw)
    conn = parse_tls_records(raw)
    if want is None:
        assert conn is None
        return
    rows, handshake = want
    assert conn.records.tolist() == rows
    assert conn.handshake == handshake
    for mode in ("standard", "tor"):
        got = record_table(conn, mode)
        assert got.dtype == np.float64
        assert got.tobytes() == \
            reference_record_table(conn, rows, mode).tobytes()

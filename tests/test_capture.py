"""pcap loading and TCP reassembly."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from httpglass.capture import (PCAP_MAGIC_NS, PCAP_MAGIC_US, Direction,
                               PcapError, build_tcp_frame, load_pcap,
                               write_pcap, TCP_FLAG_ACK, TCP_FLAG_PSH,
                               TCP_FLAG_SYN)

from httpglass.tlsparse import parse_tls_records

from helpers import (CLIENT, SERVER, assert_tiles, columnar_reassemble,
                     connection_frames, handshake_payloads, pcap_frames,
                     reference_load_pcap, reference_reassemble, tls_stream)

# the reference loop and the columnar core take each case alike
BOTH = (reference_reassemble, columnar_reassemble)


def test_pcap_round_trip(tmp_path):
    path = str(tmp_path / "flow.pcap")
    client_chunks = [b"hello ", b"world"]
    server_chunks = [b"HTTP-ish reply bytes"]
    write_pcap(path, pcap_frames(client_chunks, server_chunks))
    conns = load_pcap(path)
    assert len(conns) == 1
    raw = conns[0]
    assert raw.client_stream == b"hello world"
    assert raw.server_stream == b"HTTP-ish reply bytes"
    # three data-bearing packets, all PSH-flagged
    assert len(raw.packets) == 3
    assert all(p.push_flag for p in raw.packets)
    dirs = [p.direction for p in raw.packets]
    assert dirs.count(Direction.CLIENT_TO_SERVER) == 2
    assert dirs.count(Direction.SERVER_TO_CLIENT) == 1
    assert raw.duration > 0.0
    assert raw.start_time == pytest.approx(100.0)


def test_pcap_microseconds_carry_into_seconds(tmp_path):
    """A time whose microseconds round up to a whole second is written as
    the next second: pcap readers expect usec below 1,000,000."""
    path = tmp_path / "carry.pcap"
    frame = build_tcp_frame(CLIENT, SERVER, 0, flags=TCP_FLAG_SYN)
    write_pcap(str(path), [(1.9999996, frame), (3.25, frame)])
    data = path.read_bytes()
    second = 24 + 16 + len(frame)
    assert struct.unpack_from("<II", data, 24) == (2, 0)
    assert struct.unpack_from("<II", data, second) == (3, 250000)


def test_pcap_two_connections(tmp_path):
    path = str(tmp_path / "two.pcap")
    frames = pcap_frames([b"aaa"], [b"bbb"], start_ts=10.0)
    other_client = ("10.0.0.2", 50000)
    frames.append((20.0, build_tcp_frame(other_client, SERVER, 0,
                                         flags=TCP_FLAG_SYN)))
    frames.append((20.1, build_tcp_frame(other_client, SERVER, 1, b"xyz",
                                         flags=TCP_FLAG_ACK | TCP_FLAG_PSH)))
    write_pcap(path, frames)
    conns = load_pcap(path)
    assert len(conns) == 2
    streams = sorted(c.client_stream for c in conns)
    assert streams == [b"aaa", b"xyz"]


def test_pcap_bad_magic(tmp_path):
    path = str(tmp_path / "junk.pcap")
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 24)
    with pytest.raises(PcapError):
        load_pcap(path)


def test_pcap_truncated_header(tmp_path):
    path = str(tmp_path / "short.pcap")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHH", 0xA1B2C3D4, 2, 4))
    with pytest.raises(PcapError):
        load_pcap(path)


def test_reassemble_in_order():
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(
            [(100, b"abc", 0), (103, b"def", 1)])
        assert stream == b"abcdef"
        assert not gap and not anomaly
        assert segmap == [(0, 0), (3, 1)]


def test_reassemble_out_of_order():
    for reassemble in BOTH:
        stream, _, gap, anomaly = reassemble(
            [(103, b"def", 0), (100, b"abc", 1)])
        assert stream == b"abcdef"
        assert not gap and not anomaly


def test_reassemble_duplicate_dropped():
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(
            [(100, b"abc", 0), (100, b"abc", 1), (103, b"def", 2)])
        assert stream == b"abcdef"
        assert not anomaly
        assert segmap == [(0, 0), (3, 2)]


def test_reassemble_overlap_consistent():
    for reassemble in BOTH:
        stream, _, gap, anomaly = reassemble(
            [(100, b"abcd", 0), (102, b"cdef", 1)])
        assert stream == b"abcdef"
        assert not anomaly


def test_reassemble_overlap_conflict_flags_anomaly():
    for reassemble in BOTH:
        stream, _, gap, anomaly = reassemble(
            [(100, b"abcd", 0), (102, b"XYef", 1)])
        assert stream == b"abcdef"  # first-seen bytes win
        assert anomaly


def test_reassemble_checks_overlaps_inside_the_stream_only():
    """Bytes before ``base_seq`` are dropped unchecked: they are not in the
    stream, so they cannot conflict with it."""
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(
            [(998, b"xyab", 0), (1002, b"cd", 1)], 1000)
        assert (stream, segmap, gap, anomaly) == \
            (b"abcd", [(0, 0), (2, 1)], False, False)
        # a conflict inside the stream is still flagged
        stream, _, _, anomaly = reassemble(
            [(998, b"xyab", 0), (999, b"qaXd", 1)], 1000)
        assert stream == b"abd" and anomaly


def test_reassemble_gap_truncates():
    for reassemble in BOTH:
        stream, _, gap, anomaly = reassemble(
            [(100, b"abc", 0), (110, b"later", 1)])
        assert stream == b"abc"
        assert gap


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=10),
       st.randoms(use_true_random=False))
def test_reassemble_permutation_invariant(chunks, rnd):
    """Any arrival order of contiguous non-overlapping segments rebuilds the
    stream identically."""
    segs = []
    seq = 1000
    for i, c in enumerate(chunks):
        segs.append((seq, c, i))
        seq += len(c)
    expected = b"".join(chunks)
    shuffled = list(segs)
    rnd.shuffle(shuffled)
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(shuffled, base_seq=1000)
        assert stream == expected
        assert not gap and not anomaly
        assert segmap == [(seq - 1000, i) for seq, _, i in segs]


def test_segment_map_covers_stream(tmp_path):
    path = str(tmp_path / "seg.pcap")
    write_pcap(path, pcap_frames([b"12345", b"678"], []))
    raw = load_pcap(path)[0]
    assert raw.client_segments.tolist() == [[0, 0], [5, 1]]
    assert_tiles(raw.client_stream, raw.client_segments)


@pytest.mark.parametrize("isn", [0xFFFFFF00, 0xFFFFFFFF])
def test_sequence_wraparound(tmp_path, isn):
    """A stream whose sequence numbers cross 2**32 reassembles whole."""
    chunks = [bytes([k]) * 100 for k in range(8)]
    base = (isn + 1) & 0xFFFFFFFF
    segs = [((base + 100 * k) & 0xFFFFFFFF, c, k) for k, c in enumerate(chunks)]
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(segs, base)
        assert stream == b"".join(chunks)
        assert not gap and not anomaly
        assert segmap == [(100 * k, k) for k in range(8)]

    path = str(tmp_path / "wrap.pcap")
    frames = [(1.0, build_tcp_frame(CLIENT, SERVER, isn, flags=TCP_FLAG_SYN))]
    for k, (seq, payload, _) in enumerate(segs):
        frames.append((1.1 + 0.01 * k, build_tcp_frame(
            CLIENT, SERVER, seq, payload, flags=TCP_FLAG_ACK | TCP_FLAG_PSH)))
    write_pcap(path, frames)
    (raw,) = load_pcap(path)
    assert raw.client_stream == b"".join(chunks)
    assert not raw.gap_client


def test_reassemble_without_syn_across_wraparound():
    """With no SYN the stream starts at the earliest seq modulo 2**32, so
    the bytes sent before the wrap are kept, not dropped as duplicates."""
    chunks = [bytes([65 + k]) * 100 for k in range(4)]
    segs = [((0xFFFFFF80 + 100 * k) & 0xFFFFFFFF, c, k)
            for k, c in enumerate(chunks)]
    for reassemble in BOTH:
        stream, segmap, gap, anomaly = reassemble(segs)
        assert stream == b"".join(chunks)
        assert not gap and not anomaly
        assert segmap == [(100 * k, k) for k in range(4)]
        # the earliest seq is found whichever segment arrives first
        stream, _, gap, _ = reassemble(segs[2:] + segs[:2])
        assert stream == b"".join(chunks) and not gap


def _load_both(path):
    """``load_pcap``, checked against the per-frame reference reader."""
    raws = load_pcap(path)
    assert raws == reference_load_pcap(path)
    return raws


# a SYN handshake, then client "hello ", server "reply bytes", client "world"
_FLOW = pcap_frames([b"hello ", b"world"], [b"reply bytes"])


def _vlan_tagged(frame):
    return frame[:12] + b"\x81\x00\x00\x07" + frame[12:]


def _ip_options(frame):
    """The frame with a 24-byte IPv4 header (ihl 6): four option bytes."""
    total_len = struct.unpack_from("!H", frame, 16)[0]
    return (frame[:14] + b"\x46" + frame[15:16]
            + struct.pack("!H", total_len + 4) + frame[18:34]
            + b"\x01\x01\x01\x00" + frame[34:])


# the ARP ethertype and the UDP protocol number over bytes that would
# otherwise decode as an IPv4/TCP frame of the flow
_ARP = (lambda f: f[:12] + b"\x08\x06" + f[14:])(
    build_tcp_frame(CLIENT, SERVER, 7, b"not ip"))
_UDP = (lambda f: f[:23] + b"\x11" + f[24:])(
    build_tcp_frame(CLIENT, SERVER, 7, b"not tcp"))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda fr: fr[:3] + [(fr[3][0], _vlan_tagged(fr[3][1]))]
                 + fr[4:], id="802.1q"),
    pytest.param(lambda fr: fr[:2] + [(fr[2][0], _ip_options(fr[2][1]))]
                 + fr[3:], id="ip-options"),
    pytest.param(lambda fr: fr[:3] + [(fr[2][0], _ARP), (fr[2][0], _UDP)]
                 + fr[3:], id="arp-and-udp")])
def test_frame_paths(tmp_path, edit):
    """A VLAN tag and IPv4 options are decoded through; ARP and UDP frames
    between the TCP frames are skipped."""
    path = str(tmp_path / "edit.pcap")
    write_pcap(path, edit(list(_FLOW)))
    (raw,) = _load_both(path)
    assert raw.client_stream == b"hello world"
    assert raw.server_stream == b"reply bytes"
    assert [p.payload_len for p in raw.packets] == [6, 11, 5]
    write_pcap(path, _FLOW)
    assert [raw] == load_pcap(path)


def _reencode(data, endian, nanos):
    """A little-endian microsecond pcap in another byte order or with the
    nanosecond magic (and 123 ns added to every timestamp)."""
    fields = struct.unpack_from("<IHHiIII", data)
    out = [struct.pack(endian + "IHHiIII",
                       PCAP_MAGIC_NS if nanos else PCAP_MAGIC_US, *fields[1:])]
    pos = 24
    while pos < len(data):
        sec, frac, incl_len, orig_len = struct.unpack_from("<IIII", data, pos)
        if nanos:
            frac = frac * 1000 + 123
        out += [struct.pack(endian + "IIII", sec, frac, incl_len, orig_len),
                data[pos + 16:pos + 16 + incl_len]]
        pos += 16 + incl_len
    return b"".join(out)


@pytest.mark.parametrize("endian, nanos", [(">", False), ("<", True),
                                           (">", True)])
def test_big_endian_and_nanosecond_pcaps(tmp_path, endian, nanos):
    path = tmp_path / "flow.pcap"
    write_pcap(str(path), _FLOW)
    (want,) = load_pcap(str(path))
    path.write_bytes(_reencode(path.read_bytes(), endian, nanos))
    (raw,) = _load_both(str(path))
    assert (raw.client_stream, raw.server_stream) == \
        (b"hello world", b"reply bytes")
    shift = 123e-9 if nanos else 0.0
    assert [p.timestamp for p in raw.packets] == pytest.approx(
        [p.timestamp + shift for p in want.packets], rel=0, abs=1e-9)
    assert raw.start_time == pytest.approx(want.start_time + shift, abs=1e-9)


def test_empty_pcap_is_a_pcap_error(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(b"")
    for load in (load_pcap, reference_load_pcap):
        with pytest.raises(PcapError):
            load(str(path))


@pytest.mark.parametrize("cut", [3, len(_FLOW[-1][1]) + 8],
                         ids=["body", "header"])
def test_truncated_record_keeps_earlier_frames(tmp_path, cut):
    """A record cut in its body or its header ends the capture there; the
    frames before it still load."""
    path = tmp_path / "cut.pcap"
    write_pcap(str(path), _FLOW)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut])  # into the "world" record
    (raw,) = _load_both(str(path))
    assert raw.client_stream == b"hello "
    assert raw.server_stream == b"reply bytes"


def test_self_connection_gives_each_side_every_segment(tmp_path):
    """When both endpoints are the same, every data packet is client to
    server and both streams hold all of them, as the reference reader has
    it."""
    path = str(tmp_path / "self.pcap")
    write_pcap(path, [
        (1.0, build_tcp_frame(CLIENT, CLIENT, 9, flags=TCP_FLAG_SYN)),
        (1.1, build_tcp_frame(CLIENT, CLIENT, 10, b"abc")),
        (1.2, build_tcp_frame(CLIENT, CLIENT, 13, b"def"))])
    (raw,) = _load_both(path)
    assert raw.five_tuple == (*CLIENT, *CLIENT, "tcp")
    assert raw.client_stream == raw.server_stream == b"abcdef"
    assert {p.direction for p in raw.packets} == {Direction.CLIENT_TO_SERVER}


def test_syn_less_capture_across_wraparound(tmp_path):
    """A capture that starts mid-connection, with no SYN, and whose client
    sequence numbers cross 2**32 loads whole."""
    path = str(tmp_path / "nosyn.pcap")
    chunks = [bytes([65 + k]) * 100 for k in range(4)]
    write_pcap(path, [(1.0 + k, build_tcp_frame(
        CLIENT, SERVER, 0xFFFFFF80 + 100 * k, c)) for k, c in enumerate(chunks)])
    (raw,) = _load_both(path)
    assert raw.client_stream == b"".join(chunks)
    assert not raw.gap_client


def test_data_on_a_syn_starts_after_its_sequence_number(tmp_path):
    """Data carried on a SYN (TCP Fast Open) starts at the SYN's seq + 1,
    so a ClientHello sent on the SYN keeps its first byte and the
    connection parses as TLS."""
    ch, sh = handshake_payloads()
    app = tls_stream([(23, b"q" * 90)])
    path = str(tmp_path / "tfo.pcap")
    write_pcap(path, pcap_frames([app], [sh], syn_data=ch))
    (raw,) = _load_both(path)
    assert raw.client_stream == ch + app
    assert raw.client_segments.tolist() == [[0, 0], [len(ch), 1]]
    assert not (raw.gap_client or raw.gap_server or raw.overlap_anomaly)
    conn = parse_tls_records(raw)
    assert conn is not None
    assert conn.handshake.alpn_offered == ["h2", "http/1.1"]
    assert [r.type_code for r in conn.records] == [22, 23, 22]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(connection_frames(), min_size=1, max_size=3),
       st.booleans(), st.randoms(use_true_random=False))
def test_columnar_reassembly_matches_the_reference(tmp_path, conns, mix,
                                                    rnd):
    """The columnar core reassembles every direction of a capture as the
    per-segment reference does: the same streams, segment maps, gap and
    overlap flags, for duplicates, overlaps with equal and with other bytes,
    gaps, bytes before the base, ISNs that wrap, data on a SYN,
    self-connections and port pairs that a new SYN reuses, with the same
    roles or reversed (whole connections one after the other or, with
    ``mix``, frames interleaved)."""
    frames = [frame for conn in conns for frame in conn]
    if mix:
        rnd.shuffle(frames)
    path = str(tmp_path / "prop.pcap")
    write_pcap(path, [(1.0 + i / 1000, f) for i, f in enumerate(frames)])
    raws = _load_both(path)
    for raw in raws:
        assert_tiles(raw.client_stream, raw.client_segments)
        assert_tiles(raw.server_stream, raw.server_segments)

"""pcap loading and TCP reassembly."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.capture import (Direction, PcapError, build_tcp_frame,
                               load_pcap, reassemble, write_pcap,
                               TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN)

from helpers import CLIENT, SERVER, pcap_frames


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
    stream, segmap, gap, anomaly = reassemble(
        [(100, b"abc", 0), (103, b"def", 1)])
    assert stream == b"abcdef"
    assert not gap and not anomaly
    assert [(s.stream_offset, s.length, s.packet_index) for s in segmap] == \
        [(0, 3, 0), (3, 3, 1)]


def test_reassemble_out_of_order():
    stream, _, gap, anomaly = reassemble(
        [(103, b"def", 0), (100, b"abc", 1)])
    assert stream == b"abcdef"
    assert not gap and not anomaly


def test_reassemble_duplicate_dropped():
    stream, segmap, gap, anomaly = reassemble(
        [(100, b"abc", 0), (100, b"abc", 1), (103, b"def", 2)])
    assert stream == b"abcdef"
    assert not anomaly
    assert [s.packet_index for s in segmap] == [0, 2]


def test_reassemble_overlap_consistent():
    stream, _, gap, anomaly = reassemble(
        [(100, b"abcd", 0), (102, b"cdef", 1)])
    assert stream == b"abcdef"
    assert not anomaly


def test_reassemble_overlap_conflict_flags_anomaly():
    stream, _, gap, anomaly = reassemble(
        [(100, b"abcd", 0), (102, b"XYef", 1)])
    assert stream == b"abcdef"  # first-seen bytes win
    assert anomaly


def test_reassemble_gap_truncates():
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
    stream, segmap, gap, anomaly = reassemble(shuffled, base_seq=1000)
    assert stream == expected
    assert not gap and not anomaly
    assert sum(s.length for s in segmap) == len(expected)


def test_segment_map_covers_stream(tmp_path):
    path = str(tmp_path / "seg.pcap")
    write_pcap(path, pcap_frames([b"12345", b"678"], []))
    raw = load_pcap(path)[0]
    covered = sorted((s.stream_offset, s.stream_offset + s.length)
                     for s in raw.client_segments)
    assert covered[0][0] == 0
    assert covered[-1][1] == len(raw.client_stream)
    for (a, b), (c, d) in zip(covered, covered[1:]):
        assert b == c


@pytest.mark.parametrize("isn", [0xFFFFFF00, 0xFFFFFFFF])
def test_sequence_wraparound(tmp_path, isn):
    """A stream whose sequence numbers cross 2**32 reassembles whole."""
    chunks = [bytes([k]) * 100 for k in range(8)]
    base = (isn + 1) & 0xFFFFFFFF
    segs = [((base + 100 * k) & 0xFFFFFFFF, c, k) for k, c in enumerate(chunks)]
    stream, segmap, gap, anomaly = reassemble(segs, base)
    assert stream == b"".join(chunks)
    assert not gap and not anomaly
    assert [s.stream_offset for s in segmap] == [100 * k for k in range(8)]

    path = str(tmp_path / "wrap.pcap")
    frames = [(1.0, build_tcp_frame(CLIENT, SERVER, isn, flags=TCP_FLAG_SYN))]
    for k, (seq, payload, _) in enumerate(segs):
        frames.append((1.1 + 0.01 * k, build_tcp_frame(
            CLIENT, SERVER, seq, payload, flags=TCP_FLAG_ACK | TCP_FLAG_PSH)))
    write_pcap(path, frames)
    (raw,) = load_pcap(path)
    assert raw.client_stream == b"".join(chunks)
    assert not raw.gap_client

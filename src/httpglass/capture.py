"""Packet capture ingestion: pcap parsing, connection grouping, TCP reassembly.

Only classic pcap (not pcapng) with Ethernet link type is supported, in
either byte order and with microsecond or nanosecond timestamps.  The file is
memory-mapped read-only and read as columns: Python walks only the 16-byte
record headers, then the Ethernet, 802.1Q, IPv4 and TCP fields of every frame
are gathered with numpy, and each payload is a slice of the map.  Frames that
are too short, not IPv4 after at most one 802.1Q tag, or not TCP are skipped;
a truncated record header or body ends the capture.

The endpoint that sends the first SYN without ACK (or, absent any, the
flow's first packet) is treated as the client for direction assignment.  Each
direction is reassembled from its ISN + 1; with no SYN it starts at the
earliest sequence number, read modulo 2**32 around its first segment's.  Data
carried on a SYN (TCP Fast Open) starts at the SYN's seq + 1, as the SYN
itself takes one sequence number.
"""
from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from socket import inet_ntoa
from typing import Iterable, NamedTuple

import numpy as np

from . import HttpglassError

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1


class PcapError(HttpglassError):
    """Fatal problem with a capture file (bad magic, malformed global header)."""


class Direction(IntEnum):
    CLIENT_TO_SERVER = 0
    SERVER_TO_CLIENT = 1


class PacketMeta(NamedTuple):
    """Metadata for one data-bearing TCP packet."""

    timestamp: float
    direction: Direction
    payload_len: int
    push_flag: bool
    seq: int


@dataclass
class RawConnection:
    """One observed TCP connection with reassembled per-direction streams
    and their (stream offset, packet index) segment maps."""

    five_tuple: tuple
    packets: list[PacketMeta]
    client_stream: bytes
    server_stream: bytes
    duration: float
    client_segments: list[tuple[int, int]] = field(default_factory=list)
    server_segments: list[tuple[int, int]] = field(default_factory=list)
    gap_client: bool = False
    gap_server: bool = False
    overlap_anomaly: bool = False
    start_time: float = 0.0


# TCP flag bits
_FIN, _SYN, _RST, _PSH, _ACK = 0x01, 0x02, 0x04, 0x08, 0x10

_SEQ_MASK = 0xFFFFFFFF  # TCP sequence numbers are 32-bit
_HALF_SEQ = 1 << 31


def reassemble(segments: list[tuple[int, bytes, int]], base_seq: int | None = None,
               ) -> tuple[bytes, list[tuple[int, int]], bool, bool]:
    """Reassemble one direction of a TCP stream.

    ``segments`` is a list of (seq, payload, packet_index) in arrival order;
    a payload is any bytes-like object.  Returns (stream, segment_map,
    gap_flag, overlap_anomaly).  Duplicate bytes are dropped (first-seen
    wins; bytes before ``base_seq`` are never compared), and reassembly
    stops at the first unfilled gap; remaining bytes are discarded with the
    gap flag set.  The segment map is a list of (stream offset, packet
    index) pairs that tiles the stream: the offsets start at 0, strictly
    increase and stay below the stream's length, and no packet repeats.

    Without ``base_seq`` the stream starts at the earliest seq, read modulo
    2**32 around the first segment's, so a capture with no SYN whose
    sequence numbers cross 2**32 still reassembles whole.
    """
    if not segments:
        return b"", [], False, False
    if base_seq is None:
        # the earliest seq, read modulo 2**32 around the first segment's
        first = segments[0][0]
        base_seq = (first + min(((seq - first + _HALF_SEQ) & _SEQ_MASK)
                                - _HALF_SEQ for seq, _, _ in segments)) & _SEQ_MASK
    # offsets from base_seq mod 2**32, signed so bytes before base_seq stay
    # duplicates; the stable sort keeps first-seen order among equal offsets
    ordered = sorted(
        ((((seq - base_seq + _HALF_SEQ) & _SEQ_MASK) - _HALF_SEQ, payload, pkt_idx)
         for seq, payload, pkt_idx in segments), key=lambda s: s[0])
    stream = bytearray()
    segmap: list[tuple[int, int]] = []
    expected = 0
    gap = False
    anomaly = False
    for off, payload, pkt_idx in ordered:
        end = off + len(payload)
        if end <= expected:
            continue  # full duplicate / retransmission
        if off > expected:
            gap = True
            break
        skip = expected - off
        if skip > 0:
            # overlap region: first-seen bytes already in the stream win
            lo = max(off, 0)
            if stream[lo:expected] != payload[lo - off:skip]:
                anomaly = True
        new = payload[skip:]
        if new:
            segmap.append((len(stream), pkt_idx))
            stream.extend(new)
            expected = end
    return bytes(stream), segmap, gap, anomaly


def _record_heads(capture) -> tuple[list[int], str, float]:
    """Check the global header, then walk the 16-byte record headers.

    Returns the offset of each whole record's header, the file's byte order
    and its timestamp divisor.  The walk stops at a truncated record header
    or body.
    """
    if len(capture) < 24:
        raise PcapError("truncated pcap global header")
    magic = struct.unpack_from("<I", capture)[0]
    if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian = "<"
    else:
        magic = struct.unpack_from(">I", capture)[0]
        if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
            endian = ">"
        else:
            raise PcapError("not a classic pcap file (bad magic)")
    linktype = struct.unpack_from(endian + "I", capture, 20)[0]
    if linktype != LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported link type {linktype}")
    incl_len = struct.Struct(endian + "I").unpack_from
    size, pos = len(capture), 24
    heads = []
    while pos + 16 <= size:
        end = pos + 16 + incl_len(capture, pos + 8)[0]
        if end > size:
            break
        heads.append(pos)
        pos = end
    return heads, endian, 1e9 if magic == PCAP_MAGIC_NS else 1e6


def _gather(data: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each offset, one row per frame.  Offsets are
    clipped to the map; the length masks drop rows that ran past a frame."""
    return data.take(at[:, None] + np.arange(width), mode="clip")


def _field(block: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The big-endian unsigned field in bytes ``lo:hi`` of each row."""
    value = block[:, lo].astype(np.int64)
    for k in range(lo + 1, hi):
        value = value << 8 | block[:, k]
    return value


def _decode_frames(capture):
    """Columns of the IPv4/TCP frames: (ts, src, dst, seq, flags,
    payload_at, payload_len), in file order.

    Frames that are short, not IPv4 after at most one 802.1Q tag, or not
    TCP are dropped.  Endpoints are ``ip << 16 | port``.  The TCP header
    starts ``ihl * 4`` bytes into the IPv4 header and the payload
    ``data_off * 4`` bytes into the TCP header, as the fields say, with no
    floor of 20.  The payload ends at the IPv4 total length or at the end of
    the frame, whichever comes first, and may be empty.
    """
    heads, endian, ts_div = _record_heads(capture)
    data = np.frombuffer(capture, np.uint8)
    heads = np.array(heads, np.int64)
    # ts_sec, ts_frac, incl_len, orig_len of every record
    record = _gather(data, heads, 16).view(endian + "u4")
    start = heads + 16
    length = record[:, 2].astype(np.int64)
    # float64 sec + frac / ts_div: bit-identical to the same sum in Python
    ts = record[:, 0] + record[:, 1] / ts_div
    eth = _gather(data, start, 18)
    vlan = _field(eth, 12, 14) == 0x8100
    off = np.where(vlan, 18, 14)
    ethertype = np.where(vlan, _field(eth, 16, 18), _field(eth, 12, 14))
    ip = _gather(data, start + off, 20)
    tcp_off = off + (ip[:, 0] & 0x0F) * 4
    tcp = _gather(data, start + tcp_off, 14)
    del data  # the map can close only when no view of it is left
    keep = ((length >= tcp_off + 20) & (ethertype == 0x0800)
            & (ip[:, 0] >> 4 == 4) & (ip[:, 9] == 6))
    start, length, ts, off, tcp_off, ip, tcp = (
        a[keep] for a in (start, length, ts, off, tcp_off, ip, tcp))
    payload_at = start + tcp_off + (tcp[:, 12] >> 4) * 4
    payload_end = start + np.minimum(off + _field(ip, 2, 4), length)
    return (ts, _field(ip, 12, 16) << 16 | _field(tcp, 0, 2),
            _field(ip, 16, 20) << 16 | _field(tcp, 2, 4), _field(tcp, 4, 8),
            tcp[:, 13], payload_at, np.maximum(payload_end - payload_at, 0))


def _first_per_flow(flow: np.ndarray, rows: np.ndarray, n_flows: int):
    """Per flow, the first of ``rows`` (frame indices) that lies in it, or -1."""
    flows, at = np.unique(flow[rows], return_index=True)
    first = np.full(n_flows, -1, np.int64)
    first[flows] = rows[at]
    return first


def _endpoint(key: int) -> tuple[str, int]:
    return inet_ntoa((key >> 16).to_bytes(4, "big")), key & 0xFFFF


def _connections(capture) -> list[RawConnection]:
    ts, src, dst, seq, flags, payload_at, payload_len = _decode_frames(capture)
    if not len(ts):
        return []
    # a flow is an unordered endpoint pair; flows are numbered by first frame
    pairs = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    n_flows = len(order)
    rank = np.empty(n_flows, np.int64)
    rank[order] = np.arange(n_flows)
    flow = rank[inverse.reshape(-1)]
    first = first[order]
    last = _first_per_flow(flow, np.arange(len(flow))[::-1], n_flows)  # reversed
    # the client sent the flow's first SYN without ACK, or else its first frame
    syn = flags & _SYN != 0
    syn_sender = _first_per_flow(flow, np.flatnonzero(syn & (flags & _ACK == 0)),
                                 n_flows)
    client = np.where(syn_sender >= 0, src[syn_sender], src[first])
    server = np.where(client == pairs[first, 0], pairs[first, 1],
                      pairs[first, 0])
    # an endpoint's ISN is the seq of the last SYN it sent
    syn_rows = np.flatnonzero(syn)[::-1]
    bases = []
    for end in (client, server):
        rows = syn_rows[src[syn_rows] == end[flow[syn_rows]]]
        isn = _first_per_flow(flow, rows, n_flows)
        bases.append([None if row < 0 else (s + 1) & _SEQ_MASK for row, s in
                      zip(isn.tolist(), seq[isn].tolist())])

    # data packets, grouped by flow and in file order within each
    rows = np.flatnonzero(payload_len)
    rows = rows[np.argsort(flow[rows], kind="stable")]
    data_flow = flow[rows]
    bounds = np.searchsorted(data_flow, np.arange(n_flows + 1)).tolist()
    from_client = (src[rows] == client[data_flow]).tolist()
    from_server = (src[rows] == server[data_flow]).tolist()
    directions = [Direction.CLIENT_TO_SERVER if c else Direction.SERVER_TO_CLIENT
                  for c in from_client]
    push = (flags[rows] & _PSH != 0).tolist()
    # a SYN's own sequence number comes before the data it carries
    starts = ((seq[rows] + syn[rows]) & _SEQ_MASK).tolist()
    times, seqs, ats, lens = (a[rows].tolist()
                              for a in (ts, seq, payload_at, payload_len))
    view = memoryview(capture)
    connections = []
    for k, (c, s, t0, dur) in enumerate(zip(
            client.tolist(), server.tolist(), ts[first].tolist(),
            (ts[last] - ts[first]).tolist())):
        a, b = bounds[k], bounds[k + 1]
        packets = list(map(PacketMeta, times[a:b], directions[a:b], lens[a:b],
                           push[a:b], seqs[a:b]))
        # a self-connection (client == server) gives each side every segment
        raw_c, raw_s = [], []
        for i, j in enumerate(range(a, b)):
            segment = (starts[j], view[ats[j]:ats[j] + lens[j]], i)
            if from_client[j]:
                raw_c.append(segment)
            if from_server[j]:
                raw_s.append(segment)
        cs, cmap, gap_c, an_c = reassemble(raw_c, bases[0][k])
        ss, smap, gap_s, an_s = reassemble(raw_s, bases[1][k])
        connections.append(RawConnection(
            five_tuple=(*_endpoint(c), *_endpoint(s), "tcp"),
            packets=packets, client_stream=cs, server_stream=ss,
            duration=dur, client_segments=cmap, server_segments=smap,
            gap_client=gap_c, gap_server=gap_s,
            overlap_anomaly=an_c or an_s, start_time=t0))
    return connections


def load_pcap(path: str) -> list[RawConnection]:
    """Load a classic pcap file and group TCP traffic into connections.

    Flows come out in the order of their first packet.  Each data packet gets
    its direction once, after the whole capture is read, so a SYN seen after
    data still decides which endpoint is the client.
    """
    with open(path, "rb") as fh:
        try:
            capture = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # mmap refuses an empty file
            raise PcapError("truncated pcap global header") from None
    with capture:  # every payload view dies with _connections' frame
        return _connections(capture)


def write_pcap(path: str, frames: Iterable[tuple[float, bytes]]) -> None:
    """Write raw Ethernet frames to a classic (microsecond) pcap file."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535,
                             LINKTYPE_ETHERNET))
        for ts, data in frames:
            sec = int(ts)
            carry, usec = divmod(round((ts - sec) * 1e6), 1_000_000)
            fh.write(struct.pack("<IIII", sec + carry, usec, len(data),
                                 len(data)))
            fh.write(data)


def build_tcp_frame(src: tuple[str, int], dst: tuple[str, int], seq: int,
                    payload: bytes = b"", flags: int = _ACK, ack: int = 0) -> bytes:
    """Build a minimal Ethernet/IPv4/TCP frame (checksums left zero)."""
    eth = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
    total_len = 20 + 20 + len(payload)
    src_ip = bytes(int(x) for x in src[0].split("."))
    dst_ip = bytes(int(x) for x in dst[0].split("."))
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, 6, 0,
                     src_ip, dst_ip)
    tcp = struct.pack("!HHIIBBHHH", src[1], dst[1], seq & 0xFFFFFFFF, ack,
                      5 << 4, flags, 65535, 0, 0)
    return eth + ip + tcp + payload


TCP_FLAG_SYN = _SYN
TCP_FLAG_ACK = _ACK
TCP_FLAG_PSH = _PSH

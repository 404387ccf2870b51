"""Packet capture ingestion: pcap parsing, connection grouping, TCP reassembly.

Only classic pcap (not pcapng) with Ethernet link type is supported.  The
endpoint that sends the first SYN (or, absent any SYN, the first packet) is
treated as the client for direction assignment.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from socket import inet_ntoa
from typing import BinaryIO, Iterable

from . import HttpglassError

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1


class PcapError(HttpglassError):
    """Fatal problem with a capture file (bad magic, malformed global header)."""


class Direction(IntEnum):
    CLIENT_TO_SERVER = 0
    SERVER_TO_CLIENT = 1


@dataclass(frozen=True)
class PacketMeta:
    """Metadata for one data-bearing TCP packet."""

    timestamp: float
    direction: Direction
    payload_len: int
    push_flag: bool
    seq: int

    def __post_init__(self):
        if self.payload_len < 0:
            raise ValueError("payload_len must be >= 0")


@dataclass(frozen=True)
class Segment:
    """A contiguous run of reassembled stream bytes attributed to one packet."""

    stream_offset: int
    length: int
    packet_index: int


@dataclass
class RawConnection:
    """One observed TCP connection with reassembled per-direction streams."""

    five_tuple: tuple
    packets: list[PacketMeta]
    client_stream: bytes
    server_stream: bytes
    duration: float
    client_segments: list[Segment] = field(default_factory=list)
    server_segments: list[Segment] = field(default_factory=list)
    gap_client: bool = False
    gap_server: bool = False
    overlap_anomaly: bool = False
    start_time: float = 0.0

    def segments(self, direction: Direction) -> list[Segment]:
        if direction == Direction.CLIENT_TO_SERVER:
            return self.client_segments
        return self.server_segments

    def stream(self, direction: Direction) -> bytes:
        if direction == Direction.CLIENT_TO_SERVER:
            return self.client_stream
        return self.server_stream


# TCP flag bits
_FIN, _SYN, _RST, _PSH, _ACK = 0x01, 0x02, 0x04, 0x08, 0x10

_SEQ_MASK = 0xFFFFFFFF  # TCP sequence numbers are 32-bit
_HALF_SEQ = 1 << 31


@dataclass
class _FlowState:
    first_sender: tuple  # (ip, port) of the flow's first packet
    first_ts: float
    last_ts: float
    syn_sender: tuple | None = None  # sender of the first SYN without ACK
    isn: dict = field(default_factory=dict)  # endpoint -> SYN seq
    data: list = field(default_factory=list)  # (ts, src, payload, flags, seq)


def reassemble(segments: list[tuple[int, bytes, int]], base_seq: int | None = None,
               ) -> tuple[bytes, list[Segment], bool, bool]:
    """Reassemble one direction of a TCP stream.

    ``segments`` is a list of (seq, payload, packet_index) in arrival order.
    Returns (stream, segment_map, gap_flag, overlap_anomaly).  Duplicate bytes
    are dropped (first-seen wins), and reassembly stops at the first unfilled
    gap; remaining bytes are discarded with the gap flag set.  The segment
    map tiles the stream: its segments start at offset 0, follow each other
    without holes up to the stream's end, are never empty and name each
    packet at most once.
    """
    if not segments:
        return b"", [], False, False
    if base_seq is None:
        base_seq = min(seq for seq, _, _ in segments)
    # offsets from base_seq mod 2**32, signed so bytes before base_seq stay
    # duplicates; the stable sort keeps first-seen order among equal offsets
    ordered = sorted(
        ((((seq - base_seq + _HALF_SEQ) & _SEQ_MASK) - _HALF_SEQ, payload, pkt_idx)
         for seq, payload, pkt_idx in segments), key=lambda s: s[0])
    stream = bytearray()
    segmap: list[Segment] = []
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
            prior = bytes(stream[off:expected])
            if prior != payload[:skip]:
                anomaly = True
        new = payload[skip:]
        if new:
            segmap.append(Segment(len(stream), len(new), pkt_idx))
            stream.extend(new)
            expected = end
    return bytes(stream), segmap, gap, anomaly


_TCP_HEADER = struct.Struct("!HHI4xBB")


def _parse_frame(data: bytes):
    """Ethernet/IPv4/TCP decode; returns None for anything else."""
    if len(data) < 14:
        return None
    ethertype = struct.unpack_from("!H", data, 12)[0]
    off = 14
    if ethertype == 0x8100:  # single 802.1Q tag
        if len(data) < 18:
            return None
        ethertype = struct.unpack_from("!H", data, 16)[0]
        off = 18
    if ethertype != 0x0800:
        return None
    if len(data) < off + 20:
        return None
    ver_ihl = data[off]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    total_len = struct.unpack_from("!H", data, off + 2)[0]
    proto = data[off + 9]
    if proto != 6:
        return None
    tcp_off = off + ihl
    if len(data) < tcp_off + 20:
        return None
    # ports, sequence number, (ack skipped) data offset and flags
    sport, dport, seq, data_off, flags = _TCP_HEADER.unpack_from(data, tcp_off)
    payload_start = tcp_off + (data_off >> 4) * 4
    payload = data[payload_start:min(off + total_len, len(data))]
    src = (inet_ntoa(data[off + 12:off + 16]), sport)
    dst = (inet_ntoa(data[off + 16:off + 20]), dport)
    return src, dst, seq, flags, payload


def _read_pcap_records(fh: BinaryIO):
    header = fh.read(24)
    if len(header) < 24:
        raise PcapError("truncated pcap global header")
    magic = struct.unpack("<I", header[:4])[0]
    if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian = "<"
    else:
        magic = struct.unpack(">I", header[:4])[0]
        if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
            endian = ">"
        else:
            raise PcapError("not a classic pcap file (bad magic)")
    ts_div = 1e9 if magic == PCAP_MAGIC_NS else 1e6
    linktype = struct.unpack(endian + "I", header[20:24])[0]
    if linktype != LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported link type {linktype}")
    while True:
        rec = fh.read(16)
        if len(rec) < 16:
            return  # end of file, or a truncated record header
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(endian + "IIII", rec)
        data = fh.read(incl_len)
        if len(data) < incl_len:
            return  # truncated record body
        yield ts_sec + ts_frac / ts_div, data


def load_pcap(path: str) -> list[RawConnection]:
    """Load a classic pcap file and group TCP traffic into connections.

    Flows come out in the order of their first packet.  Each data packet gets
    its direction once, after the whole capture is read, so a SYN seen after
    data still decides which endpoint is the client.
    """
    flows: dict[tuple, _FlowState] = {}
    with open(path, "rb") as fh:
        for ts, data in _read_pcap_records(fh):
            parsed = _parse_frame(data)
            if parsed is None:
                continue
            src, dst, seq, flags, payload = parsed
            key = (min(src, dst), max(src, dst))
            state = flows.get(key)
            if state is None:
                state = flows[key] = _FlowState(src, ts, ts)
            state.last_ts = ts
            if flags & _SYN:
                state.isn[src] = seq
                if not flags & _ACK and state.syn_sender is None:
                    state.syn_sender = src
            if payload:
                state.data.append((ts, src, payload, flags, seq))
    connections = []
    for (a, b), state in flows.items():
        client = state.syn_sender or state.first_sender
        server = b if client == a else a
        packets = []
        # a self-connection (client == server) shares one list, so each side
        # reassembles every segment of the flow
        raw_segs = {client: [], server: []}
        for idx, (ts, src, payload, flags, seq) in enumerate(state.data):
            direction = (Direction.CLIENT_TO_SERVER if src == client
                         else Direction.SERVER_TO_CLIENT)
            packets.append(PacketMeta(ts, direction, len(payload),
                                      bool(flags & _PSH), seq))
            raw_segs[src].append((seq, payload, idx))
        base_c = (state.isn[client] + 1) & _SEQ_MASK if client in state.isn else None
        base_s = (state.isn[server] + 1) & _SEQ_MASK if server in state.isn else None
        cs, cmap, gap_c, an_c = reassemble(raw_segs[client], base_c)
        ss, smap, gap_s, an_s = reassemble(raw_segs[server], base_s)
        connections.append(RawConnection(
            five_tuple=(client[0], client[1], server[0], server[1], "tcp"),
            packets=packets,
            client_stream=cs, server_stream=ss,
            duration=state.last_ts - state.first_ts,
            client_segments=cmap, server_segments=smap,
            gap_client=gap_c, gap_server=gap_s,
            overlap_anomaly=an_c or an_s,
            start_time=state.first_ts,
        ))
    return connections


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

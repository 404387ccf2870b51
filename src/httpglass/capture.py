"""Packet capture ingestion: pcap parsing, connection grouping, TCP reassembly.

Only classic pcap (not pcapng) with Ethernet link type is supported, in
either byte order and with microsecond or nanosecond timestamps.  The file is
memory-mapped read-only and read as columns: Python walks only the 16-byte
record headers, then the Ethernet, 802.1Q, IPv4 and TCP fields of every frame
are gathered with numpy, and each payload is a slice of the map.  Frames that
are too short, not IPv4 after at most one 802.1Q tag, or not TCP are skipped;
a truncated record header or body ends the capture.

A connection is an endpoint pair's frames up to the next SYN without ACK
whose sender's previous SYN on that pair, with or without ACK, had another
sequence number: a retransmitted SYN stays in its connection, and so does a
simultaneous open, while a pair reused with the roles reversed splits.  The
client sent the connection's first SYN without ACK (or, absent any, its
first frame).  Every direction of the capture is reassembled at once, as
columns, from its ISN + 1, or with no SYN from its earliest sequence number,
read modulo 2**32 around its first segment's.  Data on a SYN (TCP Fast Open)
starts at the SYN's seq + 1.  Each stream is one join of slices of the map.

The data packets of the whole capture are one ``PACKET_DTYPE`` array; each
connection's ``Packets`` table and (stream offset, packet index) segment maps
are views of the capture's columns.
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
    """Metadata for one data-bearing TCP packet: a row of ``Packets``."""

    timestamp: float
    direction: int  # a Direction value
    payload_len: int
    push_flag: bool
    seq: int


# the columns of a connection's data packets, in PacketMeta's field order
PACKET_DTYPE = np.dtype([
    ("timestamp", np.float64), ("direction", np.int64),
    ("payload_len", np.int64), ("push_flag", np.bool_), ("seq", np.int64)])


class Packets:
    """A connection's data packets, in capture order, as one array of
    ``PACKET_DTYPE`` rows.

    numpy readers take its columns from ``array``.  ``len``, indexing and
    iteration give ``PacketMeta`` rows built from the array's ``tolist()``,
    as cheap to walk as a list of them; a slice is a table viewing the same
    array.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    @classmethod
    def from_rows(cls, rows) -> Packets:
        """The table of (timestamp, direction, payload_len, push_flag, seq)
        rows, in one conversion."""
        return cls(np.array(list(map(tuple, rows)), PACKET_DTYPE))

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Packets(self.array[k])
        return PacketMeta._make(self.array[k].tolist())

    def __iter__(self):
        return map(PacketMeta._make, self.array.tolist())

    def __eq__(self, other):
        if not isinstance(other, Packets):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Packets({self.array!r})"


def no_segments() -> np.ndarray:
    """The segment map of an empty stream."""
    return np.empty((0, 2), np.int64)


@dataclass(eq=False)
class RawConnection:
    """One observed TCP connection with reassembled per-direction streams
    and their segment maps: (k, 2) int64 arrays of (stream offset, packet
    index) rows."""

    five_tuple: tuple
    packets: Packets
    client_stream: bytes
    server_stream: bytes
    duration: float
    client_segments: np.ndarray = field(default_factory=no_segments)
    server_segments: np.ndarray = field(default_factory=no_segments)
    gap_client: bool = False
    gap_server: bool = False
    overlap_anomaly: bool = False
    start_time: float = 0.0

    def __eq__(self, other):
        """Field by field; the segment maps compare as arrays."""
        if not isinstance(other, RawConnection):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b
                   for a, b in zip(vars(self).values(), vars(other).values()))


# TCP flag bits
_FIN, _SYN, _RST, _PSH, _ACK = 0x01, 0x02, 0x04, 0x08, 0x10

_SEQ_MASK = 0xFFFFFFFF  # TCP sequence numbers are 32-bit
_HALF_SEQ = 1 << 31


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


def _endpoint(key: int) -> tuple[str, int]:
    return inet_ntoa((key >> 16).to_bytes(4, "big")), key & 0xFFFF


def _reassemble(group, start, length, at, index, base):
    """Plan the reassembly of every direction at once.

    One entry per segment: its direction ``group`` (non-decreasing, arrival
    order within a group), start seq, payload length (> 0), place ``at`` in
    the capture and packet ``index``.  ``base[g]`` is group g's ISN + 1, or
    -1 for its earliest seq.  Offsets from the base are signed, so bytes
    before it are duplicates.  In (group, offset, arrival) order, a segment
    that ends within the bytes before it is a duplicate (first seen wins),
    the first that starts past them is a gap and cuts the rest of its group,
    and every other one adds its bytes past them.

    Returns plain lists, so no other column outlives the call: the bounds
    of each group's kept entries; per kept entry, the capture range of its
    new bytes, and its (stream offset, packet index) row of one (k, 2)
    array; each group's gap flag; and (group, lo, hi, at) of each overlap
    inside the stream, whose capture bytes from ``at`` must equal the
    stream's ``lo:hi``.
    """
    head = np.diff(group, prepend=-1) != 0
    run = np.cumsum(head) - 1  # the entry's group, numbered densely
    # offsets are signed distances mod 2**32: from the first segment, then
    # from the base (without one, from the earliest seq)
    first, origin = start[head], base[group[head]]
    off = ((start - first[run] + _HALF_SEQ) & _SEQ_MASK) - _HALF_SEQ
    origin = np.where(origin < 0, first + np.minimum.reduceat(
        off, np.flatnonzero(head)), origin)
    off = ((start - origin[run] + _HALF_SEQ) & _SEQ_MASK) - _HALF_SEQ
    order = np.argsort((run << 33) + off, kind="stable")
    group, run, off, length, at, index = (
        a[order] for a in (group, run, off, length, at, index))
    # the largest end before each entry in its group, and at least 0
    reach = np.maximum.accumulate((run << 33) + off + length)
    expected = np.maximum(np.r_[0, reach[:-1]] - (run << 33), 0)
    gap = off > expected
    kept = np.flatnonzero((np.maximum.accumulate(2 * run + gap) == 2 * run)
                          & (off + length > expected))
    lo = np.maximum(off, 0)
    over = kept[expected[kept] > lo[kept]]
    checks = list(zip(*(a[over].tolist() for a in (group, lo, expected,
                                                   at + lo - off))))
    return (np.searchsorted(group[kept], np.arange(len(base) + 1)).tolist(),
            (at + expected - off)[kept].tolist(), (at + length)[kept].tolist(),
            np.stack([expected[kept], index[kept]], axis=1),
            (np.bincount(group[gap], minlength=len(base)) > 0).tolist(),
            checks)


def _streams(view, plan):
    """Join each group's stream from ``_reassemble``'s plan: (streams,
    segment maps, gap flags, overlap anomaly flags), one per group; each
    segment map is a view of the plan's."""
    bounds, froms, tos, segments, gaps, checks = plan
    spans = list(zip(bounds, bounds[1:]))
    streams = [b"".join([view[a:b] for a, b in zip(froms[x:y], tos[x:y])])
               for x, y in spans]
    anomalies = [False] * len(spans)
    for g, lo, hi, at in checks:
        if streams[g][lo:hi] != view[at:at + hi - lo]:
            anomalies[g] = True
    return streams, [segments[x:y] for x, y in spans], gaps, anomalies


def _flows(capture):
    """Group the frames into connections and plan each direction's
    reassembly.  Returns plain lists, so no other column outlives the call:
    per connection, in order of its first frame, (number, client, server,
    start time, duration, bounds of its data packets); the capture's data
    packets, one ``PACKET_DTYPE`` array in connection order; and the
    plan."""
    ts, src, dst, seq, flags, at, length = _decode_frames(capture)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((hi, lo))  # by endpoint pair, then file order
    ts, src, seq, flags, at, length, lo, hi = (
        a[order] for a in (ts, src, seq, flags, at, length, lo, hi))
    head = (np.diff(lo, prepend=-1) != 0) | (np.diff(hi, prepend=-1) != 0)
    pair = np.cumsum(head)
    # a SYN without ACK starts a new connection on its pair when its
    # sender's previous SYN there, with or without ACK, had another
    # sequence number
    syn = flags & _SYN != 0
    opening = syn & (flags & _ACK == 0)
    opens = np.flatnonzero(opening)
    syns = np.flatnonzero(syn)
    o = syns[np.lexsort((src[syns], pair[syns]))]
    head[o[1:][(np.diff(pair[o]) == 0) & (np.diff(src[o]) == 0)
               & (np.diff(seq[o]) != 0) & opening[o[1:]]]] = True
    firsts = np.flatnonzero(head)
    conn, n = np.cumsum(head) - 1, len(firsts)
    # the client sent the connection's first SYN without ACK, or else its
    # first frame; a self-connection (client == server) gives each side
    # every segment
    client = src[firsts]
    opener = opens[np.diff(conn[opens], prepend=-1) != 0]
    client[conn[opener]] = src[opener]
    ends = np.stack([client, lo[firsts] + hi[firsts] - client])
    # an endpoint's ISN is the seq of the last SYN it sent
    side, row = np.nonzero(src[syns] == ends[:, conn[syns]])
    group, row = side * n + conn[syns[row]], syns[row]
    last = np.diff(group, append=-1) != 0
    base = np.full(2 * n, -1)
    base[group[last]] = (seq[row[last]] + 1) & _SEQ_MASK
    # a SYN's own sequence number comes before the data it carries
    data = np.flatnonzero(length)
    owner = conn[data]
    bounds = np.searchsorted(owner, np.arange(n + 1))
    side, k = np.nonzero(src[data] == ends[:, owner])
    row = data[k]
    plan = _reassemble(side * n + owner[k], (seq + syn)[row] & _SEQ_MASK,
                       length[row], at[row], k - bounds[owner[k]], base)
    rank = np.argsort(order[firsts])
    first, last = ts[firsts], ts[np.r_[head, True][1:]]
    heads = zip(*(a.tolist() for a in (
        rank, ends[0, rank], ends[1, rank], first[rank],
        (last - first)[rank], bounds[rank], bounds[rank + 1])))
    packets = np.empty(len(data), PACKET_DTYPE)
    for name, column in (("timestamp", ts), ("payload_len", length),
                         ("push_flag", flags & _PSH != 0), ("seq", seq)):
        packets[name] = column[data]
    packets["direction"] = src[data] != client[owner]
    return list(heads), packets, plan


def _connections(capture) -> list[RawConnection]:
    heads, packets, plan = _flows(capture)
    streams, maps, gaps, anomalies = _streams(memoryview(capture), plan)
    n = len(heads)
    return [RawConnection(
        five_tuple=(*_endpoint(c), *_endpoint(s), "tcp"),
        packets=Packets(packets[a:b]), client_stream=streams[k],
        server_stream=streams[n + k], duration=dur,
        client_segments=maps[k], server_segments=maps[n + k],
        gap_client=gaps[k], gap_server=gaps[n + k],
        overlap_anomaly=anomalies[k] or anomalies[n + k], start_time=t0)
        for k, c, s, t0, dur, a, b in heads]


def load_pcap(path: str) -> list[RawConnection]:
    """Load a classic pcap file and group TCP traffic into connections.

    Connections come out in the order of their first frame.  Each data
    packet gets its direction once, after the whole capture is read, so a
    SYN seen after data still decides which endpoint is the client.
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

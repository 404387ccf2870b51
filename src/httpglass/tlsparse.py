"""TLS record-layer and handshake-metadata parsing.

Streams are cut into records per direction, packets are attributed to every
record they carry bytes of, and records from both directions are interleaved
by the capture timestamp of each record's first byte.
"""
from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from .capture import Direction, RawConnection, Segment

RECORD_TYPES = (20, 21, 22, 23)
MAX_RECORD_LEN = (1 << 14) + 2048
RECORD_HEADER_LEN = 5

# GREASE code points (0x0a0a, 0x1a1a, ... 0xfafa); collapsed to one synthetic
# code so a hello with several GREASE values still contributes one feature
GREASE_CODES = frozenset((v << 12) | 0x0A00 | (v << 4) | 0x0A for v in range(16))
GREASE_COLLAPSED = 0x0A0A

EXT_ALPN = 16


@dataclass(frozen=True)
class TlsRecordMeta:
    """Per-record metadata; every data feature derives from these fields."""

    index: int
    type_code: int
    length: int
    direction: Direction
    pkt_count: int
    push_count: int
    avg_pkt_size: float
    first_byte_ts: float = 0.0
    stream_offset: int = 0
    truncated: bool = False


@dataclass
class HandshakeMeta:
    offered_cipher_suites: list[int] = field(default_factory=list)
    advertised_extensions: list[int] = field(default_factory=list)
    selected_cipher_suite: int | None = None
    alpn_offered: list[str] = field(default_factory=list)
    alpn_selected: str | None = None
    version: int = 0
    anomaly: bool = False


@dataclass
class Connection:
    """A parsed TLS connection: raw capture data plus record/handshake metadata."""

    raw: RawConnection
    records: list[TlsRecordMeta]
    handshake: HandshakeMeta

    @property
    def start_time(self) -> float:
        return self.raw.start_time

    @property
    def duration(self) -> float:
        return self.raw.duration


def collapse_grease(codes: list[int]) -> list[int]:
    """Replace any run of GREASE codes with the single synthetic code."""
    out = []
    seen_grease = False
    for c in codes:
        if c in GREASE_CODES:
            if not seen_grease:
                out.append(GREASE_COLLAPSED)
                seen_grease = True
        else:
            out.append(c)
    return out


def _records_for_direction(raw: RawConnection, direction: Direction):
    """Cut one direction's stream into (offset, type, length, truncated) tuples."""
    stream = raw.stream(direction)
    out = []
    off = 0
    n = len(stream)
    while off + RECORD_HEADER_LEN <= n:
        type_code = stream[off]
        ver_hi = stream[off + 1]
        length = struct.unpack_from("!H", stream, off + 3)[0]
        if type_code not in RECORD_TYPES or ver_hi != 0x03 or length > MAX_RECORD_LEN:
            if off == 0:
                return None  # stream does not start with a plausible record
            break  # trailing garbage after valid records; stop this direction
        end = off + RECORD_HEADER_LEN + length
        truncated = end > n
        out.append((off, type_code, length, truncated))
        if truncated:
            break
        off = end
    if off == 0 and not out and n > 0:
        return None
    return out


def _attribute_packets(segments: list[Segment], starts: list[int],
                       span_start: int, span_end: int):
    """Packets carrying any byte of [span_start, span_end) in stream order,
    and the packet carrying byte span_start.

    ``segments`` are sorted and do not overlap (as ``reassemble`` emits
    them); ``starts`` holds their stream offsets.
    """
    hits = {}  # a packet may contribute several segments; count it once
    first = None
    i = max(bisect_right(starts, span_start) - 1, 0)
    while i < len(segments) and segments[i].stream_offset < span_end:
        seg = segments[i]
        if seg.stream_offset + seg.length > span_start:
            hits[seg.packet_index] = None
            if seg.stream_offset <= span_start:
                first = seg.packet_index
        i += 1
    return list(hits), first


def parse_tls_records(raw: RawConnection) -> Connection | None:
    """Parse both streams into TLS records; None if the connection is not TLS.

    A connection with data in some direction that does not begin with a
    plausible record header is excluded entirely.
    """
    per_dir = {}
    for direction in (Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT):
        if len(raw.stream(direction)) == 0:
            per_dir[direction] = []
            continue
        recs = _records_for_direction(raw, direction)
        if recs is None:
            return None
        per_dir[direction] = recs
    entries = []
    for direction, recs in per_dir.items():
        stream_len = len(raw.stream(direction))
        segments = raw.segments(direction)
        starts = [seg.stream_offset for seg in segments]
        for off, type_code, length, truncated in recs:
            span_end = min(off + RECORD_HEADER_LEN + length, stream_len)
            pkt_idxs, first = _attribute_packets(segments, starts, off,
                                                 span_end)
            if not pkt_idxs:
                continue
            sizes = [raw.packets[i].payload_len for i in pkt_idxs]
            pushes = sum(1 for i in pkt_idxs if raw.packets[i].push_flag)
            first_ts = raw.packets[first].timestamp
            entries.append((first_ts, direction, off, type_code, length,
                            len(pkt_idxs), pushes, sum(sizes) / len(sizes),
                            truncated))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    records = [
        TlsRecordMeta(index=i, type_code=t, length=ln, direction=d,
                      pkt_count=pc, push_count=pu, avg_pkt_size=avg,
                      first_byte_ts=ts, stream_offset=off, truncated=tr)
        for i, (ts, d, off, t, ln, pc, pu, avg, tr) in enumerate(entries)
    ]
    conn = Connection(raw=raw, records=records, handshake=HandshakeMeta())
    conn.handshake = parse_handshake_meta(conn)
    return conn


def _handshake_payload(raw: RawConnection, direction: Direction) -> bytes:
    """Concatenated payload of all handshake records in one direction."""
    recs = _records_for_direction(raw, direction) or []
    stream = raw.stream(direction)
    chunks = []
    for off, type_code, length, truncated in recs:
        if type_code == 22 and not truncated:
            chunks.append(stream[off + RECORD_HEADER_LEN:off + RECORD_HEADER_LEN + length])
    return b"".join(chunks)


def _iter_handshake_messages(payload: bytes):
    off = 0
    while off + 4 <= len(payload):
        msg_type = payload[off]
        length = int.from_bytes(payload[off + 1:off + 4], "big")
        body = payload[off + 4:off + 4 + length]
        if len(body) < length:
            return
        yield msg_type, body
        off += 4 + length


def _parse_extensions(data: bytes):
    exts = []
    off = 0
    while off + 4 <= len(data):
        ext_type, ext_len = struct.unpack_from("!HH", data, off)
        body = data[off + 4:off + 4 + ext_len]
        if len(body) < ext_len:
            raise ValueError("truncated extension")
        exts.append((ext_type, body))
        off += 4 + ext_len
    return exts


def _parse_alpn_list(body: bytes) -> list[str]:
    if len(body) < 2:
        return []
    total = struct.unpack_from("!H", body, 0)[0]
    out = []
    off = 2
    end = min(2 + total, len(body))
    while off < end:
        n = body[off]
        out.append(body[off + 1:off + 1 + n].decode("ascii", "replace"))
        off += 1 + n
    return out


def _parse_client_hello(body: bytes, meta: HandshakeMeta) -> None:
    off = 0
    meta.version = struct.unpack_from("!H", body, off)[0]
    off += 2 + 32  # version + random
    sid_len = body[off]
    off += 1 + sid_len
    cs_len = struct.unpack_from("!H", body, off)[0]
    off += 2
    suites = [struct.unpack_from("!H", body, off + i)[0] for i in range(0, cs_len, 2)]
    off += cs_len
    comp_len = body[off]
    off += 1 + comp_len
    meta.offered_cipher_suites = collapse_grease(suites)
    meta.advertised_extensions = []
    meta.alpn_offered = []
    if off + 2 <= len(body):
        ext_total = struct.unpack_from("!H", body, off)[0]
        exts = _parse_extensions(body[off + 2:off + 2 + ext_total])
        meta.advertised_extensions = collapse_grease([t for t, _ in exts])
        for ext_type, ext_body in exts:
            if ext_type == EXT_ALPN:
                meta.alpn_offered = _parse_alpn_list(ext_body)


def _parse_server_hello(body: bytes, meta: HandshakeMeta) -> None:
    off = 2 + 32  # version + random
    sid_len = body[off]
    off += 1 + sid_len
    meta.selected_cipher_suite = struct.unpack_from("!H", body, off)[0]
    off += 2 + 1  # suite + compression
    if off + 2 <= len(body):
        ext_total = struct.unpack_from("!H", body, off)[0]
        for ext_type, ext_body in _parse_extensions(body[off + 2:off + 2 + ext_total]):
            if ext_type == EXT_ALPN:
                selected = _parse_alpn_list(ext_body)
                if selected:
                    meta.alpn_selected = selected[0]


def parse_handshake_meta(conn: Connection) -> HandshakeMeta:
    """Extract client/server hello metadata; on malformed bodies only the
    record-layer version survives with the anomaly flag set."""
    meta = HandshakeMeta()
    raw = conn.raw
    for rec in conn.records:
        if rec.type_code == 22:
            # record-layer version from the header bytes
            stream = raw.stream(rec.direction)
            if rec.stream_offset + 3 <= len(stream):
                meta.version = struct.unpack_from("!H", stream, rec.stream_offset + 1)[0]
            break
    try:
        client_payload = _handshake_payload(raw, Direction.CLIENT_TO_SERVER)
        for msg_type, body in _iter_handshake_messages(client_payload):
            if msg_type == 1:  # keep the last client_hello (retry case)
                _parse_client_hello(body, meta)
        server_payload = _handshake_payload(raw, Direction.SERVER_TO_CLIENT)
        for msg_type, body in _iter_handshake_messages(server_payload):
            if msg_type == 2:
                _parse_server_hello(body, meta)
    except (IndexError, ValueError, struct.error):
        meta.anomaly = True
        meta.offered_cipher_suites = []
        meta.advertised_extensions = []
        meta.alpn_offered = []
        meta.alpn_selected = None
        meta.selected_cipher_suite = None
    return meta


# --- hello serialization (fixture/corpus support) ---

def build_client_hello(cipher_suites: list[int], extensions: list[int],
                       alpn: list[str] | None = None, version: int = 0x0303) -> bytes:
    """Serialize a minimal client_hello handshake message."""
    ext_blobs = []
    for code in extensions:
        if code == EXT_ALPN and alpn:
            names = b"".join(bytes([len(p)]) + p.encode() for p in alpn)
            body = struct.pack("!H", len(names)) + names
        else:
            body = b""
        ext_blobs.append(struct.pack("!HH", code, len(body)) + body)
    exts = b"".join(ext_blobs)
    suites = b"".join(struct.pack("!H", s) for s in cipher_suites)
    body = (struct.pack("!H", version) + b"\x00" * 32 + b"\x00"
            + struct.pack("!H", len(suites)) + suites
            + b"\x01\x00"
            + struct.pack("!H", len(exts)) + exts)
    return b"\x01" + len(body).to_bytes(3, "big") + body


def build_server_hello(selected_suite: int, alpn_selected: str | None = None,
                       version: int = 0x0303) -> bytes:
    exts = b""
    if alpn_selected is not None:
        name = alpn_selected.encode()
        alpn_body = struct.pack("!H", len(name) + 1) + bytes([len(name)]) + name
        exts = struct.pack("!HH", EXT_ALPN, len(alpn_body)) + alpn_body
    body = (struct.pack("!H", version) + b"\x00" * 32 + b"\x00"
            + struct.pack("!H", selected_suite) + b"\x00"
            + struct.pack("!H", len(exts)) + exts)
    return b"\x02" + len(body).to_bytes(3, "big") + body


def record_header(type_code: int, length: int, version: int = 0x0303) -> bytes:
    return struct.pack("!BHH", type_code, version, length)

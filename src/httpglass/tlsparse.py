"""TLS record-layer and handshake-metadata parsing.

The records of every connection of a capture are cut in one pass: Python
walks each stream's record headers, and the rest is columns over all of
them.  A record's packets are the (stream offset, packet index) rows of its
stream's segment map that its bytes span, and records from both directions
are interleaved by the capture timestamp of each record's first byte.  A
connection holds its records as a slice of one array of ``RECORD_DTYPE``
rows.  Hello metadata comes from each direction's leading hello messages.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .capture import PACKET_DTYPE, RawConnection, no_segments

RECORD_TYPES = (20, 21, 22, 23)
MAX_RECORD_LEN = (1 << 14) + 2048
RECORD_HEADER_LEN = 5
_HEADER = struct.Struct("!BBxH")  # type, version major, length

# GREASE code points (0x0a0a, 0x1a1a, ... 0xfafa); collapsed to one synthetic
# code so a hello with several GREASE values still contributes one feature
GREASE_CODES = frozenset((v << 12) | 0x0A00 | (v << 4) | 0x0A for v in range(16))
GREASE_COLLAPSED = 0x0A0A

EXT_ALPN = 16


# A connection's records, one np.record row each in time order: a row's
# index is the record's, and a row reads its fields as attributes too.  The
# sort keys lead, so sorted tuples order by time, direction, then offset.
RECORD_DTYPE = np.dtype((np.record, [
    ("first_byte_ts", np.float64), ("direction", np.int64),
    ("stream_offset", np.int64), ("type_code", np.int64),
    ("length", np.int64), ("pkt_count", np.int64), ("push_count", np.int64),
    ("avg_pkt_size", np.float64), ("truncated", np.bool_)]))


def record_array(rows: list[tuple]) -> np.recarray:
    """Records from one tuple per record, in ``RECORD_DTYPE``'s field order."""
    return np.array(rows, dtype=RECORD_DTYPE).view(np.recarray)


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
    records: np.recarray  # of RECORD_DTYPE
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


def parse_connections(raws: list[RawConnection]) -> list[Connection | None]:
    """Cut every connection's streams into TLS records in one pass; None for
    a connection that is not TLS.

    A connection with data in some direction that does not begin with a
    plausible record header is excluded entirely.  Each direction's segment
    map must tile its stream, as ``load_pcap`` emits it: its (stream
    offset, packet index) rows start at offset 0, their offsets strictly
    increase and stay below the stream's length, and no packet appears
    twice.  So a record's packets are the run of rows its bytes span.
    Each returned connection's ``raw`` holds no streams or segment maps, as
    a connection loaded from a corpus does, and its records are a slice of
    one record array.
    """
    # Python walks the record headers; the rest is columns over every stream
    offsets, types, lengths, cuts, sizes, hellos = [], [], [], [0], [], []
    for raw in raws:
        payloads = []
        for stream in (raw.client_stream, raw.server_stream):
            handshake = []
            off, n = 0, len(stream)
            while off + RECORD_HEADER_LEN <= n:
                type_code, ver_hi, length = _HEADER.unpack_from(stream, off)
                if type_code not in RECORD_TYPES or ver_hi != 0x03 \
                        or length > MAX_RECORD_LEN:
                    break  # trailing garbage after valid records
                end = off + RECORD_HEADER_LEN + length
                offsets.append(off)
                types.append(type_code)
                lengths.append(length)
                if type_code == 22 and end <= n:
                    handshake.append(stream[off + RECORD_HEADER_LEN:end])
                off = end
            cuts.append(len(offsets))
            sizes.append(n)
            # a stream with data must start with a plausible record
            payloads.append(b"".join(handshake) if off or not n else None)
        hellos.append(None if None in payloads else payloads)
    stream = np.repeat(np.arange(len(sizes)), np.diff(cuts))
    off, length = np.array(offsets, np.int64), np.array(lengths, np.int64)
    end = off + RECORD_HEADER_LEN + length
    # a record's packets are the rows of its stream's segment map from the
    # one holding its first byte to the last one starting before its end;
    # keys order every stream's rows by (stream, offset < 2**40)
    maps = [m for raw in raws for m in (raw.client_segments,
                                        raw.server_segments)]
    rows = np.concatenate([no_segments(), *maps])
    on = np.repeat(np.arange(len(maps)), [len(m) for m in maps])
    keys = (on << 40) + rows[:, 0]
    lo = np.searchsorted(keys, (stream << 40) + off, "right") - 1
    hi = np.searchsorted(keys, (stream << 40) + end, "left")
    # a packet column of every connection chained, gathered at each row's
    # packet; connection c's packets start at first[c]
    tables = [np.empty(0, PACKET_DTYPE), *(raw.packets.array for raw in raws)]
    first = np.cumsum([len(t) for t in tables])
    at = rows[:, 1] + first[on >> 1]
    ts, push, size = (np.concatenate([t[name] for t in tables])[at]
                      for name in ("timestamp", "push_flag", "payload_len"))
    pushes, total = np.r_[0, np.cumsum(push)], np.r_[0, np.cumsum(size)]
    records = np.empty(len(off), RECORD_DTYPE)
    for name, column in (
            ("first_byte_ts", ts[lo]),
            ("direction", stream & 1), ("stream_offset", off),
            ("type_code", types), ("length", length),
            ("pkt_count", hi - lo), ("push_count", pushes[hi] - pushes[lo]),
            ("avg_pkt_size", (total[hi] - total[lo]) / (hi - lo)),
            ("truncated", end > np.array(sizes)[stream])):
        records[name] = column
    # each connection's records in time order: by time, direction, offset
    conn = stream >> 1
    order = np.lexsort((off, records["direction"], records["first_byte_ts"],
                        conn))
    records, conn = records[order], conn[order]
    bounds = np.searchsorted(conn, np.arange(len(raws) + 1)).tolist()
    # where each connection's first handshake record in time order starts:
    # its record-layer version is the connection's
    hs = np.flatnonzero(records["type_code"] == 22)
    hs = hs[np.diff(conn[hs], prepend=-1) != 0]
    first_hello = dict(zip(conn[hs].tolist(), records[hs][
        ["direction", "stream_offset"]].tolist()))
    out = []
    for c, (raw, payloads) in enumerate(zip(raws, hellos)):
        if payloads is None:
            out.append(None)
            continue
        hello = first_hello.get(c)
        version = 0 if hello is None else struct.unpack_from(
            "!H", (raw.client_stream, raw.server_stream)[hello[0]],
            hello[1] + 1)[0]
        # nothing reads the payload after record cutting, so the connection
        # keeps none: its streams die with the caller's RawConnection
        out.append(Connection(
            raw=replace(raw, client_stream=b"", server_stream=b"",
                        client_segments=no_segments(),
                        server_segments=no_segments()),
            records=records[bounds[c]:bounds[c + 1]].view(np.recarray),
            handshake=parse_handshake_meta(*payloads, version)))
    return out


def parse_tls_records(raw: RawConnection) -> Connection | None:
    """``parse_connections`` of one connection."""
    return parse_connections([raw])[0]


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


def parse_handshake_meta(client: bytes, server: bytes,
                         version: int) -> HandshakeMeta:
    """Hello metadata from each direction's handshake payload.

    ``client`` and ``server`` join the bodies of a direction's whole
    handshake records in stream order; ``version`` is the record-layer
    version.  Only the leading hellos count: each walk stops at the first
    message that is not a ClientHello (client) or a ServerHello (server), as
    nothing after them is a plaintext hello.  Of consecutive hellos the last
    wins (the retry case).  A malformed hello sets ``anomaly`` and clears
    every field but ``version``, which keeps the ClientHello's version once
    that hello has parsed.
    """
    meta = HandshakeMeta(version=version)
    try:
        for msg_type, body in _iter_handshake_messages(client):
            if msg_type != 1:
                break
            _parse_client_hello(body, meta)
        for msg_type, body in _iter_handshake_messages(server):
            if msg_type != 2:
                break
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

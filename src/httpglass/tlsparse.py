"""TLS record-layer and handshake-metadata parsing.

Each direction's stream is cut into records in one pass.  A record's packets
are the (stream offset, packet) pairs its bytes span, and records from both
directions are interleaved by the capture timestamp of each record's first
byte.  A connection holds its records as one array of ``RECORD_DTYPE`` rows.
Hello metadata comes from each direction's leading hello messages.
"""
from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .capture import RawConnection

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


def parse_tls_records(raw: RawConnection) -> Connection | None:
    """Parse both streams into TLS records; None if the connection is not TLS.

    A connection with data in some direction that does not begin with a
    plausible record header is excluded entirely.  Each direction's segment
    map must tile its stream, as ``load_pcap`` emits it: the (stream
    offset, packet index) pairs start at offset 0, their offsets strictly
    increase and stay below the stream's length, and no packet appears
    twice.  So a record's packets are the run of pairs its bytes span.
    The returned connection's ``raw`` holds no streams or segment maps, as
    a connection loaded from a corpus does.
    """
    entries = []
    hello_payloads = []
    streams = (raw.client_stream, raw.server_stream)
    for direction, (stream, segments) in enumerate(
            zip(streams, (raw.client_segments, raw.server_segments))):
        starts = [off for off, _ in segments]
        pkts = [raw.packets[i] for _, i in segments]
        pushes = list(accumulate((p.push_flag for p in pkts), initial=0))
        sizes = list(accumulate((p.payload_len for p in pkts), initial=0))
        handshake = []
        off, n = 0, len(stream)
        while off + RECORD_HEADER_LEN <= n:
            type_code, ver_hi, length = _HEADER.unpack_from(stream, off)
            if type_code not in RECORD_TYPES or ver_hi != 0x03 \
                    or length > MAX_RECORD_LEN:
                break  # trailing garbage after valid records
            end = off + RECORD_HEADER_LEN + length
            lo = bisect_right(starts, off) - 1  # holds the first byte
            hi = bisect_left(starts, end)
            entries.append((pkts[lo].timestamp, direction, off, type_code,
                            length, hi - lo, pushes[hi] - pushes[lo],
                            (sizes[hi] - sizes[lo]) / (hi - lo), end > n))
            if type_code == 22 and end <= n:
                handshake.append(stream[off + RECORD_HEADER_LEN:end])
            off = end
        if off == 0 and n > 0:
            return None  # the stream does not start with a plausible record
        hello_payloads.append(b"".join(handshake))
    entries.sort()
    # the record-layer version of the first handshake record in time order
    version = next((struct.unpack_from("!H", streams[d], off + 1)[0]
                    for _, d, off, t, *_ in entries if t == 22), 0)
    # nothing reads the payload after record cutting, so the connection
    # keeps none: its streams die with the caller's RawConnection
    return Connection(raw=replace(raw, client_stream=b"", server_stream=b"",
                                  client_segments=[], server_segments=[]),
                      records=record_array(entries),
                      handshake=parse_handshake_meta(*hello_payloads, version))


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

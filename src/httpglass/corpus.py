"""Labeled corpora: decrypted-session ground truth, label normalization,
synthetic corpus generation, and dataset splitting.

Ground truth arrives as the decryption pipeline's JSON (nested
``tls_records`` with ``decrypted_data`` trees, possibly Tor-nested).  The
synthetic generator builds connections whose observable record metadata
carries a controllable amount of signal about planted labels, and keeps the
planted labels as an exact oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import HttpglassError
from .capture import Direction, PacketMeta, RawConnection
from .tlsparse import (Connection, HandshakeMeta, build_client_hello,
                       build_server_hello, record_array, record_header,
                       EXT_ALPN, GREASE_COLLAPSED)
from .registry import (ABSENT, OTHER, PRESENT, PROTOCOLS, Kind, ProblemSpec,
                       Side, registry)

DAY = 86400.0
WEEK = 7 * DAY

TYPE_NAMES = {20: "change_cipher_spec", 21: "alert", 22: "handshake",
              23: "app_data"}
TYPE_CODES = {v: k for k, v in TYPE_NAMES.items()}


class CorpusError(HttpglassError):
    pass


class AlignmentError(CorpusError):
    """Ground-truth records could not be matched to the captured records."""


@dataclass
class LabeledRecord:
    index: int
    message_type: bool
    labels: dict[str, str] = field(default_factory=dict)


@dataclass
class LabeledConnection:
    conn: Connection
    protocol: str  # "http1" | "http2"
    records: list[LabeledRecord]
    connection_id: str = ""


# --- label normalization ---

_CT_ALIASES = {
    "octet-stream": "octet",
    "ecmascript": "javascript",
    "x-javascript": "javascript",
}


def _normalize_content_type(raw: str, labels: tuple[str, ...]) -> str:
    token = raw.split(";")[0].strip().lower()
    if token in labels:
        return token
    if "/" in token:
        major, sub = token.split("/", 1)
        sub = _CT_ALIASES.get(sub, sub)
        if "json" in sub:
            out = "json"
        elif "javascript" in sub:
            out = "javascript"
        elif "html" in sub:
            out = "html"
        elif "protobuf" in sub:
            out = "protobuf"
        elif major == "image":
            out = "image"
        elif major == "video":
            out = "video"
        elif sub == "css":
            out = "css"
        elif sub == "octet":
            out = "octet"
        elif major == "font" or sub.startswith("font") or \
                sub in ("woff", "woff2", "x-font-ttf", "ttf", "otf"):
            out = "font"
        elif sub == "plain":
            out = "plain"
        else:
            out = OTHER
    else:
        out = token if token in labels else OTHER
    return out if out in labels else OTHER


def _normalize_server(raw: str, labels: tuple[str, ...]) -> str:
    token = raw.strip().split()[0] if raw.strip() else ""
    if token in labels:
        return token  # already a bucket name (idempotence)
    name, _, version = token.partition("/")
    if "(" in name:  # Jetty(9.4.8) style
        name, _, rest = name.partition("(")
        version = rest.rstrip(")")
    mm = ".".join(version.split(".")[:2])

    def pick(*candidates):
        for c in candidates:
            if c in labels:
                return c
        return None

    out = None
    if name == "nginx":
        out = pick(f"nginx-{mm}", "nginx")
    elif name == "openresty":
        out = pick("openresty")
    elif name == "Apache-Coyote":
        out = pick("Coyote/1.1") if mm == "1.1" else None
    elif name == "Apache":
        out = pick("Apache")
    elif name == "Microsoft-IIS":
        out = pick(f"IIS-{mm}", f"IIS/{mm}")
    elif name == "Jetty":
        out = pick(f"jetty-{mm}")
    elif name.startswith("NetDNA"):
        out = pick(f"NetDNA/{mm}")
    elif name.startswith("Akamai"):
        out = pick("Akamai")
    elif name == "Tengine":
        out = pick("Tengine")
    elif name in ("cloudflare-nginx", "AmazonS3", "Golfe2", "sffe", "cafe",
                  "ESF", "GSE", "gws", "UploadServer", "Dreamlab", "Google"):
        out = pick(name)
    return out if out is not None else OTHER


def normalize_label(problem: ProblemSpec, raw: str) -> str:
    """Map a raw field value onto the problem's label set (or ``other``).

    Total and idempotent: already-normalized labels map to themselves.
    """
    if problem.kind == Kind.BINARY:
        return raw if raw in (ABSENT, PRESENT) else OTHER
    raw = raw.strip()
    if problem.id in ("request.method",):
        v = raw.upper()
        return v if v in problem.labels else OTHER
    if problem.id == "response.status_code":
        return raw if raw in problem.labels else OTHER
    if problem.id.endswith("content_type"):
        return _normalize_content_type(raw, problem.labels)
    if problem.id == "response.server":
        return _normalize_server(raw, problem.labels)
    return raw if raw in problem.labels else OTHER


# --- ground truth ingestion ---

def _headers_as_pairs(headers) -> list[tuple[str, str]]:
    out = []
    if isinstance(headers, dict):
        items = headers.items()
    else:
        items = ((h[0], h[1]) for h in headers or [])
    for name, value in items:
        out.append((str(name), str(value)))
    return out


def _header_value(pairs, name: str) -> str | None:
    name = name.lower()
    for n, v in pairs:
        if n.lower().lstrip(":") == name:
            return v
    return None


def _header_present(pairs, name: str) -> bool:
    return _header_value(pairs, name) is not None


def _messages_from_decrypted(dd) -> list[dict]:
    """Extract HTTP message dicts from a decrypted_data tree (recursing
    through Tor cells and nested TLS records)."""
    if not isinstance(dd, dict):
        return []
    out = []
    if "cells" in dd:
        for cell in dd.get("cells") or []:
            if isinstance(cell, dict):
                out.extend(_messages_from_decrypted(cell.get("decrypted_data")))
        return out
    if "tls_records" in dd:
        for rec in dd["tls_records"]:
            out.extend(_messages_from_decrypted(rec.get("decrypted_data")))
        return out
    if "frames" in dd:  # HTTP/2: only HEADERS frames carry semantics
        for frame in dd["frames"]:
            if str(frame.get("type", "")).upper() != "HEADERS":
                continue
            pairs = _headers_as_pairs(frame.get("headers"))
            msg: dict = {"headers": pairs}
            method = _header_value(pairs, "method")
            status = _header_value(pairs, "status")
            if method is not None:
                msg["method"] = method
            elif status is not None:
                msg["status_code"] = status
            else:
                continue
            out.append(msg)
        return out
    if "messages" in dd:
        for m in dd["messages"]:
            out.extend(_messages_from_decrypted(m))
        return out
    if "method" in dd or "status_code" in dd:
        msg = dict(dd)
        msg["headers"] = _headers_as_pairs(dd.get("headers"))
        return [msg]
    return []


_BINARY_HEADER = {
    "request.cookie": "Cookie",
    "request.referer": "Referer",
    "request.origin": "Origin",
    "response.access_control_allow_origin": "Access-Control-Allow-Origin",
    "response.via": "Via",
    "response.accept_ranges": "Accept-Ranges",
    "response.set_cookie": "Set-Cookie",
    "response.etag": "Etag",
}


def _labels_for_message(msg: dict, problems: list[ProblemSpec]) -> dict[str, str]:
    is_request = "method" in msg
    side = Side.CLIENT if is_request else Side.SERVER
    pairs = msg.get("headers", [])
    labels = {}
    for p in problems:
        if p.side != side:
            continue
        if p.kind == Kind.BINARY:
            labels[p.id] = PRESENT if _header_present(pairs, _BINARY_HEADER[p.id]) \
                else ABSENT
            continue
        if p.id == "request.method":
            labels[p.id] = normalize_label(p, str(msg["method"]))
        elif p.id == "response.status_code":
            labels[p.id] = normalize_label(p, str(msg["status_code"]))
        elif p.id.endswith("content_type"):
            raw = _header_value(pairs, "Content-Type")
            labels[p.id] = normalize_label(p, raw) if raw is not None else OTHER
        elif p.id == "response.server":
            raw = _header_value(pairs, "Server")
            labels[p.id] = normalize_label(p, raw) if raw is not None else OTHER
    return labels


def ingest_ground_truth(conn: Connection, session: dict, protocol: str,
                        problems: list[ProblemSpec] | None = None,
                        ) -> list[LabeledRecord]:
    """Align a decrypted-session JSON tree to captured records and label them.

    The first transaction in a record supplies its field labels;
    ``message_type`` is a pure presence bit.
    """
    problems = problems if problems is not None else registry(protocol)
    gt_records = session.get("tls_records")
    if gt_records is None:
        raise AlignmentError("ground truth carries no tls_records")
    if len(gt_records) != len(conn.records):
        raise AlignmentError(
            f"record count mismatch: capture has {len(conn.records)}, "
            f"ground truth has {len(gt_records)}")
    out = []
    for index, ((type_code, length), gt) in enumerate(zip(
            conn.records[["type_code", "length"]].tolist(), gt_records)):
        gt_type = TYPE_CODES.get(str(gt.get("type", "")))
        if gt_type != type_code or int(gt.get("length", -1)) != length:
            raise AlignmentError(
                f"record {index}: type/length mismatch "
                f"({gt.get('type')}/{gt.get('length')} vs "
                f"{type_code}/{length})")
        messages = _messages_from_decrypted(gt.get("decrypted_data"))
        labels = _labels_for_message(messages[0], problems) if messages else {}
        out.append(LabeledRecord(index=index, message_type=bool(messages),
                                 labels=labels))
    return out


# --- synthetic corpus generation ---

# Which observable channel encodes each problem.  Every transaction emits a
# header record plus body records per side; channels are (record role, field).
CHANNEL_MAP = {
    "request.method": ("req_header", "length"),
    "request.cookie": ("req_header", "pkt"),
    "request.referer": ("req_header", "push"),
    "request.content_type": ("req_body", "length"),
    "request.origin": ("req_body", "pkt"),
    "response.status_code": ("resp_header", "length"),
    "response.access_control_allow_origin": ("resp_header", "pkt"),
    "response.via": ("resp_header", "push"),
    "response.content_type": ("resp_body1", "length"),
    "response.accept_ranges": ("resp_body1", "pkt"),
    "response.set_cookie": ("resp_body1", "push"),
    "response.server": ("resp_body2", "length"),
    "response.etag": ("resp_body2", "pkt"),
}

_ROLE_SIDE = {"req_header": Direction.CLIENT_TO_SERVER,
              "req_body": Direction.CLIENT_TO_SERVER,
              "resp_header": Direction.SERVER_TO_CLIENT,
              "resp_body1": Direction.SERVER_TO_CLIENT,
              "resp_body2": Direction.SERVER_TO_CLIENT}

_ROLE_BANDS = {"req_header": (200, 60), "resp_header": (200, 60),
               "req_body": (2000, 400), "resp_body1": (2000, 400),
               "resp_body2": (8000, 300)}

_PKT_ABSENT, _PKT_PRESENT = 2, 5
_MSS = 1460

_SUITE_POOL = [0x1301, 0x1302, 0x1303, 0xC02B, 0xC02C, 0xC02F, 0xC030,
               0xCCA8, 0xCCA9, 0x009C, 0x009D, 0x002F, 0x0035, 0x000A,
               0xC013, 0xC014, 0x009E, 0x009F, 0x0033, 0x0039]
_EXT_POOL = [0, 5, 10, 11, 13, 16, 18, 21, 23, 35, 43, 45, 51, 65281]

# values used when emitting ground-truth JSON; each normalizes back to its label
LABEL_RAW_VALUES = {
    "request.content_type": {"json": "application/json; charset=utf-8",
                             "plain": "text/plain"},
    "response.content_type": {
        "html": "text/html; charset=utf-8", "javascript": "application/javascript",
        "image": "image/png", "video": "video/mp4", "css": "text/css",
        "octet": "application/octet-stream", "json": "application/json",
        "font": "font/woff2", "plain": "text/plain",
        "protobuf": "application/x-protobuf",
    },
    "response.server": {
        "nginx-1.13": "nginx/1.13.7", "nginx-1.12": "nginx/1.12.2",
        "nginx-1.11": "nginx/1.11.9", "nginx-1.10": "nginx/1.10.3",
        "nginx-1.8": "nginx/1.8.1", "nginx-1.7": "nginx/1.7.12",
        "nginx-1.6": "nginx/1.6.2", "nginx-1.4": "nginx/1.4.6",
        "nginx-1.3": "nginx/1.3.13", "nginx": "nginx",
        "cloudflare-nginx": "cloudflare-nginx",
        "openresty": "openresty/1.13.6.1", "Apache": "Apache/2.4.29",
        "Coyote/1.1": "Apache-Coyote/1.1", "AmazonS3": "AmazonS3",
        "NetDNA/2.2": "NetDNA-cache/2.2", "IIS-7.5": "Microsoft-IIS/7.5",
        "IIS-8.5": "Microsoft-IIS/8.5", "IIS/8.5": "Microsoft-IIS/8.5",
        "jetty-9.4": "Jetty(9.4.8)", "jetty-9.0": "Jetty(9.0.3)",
        "Golfe2": "Golfe2", "sffe": "sffe", "cafe": "cafe", "ESF": "ESF",
        "GSE": "GSE", "gws": "gws", "UploadServer": "UploadServer",
        "Akamai": "AkamaiGHost", "Google": "Google Frontend",
        "Dreamlab": "Dreamlab", "Tengine": "Tengine/2.2.0",
    },
}


@dataclass
class SynthSpec:
    """Parameters of the synthetic labeled corpus generator."""

    seed: int = 0
    n_connections: int = 200
    protocol_mix: dict = field(default_factory=lambda: {"http1": 0.5,
                                                        "http2": 0.5})
    transactions_range: tuple[int, int] = (1, 5)
    alpn_present_prob: float = 0.8
    label_priors: dict = field(default_factory=dict)  # problem id -> {label: p}
    correlation: dict = field(default_factory=dict)   # problem id -> rho
    noise_scale: dict = field(default_factory=dict)   # problem id -> multiplier
    # filler application_data records inserted between transactions; they
    # break positional alignment between record index and transaction role
    filler_range: tuple[int, int] = (0, 0)
    include_etag: bool = False
    start_time: float = 1512086400.0  # first of a two-week window
    span_days: float = 14.0
    emit_streams: bool = False

    def validate(self) -> None:
        if self.n_connections < 1:
            raise CorpusError("n_connections must be >= 1")
        total = sum(self.protocol_mix.values())
        if not self.protocol_mix or abs(total - 1.0) > 1e-9:
            raise CorpusError("protocol_mix must sum to 1")
        unknown = set(self.protocol_mix) - set(PROTOCOLS)
        if unknown:
            raise CorpusError(f"unknown protocols in mix: {sorted(unknown)}")
        for pid, prior in self.label_priors.items():
            if abs(sum(prior.values()) - 1.0) > 1e-9:
                raise CorpusError(f"label prior for {pid} must sum to 1")
            if any(p < 0 for p in prior.values()):
                raise CorpusError(f"negative prior for {pid}")
        lo, hi = self.transactions_range
        if lo < 1 or hi < lo:
            raise CorpusError("invalid transactions_range")


def _draw(rng, prior: dict[str, float]) -> str:
    labels = list(prior)
    probs = np.asarray([prior[l] for l in labels])
    return labels[int(rng.choice(len(labels), p=probs / probs.sum()))]


def _prior_for(spec: SynthSpec, problem: ProblemSpec) -> dict[str, float]:
    prior = spec.label_priors.get(problem.id)
    if prior is not None:
        return prior
    return {label: 1.0 / len(problem.labels) for label in problem.labels}


def _length_value(rng, problem: ProblemSpec, label: str, base: int, step: int,
                  scale: float) -> int:
    idx = problem.labels.index(label) if label in problem.labels \
        else len(problem.labels)
    sigma = (step / 5.0) * scale
    # truncated noise: at unit scale, adjacent labels (one step = 5 sigma
    # apart) never overlap; larger scales create controlled overlap
    noise = float(np.clip(rng.normal(0.0, sigma), -2.0 * sigma, 2.0 * sigma))
    return max(16, int(round(base + (idx + 1) * step + noise)))


class _ConnBuilder:
    """Accumulates records/packets for one synthetic connection."""

    def __init__(self, start_ts: float, emit_streams: bool):
        self.ts = start_ts
        self.start_ts = start_ts
        self.packets: list[PacketMeta] = []
        self.records: list[tuple] = []  # rows in RECORD_DTYPE's field order
        self.streams = {Direction.CLIENT_TO_SERVER: bytearray(),
                        Direction.SERVER_TO_CLIENT: bytearray()}
        self.emit_streams = emit_streams

    def add_record(self, type_code: int, direction: Direction, length: int,
                   pkt_count: int | None = None, push_all: bool = False,
                   payload: bytes | None = None) -> int:
        """Append one record and its packets; returns the record's index."""
        wire = length + 5
        if pkt_count is None:
            pkt_count = max(1, -(-wire // _MSS))
        pkt_count = min(pkt_count, wire)
        sizes = [wire // pkt_count] * pkt_count
        sizes[-1] += wire - sum(sizes)
        first_ts = self.ts
        stream = self.streams[direction]
        offset = len(stream)
        if self.emit_streams:
            body = payload if payload is not None else bytes(length)
            assert len(body) == length
            stream.extend(record_header(type_code, length) + body)
        pos = offset
        for k, size in enumerate(sizes):
            push = push_all or (k == pkt_count - 1)
            self.packets.append(PacketMeta(
                timestamp=self.ts, direction=direction, payload_len=size,
                push_flag=push, seq=pos))
            pos += size
            self.ts += 0.001
        pushes = pkt_count if push_all else 1
        self.records.append((first_ts, direction, offset, type_code, length,
                             pkt_count, pushes, wire / pkt_count, False))
        return len(self.records) - 1

    def finish(self, handshake: HandshakeMeta) -> Connection:
        duration = (self.packets[-1].timestamp - self.packets[0].timestamp
                    if self.packets else 0.0)
        raw = RawConnection(
            five_tuple=("10.0.0.2", 40000, "93.184.216.34", 443, "tcp"),
            packets=self.packets,
            client_stream=bytes(self.streams[Direction.CLIENT_TO_SERVER]),
            server_stream=bytes(self.streams[Direction.SERVER_TO_CLIENT]),
            duration=duration, start_time=self.start_ts,
        )
        return Connection(raw, record_array(self.records), handshake)


def _synthesize_connection(spec: SynthSpec, rng, conn_index: int,
                           problems_by_protocol: dict) -> LabeledConnection:
    protocols = sorted(spec.protocol_mix)
    probs = np.asarray([spec.protocol_mix[p] for p in protocols])
    protocol = protocols[int(rng.choice(len(protocols), p=probs / probs.sum()))]
    problems = problems_by_protocol[protocol]

    start = spec.start_time + float(rng.uniform(0, spec.span_days * DAY))
    builder = _ConnBuilder(start, spec.emit_streams)

    hs = HandshakeMeta()
    n_suites = int(rng.integers(8, 15))
    hs.offered_cipher_suites = list(
        int(s) for s in rng.choice(_SUITE_POOL, size=n_suites, replace=False))
    n_ext = int(rng.integers(5, 11))
    hs.advertised_extensions = sorted(
        int(e) for e in rng.choice(_EXT_POOL, size=n_ext, replace=False))
    if rng.random() < 0.5:
        hs.advertised_extensions.append(GREASE_COLLAPSED)
    hs.selected_cipher_suite = int(rng.choice(hs.offered_cipher_suites))
    hs.version = 0x0303
    if rng.random() < spec.alpn_present_prob:
        hs.alpn_selected = "h2" if protocol == "http2" else "http/1.1"
        if EXT_ALPN in hs.advertised_extensions:  # the offer travels in it
            hs.alpn_offered = ["h2", "http/1.1"]

    # handshake records; hello payloads are real when streams are emitted
    ch = build_client_hello(hs.offered_cipher_suites,
                            [e for e in hs.advertised_extensions],
                            hs.alpn_offered or None)
    builder.add_record(22, Direction.CLIENT_TO_SERVER, len(ch), payload=ch)
    sh = build_server_hello(hs.selected_cipher_suite, hs.alpn_selected)
    cert = bytes(int(rng.integers(2200, 3400)))
    builder.add_record(22, Direction.SERVER_TO_CLIENT, len(sh) + len(cert),
                       payload=sh + cert)
    builder.add_record(20, Direction.SERVER_TO_CLIENT, 1, payload=b"\x01")
    builder.add_record(22, Direction.SERVER_TO_CLIENT, 40)
    builder.add_record(20, Direction.CLIENT_TO_SERVER, 1, payload=b"\x01")
    builder.add_record(22, Direction.CLIENT_TO_SERVER, 40)
    if protocol == "http2":
        # connection preface + SETTINGS exchange: a protocol-distinct
        # early-record-length signature
        builder.add_record(23, Direction.CLIENT_TO_SERVER, 30)
        builder.add_record(23, Direction.SERVER_TO_CLIENT, 15)
        builder.add_record(23, Direction.CLIENT_TO_SERVER, 13)

    conn_labels = {p.id: _draw(rng, _prior_for(spec, p)) for p in problems}
    n_tx = int(rng.integers(spec.transactions_range[0],
                            spec.transactions_range[1] + 1))
    labeled: list[LabeledRecord] = []

    def tx_labels() -> dict[str, str]:
        out = {}
        for p in problems:
            rho = spec.correlation.get(p.id, 0.0)
            if rho > 0 and rng.random() < rho:
                out[p.id] = conn_labels[p.id]
            else:
                out[p.id] = _draw(rng, _prior_for(spec, p))
        return out

    by_problem = {p.id: p for p in problems}

    def emit_role(role: str, labels: dict[str, str]):
        base, step = _ROLE_BANDS[role]
        # a role carries at most one problem per channel
        pids = {channel: pid for pid, (r, channel) in CHANNEL_MAP.items()
                if r == role and pid in by_problem}
        if "length" in pids:
            pid = pids["length"]
            length = _length_value(rng, by_problem[pid], labels[pid], base,
                                   step, spec.noise_scale.get(pid, 1.0))
        else:
            length = int(base + rng.integers(step, 4 * step))
        # every pkt and push channel carries a binary problem
        pkt = None
        if "pkt" in pids:
            pkt = (_PKT_PRESENT if labels[pids["pkt"]] == PRESENT
                   else _PKT_ABSENT)
        push_all = "push" in pids and labels[pids["push"]] == PRESENT
        return builder.add_record(23, _ROLE_SIDE[role], length,
                                  pkt_count=pkt, push_all=push_all)

    roles_client = ("req_header", "req_body")
    roles_server = ("resp_header", "resp_body1", "resp_body2")

    def emit_fillers():
        lo, hi = spec.filler_range
        if hi <= 0:
            return
        for _ in range(int(rng.integers(lo, hi + 1))):
            direction = Direction(int(rng.integers(0, 2)))
            builder.add_record(23, direction, int(rng.integers(24, 160)))

    tx_plans = [tx_labels() for _ in range(n_tx)]
    for i, labels in enumerate(tx_plans):
        if i + 1 < n_tx:
            # the draw of a pipelining option that nothing ever set; kept
            # so that every seed still yields the same corpus
            rng.random()
        emit_fillers()
        crecs = [emit_role(r, labels) for r in roles_client]
        srecs = [emit_role(r, labels) for r in roles_server]
        req_lab = {pid: v for pid, v in labels.items()
                   if by_problem[pid].side == Side.CLIENT}
        resp_lab = {pid: v for pid, v in labels.items()
                    if by_problem[pid].side == Side.SERVER}
        labeled.append(LabeledRecord(crecs[0], True, req_lab))
        labeled.append(LabeledRecord(srecs[0], True, resp_lab))

    conn = builder.finish(hs)
    label_by_index = {lr.index: lr for lr in labeled}
    full = [label_by_index.get(i, LabeledRecord(i, False, {}))
            for i in range(len(conn.records))]
    return LabeledConnection(conn=conn, protocol=protocol, records=full,
                             connection_id=f"synth-{conn_index}")


def synthesize_corpus(spec: SynthSpec) -> list[LabeledConnection]:
    """Generate a deterministic labeled corpus; the planted labels are exact."""
    spec.validate()
    problems_by_protocol = {p: registry(p, spec.include_etag)
                            for p in PROTOCOLS}
    out = []
    for i in range(spec.n_connections):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        out.append(_synthesize_connection(spec, rng, i, problems_by_protocol))
    return out


# --- ground truth emission (round-trip support) ---

def _raw_value(pid: str, label: str) -> str:
    table = LABEL_RAW_VALUES.get(pid)
    if table is None:
        return label
    return table.get(label, "x-unknown/x-unknown" if "content_type" in pid
                     else "WeirdServer/0.1")


def ground_truth_session(lc: LabeledConnection) -> dict:
    """Emit the decrypted-session JSON tree for a labeled connection."""
    problems = {p.id: p for p in registry(lc.protocol, include_etag=True)}
    records = []
    for (type_code, length), lr in zip(
            lc.conn.records[["type_code", "length"]].tolist(), lc.records):
        entry: dict = {"type": TYPE_NAMES[type_code], "length": length}
        if lr.message_type:
            is_request = any(problems[pid].side == Side.CLIENT
                             for pid in lr.labels)
            headers = []
            msg: dict
            if is_request:
                msg = {"method": lr.labels.get("request.method", "GET"),
                       "uri": "/", "v": "HTTP/1.1"}
            else:
                msg = {"status_code": lr.labels.get("response.status_code",
                                                    "200"),
                       "v": "HTTP/1.1"}
            for pid, label in lr.labels.items():
                p = problems[pid]
                if p.kind == Kind.BINARY:
                    if label == PRESENT:
                        headers.append([_BINARY_HEADER[pid], "x"])
                elif pid.endswith("content_type"):
                    headers.append(["Content-Type", _raw_value(pid, label)])
                elif pid == "response.server":
                    headers.append(["Server", _raw_value(pid, label)])
            msg["headers"] = headers
            if lc.protocol == "http2":
                pseudo = [[":method", msg["method"]]] if is_request else \
                    [[":status", msg["status_code"]]]
                entry["decrypted_data"] = {
                    "frames": [{"type": "HEADERS", "headers": pseudo + headers}]}
            else:
                entry["decrypted_data"] = msg
        records.append(entry)
    return {"tls_records": records, "protocol": lc.protocol}


# --- dataset splitting ---

def split_dataset(dataset: list[LabeledConnection], policy: str = "by_week",
                  seed: int = 0, fraction: float = 0.5,
                  ) -> tuple[list[LabeledConnection], list[LabeledConnection]]:
    """Split into disjoint, exhaustive (train, test) sets."""
    if not dataset:
        raise CorpusError("empty dataset")
    if policy == "by_week":
        t0 = min(lc.conn.start_time for lc in dataset)
        boundary = t0 + WEEK
        train = [lc for lc in dataset if lc.conn.start_time < boundary]
        test = [lc for lc in dataset if lc.conn.start_time >= boundary]
    elif policy == "by_fraction":
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(dataset))
        cut = int(round(len(dataset) * fraction))
        train = [dataset[i] for i in order[:cut]]
        test = [dataset[i] for i in order[cut:]]
    else:
        raise CorpusError(f"unknown split policy {policy!r}")
    if not train or not test:
        raise CorpusError("split produced an empty side")
    return train, test


# --- corpus persistence (JSON Lines) ---

CORPUS_SCHEMA_VERSION = 1


def _conn_to_dict(lc: LabeledConnection) -> dict:
    conn = lc.conn
    return {
        "id": lc.connection_id,
        "protocol": lc.protocol,
        "start_time": conn.start_time,
        "duration": conn.duration,
        "handshake": {
            "offered_cipher_suites": conn.handshake.offered_cipher_suites,
            "advertised_extensions": conn.handshake.advertised_extensions,
            "selected_cipher_suite": conn.handshake.selected_cipher_suite,
            "alpn_offered": conn.handshake.alpn_offered,
            "alpn_selected": conn.handshake.alpn_selected,
            "version": conn.handshake.version,
        },
        "packets": [[p.timestamp, int(p.direction), p.payload_len,
                     int(p.push_flag), p.seq] for p in conn.raw.packets],
        "records": [[i, *row] for i, row in enumerate(conn.records[[
            "type_code", "length", "direction", "pkt_count", "push_count",
            "avg_pkt_size", "first_byte_ts"]].tolist())],
        "labels": [{"index": lr.index, "message_type": lr.message_type,
                    "labels": lr.labels} for lr in lc.records],
    }


def _conn_from_dict(d: dict) -> LabeledConnection:
    packets = [PacketMeta(ts, Direction(di), ln, bool(pf), seq)
               for ts, di, ln, pf, seq in d["packets"]]
    rows = [(ts, di, 0, t, ln, pc, pu, avg, False)
            for _, t, ln, di, pc, pu, avg, ts in d["records"]]
    hs = HandshakeMeta(**d["handshake"])
    labels = [LabeledRecord(l["index"], l["message_type"], l["labels"])
              for l in d["labels"]]
    _check_conn(d, hs, labels)
    raw = RawConnection(five_tuple=("", 0, "", 0, "tcp"), packets=packets,
                        client_stream=b"", server_stream=b"",
                        duration=d["duration"], start_time=d["start_time"])
    conn = Connection(raw=raw, records=record_array(rows), handshake=hs)
    # a literal such as 1e400 parses as an infinity, which no hook sees
    records = np.asarray(conn.records)  # a plain array reads fields faster
    floats = [("first_byte_ts", records["first_byte_ts"]),
              ("avg_pkt_size", records["avg_pkt_size"]),
              ("packet time", next(zip(*d["packets"]), ())),
              ("duration", [raw.duration]), ("start_time", [raw.start_time])]
    if not np.isfinite(np.concatenate([c for _, c in floats])).all():
        raise CorpusError(next(f"{name} is not finite" for name, c in floats
                               if not np.isfinite(c).all()))
    return LabeledConnection(conn=conn, protocol=d["protocol"], records=labels,
                             connection_id=d["id"])


_I, _N = {int}, {int, float}
_ROW_TYPES = {"packets": (_N, _I, _I, _I, _I), "records": (_I,) * 6 + (_N, _N)}


def _check_conn(d: dict, hs: HandshakeMeta, labels: list) -> None:
    """Refuse a connection that training or classification could not use,
    which would otherwise fail far from the cause.  It runs before the
    record array is built, which would coerce a wrong type."""
    n = len(d["records"])
    for failed, message in [
            (d["protocol"] not in PROTOCOLS,
             f"unknown protocol {d['protocol']!r}"),
            ([r[0] for r in d["records"]] != list(range(n))
             or [lr.index for lr in labels] != list(range(n)),
             "labels must be one per record, in record order"),
            (any(not set(map(type, column)) <= t
                 for name, types in _ROW_TYPES.items()
                 for column, t in zip(zip(*d[name]), types))
             or not {type(d["start_time"]), type(d["duration"])} <= _N
             or type(d["id"]) is not str
             or not all(type(v) is list and all(type(x) is t for x in v)
                        for v, t in [(hs.offered_cipher_suites, int),
                                     (hs.advertised_extensions, int),
                                     (hs.alpn_offered, str)])
             or type(hs.selected_cipher_suite) not in (int, type(None))
             or type(hs.alpn_selected) not in (str, type(None))
             or type(hs.version) is not int
             or any(type(lr.index) is not int
                    or type(lr.message_type) is not bool
                    or type(lr.labels) is not dict
                    or any(type(v) is not str for kv in lr.labels.items()
                           for v in kv) for lr in labels),
             "a field has the wrong type"),
            # 2 is DIR_NO_RECORD, the code of an absent window slot
            (any(r[3] not in (0, 1) for r in d["records"]),
             "a record direction must be 0 or 1")]:
        if failed:
            raise CorpusError(message)
    if any(p[2] < 0 for p in d["packets"]):
        raise CorpusError("payload_len must be >= 0")


def save_corpus(path: str, corpus: list[LabeledConnection],
                spec: SynthSpec | None = None) -> None:
    with open(path, "w") as fh:
        manifest = {"schema_version": CORPUS_SCHEMA_VERSION,
                    "n_connections": len(corpus)}
        if spec is not None:
            manifest["synth_spec"] = asdict(spec)
        fh.write(json.dumps({"manifest": manifest}, sort_keys=True) + "\n")
        for lc in corpus:
            fh.write(json.dumps(_conn_to_dict(lc), sort_keys=True) + "\n")


def _int64(text: str) -> int:
    """A JSON integer, refused outside int64 as no field can hold it."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"an integer is outside int64: {text[:24]}")
    return value


def _finite(constant: str) -> float:
    """Refuse a JSON NaN, Infinity or -Infinity: no field can hold one."""
    raise ValueError(f"a number is not finite: {constant}")


def load_corpus(path: str) -> list[LabeledConnection]:
    out = []
    # bytes, decoded line by line, so that invalid UTF-8 names its line
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"),
                                parse_int=_int64, parse_constant=_finite)
        except ValueError as exc:
            raise CorpusError(f"line 1: {type(exc).__name__}: {exc}") from exc
        manifest = header.get("manifest") if isinstance(header, dict) else None
        if not isinstance(manifest, dict):
            raise CorpusError("line 1 is not a corpus manifest")
        if manifest.get("schema_version") != CORPUS_SCHEMA_VERSION:
            raise CorpusError("unsupported corpus schema version")
        for n, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    out.append(_conn_from_dict(json.loads(
                        line.decode("utf-8"), parse_int=_int64,
                        parse_constant=_finite)))
                except (CorpusError, KeyError, TypeError, ValueError) as exc:
                    raise CorpusError(
                        f"line {n}: {type(exc).__name__}: {exc}") from exc
    return out

"""Shared fixture builders for the test suite."""

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from socket import inet_ntoa

import numpy as np
from hypothesis import strategies as st

from httpglass.capture import (LINKTYPE_ETHERNET, PCAP_MAGIC_NS, PCAP_MAGIC_US,
                               Direction, PacketMeta, Packets, PcapError,
                               RawConnection, TCP_FLAG_ACK, TCP_FLAG_PSH,
                               TCP_FLAG_SYN, _reassemble, _streams,
                               build_tcp_frame)
from httpglass import forest as rf
from httpglass.features import (CONNECTION_LEN, DIR_NO_RECORD,
                                N_SIGNED_LENGTHS, WINDOW_RADIUS, WINDOW_SLOTS,
                                extract_connection_features)
from httpglass.inference import (BUNDLE_FORMAT_VERSION, PROTOCOLS,
                                 InferenceError, ModelBundle, ProtocolModels,
                                 _check_schemas, _field, _object)
from httpglass.tlsparse import (MAX_RECORD_LEN, RECORD_HEADER_LEN,
                                RECORD_TYPES, Connection, HandshakeMeta,
                                build_client_hello, build_server_hello,
                                parse_handshake_meta, record_array,
                                record_header)

CLIENT = ("10.0.0.1", 40000)
SERVER = ("93.184.216.34", 443)


def tls_stream(messages):
    """Concatenate (type_code, payload) pairs into a TLS record stream."""
    return b"".join(record_header(t, len(p)) + p for t, p in messages)


def pcap_frames(client_payloads, server_payloads, start_ts=100.0,
                syn_data=b""):
    """Interleave client/server payload chunks into a SYN-handshaked flow.

    ``client_payloads``/``server_payloads`` are lists of byte chunks; packets
    alternate client-first, one chunk per packet, 10 ms apart, PSH on every
    data packet.  ``syn_data`` rides on the client's SYN (TCP Fast Open), so
    the client's stream starts with it.
    """
    frames = []
    ts = start_ts
    frames.append((ts, build_tcp_frame(CLIENT, SERVER, 0, syn_data,
                                       flags=TCP_FLAG_SYN)))
    ts += 0.001
    frames.append((ts, build_tcp_frame(SERVER, CLIENT, 0,
                                       flags=TCP_FLAG_SYN | TCP_FLAG_ACK,
                                       ack=1 + len(syn_data))))
    cseq, sseq = 1 + len(syn_data), 1
    ci, si = 0, 0
    while ci < len(client_payloads) or si < len(server_payloads):
        if ci < len(client_payloads):
            ts += 0.01
            data = client_payloads[ci]
            frames.append((ts, build_tcp_frame(
                CLIENT, SERVER, cseq, data, flags=TCP_FLAG_ACK | TCP_FLAG_PSH)))
            cseq += len(data)
            ci += 1
        if si < len(server_payloads):
            ts += 0.01
            data = server_payloads[si]
            frames.append((ts, build_tcp_frame(
                SERVER, CLIENT, sseq, data, flags=TCP_FLAG_ACK | TCP_FLAG_PSH)))
            sseq += len(data)
            si += 1
    return frames


def planted_pcap_frames(corpus, isn, reuse=False):
    """Write ``SynthSpec(emit_streams=True)`` connections as capture frames.

    Connection i gets its own client endpoint and a SYN handshake with ``isn``
    on both sides, stamped with its first packet's time; then each planted
    packet becomes one frame with seq = isn + 1 + its stream offset (mod
    2**32).  Returns the (timestamp, frame) pairs in capture-time order and
    the planted connection of each five-tuple.

    With ``reuse``, connections 2j and 2j + 1 share client endpoint j, one
    after the other: every frame of the second follows the first's last
    frame, and its ISNs have bit 7 flipped, so they differ from the first's
    and still cross 2**32 where the first's do.  For odd j the second has
    the roles reversed: ``SERVER`` opens it to endpoint j.  The planted
    connections are then keyed by (five-tuple, k), k counting from 0 on
    each five-tuple.
    """
    frames, planted = [], {}
    after = {}  # endpoint j -> time of its last frame so far
    for i, lc in enumerate(corpus):
        j = i // 2 if reuse else i
        endpoint = (f"10.1.{j >> 8}.{j & 255}", 30000 + j)
        client, server = (SERVER, endpoint) if reuse and i % 4 == 3 \
            else (endpoint, SERVER)
        five = client + server + ("tcp",)
        planted[(five, sum(f == five for f, _ in planted)) if reuse
                else five] = lc
        seq0 = isn ^ 0x80 if reuse and i % 2 else isn
        raw = lc.conn.raw
        streams = (raw.client_stream, raw.server_stream)
        start = raw.packets[0].timestamp
        own = [
            (start, build_tcp_frame(client, server, seq0, flags=TCP_FLAG_SYN)),
            (start, build_tcp_frame(server, client, seq0,
                                    flags=TCP_FLAG_SYN | TCP_FLAG_ACK)),
            (start, build_tcp_frame(client, server, seq0 + 1))]
        for pkt in raw.packets:
            src, dst = ((client, server)
                        if pkt.direction == Direction.CLIENT_TO_SERVER
                        else (server, client))
            payload = streams[pkt.direction][pkt.seq:pkt.seq + pkt.payload_len]
            flags = TCP_FLAG_ACK | (TCP_FLAG_PSH if pkt.push_flag else 0)
            own.append((pkt.timestamp, build_tcp_frame(
                src, dst, seq0 + 1 + pkt.seq, payload, flags=flags)))
        # a frame sorts at its time, or after its endpoint's earlier frames
        floor = after.get(endpoint, float("-inf"))
        frames += [(max(ts, floor), ts, frame) for ts, frame in own]
        after[endpoint] = max(floor, own[-1][0])
    frames.sort(key=lambda f: f[0])  # stable: each flow keeps its own order
    return [(ts, frame) for _, ts, frame in frames], planted


def assert_tiles(stream, segments):
    """The (offset, packet index) pairs tile ``stream``: the offsets start
    at 0, strictly increase and stay below its length, and no packet
    repeats."""
    offsets = [off for off, _ in segments]
    assert bool(offsets) == bool(stream)
    if offsets:
        assert offsets[0] == 0 and offsets[-1] < len(stream)
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    indices = [i for _, i in segments]
    assert len(set(indices)) == len(indices)


def segment_map(pairs):
    """A segment map from its (stream offset, packet index) pairs."""
    return np.array(pairs, np.int64).reshape(-1, 2)


def reference_reassemble(segments, base_seq=None):
    """One direction reassembled one segment at a time, as ``load_pcap`` did
    before it reassembled the whole capture as columns; kept as the oracle
    of the columnar core.

    ``segments`` is a list of (seq, payload, packet_index) in arrival order;
    a payload is any bytes-like object.  Returns (stream, segment_map,
    gap_flag, overlap_anomaly).  Duplicate bytes are dropped (first-seen
    wins; bytes before ``base_seq`` are never compared), and reassembly
    stops at the first unfilled gap; remaining bytes are discarded with the
    gap flag set.  Without ``base_seq`` the stream starts at the earliest
    seq, read modulo 2**32 around the first segment's.
    """
    if not segments:
        return b"", [], False, False
    if base_seq is None:
        first = segments[0][0]
        base_seq = (first + min(((seq - first + 2**31) & 0xFFFFFFFF)
                                - 2**31 for seq, _, _ in segments)) & 0xFFFFFFFF
    # offsets from base_seq mod 2**32, signed so bytes before base_seq stay
    # duplicates; the stable sort keeps first-seen order among equal offsets
    ordered = sorted(
        ((((seq - base_seq + 2**31) & 0xFFFFFFFF) - 2**31, payload, pkt_idx)
         for seq, payload, pkt_idx in segments), key=lambda s: s[0])
    stream = bytearray()
    segmap = []
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


def columnar_reassemble(segments, base_seq=None):
    """``reference_reassemble``'s interface over the columnar core: the
    segments' payloads are laid end to end as the capture it reads."""
    lengths = [len(p) for _, p, _ in segments]
    at = np.cumsum([0] + lengths, dtype=np.int64)[:-1]
    plan = _reassemble(
        np.zeros(len(segments), np.int64),
        np.array([s for s, _, _ in segments], np.int64),
        np.array(lengths, np.int64), at,
        np.array([i for _, _, i in segments], np.int64),
        np.array([-1 if base_seq is None else base_seq], np.int64))
    data = memoryview(b"".join(bytes(p) for _, p, _ in segments))
    (stream,), (segmap,), (gap,), (anomaly,) = _streams(data, plan)
    return stream, list(map(tuple, segmap.tolist())), gap, anomaly


def handshake_payloads(alpn_offered=("h2", "http/1.1"), alpn_selected="h2",
                       suites=(0x1301, 0x1303), extensions=(0, 16, 43)):
    """(client_hello_record, server_hello_record) byte strings."""
    ch = build_client_hello(list(suites), list(extensions),
                            alpn=list(alpn_offered) if alpn_offered else None)
    sh = build_server_hello(suites[0], alpn_selected=alpn_selected)
    return (tls_stream([(22, ch)]), tls_stream([(22, sh)]))


def synthetic_connection(lengths_directions, handshake=None, start_time=0.0,
                         duration=1.0, type_codes=None):
    """Build a Connection directly from (length, direction) record metadata.

    One packet per record; packet payload covers header + payload bytes.
    """
    records = []
    packets = []
    ts = start_time
    for i, (length, direction) in enumerate(lengths_directions):
        tc = 23 if type_codes is None else type_codes[i]
        wire = length + 5
        packets.append(PacketMeta(timestamp=ts, direction=Direction(direction),
                                  payload_len=wire, push_flag=True, seq=0))
        records.append((ts, direction, 0, tc, length, 1, 1, float(wire),
                        False))
        ts += 0.01
    raw = RawConnection(
        five_tuple=(*CLIENT, *SERVER, "tcp"),
        packets=Packets.from_rows(packets), client_stream=b"",
        server_stream=b"", duration=duration,
        start_time=start_time)
    return Connection(raw=raw, records=record_array(records),
                      handshake=handshake or HandshakeMeta())


def reference_parse_tls_records(raw):
    """The record cut as it was before records became one array, kept as
    the oracle of ``parse_tls_records``: (the records as tuples in
    ``RECORD_DTYPE``'s field order, sorted by a key of time, direction and
    offset; the handshake), or None for a connection that is not TLS."""
    entries = []
    hello_payloads = []
    streams = (raw.client_stream, raw.server_stream)
    for direction, stream, segments in zip(
            Direction, streams, (raw.client_segments, raw.server_segments)):
        segments = segments.tolist()
        starts = [off for off, _ in segments]
        pkts = [raw.packets[i] for _, i in segments]
        pushes = list(accumulate((p.push_flag for p in pkts), initial=0))
        sizes = list(accumulate((p.payload_len for p in pkts), initial=0))
        handshake = []
        off, n = 0, len(stream)
        while off + RECORD_HEADER_LEN <= n:
            type_code, ver_hi, length = struct.unpack_from("!BBxH", stream,
                                                           off)
            if type_code not in RECORD_TYPES or ver_hi != 0x03 \
                    or length > MAX_RECORD_LEN:
                break
            end = off + RECORD_HEADER_LEN + length
            lo = bisect_right(starts, off) - 1
            hi = bisect_left(starts, end)
            entries.append((pkts[lo].timestamp, direction, off, type_code,
                            length, hi - lo, pushes[hi] - pushes[lo],
                            (sizes[hi] - sizes[lo]) / (hi - lo), end > n))
            if type_code == 22 and end <= n:
                handshake.append(stream[off + RECORD_HEADER_LEN:end])
            off = end
        if off == 0 and n > 0:
            return None
        hello_payloads.append(b"".join(handshake))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    version = next((struct.unpack_from("!H", streams[d], off + 1)[0]
                    for _, d, off, t, *_ in entries if t == 22), 0)
    return entries, parse_handshake_meta(*hello_payloads, version)


def reference_padded_slots(rows, lo, hi):
    """The window slots as they were built one record at a time, kept as
    the oracle of ``features._padded_slots``: rows ``lo .. hi-1`` of the
    records ``rows`` (tuples in ``RECORD_DTYPE``'s field order)."""
    out = []
    for k in range(lo, hi):
        if 0 <= k < len(rows):
            _, d, _, t, ln, pc, pu, avg, _ = rows[k]
            out += (float(pc), float(pu), avg, float(t), float(ln), float(d))
        else:
            out += (0.0, 0.0, 0.0, 0.0, 0.0, float(DIR_NO_RECORD))
    return np.asarray(out, dtype=np.float64).reshape(hi - lo, 6)


def reference_record_table(conn, rows, mode):
    """``record_table(conn, mode)`` built from the reference slots and the
    signed lengths of ``rows``, one record at a time."""
    n = len(rows)
    slots = reference_padded_slots(rows, -WINDOW_RADIUS, n + WINDOW_RADIUS)
    blocks = [slots[k:k + n] for k in range(WINDOW_SLOTS)]
    if mode == "standard":
        block = extract_connection_features(conn)
        block[6:6 + N_SIGNED_LENGTHS] = 0.0
        for k, (_, d, _, _, ln, *_) in enumerate(rows[:N_SIGNED_LENGTHS]):
            block[6 + k] = (-1.0 if d == Direction.SERVER_TO_CLIENT
                            else 1.0) * ln
        blocks.append(np.broadcast_to(block, (n, CONNECTION_LEN)))
    return np.concatenate(blocks, axis=1)


def reference_rows(block, heads, head_of, masks, base=None):
    """The enhanced models' inputs built in full, as the passes once built
    them, kept as the oracle of their compact inputs: row i holds header
    ``heads[head_of[i]]``'s base features (of ``base``, by default the
    block's) and its context, less the header's own indicators under the
    span mask ``masks[i]``, without the block's scratch column."""
    base = block.base if base is None else base
    ctx = block.window(heads)[:, :-1]
    g = heads[head_of]
    return np.hstack([base[g], ctx[head_of] - block.vecs[g, :-1] * masks])


def random_dataset(rng, n_max=200, d_max=8, k_max=4):
    """A random (X, y) classification dataset for forest oracles."""
    n = int(rng.integers(8, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    X = np.round(rng.normal(size=(n, d)) * 4.0, 1)
    y = [f"c{int(v)}" for v in rng.integers(0, k, size=n)]
    return X, y


def reference_check_nodes(nodes, leaf_counts, n_features, n_classes):
    """Refuse loaded node arrays that ``predict_scores`` could not use: each
    child must follow its parent inside its tree, so every walk ends at a
    leaf, and each leaf must hold a count."""
    n = nodes.feature.size
    ids, split, roots = np.arange(n), nodes.feature >= 0, nodes.roots
    if any(a.shape != (n,) for a in (nodes.feature, nodes.threshold,
                                      nodes.left, nodes.right, nodes.cat)):
        raise rf.ForestError("node arrays differ in length")
    if roots.ndim != 1 or roots.size == 0 or roots[0] != 0 \
            or (np.diff(roots) <= 0).any() or roots[-1] >= n:
        raise rf.ForestError("roots must be increasing node ids from 0")
    end = np.append(roots[1:], n)[np.searchsorted(roots, ids, side="right") - 1]
    children = np.stack([nodes.left, nodes.right])[:, split]
    for failed, message in [
            (((children <= ids[split]) | (children >= end[split])).any(),
             "a child id does not follow its parent in its tree"),
            (leaf_counts.shape != ((~split).sum(), n_classes)
             or (leaf_counts < 0).any() or (leaf_counts.sum(axis=1) <= 0).any(),
             "leaf_counts needs one positive row per leaf"),
            (((nodes.feature < -1) | (nodes.feature >= n_features)).any(),
             f"split feature out of range for {n_features} features"),
            (((nodes.cat < -1) | (nodes.cat >= len(nodes.cats_left))).any(),
             "categorical split index out of range"),
            (any(c.ndim != 1 for c in nodes.cats_left),
             "each categorical split needs a flat list of codes"),
            (not np.isfinite(nodes.threshold[split & (nodes.cat < 0)]).all(),
             "numeric split without a finite threshold")]:
        if failed:
            raise rf.ForestError(message)


def reference_forest_from_dict(data):
    """One saved forest converted and checked alone, field by field, as
    forests were loaded before a bundle became one node table: the oracle
    of ``forest.from_dicts``.  It lets non-finite importances through."""
    if not isinstance(data, dict):
        raise rf.ForestError("a forest must be a JSON object")
    if data.get("format_version") != rf.FORMAT_VERSION:
        raise rf.ForestError("unsupported model format version")
    try:
        nd, classes = data["nodes"], data["classes"]
        if not isinstance(classes, list) or None in classes \
                or len(set(classes)) != len(classes):
            raise rf.ForestError("classes must be a list of distinct values, "
                                 "none of them null")
        feature = np.asarray(nd["feature"], dtype=np.int64)
        nodes = rf.Nodes(
            feature=feature,
            threshold=np.asarray(nd["threshold"], dtype=np.float64),
            left=np.asarray(nd["left"], dtype=np.int64),
            right=np.asarray(nd["right"], dtype=np.int64),
            roots=np.asarray(nd["roots"], dtype=np.int64),
            counts=np.zeros((feature.size, len(classes)), dtype=np.int64),
            cat=np.asarray(nd["cat"], dtype=np.int64),
            cats_left=[np.asarray(c, dtype=np.float64)
                       for c in nd["cats_left"]])
        leaf_counts = np.asarray(nd["leaf_counts"], dtype=np.int64)
        n_features = data["n_features"]
        if type(n_features) is not int:
            raise rf.ForestError("n_features must be an integer")
        reference_check_nodes(nodes, leaf_counts, n_features, len(classes))
        nodes.counts[feature < 0] = leaf_counts
        importance = np.asarray(data["importance_raw"], dtype=np.float64)
        if importance.shape != (n_features,):
            raise rf.ForestError("importance_raw needs one value per feature")
        return rf.Forest(
            classes=classes, schema_id=data["schema_id"],
            n_features=n_features,
            categorical=frozenset(data["categorical"]),
            params=rf.TrainParams(**data["params"]),
            importance_raw=importance, nodes=nodes)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise rf.ForestError(f"malformed field ({exc!r})") from exc


def reference_bundle_from_dict(data):
    """A saved bundle loaded one forest at a time, in load order, each by
    ``reference_forest_from_dict``: the oracle of
    ``inference.bundle_from_dict``."""
    if _object(data, "a bundle").get("format_version") \
            != BUNDLE_FORMAT_VERSION:
        raise InferenceError("unsupported bundle format version")

    def load(name, d, optional=False):
        if optional and d is None:
            return None
        try:
            return reference_forest_from_dict(d)
        except rf.ForestError as exc:
            raise InferenceError(f"forest {name} is refused: {exc}") from exc

    bundle = ModelBundle(
        mode=_field(data, "mode"), include_etag=_field(data, "include_etag"),
        models={},
        alp_fallback=load("alp_fallback", _field(data, "alp_fallback"), True),
        default_protocol=_field(data, "default_protocol"))
    for protocol, pd in _object(_field(data, "protocols"),
                                "protocols").items():
        name = f"protocols.{protocol}"
        pd = _object(pd, name)
        bundle.models[protocol] = ProtocolModels(
            message_type=load(f"{protocol}.message_type",
                              _field(pd, "message_type", name), True),
            single={pid: load(f"{protocol}.single.{pid}", d) for pid, d in
                    _object(_field(pd, "single", name),
                            f"{protocol}.single").items()},
            enhanced={pid: load(f"{protocol}.enhanced.{pid}", d) for pid, d in
                      _object(_field(pd, "enhanced", name),
                              f"{protocol}.enhanced").items()},
        )
    fallback = [bundle.default_protocol,
                *(bundle.alp_fallback.classes if bundle.alp_fallback else [])]
    if any(p not in PROTOCOLS for p in fallback):
        raise InferenceError(f"the protocol fallback names {fallback!r}; "
                             f"only {PROTOCOLS!r} are known")
    _check_schemas(bundle)
    return bundle


def bundle_forests(bundle):
    """(name, forest) of each of a bundle's forests, in load order."""
    out = [("alp_fallback", bundle.alp_fallback)]
    for protocol, pm in bundle.models.items():
        out.append((f"{protocol}.message_type", pm.message_type))
        out += [(f"{protocol}.{kind}.{pid}", f)
                for kind in ("single", "enhanced")
                for pid, f in getattr(pm, kind).items()]
    return [(name, f) for name, f in out if f is not None]


def assert_same_forest(a, b):
    """Two loaded forests hold equal fields and arrays, NaN included."""
    assert (a.classes, a.schema_id, a.n_features, a.categorical, a.params) \
        == (b.classes, b.schema_id, b.n_features, b.categorical, b.params)
    assert a.importance_raw.dtype == b.importance_raw.dtype
    assert np.array_equal(a.importance_raw, b.importance_raw, equal_nan=True)
    for name in ("feature", "threshold", "left", "right", "roots", "counts",
                 "cat"):
        x, y = getattr(a.nodes, name), getattr(b.nodes, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name
    assert len(a.nodes.cats_left) == len(b.nodes.cats_left)
    for x, y in zip(a.nodes.cats_left, b.nodes.cats_left):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y, equal_nan=True)


def assert_same_bundle(a, b):
    """Two loaded bundles hold equal settings and forests, in one order."""
    assert (a.mode, a.include_etag, a.default_protocol) == \
        (b.mode, b.include_etag, b.default_protocol)
    assert list(a.models) == list(b.models)
    for protocol in a.models:
        for kind in ("single", "enhanced"):
            assert list(getattr(a.models[protocol], kind)) == \
                list(getattr(b.models[protocol], kind))
    fa, fb = bundle_forests(a), bundle_forests(b)
    assert [name for name, _ in fa] == [name for name, _ in fb]
    for (_, x), (_, y) in zip(fa, fb):
        assert_same_forest(x, y)


def _reference_frames(fh):
    """(timestamp, frame bytes) of each whole record, read one at a time."""
    header = fh.read(24)
    if len(header) < 24:
        raise PcapError("truncated pcap global header")
    magic = struct.unpack("<I", header[:4])[0]
    if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian = "<"
    else:
        magic = struct.unpack(">I", header[:4])[0]
        if magic not in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
            raise PcapError("not a classic pcap file (bad magic)")
        endian = ">"
    ts_div = 1e9 if magic == PCAP_MAGIC_NS else 1e6
    if struct.unpack(endian + "I", header[20:24])[0] != LINKTYPE_ETHERNET:
        raise PcapError("unsupported link type")
    while True:
        rec = fh.read(16)
        if len(rec) < 16:
            return  # end of file, or a truncated record header
        ts_sec, ts_frac, incl_len, _ = struct.unpack(endian + "IIII", rec)
        data = fh.read(incl_len)
        if len(data) < incl_len:
            return  # truncated record body
        yield ts_sec + ts_frac / ts_div, data


def _reference_frame(data):
    """Ethernet/IPv4/TCP decode of one frame; None for anything else."""
    if len(data) < 14:
        return None
    ethertype = struct.unpack_from("!H", data, 12)[0]
    off = 14
    if ethertype == 0x8100:  # single 802.1Q tag
        if len(data) < 18:
            return None
        ethertype = struct.unpack_from("!H", data, 16)[0]
        off = 18
    if ethertype != 0x0800 or len(data) < off + 20 or data[off] >> 4 != 4:
        return None
    ihl = (data[off] & 0x0F) * 4
    total_len = struct.unpack_from("!H", data, off + 2)[0]
    if data[off + 9] != 6:
        return None
    tcp_off = off + ihl
    if len(data) < tcp_off + 20:
        return None
    sport, dport, seq, data_off, flags = struct.unpack_from(
        "!HHI4xBB", data, tcp_off)
    payload_start = tcp_off + (data_off >> 4) * 4
    payload = data[payload_start:min(off + total_len, len(data))]
    src = (inet_ntoa(data[off + 12:off + 16]), sport)
    dst = (inet_ntoa(data[off + 16:off + 20]), dport)
    return src, dst, seq, flags, payload


@dataclass
class _ReferenceFlow:
    first_sender: tuple  # (ip, port) of the flow's first packet
    first_ts: float
    last_ts: float
    syn_sender: tuple | None = None  # sender of the first SYN without ACK
    isn: dict = field(default_factory=dict)  # endpoint -> last SYN seq
    data: list = field(default_factory=list)  # (ts, src, payload, flags, seq)


def reference_load_pcap(path):
    """The per-frame pcap reader that ``load_pcap`` replaced, kept as its
    oracle: one Python decode and one flow-dict lookup per frame.  A SYN
    without ACK starts a new connection on its endpoint pair when its
    sender's previous SYN there, with or without ACK, had another sequence
    number."""
    flows = {}
    syns = {}  # (endpoint pair, sender) -> seq of its last SYN
    count = {}  # endpoint pair -> connections it started after its first
    with open(path, "rb") as fh:
        for ts, data in _reference_frames(fh):
            parsed = _reference_frame(data)
            if parsed is None:
                continue
            src, dst, seq, flags, payload = parsed
            pair = (min(src, dst), max(src, dst))
            if flags & TCP_FLAG_SYN:
                if not flags & TCP_FLAG_ACK \
                        and syns.get((pair, src), seq) != seq:
                    count[pair] = count.get(pair, 0) + 1
                syns[pair, src] = seq
            key = pair, count.get(pair, 0)
            state = flows.get(key)
            if state is None:
                state = flows[key] = _ReferenceFlow(src, ts, ts)
            state.last_ts = ts
            if flags & TCP_FLAG_SYN:
                state.isn[src] = seq
                if not flags & TCP_FLAG_ACK and state.syn_sender is None:
                    state.syn_sender = src
            if payload:
                state.data.append((ts, src, payload, flags, seq))
    connections = []
    for ((a, b), _), state in flows.items():
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
                                      bool(flags & TCP_FLAG_PSH), seq))
            # data on a SYN starts after the SYN's own sequence number
            start = (seq + 1) & 0xFFFFFFFF if flags & TCP_FLAG_SYN else seq
            raw_segs[src].append((start, payload, idx))
        isn = state.isn
        base_c = (isn[client] + 1) & 0xFFFFFFFF if client in isn else None
        base_s = (isn[server] + 1) & 0xFFFFFFFF if server in isn else None
        cs, cmap, gap_c, an_c = reference_reassemble(raw_segs[client], base_c)
        ss, smap, gap_s, an_s = reference_reassemble(raw_segs[server], base_s)
        connections.append(RawConnection(
            five_tuple=(client[0], client[1], server[0], server[1], "tcp"),
            packets=Packets.from_rows(packets), client_stream=cs,
            server_stream=ss, duration=state.last_ts - state.first_ts,
            client_segments=segment_map(cmap),
            server_segments=segment_map(smap),
            gap_client=gap_c, gap_server=gap_s,
            overlap_anomaly=an_c or an_s, start_time=state.first_ts))
    return connections


@st.composite
def record_stream(draw, direction):
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


# (offset from the ISN + 1, length, alter the first byte): one direction's
# segments, which may repeat, overlap with equal or other bytes, leave a
# gap or start before the base
SEGMENTS = st.lists(st.tuples(st.integers(-6, 24), st.integers(1, 16),
                              st.booleans()), max_size=10)


@st.composite
def random_direction(draw, direction):
    """One direction's bytes and segments for ``connection_frames``: 64
    random bytes, offset o being byte o + 6, and ``SEGMENTS`` over them."""
    return draw(st.binary(min_size=64, max_size=64)), draw(SEGMENTS)


@st.composite
def tls_direction(draw, direction):
    """One direction's bytes and segments for ``connection_frames``: a
    ``record_stream``, offset o being byte o + 6, cut into its segments,
    and up to three more segments from before the base to past its end,
    which repeat or overlap the stream, with equal or other bytes, or extend
    it with trailing bytes."""
    stream, starts = draw(record_stream(direction))
    buf = draw(st.binary(min_size=6, max_size=6)) + stream \
        + draw(st.binary(min_size=16, max_size=16))
    tiles = [(a, b - a, False)
             for a, b in zip(starts, starts[1:] + [len(stream)])]
    extra = st.tuples(st.integers(-6, len(stream)), st.integers(1, 16),
                      st.booleans())
    return buf, tiles + draw(st.lists(extra, max_size=3))


# two clients, so that connections share port pairs
CLIENTS = st.sampled_from([CLIENT, ("10.0.0.2", 50000)])
ISNS = st.sampled_from([0, 7, 0xFFFFFF00, 0xFFFFFFF8, 0xFFFFFFFF]) \
    | st.integers(0, 0xFFFFFFFF)
MOSTLY = st.sampled_from([True, True, True, False])


@st.composite
def connection_frames(draw, direction=random_direction):
    """One connection's frames, now and then of an endpoint to itself or
    opened by ``SERVER``: most often a SYN from each side, each maybe
    carrying data, then both directions' segments in a random order.
    ``direction(d)`` draws direction d's bytes and segments."""
    client = draw(CLIENTS)
    server = draw(st.sampled_from([SERVER, SERVER, SERVER, client]))
    if draw(st.booleans()):
        client, server = server, client
    syns, data = [], []
    # the server's SYN has an ACK, but not in a simultaneous open
    server_syn = draw(st.sampled_from([TCP_FLAG_ACK, TCP_FLAG_ACK, 0]))
    for d, (src, dst, syn) in enumerate((
            (client, server, TCP_FLAG_SYN),
            (server, client, TCP_FLAG_SYN | server_syn))):
        buf, segments = draw(direction(d))
        isn = draw(ISNS)
        if draw(MOSTLY):
            syns.append(build_tcp_frame(src, dst, isn, draw(st.sampled_from(
                [b"", buf[6:9]])), flags=syn))
        for off, n, alter in segments:
            payload = bytearray(buf[off + 6:off + 6 + n])
            payload[0] ^= 0xFF * alter
            data.append(build_tcp_frame(
                src, dst, isn + 1 + off, bytes(payload),
                flags=TCP_FLAG_ACK | TCP_FLAG_PSH * draw(st.booleans())))
    return syns + draw(st.permutations(data))

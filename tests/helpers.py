"""Shared fixture builders for the test suite."""

import numpy as np

from httpglass.capture import (Direction, PacketMeta, RawConnection, Segment,
                               TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN,
                               build_tcp_frame)
from httpglass.tlsparse import (Connection, HandshakeMeta, TlsRecordMeta,
                                build_client_hello, build_server_hello,
                                record_header)

CLIENT = ("10.0.0.1", 40000)
SERVER = ("93.184.216.34", 443)


def tls_stream(messages):
    """Concatenate (type_code, payload) pairs into a TLS record stream."""
    return b"".join(record_header(t, len(p)) + p for t, p in messages)


def pcap_frames(client_payloads, server_payloads, start_ts=100.0):
    """Interleave client/server payload chunks into a SYN-handshaked flow.

    ``client_payloads``/``server_payloads`` are lists of byte chunks; packets
    alternate client-first, one chunk per packet, 10 ms apart, PSH on every
    data packet.
    """
    frames = []
    ts = start_ts
    frames.append((ts, build_tcp_frame(CLIENT, SERVER, 0, flags=TCP_FLAG_SYN)))
    ts += 0.001
    frames.append((ts, build_tcp_frame(SERVER, CLIENT, 0,
                                       flags=TCP_FLAG_SYN | TCP_FLAG_ACK, ack=1)))
    cseq, sseq = 1, 1
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


def planted_pcap_frames(corpus, isn):
    """Write ``SynthSpec(emit_streams=True)`` connections as capture frames.

    Connection i gets its own client endpoint and a SYN handshake with ``isn``
    on both sides, stamped with its first packet's time; then each planted
    packet becomes one frame with seq = isn + 1 + its stream offset (mod
    2**32).  Returns the (timestamp, frame) pairs in capture-time order and
    the planted connection of each five-tuple.
    """
    frames, planted = [], {}
    for i, lc in enumerate(corpus):
        client = (f"10.1.{i >> 8}.{i & 255}", 30000 + i)
        planted[client + SERVER + ("tcp",)] = lc
        raw = lc.conn.raw
        start = raw.packets[0].timestamp
        frames += [
            (start, build_tcp_frame(client, SERVER, isn, flags=TCP_FLAG_SYN)),
            (start, build_tcp_frame(SERVER, client, isn,
                                    flags=TCP_FLAG_SYN | TCP_FLAG_ACK)),
            (start, build_tcp_frame(client, SERVER, isn + 1))]
        for pkt in raw.packets:
            src, dst = ((client, SERVER)
                        if pkt.direction == Direction.CLIENT_TO_SERVER
                        else (SERVER, client))
            payload = raw.stream(pkt.direction)[pkt.seq:pkt.seq + pkt.payload_len]
            flags = TCP_FLAG_ACK | (TCP_FLAG_PSH if pkt.push_flag else 0)
            frames.append((pkt.timestamp, build_tcp_frame(
                src, dst, isn + 1 + pkt.seq, payload, flags=flags)))
    frames.sort(key=lambda f: f[0])  # stable: each flow keeps its own order
    return frames, planted


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
        records.append(TlsRecordMeta(
            index=i, type_code=tc, length=length,
            direction=Direction(direction), pkt_count=1, push_count=1,
            avg_pkt_size=float(wire), first_byte_ts=ts))
        ts += 0.01
    raw = RawConnection(
        five_tuple=(*CLIENT, *SERVER, "tcp"), packets=packets,
        client_stream=b"", server_stream=b"", duration=duration,
        start_time=start_time)
    return Connection(raw=raw, records=records,
                      handshake=handshake or HandshakeMeta())


def random_dataset(rng, n_max=200, d_max=8, k_max=4):
    """A random (X, y) classification dataset for forest oracles."""
    n = int(rng.integers(8, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    X = np.round(rng.normal(size=(n, d)) * 4.0, 1)
    y = [f"c{int(v)}" for v in rng.integers(0, k, size=n)]
    return X, y

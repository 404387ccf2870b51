"""Wire-path inputs: synthetic connections written as a real pcap.

Connections come from ``SynthSpec(emit_streams=True)``, so each one carries
real TLS record bytes and the packet boundaries the generator planted.  Each
connection gets its own client endpoint and a SYN handshake whose initial
sequence numbers are drawn uniformly over the full 32-bit space, as real
stacks do; a stream that crosses 2**32 is kept, not avoided.
"""
from __future__ import annotations

import numpy as np

from httpglass.capture import (TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN,
                               Direction, build_tcp_frame, load_pcap,
                               write_pcap)
from httpglass.tlsparse import parse_tls_records

SERVER = ("93.184.216.34", 443)


def client_endpoint(index: int) -> tuple[str, int]:
    """A distinct client (ip, port) for connection ``index``."""
    return (f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
            20000 + index % 40000)


def connection_frames(conn, client, isn_client: int, isn_server: int):
    """(timestamp, frame) pairs: SYN handshake, then every planted packet.

    The handshake shares the first data packet's timestamp so the parsed
    connection's duration equals the planted one.
    """
    raw = conn.raw
    start = raw.packets[0].timestamp
    frames = [
        (start, build_tcp_frame(client, SERVER, isn_client, flags=TCP_FLAG_SYN)),
        (start, build_tcp_frame(SERVER, client, isn_server,
                                flags=TCP_FLAG_SYN | TCP_FLAG_ACK,
                                ack=(isn_client + 1) & 0xFFFFFFFF)),
        (start, build_tcp_frame(client, SERVER, isn_client + 1,
                                ack=(isn_server + 1) & 0xFFFFFFFF)),
    ]
    for pkt in raw.packets:
        if pkt.direction == Direction.CLIENT_TO_SERVER:
            src, dst, isn, stream = client, SERVER, isn_client, raw.client_stream
        else:
            src, dst, isn, stream = SERVER, client, isn_server, raw.server_stream
        flags = TCP_FLAG_ACK | (TCP_FLAG_PSH if pkt.push_flag else 0)
        payload = stream[pkt.seq:pkt.seq + pkt.payload_len]
        frames.append((pkt.timestamp,
                       build_tcp_frame(src, dst, isn + 1 + pkt.seq, payload,
                                       flags=flags)))
    return frames


def write_corpus_pcap(path: str, corpus, seed: int) -> dict:
    """Write ``corpus`` to a pcap in capture-time order.

    Returns the planted connections keyed by the five-tuple ``load_pcap``
    gives them: (client ip, client port, server ip, server port, "tcp").
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1517)))
    isns = rng.integers(0, 2 ** 32, size=(len(corpus), 2), dtype=np.uint64)
    frames, planted = [], {}
    for i, lc in enumerate(corpus):
        client = client_endpoint(i)
        planted[client + SERVER + ("tcp",)] = lc
        for k, (ts, frame) in enumerate(connection_frames(
                lc.conn, client, int(isns[i, 0]), int(isns[i, 1]))):
            frames.append((ts, i, k, frame))
    frames.sort(key=lambda f: f[:3])
    write_pcap(path, ((ts, frame) for ts, _, _, frame in frames))
    return planted


def record_tuples(conn) -> list[tuple]:
    return [(r.type_code, r.length, int(r.direction), r.pkt_count,
             r.push_count) for r in conn.records]


def round_trip(path: str, planted: dict) -> tuple[dict, list[str]]:
    """Match parsed connections to planted ones by five-tuple.

    ``load_pcap`` orders flows by their first packet, so position says
    nothing.  Returns ({planted connection id: the id ``httpglass infer
    --pcap`` gives it}, [ids of planted connections that are missing or whose
    record tuples differ from the planted ones]).
    """
    pcap_ids, failed = {}, set()
    for i, raw in enumerate(load_pcap(path)):
        lc = planted.get(raw.five_tuple)
        if lc is None:
            continue
        pcap_ids[lc.connection_id] = f"{path}#{i}"
        conn = parse_tls_records(raw)
        if conn is None or record_tuples(conn) != record_tuples(lc.conn):
            failed.add(lc.connection_id)
    failed.update(lc.connection_id for lc in planted.values()
                  if lc.connection_id not in pcap_ids)
    return pcap_ids, sorted(failed, key=lambda cid: int(cid.split("-")[-1]))

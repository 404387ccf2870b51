"""Feature extraction layouts and values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httpglass.capture import Direction, PacketMeta, Packets
from httpglass.features import (ALP_FALLBACK_LEN, CONNECTION_LEN,
                                DIR_NO_RECORD, MALWARE_STANDARD_LEN,
                                SELECTED_SUITE_OTHER, STANDARD_LEN, TOR_LEN,
                                WINDOW_LEN, FeatureError, FeatureVocab,
                                alp_fallback_features, assemble_record_sample,
                                build_feature_vocab, enrich_malware_features,
                                extract_connection_features,
                                extract_malware_standard,
                                extract_window_features, feature_names,
                                malware_categorical_indices,
                                record_categorical_indices, record_table,
                                signed_record_lengths)
from httpglass.tlsparse import GREASE_COLLAPSED, HandshakeMeta

from helpers import synthetic_connection


def _conn(n=8):
    """n alternating-direction app-data records of distinct lengths."""
    return synthetic_connection(
        [(100 + 10 * i, i % 2) for i in range(n)], duration=2.5)


def test_window_width_and_center():
    conn = _conn(12)
    v = extract_window_features(conn, 6)
    assert v.shape == (WINDOW_LEN,)
    center = v[5 * 6:6 * 6]
    rec = conn.records[6]
    assert center.tolist() == [rec.pkt_count, rec.push_count, rec.avg_pkt_size,
                              rec.type_code, rec.length, float(rec.direction)]


def test_window_absent_slots():
    conn = _conn(3)
    v = extract_window_features(conn, 0)
    # slots -5..-1 are absent: all-zero except direction sentinel
    for slot in range(5):
        block = v[slot * 6:(slot + 1) * 6]
        assert block[:5].tolist() == [0, 0, 0, 0, 0]
        assert block[5] == DIR_NO_RECORD


def test_window_out_of_range():
    conn = _conn(3)
    with pytest.raises(FeatureError):
        extract_window_features(conn, 3)
    with pytest.raises(FeatureError):
        extract_window_features(conn, -1)


def test_signed_record_lengths():
    conn = synthetic_connection([(100, 0), (200, 1), (300, 0)])
    out = signed_record_lengths(conn, 5)
    assert out.tolist() == [100.0, -200.0, 300.0, 0.0, 0.0]


def test_connection_features_layout():
    conn = _conn(6)
    v = extract_connection_features(conn)
    assert v.shape == (CONNECTION_LEN,)
    # 3 client packets / 3 server packets, all PSH
    assert v[0] == 3 and v[1] == 3
    assert v[3] == 3 and v[4] == 3
    # mean wire payloads per direction (record length + 5-byte header)
    assert v[2] == pytest.approx(np.mean([105, 125, 145]))
    assert v[5] == pytest.approx(np.mean([115, 135, 155]))
    np.testing.assert_array_equal(v[6:12],
                                  [100, -110, 120, -130, 140, -150])
    assert np.all(v[12:106] == 0)
    assert v[106] == pytest.approx(2.5)
    assert v[107] == 6



@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(Direction)),
                          st.integers(0, 70000), st.booleans()), max_size=12))
def test_packet_statistics_match_a_filter_per_direction(packets):
    """The per-direction packet, PSH and mean-size features equal, byte for
    byte, a filter of the packets per direction and two sums over each,
    with no packets or one direction only among the cases."""
    conn = _conn(2)
    conn.raw.packets = Packets.from_rows(
        PacketMeta(0.1 * i, d, size, push, 0)
        for i, (d, size, push) in enumerate(packets))
    want = []
    for d in Direction:
        pkts = [p for p in conn.raw.packets if p.direction == d]
        want += [len(pkts), sum(1 for p in pkts if p.push_flag),
                 sum(p.payload_len for p in pkts) / len(pkts) if pkts else 0.0]
    assert extract_connection_features(conn)[:6].tobytes() == \
        np.array(want, dtype=np.float64).tobytes()

def test_assemble_modes():
    conn = _conn(4)
    std = assemble_record_sample(conn, 1, mode="standard")
    tor = assemble_record_sample(conn, 1, mode="tor")
    assert std.values.shape == (STANDARD_LEN,)
    assert tor.values.shape == (TOR_LEN,)
    np.testing.assert_array_equal(std.values[:WINDOW_LEN], tor.values)
    with pytest.raises(FeatureError):
        assemble_record_sample(conn, 1, mode="exotic")


def test_categorical_indices():
    assert record_categorical_indices() == \
        frozenset(s * 6 + k for s in range(11) for k in (3, 5))
    assert malware_categorical_indices() == frozenset({MALWARE_STANDARD_LEN - 1})


def _vocab_conn(suites, exts, selected=0x1301):
    hs = HandshakeMeta(offered_cipher_suites=list(suites),
                       advertised_extensions=list(exts),
                       selected_cipher_suite=selected)
    return synthetic_connection([(100, 0), (200, 1)], handshake=hs)


def test_build_feature_vocab_ranking():
    corpus = [_vocab_conn([1, 2], [10]), _vocab_conn([2], [10, 11]),
              _vocab_conn([2, 3], [11])]
    vocab = build_feature_vocab(corpus)
    assert vocab.top_cipher_suites[0] == 2        # offered by 3 connections
    assert set(vocab.top_cipher_suites[1:3]) == {1, 3}
    assert set(vocab.top_extensions[:2]) == {10, 11}
    # padded to fixed sizes with codes outside the 16-bit space
    assert len(vocab.top_cipher_suites) == 100
    assert len(vocab.top_extensions) == 25
    assert all(c > 0xFFFF for c in vocab.top_cipher_suites[3:])


def test_build_feature_vocab_empty():
    with pytest.raises(FeatureError):
        build_feature_vocab([])


def test_malware_standard_vector():
    vocab = build_feature_vocab([_vocab_conn([1, 2], [10, 11])])
    conn = _vocab_conn([2], [11], selected=2)
    v = extract_malware_standard(conn, vocab)
    assert v.shape == (MALWARE_STANDARD_LEN,)
    suites = v[CONNECTION_LEN:CONNECTION_LEN + 100]
    exts = v[CONNECTION_LEN + 100:CONNECTION_LEN + 125]
    pos_2 = vocab.top_cipher_suites.index(2)
    pos_11 = vocab.top_extensions.index(11)
    assert suites[pos_2] == 1.0 and suites.sum() == 1.0
    assert exts[pos_11] == 1.0 and exts.sum() == 1.0
    assert v[-1] == 2.0


def test_malware_selected_suite_fallback():
    vocab = build_feature_vocab([_vocab_conn([1], [10])])
    conn = _vocab_conn([1], [10], selected=0xBEEF)
    assert extract_malware_standard(conn, vocab)[-1] == SELECTED_SUITE_OTHER


def test_malware_grease_extension_indicator():
    vocab = build_feature_vocab([_vocab_conn([1], [GREASE_COLLAPSED, 10])])
    # the client advertised a raw GREASE value; it must light the collapsed bit
    conn = _vocab_conn([1], [0x2A2A])
    v = extract_malware_standard(conn, vocab)
    pos = vocab.top_extensions.index(GREASE_COLLAPSED)
    assert v[CONNECTION_LEN + 100 + pos] == 1.0


def test_enrich_width():
    vocab = build_feature_vocab([_vocab_conn([1], [10])])
    std = extract_malware_standard(_vocab_conn([1], [10]), vocab)
    enriched = enrich_malware_features(std, np.ones(58))
    assert enriched.shape == (MALWARE_STANDARD_LEN + 58,)
    with pytest.raises(FeatureError):
        enrich_malware_features(std[:-1], np.ones(58))


def test_alp_fallback_features():
    conn = synthetic_connection([(50, 0), (60, 1)])
    v = alp_fallback_features(conn)
    assert v.shape == (ALP_FALLBACK_LEN,)
    assert v[0] == 50 and v[1] == -60 and np.all(v[2:] == 0)


def test_feature_names_match_widths():
    vocab = build_feature_vocab([_vocab_conn([1], [10])])
    assert len(feature_names("record-v1-standard")) == STANDARD_LEN
    assert len(feature_names("record-v1-tor")) == TOR_LEN
    assert len(feature_names("malware-v1-standard", vocab)) == MALWARE_STANDARD_LEN
    assert len(feature_names("alp-fallback-v1")) == ALP_FALLBACK_LEN


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=2000),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=30),
       st.data())
def test_window_slot_consistency(recs, data):
    """Every populated window slot reproduces that record's own metadata, and
    the record table holds exactly the per-record samples."""
    conn = synthetic_connection(recs)
    i = data.draw(st.integers(min_value=0, max_value=len(recs) - 1))
    v = extract_window_features(conn, i)
    for slot in range(11):
        j = i - 5 + slot
        block = v[slot * 6:(slot + 1) * 6]
        if 0 <= j < len(recs):
            r = conn.records[j]
            assert block.tolist() == [r.pkt_count, r.push_count,
                                      r.avg_pkt_size, r.type_code,
                                      r.length, float(r.direction)]
            assert block[4] == recs[j][0]
            assert block[5] == recs[j][1]
        else:
            assert block[5] == DIR_NO_RECORD
    for mode in ("standard", "tor"):
        table = record_table(conn, mode)
        assert table.shape[0] == len(recs)
        for k, row in enumerate(table):
            np.testing.assert_array_equal(
                row, assemble_record_sample(conn, k, mode).values)
    np.testing.assert_array_equal(record_table(conn)[:, -CONNECTION_LEN:],
                                  np.tile(extract_connection_features(conn),
                                          (len(recs), 1)))

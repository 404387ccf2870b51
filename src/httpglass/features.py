"""Fixed-length feature vectors from parsed TLS connections.

Per-record samples concatenate a sliding-window block (current record plus 5
records either side, 6 features each = 66) with a connection block (108).
Tor mode drops the connection block.  The malware feature set adds handshake
indicator features on top of the connection block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import HttpglassError
from .capture import Direction
from .tlsparse import Connection, GREASE_COLLAPSED, GREASE_CODES

WINDOW_RADIUS = 5
WINDOW_SLOTS = 2 * WINDOW_RADIUS + 1
PER_RECORD_FEATURES = 6
WINDOW_LEN = WINDOW_SLOTS * PER_RECORD_FEATURES  # 66

N_SIGNED_LENGTHS = 100
CONNECTION_LEN = 6 + N_SIGNED_LENGTHS + 1 + 1  # 108

STANDARD_LEN = WINDOW_LEN + CONNECTION_LEN  # 174
TOR_LEN = WINDOW_LEN  # 66

N_TOP_SUITES = 100
N_TOP_EXTENSIONS = 25
MALWARE_STANDARD_LEN = CONNECTION_LEN + N_TOP_SUITES + N_TOP_EXTENSIONS + 1  # 234

DIR_NO_RECORD = 2  # direction code for an absent window slot

# sentinel codes sit above the 16-bit space so they can never collide with
# real cipher-suite / extension codes
VOCAB_PAD_BASE = 0x10000
SELECTED_SUITE_OTHER = 0x1FFFF

SCHEMA_STANDARD = "record-v1-standard"
SCHEMA_TOR = "record-v1-tor"
SCHEMA_MALWARE_STANDARD = "malware-v1-standard"
SCHEMA_ALP_FALLBACK = "alp-fallback-v1"

# each feature mode's record schema id and base width
MODES = {"standard": (SCHEMA_STANDARD, STANDARD_LEN),
         "tor": (SCHEMA_TOR, TOR_LEN)}

ALP_FALLBACK_LEN = 20


class FeatureError(HttpglassError):
    pass


@dataclass(frozen=True)
class RecordFeatureVector:
    values: np.ndarray
    schema_id: str


@dataclass(frozen=True)
class FeatureVocab:
    """Frequency-ranked handshake vocabulary learned from a training corpus."""

    top_cipher_suites: tuple[int, ...]
    top_extensions: tuple[int, ...]

    def __post_init__(self):
        if len(self.top_cipher_suites) != N_TOP_SUITES:
            raise FeatureError("vocab must hold exactly 100 cipher suites")
        if len(self.top_extensions) != N_TOP_EXTENSIONS:
            raise FeatureError("vocab must hold exactly 25 extensions")


# the record fields of a window slot, in slot order
_SLOT_FIELDS = ("pkt_count", "push_count", "avg_pkt_size", "type_code",
                "length", "direction")


def _padded_slots(conn: Connection, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 6) slot features for records lo .. hi-1; absent records pad."""
    recs = np.asarray(conn.records)  # a plain array reads fields faster
    out = np.zeros((hi - lo, PER_RECORD_FEATURES))
    out[:, -1] = DIR_NO_RECORD
    a, b = max(lo, 0), min(hi, len(recs))
    for j, name in enumerate(_SLOT_FIELDS):
        out[a - lo:b - lo, j] = recs[name][a:b]
    return out


def extract_window_features(conn: Connection, i: int) -> np.ndarray:
    """66 features for record i: 6 per slot over slots i-5 .. i+5."""
    if not 0 <= i < len(conn.records):
        raise FeatureError(f"record index {i} out of range")
    return _padded_slots(conn, i - WINDOW_RADIUS, i + WINDOW_RADIUS + 1).ravel()


def signed_record_lengths(conn: Connection, n: int) -> np.ndarray:
    """Sizes of the first n records; server-sent records are negative."""
    recs = np.asarray(conn.records)[:n]
    out = np.zeros(n, dtype=np.float64)
    out[:len(recs)] = np.where(recs["direction"] == Direction.SERVER_TO_CLIENT,
                               -1.0, 1.0) * recs["length"]
    return out


def extract_connection_features(conn: Connection) -> np.ndarray:
    """108 connection-level features.

    Layout: per-direction packet count / PUSH count / mean payload size
    (client then server), signed lengths of the first 100 records
    (zero-padded), duration, and total TLS record count.
    """
    out = np.zeros(CONNECTION_LEN, dtype=np.float64)
    # packets, PSH flags and payload bytes per direction (0 or 1), from the
    # packet columns; every sum is exact, so the mean is the integer ratio
    packets = conn.raw.packets.array
    direction = packets["direction"]
    k = np.bincount(direction, minlength=2)
    out[0:6:3] = k
    out[1:6:3] = np.bincount(direction, packets["push_flag"], 2)
    np.divide(np.bincount(direction, packets["payload_len"], 2), k,
              out=out[2:6:3], where=k > 0)
    out[6:6 + N_SIGNED_LENGTHS] = signed_record_lengths(conn, N_SIGNED_LENGTHS)
    out[106] = conn.duration
    out[107] = len(conn.records)
    return out


def assemble_record_sample(conn: Connection, i: int, mode: str = "standard",
                           ) -> RecordFeatureVector:
    """Row i of ``record_table(conn, mode)``, built from its neighbours only."""
    if mode not in MODES:
        raise FeatureError(f"unknown mode {mode!r}")
    values = extract_window_features(conn, i)
    if mode == "standard":
        values = np.concatenate([values, extract_connection_features(conn)])
    return RecordFeatureVector(values, MODES[mode][0])


def record_table(conn: Connection, mode: str = "standard") -> np.ndarray:
    """Every record's sample as one (records, width) array, built once.

    Window columns come from one padded slot array, slot offset k of record i
    being padded row i + k; the connection block is computed once and repeated
    on every row (standard mode).
    """
    if mode not in MODES:
        raise FeatureError(f"unknown mode {mode!r}")
    n = len(conn.records)
    slots = _padded_slots(conn, -WINDOW_RADIUS, n + WINDOW_RADIUS)
    blocks = [slots[k:k + n] for k in range(WINDOW_SLOTS)]
    if mode == "standard":
        blocks.append(np.broadcast_to(extract_connection_features(conn),
                                      (n, CONNECTION_LEN)))
    return np.concatenate(blocks, axis=1)


def record_categorical_indices() -> frozenset[int]:
    """Positions of categorical features (type_code, direction) per window slot."""
    idxs = []
    for slot in range(WINDOW_SLOTS):
        idxs.append(slot * PER_RECORD_FEATURES + 3)
        idxs.append(slot * PER_RECORD_FEATURES + 5)
    return frozenset(idxs)


def malware_categorical_indices() -> frozenset[int]:
    return frozenset({MALWARE_STANDARD_LEN - 1})


def _ranked(counter: dict[int, int], size: int) -> tuple[int, ...]:
    ranked = sorted(counter, key=lambda c: (-counter[c], c))[:size]
    while len(ranked) < size:
        ranked.append(VOCAB_PAD_BASE + len(ranked))
    return tuple(ranked)


def build_feature_vocab(corpus: list[Connection]) -> FeatureVocab:
    """Rank cipher suites / extensions by the number of connections offering them."""
    if not corpus:
        raise FeatureError("cannot build a vocabulary from an empty corpus")
    suite_counts: dict[int, int] = {}
    ext_counts: dict[int, int] = {}
    for conn in corpus:
        for s in set(conn.handshake.offered_cipher_suites):
            suite_counts[s] = suite_counts.get(s, 0) + 1
        for e in set(conn.handshake.advertised_extensions):
            ext_counts[e] = ext_counts.get(e, 0) + 1
    return FeatureVocab(_ranked(suite_counts, N_TOP_SUITES),
                        _ranked(ext_counts, N_TOP_EXTENSIONS))


def extract_malware_standard(conn: Connection, vocab: FeatureVocab) -> np.ndarray:
    """234-feature standard malware vector: connection block + handshake features."""
    hs = conn.handshake
    offered = set(hs.offered_cipher_suites)
    if any(s in GREASE_CODES for s in offered):
        offered.add(GREASE_COLLAPSED)
    exts = set(hs.advertised_extensions)
    if any(e in GREASE_CODES for e in exts):
        exts.add(GREASE_COLLAPSED)
    suite_ind = [1.0 if s in offered else 0.0 for s in vocab.top_cipher_suites]
    ext_ind = [1.0 if e in exts else 0.0 for e in vocab.top_extensions]
    selected = hs.selected_cipher_suite
    if selected is None or selected not in vocab.top_cipher_suites:
        selected = SELECTED_SUITE_OTHER
    return np.concatenate([
        extract_connection_features(conn),
        np.asarray(suite_ind), np.asarray(ext_ind),
        np.asarray([float(selected)]),
    ])


def enrich_malware_features(standard: np.ndarray, inferred_summary: np.ndarray,
                            ) -> np.ndarray:
    """Append the connection-level sums of predicted indicator vectors."""
    if standard.shape[0] != MALWARE_STANDARD_LEN:
        raise FeatureError("standard vector has the wrong width")
    return np.concatenate([standard, np.asarray(inferred_summary, dtype=np.float64)])


def alp_fallback_features(conn: Connection) -> np.ndarray:
    """Signed lengths of the first 20 records (the ALPN-absent fallback input)."""
    return signed_record_lengths(conn, ALP_FALLBACK_LEN)


def window_feature_names() -> list[str]:
    names = []
    for j in range(-WINDOW_RADIUS, WINDOW_RADIUS + 1):
        tag = f"rec[{j:+d}]" if j else "rec[0]"
        for f in ("pkt_count", "push_count", "avg_pkt_size", "type_code",
                  "length", "direction"):
            names.append(f"{tag}.{f}")
    return names


def connection_feature_names() -> list[str]:
    names = ["out_packets", "out_push", "out_mean_pkt_size",
             "in_packets", "in_push", "in_mean_pkt_size"]
    names += [f"record_length[{k}]" for k in range(N_SIGNED_LENGTHS)]
    names += ["duration", "record_count"]
    return names


def feature_names(schema_id: str, vocab: FeatureVocab | None = None) -> list[str]:
    if schema_id == SCHEMA_TOR:
        return window_feature_names()
    if schema_id == SCHEMA_STANDARD:
        return window_feature_names() + connection_feature_names()
    if schema_id == SCHEMA_ALP_FALLBACK:
        return [f"record_length[{k}]" for k in range(ALP_FALLBACK_LEN)]
    if schema_id == SCHEMA_MALWARE_STANDARD:
        names = connection_feature_names()
        if vocab is not None:
            names += [f"offered_suite[{s:#06x}]" for s in vocab.top_cipher_suites]
            names += [f"extension[{e:#06x}]" for e in vocab.top_extensions]
        else:
            names += [f"offered_suite[{k}]" for k in range(N_TOP_SUITES)]
            names += [f"extension[{k}]" for k in range(N_TOP_EXTENSIONS)]
        names.append("selected_suite")
        return names
    raise FeatureError(f"unknown schema {schema_id!r}")

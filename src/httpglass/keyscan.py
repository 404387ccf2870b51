"""Memory-dump scanning for TLS master secrets and Tor AES keys.

Five byte-pattern profiles locate key material by the allocation context each
TLS library leaves around it.  Patterns are byte regexes with lookahead
capture: the consumed anchor is a few bytes, the key material is captured
inside the lookahead, so overlapping occurrences are all reported.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import HttpglassError

WINDOW_SIZE = 4 * 1024 * 1024
WINDOW_OVERLAP = 256  # >= the largest pattern span (76 bytes)

_F = re.DOTALL

# material_groups: capture group indices concatenated to form the key material
_PROFILES = {
    "boringssl": {
        "pattern": re.compile(
            rb"(\x02\x00|[\x00-\x03]\x03)\x00\x00"
            rb"(?=.{2}.{2}\x30\x00\x00\x00(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        "material_groups": (2,),
        "material_len": 48,
        "span": 64,
        # per-offset random-match probability: anchor bytes and fixed
        # lookahead bytes multiplied out
        "fp_per_offset": 165.0 / 2.0 ** 96,
    },
    "nss": {
        "pattern": re.compile(
            rb"\x11\x00\x00\x00"
            rb"(?=(.{8}\x30\x00\x00\x00|.{4}.{8}\x30\x00\x00\x00.{4})(.{48}))",
            _F),
        "material_groups": (2,),
        "material_len": 48,
        "span": 72,
        "fp_per_offset": 2.0 / 2.0 ** 64,
    },
    "openssl": {
        "pattern": re.compile(
            rb"(\x02\x00|[\x00-\x03]\x03)\x00\x00"
            rb"(?=.{4}.{8}\x30\x00\x00\x00(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        "material_groups": (2,),
        "material_len": 48,
        "span": 72,
        "fp_per_offset": 165.0 / 2.0 ** 96,
    },
    "schannel": {
        "pattern": re.compile(
            rb"\x35\x6c\x73\x73"
            rb"(?=(\x02\x00|[\x00-\x03]\x03)\x00\x00(.{4}.{8}.{4})(.{48}))", _F),
        "material_groups": (3,),
        "material_len": 48,
        "span": 76,
        "fp_per_offset": 5.0 / 2.0 ** 64,
    },
    "tor_aes": {
        "pattern": re.compile(
            rb"\x11\x01\x00\x00\x00\x00\x00\x00(?=(.{16})(.{16}))", _F),
        "material_groups": (1, 2),
        "material_len": 32,
        "span": 40,
        "fp_per_offset": 1.0 / 2.0 ** 64,
    },
}

PROFILE_NAMES = tuple(sorted(_PROFILES))


class KeyscanError(HttpglassError):
    pass


@dataclass(frozen=True)
class KeyHit:
    profile: str
    offset: int  # byte offset of the anchor match
    material: bytes

    def __post_init__(self):
        expected = _PROFILES[self.profile]["material_len"]
        if len(self.material) != expected:
            raise KeyscanError(
                f"{self.profile} material must be {expected} bytes")


def _check_profiles(profiles) -> tuple[str, ...]:
    if profiles is None:
        return PROFILE_NAMES
    out = tuple(sorted(set(profiles)))
    for p in out:
        if p not in _PROFILES:
            raise KeyscanError(f"unknown profile {p!r}")
    return out


def scan(buffer: bytes, profiles=None, base_offset: int = 0) -> list[KeyHit]:
    """All pattern hits in a buffer, ordered by (offset, profile).

    Every occurrence is reported, including matches whose anchors overlap:
    the search restarts one byte past each anchor start.
    """
    hits = []
    for name in _check_profiles(profiles):
        spec = _PROFILES[name]
        pos = 0
        while True:
            m = spec["pattern"].search(buffer, pos)
            if m is None:
                break
            material = b"".join(m.group(g) for g in spec["material_groups"])
            hits.append(KeyHit(profile=name, offset=base_offset + m.start(),
                               material=material))
            pos = m.start() + 1
    hits.sort(key=lambda h: (h.offset, h.profile))
    return hits


def scan_windows(read_chunk, profiles=None, window_size: int = WINDOW_SIZE,
                 overlap: int = WINDOW_OVERLAP) -> list[KeyHit]:
    """Scan a byte source window by window with overlap.

    ``read_chunk(offset, size)`` returns up to ``size`` bytes at ``offset``.
    Hits are deduplicated by (offset, profile), so the overlap region cannot
    double-report.
    """
    if overlap >= window_size:
        raise KeyscanError("overlap must be smaller than the window size")
    seen = set()
    hits = []
    offset = 0
    while True:
        chunk = read_chunk(offset, window_size)
        if not chunk:
            break
        for hit in scan(chunk, profiles, base_offset=offset):
            key = (hit.offset, hit.profile)
            if key not in seen:
                seen.add(key)
                hits.append(hit)
        if len(chunk) < window_size:
            break
        offset += window_size - overlap
    hits.sort(key=lambda h: (h.offset, h.profile))
    return hits


def scan_file(path: str, profiles=None, window_size: int = WINDOW_SIZE,
              overlap: int = WINDOW_OVERLAP) -> list[KeyHit]:
    with open(path, "rb") as fh:
        def read_chunk(offset, size):
            fh.seek(offset)
            return fh.read(size)
        return scan_windows(read_chunk, profiles=profiles,
                            window_size=window_size, overlap=overlap)


def emit_keys(hits: list[KeyHit]) -> str:
    """Key-file text: one `<profile> <hex-material>` line per hit."""
    return "".join(f"{h.profile} {h.material.hex()}\n" for h in hits)


def emit_nss_keylog(hits: list[KeyHit], client_random: bytes) -> str:
    """NSS key-log lines for master-secret hits, given an external client_random."""
    if len(client_random) != 32:
        raise KeyscanError("client_random must be 32 bytes")
    lines = []
    for h in hits:
        if _PROFILES[h.profile]["material_len"] == 48:
            lines.append(f"CLIENT_RANDOM {client_random.hex()} "
                         f"{h.material.hex()}\n")
    return "".join(lines)


def expected_false_positives(profile: str, n_bytes: int) -> float:
    """Expected random-match count on n uniformly random bytes."""
    if profile not in _PROFILES:
        raise KeyscanError(f"unknown profile {profile!r}")
    return _PROFILES[profile]["fp_per_offset"] * max(0, n_bytes)


def pattern_span(profile: str) -> int:
    """Bytes from anchor start to the end of the lookahead context."""
    return _PROFILES[profile]["span"]


def build_fixture(profile: str, material: bytes, rng=None) -> bytes:
    """A minimal byte block that the profile's pattern matches, with the
    given key material planted (testing/diagnostics support)."""
    spec = _PROFILES[profile]
    if len(material) != spec["material_len"]:
        raise KeyscanError("wrong material length")
    import numpy as np
    rng = rng if rng is not None else np.random.default_rng(0)

    def fill(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    if profile == "boringssl":
        return (b"\x03\x03\x00\x00" + fill(2) + fill(2) + b"\x30\x00\x00\x00"
                + material + b"\x20\x00\x00\x00")
    if profile == "openssl":
        return (b"\x03\x03\x00\x00" + fill(4) + fill(8) + b"\x30\x00\x00\x00"
                + material + b"\x20\x00\x00\x00")
    if profile == "nss":
        return (b"\x11\x00\x00\x00" + fill(8) + b"\x30\x00\x00\x00" + material)
    if profile == "schannel":
        return (b"\x35\x6c\x73\x73" + b"\x02\x00\x00\x00"
                + fill(4) + fill(8) + fill(4) + material)
    if profile == "tor_aes":
        return b"\x11\x01\x00\x00\x00\x00\x00\x00" + material
    raise KeyscanError(f"unknown profile {profile!r}")

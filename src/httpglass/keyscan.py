"""Memory-dump scanning for TLS master secrets and Tor AES keys.

Five byte-pattern profiles locate key material by the allocation context each
TLS library leaves around it.  Each pattern starts with, and consumes only,
its profile's fixed literal, so ``re`` runs its fast literal search; a
fixed-width lookbehind checks the bytes before the literal and a lookahead
captures the key material.  No literal overlaps itself, so one ``finditer``
reports every anchor, and a file is scanned in one pass over a memory map.
"""
from __future__ import annotations

import mmap
import re
from dataclasses import dataclass

from . import HttpglassError

_F = re.DOTALL
_VERSION = rb"(?:\x02\x00|[\x00-\x03]\x03)\x00\x00"
_LEN48 = rb"\x30\x00\x00\x00"

# pattern group 1 is the key material; lead is the distance from the anchor
# to the consumed literal, and span from the anchor to the end of the context
_PROFILES = {
    "boringssl": {
        "pattern": re.compile(
            _LEN48 + rb"(?<=" + _VERSION + rb".{4}" + _LEN48 + rb")"
            rb"(?=(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        "lead": 8,
        "material_len": 48,
        "span": 64,
        # per-offset random-match probability: anchor bytes and fixed
        # lookahead bytes multiplied out
        "fp_per_offset": 165.0 / 2.0 ** 96,
    },
    "nss": {
        "pattern": re.compile(
            rb"\x11\x00\x00\x00(?=(?:.{8}" + _LEN48 + rb"|.{12}" + _LEN48
            + rb".{4})(.{48}))", _F),
        "lead": 0,
        "material_len": 48,
        "span": 72,
        "fp_per_offset": 2.0 / 2.0 ** 64,
    },
    "openssl": {
        "pattern": re.compile(
            _LEN48 + rb"(?<=" + _VERSION + rb".{12}" + _LEN48 + rb")"
            rb"(?=(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        "lead": 16,
        "material_len": 48,
        "span": 72,
        "fp_per_offset": 165.0 / 2.0 ** 96,
    },
    "schannel": {
        "pattern": re.compile(
            rb"\x35\x6c\x73\x73(?=" + _VERSION + rb".{16}(.{48}))", _F),
        "lead": 0,
        "material_len": 48,
        "span": 76,
        "fp_per_offset": 5.0 / 2.0 ** 64,
    },
    "tor_aes": {
        "pattern": re.compile(
            rb"\x11\x01\x00\x00\x00\x00\x00\x00(?=(.{32}))", _F),
        "lead": 0,
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


def scan(buffer, profiles=None) -> list[KeyHit]:
    """Every anchor in a bytes-like buffer, ordered by (offset, profile)."""
    hits = []
    for name in _check_profiles(profiles):
        spec = _PROFILES[name]
        hits += [KeyHit(name, m.start() - spec["lead"], m.group(1))
                 for m in spec["pattern"].finditer(buffer)]
    hits.sort(key=lambda h: (h.offset, h.profile))
    return hits


def scan_file(path: str, profiles=None) -> list[KeyHit]:
    """Scan a file in one pass over a read-only memory map."""
    with open(path, "rb") as fh:
        try:
            dump = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # mmap refuses an empty file
            return []
        with dump:
            return scan(dump, profiles)


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

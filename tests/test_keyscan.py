"""Key-material memory scanning."""

import re

import numpy as np
import pytest

from httpglass.keyscan import (PROFILE_NAMES, KeyHit, KeyscanError,
                               build_fixture, emit_keys, emit_nss_keylog,
                               expected_false_positives, pattern_span, scan,
                               scan_file)

SECRET48 = bytes(range(48))
SECRET32 = bytes(range(32))

# The reference: each profile's pattern anchored at the start of its span,
# tried at every offset, with the capture groups that form the material.
_F = re.DOTALL
REFERENCE = {
    "boringssl": (re.compile(
        rb"(\x02\x00|[\x00-\x03]\x03)\x00\x00"
        rb"(?=.{2}.{2}\x30\x00\x00\x00(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        (2,)),
    "nss": (re.compile(
        rb"\x11\x00\x00\x00"
        rb"(?=(.{8}\x30\x00\x00\x00|.{4}.{8}\x30\x00\x00\x00.{4})(.{48}))",
        _F), (2,)),
    "openssl": (re.compile(
        rb"(\x02\x00|[\x00-\x03]\x03)\x00\x00"
        rb"(?=.{4}.{8}\x30\x00\x00\x00(.{48})[\x00-\x20]\x00\x00\x00)", _F),
        (2,)),
    "schannel": (re.compile(
        rb"\x35\x6c\x73\x73"
        rb"(?=(\x02\x00|[\x00-\x03]\x03)\x00\x00(.{4}.{8}.{4})(.{48}))", _F),
        (3,)),
    "tor_aes": (re.compile(
        rb"\x11\x01\x00\x00\x00\x00\x00\x00(?=(.{16})(.{16}))", _F),
        (1, 2)),
}

# the bytes of the five literals and of the version and length fields, and
# the first byte past each byte class (04, 21)
DENSE = bytes([0x00, 0x01, 0x02, 0x03, 0x04, 0x10, 0x11, 0x20, 0x21, 0x30,
               0x35, 0x6c, 0x73])
# the profiles' fixed 4-byte fields and their near misses: buffers made
# mostly of them hold many anchors, overlapping ones among them
WORDS = [b"\x02\x00\x00\x00", b"\x03\x03\x00\x00", b"\x04\x03\x00\x00",
         b"\x30\x00\x00\x00", b"\x20\x00\x00\x00", b"\x21\x00\x00\x00",
         b"\x11\x00\x00\x00", b"\x11\x01\x00\x00", b"\x00\x00\x00\x00",
         b"\x35\x6c\x73\x73"]


def _material(profile):
    return SECRET32 if profile == "tor_aes" else SECRET48


def test_profile_inventory():
    assert PROFILE_NAMES == ("boringssl", "nss", "openssl", "schannel",
                             "tor_aes")


def test_openssl_paper_memory_layout():
    """The documented OpenSSL session layout: SSLv3-style version field,
    4 pad bytes, 8-byte key_arg area, int 48 as a 4-byte little-endian
    length, the master secret, then a session-id length <= 32."""
    block = (b"\x03\x03\x00\x00"             # version (0x0303), padding
             + b"\xAA\xBB\xCC\xDD"           # 4 struct bytes
             + b"\x00" * 8                   # key_arg
             + b"\x30\x00\x00\x00"           # master_key_length = 48
             + SECRET48
             + b"\x20\x00\x00\x00")          # session_id_length = 32
    buf = b"\xEE" * 100 + block + b"\xEE" * 100
    hits = scan(buf, profiles=["openssl"])
    assert len(hits) == 1
    assert hits[0].offset == 100
    assert hits[0].material == SECRET48


def test_openssl_version_variants():
    for version in (b"\x02\x00", b"\x00\x03", b"\x01\x03", b"\x03\x03"):
        block = (version + b"\x00\x00" + b"\x00" * 12 + b"\x30\x00\x00\x00"
                 + SECRET48 + b"\x00\x00\x00\x00")
        assert scan(block, profiles=["openssl"])
    # a version field outside the recognized set must not match
    block = (b"\x07\x07\x00\x00" + b"\x00" * 12 + b"\x30\x00\x00\x00"
             + SECRET48 + b"\x00\x00\x00\x00")
    assert scan(block, profiles=["openssl"]) == []


def test_session_id_length_gate():
    good = (b"\x03\x03\x00\x00" + b"\x00" * 12 + b"\x30\x00\x00\x00"
            + SECRET48 + b"\x20\x00\x00\x00")
    bad = (b"\x03\x03\x00\x00" + b"\x00" * 12 + b"\x30\x00\x00\x00"
           + SECRET48 + b"\x21\x00\x00\x00")  # 33 > max session id
    assert scan(good, profiles=["openssl"])
    assert scan(bad, profiles=["openssl"]) == []


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_fixture_recall(profile):
    rng = np.random.default_rng(1)
    fixture = build_fixture(profile, _material(profile), rng)
    buf = b"\x55" * 37 + fixture + b"\x55" * 37
    hits = scan(buf, profiles=[profile])
    assert [h.material for h in hits] == [_material(profile)]
    assert hits[0].offset == 37


def test_nss_both_layouts():
    variant_a = b"\x11\x00\x00\x00" + b"\x01" * 8 + b"\x30\x00\x00\x00" + SECRET48
    variant_b = (b"\x11\x00\x00\x00" + b"\x01" * 4 + b"\x02" * 8
                 + b"\x30\x00\x00\x00" + b"\x03" * 4 + SECRET48)
    assert scan(variant_a, profiles=["nss"])[0].material == SECRET48
    assert scan(variant_b, profiles=["nss"])[0].material == SECRET48


def test_tor_aes_concatenated_groups():
    block = b"\x11\x01\x00\x00\x00\x00\x00\x00" + SECRET32
    hits = scan(block, profiles=["tor_aes"])
    assert hits[0].material == SECRET32


def test_overlapping_spans_both_reported():
    """Two interleaved OpenSSL layouts whose 72-byte spans overlap must both
    be reported with their own key material."""
    secret_a = bytes(range(100, 144))
    buf = (b"\x02\x00\x00\x00"          # anchor at offset 0
           + b"\x02\x00\x00\x00"        # anchor at offset 4
           + b"\x00" * 8                # shared free bytes
           + b"\x30\x00\x00\x00"        # length field for anchor 0
           + b"\x30\x00\x00\x00"        # length field for anchor 4
           + secret_a                   # 44 secret bytes
           + b"\x10\x00\x00\x00"        # tail for anchor 0 (inside material 4)
           + b"\x08\x00\x00\x00")       # tail for anchor 4
    hits = scan(buf, profiles=["openssl"])
    offs = {h.offset: h.material for h in hits}
    assert set(offs) == {0, 4}
    assert offs[0] == b"\x30\x00\x00\x00" + secret_a
    assert offs[4] == secret_a + b"\x10\x00\x00\x00"


def test_scan_file_matches_scan(tmp_path):
    rng = np.random.default_rng(4)
    parts = []
    for profile in PROFILE_NAMES:
        parts.append(rng.integers(0, 256, 200, dtype=np.uint8).tobytes())
        parts.append(build_fixture(profile, _material(profile), rng))
    data = b"".join(parts)
    path = tmp_path / "dump.bin"
    path.write_bytes(data)
    from_file = scan_file(str(path))
    direct = scan(data)
    planted = {(h.offset, h.profile, h.material) for h in direct}
    assert {(h.offset, h.profile, h.material) for h in from_file} == planted
    # every planted secret is among the hits
    for profile in PROFILE_NAMES:
        assert any(h.profile == profile and h.material == _material(profile)
                   for h in from_file)


def test_emit_keys_format():
    hits = [KeyHit("tor_aes", 0, SECRET32), KeyHit("openssl", 8, SECRET48)]
    text = emit_keys(hits)
    assert text == (f"tor_aes {SECRET32.hex()}\n"
                    f"openssl {SECRET48.hex()}\n")


def test_emit_nss_keylog_only_master_secrets():
    hits = [KeyHit("openssl", 0, SECRET48), KeyHit("tor_aes", 8, SECRET32)]
    cr = bytes(32)
    text = emit_nss_keylog(hits, cr)
    lines = text.strip().splitlines()
    assert lines == [f"CLIENT_RANDOM {cr.hex()} {SECRET48.hex()}"]
    with pytest.raises(KeyscanError):
        emit_nss_keylog(hits, b"\x00" * 16)


def test_key_hit_material_validation():
    with pytest.raises(KeyscanError):
        KeyHit("openssl", 0, b"\x00" * 47)
    with pytest.raises(KeyscanError):
        KeyHit("tor_aes", 0, b"\x00" * 48)


def test_expected_false_positive_rates():
    mib = 2 ** 20
    assert expected_false_positives("openssl", mib) == \
        pytest.approx(165.0 * mib / 2 ** 96)
    assert expected_false_positives("nss", mib) == \
        pytest.approx(2.0 * mib / 2 ** 64)
    assert expected_false_positives("schannel", mib) == \
        pytest.approx(5.0 * mib / 2 ** 64)
    assert expected_false_positives("tor_aes", mib) == \
        pytest.approx(mib / 2 ** 64)
    with pytest.raises(KeyscanError):
        expected_false_positives("ghost", 1)


def test_pattern_spans():
    assert pattern_span("boringssl") == 64
    assert pattern_span("nss") == 72
    assert pattern_span("openssl") == 72
    assert pattern_span("schannel") == 76
    assert pattern_span("tor_aes") == 40


def test_nul_bytes_do_not_terminate_matching():
    """Patterns must match across embedded NULs (memory dumps are full of
    them); DOTALL byte regexes handle this."""
    fixture = build_fixture("nss", SECRET48, np.random.default_rng(5))
    buf = b"\x00" * 64 + fixture + b"\x00" * 64
    assert scan(buf, profiles=["nss"])


def test_unknown_profile_rejected():
    with pytest.raises(KeyscanError):
        scan(b"", profiles=["made_up"])


def _reference_hits(buf, profile):
    pattern, groups = REFERENCE[profile]
    return [(o, b"".join(m.group(g) for g in groups))
            for o in range(len(buf))
            for m in [pattern.match(buf, o)] if m]


def test_scan_equals_the_per_offset_reference():
    """On dense buffers with overlapping plants, every profile reports exactly
    the offsets, and the material, where its reference pattern matches."""
    rng = np.random.default_rng(11)
    dense = np.frombuffer(DENSE, dtype=np.uint8)
    for _ in range(300):
        n_words = int(rng.integers(15, 80))
        buf = bytearray(rng.choice(dense, 4 * n_words))
        for k in np.flatnonzero(rng.random(n_words) < 0.9):
            buf[4 * k:4 * k + 4] = WORDS[rng.integers(len(WORDS))]
        start = int(rng.integers(0, 40))
        for _ in range(int(rng.integers(0, 4))):
            profile = PROFILE_NAMES[rng.integers(len(PROFILE_NAMES))]
            material = rng.choice(dense, len(_material(profile))).tobytes()
            fixture = build_fixture(profile, material, rng)
            buf[start:start + len(fixture)] = fixture
            start += int(rng.integers(1, 48))  # the next plant overlaps
        buf = bytes(buf)
        for profile in PROFILE_NAMES:
            assert [(h.offset, h.material)
                    for h in scan(buf, [profile])] == \
                _reference_hits(buf, profile)


def test_scan_file_of_an_empty_file(tmp_path):
    dump = tmp_path / "empty.bin"
    dump.write_bytes(b"")
    assert scan_file(str(dump)) == []


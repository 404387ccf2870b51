"""Classification-problem registry invariants."""

import pytest

from httpglass.registry import (ABSENT, OTHER, PRESENT, Kind, Layout,
                                ProblemSpec, Side, registry)


def test_canonical_order_http1():
    ids = [p.id for p in registry("http1")]
    assert ids == [
        "request.method", "request.content_type",
        "request.cookie", "request.referer", "request.origin",
        "response.status_code", "response.content_type", "response.server",
        "response.access_control_allow_origin", "response.via",
        "response.accept_ranges", "response.set_cookie",
    ]


def test_label_set_sizes():
    by_id_h1 = {p.id: p for p in registry("http1")}
    by_id_h2 = {p.id: p for p in registry("http2")}
    assert len(by_id_h1["request.method"].labels) == 5
    assert len(by_id_h2["request.method"].labels) == 4
    assert len(by_id_h1["response.status_code"].labels) == 10
    assert len(by_id_h2["response.status_code"].labels) == 9
    assert len(by_id_h1["response.content_type"].labels) == 9
    assert len(by_id_h2["response.content_type"].labels) == 10
    assert len(by_id_h1["response.server"].labels) == 18
    assert len(by_id_h2["response.server"].labels) == 25


def test_enhanced_length_defaults():
    assert Layout(registry("http1")).width == 58
    assert Layout(registry("http2")).width == 64
    assert Layout(registry("http1", include_etag=True)).width == 60
    assert Layout(registry("http2", include_etag=True)).width == 66


def test_binary_problems_use_absent_present():
    for proto in ("http1", "http2"):
        for p in registry(proto, include_etag=True):
            if p.kind == Kind.BINARY:
                assert p.labels == (ABSENT, PRESENT)


def test_sides():
    probs = registry("http1")
    client = [p.id for p in probs if p.side == Side.CLIENT]
    server = [p.id for p in probs if p.side == Side.SERVER]
    assert all(pid.startswith("request.") for pid in client)
    assert all(pid.startswith("response.") for pid in server)
    assert len(client) + len(server) == len(probs)


def test_etag_is_server_side_binary():
    probs = registry("http2", include_etag=True)
    etag = [p for p in probs if p.id == "response.etag"]
    assert len(etag) == 1
    assert etag[0].side == Side.SERVER and etag[0].kind == Kind.BINARY


def test_other_not_a_registry_label():
    for p in registry("http1", include_etag=True):
        assert OTHER not in p.labels


def test_invalid_protocol_rejected():
    with pytest.raises(ValueError):
        registry("spdy")


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec("x", Kind.BINARY, Side.CLIENT, ("yes", "no"), "http1")
    with pytest.raises(ValueError):
        ProblemSpec("x", Kind.MULTICLASS, Side.CLIENT, (), "http1")

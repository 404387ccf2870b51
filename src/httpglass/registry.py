"""Inference problem registry: label sets per protocol, and their indicator
layout.

Multiclass problems carry an explicit ordered label set; out-of-set ground
truth is trained as the reserved ``other`` class, which never contributes to
indicator vectors.  Binary problems model field presence.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

OTHER = "other"
ABSENT = "absent"
PRESENT = "present"


class Side(str, Enum):
    CLIENT = "client"
    SERVER = "server"


class Kind(str, Enum):
    MULTICLASS = "multiclass"
    BINARY = "binary"


@dataclass(frozen=True)
class ProblemSpec:
    id: str
    kind: Kind
    side: Side
    labels: tuple[str, ...]
    protocol: str  # "http1" | "http2"

    def __post_init__(self):
        if not self.labels:
            raise ValueError("label set must be non-empty")
        if self.kind == Kind.BINARY and self.labels != (ABSENT, PRESENT):
            raise ValueError("binary problems use exactly (absent, present)")


_METHOD_H1 = ("GET", "POST", "OPTIONS", "HEAD", "PUT")
_METHOD_H2 = ("GET", "POST", "OPTIONS", "HEAD")
_REQ_CONTENT_TYPE = ("json", "plain")
_STATUS_H1 = ("100", "200", "204", "206", "301", "302", "303", "304", "307", "404")
_STATUS_H2 = ("200", "204", "206", "301", "302", "303", "304", "307", "404")
_RESP_CONTENT_TYPE_H1 = ("html", "javascript", "image", "video", "css",
                         "octet", "json", "font", "plain")
_RESP_CONTENT_TYPE_H2 = _RESP_CONTENT_TYPE_H1 + ("protobuf",)
_SERVER_H1 = (
    "nginx-1.13", "nginx-1.12", "nginx-1.11", "nginx-1.10", "nginx-1.8",
    "nginx-1.7", "nginx-1.4", "nginx", "cloudflare-nginx", "openresty",
    "Apache", "Coyote/1.1", "AmazonS3", "NetDNA/2.2", "IIS-7.5", "IIS-8.5",
    "jetty-9.4", "jetty-9.0",
)
_SERVER_H2 = (
    "nginx-1.13", "nginx-1.12", "nginx-1.11", "nginx-1.10", "nginx-1.6",
    "nginx-1.4", "nginx-1.3", "nginx", "cloudflare-nginx", "Apache",
    "Coyote/1.1", "IIS/8.5", "Golfe2", "sffe", "cafe", "ESF", "GSE", "gws",
    "UploadServer", "Akamai", "Google", "Dreamlab", "Tengine", "AmazonS3",
    "NetDNA/2.2",
)

_BINARY = (ABSENT, PRESENT)

REQUEST_BINARY_IDS = ("request.cookie", "request.referer", "request.origin")
RESPONSE_BINARY_IDS = ("response.access_control_allow_origin", "response.via",
                       "response.accept_ranges", "response.set_cookie")


PROTOCOLS = ("http1", "http2")


def registry(protocol: str, include_etag: bool = False) -> list[ProblemSpec]:
    """Default registry for one protocol, in canonical order.

    ``include_etag`` adds the Etag presence problem as an extra response-side
    binary problem (grows the enhanced-feature block by 2).
    """
    if protocol == "http1":
        method, status = _METHOD_H1, _STATUS_H1
        resp_ct, server = _RESP_CONTENT_TYPE_H1, _SERVER_H1
    elif protocol == "http2":
        method, status = _METHOD_H2, _STATUS_H2
        resp_ct, server = _RESP_CONTENT_TYPE_H2, _SERVER_H2
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    problems = [
        ProblemSpec("request.method", Kind.MULTICLASS, Side.CLIENT, method, protocol),
        ProblemSpec("request.content_type", Kind.MULTICLASS, Side.CLIENT,
                    _REQ_CONTENT_TYPE, protocol),
    ]
    problems += [ProblemSpec(pid, Kind.BINARY, Side.CLIENT, _BINARY, protocol)
                 for pid in REQUEST_BINARY_IDS]
    problems += [
        ProblemSpec("response.status_code", Kind.MULTICLASS, Side.SERVER, status,
                    protocol),
        ProblemSpec("response.content_type", Kind.MULTICLASS, Side.SERVER, resp_ct,
                    protocol),
        ProblemSpec("response.server", Kind.MULTICLASS, Side.SERVER, server, protocol),
    ]
    problems += [ProblemSpec(pid, Kind.BINARY, Side.SERVER, _BINARY, protocol)
                 for pid in RESPONSE_BINARY_IDS]
    if include_etag:
        problems.append(ProblemSpec("response.etag", Kind.BINARY, Side.SERVER,
                                    _BINARY, protocol))
    ids = [p.id for p in problems]
    assert len(ids) == len(set(ids))
    return problems


class Layout:
    """A registry's indicator-block layout: each problem's labels take
    contiguous columns, in registry order.  The one map from labels to
    indicator columns, for training context, the enhanced passes, the
    malware enrichment and feature names."""

    def __init__(self, problems: list[ProblemSpec]):
        pairs = [(p.id, label) for p in problems for label in p.labels]
        self.width = len(pairs)
        self.column = {pair: k for k, pair in enumerate(pairs)}
        self.span = {p.id: (self.column[p.id, p.labels[0]],
                            self.column[p.id, p.labels[-1]] + 1)
                     for p in problems}

    def mask(self, pid: str) -> np.ndarray:
        """1 over problem ``pid``'s indicator span, 0 elsewhere."""
        vec = np.zeros(self.width, dtype=np.float64)
        vec[slice(*self.span[pid])] = 1.0
        return vec

    def vectors(self, labels: list[dict[str, str]]) -> np.ndarray:
        """One row of one-hot indicators per label dict; a label outside its
        problem's set (the ``other`` class) contributes zeros."""
        cells = [(i, col) for i, lab in enumerate(labels)
                 for col in map(self.column.get, lab.items())
                 if col is not None]
        vecs = np.zeros((len(labels), self.width), dtype=np.float64)
        vecs[[i for i, _ in cells], [col for _, col in cells]] = 1.0
        return vecs

    def names(self) -> list[str]:
        """Each column's feature name, in column order."""
        return [f"semantics[{pid}={label}]" for pid, label in self.column]

"""Wire protocol of the synthesis service (``repro.serve.protocol``).

A deliberately small HTTP/1.1 subset, stdlib-only, over asyncio
streams: one request per connection (every response carries
``Connection: close``), ``Content-Length`` bodies on the way in, plain
JSON or chunked JSON-lines (``application/x-ndjson``) on the way out.
The server's robustness envelope starts here — a malformed request
line, oversized body, or unparseable submission becomes a clean 4xx
with a JSON diagnostic, never an exception that could take a worker or
the accept loop down.

Submission schema (``POST /v1/synthesize``)::

    {
      "instance":   {"constraint_graph": ..., "library": ...},  # required
      "client":     "tenant-a",      # fair-scheduling key (default "anonymous")
      "name":       "my-instance",   # label in records (default request id)
      "deadline_s": 2.5,             # per-request budget; degrade-not-fail
      "stream":     false,           # chunked JSON-lines progress/incumbents
      "trace":      false,           # embed repro.obs metrics in the record
      "options":    {"max_arity": 3, "pruning": "lemmas", ...}
    }

``parse_submit`` validates shapes and vocabularies with dotted-path
diagnostics (mirroring :mod:`repro.io.json_io`); the deep instance
validation happens in the worker, where a malformed instance is
contained as a ``failed`` record instead of a refused request.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..core.synthesis import STRATEGIES, SynthesisOptions
from ..core.candidates import PruningLevel

__all__ = [
    "ProtocolError",
    "HttpRequest",
    "SubmitRequest",
    "read_request",
    "parse_submit",
    "response_bytes",
    "stream_header_bytes",
    "event_bytes",
    "STREAM_END",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: terminal chunk of a chunked JSON-lines response.
STREAM_END = b"0\r\n\r\n"


class ProtocolError(Exception):
    """A request the server refuses; maps to one HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class HttpRequest:
    """One parsed inbound request."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes

    def json_body(self) -> Dict[str, Any]:
        """The body as a JSON object, or a 400 :class:`ProtocolError`."""
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ProtocolError(400, f"request body must be a JSON object, got {type(doc).__name__}")
        return doc


async def read_request(reader: asyncio.StreamReader, max_body_bytes: int) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` (400/413) on anything malformed or
    oversized — the caller answers and closes, the server lives on.
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(400, f"request line too long: {exc}") from exc
    if not line.strip():
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, f"malformed request line: {line[:80]!r}")
    method, path = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise ProtocolError(400, f"header line too long: {exc}") from exc
        if raw in (b"\r\n", b"\n", b""):
            break
        text = raw.decode("latin-1", "replace")
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {text.strip()!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0:
        raise ProtocolError(400, f"bad Content-Length: {length}")
    if length > max_body_bytes:
        raise ProtocolError(413, f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, f"request body truncated at {len(exc.partial)}/{length} bytes") from exc
    return HttpRequest(method=method, path=path, headers=headers, body=body)


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------


def _head(status: int, headers: Dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}"]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_bytes(
    status: int, doc: Any, extra_headers: Optional[Dict[str, str]] = None
) -> bytes:
    """One complete JSON response, ``Connection: close``."""
    body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    return _head(status, headers) + body


def stream_header_bytes() -> bytes:
    """Header of a chunked JSON-lines (progress-streaming) response."""
    return _head(
        200,
        {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
            "Connection": "close",
        },
    )


def event_bytes(doc: Any) -> bytes:
    """One streamed event: a JSON line framed as one HTTP chunk."""
    payload = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    return f"{len(payload):x}\r\n".encode("latin-1") + payload + b"\r\n"


def retry_after_headers(retry_after_s: float) -> Dict[str, str]:
    """A ``Retry-After`` header (integer seconds, rounded up, >= 1)."""
    return {"Retry-After": str(max(1, math.ceil(retry_after_s)))}


# ----------------------------------------------------------------------
# submissions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitRequest:
    """One validated synthesis submission."""

    instance: Dict[str, Any]
    client: str = "anonymous"
    name: str = ""
    deadline_s: Optional[float] = None
    stream: bool = False
    trace: bool = False
    options: SynthesisOptions = field(default_factory=SynthesisOptions)


def _bad(path: str, message: str) -> ProtocolError:
    return ProtocolError(400, f"{path}: {message}")


def _opt_bool(doc: Dict[str, Any], key: str, default: bool = False) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise _bad(key, f"expected a boolean, got {type(value).__name__}")
    return value


def _parse_options(doc: Any) -> SynthesisOptions:
    """The client-settable :class:`SynthesisOptions` subset.

    Execution knobs (checkpointing, budget policy) belong to the
    server, so a client can shape *what* is computed but never *how*
    the service spends its resources.
    """
    if not isinstance(doc, dict):
        raise _bad("options", f"expected a JSON object, got {type(doc).__name__}")
    fields: Dict[str, Any] = {}
    for key, value in doc.items():
        path = f"options.{key}"
        if key == "pruning":
            try:
                fields["pruning"] = PruningLevel(value)
            except ValueError:
                raise _bad(path, f"unknown pruning level {value!r} "
                                 f"(use one of {[l.value for l in PruningLevel]})") from None
        elif key in ("max_arity", "max_merge_hops"):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 1):
                raise _bad(path, f"expected a positive integer or null, got {value!r}")
            fields[key] = value
        elif key == "hop_penalty":
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise _bad(path, f"expected a nonnegative number, got {value!r}")
            fields[key] = float(value)
        elif key in ("heterogeneous", "polish_placement", "validate_result"):
            if not isinstance(value, bool):
                raise _bad(path, f"expected a boolean, got {type(value).__name__}")
            fields[key] = value
        elif key == "strategy":
            if value not in STRATEGIES:
                raise _bad(path, f"unknown strategy {value!r} "
                                 f"(use one of {list(STRATEGIES)})")
            fields["strategy"] = value
        else:
            raise _bad(path, "unknown option (clients may set: pruning, strategy, "
                             "max_arity, max_merge_hops, hop_penalty, heterogeneous, "
                             "polish_placement, validate_result)")
    # the service always degrades instead of failing on budget exhaustion
    return SynthesisOptions(on_budget_exhausted="degrade", **fields)


def parse_submit(doc: Dict[str, Any]) -> SubmitRequest:
    """Validate one submission document (raises 400 :class:`ProtocolError`)."""
    if "instance" not in doc:
        raise _bad("instance", "missing required field")
    instance = doc["instance"]
    if not isinstance(instance, dict):
        raise _bad("instance", f"expected a JSON object, got {type(instance).__name__}")
    for key in ("constraint_graph", "library"):
        if key not in instance:
            raise _bad(f"instance.{key}", "missing required field")

    client = doc.get("client", "anonymous")
    if not isinstance(client, str) or not client or len(client) > 128:
        raise _bad("client", "expected a nonempty string of at most 128 characters")
    name = doc.get("name", "")
    if not isinstance(name, str) or len(name) > 256:
        raise _bad("name", "expected a string of at most 256 characters")

    deadline = doc.get("deadline_s")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool) or deadline <= 0:
            raise _bad("deadline_s", f"expected a positive number of seconds, got {deadline!r}")
        deadline = float(deadline)

    unknown = set(doc) - {"instance", "client", "name", "deadline_s", "stream", "trace", "options"}
    if unknown:
        raise _bad(sorted(unknown)[0], "unknown field")

    return SubmitRequest(
        instance=instance,
        client=client,
        name=name,
        deadline_s=deadline,
        stream=_opt_bool(doc, "stream"),
        trace=_opt_bool(doc, "trace"),
        options=_parse_options(doc.get("options", {})),
    )

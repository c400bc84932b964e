"""Wire protocol for the ``repro serve`` daemon: JSON lines over TCP.

One request per connection: the client sends a single JSON object on one
line (``{"op": "submit", ...}``) and reads one response line
(``{"ok": true, ...}`` or ``{"ok": false, "error": ..., "error_type": ...}``).
The ``watch`` op is the one streaming exception — the server keeps the
connection open and pushes one JSON line per job event until the job
reaches a terminal state.

Newline-delimited JSON was chosen over HTTP deliberately: it needs nothing
beyond the stdlib socket layer, is trivially inspectable with ``nc``, and
framing by line means a crashed peer can never leave a half-parsed message
ambiguity — a partial line is simply dropped, mirroring the crash-safe
JSONL conventions of :mod:`repro.obs`.

Endpoint discovery: the daemon binds ``127.0.0.1`` on an ephemeral port and
records ``{"host", "port", "pid"}`` in ``<state_dir>/serve.json`` (atomic
write), so clients only need the state directory.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Iterator, Optional

from ..core.stores import atomic_write

#: endpoint discovery file inside the daemon's state directory
ENDPOINT_FILE = "serve.json"

#: hard cap on one protocol line; anything bigger is a malformed client
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame on the wire (oversized, truncated or non-JSON)."""


def send_message(wire, message: dict) -> None:
    """Write one JSON object as a single line and flush it."""
    wire.write(json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n")
    wire.flush()


def recv_message(wire) -> Optional[dict]:
    """Read one JSON line; ``None`` on clean EOF.

    A truncated final line (peer died mid-write) is treated as EOF — by
    construction a complete message always ends in ``\\n``.
    """
    line = wire.readline(MAX_LINE_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n"):
        if len(line) >= MAX_LINE_BYTES:
            raise ProtocolError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
        return None  # truncated write from a dying peer
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return message


def recv_stream(wire) -> Iterator[dict]:
    """Yield JSON lines until EOF (the ``watch`` stream)."""
    while True:
        message = recv_message(wire)
        if message is None:
            return
        yield message


# ---------------------------------------------------------------------------
# endpoint discovery
# ---------------------------------------------------------------------------


def endpoint_path(state_dir) -> Path:
    return Path(state_dir) / ENDPOINT_FILE


def write_endpoint(state_dir, host: str, port: int) -> Path:
    """Atomically record the daemon's address in the state directory."""
    path = endpoint_path(state_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"host": host, "port": port, "pid": os.getpid()}
    atomic_write(path, lambda tmp: Path(tmp).write_text(json.dumps(payload)))
    return path


def read_endpoint(state_dir) -> dict:
    """The daemon address recorded by :func:`write_endpoint`.

    Raises ``FileNotFoundError`` when no daemon has written one.
    """
    path = endpoint_path(state_dir)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "port" not in payload:
        raise ProtocolError(f"malformed endpoint file: {path}")
    return payload


def remove_endpoint(state_dir) -> None:
    try:
        endpoint_path(state_dir).unlink()
    except OSError:
        pass


def connect(host: str, port: int, timeout: Optional[float] = None) -> socket.socket:
    """Open a client connection to a daemon."""
    return socket.create_connection((host, port), timeout=timeout)

"""TCP client for an Isabelle server.

Wire protocol: the client connects, sends the server password as a bare
line, and receives `OK {...}`.  Every subsequent exchange is a line of
the form `NAME {json argument}`.  Replies arrive either as one physical
line or, when the payload is long, as a line holding a decimal byte
count followed by exactly that many bytes.  Asynchronous commands are
acknowledged with `OK {"task": id}` and settle later with `FINISHED` or
`FAILED` carrying the same task id; `NOTE` lines report progress and are
ignored here.

Every exchange has a deadline: the handshake and `session_stop` get
CONNECT_TIMEOUT_S, the session build and start BUILD_TIMEOUT_S, and a
check its own budget.  Each read and write blocks only for the time left
before it, so a check that gets no verdict ends at its budget.

Each proof check writes the theory file into a scratch directory of its
own, removed when the check ends, so the server sees a new node every
time and stale results are never replayed across the repeated checks a
refinement round performs.  A timed-out task may outlive its file, but
its session is retired by then.

A connection reads the host, port, password and session name of the
`IsabelleServer` value it is given.  A server session outlives the
connection that started it, so another connection can attach to it by
its `session_id` and check theories without `session_build` or
`session_start`.  A batch's `SharedSession` hands out such connections.
Any other connection starts a session of its own and stops it when
closed: over that connection while it is alive, and over a fresh one
once a check has left it dead.
"""

import contextlib
import json
import logging
import os
import socket
import tempfile
import threading
import time
from typing import Callable, ContextManager, List, Optional, Tuple

from ..theory import TheoryDoc
from .messages import (
    CHECK_TIMEOUT_S,
    CheckReport,
    ProverError,
    ProverMessage,
    Span,
    build_report,
)

log = logging.getLogger(__name__)

# Deadlines of a connection's open, handshake and session_stop, and of
# a session's build and start.
CONNECT_TIMEOUT_S = 10.0
BUILD_TIMEOUT_S = 600.0


class ConnectFailed(ProverError):
    """TCP connection to the server could not be established."""


class AuthFailed(ProverError):
    """The server rejected the password."""


class SessionBuildFailed(ProverError):
    """session_build finished unsuccessfully."""


class SessionDead(ProverError):
    """The session is unusable (closed, timed out, or server gone)."""


class _Deadline(Exception):
    pass


class IsabelleSession:
    """One server connection to one prover session.

    `server` is the `IsabelleServer` to connect to.  Without
    `session_id` the connection builds and starts a session; with it,
    the connection attaches to that running session.  It owns the
    session it started, unless `owns_session` says otherwise, and
    `close` stops the session first only when it owns it.  `on_dead`,
    when set, is called with the session id once a check times out, is
    refused or loses the connection.
    """

    def __init__(
        self,
        server,
        session_id: Optional[str] = None,
        owns_session: Optional[bool] = None,
    ):
        self.session_id = session_id
        self.owns_session = session_id is None if owns_session is None else owns_session
        self.on_dead: Optional[Callable[[str], None]] = None
        self._server = server
        self._buf = b""
        self._dead = False
        try:
            self._sock = socket.create_connection(
                (server.host, server.port), CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise ConnectFailed(
                "cannot connect to %s:%d: %s" % (server.host, server.port, exc)
            )
        try:
            deadline = time.monotonic() + CONNECT_TIMEOUT_S
            try:
                self._write_line(server.password, deadline)
                kind, _payload = self._read_reply(deadline)
            except (_Deadline, SessionDead) as exc:
                raise AuthFailed("no handshake reply: %s" % exc)
            if kind != "OK":
                raise AuthFailed("server refused password: %s" % kind)
            if session_id is None:
                self._start()
        except BaseException:
            self._sock.close()
            raise

    # -- low-level framing

    def _wait_until(self, deadline: float) -> None:
        """Let the next socket call block only until `deadline`."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise _Deadline()
        self._sock.settimeout(left)

    def _write_line(self, line: str, deadline: float):
        self._wait_until(deadline)
        try:
            self._sock.sendall(line.encode("utf-8") + b"\n")
        except OSError as exc:
            self._dead = True
            raise SessionDead("send failed: %s" % exc)

    def _recv(self, deadline: float) -> bytes:
        self._wait_until(deadline)
        try:
            chunk = self._sock.recv(65536)
        except socket.timeout:
            raise _Deadline()
        except OSError as exc:
            self._dead = True
            raise SessionDead("recv failed: %s" % exc)
        if not chunk:
            self._dead = True
            raise SessionDead("server closed the connection")
        return chunk

    def _read_message(self, deadline: float) -> str:
        """The next message: one line, or the bytes that follow a line
        holding only their decimal count."""
        count: Optional[int] = None
        while True:
            if count is None and b"\n" in self._buf:
                line, _, self._buf = self._buf.partition(b"\n")
                if not line.isdigit():
                    return line.decode("utf-8")
                count = int(line)
            if count is not None and len(self._buf) >= count:
                message, self._buf = self._buf[:count], self._buf[count:]
                return message.decode("utf-8")
            self._buf += self._recv(deadline)

    def _read_reply(self, deadline: float) -> Tuple[str, dict]:
        head, _, rest = self._read_message(deadline).partition(" ")
        rest = rest.strip()
        try:
            payload = json.loads(rest) if rest else {}
        except ValueError:
            return head, {"raw": rest}
        return head, payload if isinstance(payload, dict) else {"value": payload}

    # -- command plumbing

    def _run_async(self, name: str, args: dict, deadline: float) -> dict:
        """Send an asynchronous command and wait for its FINISHED payload."""
        arg = json.dumps(args, separators=(",", ":"), sort_keys=True)
        self._write_line(name + " " + arg, deadline)
        kind, payload = self._read_reply(deadline)
        if kind == "ERROR":
            raise ProverError("%s rejected: %s" % (name, payload))
        if kind != "OK":
            raise ProverError("unexpected reply to %s: %s" % (name, kind))
        task = payload.get("task")
        while True:
            kind, payload = self._read_reply(deadline)
            if kind == "NOTE":
                continue
            if task is not None and payload.get("task") not in (None, task):
                continue
            if kind == "FINISHED":
                return payload
            if kind == "FAILED":
                raise ProverError("%s failed: %s" % (name, payload))
            if kind == "ERROR":
                raise ProverError("%s error: %s" % (name, payload))

    def _start(self):
        name = self._server.session_name
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        try:
            build = self._run_async("session_build", {"session": name}, deadline)
            if build.get("ok") is False:
                raise SessionBuildFailed("build of %r failed" % name)
            started = self._run_async("session_start", {"session": name}, deadline)
        except _Deadline:
            raise SessionBuildFailed(
                "session %r did not come up within %.0fs" % (name, BUILD_TIMEOUT_S)
            )
        except SessionBuildFailed:
            raise
        except ProverError as exc:
            raise SessionBuildFailed(str(exc))
        self.session_id = started.get("session_id")
        if not self.session_id:
            raise SessionBuildFailed("session_start returned no session_id")

    @property
    def usable(self) -> bool:
        """False once the session is closed or a check left it dead."""
        return not self._dead

    # -- checking

    def check_document(
        self, doc: TheoryDoc, timeout_s: float = CHECK_TIMEOUT_S
    ) -> CheckReport:
        if not self.usable:
            raise SessionDead("session is not usable")
        started = time.monotonic()
        deadline = started + timeout_s
        with tempfile.TemporaryDirectory(prefix="verifine_thy_") as scratch:
            path = os.path.join(scratch, doc.name + ".thy")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc.rendered)
            args = {
                "session_id": self.session_id,
                "theories": [doc.name],
                "master_dir": scratch,
            }
            try:
                payload = self._run_async("use_theories", args, deadline)
            except (ProverError, _Deadline) as exc:
                # The session refused the check, the connection dropped, or
                # the task may still be running server-side: either way this
                # session is done, and the next round opens a fresh one.
                self._dead = True
                if self.on_dead is not None:
                    self.on_dead(self.session_id)
                if not isinstance(exc, _Deadline):
                    raise
                elapsed = time.monotonic() - started
                message = ProverMessage(
                    "error", "Timeout: prover gave no verdict within %.1fs" % timeout_s
                )
                return build_report("timeout", [message], elapsed, doc)
            elapsed = time.monotonic() - started
            return self._report_from_payload(payload, elapsed, doc)

    @staticmethod
    def _severity(kind: str) -> str:
        if kind == "error":
            return "error"
        if kind in ("warning", "legacy"):
            return "warning"
        return "info"

    @staticmethod
    def _span(pos: dict) -> Optional[Span]:
        if not pos:
            return None
        line = pos.get("line")
        offset = pos.get("offset")
        if line is None or offset is None:
            return None
        return Span(int(line), int(offset), int(pos.get("end_offset", offset)))

    def _report_from_payload(
        self, payload: dict, elapsed: float, doc: TheoryDoc
    ) -> CheckReport:
        messages: List[ProverMessage] = []
        seen = set()

        def add(kind: str, text: str, pos: dict):
            severity = self._severity(kind)
            span = self._span(pos or {})
            key = (severity, text, span)
            if key in seen:
                return
            seen.add(key)
            messages.append(ProverMessage(severity, text, span))

        for node in payload.get("nodes", []):
            for msg in node.get("messages", []):
                add(msg.get("kind", "writeln"), msg.get("message", ""), msg.get("pos"))
        for msg in payload.get("errors", []):
            add("error", msg.get("message", ""), msg.get("pos"))
        has_error = any(m.severity == "error" for m in messages)
        ok = bool(payload.get("ok", not has_error)) and not has_error
        status = "valid" if ok else "failed"
        if status == "failed" and not has_error:
            messages.append(
                ProverMessage("error", "Theory processing failed without messages")
            )
        return build_report(status, messages, elapsed, doc)

    # -- lifecycle

    def close(self):
        """Drop the connection, stopping the session first if this one
        owns it (see the module docstring)."""
        owned, self.owns_session = self.owns_session, False
        try:
            if owned and self._dead:
                _stop_session(self._server, self.session_id)
            elif owned:
                self._run_async(
                    "session_stop",
                    {"session_id": self.session_id},
                    time.monotonic() + CONNECT_TIMEOUT_S,
                )
        except (ProverError, _Deadline):
            pass
        finally:
            self._dead = True
            try:
                self._sock.close()
            except OSError:
                pass


class SharedSession:
    """The prover session that the connections of one batch attach to.

    The first `open` starts the session under the lock, and every later
    `open` attaches its own connection to it.  A failed start leaves no
    session, so the next `open` tries again.  A check that times out may
    leave its task running in the session, and one that is refused or
    loses its connection finds the session gone, so either retires its
    session and the next `open` starts a fresh one.  Once every `open`
    has returned, `close` stops every session this value started, each
    over a fresh connection.  `server` is the `IsabelleServer` the
    sessions run on.
    """

    opens_remotely = True

    def __init__(self, server):
        self._server = server
        self._lock = threading.Lock()
        self._session_id: Optional[str] = None
        self._started: List[str] = []

    def open(self) -> IsabelleSession:
        with self._lock:
            session_id = self._session_id
            if session_id is None:
                session = IsabelleSession(self._server, owns_session=False)
                self._session_id = session.session_id
                self._started.append(session.session_id)
        if session_id is not None:
            session = IsabelleSession(self._server, session_id=session_id)
        session.on_dead = self._retire
        return session

    def shared(self) -> ContextManager["SharedSession"]:
        return contextlib.nullcontext(self)

    def _retire(self, session_id: str) -> None:
        with self._lock:
            if session_id == self._session_id:
                self._session_id = None

    def close(self) -> None:
        for session_id in self._started:
            _stop_session(self._server, session_id)


def _stop_session(server, session_id: str) -> None:
    """Stop a server session over a fresh connection to `server`."""
    try:
        IsabelleSession(server, session_id=session_id, owns_session=True).close()
    except ProverError as exc:
        log.warning("could not stop prover session %s: %s", session_id, exc)

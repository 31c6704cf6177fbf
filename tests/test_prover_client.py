"""Isabelle server client against a scripted in-process TCP stand-in.

The stand-in speaks the same framing as the real server: password
handshake, `NAME {json}` command lines, replies either as single lines
or as a byte count line followed by exactly that many bytes, and
OK/NOTE/FINISHED/FAILED task settlement.  Tests against a live server
run only when VERIFINE_ISABELLE_HOST and friends are exported.
"""

import collections
import json
import logging
import os
import socket
import tempfile
import threading
import time
import types

import pytest

from verifine.prover import GroundOracle, IsabelleServer, isabelle, start_session
from verifine.prover.isabelle import (
    AuthFailed,
    ConnectFailed,
    IsabelleSession,
    SessionBuildFailed,
    SessionDead,
    SharedSession,
)
from verifine.prover.messages import ErrorClass, locate_failed_step
from verifine.prover.oracle import OracleSession
from verifine.theory import ProofStep, StepKind

from test_theory import violin_doc


class FakeIsabelleServer:
    """Scripted stand-in accepting one client at a time per thread."""

    def __init__(self, password="secret", session_id="sess-1"):
        self.password = password
        self.session_id = session_id
        self.requests = []
        self.theories_seen = []
        self.build_ok = True
        self.fail_session_start = False
        # When set, session_start waits up to 2 s for this event and
        # fails if it never comes.
        self.start_gate = None
        # When set, use_theories waits up to 5 s for this event before it
        # answers.
        self.check_gate = None
        self.counted_replies = False
        self.close_on_connect = False
        self.hang_on_use_theories = False
        # When set, the n-th session_start answers session id "sess-n".
        self.numbered_sessions = False
        self._starts = 0
        self.die_on_use_theories = False
        self.stray_task_noise = False
        self.use_theories_payload = None
        # Connections whose client hung up.
        self.hangups = 0
        # Session ids started and not yet stopped, with how often each
        # was started; use_theories on any other id is refused.
        self.live_sessions = collections.Counter()
        self._sessions_lock = threading.Lock()
        self._tasks = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._accepter = threading.Thread(target=self._serve, daemon=True)
        self._accepter.start()

    def close(self):
        # Closing alone leaves accept() blocked in the accept thread, and
        # the port keeps taking clients; shutting the socket down wakes it.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._accepter.join(timeout=5.0)

    def _task(self):
        self._tasks += 1
        return "task-%d" % self._tasks

    def _send(self, conn, text):
        raw = text.encode("utf-8")
        if self.counted_replies:
            conn.sendall(str(len(raw)).encode("ascii") + b"\n" + raw)
        else:
            conn.sendall(raw + b"\n")

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            # Replies go out line by line; without this each multi-line
            # reply waits on the client's delayed acknowledgement.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn):
        buf = [b""]

        def read_line():
            while b"\n" not in buf[0]:
                chunk = conn.recv(65536)
                if not chunk:
                    self.hangups += 1
                    raise ConnectionError("client gone")
                buf[0] += chunk
            line, _, rest = buf[0].partition(b"\n")
            buf[0] = rest
            return line.decode("utf-8")

        try:
            if self.close_on_connect:
                return
            if read_line() != self.password:
                self._send(conn, "ERROR \"bad password\"")
                return
            self._send(conn, "OK {\"isabelle_name\":\"fake\"}")
            while True:
                line = read_line()
                name, _, rest = line.partition(" ")
                args = json.loads(rest) if rest.strip() else {}
                self.requests.append((name, args))
                if name == "session_build":
                    task = self._task()
                    self._send(conn, "OK %s" % json.dumps({"task": task}))
                    self._send(
                        conn,
                        "NOTE %s"
                        % json.dumps({"kind": "writeln", "task": task}),
                    )
                    self._send(
                        conn,
                        "FINISHED %s"
                        % json.dumps({"task": task, "ok": self.build_ok}),
                    )
                elif name == "session_start":
                    task = self._task()
                    self._send(conn, "OK %s" % json.dumps({"task": task}))
                    gate = self.start_gate
                    held = gate is not None and not gate.wait(2.0)
                    if self.fail_session_start or held:
                        self._send(
                            conn,
                            "FAILED %s"
                            % json.dumps({"task": task, "message": "no such session"}),
                        )
                        continue
                    payload = {"task": task}
                    session_id = self.session_id
                    with self._sessions_lock:
                        self._starts += 1
                        if self.numbered_sessions:
                            session_id = "sess-%d" % self._starts
                        if session_id is not None:
                            self.live_sessions[session_id] += 1
                    if session_id is not None:
                        payload["session_id"] = session_id
                    self._send(conn, "FINISHED %s" % json.dumps(payload))
                elif name == "use_theories":
                    session_id = args.get("session_id")
                    if not self.live_sessions[session_id]:
                        self._send(conn, "ERROR \"no running session %s\"" % session_id)
                        continue
                    task = self._task()
                    self._send(conn, "OK %s" % json.dumps({"task": task}))
                    if self.hang_on_use_theories:
                        continue
                    if self.check_gate is not None:
                        self.check_gate.wait(5.0)
                    if self.die_on_use_theories:
                        return
                    for theory_name in args.get("theories", []):
                        path = os.path.join(
                            args["master_dir"], theory_name + ".thy"
                        )
                        with open(path, encoding="utf-8") as fh:
                            self.theories_seen.append((args["master_dir"], fh.read()))
                    if self.stray_task_noise:
                        self._send(
                            conn, "NOTE %s" % json.dumps({"task": task, "percent": 50})
                        )
                        self._send(
                            conn,
                            "FINISHED %s"
                            % json.dumps({"task": "someone-else", "ok": False}),
                        )
                    payload = dict(self.use_theories_payload or {"ok": True})
                    payload["task"] = task
                    self._send(conn, "FINISHED %s" % json.dumps(payload))
                elif name == "session_stop":
                    with self._sessions_lock:
                        self.live_sessions[args.get("session_id")] -= 1
                    task = self._task()
                    self._send(conn, "OK %s" % json.dumps({"task": task}))
                    self._send(
                        conn, "FINISHED %s" % json.dumps({"task": task, "ok": True})
                    )
                elif name == "shutdown":
                    return
                else:
                    self._send(conn, "ERROR \"unknown command\"")
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass


@pytest.fixture
def server():
    srv = FakeIsabelleServer()
    yield srv
    srv.close()


@pytest.fixture(autouse=True)
def short_timeouts(monkeypatch):
    monkeypatch.setattr(isabelle, "CONNECT_TIMEOUT_S", 5.0)
    monkeypatch.setattr(isabelle, "BUILD_TIMEOUT_S", 10.0)


def connect(srv, **kwargs):
    return IsabelleSession("127.0.0.1", srv.port, srv.password, **kwargs)


class TestHandshakeAndLifecycle:
    def test_session_comes_up(self, server):
        session = connect(server)
        try:
            assert session.session_id == "sess-1"
            assert server.requests[0] == ("session_build", {"session": "HOL"})
            assert server.requests[1] == ("session_start", {"session": "HOL"})
        finally:
            session.close()

    def test_session_name_is_forwarded(self, server):
        session = connect(server, session_name="Custom")
        try:
            assert server.requests[0] == ("session_build", {"session": "Custom"})
        finally:
            session.close()

    def test_close_stops_the_session(self, server):
        session = connect(server)
        session.close()
        time.sleep(0.1)
        assert ("session_stop", {"session_id": "sess-1"}) in server.requests

    def test_wrong_password_is_refused(self, server):
        with pytest.raises(AuthFailed):
            IsabelleSession("127.0.0.1", server.port, "not-it")

    def test_silent_server_fails_handshake(self, server, monkeypatch):
        server.close_on_connect = True
        monkeypatch.setattr(isabelle, "CONNECT_TIMEOUT_S", 1.0)
        with pytest.raises(AuthFailed):
            IsabelleSession("127.0.0.1", server.port, server.password)

    def test_closed_port_raises_connect_failed(self, monkeypatch):
        monkeypatch.setattr(isabelle, "CONNECT_TIMEOUT_S", 1.0)
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectFailed):
            IsabelleSession("127.0.0.1", port, "x")

    def test_closed_fake_refuses_new_sessions(self, monkeypatch):
        monkeypatch.setattr(isabelle, "CONNECT_TIMEOUT_S", 1.0)
        srv = FakeIsabelleServer()
        srv.close()
        assert not srv._accepter.is_alive()
        with pytest.raises(ConnectFailed):
            IsabelleSession("127.0.0.1", srv.port, srv.password)

    def test_failed_build_raises(self, server):
        server.build_ok = False
        with pytest.raises(SessionBuildFailed):
            connect(server)

    def test_failed_session_start_raises(self, server):
        server.fail_session_start = True
        with pytest.raises(SessionBuildFailed):
            connect(server)

    def test_missing_session_id_raises(self, server):
        server.session_id = None
        with pytest.raises(SessionBuildFailed):
            connect(server)

    def test_session_start_past_the_build_budget_raises(self, server, monkeypatch):
        monkeypatch.setattr(isabelle, "BUILD_TIMEOUT_S", 0.2)
        server.start_gate = threading.Event()
        try:
            started = time.monotonic()
            with pytest.raises(SessionBuildFailed, match="did not come up"):
                connect(server)
            assert time.monotonic() - started < 1.0
        finally:
            server.start_gate.set()

    def test_stopping_on_a_closed_server_logs_a_warning(self, server, caplog):
        shared = SharedSession(IsabelleServer("127.0.0.1", server.port, server.password))
        shared.open().close()
        server.close()
        with caplog.at_level(logging.WARNING, logger="verifine.prover.isabelle"):
            shared.close()
        assert "could not stop prover session sess-1" in caplog.text

    @pytest.mark.parametrize(
        "fault, error",
        [
            ("closed_port", ConnectFailed),
            ("wrong_password", AuthFailed),
            ("close_on_connect", AuthFailed),
            ("build_ok", SessionBuildFailed),
            ("fail_session_start", SessionBuildFailed),
        ],
    )
    def test_failed_open_leaves_no_scratch_dir_or_connection(
        self, server, tmp_path, monkeypatch, fault, error
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(isabelle, "CONNECT_TIMEOUT_S", 1.0)
        port, password = server.port, server.password
        if fault == "closed_port":
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
        elif fault == "wrong_password":
            password = "not-it"
        elif fault == "build_ok":
            server.build_ok = False
        else:
            setattr(server, fault, True)
        # The kept exception info holds the half-built session, so only
        # an explicit close ends the connection before the test does.
        with pytest.raises(error) as info:
            IsabelleSession("127.0.0.1", port, password)
        assert os.listdir(str(tmp_path)) == []
        if error is SessionBuildFailed:
            deadline = time.monotonic() + 2.0
            while server.hangups == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.hangups == 1, info.value


class TestChecking:
    def test_valid_theory_round_trip(self, server):
        session = connect(server)
        try:
            doc = violin_doc()
            report = session.check_document(doc, timeout_s=5.0)
            assert report.status == "valid"
            assert report.messages == ()
            name, args = server.requests[-1]
            assert name == "use_theories"
            assert args["session_id"] == "sess-1"
            assert args["theories"] == [doc.name]
            assert server.theories_seen[-1][1] == doc.rendered
        finally:
            session.close()

    def test_each_check_gets_a_fresh_scratch_dir(self, server):
        session = connect(server)
        try:
            doc = violin_doc()
            session.check_document(doc, timeout_s=5.0)
            session.check_document(doc, timeout_s=5.0)
            dirs = [d for d, _ in server.theories_seen]
            assert len(dirs) == 2 and dirs[0] != dirs[1]
        finally:
            session.close()

    def test_a_check_removes_its_scratch_dir(self, server, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "valid"
            assert os.listdir(str(tmp_path)) == []
            server.hang_on_use_theories = True
            report = session.check_document(violin_doc(), timeout_s=0.1)
            assert report.status == "timeout"
            assert os.listdir(str(tmp_path)) == []
        finally:
            session.close()

    def test_error_payload_becomes_failed_report(self, server):
        server.use_theories_payload = {
            "ok": False,
            "nodes": [
                {
                    "messages": [
                        {
                            "kind": "error",
                            "message": "Failed to finish proof",
                            "pos": {"line": 21, "offset": 400, "end_offset": 410},
                        },
                        {"kind": "warning", "message": "shadowed"},
                        {"kind": "writeln", "message": "loading"},
                    ]
                }
            ],
            "errors": [
                {
                    "message": "Failed to finish proof",
                    "pos": {"line": 21, "offset": 400, "end_offset": 410},
                }
            ],
        }
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "failed"
            # The node message and the errors entry coincide: deduplicated.
            assert [m.severity for m in report.messages] == [
                "error",
                "warning",
                "info",
            ]
            assert report.first_error[0].span.line == 21
            assert report.first_error[1] is ErrorClass.PROOF_FAILURE
        finally:
            session.close()

    def test_a_position_without_offset_gets_no_span(self, server):
        server.use_theories_payload = {
            "ok": False,
            "errors": [{"message": "Inner syntax error", "pos": {"line": 4}}],
        }
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "failed"
            assert [(m.text, m.span) for m in report.messages] == [
                ("Inner syntax error", None)
            ]
        finally:
            session.close()

    def test_legacy_kind_maps_to_warning(self, server):
        server.use_theories_payload = {
            "ok": True,
            "nodes": [{"messages": [{"kind": "legacy", "message": "old"}]}],
        }
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "valid"
            assert report.messages[0].severity == "warning"
        finally:
            session.close()

    def test_not_ok_without_messages_synthesizes_error(self, server):
        server.use_theories_payload = {"ok": False}
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "failed"
            assert report.messages[0].text == (
                "Theory processing failed without messages"
            )
        finally:
            session.close()

    def test_byte_counted_frames_are_reassembled(self, server):
        server.counted_replies = True
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "valid"
        finally:
            session.close()

    def test_unrelated_task_chatter_is_ignored(self, server):
        server.stray_task_noise = True
        session = connect(server)
        try:
            report = session.check_document(violin_doc(), timeout_s=5.0)
            assert report.status == "valid"
        finally:
            session.close()

    @pytest.mark.parametrize("budget", [0.1, 0.3, 0.6])
    def test_no_verdict_within_budget_times_out(self, server, budget):
        server.hang_on_use_theories = True
        session = connect(server)
        try:
            started = time.monotonic()
            report = session.check_document(violin_doc(), timeout_s=budget)
            # The report lands at the budget, not at a later poll.
            assert time.monotonic() - started < budget + 0.1
            assert report.status == "timeout"
            assert report.messages[0].text == (
                "Timeout: prover gave no verdict within %.1fs" % budget
            )
            with pytest.raises(SessionDead):
                session.check_document(violin_doc(), timeout_s=budget)
        finally:
            session.close()

    def test_server_vanishing_mid_check_raises(self, server):
        server.die_on_use_theories = True
        session = connect(server)
        try:
            with pytest.raises(SessionDead):
                session.check_document(violin_doc(), timeout_s=5.0)
        finally:
            session.close()


class TestBackendFactory:
    def test_oracle_backend_starts_oracle_session(self):
        handle = start_session(GroundOracle(domain_bound=2))
        assert isinstance(handle, OracleSession)
        assert handle.domain_bound == 2

    def test_isabelle_backend_starts_tcp_session(self, server):
        backend = IsabelleServer("127.0.0.1", server.port, server.password)
        handle = start_session(backend)
        try:
            assert isinstance(handle, IsabelleSession)
        finally:
            handle.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            start_session(object())


# --- live server (opt-in) ---------------------------------------------------

def live_params():
    host = os.environ.get("VERIFINE_ISABELLE_HOST")
    port = os.environ.get("VERIFINE_ISABELLE_PORT")
    if not host or not port:
        return None
    return {
        "host": host,
        "port": int(port),
        "password": os.environ.get("VERIFINE_ISABELLE_PASSWORD", ""),
        "session_name": os.environ.get("VERIFINE_ISABELLE_SESSION", "HOL"),
    }


needs_live = pytest.mark.skipif(
    live_params() is None,
    reason="set VERIFINE_ISABELLE_HOST/PORT to run against a live server",
)


@pytest.fixture(scope="module")
def live_session():
    params = live_params()
    if params is None:
        pytest.skip("no live Isabelle server configured")
    session = IsabelleSession(**params)
    yield session
    session.close()


@needs_live
class TestLiveServer:
    def test_violin_theory_is_valid_within_budget(self, live_session):
        started = time.monotonic()
        report = live_session.check_document(violin_doc(), timeout_s=65.0)
        assert report.status == "valid"
        assert time.monotonic() - started < 65.0

    def test_arity_clash_classifies_as_type_unification(self, live_session):
        # Text no TheoryDoc can hold, in a stand-in with the fields a
        # check reads.
        text = violin_doc().rendered.replace("Agent e x", "Agent e", 1)
        clashed = types.SimpleNamespace(name="violin_1", rendered=text, proof=())
        report = live_session.check_document(clashed, timeout_s=65.0)
        assert report.status == "failed"
        assert report.first_error[1] is ErrorClass.TYPE_UNIFICATION

    def test_unprovable_step_locates_the_failed_step(self, live_session):
        doc = violin_doc()
        steps = list(doc.proof)
        steps[1] = ProofStep(StepKind.THEN_HAVE, steps[1].goal_text, ())
        weak = doc.with_proof(steps)
        report = live_session.check_document(weak, timeout_s=65.0)
        assert report.status == "failed"
        assert report.first_error[1] is ErrorClass.PROOF_FAILURE
        assert locate_failed_step(report, weak) == 1

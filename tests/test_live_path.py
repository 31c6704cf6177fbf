"""The live path: stage calls on the stage pool over loopback HTTP, and
one Isabelle server session per batch.

Each recorded corpus is recorded again in record mode over a loopback
chat endpoint that serves the corpus's scripted model, so every stage
call runs on the stage pool; the traces must still equal the goldens.
The session tests run batches against the scripted Isabelle stand-in of
`test_prover_client` and count the commands it receives.
"""

import contextlib
import dataclasses
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import verifine.pipeline
from verifine.batch import run_batch
from verifine.datasets import load_problems
from verifine.llm import TranscriptCache
from verifine.llmtypes import StageKind
from verifine.pipeline import RefinerConfig, run_refiner
from verifine.prompts import TEMPLATES
from verifine.prover import GroundOracle, IsabelleServer, batch_session, start_session
from verifine.prover.isabelle import IsabelleSession, SessionBuildFailed
from verifine.prover.messages import ProverError

from fixtures_e2e import (
    CORPORA,
    batch_transport,
    corpus_sessions,
    gateway_config,
    golden_line,
    paths_transport,
    worked_example_problems,
    worked_example_transport,
)
from test_prover_client import FakeIsabelleServer
from test_theory import violin_doc

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

TRANSPORTS = {
    "esnli": worked_example_transport,
    "batch50": batch_transport,
    "paths": paths_transport,
}

_PREFIXES = [(template.split("{")[0], stage) for stage, template in TEMPLATES.items()]


def _stage_of(prompt):
    for prefix, stage in _PREFIXES:
        if prompt.startswith(prefix):
            return stage
    raise KeyError("no stage template opens %r" % prompt[:60])


@contextlib.contextmanager
def chat_endpoint(transport):
    """A loopback chat endpoint answering each prompt with `transport`'s
    reply, and an unmatched prompt with 400.  The server counts the
    calls it received and answered by stage."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompt = body["messages"][0]["content"]
            srv = self.server
            with srv.lock:
                srv.received += 1
            try:
                stage = _stage_of(prompt)
                reply = transport({"stage": stage.value, "prompt": prompt})
                message = {"role": "assistant", "content": reply}
                status, payload = 200, {"choices": [{"message": message}]}
            except (AssertionError, KeyError) as exc:
                stage, status, payload = None, 400, {"error": str(exc)}
            with srv.lock:
                srv.answered.append(stage)
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.received = 0
    server.answered = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    url = "http://127.0.0.1:%d/v1/chat/completions" % server.server_address[1]
    try:
        yield server, url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(autouse=True)
def loopback_only(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")


def http_config(url, **overrides):
    llm = dataclasses.replace(gateway_config(), endpoint=url, http_timeout_s=10.0)
    return RefinerConfig(llm=llm, **overrides)


def corpus_problems(corpus):
    return load_problems(os.path.join(DATA_DIR, CORPORA[corpus][0]))


def golden(corpus):
    with open(os.path.join(DATA_DIR, CORPORA[corpus][2]), encoding="utf-8") as fh:
        return fh.read().splitlines()


def record_over_http(corpus, cache_path, workers):
    """Record `corpus` over a loopback endpoint with `run_batch`; returns
    the traces and the endpoint."""
    with chat_endpoint(TRANSPORTS[corpus]()) as (chat, url):
        cfg = http_config(
            url, backend=GroundOracle(), mode="record", cache=TranscriptCache(cache_path)
        )
        with corpus_sessions(corpus):
            traces = run_batch(corpus_problems(corpus), cfg, workers=workers)
        # No call outlives the round that started it.
        assert len(chat.answered) == chat.received
    return traces, chat


# ---------------------------------------------------------------------------
# Stage calls on the pool


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_recording_over_http_matches_goldens(corpus, tmp_path):
    traces, chat = record_over_http(corpus, str(tmp_path / "cache.jsonl"), workers=2)
    assert None not in chat.answered
    assert [golden_line(t) for t in traces] == golden(corpus)


def test_more_stage_calls_than_pool_threads_complete(tmp_path, monkeypatch):
    """Three workers start more calls at once than a two-thread pool
    runs; no call waits on another, so the batch completes."""
    small = ThreadPoolExecutor(2, thread_name_prefix="test-stage")
    monkeypatch.setattr(verifine.pipeline, "_stage_pool", small)
    interval = sys.getswitchinterval()
    outcome = []

    def batch():
        path = str(tmp_path / "cache.jsonl")
        outcome.append(record_over_http("paths", path, workers=3)[0])

    sys.setswitchinterval(1e-4)
    try:
        worker = threading.Thread(target=batch, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        small.shutdown(wait=False)
    assert not worker.is_alive()
    assert [golden_line(t) for t in outcome[0]] == golden("paths")


def test_timed_out_round_over_http_constructs_no_proof():
    """The HTTP twin of the scripted timeout test: the strategy and the
    proof a timed-out round started are dropped."""
    server = FakeIsabelleServer()
    server.hang_on_use_theories = True
    try:
        with chat_endpoint(worked_example_transport()) as (chat, url):
            cfg = http_config(
                url,
                backend=IsabelleServer("127.0.0.1", server.port, server.password),
                mode="live",
                max_refinement_iterations=1,
                timeout_s=0.3,
            )
            trace = run_refiner(worked_example_problems()[0], cfg)
            assert len(chat.answered) == chat.received
    finally:
        server.close()
    # Each round started its proof while the check hung, and dropped it.
    assert chat.answered.count(StageKind.CONSTRUCT_PROOF) == 2
    assert trace.diagnostic is None
    assert [r.report.status for r in trace.iterations] == ["timeout", "timeout"]
    assert all(r.theory.proof == () for r in trace.iterations)
    assert all(r.feedback.strategy is None for r in trace.iterations)


# ---------------------------------------------------------------------------
# One Isabelle session per batch


def isabelle_backend(server):
    return IsabelleServer("127.0.0.1", server.port, server.password)


def commands(server, *names):
    return [name for name, _ in server.requests if name in names]


def four_problems():
    problems = worked_example_problems()
    return problems + [dataclasses.replace(p, id=p.id + "_again") for p in problems]


def test_batch_starts_and_stops_one_session():
    problems = four_problems()
    server = FakeIsabelleServer()
    try:
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=isabelle_backend(server),
            mode="live",
            transport=worked_example_transport(),
        )
        batched = run_batch(problems, cfg, workers=2)
        lifecycle = commands(server, "session_build", "session_start", "session_stop")
        assert lifecycle == ["session_build", "session_start", "session_stop"]
        assert server.live_sessions["sess-1"] == 0
        checks = [args for name, args in server.requests if name == "use_theories"]
        assert checks and all(a["session_id"] == "sess-1" for a in checks)
        del server.requests[:]
        alone = [run_refiner(problem, cfg) for problem in problems]
        assert len(commands(server, "session_start")) == len(problems)
    finally:
        server.close()
    assert [golden_line(t) for t in batched] == [golden_line(t) for t in alone]


def test_a_timed_out_check_retires_the_batch_session():
    server = FakeIsabelleServer()
    server.hang_on_use_theories = True
    server.numbered_sessions = True
    try:
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=isabelle_backend(server),
            mode="live",
            transport=worked_example_transport(),
            max_refinement_iterations=1,
            timeout_s=0.3,
        )
        [trace] = run_batch(worked_example_problems()[:1], cfg)
    finally:
        server.close()
    assert [r.report.status for r in trace.iterations] == ["timeout", "timeout"]
    # The timed-out task may still run in its session, so the next round
    # checks in a fresh one, and the batch stops both.
    lifecycle = ["session_start", "use_theories", "session_stop"]
    assert commands(server, *lifecycle) == [
        "session_start", "use_theories", "session_start", "use_theories",
        "session_stop", "session_stop",
    ]
    checked = [a["session_id"] for n, a in server.requests if n == "use_theories"]
    stopped = [a["session_id"] for n, a in server.requests if n == "session_stop"]
    assert checked == stopped == ["sess-1", "sess-2"]
    assert not +server.live_sessions


def test_a_failed_start_leaves_no_batch_session():
    server = FakeIsabelleServer()
    backend = isabelle_backend(server)
    try:
        with batch_session(backend):
            server.fail_session_start = True
            with pytest.raises(SessionBuildFailed):
                start_session(backend)
            server.fail_session_start = False
            first, second = start_session(backend), start_session(backend)
            first.close()
            second.close()
            assert commands(server, "session_stop") == []
        assert commands(server, "session_start", "session_stop") == [
            "session_start", "session_start", "session_stop",
        ]
    finally:
        server.close()


def test_outside_a_batch_each_session_is_its_own():
    server = FakeIsabelleServer()
    backend = isabelle_backend(server)
    try:
        handles = [start_session(backend), start_session(backend)]
        for handle in handles:
            handle.close()
    finally:
        server.close()
    assert commands(server, "session_start", "session_stop") == [
        "session_start", "session_start", "session_stop", "session_stop",
    ]


def test_attaching_by_id_checks_until_the_session_stops():
    server = FakeIsabelleServer()
    address = ("127.0.0.1", server.port, server.password)
    try:
        owner = IsabelleSession(*address)
        guest = IsabelleSession(*address, session_id=owner.session_id)
        assert not guest.owns_session
        assert guest.check_document(violin_doc(), timeout_s=5.0).status == "valid"
        guest.close()
        assert commands(server, "session_build", "session_start", "session_stop") == [
            "session_build", "session_start",
        ]
        owner.close()
        late = IsabelleSession(*address, session_id="sess-1")
        try:
            with pytest.raises(ProverError, match="no running session"):
                late.check_document(violin_doc(), timeout_s=5.0)
        finally:
            late.close()
    finally:
        server.close()

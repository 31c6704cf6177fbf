"""The live path: stage calls on the stage pool over loopback HTTP, one
model call per distinct prompt per batch, and one Isabelle server session
per batch.

Each recorded corpus is recorded again in record mode over a loopback
chat endpoint that serves the corpus's scripted model, so every stage
call runs on the stage pool; the traces must still equal the goldens.
The reply-table tests count the calls that reach a scripted model.  The
session tests run batches against the scripted Isabelle stand-in of
`test_prover_client` and count the commands it receives.
"""

import collections
import contextlib
import dataclasses
import json
import os
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import verifine.batch
import verifine.cli
import verifine.llm
import verifine.pipeline
from verifine.batch import run_batch
from verifine.datasets import load_problems
from verifine.llm import HttpError, ReplyTable, TranscriptCache
from verifine.llmtypes import StageKind
from verifine.pipeline import PipelineContext, RefinerConfig, run_refiner
from verifine.prompts import TEMPLATES
from verifine.prover import GroundOracle, IsabelleServer, start_session
from verifine.prover.isabelle import (
    IsabelleSession,
    SessionBuildFailed,
    SessionDead,
    SharedSession,
)
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
from helpers import fenced
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


class Unavailable(Exception):
    """Raised by a scripted model to have `chat_endpoint` answer 503."""


@contextlib.contextmanager
def chat_endpoint(transport):
    """A loopback chat endpoint answering each prompt with `transport`'s
    reply, an unmatched prompt with 400, and a prompt whose transport
    raises Unavailable with 503.  The server counts the calls it
    received and answered by stage."""

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
            except Unavailable as exc:
                stage, status, payload = None, 503, {"error": str(exc)}
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
    runs; a call waits only on a call already running, so the batch
    completes, and it asks each distinct prompt once."""
    small = ThreadPoolExecutor(2, thread_name_prefix="test-stage")
    monkeypatch.setattr(verifine.pipeline, "_stage_pool", small)
    interval = sys.getswitchinterval()
    outcome = []
    path = str(tmp_path / "cache.jsonl")

    def batch():
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
    with open(path, encoding="utf-8") as fh:
        keys = [json.loads(line)["key"] for line in fh]
    assert len(keys) == len(set(keys))


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


def test_a_live_round_asks_the_strategy_and_the_proof_ahead(tmp_path, monkeypatch):
    """ROUGH_INFERENCE reaches the model before DETECT_EVENTS is answered,
    and CONSTRUCT_PROOF before the round's first check returns.  The
    endpoint holds DETECT_EVENTS, and the prover that check, until the
    call it waits for arrives, for at most 5 s each."""
    events = []
    rough_seen, proof_seen = threading.Event(), threading.Event()
    scripted = worked_example_transport()

    def transport(request):
        stage = StageKind(request["stage"])
        events.append(("received", stage))
        if stage is StageKind.ROUGH_INFERENCE:
            rough_seen.set()
        elif stage is StageKind.CONSTRUCT_PROOF:
            proof_seen.set()
        elif stage is StageKind.DETECT_EVENTS:
            rough_seen.wait(5.0)
        reply = scripted(request)
        events.append(("answered", stage))
        return reply

    check = verifine.pipeline.check_theory

    def checking(*args):
        report = check(*args)
        events.append(("checked", None))
        return report

    monkeypatch.setattr(verifine.pipeline, "check_theory", checking)
    server = FakeIsabelleServer()
    server.check_gate = proof_seen
    try:
        with chat_endpoint(transport) as (chat, url):
            cache = TranscriptCache(str(tmp_path / "cache.jsonl"))
            cfg = http_config(
                url, backend=isabelle_backend(server), mode="record", cache=cache
            )
            [trace] = run_batch(worked_example_problems()[:1], cfg)
    finally:
        server.close()
    assert trace.diagnostic is None
    assert events.index(("received", StageKind.ROUGH_INFERENCE)) < events.index(
        ("answered", StageKind.DETECT_EVENTS)
    )
    assert events.index(("received", StageKind.CONSTRUCT_PROOF)) < events.index(
        ("checked", None)
    )


# ---------------------------------------------------------------------------
# Round 0 asked ahead


def watch_the_window(monkeypatch, before=None):
    """Record each problem `run_batch` hands to its window, with the
    thread that asks its round 0, calling `before(problem)` first."""
    asked = []
    real = verifine.batch.ask_round_ahead

    def watched(problem, cfg):
        asked.append((problem.id, threading.current_thread().name))
        if before is not None:
            before(problem)
        real(problem, cfg)

    monkeypatch.setattr(verifine.batch, "ask_round_ahead", watched)
    return asked


def refusing(sentence, fault, delay_s=0.0):
    """The batch corpus's model, but the SENTENCE_TO_LOGIC call on
    `sentence` is refused with 400, answered with 503 or answered
    without a formula, after `delay_s`; `.faulty` counts those calls."""
    scripted = batch_transport()

    def transport(request):
        if (
            request["stage"] == StageKind.SENTENCE_TO_LOGIC.value
            and "Sentence: %s\n" % sentence in request["prompt"]
        ):
            transport.faulty += 1
            time.sleep(delay_s)
            if fault == "refused":
                raise KeyError("no formula for %r" % sentence)
            if fault == "unavailable":
                raise Unavailable("no formula for %r" % sentence)
            return "No formula for this one."
        return scripted(request)

    transport.faulty = 0
    return transport


def test_a_queued_problem_asks_round_0_while_the_first_check_is_held(
    tmp_path, monkeypatch
):
    """On two workers, starting problem 0 hands problem 2 to the window:
    its DETECT_EVENTS reaches the endpoint while problem 0's first check
    is held until it arrives, for at most 5 s."""
    problems = corpus_problems("batch50")[:3]
    third = "1. %s\n" % problems[2].premise_text
    third_seen = threading.Event()
    events = []
    scripted = batch_transport()

    def transport(request):
        if request["stage"] == StageKind.DETECT_EVENTS.value and third in request["prompt"]:
            events.append("third asked")
            third_seen.set()
        return scripted(request)

    check = verifine.pipeline.check_theory

    def checking(handle, doc, timeout_s):
        report = check(handle, doc, timeout_s)
        events.append(("checked", doc.name))
        return report

    monkeypatch.setattr(verifine.pipeline, "check_theory", checking)
    server = FakeIsabelleServer()
    server.check_gate = third_seen
    try:
        with chat_endpoint(transport) as (chat, url):
            cache = TranscriptCache(str(tmp_path / "cache.jsonl"))
            cfg = http_config(url, backend=isabelle_backend(server), mode="record", cache=cache)
            traces = run_batch(problems, cfg, workers=2)
    finally:
        server.close()
    assert all(t.diagnostic is None for t in traces)
    first_check = events.index(("checked", problems[0].id))
    assert events.index("third asked") < first_check


@pytest.mark.parametrize("fault", ["malformed", "refused"])
def test_a_bad_formula_reply_asked_ahead_leaves_the_traces_alone(
    fault, tmp_path, monkeypatch
):
    """A queued problem whose round-0 SENTENCE_TO_LOGIC reply is unusable
    or refused ends as it does in a batch without the window, and the
    batch raises nothing."""
    problems = corpus_problems("batch50")[:4]

    def record(label):
        with chat_endpoint(refusing(problems[2].premise_text, fault)) as (chat, url):
            cache = TranscriptCache(str(tmp_path / (label + ".jsonl")))
            cfg = http_config(url, backend=GroundOracle(), mode="record", cache=cache)
            return [golden_line(t) for t in run_batch(problems, cfg, workers=2)]

    with monkeypatch.context() as patch:
        patch.setattr(verifine.batch, "ask_round_ahead", lambda problem, cfg: None)
        without = record("without")
    asked = watch_the_window(monkeypatch)
    assert record("with") == without
    assert problems[2].id in [problem_id for problem_id, _ in asked]
    faulted = json.loads(without[2])
    if fault == "refused":
        assert "endpoint returned 400" in faulted["diagnostic"]
    else:
        assert faulted["diagnostic"] is None
        assert "sentence_to_logic" in faulted["iterations"][0]["report"]["messages"][0]["text"]


def test_a_refusal_asked_ahead_is_not_asked_again(tmp_path, monkeypatch):
    """Problem 3's premise formula is refused with 400 on two workers:
    the window and the problem's own round share that one refused call,
    and the traces equal a batch's without the window."""
    problems = corpus_problems("batch50")[:6]

    def record(label):
        model = refusing(problems[3].premise_text, "refused")
        with chat_endpoint(model) as (chat, url):
            cache = TranscriptCache(str(tmp_path / (label + ".jsonl")))
            cfg = http_config(url, backend=GroundOracle(), mode="record", cache=cache)
            traces = [golden_line(t) for t in run_batch(problems, cfg, workers=2)]
        assert model.faulty == 1
        return traces

    with monkeypatch.context() as patch:
        patch.setattr(verifine.batch, "ask_round_ahead", lambda problem, cfg: None)
        without = record("without")
    asked = watch_the_window(monkeypatch)
    assert record("with") == without
    assert problems[3].id in [problem_id for problem_id, _ in asked]
    assert "endpoint returned 400" in json.loads(without[3])["diagnostic"]


def test_the_window_is_joined_before_the_batch_returns(tmp_path, monkeypatch):
    """The window asks the last problem's round 0 only once that problem
    has reported, so its formula, answered 503 and not retried, is asked
    again, slowly; the endpoint has answered that call too when
    `run_batch` returns."""
    problems = corpus_problems("batch50")[:3]
    reported = threading.Event()

    def after_the_last(problem):
        if problem is problems[-1]:
            assert reported.wait(10)

    def on_result(trace):
        if trace.problem_id == problems[-1].id:
            reported.set()

    asked = watch_the_window(monkeypatch, after_the_last)
    model = refusing(problems[-1].premise_text, "unavailable", delay_s=0.3)
    with chat_endpoint(model) as (chat, url):
        cache = TranscriptCache(str(tmp_path / "cache.jsonl"))
        cfg = http_config(url, backend=GroundOracle(), mode="record", cache=cache)
        cfg.llm = dataclasses.replace(cfg.llm, retry_attempts=0)
        traces = run_batch(problems, cfg, workers=1, on_result=on_result)
        assert model.faulty == 2
        assert len(chat.answered) == chat.received
    assert [problem_id for problem_id, _ in asked] == [p.id for p in problems[1:]]
    assert traces[-1].diagnostic.startswith(
        "pipeline error: gave up after 1 attempts: endpoint returned 503"
    )


def test_the_window_leaves_no_thread_behind(tmp_path, monkeypatch):
    """Two recorded batches in one process: each asks ahead on threads of
    its own, the last ask slower than the problem it serves, and none of
    those threads is alive once `run_batch` returns."""
    asked = watch_the_window(monkeypatch, lambda problem: time.sleep(0.3))
    for run in (1, 2):
        with chat_endpoint(worked_example_transport()) as (chat, url):
            cache = TranscriptCache(str(tmp_path / ("cache%d.jsonl" % run)))
            cfg = http_config(url, backend=GroundOracle(), mode="record", cache=cache)
            traces = run_batch(worked_example_problems(), cfg, workers=1)
            alive = [t.name for t in threading.enumerate()]
        assert not [name for name in alive if name.startswith("verifine-ahead")]
        assert len(asked) == run
        assert asked[-1][1].startswith("verifine-ahead")
        assert [golden_line(t) for t in traces] == golden("esnli")


# ---------------------------------------------------------------------------
# One model call per distinct prompt per batch


def scripted_config(transport, mode="record", cache_path=None, temperature=0.0):
    llm = dataclasses.replace(gateway_config(), temperature=temperature)
    cache = TranscriptCache(cache_path) if cache_path else None
    return RefinerConfig(
        llm=llm, backend=GroundOracle(), mode=mode, cache=cache, transport=transport
    )


def counting(transport):
    """`transport`, counting its calls in `.calls`; safe across threads."""
    lock = threading.Lock()

    def count(request):
        with lock:
            count.calls += 1
        return transport(request)

    count.calls = 0
    return count


def line_count(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def test_a_batch_recording_replays_to_itself(tmp_path):
    """Within one batch a repeated prompt takes the first ask's reply, so
    a model that answers it otherwise the second time cannot make the
    cache disagree with the run that wrote it, and the cache holds one
    line per distinct prompt."""
    scripted = paths_transport()
    seen = set()

    def fickle(request):
        key = (request["stage"], request["prompt"])
        if request["stage"] == StageKind.ROUGH_INFERENCE.value and key in seen:
            return "I would rather not sketch this one again."
        seen.add(key)
        return scripted(request)

    recordings = {"paths": (fickle, 131), "batch50": (batch_transport(), 119)}
    for corpus, (transport, calls) in recordings.items():
        path = str(tmp_path / (corpus + ".jsonl"))
        model = counting(transport)
        cfg = scripted_config(model, cache_path=path)
        with corpus_sessions(corpus):
            recorded = run_batch(corpus_problems(corpus), cfg, workers=1)
            replay = scripted_config(None, "replay", path)
            replayed = run_batch(corpus_problems(corpus), replay, workers=1)
        assert [golden_line(t) for t in replayed] == [golden_line(t) for t in recorded]
        assert model.calls == line_count(path) == calls
        assert [golden_line(t) for t in recorded] == golden(corpus)
        # The batch's table lived on its own copy of the config.
        assert cfg.replies is None


@pytest.mark.parametrize(
    "mode, temperature, batched, calls",
    [
        ("live", 0.0, True, 119),
        ("record", 0.7, True, 119),
        ("live", 0.7, True, 425),
        ("record", 0.0, False, 425),
    ],
)
def test_which_runs_share_replies(mode, temperature, batched, calls, tmp_path):
    """A batch of record runs or of live runs at temperature 0 asks each
    distinct prompt once; a live run above 0 samples every ask, and
    `run_refiner` outside a batch asks every prompt it reaches.  A later
    batch on the same config keeps nothing of the first, so it asks
    again."""
    model = counting(batch_transport())
    path = str(tmp_path / "cache.jsonl") if mode == "record" else None
    cfg = scripted_config(model, mode, path, temperature)
    problems = corpus_problems("batch50")
    for run in (1, 2):
        if batched:
            traces = run_batch(problems, cfg, workers=2)
        else:
            traces = [run_refiner(problem, cfg) for problem in problems]
        assert model.calls == run * calls
        assert [golden_line(t) for t in traces] == golden("batch50")


def test_a_replayed_batch_reads_the_cache_at_every_ask(monkeypatch):
    """A replay passes the table by: each ask of the one-problem-at-a-time
    recording reads the cache."""
    reads = []
    original = TranscriptCache.get
    monkeypatch.setattr(
        TranscriptCache, "get", lambda cache, key: reads.append(key) or original(cache, key)
    )
    cache_path = os.path.join(DATA_DIR, CORPORA["batch50"][1])
    cfg = scripted_config(None, "replay", cache_path)
    traces = run_batch(corpus_problems("batch50"), cfg, workers=2)
    assert (len(reads), len(set(reads))) == (425, 119)
    assert [golden_line(t) for t in traces] == golden("batch50")


class GatedModel:
    """A scripted model that counts its calls by the word each prompt asks
    about; a call on a word in `held` waits for `gate`, and every call
    raises `error` when one is set."""

    def __init__(self, held=(), error=None):
        self.held = held
        self.error = error
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.calls = {}
        self.lock = threading.Lock()

    def __call__(self, request):
        word = request["prompt"].split("\n1. ", 1)[1].split("\n", 1)[0]
        with self.lock:
            self.calls[word] = self.calls.get(word, 0) + 1
        if word in self.held:
            self.entered.release()
            assert self.gate.wait(10)
        if self.error is not None:
            raise self.error
        return fenced("1: works")


def table_config(model):
    """A live config whose asks share one reply table, as a batch's do."""
    cfg = scripted_config(model, "live")
    cfg.replies = ReplyTable()
    return cfg


def ask_events(cfg, word):
    """One DETECT_EVENTS ask about `word`; the reply's fenced block."""
    ctx = PipelineContext(cfg, worked_example_problems()[0])
    return ctx.ask(StageKind.DETECT_EVENTS, {"sentences": "1. " + word}, str)


@pytest.fixture
def waiters(monkeypatch):
    """Released each time an ask starts to wait for another's call."""
    waiting = threading.Semaphore(0)

    class Slot(Future):
        def result(self, timeout=None):
            waiting.release()
            return super().result(timeout)

    monkeypatch.setattr(verifine.llm, "Future", Slot)
    return waiting


def test_concurrent_asks_of_one_prompt_make_one_call(waiters):
    model = GatedModel(held=("alpha",))
    cfg = table_config(model)
    with ThreadPoolExecutor(2) as pool:
        first = pool.submit(ask_events, cfg, "alpha")
        assert model.entered.acquire(timeout=10)
        second = pool.submit(ask_events, cfg, "alpha")
        assert waiters.acquire(timeout=10)
        model.gate.set()
        assert first.result(10) == second.result(10) == "1: works"
    assert model.calls == {"alpha": 1}


def test_a_failed_call_reaches_every_waiter_and_is_not_kept(waiters):
    gave_up = HttpError("gave up after 4 attempts: endpoint returned 503", 503)
    model = GatedModel(held=("alpha",), error=gave_up)
    cfg = table_config(model)
    with ThreadPoolExecutor(2) as pool:
        first = pool.submit(ask_events, cfg, "alpha")
        assert model.entered.acquire(timeout=10)
        second = pool.submit(ask_events, cfg, "alpha")
        assert waiters.acquire(timeout=10)
        model.gate.set()
        for ask in (first, second):
            with pytest.raises(HttpError):
                ask.result(10)
        assert model.calls == {"alpha": 1}
        model.error = None
        assert ask_events(cfg, "alpha") == "1: works"
    assert model.calls == {"alpha": 2}


@pytest.mark.parametrize(
    "status,kept", [(400, True), (404, True), (429, False), (503, False), (None, False)]
)
def test_only_a_refusal_is_kept(status, kept):
    """A 4xx other than 429 is refused again on every ask, so a later ask
    re-raises it; a call that gave up after retrying (429, 5xx, or a
    transport failure without a status) is asked again."""
    model = GatedModel(error=HttpError("endpoint returned %s" % status, status))
    cfg = table_config(model)
    for _ in range(2):
        with pytest.raises(HttpError, match="endpoint returned %s" % status):
            ask_events(cfg, "alpha")
    assert model.calls == {"alpha": 1 if kept else 2}


def test_the_table_holds_at_most_its_size_and_keeps_calls_in_flight(monkeypatch):
    monkeypatch.setattr(verifine.llm, "REPLY_TABLE_SIZE", 2)
    model = GatedModel(held=("alpha", "bravo"))
    cfg = table_config(model)
    with ThreadPoolExecutor(2) as pool:
        asks = [pool.submit(ask_events, cfg, word) for word in ("alpha", "bravo")]
        for _ in asks:
            assert model.entered.acquire(timeout=10)
        # Every entry is in flight, so a new prompt is asked past the table.
        assert ask_events(cfg, "charlie") == "1: works"
        assert len(cfg.replies) == 2
        model.gate.set()
        assert [ask.result(10) for ask in asks] == ["1: works"] * 2
        for word in ("alpha", "bravo", "charlie", "charlie", "bravo", "alpha"):
            ask_events(cfg, word)
            assert len(cfg.replies) <= 2
    # charlie's second ask dropped alpha, the oldest settled reply.
    assert model.calls == {"alpha": 2, "bravo": 1, "charlie": 2}

    # And across a whole batch on two workers.
    sizes, tables = [], []
    scripted = batch_transport()

    class Watched(ReplyTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    def watching(request):
        sizes.append(len(tables[0]))
        return scripted(request)

    monkeypatch.setattr(verifine.batch, "ReplyTable", Watched)
    batch = scripted_config(watching, "live")
    traces = run_batch(corpus_problems("batch50"), batch, workers=2)
    assert len(tables) == 1
    assert 119 < len(sizes) and max(sizes) <= 2
    assert [golden_line(t) for t in traces] == golden("batch50")


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


def test_a_refused_check_retires_the_batch_session(monkeypatch):
    """A batch session that stops answering is retired at the first check
    it refuses: that problem fails as before, and the later problems
    start a fresh session and finish as planned."""
    problems = four_problems()
    server = FakeIsabelleServer()
    server.numbered_sessions = True
    cleared = threading.Event()
    run = verifine.batch.run_refiner

    def after_the_clear(problem, cfg):
        # The first problem's session is gone before the second runs.
        if problem is not problems[0]:
            assert cleared.wait(10)
        return run(problem, cfg)

    def on_result(trace):
        if not cleared.is_set():
            server.live_sessions.clear()
            cleared.set()

    monkeypatch.setattr(verifine.batch, "run_refiner", after_the_clear)
    try:
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=isabelle_backend(server),
            mode="live",
            transport=worked_example_transport(),
        )
        traces = run_batch(problems, cfg, on_result=on_result)
        lifecycle = commands(server, "session_start", "session_stop")
        checked = [a["session_id"] for n, a in server.requests if n == "use_theories"]
        stopped = [a["session_id"] for n, a in server.requests if n == "session_stop"]
        del server.requests[:]
        alone = [run_refiner(problem, cfg) for problem in problems]
    finally:
        server.close()
    failed = traces[1]
    assert (failed.final_status, failed.total_iterations) == ("exhausted_invalid", 0)
    assert failed.diagnostic == (
        "pipeline error: use_theories rejected: {'value': 'no running session sess-1'}"
    )
    planned = [golden_line(t) for t in alone]
    assert golden_line(traces[0]) == planned[0]
    assert [golden_line(t) for t in traces[2:]] == planned[2:]
    assert lifecycle == ["session_start", "session_start", "session_stop", "session_stop"]
    # The refused check is the last in sess-1; every later one is in sess-2.
    fresh = checked.index("sess-2")
    assert set(checked[:fresh]) == {"sess-1"} and set(checked[fresh:]) == {"sess-2"}
    assert stopped == ["sess-1", "sess-2"]


@pytest.mark.parametrize("fault", ["refused", "dropped"])
def test_a_failed_check_retires_the_shared_session(fault):
    server = FakeIsabelleServer()
    server.numbered_sessions = True
    shared = SharedSession(isabelle_backend(server))
    try:
        first = start_session(shared)
        if fault == "refused":
            server.live_sessions.clear()
        server.die_on_use_theories = fault == "dropped"
        error = SessionDead if fault == "dropped" else ProverError
        with pytest.raises(error, match="closed" if fault == "dropped" else "rejected"):
            first.check_document(violin_doc(), timeout_s=5.0)
        first.close()
        server.die_on_use_theories = False
        second = start_session(shared)
        assert second.session_id == "sess-2"
        assert second.check_document(violin_doc(), timeout_s=5.0).status == "valid"
        second.close()
        shared.close()
    finally:
        server.close()
    stopped = [a["session_id"] for n, a in server.requests if n == "session_stop"]
    assert stopped == ["sess-1", "sess-2"]


@pytest.mark.parametrize("fault", ["refused", "dropped"])
def test_verify_reports_a_failed_check_and_stops_its_session(fault, monkeypatch):
    server = FakeIsabelleServer()
    server.die_on_use_theories = fault == "dropped"
    opened = verifine.cli.start_session

    def start_then_lose_it(backend):
        handle = opened(backend)
        if fault == "refused":
            server.live_sessions.clear()
        return handle

    monkeypatch.setattr(verifine.cli, "start_session", start_then_lose_it)
    refusal = "server closed the connection" if fault == "dropped" else "rejected"
    try:
        with pytest.raises(SystemExit, match="prover check failed: .*" + refusal):
            verifine.cli.main([
                "verify", "--theory", os.path.join(DATA_DIR, "violin_golden.thy"),
                "--backend", "isabelle", "--isabelle-host", "127.0.0.1",
                "--isabelle-port", str(server.port),
                "--isabelle-password", server.password, "--timeout", "5",
            ])
    finally:
        server.close()
    assert commands(server, "use_theories", "session_stop") == [
        "use_theories", "session_stop",
    ]


def test_overlapping_batches_keep_apart(monkeypatch):
    """Two batches on one config, run at once from two threads, each
    start, check in and stop a session of their own, and share model
    calls only within themselves.  Each batch's first result waits for
    the other's, so both sessions are live together."""
    server = FakeIsabelleServer()
    server.numbered_sessions = True
    model = counting(worked_example_transport())
    cfg = RefinerConfig(
        llm=gateway_config(), backend=isabelle_backend(server), mode="live", transport=model
    )
    live_together = []
    met = threading.Barrier(
        2, action=lambda: live_together.append(dict(+server.live_sessions))
    )
    # By batch: the session ids its checks used, and the sessions stopped
    # by the time its last problem reported.
    checked = collections.defaultdict(set)
    stopped_before_end = {}
    current = threading.local()
    run, check = verifine.batch.run_refiner, verifine.pipeline.check_theory

    def running(problem, batch_cfg):
        current.batch = problem.id[0]
        return run(problem, batch_cfg)

    def checking(handle, doc, timeout_s):
        checked[getattr(current, "batch", None)].add(handle.session_id)
        return check(handle, doc, timeout_s)

    monkeypatch.setattr(verifine.batch, "run_refiner", running)
    monkeypatch.setattr(verifine.pipeline, "check_theory", checking)

    def batch(label):
        problems = [dataclasses.replace(p, id=label + p.id) for p in four_problems()]
        reported = []

        def on_result(trace):
            reported.append(trace)
            if len(reported) == 1:
                met.wait(10)
            if len(reported) == len(problems):
                stopped_before_end[label] = commands(server, "session_stop")

        return run_batch(problems, cfg, on_result=on_result)

    try:
        with ThreadPoolExecutor(2) as pool:
            both = [pool.submit(batch, label) for label in "ab"]
            traces = [future.result(30) for future in both]
        lifecycle = commands(server, "session_start", "session_stop")
        stopped = [a["session_id"] for n, a in server.requests if n == "session_stop"]
        calls = model.calls
        run_batch(four_problems(), cfg)
        one_batch = model.calls - calls
        for problem in four_problems():
            run_refiner(problem, cfg)
        unshared = model.calls - calls - one_batch
    finally:
        server.close()
    assert all(t.diagnostic is None for batch_traces in traces for t in batch_traces)
    assert live_together == [{"sess-1": 1, "sess-2": 1}]
    assert lifecycle.count("session_start") == 2
    assert sorted(stopped) == ["sess-1", "sess-2"]
    [a_session], [b_session] = checked["a"], checked["b"]
    assert a_session != b_session
    # Neither batch's session was stopped before its own last problem.
    assert a_session not in stopped_before_end["a"]
    assert b_session not in stopped_before_end["b"]
    assert calls == 2 * one_batch < 2 * unshared


def test_a_failed_start_leaves_no_batch_session():
    server = FakeIsabelleServer()
    shared = SharedSession(isabelle_backend(server))
    try:
        server.fail_session_start = True
        with pytest.raises(SessionBuildFailed):
            start_session(shared)
        server.fail_session_start = False
        first, second = start_session(shared), start_session(shared)
        first.close()
        second.close()
        assert commands(server, "session_stop") == []
        shared.close()
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


def test_outside_a_batch_a_timed_out_session_is_still_stopped():
    """A check that times out leaves its connection dead, so `close`
    stops the session over a fresh connection."""
    server = FakeIsabelleServer()
    server.hang_on_use_theories = True
    try:
        handle = start_session(isabelle_backend(server))
        assert handle.check_document(violin_doc(), timeout_s=0.3).status == "timeout"
        handle.close()
    finally:
        server.close()
    assert commands(server, "session_start", "use_theories", "session_stop") == [
        "session_start", "use_theories", "session_stop",
    ]
    assert not +server.live_sessions


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

"""Gateway behaviour: templates, caching, transport retries, and stage
output extraction through the parsers the pipeline passes in."""

import contextlib
import functools
import hashlib
import json
import socket
import string
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verifine.llm as llm
from verifine.llm import (
    CacheMiss,
    HttpError,
    LLMConfig,
    MalformedStageOutput,
    TemplateUnbound,
    Transcript,
    TranscriptCache,
    complete,
    extract_stage_output,
    http_transport,
    last_fenced_block,
    render_prompt,
    transcript_key,
)
from verifine.llmtypes import StageKind
from verifine.pipeline import (
    InferenceStrategy,
    _attach_proof,
    _one_line_formula,
    _parse_events,
    _parse_sentences,
    _parse_strategy,
    _repaired_theory,
)
from verifine.prompts import TEMPLATES
from verifine.theory import StepKind

from helpers import fenced
from test_theory import violin_doc


def placeholder_names(stage):
    return {
        name
        for _, name, _, _ in string.Formatter().parse(TEMPLATES[stage])
        if name is not None
    }


def bindings_for(stage, value="sample"):
    return {name: value for name in placeholder_names(stage)}


def make_config(**overrides):
    overrides.setdefault("endpoint", "http://unused.invalid/v1/chat/completions")
    overrides.setdefault("model_name", "test-model")
    return LLMConfig(**overrides)


class TestTemplates:
    def test_every_stage_has_a_template(self):
        assert set(TEMPLATES) == set(StageKind)

    def test_every_template_demands_a_fenced_answer(self):
        for stage in StageKind:
            assert "fenced code block" in TEMPLATES[stage]

    @pytest.mark.parametrize("stage", list(StageKind), ids=lambda s: s.value)
    def test_render_fills_all_placeholders(self, stage):
        prompt = render_prompt(stage, bindings_for(stage, "VALUE"))
        assert "{" not in prompt.replace("{{", "").replace("}}", "")
        if placeholder_names(stage):
            assert "VALUE" in prompt

    def test_missing_binding_raises_with_names(self):
        with pytest.raises(TemplateUnbound) as info:
            render_prompt(StageKind.SENTENCE_TO_LOGIC, {})
        assert info.value.stage is StageKind.SENTENCE_TO_LOGIC
        assert list(info.value.names) == sorted(
            placeholder_names(StageKind.SENTENCE_TO_LOGIC)
        )

    def test_extra_bindings_are_ignored(self):
        bindings = bindings_for(StageKind.ROUGH_INFERENCE)
        bindings["unrelated"] = "junk"
        assert "junk" not in render_prompt(StageKind.ROUGH_INFERENCE, bindings)

    def test_rendering_is_deterministic(self):
        bindings = bindings_for(StageKind.ROUGH_INFERENCE)
        assert render_prompt(StageKind.ROUGH_INFERENCE, bindings) == render_prompt(
            StageKind.ROUGH_INFERENCE, bindings
        )


class TestTranscriptKey:
    def test_matches_independent_derivation(self):
        payload = "\x1f".join(
            [StageKind.CONSTRUCT_PROOF.value, "m", "0.250000", "prompt text"]
        )
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        key = transcript_key(StageKind.CONSTRUCT_PROOF, "prompt text", "m", 0.25)
        assert key == expected

    def test_every_component_feeds_the_key(self):
        base = transcript_key(StageKind.CONSTRUCT_PROOF, "p", "m", 0.0)
        assert transcript_key(StageKind.REFINE_SYNTAX, "p", "m", 0.0) != base
        assert transcript_key(StageKind.CONSTRUCT_PROOF, "q", "m", 0.0) != base
        assert transcript_key(StageKind.CONSTRUCT_PROOF, "p", "m2", 0.0) != base
        assert transcript_key(StageKind.CONSTRUCT_PROOF, "p", "m", 0.5) != base


class TestTranscriptCache:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = TranscriptCache(path)
        cache.put(Transcript("k1", "p1", "r1", "2026-01-01T00:00:00+00:00"))
        cache.put(Transcript("k2", "p2", "r2", "2026-01-01T00:00:01+00:00"))
        reloaded = TranscriptCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("k1") == "r1"
        assert reloaded.get("k2") == "r2"
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.readline()) == {
                "key": "k1",
                "prompt": "p1",
                "response": "r1",
                "timestamp": "2026-01-01T00:00:00+00:00",
            }

    def test_last_record_wins(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = TranscriptCache(path)
        cache.put(Transcript("k", "p", "first", "t0"))
        cache.put(Transcript("k", "p", "second", "t1"))
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2
        assert TranscriptCache(path).get("k") == "second"

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = {"key": "k", "prompt": "p", "response": "r", "timestamp": "t"}
        path.write_text(json.dumps(record) + "\n\n", encoding="utf-8")
        assert TranscriptCache(str(path)).get("k") == "r"

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        whole = json.dumps(
            {"key": "k", "prompt": "p", "response": "r", "timestamp": "t"}
        )
        torn = json.dumps(
            {"key": "k2", "prompt": "p2", "response": "r2", "timestamp": "t2"}
        )[:25]
        path.write_text(whole + "\n" + torn, encoding="utf-8")
        with caplog.at_level("WARNING", logger="verifine.llm"):
            cache = TranscriptCache(str(path))
        assert len(cache) == 1
        assert cache.get("k") == "r"
        assert "torn" in caplog.text
        cache.put(Transcript("k3", "p3", "r3", "t3"))
        reloaded = TranscriptCache(str(path))
        assert len(reloaded) == 2
        assert reloaded.get("k3") == "r3"

    def test_corrupt_line_before_the_last_still_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        whole = json.dumps(
            {"key": "k", "prompt": "p", "response": "r", "timestamp": "t"}
        )
        path.write_text(whole[:25] + "\n" + whole + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            TranscriptCache(str(path))

    def test_missing_file_starts_empty(self, tmp_path):
        assert len(TranscriptCache(str(tmp_path / "absent.jsonl"))) == 0

    def test_put_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "cache.jsonl")
        TranscriptCache(path).put(Transcript("k", "p", "r", "t"))
        assert TranscriptCache(path).get("k") is not None

    def test_concurrent_puts_each_write_one_intact_line(self, tmp_path):
        """Record mode writes from the stage pool's threads at once."""
        path = str(tmp_path / "cache.jsonl")
        cache = TranscriptCache(path)
        threads, puts = 8, 40
        start = threading.Barrier(threads)
        want = {
            "k%d.%d" % (t, i): "reply %d.%d " % (t, i) + "x" * 4000
            for t in range(threads)
            for i in range(puts)
        }

        def put_many(t):
            start.wait(timeout=10)
            for i in range(puts):
                key = "k%d.%d" % (t, i)
                cache.put(Transcript(key, "prompt " + key, want[key], "t"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=put_many, args=(t,)) for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh.read().splitlines()]
        assert sorted(r["key"] for r in records) == sorted(want)
        assert all(r["response"] == want[r["key"]] for r in records)
        reloaded = TranscriptCache(path)
        assert len(reloaded) == len(want)
        assert all(reloaded.get(key) == reply for key, reply in want.items())


class TestCompleteModes:
    STAGE = StageKind.SENTENCE_TO_LOGIC

    def transport_returning(self, response, calls):
        def transport(request):
            calls.append(request)
            return response

        return transport

    def test_live_returns_response_and_stores_nothing(self, tmp_path):
        calls = []
        cache = TranscriptCache(str(tmp_path / "c.jsonl"))
        out = complete(
            self.STAGE,
            bindings_for(self.STAGE),
            make_config(),
            mode="live",
            cache=cache,
            transport=self.transport_returning("answer", calls),
        )
        assert out == "answer"
        assert len(calls) == 1
        assert len(cache) == 0

    def test_request_carries_full_call_shape(self, monkeypatch):
        monkeypatch.setenv("VERIFINE_API_KEY", "sk-verifine")
        calls = []
        cfg = make_config(temperature=0.5, max_tokens=77, http_timeout_s=9.0)
        complete(
            self.STAGE,
            bindings_for(self.STAGE),
            cfg,
            transport=self.transport_returning("ok", calls),
        )
        request = calls[0]
        assert request["stage"] == self.STAGE.value
        assert request["endpoint"] == cfg.endpoint
        assert request["model"] == "test-model"
        assert request["temperature"] == 0.5
        assert request["max_tokens"] == 77
        assert request["http_timeout"] == 9.0
        assert request["api_key"] == "sk-verifine"
        assert request["prompt"] == render_prompt(
            self.STAGE, bindings_for(self.STAGE)
        )

    def test_record_then_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        calls = []
        cfg = make_config()
        bindings = bindings_for(self.STAGE)
        recorded = complete(
            self.STAGE,
            bindings,
            cfg,
            mode="record",
            cache=TranscriptCache(path),
            transport=self.transport_returning("recorded reply", calls),
        )
        assert recorded == "recorded reply"

        def explode(request):
            raise AssertionError("replay must not call the transport")

        replayed = complete(
            self.STAGE,
            bindings,
            cfg,
            mode="replay",
            cache=TranscriptCache(path),
            transport=explode,
        )
        assert replayed == "recorded reply"

    def test_replay_without_cache_raises(self):
        with pytest.raises(ValueError, match="replay mode requires a transcript cache"):
            complete(
                self.STAGE, bindings_for(self.STAGE), make_config(), mode="replay"
            )

    def test_replay_miss_names_the_stage(self, tmp_path):
        cache = TranscriptCache(str(tmp_path / "c.jsonl"))
        with pytest.raises(CacheMiss, match=self.STAGE.value):
            complete(
                self.STAGE,
                bindings_for(self.STAGE),
                make_config(),
                mode="replay",
                cache=cache,
            )

    def test_record_without_cache_raises(self):
        with pytest.raises(ValueError):
            complete(
                self.STAGE,
                bindings_for(self.STAGE),
                make_config(),
                mode="record",
                transport=lambda request: "x",
            )

    def test_record_without_cache_never_calls_the_transport(self):
        calls = []
        with pytest.raises(ValueError, match="record mode requires a transcript cache"):
            complete(
                self.STAGE,
                bindings_for(self.STAGE),
                make_config(),
                mode="record",
                transport=self.transport_returning("x", calls),
            )
        assert calls == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            complete(
                self.STAGE, bindings_for(self.STAGE), make_config(), mode="offline"
            )

    def test_stage_model_override_changes_key_and_request(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        calls = []
        plain = make_config()
        tuned = make_config(
            per_stage_overrides={self.STAGE: "stronger-model"}
        )
        complete(
            self.STAGE,
            bindings_for(self.STAGE),
            tuned,
            mode="record",
            cache=TranscriptCache(path),
            transport=self.transport_returning("tuned reply", calls),
        )
        assert calls[0]["model"] == "stronger-model"
        with pytest.raises(CacheMiss):
            complete(
                self.STAGE,
                bindings_for(self.STAGE),
                plain,
                mode="replay",
                cache=TranscriptCache(path),
            )

    def test_temperature_outside_range_rejected(self):
        with pytest.raises(ValueError):
            make_config(temperature=2.5)

    @pytest.mark.parametrize(
        "name, value, refusal",
        [
            ("max_tokens", 0, "max_tokens must be >= 1"),
            ("retry_attempts", -1, "retry_attempts must be >= 0"),
            ("backoff_base_s", -0.5, "backoff_base_s must be >= 0"),
            ("http_timeout_s", 0.0, "http_timeout_s must be > 0"),
        ],
    )
    def test_values_that_break_the_call_are_rejected(self, name, value, refusal):
        with pytest.raises(ValueError, match=refusal):
            make_config(**{name: value})


# --- HTTP transport against a local stub endpoint ---------------------------

def chat_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class _StubHandler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.seen.append((self.path, dict(self.headers), body))
        if self.server.script:
            status, payload = self.server.script.pop(0)
        else:
            status, payload = 200, chat_payload("fallback")
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        # A server that drops idle connections replies, then closes
        # without saying so in the reply.
        self.close_connection = self.server.drop_idle


@contextlib.contextmanager
def stub_server(handler=_StubHandler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script = []
    server.seen = []
    server.connections = 0
    server.drop_idle = False
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


@pytest.fixture
def endpoint():
    with stub_server() as served:
        yield served


@pytest.fixture
def keepalive_endpoint():
    with stub_server(_KeepAliveHandler) as served:
        yield served


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def http_request(url, **overrides):
    request = {
        "stage": "sentence_to_logic",
        "endpoint": url,
        "model": "test-model",
        "temperature": 0.0,
        "max_tokens": 64,
        "prompt": "hello",
        "http_timeout": 5.0,
        "api_key": "",
    }
    request.update(overrides)
    return request


class TestHttpTransport:
    def test_success_returns_message_content(self, endpoint):
        server, url = endpoint
        server.script.append((200, chat_payload("the formula")))
        assert http_transport(http_request(url)) == "the formula"
        path, headers, body = server.seen[0]
        assert path == "/v1/chat/completions"
        assert "Authorization" not in headers
        assert body == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.0,
            "max_tokens": 64,
        }

    def test_api_key_becomes_bearer_header(self, endpoint):
        server, url = endpoint
        server.script.append((200, chat_payload("x")))
        http_transport(http_request(url, api_key="sk-123"))
        _, headers, _ = server.seen[0]
        assert headers.get("Authorization") == "Bearer sk-123"

    def test_hard_status_raises_without_retry_classification(self, endpoint):
        server, url = endpoint
        server.script.append((404, {"error": "no such route"}))
        with pytest.raises(HttpError) as info:
            http_transport(http_request(url))
        assert info.value.status == 404
        assert not isinstance(info.value, llm._TransientHttpError)

    def test_unparseable_body_raises(self, endpoint):
        server, url = endpoint
        server.script.append((200, {"unexpected": True}))
        with pytest.raises(HttpError, match="unexpected response shape"):
            http_transport(http_request(url))

    def test_connection_refused_is_transient(self):
        probe_url = "http://127.0.0.1:9/v1/chat/completions"
        with pytest.raises(llm._TransientHttpError):
            http_transport(http_request(probe_url, http_timeout=0.5))


class TestKeptAliveTransport:
    def test_calls_share_one_connection(self, keepalive_endpoint):
        server, url = keepalive_endpoint
        replies = [http_transport(http_request(url)) for _ in range(5)]
        assert replies == ["fallback"] * 5
        assert len(server.seen) == 5
        assert server.connections == 1

    def test_connection_the_server_dropped_is_replaced(self, keepalive_endpoint):
        server, url = keepalive_endpoint
        server.drop_idle = True
        assert http_transport(http_request(url)) == "fallback"
        # The kept connection is closed at the server by now; the call
        # must neither fail nor count as a retry.
        assert http_transport(http_request(url)) == "fallback"
        assert len(server.seen) == 2
        assert server.connections == 2

    def test_a_thread_keeps_one_connection_to_the_endpoint_it_called_last(
        self, keepalive_endpoint
    ):
        """A stage-pool thread outlives the run whose endpoint it called,
        so calling another endpoint closes the old connection."""
        first, first_url = keepalive_endpoint
        with stub_server(_KeepAliveHandler) as (second, second_url):
            for url in (first_url, second_url, first_url, first_url):
                assert http_transport(http_request(url)) == "fallback"
        assert (first.connections, second.connections) == (2, 1)

    def test_silent_server_times_out_as_transient(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        url = "http://127.0.0.1:%d/v1/chat/completions" % listener.getsockname()[1]
        started = time.monotonic()
        try:
            with pytest.raises(llm._TransientHttpError, match="timed out"):
                http_transport(http_request(url, http_timeout=0.5))
        finally:
            listener.close()
        assert time.monotonic() - started < 1.5

    def test_http_proxy_takes_the_absolute_url(self, endpoint, no_proxy_env):
        server, url = endpoint
        with stub_server() as (proxy, proxy_url):
            no_proxy_env.setenv("http_proxy", proxy_url.split("/v1/")[0])
            assert http_transport(http_request(url)) == "fallback"
            assert [path for path, _, _ in proxy.seen] == [url]
            assert server.seen == []
            no_proxy_env.setenv("no_proxy", "127.0.0.1")
            assert http_transport(http_request(url)) == "fallback"
            assert len(proxy.seen) == 1
            assert [path for path, _, _ in server.seen] == ["/v1/chat/completions"]


class TestRetryLoop:
    def run_complete(self, url, monkeypatch):
        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        cfg = make_config(endpoint=url)
        out = complete(
            StageKind.SENTENCE_TO_LOGIC,
            bindings_for(StageKind.SENTENCE_TO_LOGIC),
            cfg,
        )
        return out, sleeps

    def test_three_rate_limits_then_success(self, endpoint, monkeypatch):
        server, url = endpoint
        server.script.extend([(429, {})] * 3 + [(200, chat_payload("finally"))])
        out, sleeps = self.run_complete(url, monkeypatch)
        assert out == "finally"
        assert len(server.seen) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_persistent_failure_gives_up_after_four_attempts(
        self, endpoint, monkeypatch
    ):
        server, url = endpoint
        server.script.extend([(503, {})] * 8)
        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        with pytest.raises(HttpError, match="gave up after 4 attempts"):
            complete(
                StageKind.SENTENCE_TO_LOGIC,
                bindings_for(StageKind.SENTENCE_TO_LOGIC),
                make_config(endpoint=url),
            )
        assert len(server.seen) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_hard_error_is_not_retried(self, endpoint, monkeypatch):
        server, url = endpoint
        server.script.append((400, {"error": "bad request"}))
        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        with pytest.raises(HttpError):
            complete(
                StageKind.SENTENCE_TO_LOGIC,
                bindings_for(StageKind.SENTENCE_TO_LOGIC),
                make_config(endpoint=url),
            )
        assert len(server.seen) == 1
        assert sleeps == []

    def test_retry_budget_is_configurable(self, endpoint, monkeypatch):
        server, url = endpoint
        server.script.extend([(429, {})] * 4)
        monkeypatch.setattr(llm.time, "sleep", lambda s: None)
        with pytest.raises(HttpError, match="gave up after 2 attempts"):
            complete(
                StageKind.SENTENCE_TO_LOGIC,
                bindings_for(StageKind.SENTENCE_TO_LOGIC),
                make_config(endpoint=url, retry_attempts=1),
            )
        assert len(server.seen) == 2


class TestFencedBlocks:
    def test_no_block_is_none(self):
        assert last_fenced_block("plain text, no fences") is None

    def test_single_block(self):
        assert last_fenced_block("before\n```\npayload\n```\nafter") == "payload"

    def test_last_block_wins(self):
        raw = "```\nfirst\n```\nthinking...\n```\nsecond\n```"
        assert last_fenced_block(raw) == "second"

    def test_language_tag_is_ignored(self):
        raw = "```isabelle\ntheory x\n```"
        assert last_fenced_block(raw) == "theory x"

    def test_unclosed_fence_is_no_block(self):
        assert last_fenced_block("```\ndangling") is None

    def test_multiline_content_preserved(self):
        raw = fenced("line one\n\nline three")
        assert last_fenced_block(raw) == "line one\n\nline three"


KNOWN_IDS = ("f1", "f2", "f3")


def stage_parser(stage):
    """The parser the pipeline passes the gateway for `stage`; a round's
    theory is the proofless violin theory, its fact ids f1-f3."""
    doc = violin_doc().without_proof()
    return {
        StageKind.DETECT_EVENTS: _parse_events,
        StageKind.SENTENCE_TO_LOGIC: _one_line_formula,
        StageKind.REFINE_SYNTAX: functools.partial(_repaired_theory, doc.name),
        StageKind.ROUGH_INFERENCE: functools.partial(_parse_strategy, KNOWN_IDS),
        StageKind.CONSTRUCT_PROOF: functools.partial(_attach_proof, doc),
        StageKind.REFINE_EXPLANATION: _parse_sentences,
    }[stage]


def extract(stage, raw):
    return extract_stage_output(stage, raw, stage_parser(stage))


class TestExtraction:
    def test_detect_events_lines(self):
        raw = fenced("1: peruses, sits\n2:\n3: making")
        assert extract(StageKind.DETECT_EVENTS, raw) == {
            1: ["peruses", "sits"],
            2: [],
            3: ["making"],
        }

    def test_detect_events_rejects_unlabelled_line(self):
        with pytest.raises(MalformedStageOutput) as exc:
            extract(StageKind.DETECT_EVENTS, fenced("no colon here"))
        assert str(exc.value) == (
            "stage detect_events failed: expected `<id>: verbs` lines, "
            "got 'no colon here'"
        )

    def test_sentence_to_logic_joins_lines(self):
        raw = fenced("∀x. Woman(x) →\n  Lady(x)")
        out = extract(StageKind.SENTENCE_TO_LOGIC, raw)
        assert out == "∀x. Woman(x) →   Lady(x)"

    def test_sentence_to_logic_rejects_empty_block(self):
        with pytest.raises(MalformedStageOutput) as exc:
            extract(StageKind.SENTENCE_TO_LOGIC, fenced("  \n "))
        assert str(exc.value) == "stage sentence_to_logic failed: empty formula"

    @pytest.mark.parametrize("stage", [StageKind.REFINE_SYNTAX], ids=lambda s: s.value)
    def test_theory_fragments_come_back_verbatim(self, stage):
        fragment = violin_doc().without_proof().rendered
        assert extract(stage, fenced(fragment)).rendered == fragment

    def test_repaired_theory_keeps_the_problem_name_and_drops_the_proof(self):
        renamed = violin_doc().rendered.replace("theory violin", "theory other")
        repaired = extract(StageKind.REFINE_SYNTAX, fenced(renamed))
        assert repaired == violin_doc().without_proof()

    def test_unparseable_repair_is_malformed(self):
        with pytest.raises(MalformedStageOutput):
            extract(StageKind.REFINE_SYNTAX, fenced("  \n"))

    def test_rough_inference_sections(self):
        raw = fenced(
            "The premise already names a woman.\n"
            "Only the bridging fact matters.\n"
            "Relevant: f2, f3\n"
            "Redundant: f1"
        )
        out = extract(StageKind.ROUGH_INFERENCE, raw)
        assert out.relevant_fact_ids == ("f2", "f3")
        assert out.redundant_fact_ids == ("f1",)
        assert "bridging fact" in out.narrative

    def test_rough_inference_sections_optional(self):
        out = extract(StageKind.ROUGH_INFERENCE, fenced("nothing stands out"))
        assert out == InferenceStrategy("nothing stands out")

    def test_rough_inference_rejects_bad_ids(self):
        with pytest.raises(MalformedStageOutput):
            extract(StageKind.ROUGH_INFERENCE, fenced("Relevant: f#1"))

    def test_construct_proof_parses_steps(self):
        raw = fenced(
            "proof -\n"
            '  from asm have "Woman x" by blast\n'
            '  then have "Lady x" using explanation_1 by blast\n'
            "  then show ?thesis using asm by blast\n"
            "qed"
        )
        steps = extract(StageKind.CONSTRUCT_PROOF, raw).proof
        assert [s.kind for s in steps] == [
            StepKind.FROM_ASM_HAVE,
            StepKind.THEN_HAVE,
            StepKind.THEN_SHOW_THESIS,
        ]
        assert steps[1].facts_used == ("explanation_1",)

    def test_construct_proof_wrapped_or_bare_gives_the_same_steps(self):
        lines = (
            '  from asm have "Woman x" by blast\n'
            '  then have "Lady x" using explanation_1 by blast\n'
            "  then show ?thesis using asm by blast\n"
        )
        wrapped = fenced("proof -\n" + lines + "qed")
        bare = fenced(lines)
        assert extract(StageKind.CONSTRUCT_PROOF, wrapped) == extract(
            StageKind.CONSTRUCT_PROOF, bare
        )

    def test_construct_proof_stops_at_qed(self):
        raw = fenced(
            "proof -\n"
            '  from asm have "Woman x" by blast\n'
            "  then show ?thesis using asm by blast\n"
            "qed\n"
            "Hope this helps!"
        )
        steps = extract(StageKind.CONSTRUCT_PROOF, raw).proof
        assert [s.kind for s in steps] == [
            StepKind.FROM_ASM_HAVE,
            StepKind.THEN_SHOW_THESIS,
        ]

    def test_construct_proof_rejects_foreign_tactics(self):
        with pytest.raises(MalformedStageOutput):
            extract(StageKind.CONSTRUCT_PROOF, fenced("apply auto"))

    def test_construct_proof_requires_final_show(self):
        raw = fenced('from asm have "Woman x" by blast')
        with pytest.raises(MalformedStageOutput):
            extract(StageKind.CONSTRUCT_PROOF, raw)

    def test_construct_proof_rejects_a_dangling_citation(self):
        raw = fenced(
            'from asm have "Woman x" using explanation_9 by blast\n'
            "then show ?thesis by blast"
        )
        with pytest.raises(MalformedStageOutput) as exc:
            extract(StageKind.CONSTRUCT_PROOF, raw)
        assert "undeclared fact 'explanation_9'" in str(exc.value)

    def test_refine_explanation_strips_bullets(self):
        raw = fenced(
            "- A woman can be referred to as a lady.\n"
            "* A photo album is a type of book.\n"
            "1. If a woman is perusing a photo album, then the woman is "
            "with a book."
        )
        out = extract(StageKind.REFINE_EXPLANATION, raw)
        assert out == [
            "A woman can be referred to as a lady.",
            "A photo album is a type of book.",
            "If a woman is perusing a photo album, then the woman is with a book.",
        ]

    def test_refine_explanation_rejects_blank_block(self):
        with pytest.raises(MalformedStageOutput):
            extract(StageKind.REFINE_EXPLANATION, fenced("\n- \n"))

    def test_missing_fence_is_malformed(self):
        with pytest.raises(MalformedStageOutput) as exc:
            extract(StageKind.ROUGH_INFERENCE, "relevant: f1 f2")
        assert str(exc.value) == (
            "stage rough_inference failed: no fenced code block in response"
        )


class TestExtractionTotality:
    @settings(max_examples=60, deadline=None)
    @given(stage=st.sampled_from(list(StageKind)), raw=st.text(max_size=300))
    def test_raw_text_never_escapes_contract(self, stage, raw):
        try:
            extract(stage, raw)
        except MalformedStageOutput:
            pass

    @settings(max_examples=60, deadline=None)
    @given(stage=st.sampled_from(list(StageKind)), body=st.text(max_size=300))
    def test_fenced_garbage_never_escapes_contract(self, stage, body):
        try:
            extract(stage, "```\n" + body + "\n```")
        except MalformedStageOutput:
            pass
